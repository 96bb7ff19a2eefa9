//! Row-band sharding primitives for MGCG's parallel smoother.
//!
//! The workspace is offline and dependency-free, so the sharded
//! Gauss-Seidel smoothing in [`crate::multigrid`] is built from `std`
//! alone: scoped worker threads ([`std::thread::scope`]),
//! [`std::sync::Barrier`] phase separation, and the [`AtomicF64Vec`]
//! shared vector defined here. Shards own disjoint *row bands* of the
//! mesh ([`row_bands`]), so every write targets the owning shard's band;
//! reads may cross band boundaries (mesh stencils reach one row up/down),
//! which is safe because each red-black half-sweep reads only the color
//! it does not write, and half-sweeps are separated by barriers. The
//! barrier's acquire/release synchronization makes the relaxed atomic
//! accesses race-free *and* deterministic: the numeric result is a pure
//! function of the problem, whatever the shard count.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length `f64` vector shareable across scoped worker threads.
///
/// Values are stored as [`AtomicU64`] bit patterns so shards can read and
/// write entries through a shared reference without locks or `unsafe`.
/// All accesses are `Relaxed`: the smoother orders cross-shard visibility
/// with [`std::sync::Barrier`], which establishes the happens-before
/// edges, so the relaxed loads observe exactly the values written before
/// the last barrier.
#[derive(Debug)]
pub struct AtomicF64Vec {
    bits: Vec<AtomicU64>,
}

impl AtomicF64Vec {
    /// A vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Self {
            bits: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Reads entry `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.bits[i].load(Ordering::Relaxed))
    }

    /// Writes entry `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn set(&self, i: usize, value: f64) {
        self.bits[i].store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Splits `ny` mesh rows into `shards` contiguous bands whose sizes
/// differ by at most one row (earlier bands get the remainder).
///
/// With `shards > ny` the trailing bands are empty — their workers still
/// participate in every barrier, they just have no rows to update.
///
/// # Examples
///
/// ```
/// let bands = np_grid::shard::row_bands(10, 3);
/// assert_eq!(bands, vec![0..4, 4..7, 7..10]);
/// ```
pub fn row_bands(ny: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let base = ny / shards;
    let extra = ny % shards;
    let mut bands = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        bands.push(start..start + len);
        start += len;
    }
    bands
}

/// The shard count actually usable for an `ny`-row mesh: at least one,
/// at most one shard per row.
pub fn clamp_shards(requested: usize, ny: usize) -> usize {
    requested.clamp(1, ny.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_vec_round_trips() {
        let v = AtomicF64Vec::zeros(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v.set(1, -2.25);
        assert_eq!((v.get(0), v.get(1), v.get(2)), (0.0, -2.25, 0.0));
        v.set(1, 7.0);
        assert_eq!(v.get(1), 7.0);
        assert!(AtomicF64Vec::zeros(0).is_empty());
    }

    #[test]
    fn atomic_vec_preserves_non_finite_bits() {
        let v = AtomicF64Vec::zeros(2);
        v.set(0, f64::INFINITY);
        v.set(1, f64::NAN);
        assert!(v.get(0).is_infinite());
        assert!(v.get(1).is_nan());
    }

    #[test]
    fn bands_cover_all_rows_without_overlap() {
        for ny in [1usize, 2, 5, 10, 33, 64] {
            for shards in [1usize, 2, 3, 7, 16] {
                let bands = row_bands(ny, shards);
                assert_eq!(bands.len(), shards);
                let mut next = 0;
                for b in &bands {
                    assert_eq!(b.start, next);
                    next = b.end;
                }
                assert_eq!(next, ny);
                let (min, max) = bands
                    .iter()
                    .map(|b| b.len())
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "bands should be balanced");
            }
        }
    }

    #[test]
    fn shard_clamp() {
        assert_eq!(clamp_shards(0, 8), 1);
        assert_eq!(clamp_shards(4, 8), 4);
        assert_eq!(clamp_shards(16, 8), 8);
        assert_eq!(clamp_shards(3, 0), 1);
    }
}

//! Order statistics over measured samples.

/// The `q`-quantile of ascending `sorted` samples, interpolating linearly
/// between the closest ranks (`0.0` for no samples).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median of `values` (`0.0` for no samples).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile(&sorted, 0.5)
}

/// Latency summary of one timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    Summary {
        n,
        p50: quantile(&sorted, 0.5),
        p90: quantile(&sorted, 0.9),
        mean: if n == 0 {
            0.0
        } else {
            sorted.iter().sum::<f64>() / n as f64
        },
    }
}

/// Figures of a timed phase, each the median over equal time slices of
/// that figure within the slice.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sliced {
    /// Completions per second.
    pub rate: f64,
    /// Mean latency.
    pub mean: f64,
    /// Median latency.
    pub p50: f64,
    /// 90th-percentile latency.
    pub p90: f64,
}

/// Summarizes a timed phase of `elapsed` seconds over `slices` equal time
/// slices, so a host stall of a second or two moves one slice, not the
/// figures. `samples` holds each op's (completion time in seconds,
/// latency); empty slices count as a rate of 0 and have no latencies.
pub fn sliced(samples: &[(f64, f64)], elapsed: f64, slices: usize) -> Sliced {
    if elapsed <= 0.0 || slices == 0 {
        return Sliced::default();
    }
    let width = elapsed / slices as f64;
    let mut latencies = vec![Vec::new(); slices];
    for &(done, latency) in samples {
        latencies[((done / width) as usize).min(slices - 1)].push(latency);
    }
    let summaries: Vec<Summary> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| summarize(l))
        .collect();
    let of = |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
    Sliced {
        rate: median(
            &latencies
                .iter()
                .map(|l| l.len() as f64 / width)
                .collect::<Vec<_>>(),
        ),
        mean: of(|s| s.mean),
        p50: of(|s| s.p50),
        p90: of(|s| s.p90),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&[2.0, 4.0]);
        assert_eq!((s.n, s.p50, s.mean), (2, 3.0, 3.0));
    }

    #[test]
    fn sliced_figures_ignore_one_stalled_slice() {
        // Ten 1 ms ops per second for 5 s, except one op of 900 ms that
        // stalls the third second.
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| f64::from(i) * 0.1 + 0.05)
            .filter(|t| !(2.0..2.9).contains(t))
            .map(|t| (t, if t > 2.9 && t < 3.0 { 900.0 } else { 1.0 }))
            .collect();
        let s = sliced(&samples, 5.0, 5);
        assert_eq!((s.rate, s.mean, s.p50, s.p90), (10.0, 1.0, 1.0, 1.0));
        assert_eq!(sliced(&samples, 0.0, 5), Sliced::default());
    }
}

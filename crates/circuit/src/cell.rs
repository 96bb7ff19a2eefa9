//! Standard cells in the logical-effort delay model.
//!
//! A cell is characterized by its function ([`CellKind`], which fixes the
//! logical effort `g` and parasitic delay `p`), a *drive strength* (the
//! multiple of the unit inverter's transistor widths), and the resulting
//! input capacitance. Gate delay is
//!
//! ```text
//! d = τ · m(Vdd, Vth) · (p + g · h),    h = C_load / C_in
//! ```
//!
//! where `τ` is the technology time constant (one-fifth of the FO4 delay)
//! and `m` is the supply/threshold delay multiplier from the device model
//! ([`crate::sta::TimingContext`]).

use np_units::{Farads, Microns};
use std::fmt;

/// Combinational cell functions in the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Single-input inverter (`g = 1`, `p = 1`).
    Inverter,
    /// Two-stage buffer (`g = 1`, `p = 2`).
    Buffer,
    /// Two-input NAND (`g = 4/3`, `p = 2`).
    Nand2,
    /// Three-input NAND (`g = 5/3`, `p = 3`).
    Nand3,
    /// Two-input NOR (`g = 5/3`, `p = 2`).
    Nor2,
    /// Three-input NOR (`g = 7/3`, `p = 3`).
    Nor3,
    /// Low-to-high supply level converter (Section 2.4); modeled as a
    /// skewed buffer with extra parasitic delay.
    LevelConverter,
}

impl CellKind {
    /// Logical effort `g` of the cell's worst input.
    pub fn logical_effort(self) -> f64 {
        match self {
            CellKind::Inverter => 1.0,
            CellKind::Buffer => 1.0,
            CellKind::Nand2 => 4.0 / 3.0,
            CellKind::Nand3 => 5.0 / 3.0,
            CellKind::Nor2 => 5.0 / 3.0,
            CellKind::Nor3 => 7.0 / 3.0,
            CellKind::LevelConverter => 1.5,
        }
    }

    /// Parasitic delay `p` in units of `τ`.
    pub fn parasitic_delay(self) -> f64 {
        match self {
            CellKind::Inverter => 1.0,
            CellKind::Buffer => 2.0,
            CellKind::Nand2 => 2.0,
            CellKind::Nand3 => 3.0,
            CellKind::Nor2 => 2.0,
            CellKind::Nor3 => 3.0,
            CellKind::LevelConverter => 3.0,
        }
    }

    /// Number of logic inputs.
    pub fn fanin(self) -> usize {
        match self {
            CellKind::Inverter | CellKind::Buffer | CellKind::LevelConverter => 1,
            CellKind::Nand2 | CellKind::Nor2 => 2,
            CellKind::Nand3 | CellKind::Nor3 => 3,
        }
    }

    /// Total transistor width of a drive-1 instance, as a multiple of the
    /// unit inverter's total width (NMOS + PMOS, logical-effort sizing).
    pub fn relative_width(self) -> f64 {
        // Input cap scales with g per input; total width ~ g * fanin,
        // buffers/converters carry their output stage too.
        match self {
            CellKind::Inverter => 1.0,
            CellKind::Buffer => 2.5,
            CellKind::Nand2 => 2.0 * 4.0 / 3.0,
            CellKind::Nand3 => 3.0 * 5.0 / 3.0,
            CellKind::Nor2 => 2.0 * 5.0 / 3.0,
            CellKind::Nor3 => 3.0 * 7.0 / 3.0,
            CellKind::LevelConverter => 3.0,
        }
    }

    /// Short library name ("INV", "ND2", …).
    pub fn short_name(self) -> &'static str {
        match self {
            CellKind::Inverter => "INV",
            CellKind::Buffer => "BUF",
            CellKind::Nand2 => "ND2",
            CellKind::Nand3 => "ND3",
            CellKind::Nor2 => "NR2",
            CellKind::Nor3 => "NR3",
            CellKind::LevelConverter => "LVL",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Which on-chip supply a gate runs from (Section 2.4 clustered voltage
/// scaling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SupplyClass {
    /// The full supply `Vdd,h` — timing-critical gates.
    #[default]
    High,
    /// The reduced supply `Vdd,l ≈ 0.6–0.7 × Vdd,h` — gates with slack.
    Low,
}

/// Which threshold-voltage implant a gate uses (Section 3.2.2 dual-Vth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VthClass {
    /// Fast, leaky low-Vth devices — the all-low-Vth baseline.
    #[default]
    Low,
    /// Slow, low-leakage high-Vth devices for gates with slack.
    High,
}

/// A characterized library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Library name, e.g. `INVX4`.
    pub name: String,
    /// The cell's function.
    pub kind: CellKind,
    /// Drive strength as a multiple of the unit inverter.
    pub drive: f64,
    /// Input capacitance of one input pin.
    pub input_cap: Farads,
    /// Total leaking transistor width (for `Ioff`-based leakage).
    pub leak_width: Microns,
}

impl Cell {
    /// Builds a cell of `kind` at `drive` in a technology whose unit
    /// inverter has input capacitance `unit_cap` and total width
    /// `unit_width`.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not positive.
    pub fn sized(kind: CellKind, drive: f64, unit_cap: Farads, unit_width: Microns) -> Self {
        assert!(drive > 0.0, "drive strength must be positive");
        let name = if (drive.fract()).abs() < 1e-9 {
            format!("{}X{}", kind.short_name(), drive as u64)
        } else {
            format!("{}X{:.2}", kind.short_name(), drive)
        };
        Cell {
            name,
            kind,
            drive,
            input_cap: Farads(unit_cap.0 * kind.logical_effort() * drive),
            leak_width: Microns(unit_width.0 * kind.relative_width() * drive),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (Cin {:.2} fF)", self.name, self.input_cap.as_femto())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_effort_values_are_textbook() {
        assert_eq!(CellKind::Inverter.logical_effort(), 1.0);
        assert!((CellKind::Nand2.logical_effort() - 4.0 / 3.0).abs() < 1e-12);
        assert!((CellKind::Nor2.logical_effort() - 5.0 / 3.0).abs() < 1e-12);
        assert!(CellKind::Nor3.logical_effort() > CellKind::Nand3.logical_effort());
    }

    #[test]
    fn fanin_matches_kind() {
        assert_eq!(CellKind::Inverter.fanin(), 1);
        assert_eq!(CellKind::Nand2.fanin(), 2);
        assert_eq!(CellKind::Nor3.fanin(), 3);
    }

    #[test]
    fn sized_cell_scales_cap_and_width() {
        let unit_cap = Farads::from_femto(1.5);
        let unit_w = Microns(0.8);
        let x1 = Cell::sized(CellKind::Inverter, 1.0, unit_cap, unit_w);
        let x4 = Cell::sized(CellKind::Inverter, 4.0, unit_cap, unit_w);
        assert!((x4.input_cap.0 / x1.input_cap.0 - 4.0).abs() < 1e-9);
        assert!((x4.leak_width.0 / x1.leak_width.0 - 4.0).abs() < 1e-9);
        assert_eq!(x4.name, "INVX4");
    }

    #[test]
    fn nand_has_higher_input_cap_than_inverter_at_same_drive() {
        let c = Farads::from_femto(1.5);
        let w = Microns(0.8);
        let inv = Cell::sized(CellKind::Inverter, 2.0, c, w);
        let nd = Cell::sized(CellKind::Nand2, 2.0, c, w);
        assert!(nd.input_cap > inv.input_cap);
    }

    #[test]
    fn fractional_drive_names() {
        let cell = Cell::sized(
            CellKind::Inverter,
            2.5,
            Farads::from_femto(1.5),
            Microns(0.8),
        );
        assert_eq!(cell.name, "INVX2.50");
    }

    #[test]
    #[should_panic(expected = "drive strength must be positive")]
    fn zero_drive_panics() {
        let _ = Cell::sized(
            CellKind::Inverter,
            0.0,
            Farads::from_femto(1.5),
            Microns(0.8),
        );
    }

    #[test]
    fn display_contains_cap() {
        let cell = Cell::sized(CellKind::Nand2, 1.0, Farads::from_femto(1.5), Microns(0.8));
        let s = format!("{cell}");
        assert!(s.contains("ND2X1"));
        assert!(s.contains("fF"));
    }
}

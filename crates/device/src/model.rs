//! The compact MOSFET model (paper Eqs. 2–4).

use crate::error::DeviceError;
use crate::mobility::{self, T_REF_K};
use crate::oxide::{self, GateKind};
use crate::substrate::Substrate;
use np_roadmap::TechNode;
use np_units::{
    guard, Celsius, FaradsPerCm2, FaradsPerMicron, Kelvin, MicroampsPerMicron, Nanometers, Volts,
    VoltsPerMicron,
};
use std::fmt;

/// Room-temperature subthreshold swing parameter, "85 mV ... throughout
/// scaling" (Eq. 4 note).
pub const SUBTHRESHOLD_SWING_V: f64 = 0.085;

/// Eq. 4 prefactor: `Ioff = 10 µA/µm` at `Vth = 0`.
pub const IOFF_PREFACTOR_UA_PER_UM: f64 = 10.0;

/// Threshold-voltage temperature coefficient, V/K (Vth falls as the die
/// heats, compounding the subthreshold-swing degradation).
pub const VTH_TEMP_COEFF_V_PER_K: f64 = -0.8e-3;

/// Gate overlap/fringe capacitance per micron of width, farads.
/// A constant ≈0.3 fF/µm is representative across the roadmap.
pub const OVERLAP_CAP_F_PER_UM: f64 = 0.3e-15;

/// Drain-induced barrier lowering coefficient `η` (V/V): each volt of
/// drain bias lowers the effective threshold by `η` volts. This is the
/// mechanism behind the paper's "static power decays roughly quadratically
/// with Vdd reductions (given a fixed Vth)" (Section 3.3).
pub const DIBL_ETA: f64 = 0.08;

/// A width-normalized NMOS transistor in the paper's compact model.
///
/// All currents are per micron of gate width; multiply by a width to get
/// device currents. The struct is plain data ([C-STRUCT-PRIVATE] is
/// deliberately relaxed: every field is an independent physical knob and
/// the model functions validate at evaluation time).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_device::DeviceError> {
/// use np_device::{GateKind, Mosfet};
/// use np_units::{Nanometers, Volts};
///
/// let dev = Mosfet {
///     leff: Nanometers(45.0),
///     tox_phys: Nanometers(1.08),
///     gate: GateKind::PolySilicon,
///     vth: Volts(0.20),
///     mu0: 500.0,
///     rs_ohm_um: 60.0,
///     temp: np_units::Celsius(27.0),
///     substrate: np_device::substrate::Substrate::Bulk,
///     node: None,
/// };
/// let ion = dev.ion(Volts(0.9))?;
/// assert!(ion.0 > 100.0 && ion.0 < 2000.0);
/// # Ok(())
/// # }
/// ```
///
/// [C-STRUCT-PRIVATE]: https://rust-lang.github.io/api-guidelines/future-proofing.html
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    /// Effective (as-etched) channel length.
    pub leff: Nanometers,
    /// Physical gate-oxide thickness.
    pub tox_phys: Nanometers,
    /// Gate-stack technology (poly / metal / ideal).
    pub gate: GateKind,
    /// Threshold voltage at the reference temperature (300 K).
    pub vth: Volts,
    /// Low-field mobility, cm²/V·s (calibrated once per workspace, see
    /// [`crate::presets`]).
    pub mu0: f64,
    /// Parasitic source resistance, Ω·µm.
    pub rs_ohm_um: f64,
    /// Junction temperature for evaluation.
    pub temp: Celsius,
    /// Substrate technology (bulk or FD-SOI, footnote 3).
    pub substrate: Substrate,
    /// The roadmap node this device was built for, when applicable.
    pub node: Option<TechNode>,
}

impl Mosfet {
    /// Returns a copy with a different threshold voltage.
    pub fn with_vth(&self, vth: Volts) -> Self {
        Self {
            vth,
            ..self.clone()
        }
    }

    /// Returns a copy evaluated at a different junction temperature.
    pub fn with_temperature(&self, temp: Celsius) -> Self {
        Self {
            temp,
            ..self.clone()
        }
    }

    /// The nominal supply of the device's roadmap node, or a conservative
    /// 1 V when the device is free-standing.
    pub fn nominal_vdd(&self) -> Volts {
        self.node.map_or(Volts(1.0), |n| n.params().vdd)
    }

    /// Junction temperature on the absolute scale.
    pub fn temp_kelvin(&self) -> Kelvin {
        self.temp.to_kelvin()
    }

    /// Electrical oxide thickness `Tox,e` (Section 3.1 observation 1).
    pub fn tox_electrical(&self) -> Nanometers {
        oxide::electrical_tox(self.tox_phys, self.gate)
    }

    /// Electrical gate capacitance per area, `Coxe`.
    pub fn coxe(&self) -> FaradsPerCm2 {
        oxide::coxe(self.tox_phys, self.gate)
    }

    /// Effective mobility at supply `vdd` (Eq. 3's `µeff(Vgs, Tox)`).
    pub fn mu_eff(&self, vdd: Volts) -> f64 {
        let vov = Volts((vdd - self.vth_at_temp()).0.max(0.0));
        mobility::mu_eff(self.mu0, vov, self.tox_electrical(), self.temp_kelvin())
    }

    /// Velocity-saturation critical field at supply `vdd`.
    pub fn esat(&self, vdd: Volts) -> VoltsPerMicron {
        VoltsPerMicron(mobility::esat_v_per_cm(self.mu_eff(vdd)) * 1e-4)
    }

    /// The temperature-shifted threshold (−0.8 mV/K above 300 K).
    pub fn vth_at_temp(&self) -> Volts {
        let dt = self.temp_kelvin().0 - T_REF_K;
        self.vth + Volts(VTH_TEMP_COEFF_V_PER_K * dt)
    }

    /// The temperature-scaled subthreshold swing,
    /// `S(T) = 85 mV · T/300`, reduced by 20 % on FD-SOI substrates
    /// (footnote 3).
    pub fn subthreshold_swing(&self) -> Volts {
        Volts(SUBTHRESHOLD_SWING_V * self.substrate.swing_factor() * self.temp_kelvin().0 / T_REF_K)
    }

    /// Returns a copy on a different substrate technology.
    pub fn with_substrate(&self, substrate: Substrate) -> Self {
        Self {
            substrate,
            ..self.clone()
        }
    }

    /// Eq. 3 — intrinsic saturation current before the source-resistance
    /// correction, per micron of width:
    ///
    /// ```text
    /// Idsat0 = (W µeff Coxe / 2 Leff) · (Vdd−Vth)² / (1 + (Vdd−Vth)/(Esat·Leff))
    /// ```
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoOverdrive`] when `Vdd ≤ Vth`;
    /// [`DeviceError::BadParameter`] for unphysical geometry;
    /// [`DeviceError::NonFinite`] for a NaN/infinite supply or field, or
    /// an overdrive so large the effective mobility underflows to zero.
    pub fn idsat0(&self, vdd: Volts) -> Result<MicroampsPerMicron, DeviceError> {
        self.validate()?;
        guard::finite(vdd.0, "Vdd", "Mosfet::idsat0")?;
        let vth = self.vth_at_temp();
        let vov = (vdd - vth).0;
        if vov <= 0.0 {
            return Err(DeviceError::NoOverdrive { vdd, vth });
        }
        // An extreme (but finite) overdrive underflows the mobility to
        // zero; surface that as a domain error instead of letting the
        // Esat helper's positivity assertion fire.
        let mu = self.mu_eff(vdd); // cm²/Vs
        guard::finite_positive(mu, "effective mobility", "Mosfet::idsat0")?;
        let coxe = self.coxe().0; // F/cm²
        let leff_cm = self.leff.as_cm();
        let esat_l = mobility::esat_v_per_cm(mu) * leff_cm; // volts
        let width_cm = 1e-4; // per µm of width
        let amps = (mu * coxe * width_cm / (2.0 * leff_cm)) * vov * vov / (1.0 + vov / esat_l);
        Ok(MicroampsPerMicron(amps * 1e6))
    }

    /// Eq. 2 — saturation drive current with the first-order parasitic
    /// source-resistance degradation (Chen & Hu form; see DESIGN.md for the
    /// numerically robust division form used here):
    ///
    /// ```text
    /// Ion = Idsat0 / (1 + Idsat0·Rs·(2/(Vdd−Vth) − 1/(Vdd−Vth + Esat·Leff)))
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mosfet::idsat0`].
    pub fn ion(&self, vdd: Volts) -> Result<MicroampsPerMicron, DeviceError> {
        let idsat0 = self.idsat0(vdd)?; // µA/µm
        let vov = (vdd - self.vth_at_temp()).0;
        let esat_l = self.esat(vdd).0 * self.leff.to_microns().0; // volts
        let i_amps_um = idsat0.0 * 1e-6; // A per µm width
        let rs = self.rs_ohm_um; // Ω·µm -> (A/µm)·(Ω·µm) = V
        let degradation = i_amps_um * rs * (2.0 / vov - 1.0 / (vov + esat_l));
        Ok(MicroampsPerMicron(idsat0.0 / (1.0 + degradation.max(0.0))))
    }

    /// Eq. 4 — subthreshold off current per micron of width,
    /// `Ioff = 10 µA/µm × 10^(−Vth/S)`, with `S` and `Vth`
    /// temperature-scaled and a `(T/300)²` carrier-statistics prefactor.
    ///
    /// At 300 K and `Vth = 0.3 V` this is the paper's ≈3 nA/µm.
    pub fn ioff(&self) -> MicroampsPerMicron {
        let t_ratio = self.temp_kelvin().0 / T_REF_K;
        let prefactor = IOFF_PREFACTOR_UA_PER_UM * t_ratio * t_ratio;
        let s = self.subthreshold_swing().0;
        MicroampsPerMicron(prefactor * 10f64.powf(-self.vth_at_temp().0 / s))
    }

    /// Off current when the drain sits at `vds` instead of the nominal
    /// supply: [`Mosfet::ioff`] scaled by the DIBL factor
    /// `10^(η·(Vds − Vdd_nom)/S)`.
    ///
    /// Lowering the rail therefore shrinks leakage *super-linearly*: the
    /// `Vdd·Ioff(Vdd)` product falls roughly quadratically, the paper's
    /// Section 3.3 observation.
    pub fn ioff_at_drain(&self, vds: Volts) -> MicroampsPerMicron {
        let s = self.subthreshold_swing().0;
        let dibl = 10f64.powf(DIBL_ETA * (vds - self.nominal_vdd()).0 / s);
        MicroampsPerMicron(self.ioff().0 * dibl)
    }

    /// Linear-region (triode) on-resistance per micron of width, Ω·µm:
    /// `R·W = Leff / (µeff·Coxe·(Vgs − Vth))`. This is what a series
    /// switch (an MTCMOS sleep device, a pass gate) presents at small
    /// drain bias.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoOverdrive`] when `Vgs ≤ Vth`;
    /// [`DeviceError::BadParameter`] for unphysical geometry.
    pub fn linear_resistance_ohm_um(&self, vgs: Volts) -> Result<f64, DeviceError> {
        self.validate()?;
        guard::finite(vgs.0, "Vgs", "Mosfet::linear_resistance_ohm_um")?;
        let vov = (vgs - self.vth_at_temp()).0;
        if vov <= 0.0 {
            return Err(DeviceError::NoOverdrive {
                vdd: vgs,
                vth: self.vth_at_temp(),
            });
        }
        let mu = self.mu_eff(vgs); // cm²/Vs
        guard::finite_positive(mu, "effective mobility", "Mosfet::linear_resistance_ohm_um")?;
        let coxe = self.coxe().0; // F/cm²
                                  // Conductance per µm of width: µ·Coxe·(1 µm / Leff)·Vov, in S/µm.
        let g_per_um = mu * coxe * (1e-4 / self.leff.as_cm()) * vov;
        Ok(1.0 / g_per_um)
    }

    /// Gate capacitance per micron of width: `Coxe·Leff` plus a constant
    /// overlap/fringe term. Used for FO4 loads and dynamic power.
    pub fn gate_cap_per_um(&self) -> FaradsPerMicron {
        let area_cap = self.coxe().0 * self.leff.as_cm() * 1e-4; // F per µm width
        FaradsPerMicron(area_cap + OVERLAP_CAP_F_PER_UM)
    }

    /// Validates the device's fields: geometry positive, mobility and
    /// parasitics physical, every field finite. Called by the fallible
    /// model entry points before evaluation so a NaN planted in a public
    /// field surfaces as a typed error at the first use, not as NaN
    /// output three models downstream.
    ///
    /// # Errors
    ///
    /// [`DeviceError::BadParameter`] for out-of-domain values,
    /// [`DeviceError::NonFinite`] for NaN/infinite fields.
    pub fn validate(&self) -> Result<(), DeviceError> {
        let ctx = "Mosfet::validate";
        guard::finite(self.leff.0, "Leff", ctx)?;
        guard::finite(self.tox_phys.0, "Tox", ctx)?;
        guard::finite(self.mu0, "mu0", ctx)?;
        guard::finite(self.rs_ohm_um, "Rs", ctx)?;
        guard::finite(self.vth.0, "Vth", ctx)?;
        guard::finite(self.temp.0, "temperature", ctx)?;
        if !(self.leff.0 > 0.0) {
            return Err(DeviceError::BadParameter("Leff must be positive"));
        }
        if !(self.tox_phys.0 > 0.0) {
            return Err(DeviceError::BadParameter("Tox must be positive"));
        }
        if !(self.mu0 > 0.0) {
            return Err(DeviceError::BadParameter("mu0 must be positive"));
        }
        if self.rs_ohm_um < 0.0 {
            return Err(DeviceError::BadParameter("Rs must be non-negative"));
        }
        if !(self.temp_kelvin().0 > 0.0) {
            return Err(DeviceError::BadParameter("temperature below absolute zero"));
        }
        Ok(())
    }
}

impl fmt::Display for Mosfet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NMOS Leff={:.0} Tox={:.2} ({}) Vth={:.0} mV @ {:.0}",
            self.leff,
            self.tox_phys,
            self.gate,
            self.vth.as_milli(),
            self.temp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev_180nm_like() -> Mosfet {
        Mosfet {
            leff: Nanometers(140.0),
            tox_phys: Nanometers(2.25),
            gate: GateKind::PolySilicon,
            vth: Volts(0.30),
            mu0: 500.0,
            rs_ohm_um: 60.0,
            temp: Celsius(26.85), // exactly 300 K
            substrate: Substrate::Bulk,
            node: None,
        }
    }

    #[test]
    fn ioff_anchor_3na_at_vth_300mv() {
        // Eq. 4 at room temperature: 10 µA × 10^(-300/85) ≈ 2.96 nA/µm —
        // the paper's Table 2 value for 180 nm.
        let d = dev_180nm_like();
        let ioff = d.ioff().as_nano_per_micron();
        assert!((ioff - 2.96).abs() < 0.05, "got {ioff}");
    }

    #[test]
    fn ioff_ratio_per_100mv_is_15x() {
        // Section 3.2.2: "about a 15X increase in Ioff for 100 mV reduction
        // in Vth", node-independent.
        let d = dev_180nm_like();
        let ratio = d.with_vth(Volts(0.20)).ioff() / d.ioff();
        assert!((ratio - 15.0).abs() < 0.2, "got {ratio}");
    }

    #[test]
    fn ion_is_positive_and_less_than_idsat0() {
        let d = dev_180nm_like();
        let idsat0 = d.idsat0(Volts(1.8)).unwrap();
        let ion = d.ion(Volts(1.8)).unwrap();
        assert!(ion.0 > 0.0);
        assert!(ion < idsat0, "Rs must degrade drive");
    }

    #[test]
    fn ion_magnitude_is_hundreds_of_ua_per_um() {
        let ion = dev_180nm_like().ion(Volts(1.8)).unwrap();
        assert!((300.0..=1500.0).contains(&ion.0), "got {ion}");
    }

    #[test]
    fn zero_rs_recovers_idsat0() {
        let mut d = dev_180nm_like();
        d.rs_ohm_um = 0.0;
        let idsat0 = d.idsat0(Volts(1.8)).unwrap();
        let ion = d.ion(Volts(1.8)).unwrap();
        assert!((ion.0 - idsat0.0).abs() < 1e-9);
    }

    #[test]
    fn no_overdrive_is_an_error() {
        let d = dev_180nm_like();
        assert!(matches!(
            d.ion(Volts(0.25)),
            Err(DeviceError::NoOverdrive { .. })
        ));
        assert!(matches!(
            d.ion(Volts(0.30)),
            Err(DeviceError::NoOverdrive { .. })
        ));
    }

    #[test]
    fn ion_monotone_in_vdd() {
        let d = dev_180nm_like();
        let mut prev = 0.0;
        for v in [0.6, 0.9, 1.2, 1.5, 1.8] {
            let i = d.ion(Volts(v)).unwrap().0;
            assert!(i > prev, "Ion must rise with Vdd");
            prev = i;
        }
    }

    #[test]
    fn ion_monotone_decreasing_in_vth() {
        let d = dev_180nm_like();
        let hi = d.with_vth(Volts(0.40)).ion(Volts(1.8)).unwrap();
        let lo = d.with_vth(Volts(0.20)).ion(Volts(1.8)).unwrap();
        assert!(lo > hi);
    }

    #[test]
    fn hot_junction_raises_ioff_and_lowers_ion() {
        let cold = dev_180nm_like();
        let hot = cold.with_temperature(Celsius(85.0));
        assert!(hot.ioff() > cold.ioff() * 5.0, "85°C leakage blow-up");
        assert!(hot.ion(Volts(1.8)).unwrap() < cold.ion(Volts(1.8)).unwrap());
    }

    #[test]
    fn metal_gate_increases_drive() {
        let poly = dev_180nm_like();
        let metal = Mosfet {
            gate: GateKind::Metal,
            ..poly.clone()
        };
        assert!(metal.ion(Volts(1.8)).unwrap() > poly.ion(Volts(1.8)).unwrap());
    }

    #[test]
    fn gate_cap_is_about_2ff_per_um_at_180nm() {
        let c = dev_180nm_like().gate_cap_per_um();
        let ff = c.0 * 1e15;
        assert!((1.2..=2.8).contains(&ff), "got {ff} fF/µm");
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let mut d = dev_180nm_like();
        d.leff = Nanometers(0.0);
        assert!(matches!(
            d.ion(Volts(1.8)),
            Err(DeviceError::BadParameter(_))
        ));
        let mut d = dev_180nm_like();
        d.rs_ohm_um = -1.0;
        assert!(d.ion(Volts(1.8)).is_err());
    }

    #[test]
    fn subthreshold_swing_scales_with_t() {
        let d = dev_180nm_like().with_temperature(Celsius(85.0));
        let s = d.subthreshold_swing().as_milli();
        assert!((s - 85.0 * 358.15 / 300.0).abs() < 0.1);
    }

    #[test]
    fn display_mentions_gate_and_vth() {
        let s = format!("{}", dev_180nm_like());
        assert!(s.contains("poly-Si"));
        assert!(s.contains("300 mV"));
    }
}
// Additional tests for the drain-bias-dependent leakage.
#[cfg(test)]
mod dibl_tests {
    use super::*;
    use np_roadmap::TechNode;

    #[test]
    fn ioff_at_nominal_drain_matches_eq4() {
        let d = Mosfet::for_node(TechNode::N35).unwrap();
        let a = d.ioff();
        let b = d.ioff_at_drain(d.nominal_vdd());
        assert!((a.0 - b.0).abs() < 1e-12);
    }

    #[test]
    fn lower_drain_leaks_less() {
        let d = Mosfet::for_node(TechNode::N35).unwrap();
        let half = d.ioff_at_drain(Volts(0.3));
        assert!(half < d.ioff());
        // Vdd*Ioff(Vdd) falls faster than linearly: the paper's "roughly
        // quadratic" static-power decay at fixed Vth.
        let p_nom = d.nominal_vdd().0 * d.ioff().0;
        let p_half = 0.3 * half.0;
        assert!(p_half < 0.5 * p_nom * 0.9);
    }
}

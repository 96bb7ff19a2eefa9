//! Synthetic MPU power traces.
//!
//! Section 2.1: "The effective worst-case power consumption, as found by
//! running power-hungry applications, is about 75 % of the theoretical
//! worst-case, which is determined using synthetic input code sequences
//! that are not realized in practice." The generators here produce both: a
//! *power-virus* trace pinned at the theoretical maximum, and bursty
//! application traces whose sustained ceiling is a tunable fraction of it.

use np_units::{Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampled die-power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    samples: Vec<Watts>,
    dt: Seconds,
}

impl WorkloadTrace {
    /// Wraps raw samples at fixed step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or the step is not positive.
    pub fn new(samples: Vec<Watts>, dt: Seconds) -> Self {
        assert!(!samples.is_empty(), "trace must have samples");
        assert!(dt.0 > 0.0, "sample period must be positive");
        Self { samples, dt }
    }

    /// The sample period.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// The samples.
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// The *effective worst case*: the largest moving average over a
    /// thermal time-constant window — what actually heats the die.
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive.
    pub fn effective_worst_case(&self, window: Seconds) -> Watts {
        assert!(window.0 > 0.0, "window must be positive");
        let w = ((window.0 / self.dt.0).round() as usize).clamp(1, self.samples.len());
        let mut sum: f64 = self.samples[..w].iter().map(|p| p.0).sum();
        let mut best = sum;
        for i in w..self.samples.len() {
            sum += self.samples[i].0 - self.samples[i - w].0;
            best = best.max(sum);
        }
        Watts(best / w as f64)
    }

    /// The theoretical worst case: a power virus pinned at `p_max`.
    pub fn power_virus(p_max: Watts, samples: usize, dt: Seconds) -> Self {
        Self::new(vec![p_max; samples.max(1)], dt)
    }

    /// A bursty application trace: alternating compute phases whose
    /// sustained ceiling approximates `effective_fraction × p_max`
    /// (default 0.75 per the paper), with idle valleys and occasional
    /// short spikes to `p_max` that a thermal window absorbs.
    pub fn application(
        p_max: Watts,
        effective_fraction: f64,
        samples: usize,
        dt: Seconds,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(samples.max(1));
        let mut phase_left = 0usize;
        let mut level = Watts(0.0);
        for _ in 0..samples.max(1) {
            if phase_left == 0 {
                phase_left = rng.random_range(20..200);
                let u: f64 = rng.random();
                level = if u < 0.45 {
                    // Hot compute phase near the effective ceiling.
                    p_max * (effective_fraction * rng.random_range(0.9..1.0))
                } else if u < 0.85 {
                    // Moderate phase.
                    p_max * rng.random_range(0.35..0.6)
                } else {
                    // Idle / memory-bound.
                    p_max * rng.random_range(0.15..0.3)
                };
            }
            phase_left -= 1;
            // Rare single-sample spikes to the theoretical maximum.
            let p = if rng.random::<f64>() < 0.002 {
                p_max
            } else {
                level * rng.random_range(0.97..1.03)
            };
            out.push(p.min(p_max));
        }
        Self::new(out, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Seconds = Seconds(1e-3);

    fn peak(t: &WorkloadTrace) -> Watts {
        t.samples().iter().copied().fold(Watts(0.0), Watts::max)
    }

    fn mean(t: &WorkloadTrace) -> Watts {
        t.samples().iter().copied().sum::<Watts>() / t.samples().len() as f64
    }

    #[test]
    fn virus_is_flat_at_max() {
        let t = WorkloadTrace::power_virus(Watts(100.0), 1000, DT);
        assert_eq!(peak(&t), Watts(100.0));
        assert_eq!(mean(&t), Watts(100.0));
        assert_eq!(t.effective_worst_case(Seconds(0.05)), Watts(100.0));
    }

    #[test]
    fn application_effective_worst_case_is_about_75_percent() {
        let t = WorkloadTrace::application(Watts(100.0), 0.75, 20_000, DT, 3);
        let eff = t.effective_worst_case(Seconds(0.05));
        assert!(
            (68.0..=80.0).contains(&eff.0),
            "effective worst case {eff} not near 75 W"
        );
        // Instantaneous spikes still reach (close to) the theoretical max.
        assert!(peak(&t).0 > 95.0);
    }

    #[test]
    fn effective_worst_case_is_below_peak_for_bursty() {
        let t = WorkloadTrace::application(Watts(100.0), 0.75, 20_000, DT, 4);
        assert!(t.effective_worst_case(Seconds(0.05)) < peak(&t));
        assert!(mean(&t) < t.effective_worst_case(Seconds(0.05)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadTrace::application(Watts(90.0), 0.75, 500, DT, 7);
        let b = WorkloadTrace::application(Watts(90.0), 0.75, 500, DT, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn duration_is_samples_times_dt() {
        let t = WorkloadTrace::power_virus(Watts(1.0), 250, DT);
        assert_eq!(t.samples().len(), 250);
        assert!((t.samples().len() as f64 * t.dt().0 - 0.25).abs() < 1e-12);
        assert_eq!(t.dt(), DT);
    }

    #[test]
    #[should_panic(expected = "trace must have samples")]
    fn empty_trace_panics() {
        let _ = WorkloadTrace::new(vec![], DT);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn bad_window_panics() {
        let t = WorkloadTrace::power_virus(Watts(1.0), 10, DT);
        let _ = t.effective_worst_case(Seconds(0.0));
    }
}

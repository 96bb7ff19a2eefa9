//! The artifact registry: one entry per table, figure, and experiment of
//! the paper — the single source of truth that `repro --list`, the
//! engine, and the tests all iterate.
//!
//! Each [`Artifact`] knows its name, what it reproduces, where in the
//! paper it comes from, and how to render itself as text — plus,
//! explicitly, whether it has a CSV form. CSV availability being a
//! registry field (rather than a string-match fallthrough in the binary)
//! is what lets `repro --csv` report unsupported artifacts uniformly.

use crate::{experiments, figures, tables};
use nanopower::engine::Job;
use nanopower::Error;

/// One reproducible artifact of the paper.
pub struct Artifact {
    /// Stable CLI name (`repro <name>`).
    pub name: &'static str,
    /// One-line description of what the artifact shows.
    pub description: &'static str,
    /// Where in the paper (or DESIGN.md §5 experiment index) it comes
    /// from.
    pub paper_ref: &'static str,
    /// Renders the plain-text form.
    run_text: fn() -> Result<String, Error>,
    /// Renders the CSV form, for artifacts that have one.
    run_csv: Option<fn() -> Result<String, Error>>,
}

impl Artifact {
    /// Renders the artifact's plain-text form.
    ///
    /// # Errors
    ///
    /// Propagates the underlying model error.
    pub fn render_text(&self) -> Result<String, Error> {
        (self.run_text)()
    }

    /// Whether the artifact has a CSV form.
    pub fn has_csv(&self) -> bool {
        self.run_csv.is_some()
    }

    /// Renders the artifact's CSV form.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedOutput`] when the artifact has no CSV form;
    /// otherwise propagates the underlying model error.
    pub fn render_csv(&self) -> Result<String, Error> {
        match self.run_csv {
            Some(run) => run(),
            None => Err(Error::UnsupportedOutput {
                artifact: self.name.to_string(),
                format: "csv",
            }),
        }
    }

    /// An engine [`Job`] rendering this artifact in the requested form.
    pub fn job(&'static self, csv: bool) -> Job {
        if csv {
            Job::new(self.name, || self.render_csv())
        } else {
            Job::new(self.name, || self.render_text())
        }
    }
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("paper_ref", &self.paper_ref)
            .field("csv", &self.has_csv())
            .finish()
    }
}

/// Every artifact of the paper, in the order `repro` regenerates them.
pub static REGISTRY: &[Artifact] = &[
    Artifact {
        name: "table1",
        description: "published-device survey vs ITRS projections",
        paper_ref: "Table 1",
        run_text: || Ok(tables::table1().render()),
        run_csv: None,
    },
    Artifact {
        name: "table2",
        description: "Ioff scaling under the 750 uA/um Ion target",
        paper_ref: "Table 2",
        run_text: || Ok(tables::table2()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "fig1",
        description: "dynamic/static power crossover vs activity",
        paper_ref: "Fig. 1",
        run_text: || Ok(figures::fig1()?.render()),
        run_csv: Some(|| Ok(figures::fig1()?.csv())),
    },
    Artifact {
        name: "fig2",
        description: "leakage power share across the roadmap",
        paper_ref: "Fig. 2",
        run_text: || Ok(figures::fig2()?.render()),
        run_csv: Some(|| Ok(figures::fig2()?.csv())),
    },
    Artifact {
        name: "fig3",
        description: "Vdd/Vth policy sweep",
        paper_ref: "Fig. 3",
        run_text: || Ok(figures::fig3()?.render()),
        run_csv: Some(|| Ok(figures::fig3()?.csv())),
    },
    Artifact {
        name: "fig4",
        description: "delay vs supply for the policy corners",
        paper_ref: "Fig. 4",
        run_text: || Ok(figures::fig4()?.render()),
        run_csv: Some(|| Ok(figures::fig4()?.csv())),
    },
    Artifact {
        name: "fig5",
        description: "power-grid IR-drop limits",
        paper_ref: "Fig. 5",
        run_text: || Ok(figures::fig5()?.render()),
        run_csv: Some(|| Ok(figures::fig5()?.csv())),
    },
    Artifact {
        name: "fig5-mesh",
        description: "Fig. 5 min-pitch drops re-solved on a 1025x1025 multigrid mesh",
        paper_ref: "Fig. 5 / §2.3",
        run_text: || Ok(figures::fig5_mesh()?.render()),
        run_csv: Some(|| Ok(figures::fig5_mesh()?.csv())),
    },
    Artifact {
        name: "fig34-mgate",
        description: "S3.3 co-optimization at 50k cells via the parallel optimizer",
        paper_ref: "Figs. 3-4 / §3.3",
        run_text: || Ok(figures::fig34_mgate()?.render()),
        run_csv: Some(|| Ok(figures::fig34_mgate()?.csv())),
    },
    Artifact {
        name: "dtm",
        description: "dynamic thermal management closure",
        paper_ref: "§2.1 / E1",
        run_text: || Ok(experiments::e1_dtm()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "signaling",
        description: "global-signaling full-swing vs low-swing",
        paper_ref: "§2.2 / E2",
        run_text: || Ok(experiments::e2_signaling()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "cvs",
        description: "clustered voltage scaling flow",
        paper_ref: "§2.4 / E3",
        run_text: || Ok(experiments::e3_cvs()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "dualvth",
        description: "dual-Vth leakage optimization",
        paper_ref: "§3.2 / E4",
        run_text: || Ok(experiments::e4_dualvth()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "resize",
        description: "slack-driven downsizing",
        paper_ref: "§3.3 / E5",
        run_text: || Ok(experiments::e5_resize()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "grid-limits",
        description: "grid feasibility across the roadmap",
        paper_ref: "§4 / E6",
        run_text: || Ok(experiments::e6_grid_limits()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "library",
        description: "library granularity and generated cells",
        paper_ref: "§2.3 / E7",
        run_text: || Ok(experiments::e7_library()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "leakage-tech",
        description: "leakage-control technique comparison",
        paper_ref: "§3.1 / E8",
        run_text: || Ok(experiments::e8_leakage_techniques()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "inductive-noise",
        description: "inductive return-path noise study",
        paper_ref: "§2.2 / E9",
        run_text: || Ok(experiments::e9_inductive_noise()?.render()),
        run_csv: None,
    },
    Artifact {
        name: "subambient",
        description: "sub-ambient cooling sweep",
        paper_ref: "§2.1 / E10",
        run_text: || Ok(experiments::e10_subambient()?.render()),
        run_csv: None,
    },
];

/// Looks an artifact up by CLI name.
pub fn find(name: &str) -> Option<&'static Artifact> {
    REGISTRY.iter().find(|a| a.name == name)
}

/// Every registered artifact name, registry order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|a| a.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let names = names();
        assert_eq!(names.len(), 19, "all 19 paper artifacts registered");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                names.iter().position(|n| n == name),
                Some(i),
                "duplicate {name}"
            );
            assert!(find(name).is_some());
        }
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn exactly_the_figures_have_csv() {
        for a in REGISTRY {
            assert_eq!(
                a.has_csv(),
                a.name.starts_with("fig"),
                "{}: CSV availability is explicit per artifact",
                a.name
            );
        }
    }

    #[test]
    fn csv_on_text_only_artifact_reports_uniformly() {
        let err = find("dtm").unwrap().render_csv().unwrap_err();
        assert_eq!(
            err,
            Error::UnsupportedOutput {
                artifact: "dtm".into(),
                format: "csv"
            }
        );
    }
}

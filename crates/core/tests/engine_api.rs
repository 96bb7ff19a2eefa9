//! Integration tests for the public API redesign: the parallel engine
//! driving real model work through the validating `ChipBuilder`, with
//! every failure mode expressed as the unified `nanopower::Error`.

use nanopower::engine::{self, Job, Session};
use nanopower::roadmap::TechNode;
use nanopower::{Chip, Error};

fn power_jobs() -> Vec<Job> {
    TechNode::ALL
        .iter()
        .map(|&node| {
            Job::new(format!("budget-{node}"), move || {
                let chip = Chip::builder(node)
                    .activity(0.1)
                    .effective_fraction(0.75)
                    .build()?;
                Ok(chip.power_budget()?.to_string())
            })
        })
        .collect()
}

#[test]
fn engine_runs_chip_scenarios_deterministically_across_worker_counts() {
    let serial = Session::new(power_jobs()).workers(1).run();
    let parallel = Session::new(power_jobs()).workers(3).run();
    assert!(serial.failures().is_empty(), "{}", serial.error_summary());
    assert_eq!(serial.records.len(), TechNode::ALL.len());
    let texts = |r: &engine::RunReport| -> Vec<String> {
        r.records
            .iter()
            .map(|rec| rec.outcome.clone().unwrap())
            .collect()
    };
    assert_eq!(texts(&serial), texts(&parallel));
    // Submission order is preserved no matter which worker ran what.
    for (record, node) in parallel.records.iter().zip(TechNode::ALL) {
        assert_eq!(record.name, format!("budget-{node}"));
        assert!(record.worker < parallel.workers);
    }
}

#[test]
fn builder_failures_flow_through_the_engine_as_typed_errors() {
    let jobs = vec![
        Job::new("good", || {
            Ok(Chip::builder(TechNode::N100)
                .build()?
                .power_budget()?
                .to_string())
        }),
        Job::new("bad-activity", || {
            Chip::builder(TechNode::N100).activity(1.5).build()?;
            Ok(String::new())
        }),
    ];
    let report = Session::new(jobs).workers(2).run();
    assert!(!report.failures().is_empty());
    assert_eq!(report.failures().len(), 1);
    let failed = report.failures()[0];
    assert_eq!(failed.name, "bad-activity");
    assert!(matches!(failed.outcome, Err(Error::InvalidParameter(_))));
    assert!(report.error_summary().contains("1 of 2 artifacts failed"));
}

#[test]
fn json_report_round_trips_names_and_statuses() {
    let report = Session::new(power_jobs()).workers(2).run();
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"nanopower-run-report/v1\""));
    for node in TechNode::ALL {
        assert!(json.contains(&format!("\"artifact\": \"budget-{node}\"")));
    }
    assert_eq!(
        json.matches("\"status\": \"ok\"").count(),
        TechNode::ALL.len()
    );
}

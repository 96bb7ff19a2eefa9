//! Integration tests for the artifact registry, the parallel engine, and
//! the `repro` binary built on them: registry completeness, serial ≡
//! parallel determinism, uniform CSV reporting, and
//! continue-past-failure semantics.

use nanopower::engine::{self, Session};
use np_bench::registry::{self, REGISTRY};
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn every_registry_entry_runs_successfully() {
    for artifact in REGISTRY {
        let text = artifact
            .render_text()
            .unwrap_or_else(|e| panic!("{} failed: {e}", artifact.name));
        assert!(!text.is_empty(), "{} rendered empty", artifact.name);
        if artifact.has_csv() {
            let csv = artifact
                .render_csv()
                .unwrap_or_else(|e| panic!("{} csv failed: {e}", artifact.name));
            assert!(
                csv.lines().count() > 1,
                "{} csv has data rows",
                artifact.name
            );
        } else {
            assert!(
                artifact.render_csv().is_err(),
                "{}: no silent csv",
                artifact.name
            );
        }
    }
}

#[test]
fn parallel_engine_output_is_byte_identical_to_serial() {
    let jobs = || REGISTRY.iter().map(|a| a.job(false)).collect::<Vec<_>>();
    let serial = Session::new(jobs()).workers(1).run();
    let parallel = Session::new(jobs()).workers(4).run();
    assert!(serial.failures().is_empty() && parallel.failures().is_empty());
    assert_eq!(parallel.workers, 4);
    let render = |report: &engine::RunReport| -> String {
        report
            .records
            .iter()
            .map(|r| r.outcome.as_ref().expect("ok").clone())
            .collect()
    };
    assert_eq!(
        render(&serial),
        render(&parallel),
        "submission-order determinism"
    );
    // Telemetry is present even though content is identical.
    for r in &parallel.records {
        assert!(r.digest().is_some());
    }
}

#[test]
fn repro_binary_is_deterministic_across_worker_counts() {
    let serial = repro(&["--jobs", "1"]);
    let parallel = repro(&["--jobs", "4"]);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "byte-identical stdout");
    assert!(!serial.stdout.is_empty());
}

#[test]
fn repro_list_matches_registry_exactly() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    assert_eq!(
        listed,
        registry::names(),
        "--list is the registry, in order"
    );
}

#[test]
fn repro_continues_past_injected_failures_with_error_summary() {
    // An unknown artifact name is an injected per-artifact failure: the
    // engine must keep running the others, exit non-zero, and summarize.
    let out = repro(&["table1", "nosuch-artifact", "fig5"]);
    assert!(!out.status.success(), "failure must reach the exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stdout.contains("=== table1"),
        "artifacts before the failure ran"
    );
    assert!(
        stdout.contains("=== fig5"),
        "artifacts after the failure ran"
    );
    assert!(
        stderr.contains("1 of 3 artifacts failed"),
        "summary: {stderr}"
    );
    assert!(stderr.contains("unknown artifact `nosuch-artifact`"));
}

#[test]
fn repro_csv_reports_unsupported_artifacts_uniformly() {
    let out = repro(&["--csv", "fig1", "dtm", "table1"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stdout.contains("# fig1"), "supported CSV still renders");
    assert!(stderr.contains("2 of 3 artifacts failed"));
    assert!(stderr.contains("artifact `dtm` has no csv form"));
    assert!(stderr.contains("artifact `table1` has no csv form"));
}

#[test]
fn repro_json_reports_every_artifact_with_status_and_duration() {
    let out = repro(&["--json", "--jobs", "2"]);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(json.contains("\"schema\": \"nanopower-run-report/v1\""));
    assert!(json.contains("\"workers\": 2"));
    for artifact in REGISTRY {
        assert!(
            json.contains(&format!("\"artifact\": \"{}\"", artifact.name)),
            "{} missing from report",
            artifact.name
        );
    }
    assert_eq!(json.matches("\"status\": \"ok\"").count(), REGISTRY.len());
    assert_eq!(json.matches("\"duration_ms\"").count(), REGISTRY.len());
    assert_eq!(json.matches("\"digest\": \"fnv1a:").count(), REGISTRY.len());
    assert!(json.contains("\"failures\": 0"));
}

#[test]
fn repro_json_marks_failures() {
    let out = repro(&["--json", "table1", "nosuch"]);
    assert!(!out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(json.contains("\"status\": \"error\""));
    assert!(json.contains("\"failures\": 1"));
    assert!(json.contains("unknown artifact"));
}

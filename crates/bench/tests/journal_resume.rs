//! Integration tests for the resilience layer through the real `repro`
//! binary: crash-safe journaling, kill-at-any-byte resume, and the
//! golden-reference drift gate.
//!
//! The headline property (ISSUE 5): a journal truncated at **any** byte
//! offset — simulating a `SIGKILL` landing mid-write — must resume to
//! final output bitwise-identical to an uninterrupted `--jobs 1` run.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "np-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The artifact subset the journal properties run (cheap but mixed:
/// tables, figures, an experiment — and enough entries that truncation
/// offsets land in interesting places).
const NAMES: [&str; 5] = ["table1", "table2", "fig1", "fig2", "dtm"];

/// One-time fixture: the uninterrupted reference stdout and the bytes of
/// a complete journal for the same request.
fn fixture() -> &'static (Vec<u8>, Vec<u8>, usize) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u8>, usize)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut clean_args = vec!["--jobs", "1"];
        clean_args.extend(NAMES);
        let clean = repro(&clean_args);
        assert!(clean.status.success(), "clean reference run failed");
        let dir = temp_dir("fixture");
        let journal = dir.join("run.jsonl");
        let journal_str = journal.to_str().expect("utf8 path").to_string();
        let mut args = vec!["--jobs", "1", "--journal", &journal_str];
        args.extend(NAMES);
        let journaled = repro(&args);
        assert!(journaled.status.success(), "journaled run failed");
        assert_eq!(
            journaled.stdout, clean.stdout,
            "journaling must not change output"
        );
        let bytes = std::fs::read(&journal).expect("journal readable");
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("journal has a header line")
            + 1;
        (clean.stdout, bytes, header_end)
    })
}

/// Truncates the fixture journal to `len` bytes at `path`.
fn truncate_journal_to(path: &Path, len: usize) {
    let (_, bytes, _) = fixture();
    std::fs::write(path, &bytes[..len]).expect("write truncated journal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SIGKILL-at-any-byte: resume from a journal cut anywhere past the
    /// header reproduces the uninterrupted run's stdout byte-for-byte
    /// and exits cleanly.
    #[test]
    fn resume_from_any_truncation_offset_is_bitwise_identical(
        frac in 0u32..u32::MAX,
    ) {
        let (clean_stdout, bytes, header_end) = fixture();
        let span = bytes.len() - header_end;
        let cut = header_end + (frac as usize % (span + 1));
        let dir = temp_dir("cut");
        let journal = dir.join(format!("cut-{cut}.jsonl"));
        truncate_journal_to(&journal, cut);
        let out = repro(&[
            "--jobs",
            "3",
            "--resume",
            journal.to_str().expect("utf8 path"),
        ]);
        prop_assert!(
            out.status.success(),
            "resume at cut {cut} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        prop_assert_eq!(
            &out.stdout,
            clean_stdout,
            "cut {} produced different output",
            cut
        );
        std::fs::remove_file(&journal).ok();
    }
}

#[test]
fn second_resume_replays_everything_without_rerunning() {
    let (clean_stdout, bytes, header_end) = fixture();
    // Cut mid-way through entry 3, resume once (completes the journal),
    // then resume again: everything replays from the journal.
    let dir = temp_dir("replay");
    let journal = dir.join("run.jsonl");
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    truncate_journal_to(
        &journal,
        newlines[3] + 20.min(bytes.len() - newlines[3] - 1),
    );
    let journal_str = journal.to_str().expect("utf8 path");
    let first = repro(&["--resume", journal_str]);
    assert!(first.status.success());
    assert_eq!(first.stdout, *clean_stdout);
    let second = repro(&["--resume", journal_str, "--json"]);
    assert!(second.status.success());
    let json = String::from_utf8(second.stdout).expect("utf8");
    assert!(
        json.contains(&format!("\"replayed\": {}", NAMES.len())),
        "full journal must replay all {} artifacts: {json}",
        NAMES.len()
    );
    assert!(json.contains("\"interrupted\": false"));
    let _ = header_end;
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_refuses_a_mismatched_request() {
    let (_, bytes, _) = fixture();
    let dir = temp_dir("mismatch");
    let journal = dir.join("run.jsonl");
    std::fs::write(&journal, bytes).expect("journal copy");
    let journal_str = journal.to_str().expect("utf8 path");
    // The journal was recorded for text output; asking for CSV on
    // resume silently changing the run would defeat the header pin.
    let csv = repro(&["--resume", journal_str, "--csv"]);
    assert!(!csv.status.success(), "csv mismatch must be refused");
    let stderr = String::from_utf8(csv.stderr).expect("utf8");
    assert!(stderr.contains("journal"), "typed journal error: {stderr}");
    // Different artifact list: same refusal.
    let names = repro(&["--resume", journal_str, "fig5"]);
    assert!(!names.status.success(), "name mismatch must be refused");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn check_passes_clean_and_quarantines_a_perturbed_artifact() {
    // Bless a private golden dir, verify --check passes, then perturb
    // one reference and verify exactly that artifact is quarantined as
    // drift while the others still render.
    let dir = temp_dir("golden");
    let golden = dir.to_str().expect("utf8 path");
    let bless = repro(&["--bless", "--golden", golden, "table1", "fig1", "fig2"]);
    assert!(
        bless.status.success(),
        "bless failed: {}",
        String::from_utf8_lossy(&bless.stderr)
    );
    let clean = repro(&["--check", "--golden", golden, "table1", "fig1", "fig2"]);
    assert!(
        clean.status.success(),
        "clean tree must pass --check: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    // Perturb one numeric cell of fig1's text reference beyond any
    // tolerance.
    let fig1 = dir.join("fig1.txt");
    let text = std::fs::read_to_string(&fig1).expect("blessed fig1");
    let perturbed = text.replacen('7', "9", 1);
    assert_ne!(text, perturbed, "fixture must actually change a digit");
    std::fs::write(&fig1, perturbed).expect("perturb golden");
    let drift = repro(&[
        "--check", "--golden", golden, "--json", "table1", "fig1", "fig2",
    ]);
    assert!(!drift.status.success(), "drift must fail the exit code");
    let json = String::from_utf8(drift.stdout).expect("utf8");
    assert!(
        json.contains("\"artifact\": \"fig1\", \"status\": \"drift\""),
        "fig1 quarantined: {json}"
    );
    assert_eq!(
        json.matches("\"status\": \"ok\"").count(),
        2,
        "the other artifacts still completed: {json}"
    );
    assert!(json.contains("\"failures\": 1"));
    let stderr = String::from_utf8(drift.stderr).expect("utf8");
    assert!(
        stderr.contains("deviates from its golden reference"),
        "per-cell diagnostics reach the summary: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_passes_against_the_committed_golden_tree() {
    // The repo's own golden/ directory must match a fresh render; run
    // from the workspace root where golden/ lives.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let golden = root.join("golden");
    assert!(
        golden.is_dir(),
        "golden/ must be committed at the repo root"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&root)
        .args(["--check"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "clean tree drifted from golden/: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn csv_check_passes_against_the_committed_golden_tree() {
    // With no names, `--check --csv` gates every artifact that has a CSV
    // form, and only those, against the committed CSV goldens.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&root)
        .args(["--check", "--csv"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "CSV forms drifted from golden/: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let checked: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("# "))
        .collect();
    let with_csv: Vec<&str> = np_bench::registry::REGISTRY
        .iter()
        .filter(|a| a.has_csv())
        .map(|a| a.name)
        .collect();
    assert_eq!(
        checked, with_csv,
        "exactly the CSV-capable artifacts, in order"
    );
    assert!(checked.contains(&"fig5-mesh") && checked.contains(&"fig34-mgate"));
}

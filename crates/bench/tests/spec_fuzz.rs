//! Scenario-spec fuzzing: property tests over the canonical spec form
//! plus a seeded live-daemon fuzz.
//!
//! Two layers:
//!
//! 1. **Properties** — `parse ∘ to_json` is the identity for every
//!    generated spec, and the digest ignores client key order and
//!    explicit defaults (the canonical form is the identity, not the
//!    wire bytes).
//! 2. **Live fuzz** — [`SpecFuzzer`] drives a real daemon with a
//!    seeded mix of valid, boundary, malformed, and over-budget request
//!    lines; every response must be the typed class
//!    the case was generated for, and the daemon must stay ready
//!    throughout. Case count is `NP_SPEC_FUZZ_CASES` (default 1000),
//!    seed is `NP_SPEC_FUZZ_SEED` (default 1) — a failing case replays
//!    from those two numbers alone.

use nanopower::proto::Request;
use nanopower::spec::{GridSpec, NetlistTier, ScenarioSpec};
use np_roadmap::TechNode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one spec from plain draws (the shim has no composite
/// strategies, so the test folds the option toggles in by hand).
#[allow(clippy::too_many_arguments)]
fn build_spec(
    node_i: usize,
    activity: f64,
    eff: f64,
    workload: f64,
    tj: f64,
    toggles: u32,
    grid_i: usize,
    cells: usize,
    seed: u64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::at_node(TechNode::ALL[node_i % TechNode::ALL.len()]);
    spec.activity = activity;
    spec.effective_fraction = eff;
    spec.workload_ratio = workload;
    if toggles & 1 != 0 {
        spec.junction_temp_c = Some(tj);
    }
    if toggles & 2 != 0 {
        spec.grid = Some(GridSpec {
            resolution: [5, 9, 17, 33, 65][grid_i % 5],
        });
    }
    if toggles & 4 != 0 {
        spec.netlist = Some(NetlistTier { cells, seed });
    }
    spec
}

/// The same spec rendered with keys in the *reverse* of the canonical
/// order (optional legs first, nested keys swapped) — a digest that
/// cared about wire order would change.
fn reversed_json(spec: &ScenarioSpec) -> String {
    let mut parts = Vec::new();
    if let Some(n) = &spec.netlist {
        parts.push(format!(
            "\"netlist\": {{\"seed\": {}, \"cells\": {}}}",
            n.seed, n.cells
        ));
    }
    if let Some(g) = &spec.grid {
        parts.push(format!("\"grid\": {{\"resolution\": {}}}", g.resolution));
    }
    if let Some(t) = spec.junction_temp_c {
        parts.push(format!("\"junction_temp_c\": {t}"));
    }
    parts.push(format!("\"workload_ratio\": {}", spec.workload_ratio));
    parts.push(format!(
        "\"effective_fraction\": {}",
        spec.effective_fraction
    ));
    parts.push(format!("\"activity\": {}", spec.activity));
    parts.push(format!("\"node\": {}", spec.node.drawn().0));
    format!("{{{}}}", parts.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_of_canonical_form_is_identity(
        node_i in 0usize..6,
        activity in 0.001f64..1.0,
        eff in 0.001f64..1.0,
        workload in 0.001f64..1.0,
        tj in -55.0f64..250.0,
        toggles in 0u32..8,
        grid_i in 0usize..5,
        cells in 100usize..10_000_000,
        // Seeds stay below 2^53: JSON numbers travel as f64, so larger
        // u64s would lose precision on the wire by design.
        seed in 0u64..(1u64 << 53),
    ) {
        let spec = build_spec(node_i, activity, eff, workload, tj, toggles, grid_i, cells, seed);
        let text = spec.to_json();
        let back = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical form must reparse: {text} -> {e}"));
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.digest(), spec.digest());
        prop_assert_eq!(back.to_json(), text, "canonical form is a fixed point");
    }

    #[test]
    fn digest_ignores_key_order_and_explicit_defaults(
        node_i in 0usize..6,
        activity in 0.001f64..1.0,
        eff in 0.001f64..1.0,
        workload in 0.001f64..1.0,
        tj in -55.0f64..250.0,
        toggles in 0u32..8,
        grid_i in 0usize..5,
        cells in 100usize..10_000_000,
        seed in 0u64..(1u64 << 53),
    ) {
        let spec = build_spec(node_i, activity, eff, workload, tj, toggles, grid_i, cells, seed);
        let reordered = ScenarioSpec::parse(&reversed_json(&spec))
            .unwrap_or_else(|e| panic!("reversed form must parse: {e}"));
        prop_assert_eq!(&reordered, &spec);
        prop_assert_eq!(reordered.digest(), spec.digest());
        prop_assert_eq!(reordered.job_name(), spec.job_name());
    }

    #[test]
    fn digest_distinguishes_scenarios(
        node_i in 0usize..6,
        activity in 0.001f64..1.0,
        eff in 0.001f64..1.0,
        workload in 0.001f64..1.0,
    ) {
        let spec = build_spec(node_i, activity, eff, workload, 0.0, 0, 0, 100, 0);
        let mut other = spec.clone();
        other.activity = (activity * 0.5).max(0.0005);
        prop_assert!(spec.digest() != other.digest(), "{}", spec.to_json());
    }
}

// ---------------------------------------------------------------------
// seeded case generator
// ---------------------------------------------------------------------

/// The typed response class one spec fuzz case must draw from the
/// daemon — anything else (a dropped connection, an untyped error, a
/// daemon panic) is a fuzz failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecExpectation {
    /// A well-formed, in-budget spec request: a terminal report with no
    /// failed records.
    Report,
    /// A field-level violation: a typed `invalid_spec` naming the
    /// offending field.
    InvalidSpec,
    /// A well-formed request whose static cost estimate exceeds the
    /// default budget: a typed `too_expensive`.
    TooExpensive,
    /// Malformed JSON or an unknown `run` key: a typed protocol error.
    Protocol,
}

/// One generated fuzz case: the raw request line (sent verbatim, so a
/// malformed body stays malformed on the wire) plus the typed response
/// class the daemon is required to produce.
#[derive(Debug, Clone)]
struct SpecCase {
    /// The full request line to send.
    line: String,
    /// The typed response class required of the daemon.
    expect: SpecExpectation,
}

/// Deterministic scenario-spec fuzzer: case `i` is a pure function of
/// `(seed, i)`, so a CI run with a fixed seed replays byte-identically
/// and parallel drivers agree on every case. The mix covers valid and
/// boundary specs (shuffled key order, optional legs, CSV form),
/// field-level violations, over-budget requests, and protocol-level
/// garbage — each tagged with the typed response it must draw.
#[derive(Debug, Clone)]
struct SpecFuzzer {
    seed: u64,
}

impl SpecFuzzer {
    /// A fuzzer for `seed`; equal seeds generate equal case streams.
    fn new(seed: u64) -> SpecFuzzer {
        SpecFuzzer { seed }
    }

    /// The `index`-th case.
    fn case(&self, index: usize) -> SpecCase {
        let mixed = self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(mixed);
        match rng.random_range(0..10u32) {
            0..=4 => Self::valid_case(&mut rng),
            5..=7 => Self::invalid_case(&mut rng),
            8 => Self::expensive_case(&mut rng),
            _ => Self::protocol_case(&mut rng),
        }
    }

    /// Wraps spec bodies into one `run` request line.
    fn wrap(bodies: &[String], csv: bool) -> String {
        let csv = if csv { ", \"csv\": true" } else { "" };
        format!("{{\"run\": {{\"specs\": [{}]{csv}}}}}", bodies.join(", "))
    }

    /// A well-formed spec with random (including boundary) field values,
    /// optional legs, and shuffled key order — the canonical digest must
    /// not care about any of that.
    fn valid_case(rng: &mut StdRng) -> SpecCase {
        let nodes = [180u32, 130, 100, 70, 50, 35];
        let node = nodes[rng.random_range(0..nodes.len())];
        // Percent-grained draws land exactly on the 0.01 and 1.0
        // boundaries often enough to keep them covered.
        let pct = |rng: &mut StdRng| f64::from(rng.random_range(1..101u32)) / 100.0;
        let mut fields = vec![
            format!("\"node\": {node}"),
            format!("\"activity\": {}", pct(rng)),
            format!("\"effective_fraction\": {}", pct(rng)),
            format!("\"workload_ratio\": {}", pct(rng)),
        ];
        if rng.random_range(0..10u32) < 3 {
            fields.push(format!(
                "\"junction_temp_c\": {}",
                rng.random_range(25..111u32)
            ));
        }
        if rng.random_range(0..10u32) < 3 {
            let resolution = [5usize, 9, 17, 33][rng.random_range(0..4)];
            fields.push(format!("\"grid\": {{\"resolution\": {resolution}}}"));
        }
        if rng.random_range(0..10u32) < 2 {
            fields.push(format!(
                "\"netlist\": {{\"cells\": {}, \"seed\": {}}}",
                rng.random_range(100..2001u32),
                rng.random_range(0..1000u32)
            ));
        }
        // Fisher-Yates: the daemon must digest shuffled keys equally.
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.random_range(0..i + 1));
        }
        let csv = rng.random_range(0..4u32) == 0;
        SpecCase {
            line: Self::wrap(&[format!("{{{}}}", fields.join(", "))], csv),
            expect: SpecExpectation::Report,
        }
    }

    /// A spec violating exactly one field contract: out-of-range,
    /// non-integral, wrong type, unknown key, or missing requirement.
    fn invalid_case(rng: &mut StdRng) -> SpecCase {
        const BODIES: &[&str] = &[
            "{\"activity\": 0.5}",
            "{\"node\": 71}",
            "{\"node\": \"70nm\"}",
            "{\"node\": 70.5}",
            "{\"node\": 70, \"activity\": 0}",
            "{\"node\": 70, \"activity\": 2.5}",
            "{\"node\": 70, \"activity\": -0.25}",
            "{\"node\": 70, \"effective_fraction\": 0}",
            "{\"node\": 70, \"workload_ratio\": 1.5}",
            "{\"node\": 70, \"junction_temp_c\": 400}",
            "{\"node\": 70, \"junction_temp_c\": -100}",
            "{\"node\": 70, \"grid\": {}}",
            "{\"node\": 70, \"grid\": {\"resolution\": 3}}",
            "{\"node\": 70, \"grid\": {\"resolution\": 2000}}",
            "{\"node\": 70, \"grid\": {\"resolution\": 33.5}}",
            "{\"node\": 70, \"grid\": {\"resolution\": 17, \"pitch\": 2}}",
            "{\"node\": 70, \"grid\": 17}",
            "{\"node\": 70, \"netlist\": {\"cells\": 10, \"seed\": 1}}",
            "{\"node\": 70, \"netlist\": {\"seed\": 1}}",
            "{\"node\": 70, \"netlist\": {\"cells\": 500, \"seed\": -1}}",
            "{\"node\": 70, \"nodee\": 1}",
            "{\"node\": 70, \"chaos\": \"explode\"}",
            "{\"node\": 70, \"chaos\": 7}",
            "70",
            "[1, 2]",
        ];
        let body = BODIES[rng.random_range(0..BODIES.len())];
        SpecCase {
            line: Self::wrap(&[body.to_owned()], false),
            expect: SpecExpectation::InvalidSpec,
        }
    }

    /// A well-formed request whose static cost estimate exceeds the
    /// default budget — one oversized netlist tier, or several maximal
    /// mesh legs summing over it.
    fn expensive_case(rng: &mut StdRng) -> SpecCase {
        if rng.random_range(0..2u32) == 0 {
            let body = format!(
                "{{\"node\": 70, \"netlist\": {{\"cells\": 10000000, \"seed\": {}}}}}",
                rng.random_range(0..1000u32)
            );
            SpecCase {
                line: Self::wrap(&[body], false),
                expect: SpecExpectation::TooExpensive,
            }
        } else {
            let bodies: Vec<String> = (0..4)
                .map(|i| format!("{{\"node\": 70, \"workload_ratio\": 0.{}1, \"grid\": {{\"resolution\": 1025}}}}", i + 1))
                .collect();
            SpecCase {
                line: Self::wrap(&bodies, false),
                expect: SpecExpectation::TooExpensive,
            }
        }
    }

    /// Protocol-level garbage: malformed JSON, torn frames, unknown
    /// `run` keys, and the wrong shapes for `specs`.
    fn protocol_case(rng: &mut StdRng) -> SpecCase {
        const LINES: &[&str] = &[
            "{\"run\": {\"specs\": [{\"node\": 70}], \"spces\": true}}",
            "{\"run\": {\"names\": [\"fig5\"], \"deadlne_ms\": 5}}",
            "{\"run\": {\"specs\": {\"node\": 70}}}",
            "{\"run\": {\"specs\": [{\"node\": 70, \"activity\": 1e999}]}}",
            "{\"run\": {\"specs\": [{\"node\": 70",
            "\"just a string\"",
            "[{\"node\": 70}]",
        ];
        let line = LINES[rng.random_range(0..LINES.len())];
        SpecCase {
            line: line.to_owned(),
            expect: SpecExpectation::Protocol,
        }
    }
}

#[test]
fn spec_fuzzer_is_deterministic_and_mixes_every_class() {
    let fuzzer = SpecFuzzer::new(7);
    let replay = SpecFuzzer::new(7);
    let mut seen = [false; 4];
    for i in 0..128 {
        let case = fuzzer.case(i);
        let again = replay.case(i);
        assert_eq!(case.line, again.line, "case {i} not deterministic");
        assert_eq!(case.expect, again.expect);
        seen[match case.expect {
            SpecExpectation::Report => 0,
            SpecExpectation::InvalidSpec => 1,
            SpecExpectation::TooExpensive => 2,
            SpecExpectation::Protocol => 3,
        }] = true;
    }
    assert_eq!(seen, [true; 4], "128 draws must cover every class");
    let other = SpecFuzzer::new(8).case(0);
    let this = fuzzer.case(0);
    assert!(
        other.line != this.line
            || other.expect != this.expect
            || fuzzer.case(1).line != SpecFuzzer::new(8).case(1).line,
        "different seeds should diverge"
    );
}

#[test]
fn every_fuzz_case_classifies_exactly_at_the_parser() {
    use nanopower::spec::DEFAULT_COST_BUDGET;
    use nanopower::Error;
    let fuzzer = SpecFuzzer::new(1);
    for i in 0..512 {
        let case = fuzzer.case(i);
        let parsed = Request::parse(&case.line);
        match case.expect {
            SpecExpectation::Report => {
                let Ok(Request::Run(run)) = parsed else {
                    panic!("valid case {i} rejected: {case:?}");
                };
                let cost: u64 = run.specs.iter().map(|s| s.cost()).sum();
                assert!(cost <= DEFAULT_COST_BUDGET, "case {i} over budget: {cost}");
            }
            SpecExpectation::TooExpensive => {
                let Ok(Request::Run(run)) = parsed else {
                    panic!("expensive case {i} must still parse: {case:?}");
                };
                let cost: u64 = run.specs.iter().map(|s| s.cost()).sum();
                assert!(cost > DEFAULT_COST_BUDGET, "case {i} under budget: {cost}");
            }
            SpecExpectation::InvalidSpec => assert!(
                matches!(parsed, Err(Error::InvalidSpec { .. })),
                "case {i} not invalid_spec: {case:?} -> {parsed:?}"
            ),
            SpecExpectation::Protocol => assert!(
                matches!(parsed, Err(Error::Protocol { .. })),
                "case {i} not protocol: {case:?} -> {parsed:?}"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// live-daemon fuzz
// ---------------------------------------------------------------------

#[cfg(unix)]
mod live {
    use super::{SpecCase, SpecExpectation, SpecFuzzer};
    use nanopower::proto::Response;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    fn env_u64(key: &str, default: u64) -> u64 {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    struct Daemon {
        child: Child,
        socket: PathBuf,
    }

    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }

    fn spawn_daemon() -> Daemon {
        let socket = std::env::temp_dir().join(format!("np-spec-fuzz-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2", "--max-inflight", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nanopowerd");
        let daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never opened its socket");
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    struct Conn {
        reader: BufReader<UnixStream>,
        writer: UnixStream,
    }

    impl Conn {
        fn open(socket: &PathBuf) -> Conn {
            let writer = UnixStream::connect(socket).expect("connect");
            let reader = BufReader::new(writer.try_clone().expect("clone socket"));
            let mut conn = Conn { reader, writer };
            match conn.read() {
                Response::Hello(_) => conn,
                other => panic!("expected hello, got {other:?}"),
            }
        }

        fn read(&mut self) -> Response {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "daemon dropped the connection — a fuzz failure");
            Response::parse(line.trim_end())
                .unwrap_or_else(|e| panic!("untyped response line {line:?}: {e}"))
        }

        /// Sends one fuzz case and asserts the typed response class it
        /// was generated for.
        fn drive(&mut self, i: usize, case: &SpecCase) {
            self.writer
                .write_all(case.line.as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .expect("send case");
            match case.expect {
                SpecExpectation::Report => loop {
                    match self.read() {
                        Response::Record(record) => assert!(
                            record.status == "ok",
                            "case {i}: valid spec produced a {} record: {record:?}\n{}",
                            record.status,
                            case.line
                        ),
                        Response::Report(report) => {
                            assert_eq!(report.failures, 0, "case {i}: {report:?}\n{}", case.line);
                            break;
                        }
                        other => panic!("case {i}: unexpected {other:?}\n{}", case.line),
                    }
                },
                SpecExpectation::InvalidSpec => match self.read() {
                    Response::InvalidSpec { field, .. } => {
                        assert!(!field.is_empty(), "case {i} names no field\n{}", case.line);
                    }
                    other => panic!(
                        "case {i}: expected invalid_spec, got {other:?}\n{}",
                        case.line
                    ),
                },
                SpecExpectation::TooExpensive => match self.read() {
                    Response::TooExpensive { estimate, budget } => {
                        assert!(estimate > budget, "case {i}: {estimate} <= {budget}");
                    }
                    other => panic!(
                        "case {i}: expected too_expensive, got {other:?}\n{}",
                        case.line
                    ),
                },
                SpecExpectation::Protocol => match self.read() {
                    Response::Protocol { .. } => {}
                    other => panic!(
                        "case {i}: expected protocol error, got {other:?}\n{}",
                        case.line
                    ),
                },
            }
        }
    }

    /// The acceptance gate: `NP_SPEC_FUZZ_CASES` seeded cases against a
    /// live daemon — zero daemon panics, zero dropped connections, and
    /// a typed response of the generated class for every single case.
    #[test]
    fn seeded_fuzz_draws_only_typed_responses_from_a_live_daemon() {
        let cases = env_u64("NP_SPEC_FUZZ_CASES", 1000) as usize;
        let seed = env_u64("NP_SPEC_FUZZ_SEED", 1);
        let fuzzer = SpecFuzzer::new(seed);
        let daemon = spawn_daemon();
        let mut conn = Conn::open(&daemon.socket);
        for i in 0..cases {
            let case = fuzzer.case(i);
            conn.drive(i, &case);
            // A fresh connection every so often exercises the greeting
            // path under fuzz load too.
            if i % 250 == 249 {
                conn = Conn::open(&daemon.socket);
            }
        }
        // The daemon must still be ready after the whole barrage.
        conn.writer
            .write_all(b"{\"health\": {}}\n")
            .expect("send health");
        match conn.read() {
            Response::Health(health) => assert!(health.ready, "{health:?}"),
            other => panic!("expected health, got {other:?}"),
        }
        eprintln!("spec fuzz: {cases} cases (seed {seed}), all responses typed");
    }
}

//! # np-telemetry
//!
//! Zero-dependency run telemetry for the `nanopower` workspace: spans,
//! counters, and value statistics with thread-safe collection, and a
//! Chrome `trace_event` exporter.
//!
//! The workspace is offline (every dependency is vendored), so this
//! crate is a deliberately small, std-only shim instead of a `tracing`
//! dependency — see DESIGN.md §11 for the architecture and the
//! trade-offs. The paper's results come from chained solvers (device
//! I–V → STA/power → electro-thermal fixed point → IR-drop CG/SOR), and
//! this crate is how the workspace sees where wall-clock goes and how
//! convergence trends across those chains:
//!
//! | instrumented path | span / counter names |
//! |---|---|
//! | engine job lifecycle | `engine.run`, `engine.worker`, per-artifact spans, `engine.queue_wait_us`, `engine.retries`, `engine.deadline_exceeded` |
//! | IR-drop PCG / MGCG (`np-grid`) | `grid.pcg.solve`, `grid.pcg.iterations`, `grid.pcg.final_residual`; `grid.mgcg.solve`, `grid.mgcg.iterations`, `grid.mgcg.sweeps_equivalent`, `grid.mgcg.final_residual`, `grid.mg.level#depth` |
//! | IR-drop SOR (`np-grid`) | `grid.sor.solve`, `grid.sor.iterations` |
//! | electro-thermal fixed point (`np-thermal`) | `thermal.fixed_point`, `thermal.fixed_point.iterations` |
//! | STA (`np-circuit`) | `circuit.sta.analyze`, `circuit.sta.critical_delay`, `circuit.sta.gates`, `circuit.sta.level_passes` |
//! | Vth solve (`np-device`) | `device.solve_vth`, `device.solve_vth.evals` |
//!
//! # Model
//!
//! A [`Collector`] is a cheaply clonable handle to a thread-safe sink.
//! Instrumented code never holds a collector: it calls the free
//! functions [`span`], [`counter`], and [`value`], which look up the
//! *currently installed* collector in a thread-local and do nothing —
//! a few nanoseconds — when none is installed. A runner that wants
//! telemetry creates a collector, [`install`]s it (and installs clones
//! on any worker threads it spawns), runs the workload, and exports.
//!
//! # Quickstart
//!
//! ```
//! use np_telemetry::{Collector, install, span, counter, value};
//! # if cfg!(feature = "off") { return; }
//!
//! let collector = Collector::new();
//! {
//!     let _guard = install(&collector);
//!     let _solve = span("outer.solve");
//!     {
//!         let _inner = span("inner.iterate");
//!         counter("inner.iterations", 42);
//!         value("inner.final_residual", 1e-13);
//!     }
//! }
//! let summary = collector.summary();
//! assert_eq!(summary.counters, vec![("inner.iterations".to_string(), 42)]);
//! let trace = collector.chrome_trace();
//! assert!(trace.contains("\"traceEvents\""));
//! assert!(trace.contains("\"name\": \"inner.iterate\""));
//! ```
//!
//! # No-op modes
//!
//! Two levels of "off":
//!
//! * **No collector installed** (the default for library users): every
//!   instrumentation call is a thread-local read plus a branch.
//! * **Feature `off`**: every instrumentation call compiles to an empty
//!   inline function and collectors record nothing, for proving the
//!   instrumentation has zero cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod collector;
pub mod export;

pub use collector::{Collector, SpanRecord, SpanStats, Summary, ValueStats};

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    /// Stack of installed collectors; the top is the current one.
    static CURRENT: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
    /// Open recorded-span count on this thread (span nesting depth).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's dense telemetry id (`u64::MAX` = unassigned).
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Process-wide source of dense thread ids for trace attribution.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// The dense telemetry id of the calling thread (assigned on first use).
fn thread_id() -> u64 {
    TID.with(|cell| {
        let id = cell.get();
        if id != u64::MAX {
            id
        } else {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

/// Installs `collector` as the calling thread's current collector until
/// the returned guard drops (installs nest: dropping restores the
/// previous collector).
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, current};
/// # if cfg!(feature = "off") { return; }
///
/// assert!(current().is_none());
/// let c = Collector::new();
/// {
///     let _guard = install(&c);
///     assert!(current().is_some());
/// }
/// assert!(current().is_none());
/// ```
pub fn install(collector: &Collector) -> InstallGuard {
    CURRENT.with(|stack| stack.borrow_mut().push(collector.clone()));
    InstallGuard { _priv: () }
}

/// Uninstalls the collector pushed by the matching [`install`] call when
/// dropped.
#[must_use = "dropping the guard uninstalls the collector immediately"]
#[derive(Debug)]
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The calling thread's currently installed collector, if any.
///
/// Runners use this to propagate telemetry onto worker threads they
/// spawn (capture before spawning, [`install`] inside the worker).
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, current};
/// # if cfg!(feature = "off") { return; }
///
/// let c = Collector::new();
/// let _guard = install(&c);
/// let captured = current().unwrap();
/// std::thread::spawn(move || {
///     let _guard = np_telemetry::install(&captured);
///     np_telemetry::counter("worker.jobs", 1);
/// })
/// .join()
/// .unwrap();
/// assert_eq!(c.summary().counters, vec![("worker.jobs".to_string(), 1)]);
/// ```
pub fn current() -> Option<Collector> {
    if cfg!(feature = "off") {
        return None;
    }
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

/// An open span: a named region of wall-clock time, recorded to the
/// collector that was current when it was opened. Closed (and recorded)
/// on drop. Inert — a zero-cost placeholder — when no collector was
/// installed.
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, span};
/// # if cfg!(feature = "off") { return; }
///
/// let c = Collector::new();
/// let _guard = install(&c);
/// {
///     let _s = span("model.solve");
/// } // recorded here
/// assert_eq!(c.summary().spans[0].0, "model.solve");
/// ```
#[must_use = "a span records the time until it is dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    collector: Collector,
    name: Cow<'static, str>,
    start: Instant,
    depth: u32,
    tid: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            active.collector.record_span(
                active.name,
                active.start,
                Instant::now(),
                active.tid,
                active.depth,
            );
        }
    }
}

/// Opens a [`Span`] on the current collector (inert when none is
/// installed, or under the `off` feature).
///
/// # Examples
///
/// ```
/// // Without a collector installed this is a no-op — safe to leave in
/// // library hot paths unconditionally.
/// let _s = np_telemetry::span("grid.cg.solve");
/// ```
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if cfg!(feature = "off") {
        return Span { active: None };
    }
    let Some(collector) = current() else {
        return Span { active: None };
    };
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Span {
        active: Some(ActiveSpan {
            collector,
            name: name.into(),
            start: Instant::now(),
            depth,
            tid: thread_id(),
        }),
    }
}

/// Opens a [`Span`] attributed to one shard of a sharded computation,
/// named `{name}#{shard}` (inert when no collector is installed, or
/// under the `off` feature).
///
/// Parallel solvers give each worker its own span this way, so a trace
/// shows per-shard wall-clock and the Chrome export separates the shards
/// into distinguishable rows. The name is only allocated when
/// a collector is actually listening, so the helper stays free on
/// un-instrumented runs.
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, shard_span};
/// # if cfg!(feature = "off") { return; }
///
/// let c = Collector::new();
/// {
///     let _guard = install(&c);
///     let _s = shard_span("grid.pcg.shard", 3);
/// }
/// assert_eq!(c.summary().spans[0].0, "grid.pcg.shard#3");
/// ```
pub fn shard_span(name: &str, shard: usize) -> Span {
    if cfg!(feature = "off") || current().is_none() {
        return Span { active: None };
    }
    span(format!("{name}#{shard}"))
}

/// Adds `n` to the named monotonic counter on the current collector
/// (no-op when none is installed).
///
/// Hot loops should accumulate locally and call this once per solve —
/// the counter is behind a mutex, not a per-iteration atomic.
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, counter};
/// # if cfg!(feature = "off") { return; }
///
/// let c = Collector::new();
/// let _guard = install(&c);
/// counter("grid.cg.iterations", 12);
/// counter("grid.cg.iterations", 30);
/// assert_eq!(c.summary().counters, vec![("grid.cg.iterations".to_string(), 42)]);
/// ```
pub fn counter(name: &str, n: u64) {
    if cfg!(feature = "off") {
        return;
    }
    if let Some(collector) = current() {
        collector.record_counter(name, n);
    }
}

/// Records one observation of the named value (min/max/mean statistics)
/// on the current collector (no-op when none is installed).
///
/// # Examples
///
/// ```
/// use np_telemetry::{Collector, install, value};
/// # if cfg!(feature = "off") { return; }
///
/// let c = Collector::new();
/// let _guard = install(&c);
/// value("grid.cg.final_residual", 1e-13);
/// value("grid.cg.final_residual", 3e-13);
/// let stats = &c.summary().values[0].1;
/// assert_eq!(stats.count, 2);
/// assert!((stats.mean() - 2e-13).abs() < 1e-20);
/// ```
pub fn value(name: &str, v: f64) {
    if cfg!(feature = "off") {
        return;
    }
    if let Some(collector) = current() {
        collector.record_value(name, v);
    }
}

// The recording-behavior tests are meaningless under the compile-away
// feature (nothing records, by design); the `off` build is validated by
// `cargo check --features off` plus `off_feature_is_inert` below.
#[cfg(all(test, feature = "off"))]
mod off_tests {
    use super::*;

    #[test]
    fn off_feature_is_inert() {
        let c = Collector::new();
        let _g = install(&c);
        assert!(current().is_none(), "`off` hides even installed collectors");
        let s = span("ignored");
        drop(s);
        counter("ignored", 1);
        value("ignored", 1.0);
        let summary = c.summary();
        assert!(summary.counters.is_empty());
        assert!(summary.values.is_empty());
        assert!(summary.spans.is_empty());
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    #[test]
    fn no_collector_means_inert_everything() {
        assert!(current().is_none());
        let s = span("nobody.listening");
        assert!(s.active.is_none());
        drop(s);
        counter("nobody.counts", 1);
        value("nobody.values", 1.0);
    }

    #[test]
    fn install_nests_and_restores() {
        let a = Collector::new();
        let b = Collector::new();
        let ga = install(&a);
        {
            let _gb = install(&b);
            counter("hit", 1);
        }
        counter("hit", 10);
        drop(ga);
        assert_eq!(b.summary().counters, vec![("hit".to_string(), 1)]);
        assert_eq!(a.summary().counters, vec![("hit".to_string(), 10)]);
    }

    #[test]
    fn span_depth_tracks_nesting() {
        let c = Collector::new();
        let _g = install(&c);
        {
            let _outer = span("outer");
            {
                let _mid = span("mid");
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        let mut spans = c.records();
        spans.sort_by(|x, y| x.name.cmp(&y.name));
        let depth_of = |n: &str| spans.iter().find(|s| s.name == n).map(|s| s.depth).unwrap();
        assert_eq!(depth_of("outer"), 0);
        assert_eq!(depth_of("mid"), 1);
        assert_eq!(depth_of("inner"), 2);
        assert_eq!(depth_of("sibling"), 1);
    }

    #[test]
    fn spans_record_to_their_opening_collector() {
        let a = Collector::new();
        let b = Collector::new();
        let _ga = install(&a);
        let s = {
            let _gb = install(&b);
            span("opened-under-b")
        };
        // `b` is no longer installed when the span closes; it must still
        // receive the record.
        drop(s);
        assert_eq!(b.summary().spans.len(), 1);
        assert!(a.summary().spans.is_empty());
    }

    #[test]
    fn disabled_path_is_fast() {
        // ~1M inert span+counter+value calls: guards against the no-op
        // path growing a lock or allocation. Generous absolute bound so
        // loaded CI machines don't flake; the real cost is ~ns each.
        assert!(current().is_none());
        let start = Instant::now();
        for i in 0..1_000_000u64 {
            let _s = span("noop");
            counter("noop", i);
            value("noop", i as f64);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "no-op telemetry path took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn shard_spans_attribute_by_index() {
        let c = Collector::new();
        {
            let _g = install(&c);
            let _a = shard_span("solver.shard", 0);
            let _b = shard_span("solver.shard", 7);
        }
        let names: Vec<String> = c.summary().spans.iter().map(|(n, _)| n.clone()).collect();
        assert!(names.contains(&"solver.shard#0".to_string()), "{names:?}");
        assert!(names.contains(&"solver.shard#7".to_string()), "{names:?}");
        let inert = shard_span("solver.shard", 1);
        assert!(inert.active.is_none(), "inert without a collector");
    }

    #[test]
    fn thread_ids_are_dense_and_stable_per_thread() {
        let t1 = thread_id();
        assert_eq!(thread_id(), t1, "stable within a thread");
        let t2 = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(t1, t2, "distinct across threads");
    }
}

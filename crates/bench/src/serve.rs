//! Load-test reporting for the `nanopowerd` service: per-request
//! latency aggregation serialized as `BENCH_serve.json`.
//!
//! The report keeps the `nanopower-bench/v1` top-level shape (see
//! [`crate::perf::BenchReport`]) so the same tooling ingests both
//! files: service latencies appear as pseudo-kernels (`serve.request`
//! mean, `serve.p50`, `serve.p99`, in nanoseconds, with `iterations` =
//! completed requests) plus an additive `serve` object carrying the
//! service-level numbers (throughput, percentiles in milliseconds,
//! memo hits).

use nanopower::proto::StatsMsg;
use std::time::Duration;

/// One load run against a `nanopowerd` daemon: configuration, outcome
/// counts, and every completed request's latency.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Concurrent client connections driven.
    pub connections: usize,
    /// Requests attempted across all connections.
    pub requests: u64,
    /// Requests that returned a terminal report line.
    pub completed: u64,
    /// Requests that ended in a failure (failed records, protocol
    /// errors, or dropped connections).
    pub errors: u64,
    /// `busy` rejections observed (each retried until admitted).
    pub busy_retries: u64,
    /// `overloaded` sheds observed (each retried with backoff).
    pub shed_retries: u64,
    /// The daemon's `stats` response after the run: its memo hits, memo
    /// occupancy and overload/degradation tallies (all zero when the
    /// stats probe was skipped).
    pub daemon: StatsMsg,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Wall-clock of the whole load run.
    pub total_wall: Duration,
    /// Per-request latencies, milliseconds, completion order.
    pub latencies_ms: Vec<f64>,
    /// The registry-artifact slice of the mixed workload.
    pub registry: KindStats,
    /// The scenario-spec slice of the mixed workload.
    pub specs: KindStats,
}

/// One request kind's slice of a mixed load run: the registry-name
/// requests and the scenario-spec requests are tallied separately so
/// memo behaviour and latency can be compared per kind.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Requests of this kind that returned a terminal report.
    pub completed: u64,
    /// Memo-served records observed in this kind's reports
    /// (client-side count, from each report's `memo_hits`).
    pub memo_hits: u64,
    /// Per-request latencies of this kind, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl KindStats {
    /// Folds another tally of the same kind into this one.
    pub fn merge(&mut self, other: KindStats) {
        self.completed += other.completed;
        self.memo_hits += other.memo_hits;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Median latency of this kind, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 50.0)
    }

    /// 99th-percentile latency of this kind, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 99.0)
    }

    /// This kind's slice of the `serve.kinds` JSON object.
    fn to_json(&self) -> String {
        format!(
            "{{\"completed\": {}, \"memo_hits\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            self.completed,
            self.memo_hits,
            self.p50_ms(),
            self.p99_ms()
        )
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted
/// sample; 0.0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl ServeReport {
    /// Mean request latency in milliseconds (0.0 with no samples).
    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }

    /// Median request latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 50.0)
    }

    /// 99th-percentile request latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 99.0)
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.total_wall.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Serializes the report in the `nanopower-bench/v1` shape (see the
    /// module docs for how service numbers map onto it).
    pub fn to_json(&self) -> String {
        let ncpu = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"nanopower-bench/v1\",\n");
        out.push_str(&format!("  \"ncpu\": {ncpu},\n"));
        out.push_str(&format!("  \"os\": \"{}\",\n", std::env::consts::OS));
        out.push_str(&format!("  \"arch\": \"{}\",\n", std::env::consts::ARCH));
        out.push_str(&format!("  \"shards\": {},\n", self.connections));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"mesh_sizes\": [],\n");
        out.push_str(&format!(
            "  \"serve\": {{\"connections\": {}, \"requests\": {}, \"completed\": {}, \
             \"errors\": {}, \"busy_retries\": {}, \"shed_retries\": {}, \"memo_hits\": {}, \
             \"throughput_rps\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"total_ms\": {:.3}, \"daemon\": {{\"memo_entries\": {}, \"memo_bytes\": {}, \
             \"memo_evictions\": {}, \"overloaded\": {}, \"conn_rejected\": {}, \
             \"write_timeouts\": {}}}}},\n",
            self.connections,
            self.requests,
            self.completed,
            self.errors,
            self.busy_retries,
            self.shed_retries,
            self.daemon.memo_hits,
            self.throughput_rps(),
            self.p50_ms(),
            self.p99_ms(),
            self.total_wall.as_secs_f64() * 1e3,
            self.daemon.memo_entries,
            self.daemon.memo_bytes,
            self.daemon.memo_evictions,
            self.daemon.overloaded,
            self.daemon.conn_rejected,
            self.daemon.write_timeouts,
        ));
        out.push_str(&format!(
            "  \"kinds\": {{\"registry\": {}, \"spec\": {}}},\n",
            self.registry.to_json(),
            self.specs.to_json()
        ));
        out.push_str("  \"kernels\": [\n");
        let kernels = [
            ("serve.request", self.mean_ms()),
            ("serve.p50", self.p50_ms()),
            ("serve.p99", self.p99_ms()),
        ];
        for (i, (name, ms)) in kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"mesh\": 0, \"mean_ns\": {:.1}, \
                 \"iterations\": {}}}{}\n",
                ms * 1e6,
                self.completed,
                if i + 1 < kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The one-line human summary the load client prints.
    pub fn summary(&self) -> String {
        format!(
            "{} connections x {} requests: {} ok, {} errors, {} busy retries, \
             {:.1} req/s, p50 {:.1} ms, p99 {:.1} ms, {} memo hits",
            self.connections,
            self.requests / (self.connections.max(1) as u64),
            self.completed,
            self.errors,
            self.busy_retries,
            self.throughput_rps(),
            self.p50_ms(),
            self.p99_ms(),
            self.daemon.memo_hits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!((percentile(&samples, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn report_serializes_bench_v1_shape() {
        let report = ServeReport {
            connections: 4,
            requests: 100,
            completed: 98,
            errors: 2,
            busy_retries: 3,
            shed_retries: 1,
            daemon: StatsMsg {
                memo_hits: 40,
                memo_entries: 6,
                memo_bytes: 4096,
                memo_evictions: 2,
                overloaded: 1,
                ..StatsMsg::default()
            },
            quick: false,
            total_wall: Duration::from_secs(2),
            latencies_ms: (1..=98).map(f64::from).collect(),
            registry: KindStats {
                completed: 66,
                memo_hits: 30,
                latencies_ms: (1..=66).map(f64::from).collect(),
            },
            specs: KindStats {
                completed: 32,
                memo_hits: 10,
                latencies_ms: (67..=98).map(f64::from).collect(),
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"nanopower-bench/v1\""));
        assert!(json.contains("\"serve\": {"));
        assert!(json.contains("\"throughput_rps\": 49.000"));
        assert!(json.contains("\"name\": \"serve.p99\""));
        assert!(json.contains("\"memo_hits\": 40"));
        assert!(json.contains("\"daemon\": {\"memo_entries\": 6"));
        assert!(json.contains("\"memo_evictions\": 2"));
        assert!(json.contains("\"shed_retries\": 1"));
        assert!(json.contains("\"kinds\": {\"registry\": {\"completed\": 66"));
        assert!(json.contains("\"spec\": {\"completed\": 32, \"memo_hits\": 10"));
        assert!((report.p50_ms() - 49.5).abs() < 1e-9);
        assert!(report.p99_ms() > 95.0);
        let summary = report.summary();
        assert!(summary.contains("98 ok"), "{summary}");
        assert!(summary.contains("40 memo hits"), "{summary}");
    }

    #[test]
    fn empty_report_degrades_gracefully() {
        let report = ServeReport::default();
        assert_eq!(report.mean_ms(), 0.0);
        assert_eq!(report.throughput_rps(), 0.0);
        assert!(report.to_json().contains("\"p50_ms\": 0.000"));
    }
}

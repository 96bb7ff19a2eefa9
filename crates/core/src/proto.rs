//! The `nanopowerd/v1` JSON-lines wire protocol.
//!
//! The `nanopowerd` daemon and its clients exchange one self-contained
//! JSON value per line over a unix or TCP socket. The server greets each
//! connection with a [`Response::Hello`] header naming the schema, then
//! answers each request line with zero or more streamed
//! [`Response::Record`] lines and exactly one terminal line
//! ([`Response::Report`], [`Response::Stats`], [`Response::Busy`],
//! [`Response::TooExpensive`], [`Response::InvalidSpec`],
//! [`Response::Protocol`], or [`Response::Shutdown`]).
//!
//! Four requests exist:
//!
//! ```text
//! {"run": {"names": ["fig5", "table2"], "csv": false, "deadline_ms": 5000,
//!          "specs": [{"node": 70, "activity": 0.2}]}}
//! {"stats": {}}
//! {"health": {}}
//! {"shutdown": {}}
//! ```
//!
//! A `run` body may carry registry artifact `names`, ad-hoc scenario
//! `specs` ([`crate::spec::ScenarioSpec`]), or both; spec records are
//! named `spec:<digest>`. Because specs are untrusted input, their
//! failure modes are typed separately: a spec that fails validation is
//! answered [`Response::InvalidSpec`] naming the offending field, and a
//! request whose static cost estimate exceeds the daemon's budget is
//! answered [`Response::TooExpensive`] before any work happens.
//!
//! Overload is always answered in band and typed, never by dropping the
//! connection: a full admission queue answers [`Response::Busy`]
//! (retry immediately is pointless, back off), while a queue wait past
//! the daemon's shed budget answers [`Response::Overloaded`] (the
//! request *was* queued, the daemon is saturated — shed load). A
//! malformed line never drops the connection either: the daemon answers
//! with a typed [`Response::Protocol`] error (backed by
//! [`Error::Protocol`]) and keeps reading — and unknown keys inside a
//! `run` body are rejected the same way, so a typo'd `deadlne_ms` can
//! never silently run unbounded. Everything here is
//! hand-rolled JSON over [`crate::engine::RunReport::to_json`]'s idiom —
//! no serialization dependency — parsed by the same recursive-descent
//! reader the crash-safe journal uses.

use crate::engine::JobRecord;
use crate::error::Error;
use crate::jsonio::{self, Json};
use crate::spec::ScenarioSpec;

/// The protocol schema identifier sent in every hello line.
pub const SCHEMA: &str = "nanopowerd/v1";

/// The payload of a `run` request: which artifacts to render, in which
/// form, under what per-request deadline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRequest {
    /// Artifact names to run, in submission order. Unknown names come
    /// back as `error` records, like `repro` treats them.
    pub names: Vec<String>,
    /// Ad-hoc scenario specs to evaluate, validated at parse time.
    /// Their records are named [`ScenarioSpec::job_name`] and run after
    /// the named artifacts, in submission order.
    pub specs: Vec<ScenarioSpec>,
    /// Render the CSV form instead of the text form.
    pub csv: bool,
    /// Per-request wall-clock budget in milliseconds; the daemon wires
    /// it to a [`crate::engine::CancelToken`], so expiry drains
    /// in-flight jobs gracefully and marks the rest `cancelled`.
    pub deadline_ms: Option<u64>,
}

/// One client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run artifacts and stream their records back.
    Run(RunRequest),
    /// Report the daemon's lifetime counters and cache statistics.
    Stats,
    /// Report readiness, inflight load, memo occupancy, and shed
    /// counters — the supervision endpoint.
    Health,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line. Malformed lines produce
    /// [`Error::Protocol`] with a reason the daemon echoes back; a
    /// malformed scenario spec inside a `run` body produces
    /// [`Error::InvalidSpec`] naming the offending field.
    pub fn parse(line: &str) -> Result<Self, Error> {
        let value = jsonio::parse(line).map_err(|reason| Error::Protocol { reason })?;
        let obj = value.as_obj().ok_or_else(|| Error::Protocol {
            reason: "request must be a JSON object".into(),
        })?;
        let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        keys.sort_unstable();
        match keys.as_slice() {
            ["run"] => {
                let body = &obj["run"];
                let Some(body_obj) = body.as_obj() else {
                    return Err(Error::Protocol {
                        reason: "`run` body must be an object".into(),
                    });
                };
                // Unknown keys are protocol errors, not silent no-ops:
                // a typo'd `deadlne_ms` must never run unbounded.
                let mut body_keys: Vec<&str> = body_obj.keys().map(String::as_str).collect();
                body_keys.sort_unstable();
                for key in body_keys {
                    if !["names", "specs", "csv", "deadline_ms"].contains(&key) {
                        return Err(Error::Protocol {
                            reason: format!(
                                "unknown `run` key `{key}` (allowed: names, specs, csv, deadline_ms)"
                            ),
                        });
                    }
                }
                let names = match body.get("names") {
                    Some(v) => {
                        let items = v.as_arr().ok_or_else(|| Error::Protocol {
                            reason: "`names` must be an array of strings".into(),
                        })?;
                        items
                            .iter()
                            .map(|item| {
                                item.as_str()
                                    .map(str::to_owned)
                                    .ok_or_else(|| Error::Protocol {
                                        reason: "`names` must be an array of strings".into(),
                                    })
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    }
                    None => Vec::new(),
                };
                let csv = match body.get("csv") {
                    Some(v) => v.as_bool().ok_or_else(|| Error::Protocol {
                        reason: "`csv` must be a boolean".into(),
                    })?,
                    None => false,
                };
                let deadline_ms = match body.get("deadline_ms") {
                    Some(v) => Some(v.as_u64().ok_or_else(|| Error::Protocol {
                        reason: "`deadline_ms` must be a non-negative integer".into(),
                    })?),
                    None => None,
                };
                let specs = match body.get("specs") {
                    Some(v) => {
                        let items = v.as_arr().ok_or_else(|| Error::Protocol {
                            reason: "`specs` must be an array of spec objects".into(),
                        })?;
                        items
                            .iter()
                            .map(ScenarioSpec::from_json)
                            .collect::<Result<Vec<_>, _>>()?
                    }
                    None => Vec::new(),
                };
                Ok(Request::Run(RunRequest {
                    names,
                    specs,
                    csv,
                    deadline_ms,
                }))
            }
            ["stats"] => Ok(Request::Stats),
            ["health"] => Ok(Request::Health),
            ["shutdown"] => Ok(Request::Shutdown),
            [] => Err(Error::Protocol {
                reason: "empty request object".into(),
            }),
            [other, ..] => Err(Error::Protocol {
                reason: format!("unknown request `{other}`"),
            }),
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Run(run) => {
                let names: Vec<String> = run.names.iter().map(|n| jsonio::escape(n)).collect();
                let mut body = format!("{{\"names\": [{}], \"csv\": {}", names.join(", "), run.csv);
                if !run.specs.is_empty() {
                    let specs: Vec<String> = run.specs.iter().map(ScenarioSpec::to_json).collect();
                    body.push_str(&format!(", \"specs\": [{}]", specs.join(", ")));
                }
                if let Some(ms) = run.deadline_ms {
                    body.push_str(&format!(", \"deadline_ms\": {ms}"));
                }
                body.push('}');
                format!("{{\"run\": {body}}}")
            }
            Request::Stats => "{\"stats\": {}}".into(),
            Request::Health => "{\"health\": {}}".into(),
            Request::Shutdown => "{\"shutdown\": {}}".into(),
        }
    }
}

/// The per-connection greeting: schema identifier plus how many
/// artifacts the registry serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Number of artifacts in the daemon's registry.
    pub artifacts: usize,
}

/// One streamed per-artifact record: the wire form of a
/// [`JobRecord`], plus whether it was served from the cross-request
/// memo without executing.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordMsg {
    /// The artifact's name (`spec:<digest>` for scenario specs).
    pub name: String,
    /// `ok`, `drift`, `cancelled`, `panicked`, or `error`
    /// ([`JobRecord::status`]) — plus `quarantined`, synthesized by the
    /// daemon for a spec rejected from the panic quarantine without
    /// re-executing.
    pub status: String,
    /// Wall-clock milliseconds the job took (0 for memo hits and
    /// cancelled placeholders).
    pub duration_ms: f64,
    /// Whether this record was served from the artifact memo.
    pub memo: bool,
    /// Output size in bytes, on success.
    pub bytes: Option<u64>,
    /// `fnv1a:<16 hex>` output digest, on success — the same digest the
    /// crash-safe journal records.
    pub digest: Option<String>,
    /// The failure message, when the record is not `ok`.
    pub error: Option<String>,
}

impl RecordMsg {
    /// Builds the wire record for an executed (or memo-served) job.
    pub fn from_record(record: &JobRecord, memo: bool) -> Self {
        RecordMsg {
            name: record.name.clone(),
            status: record.status().to_owned(),
            duration_ms: record.duration.as_secs_f64() * 1e3,
            memo,
            bytes: record.outcome.as_ref().ok().map(|s| s.len() as u64),
            digest: record.digest(),
            error: record.outcome.as_ref().err().map(ToString::to_string),
        }
    }
}

/// The terminal line of a `run` response: outcome counts and run-level
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportMsg {
    /// Records that succeeded (executed or memo-served).
    pub ok: u64,
    /// Records that failed (error or drift).
    pub failures: u64,
    /// Records cancelled before starting (deadline expiry).
    pub cancelled: u64,
    /// Records served from the artifact memo without executing.
    pub memo_hits: u64,
    /// Wall-clock milliseconds for the whole request.
    pub total_ms: f64,
    /// Whether the request's deadline cancelled the run.
    pub interrupted: bool,
}

/// The daemon's lifetime counters and cache statistics, answering a
/// `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsMsg {
    /// Requests accepted for execution (admitted past the gate).
    pub accepted: u64,
    /// Requests fully served (report line written).
    pub served: u64,
    /// Records served from the artifact memo.
    pub memo_hits: u64,
    /// Requests whose deadline cancelled the run.
    pub cancelled: u64,
    /// Requests rejected with `busy` by admission control.
    pub rejected: u64,
    /// Requests shed with `overloaded` (queue wait past the budget).
    pub overloaded: u64,
    /// Connections turned away at the max-connections gate.
    pub conn_rejected: u64,
    /// Record writes abandoned at the per-connection write deadline.
    pub write_timeouts: u64,
    /// Malformed request lines answered with a protocol error.
    pub protocol_errors: u64,
    /// Scenario specs rejected at validation with `invalid_spec`.
    pub invalid_specs: u64,
    /// Requests rejected by the static cost gate with `too_expensive`.
    pub too_expensive: u64,
    /// Spec evaluations that panicked (caught, reported `panicked`).
    pub panicked: u64,
    /// Spec records answered straight from the panic quarantine.
    pub quarantined: u64,
    /// Spec digests currently held in the panic quarantine.
    pub quarantine_entries: u64,
    /// Entries currently resident in the artifact memo.
    pub memo_entries: u64,
    /// Approximate bytes resident in the artifact memo.
    pub memo_bytes: u64,
    /// Memo entries evicted by the entry/byte caps.
    pub memo_evictions: u64,
}

/// The supervision snapshot answering a `health` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthMsg {
    /// Whether the daemon considers itself able to make progress:
    /// false once shutdown begins or while the oldest inflight request
    /// has been executing for at least the daemon's `--watchdog-ms`
    /// threshold. Computed at each read, so it recovers as soon as that
    /// request releases its admission slot.
    pub ready: bool,
    /// Requests currently executing.
    pub inflight: u64,
    /// The daemon's `max_inflight` setting.
    pub capacity: u64,
    /// Milliseconds the oldest inflight request has been executing
    /// (0 when idle) — the signal `ready` compares with the threshold.
    pub oldest_inflight_ms: u64,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Entries currently resident in the artifact memo.
    pub memo_entries: u64,
    /// Approximate bytes resident in the artifact memo.
    pub memo_bytes: u64,
    /// Whether a memo spill file is live (false when unconfigured or
    /// demoted to memory-only by a disk failure).
    pub spill_active: bool,
    /// Requests shed with `overloaded` over the daemon's lifetime.
    pub shed: u64,
    /// Spec digests currently held in the panic quarantine (occupancy
    /// against `--quarantine-max`).
    pub quarantine_entries: u64,
}

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The per-connection greeting.
    Hello(Hello),
    /// A streamed per-artifact record.
    Record(RecordMsg),
    /// The terminal line of a `run` response.
    Report(ReportMsg),
    /// The answer to a `stats` request.
    Stats(StatsMsg),
    /// The answer to a `health` request.
    Health(HealthMsg),
    /// Admission control rejected the request: the queue is full.
    Busy {
        /// Requests currently executing.
        inflight: u64,
        /// The daemon's `max_inflight` setting.
        capacity: u64,
    },
    /// The request queued but its admission wait exceeded the daemon's
    /// shed budget — the saturated-daemon signal, distinct from
    /// [`Response::Busy`]'s full-queue rejection.
    Overloaded {
        /// Milliseconds the request waited before being shed.
        waited_ms: u64,
        /// The daemon's configured shed budget in milliseconds.
        budget_ms: u64,
    },
    /// The request's summed spec cost estimate exceeds the daemon's
    /// `--max-spec-cost` budget; rejected before any work, admission,
    /// or memoization happened. The connection stays open.
    TooExpensive {
        /// The request's static work-unit estimate
        /// ([`ScenarioSpec::cost`] summed over its specs).
        estimate: u64,
        /// The daemon's configured budget in the same units.
        budget: u64,
    },
    /// A scenario spec in the request failed validation; the offending
    /// field is named so the client can fix it. The connection stays
    /// open.
    InvalidSpec {
        /// The offending spec field (dotted path), from
        /// [`Error::InvalidSpec`].
        field: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// The request line was malformed; the connection stays open.
    Protocol {
        /// What was malformed, from [`Error::Protocol`].
        reason: String,
    },
    /// Acknowledges a `shutdown` request.
    Shutdown,
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Hello(h) => format!(
                "{{\"hello\": {}, \"artifacts\": {}}}",
                jsonio::escape(SCHEMA),
                h.artifacts
            ),
            Response::Record(r) => {
                let mut body = format!(
                    "{{\"name\": {}, \"status\": {}, \"duration_ms\": {:.3}, \"memo\": {}",
                    jsonio::escape(&r.name),
                    jsonio::escape(&r.status),
                    r.duration_ms,
                    r.memo
                );
                if let Some(bytes) = r.bytes {
                    body.push_str(&format!(", \"bytes\": {bytes}"));
                }
                if let Some(digest) = &r.digest {
                    body.push_str(&format!(", \"digest\": {}", jsonio::escape(digest)));
                }
                if let Some(error) = &r.error {
                    body.push_str(&format!(", \"error\": {}", jsonio::escape(error)));
                }
                body.push('}');
                format!("{{\"record\": {body}}}")
            }
            Response::Report(r) => format!(
                "{{\"report\": {{\"ok\": {}, \"failures\": {}, \"cancelled\": {}, \
                 \"memo_hits\": {}, \"total_ms\": {:.3}, \"interrupted\": {}}}}}",
                r.ok, r.failures, r.cancelled, r.memo_hits, r.total_ms, r.interrupted
            ),
            Response::Stats(s) => format!(
                "{{\"stats\": {{\"accepted\": {}, \"served\": {}, \"memo_hits\": {}, \
                 \"cancelled\": {}, \"rejected\": {}, \"overloaded\": {}, \
                 \"conn_rejected\": {}, \"write_timeouts\": {}, \"protocol_errors\": {}, \
                 \"invalid_specs\": {}, \"too_expensive\": {}, \"panicked\": {}, \
                 \"quarantined\": {}, \"quarantine_entries\": {}, \
                 \"memo_entries\": {}, \"memo_bytes\": {}, \"memo_evictions\": {}}}}}",
                s.accepted,
                s.served,
                s.memo_hits,
                s.cancelled,
                s.rejected,
                s.overloaded,
                s.conn_rejected,
                s.write_timeouts,
                s.protocol_errors,
                s.invalid_specs,
                s.too_expensive,
                s.panicked,
                s.quarantined,
                s.quarantine_entries,
                s.memo_entries,
                s.memo_bytes,
                s.memo_evictions
            ),
            Response::Health(h) => format!(
                "{{\"health\": {{\"ready\": {}, \"inflight\": {}, \"capacity\": {}, \
                 \"oldest_inflight_ms\": {}, \"uptime_ms\": {}, \"memo_entries\": {}, \
                 \"memo_bytes\": {}, \"spill_active\": {}, \"shed\": {}, \
                 \"quarantine_entries\": {}}}}}",
                h.ready,
                h.inflight,
                h.capacity,
                h.oldest_inflight_ms,
                h.uptime_ms,
                h.memo_entries,
                h.memo_bytes,
                h.spill_active,
                h.shed,
                h.quarantine_entries
            ),
            Response::Busy { inflight, capacity } => {
                format!("{{\"busy\": {{\"inflight\": {inflight}, \"capacity\": {capacity}}}}}")
            }
            Response::Overloaded {
                waited_ms,
                budget_ms,
            } => format!(
                "{{\"overloaded\": {{\"waited_ms\": {waited_ms}, \"budget_ms\": {budget_ms}}}}}"
            ),
            Response::TooExpensive { estimate, budget } => {
                format!("{{\"too_expensive\": {{\"estimate\": {estimate}, \"budget\": {budget}}}}}")
            }
            Response::InvalidSpec { field, reason } => format!(
                "{{\"error\": {{\"kind\": \"invalid_spec\", \"field\": {}, \"reason\": {}}}}}",
                jsonio::escape(field),
                jsonio::escape(reason)
            ),
            Response::Protocol { reason } => format!(
                "{{\"error\": {{\"kind\": \"protocol\", \"reason\": {}}}}}",
                jsonio::escape(reason)
            ),
            Response::Shutdown => "{\"shutdown\": true}".into(),
        }
    }

    /// Parses one response line — the client half of the protocol.
    pub fn parse(line: &str) -> Result<Self, Error> {
        let value = jsonio::parse(line).map_err(|reason| Error::Protocol { reason })?;
        let obj = value.as_obj().ok_or_else(|| Error::Protocol {
            reason: "response must be a JSON object".into(),
        })?;
        if let Some(schema) = obj.get("hello") {
            if schema.as_str() != Some(SCHEMA) {
                return Err(Error::Protocol {
                    reason: format!("unsupported schema {schema:?} (want `{SCHEMA}`)"),
                });
            }
            let artifacts = value.get("artifacts").and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Hello(Hello {
                artifacts: artifacts as usize,
            }));
        }
        if let Some(record) = obj.get("record") {
            let field = |key: &str| record.get(key).cloned();
            let name = field("name")
                .as_ref()
                .and_then(Json::as_str)
                .map(str::to_owned);
            let status = field("status")
                .as_ref()
                .and_then(Json::as_str)
                .map(str::to_owned);
            let (Some(name), Some(status)) = (name, status) else {
                return Err(Error::Protocol {
                    reason: "record needs string `name` and `status`".into(),
                });
            };
            return Ok(Response::Record(RecordMsg {
                name,
                status,
                duration_ms: field("duration_ms")
                    .as_ref()
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                memo: field("memo")
                    .as_ref()
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                bytes: field("bytes").as_ref().and_then(Json::as_u64),
                digest: field("digest")
                    .as_ref()
                    .and_then(Json::as_str)
                    .map(str::to_owned),
                error: field("error")
                    .as_ref()
                    .and_then(Json::as_str)
                    .map(str::to_owned),
            }));
        }
        if let Some(report) = obj.get("report") {
            let count = |key: &str| report.get(key).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Report(ReportMsg {
                ok: count("ok"),
                failures: count("failures"),
                cancelled: count("cancelled"),
                memo_hits: count("memo_hits"),
                total_ms: report.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0),
                interrupted: report
                    .get("interrupted")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            }));
        }
        if let Some(stats) = obj.get("stats") {
            let count = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Stats(StatsMsg {
                accepted: count("accepted"),
                served: count("served"),
                memo_hits: count("memo_hits"),
                cancelled: count("cancelled"),
                rejected: count("rejected"),
                overloaded: count("overloaded"),
                conn_rejected: count("conn_rejected"),
                write_timeouts: count("write_timeouts"),
                protocol_errors: count("protocol_errors"),
                invalid_specs: count("invalid_specs"),
                too_expensive: count("too_expensive"),
                panicked: count("panicked"),
                quarantined: count("quarantined"),
                quarantine_entries: count("quarantine_entries"),
                memo_entries: count("memo_entries"),
                memo_bytes: count("memo_bytes"),
                memo_evictions: count("memo_evictions"),
            }));
        }
        if let Some(health) = obj.get("health") {
            let count = |key: &str| health.get(key).and_then(Json::as_u64).unwrap_or(0);
            let flag = |key: &str| health.get(key).and_then(Json::as_bool).unwrap_or(false);
            return Ok(Response::Health(HealthMsg {
                ready: flag("ready"),
                inflight: count("inflight"),
                capacity: count("capacity"),
                oldest_inflight_ms: count("oldest_inflight_ms"),
                uptime_ms: count("uptime_ms"),
                memo_entries: count("memo_entries"),
                memo_bytes: count("memo_bytes"),
                spill_active: flag("spill_active"),
                shed: count("shed"),
                quarantine_entries: count("quarantine_entries"),
            }));
        }
        if let Some(busy) = obj.get("busy") {
            let count = |key: &str| busy.get(key).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Busy {
                inflight: count("inflight"),
                capacity: count("capacity"),
            });
        }
        if let Some(overloaded) = obj.get("overloaded") {
            let count = |key: &str| overloaded.get(key).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Overloaded {
                waited_ms: count("waited_ms"),
                budget_ms: count("budget_ms"),
            });
        }
        if let Some(expensive) = obj.get("too_expensive") {
            let count = |key: &str| expensive.get(key).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::TooExpensive {
                estimate: count("estimate"),
                budget: count("budget"),
            });
        }
        if let Some(error) = obj.get("error") {
            let reason = error
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_owned();
            if error.get("kind").and_then(Json::as_str) == Some("invalid_spec") {
                return Ok(Response::InvalidSpec {
                    field: error
                        .get("field")
                        .and_then(Json::as_str)
                        .unwrap_or("spec")
                        .to_owned(),
                    reason,
                });
            }
            return Ok(Response::Protocol { reason });
        }
        if obj.get("shutdown").is_some() {
            return Ok(Response::Shutdown);
        }
        Err(Error::Protocol {
            reason: "unknown response shape".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_request_round_trips() {
        let req = Request::Run(RunRequest {
            names: vec!["fig5".into(), "table2".into()],
            specs: Vec::new(),
            csv: true,
            deadline_ms: Some(250),
        });
        let line = req.to_json();
        assert!(Request::parse(&line).is_ok_and(|parsed| parsed == req));
        // Omitted optional fields default.
        let req = Request::parse(r#"{"run": {"names": ["fig5"]}}"#).unwrap();
        assert_eq!(
            req,
            Request::Run(RunRequest {
                names: vec!["fig5".into()],
                specs: Vec::new(),
                csv: false,
                deadline_ms: None,
            })
        );
    }

    #[test]
    fn spec_requests_round_trip() {
        let line = r#"{"run": {"names": ["fig5"], "csv": true,
            "specs": [{"node": 70}, {"node": 100, "grid": {"resolution": 33}}]}}"#;
        let Ok(Request::Run(run)) = Request::parse(line) else {
            panic!("spec request parses");
        };
        assert_eq!(run.specs.len(), 2);
        assert_eq!(run.specs[1].grid.map(|g| g.resolution), Some(33));
        let rendered = Request::to_json(&Request::Run(run.clone()));
        assert!(
            Request::parse(&rendered).is_ok_and(|round| round == Request::Run(run)),
            "{rendered}"
        );
    }

    #[test]
    fn malformed_specs_are_invalid_spec_not_protocol() {
        let cases = [
            (r#"{"run": {"specs": [{"node": 90}]}}"#, "node"),
            (
                r#"{"run": {"specs": [{"node": 70, "grid": {"resolution": 2000}}]}}"#,
                "grid.resolution",
            ),
            (
                r#"{"run": {"specs": [{"node": 70, "activty": 0.1}]}}"#,
                "activty",
            ),
        ];
        for (line, field) in cases {
            match Request::parse(line) {
                Err(Error::InvalidSpec { field: f, .. }) => assert_eq!(f, field, "{line}"),
                other => panic!("{line} -> {other:?}"),
            }
        }
        // A non-array `specs` is a protocol-shape error, not a spec error.
        assert!(matches!(
            Request::parse(r#"{"run": {"specs": {"node": 70}}}"#),
            Err(Error::Protocol { .. })
        ));
    }

    #[test]
    fn unknown_run_keys_are_rejected_not_ignored() {
        // The original bug: a typo'd `deadlne_ms` was silently dropped,
        // turning a bounded request into an unbounded one.
        match Request::parse(r#"{"run": {"names": ["fig5"], "deadlne_ms": 100}}"#) {
            Err(Error::Protocol { reason }) => {
                assert!(reason.contains("`deadlne_ms`"), "{reason}");
                assert!(
                    reason.contains("deadline_ms"),
                    "lists allowed keys: {reason}"
                );
            }
            other => panic!("typo'd key must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn stats_health_and_shutdown_round_trip() {
        for req in [Request::Stats, Request::Health, Request::Shutdown] {
            assert_eq!(Request::parse(&req.to_json()), Ok(req));
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases = [
            ("{\"runn\": {}}", "unknown request `runn`"),
            ("[1, 2]", "must be a JSON object"),
            ("{\"run\": {\"names\": \"fig5\"}}", "array of strings"),
            ("{\"run\": {\"names\": [1]}}", "array of strings"),
            ("{\"run\": {\"csv\": \"yes\"}}", "boolean"),
            ("{\"run\": {\"deadline_ms\": -5}}", "non-negative"),
            ("{}", "empty request"),
            ("not json", "unknown literal"),
        ];
        for (line, needle) in cases {
            match Request::parse(line) {
                Err(Error::Protocol { reason }) => {
                    assert!(reason.contains(needle), "`{line}` -> {reason}");
                }
                other => panic!("`{line}` -> {other:?}"),
            }
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_foreign_schema() {
        let line = Response::Hello(Hello { artifacts: 17 }).to_json();
        assert_eq!(
            Response::parse(&line),
            Ok(Response::Hello(Hello { artifacts: 17 }))
        );
        assert!(matches!(
            Response::parse(r#"{"hello": "otherproto/v9"}"#),
            Err(Error::Protocol { .. })
        ));
    }

    #[test]
    fn record_wire_form_mirrors_job_record() {
        let record = JobRecord {
            name: "fig5".into(),
            outcome: Ok("v,drop\n0,1\n".into()),
            duration: Duration::from_millis(12),
            worker: 1,
            attempts: 1,
            timed_out: false,
        };
        let msg = RecordMsg::from_record(&record, true);
        assert_eq!(msg.status, "ok");
        assert!(msg.memo);
        assert_eq!(msg.bytes, Some(11));
        assert_eq!(msg.digest, record.digest());
        let parsed = Response::parse(&Response::Record(msg.clone()).to_json());
        assert_eq!(parsed, Ok(Response::Record(msg)));

        let failed = JobRecord {
            name: "nope".into(),
            outcome: Err(Error::UnknownArtifact {
                name: "nope".into(),
            }),
            duration: Duration::ZERO,
            worker: 0,
            attempts: 1,
            timed_out: false,
        };
        let msg = RecordMsg::from_record(&failed, false);
        assert_eq!(msg.status, "error");
        assert!(msg.error.as_deref().unwrap_or("").contains("nope"));
        assert_eq!(msg.bytes, None);
    }

    #[test]
    fn report_stats_busy_round_trip() {
        let report = Response::Report(ReportMsg {
            ok: 3,
            failures: 1,
            cancelled: 2,
            memo_hits: 1,
            total_ms: 42.5,
            interrupted: true,
        });
        assert_eq!(Response::parse(&report.to_json()), Ok(report));

        let stats = Response::Stats(StatsMsg {
            accepted: 10,
            served: 9,
            memo_hits: 4,
            cancelled: 1,
            rejected: 2,
            overloaded: 11,
            conn_rejected: 12,
            write_timeouts: 13,
            protocol_errors: 3,
            invalid_specs: 21,
            too_expensive: 22,
            panicked: 23,
            quarantined: 24,
            quarantine_entries: 25,
            memo_entries: 5,
            memo_bytes: 8192,
            memo_evictions: 14,
        });
        assert_eq!(Response::parse(&stats.to_json()), Ok(stats));

        let busy = Response::Busy {
            inflight: 2,
            capacity: 2,
        };
        assert_eq!(Response::parse(&busy.to_json()), Ok(busy));

        let overloaded = Response::Overloaded {
            waited_ms: 120,
            budget_ms: 100,
        };
        assert_eq!(Response::parse(&overloaded.to_json()), Ok(overloaded));

        let health = Response::Health(HealthMsg {
            ready: true,
            inflight: 1,
            capacity: 2,
            oldest_inflight_ms: 35,
            uptime_ms: 9000,
            memo_entries: 5,
            memo_bytes: 4096,
            spill_active: true,
            shed: 3,
            quarantine_entries: 4,
        });
        assert_eq!(Response::parse(&health.to_json()), Ok(health));

        let expensive = Response::TooExpensive {
            estimate: 200_050,
            budget: 100_000,
        };
        assert_eq!(Response::parse(&expensive.to_json()), Ok(expensive));

        let invalid = Response::InvalidSpec {
            field: "grid.resolution".into(),
            reason: "must be an integer in [5, 1025], got 2000".into(),
        };
        assert_eq!(Response::parse(&invalid.to_json()), Ok(invalid));

        let err = Response::Protocol {
            reason: "unknown request `runn`".into(),
        };
        assert_eq!(Response::parse(&err.to_json()), Ok(err));

        assert_eq!(
            Response::parse("{\"shutdown\": true}"),
            Ok(Response::Shutdown)
        );
        assert!(Response::parse("{\"mystery\": 1}").is_err());
    }
}

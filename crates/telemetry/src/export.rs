//! Exporter: Chrome `trace_event` JSON.
//!
//! The exporter renders [`Collector::records`] — the deterministic span
//! order — so two runs of the same workload produce structurally
//! identical output, differing only in the timing numbers.

use crate::collector::{Collector, Summary};
use std::fmt::Write as _;

/// Escapes a string as a JSON string literal, quotes included.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (finite values only; NaN/inf are
/// clamped to 0 because JSON has no representation for them).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable, compact form; `{:e}` keeps tiny residuals
        // readable (1.3e-13 instead of 0.00000...).
        if v == 0.0 || (1e-3..1e15).contains(&v.abs()) {
            format!("{v:.3}")
        } else {
            format!("{v:e}")
        }
    } else {
        "0".to_string()
    }
}

impl Collector {
    /// Exports every span as a Chrome `trace_event` JSON document —
    /// "X" (complete) events with microsecond timestamps — loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Counters and
    /// value statistics ride along under `otherData`.
    ///
    /// # Examples
    ///
    /// ```
    /// use np_telemetry::{Collector, install, span};
    /// # if cfg!(feature = "off") { return; }
    ///
    /// let c = Collector::new();
    /// {
    ///     let _g = install(&c);
    ///     let _s = span("solve");
    /// }
    /// let trace = c.chrome_trace();
    /// assert!(trace.starts_with('{'));
    /// assert!(trace.contains("\"ph\": \"X\""));
    /// assert!(trace.contains("\"name\": \"solve\""));
    /// ```
    pub fn chrome_trace(&self) -> String {
        let records = self.records();
        let summary = self.summary();
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        for (i, r) in records.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"cat\": \"span\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"depth\": {}}}}}",
                json_string(&r.name),
                r.start_us,
                r.dur_us,
                r.tid,
                r.depth
            );
            if i + 1 < records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"otherData\": {\n    \"counters\": {");
        for (i, (name, total)) in summary.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n      {}: {}", json_string(name), total);
        }
        if !summary.counters.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("},\n    \"values\": {");
        for (i, (name, stats)) in summary.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {}: {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                json_string(name),
                stats.count,
                json_f64(stats.min),
                json_f64(stats.max),
                json_f64(stats.mean())
            );
        }
        if !summary.values.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

impl Summary {
    /// Renders the summary as a JSON object (no trailing newline), for
    /// embedding as the `telemetry` section of a larger report. Every
    /// line is prefixed with `indent` spaces except the first.
    ///
    /// # Examples
    ///
    /// ```
    /// use np_telemetry::{Collector, install, counter};
    /// # if cfg!(feature = "off") { return; }
    ///
    /// let c = Collector::new();
    /// {
    ///     let _g = install(&c);
    ///     counter("engine.jobs", 17);
    /// }
    /// let json = c.summary().to_json(2);
    /// assert!(json.starts_with('{'));
    /// assert!(json.contains("\"engine.jobs\": 17"));
    /// ```
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::from("{\n");
        let _ = write!(out, "{pad}  \"counters\": {{");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{pad}    {}: {}", json_string(name), total);
        }
        if !self.counters.is_empty() {
            let _ = write!(out, "\n{pad}  ");
        }
        out.push_str("},\n");
        let _ = write!(out, "{pad}  \"values\": {{");
        for (i, (name, stats)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{pad}    {}: {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                json_string(name),
                stats.count,
                json_f64(stats.min),
                json_f64(stats.max),
                json_f64(stats.mean())
            );
        }
        if !self.values.is_empty() {
            let _ = write!(out, "\n{pad}  ");
        }
        out.push_str("},\n");
        let _ = write!(out, "{pad}  \"spans\": {{");
        for (i, (name, stats)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{pad}    {}: {{\"count\": {}, \"total_ms\": {:.3}}}",
                json_string(name),
                stats.count,
                stats.total_us as f64 / 1e3
            );
        }
        if !self.spans.is_empty() {
            let _ = write!(out, "\n{pad}  ");
        }
        let _ = write!(out, "}}\n{pad}}}");
        out
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;
    use crate::{counter, install, span, value};

    fn sample() -> Collector {
        let c = Collector::new();
        {
            let _g = install(&c);
            let _outer = span("outer");
            {
                let _inner = span("inner \"quoted\"");
                counter("iters", 42);
                value("residual", 1.25e-13);
            }
        }
        c
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_events() {
        let trace = sample().chrome_trace();
        assert_eq!(
            trace.matches('{').count(),
            trace.matches('}').count(),
            "balanced braces:\n{trace}"
        );
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\": \"outer\""));
        assert!(trace.contains("\\\"quoted\\\""), "escaping: {trace}");
        assert!(trace.contains("\"iters\": 42"));
        assert!(trace.contains("1.25e-13"));
    }

    #[test]
    fn exports_are_deterministic_modulo_timestamps() {
        // Replaces each timing number — a digit run right after `"ts": `
        // or `"dur": ` — with one '#', whatever its magnitude (9 us vs
        // 12 us). Every other digit (counter totals, value stats, tid,
        // depth) must match exactly.
        let strip = |s: &str| -> String {
            let mut out = String::with_capacity(s.len());
            let mut rest = s;
            while let Some(i) = rest.find(|c: char| c.is_ascii_digit()) {
                out.push_str(&rest[..i]);
                let tail = &rest[i..];
                let n = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                let (run, next) = tail.split_at(n);
                let timing = ["\"ts\": ", "\"dur\": "].iter().any(|p| out.ends_with(p));
                out.push_str(if timing { "#" } else { run });
                rest = next;
            }
            out.push_str(rest);
            out
        };
        let a = strip(&sample().chrome_trace());
        let b = strip(&sample().chrome_trace());
        assert_eq!(a, b);
        assert!(a.contains("\"ts\": #, \"dur\": #"), "{a}");
        assert!(a.contains("\"iters\": 42"), "{a}");
    }

    #[test]
    fn summary_json_handles_empty_collector() {
        let json = Collector::new().summary().to_json(0);
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"values\": {}"));
        assert!(json.contains("\"spans\": {}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_f64_forms() {
        assert_eq!(json_f64(0.0), "0.000");
        assert_eq!(json_f64(12.5), "12.500");
        assert_eq!(json_f64(1.5e-9), "1.5e-9");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }
}

//! Exporters: Chrome `trace_event` JSON, line-delimited JSON events, and a
//! human text summary.
//!
//! The Chrome format is the subset Perfetto and `chrome://tracing` load
//! without configuration: a single object `{"traceEvents": [...]}` whose
//! events are all complete (`"ph": "X"`) spans plus `"M"` thread-name
//! metadata. Using `X` events only means the file is well-formed by
//! construction — there are no `B`/`E` pairs to unbalance.

use crate::{Event, FieldValue, ObsReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// `s` as a JSON string literal: escaped and quoted.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Named counters as one flat JSON object, `{"name":value,...}`, in the
/// given order — the serde-free `to_json` of the engines' counter structs.
pub fn json_counters(entries: &[(&str, u64)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

pub(crate) fn json_field_value(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::I64(n) => n.to_string(),
        FieldValue::F64(n) => {
            if n.is_finite() {
                format!("{n}")
            } else {
                "null".into()
            }
        }
        FieldValue::Str(s) => json_string(s),
    }
}

fn json_args(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{}",
            if i > 0 { "," } else { "" },
            json_escape(k),
            json_field_value(v)
        );
    }
    out.push('}');
    out
}

/// Render events as Chrome `trace_event` JSON. Every span becomes one
/// complete (`ph: "X"`) event; each distinct tid additionally gets a
/// `thread_name` metadata event so Perfetto labels the worker tracks.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| (e.tid, e.start_us, e.seq));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut seen_tids: BTreeMap<u32, ()> = BTreeMap::new();
    for e in &sorted {
        seen_tids.entry(e.tid).or_insert(());
    }
    for &tid in seen_tids.keys() {
        let name = if tid == 0 {
            "driver".to_string()
        } else {
            format!("worker-{tid}")
        };
        let _ = write!(
            out,
            "{}{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}",
            if first { "" } else { "," }
        );
        first = false;
    }
    for e in sorted {
        let _ = write!(
            out,
            "{}{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"args\":{}}}",
            if first { "" } else { "," },
            e.tid,
            e.start_us,
            e.dur_us,
            json_escape(e.name),
            json_args(&e.fields)
        );
        first = false;
    }
    out.push_str("]}");
    out
}

/// Render a report as line-delimited JSON: one `{"type":"span",...}` object
/// per event, then one line per counter, gauge, and histogram.
pub fn json_lines(report: &ObsReport) -> String {
    let mut out = String::new();
    for e in &report.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":\"{}\",\"tid\":{},\"depth\":{},\
             \"start_us\":{},\"dur_us\":{},\"fields\":{}}}",
            json_escape(e.name),
            e.tid,
            e.depth,
            e.start_us,
            e.dur_us,
            json_args(&e.fields)
        );
    }
    for (name, v) in &report.metrics.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, v) in &report.metrics.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, h) in &report.metrics.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{}}}",
            json_escape(name),
            h.count,
            h.sum,
            if h.count == 0 { 0 } else { h.min },
            h.max
        );
    }
    out
}

pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Aggregated per-span-name statistics used by the text summary.
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Render the human per-phase summary printed under `--stats`: spans
/// aggregated by name, then counters, gauges, and histograms.
pub fn text_summary(report: &ObsReport) -> String {
    let mut out = String::new();
    if !report.events.is_empty() {
        let mut aggs: BTreeMap<&str, SpanAgg> = BTreeMap::new();
        for e in &report.events {
            let a = aggs.entry(e.name).or_insert(SpanAgg {
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            a.count += 1;
            a.total_us += e.dur_us;
            a.max_us = a.max_us.max(e.dur_us);
        }
        let _ = writeln!(out, "== span summary (wall clock) ==");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total", "mean", "max"
        );
        // Order by total time, heaviest first.
        let mut rows: Vec<(&str, SpanAgg)> = aggs.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        for (name, a) in rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                name,
                a.count,
                fmt_us(a.total_us),
                fmt_us(a.total_us / a.count.max(1)),
                fmt_us(a.max_us)
            );
        }
    }
    let m = &report.metrics;
    if !m.counters.is_empty() {
        let _ = writeln!(out, "== counters ==");
        for (name, v) in &m.counters {
            let _ = writeln!(out, "  {name:<40} {v:>12}");
        }
    }
    if !m.gauges.is_empty() {
        let _ = writeln!(out, "== gauges (high-water) ==");
        for (name, v) in &m.gauges {
            let _ = writeln!(out, "  {name:<40} {v:>12}");
        }
    }
    if !m.histograms.is_empty() {
        let _ = writeln!(out, "== histograms ==");
        for (name, h) in &m.histograms {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {name:<40} n={:<8} min={:<8} mean={:<10.1} max={}",
                h.count,
                h.min,
                h.mean().unwrap_or(0.0),
                h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::{span, Obs, ObsConfig};

    fn sample_report() -> ObsReport {
        let obs = Obs::enabled(ObsConfig::default());
        {
            let mut g = span!(obs, "outer", level = 1u64, tag = "a\"b");
            {
                let _i = span!(obs, "inner");
            }
            g.set("new_states", 4u64);
        }
        obs.counter_add("abs.states_expanded", 12);
        obs.gauge_max("abs.max_frontier", 6);
        obs.histogram("abs.frontier_states", 6);
        obs.finish().unwrap()
    }

    #[test]
    fn chrome_trace_is_x_phase_only() {
        let report = sample_report();
        let trace = chrome_trace(&report.events);
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(!trace.contains("\"ph\":\"B\""));
        assert!(!trace.contains("\"ph\":\"E\""));
        // Quotes in field values are escaped.
        assert!(trace.contains("a\\\"b"));
        assert!(trace.contains("\"name\":\"driver\""));
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let report = sample_report();
        let lines = json_lines(&report);
        for line in lines.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines.contains("\"type\":\"span\""));
        assert!(lines.contains("\"type\":\"counter\""));
        assert!(lines.contains("\"type\":\"gauge\""));
        assert!(lines.contains("\"type\":\"histogram\""));
    }

    #[test]
    fn text_summary_mentions_everything() {
        let report = sample_report();
        let text = text_summary(&report);
        assert!(text.contains("span summary"));
        assert!(text.contains("outer"));
        assert!(text.contains("inner"));
        assert!(text.contains("abs.states_expanded"));
        assert!(text.contains("abs.max_frontier"));
        assert!(text.contains("abs.frontier_states"));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(json_escape("a\"\\\n\t\u{1}b"), "a\\\"\\\\\\n\\t\\u0001b");
    }

    #[test]
    fn empty_report_renders_empty() {
        let report = ObsReport {
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        assert_eq!(
            chrome_trace(&report.events),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        assert_eq!(json_lines(&report), "");
        assert_eq!(text_summary(&report), "");
    }
}

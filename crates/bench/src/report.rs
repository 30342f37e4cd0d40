//! Perf baseline comparison: parse committed `BENCH_*.json` artifacts,
//! extract the comparable metrics, and gate the current run against a
//! baseline directory.
//!
//! Std-only on purpose (the workspace builds offline): the JSON reader is
//! a small recursive-descent parser over the subset the bench artifacts
//! use — objects, arrays, strings, numbers, booleans, `null`. It accepts
//! the full JSON grammar for those forms, so hand-edited baselines parse
//! too.
//!
//! The metric model is deliberately coarse: every comparable number is a
//! flat key (`e2e/flush_ladder@8000/search_secs`,
//! `scale/service_chain(16)/b500000/states_per_sec`) with a
//! [`Kind`] saying which direction is bad. Timings regress when
//! `current / baseline` exceeds the slowdown threshold, throughputs when
//! `baseline / current` does, and sizes (bytes/state) when growth exceeds
//! its own, tighter threshold. Sub-10ms timings are reported but never
//! gated — at that scale the scheduler owns the ratio, not the code.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed JSON value (the artifact subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field access; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array, empty otherwise.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Numeric content, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String content, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document. The whole input must be one value (trailing
/// whitespace allowed).
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the longest escape-free run in one step.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

/// Which direction is a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock seconds: larger is worse, gated by `max_slowdown`.
    Time,
    /// Work per second: smaller is worse, gated by `max_slowdown`.
    Throughput,
    /// Bytes (per state): larger is worse, gated by `max_growth`.
    Size,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Time => "time",
            Kind::Throughput => "throughput",
            Kind::Size => "size",
        }
    }
}

/// One comparable number out of a bench artifact.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub kind: Kind,
}

/// Timings below this are scheduler noise: reported, never gated.
pub const GATE_FLOOR_SECS: f64 = 0.010;

/// Flatten one parsed `BENCH_*.json` document into comparable metrics,
/// keyed so the same extraction on a baseline and a current artifact
/// yields the same keys. Unknown document shapes flatten to nothing.
pub fn extract(doc: &Value) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let bench = doc.get("benchmark").and_then(Value::as_str).unwrap_or("");
    let mut put = |key: String, value: Option<f64>, kind: Kind| {
        if let Some(v) = value.filter(|v| v.is_finite() && *v > 0.0) {
            out.insert(key, Metric { value: v, kind });
        }
    };
    match bench {
        "e2e" => {
            for row in doc.get("rows").map(Value::items).unwrap_or(&[]) {
                let name = row.get("name").and_then(Value::as_str).unwrap_or("?");
                for layer in ["wall", "parse", "search", "verdict"] {
                    let field = format!("{layer}_secs");
                    put(
                        format!("e2e/{name}/{field}"),
                        row.get(&field).and_then(Value::as_f64),
                        Kind::Time,
                    );
                }
            }
        }
        "compact-store-scale" => {
            for w in doc.get("workloads").map(Value::items).unwrap_or(&[]) {
                let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
                for r in w.get("runs").map(Value::items).unwrap_or(&[]) {
                    let budget = r.get("budget").and_then(Value::as_f64).unwrap_or(0.0);
                    put(
                        format!("scale/{name}/b{budget}/states_per_sec"),
                        r.get("states_per_sec").and_then(Value::as_f64),
                        Kind::Throughput,
                    );
                    put(
                        format!("scale/{name}/b{budget}/bytes_per_state"),
                        r.get("bytes_per_state").and_then(Value::as_f64),
                        Kind::Size,
                    );
                }
            }
        }
        _ => {}
    }
    out
}

/// Regression thresholds, expressed as worst tolerated factors.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Worst tolerated `current/baseline` for timings (and
    /// `baseline/current` for throughputs).
    pub max_slowdown: f64,
    /// Worst tolerated `current/baseline` for sizes.
    pub max_growth: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_slowdown: 1.75,
            max_growth: 1.5,
        }
    }
}

/// One baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    pub key: String,
    pub kind: Kind,
    pub baseline: f64,
    pub current: f64,
    /// The regression factor, oriented so that > 1 is always worse.
    pub factor: f64,
    /// Was this metric eligible for gating (above the noise floor)?
    pub gated: bool,
    /// Did it trip its threshold?
    pub regressed: bool,
}

/// Compare the intersection of two metric sets. Keys present on only one
/// side are skipped: workloads come and go, and a perf gate that fails on
/// a renamed workload gates nothing.
pub fn diff(
    baseline: &BTreeMap<String, Metric>,
    current: &BTreeMap<String, Metric>,
    thresholds: Thresholds,
) -> Vec<Delta> {
    let mut out = Vec::new();
    for (key, base) in baseline {
        let Some(cur) = current.get(key) else {
            continue;
        };
        let factor = match base.kind {
            Kind::Time | Kind::Size => cur.value / base.value,
            Kind::Throughput => base.value / cur.value,
        };
        let gated = match base.kind {
            // Both sides under the floor: the ratio is pure noise.
            Kind::Time => base.value.max(cur.value) >= GATE_FLOOR_SECS,
            Kind::Throughput | Kind::Size => true,
        };
        let limit = match base.kind {
            Kind::Time | Kind::Throughput => thresholds.max_slowdown,
            Kind::Size => thresholds.max_growth,
        };
        out.push(Delta {
            key: key.clone(),
            kind: base.kind,
            baseline: base.value,
            current: cur.value,
            factor,
            gated,
            regressed: gated && factor > limit,
        });
    }
    out
}

/// Render the comparison as the `BENCH_diff.json` artifact.
pub fn diff_json(deltas: &[Delta], thresholds: Thresholds, injected: Option<f64>) -> String {
    let regressions = deltas.iter().filter(|d| d.regressed).count();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"max_slowdown\": {:.3},", thresholds.max_slowdown);
    let _ = writeln!(json, "  \"max_growth\": {:.3},", thresholds.max_growth);
    let _ = writeln!(
        json,
        "  \"injected_slowdown\": {},",
        injected.map_or("null".into(), |f| format!("{f:.3}"))
    );
    let _ = writeln!(json, "  \"compared\": {},", deltas.len());
    let _ = writeln!(json, "  \"regressions\": {regressions},");
    let _ = writeln!(json, "  \"deltas\": [");
    for (i, d) in deltas.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"key\": \"{}\", \"kind\": \"{}\", \"baseline\": {:.6}, \
             \"current\": {:.6}, \"factor\": {:.4}, \"gated\": {}, \"regressed\": {}}}{}",
            d.key.replace('"', "'"),
            d.kind.name(),
            d.baseline,
            d.current,
            d.factor,
            d.gated,
            d.regressed,
            if i + 1 < deltas.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_artifact_shaped_json() {
        let doc = parse(
            r#"{
                "benchmark": "compact-store-scale",
                "workloads": [
                    {"name": "w\"x", "runs": [
                        {"budget": 100000, "states_per_sec": 7000.5,
                         "bytes_per_state": 120.0},
                        {"budget": 500000, "states_per_sec": 6500.0,
                         "bytes_per_state": 130.0}
                    ]}
                ],
                "extra": [null, true, false, -1.5e3]
            }"#,
        )
        .unwrap();
        let metrics = extract(&doc);
        assert_eq!(metrics.len(), 4);
        let k = "scale/w\"x/b100000/states_per_sec";
        assert_eq!(metrics[k].kind, Kind::Throughput);
        assert!((metrics[k].value - 7000.5).abs() < 1e-9);
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1, 2] junk").is_err());
    }

    #[test]
    fn extracts_every_artifact_family() {
        let e2e = parse(
            r#"{"benchmark": "e2e", "rows": [
                {"name": "r", "wall_secs": 0.5, "parse_secs": 0.001,
                 "search_secs": 0.4, "verdict_secs": 0.05, "driver_secs": 0.01,
                 "answer": {"verdict": true}},
                {"name": "s", "wall_secs": 0.2, "parse_secs": 0.0,
                 "search_secs": 0.1, "verdict_secs": 0.02}]}"#,
        )
        .unwrap();
        let metrics = extract(&e2e);
        // Driver time is reported, not gated; a zero never compares.
        assert_eq!(metrics.len(), 7);
        assert!(metrics.contains_key("e2e/r/wall_secs"));
        assert!(metrics.contains_key("e2e/r/verdict_secs"));
        assert!(!metrics.contains_key("e2e/r/driver_secs"));
        assert!(!metrics.contains_key("e2e/s/parse_secs"));

        // Other documents flatten to nothing.
        let retired = parse(
            r#"{"benchmark": "query-plans", "workloads": [
                {"name": "q", "plan_scan_secs": 0.5}]}"#,
        )
        .unwrap();
        assert!(extract(&retired).is_empty());
    }

    #[test]
    fn gates_trip_on_regression_and_respect_the_noise_floor() {
        let base = parse(
            r#"{"benchmark": "compact-store-scale", "workloads": [
                {"name": "w", "runs": [
                    {"budget": 1000, "states_per_sec": 8000.0,
                     "bytes_per_state": 100.0}]}]}"#,
        )
        .unwrap();
        let mut current = extract(&base);
        // A 2x throughput collapse trips the default 1.75x gate.
        current
            .get_mut("scale/w/b1000/states_per_sec")
            .unwrap()
            .value = 4000.0;
        let deltas = diff(&extract(&base), &current, Thresholds::default());
        let tput = deltas.iter().find(|d| d.kind == Kind::Throughput).unwrap();
        assert!((tput.factor - 2.0).abs() < 1e-9);
        assert!(tput.regressed);
        // Identical sizes do not.
        assert!(!deltas.iter().any(|d| d.kind == Kind::Size && d.regressed));

        // Sub-floor timings never gate, however wild the ratio.
        let tiny_base = parse(
            r#"{"benchmark": "e2e", "rows": [
                {"name": "q", "wall_secs": 0.0001}]}"#,
        )
        .unwrap();
        let tiny_cur = parse(
            r#"{"benchmark": "e2e", "rows": [
                {"name": "q", "wall_secs": 0.0009}]}"#,
        )
        .unwrap();
        let deltas = diff(
            &extract(&tiny_base),
            &extract(&tiny_cur),
            Thresholds::default(),
        );
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].gated && !deltas[0].regressed);

        let json = diff_json(&deltas, Thresholds::default(), Some(2.0));
        let round_trip = parse(&json).unwrap();
        assert_eq!(
            round_trip.get("compared").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            round_trip.get("injected_slowdown").and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn disjoint_keys_compare_nothing() {
        let a =
            parse(r#"{"benchmark": "e2e", "rows": [{"name": "old", "wall_secs": 1.0}]}"#).unwrap();
        let b =
            parse(r#"{"benchmark": "e2e", "rows": [{"name": "new", "wall_secs": 9.0}]}"#).unwrap();
        assert!(diff(&extract(&a), &extract(&b), Thresholds::default()).is_empty());
    }
}

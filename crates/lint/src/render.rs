//! Rendering diagnostics: rustc-style text and line-delimited JSON.

use crate::diagnostic::Diagnostic;
use dcds_obs::export::json_string;

/// Render a diagnostic rustc-style:
///
/// ```text
/// error[DCDS002]: relation `P` is used with 2 arguments, but ...
///   --> specs/bad/arity_mismatch.dcds:6:18
///    |
///  6 |     P(X, Y) ~> R(X);
///    |     ^
///    = name: P
/// ```
///
/// `src` is the full spec source (for the quoted line); pass `""` when it
/// is unavailable and the snippet is omitted.
pub fn render_text(d: &Diagnostic, path: &str, src: &str) -> String {
    let mut out = format!("{}[{}]: {}\n", d.severity, d.code, d.message);
    if let Some(span) = d.span {
        out.push_str(&format!("  --> {path}:{}:{}\n", span.line, span.col));
        if let Some(line) = src.lines().nth(span.line as usize - 1) {
            let gutter = span.line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!(" {pad} |\n"));
            out.push_str(&format!(" {gutter} | {line}\n"));
            let caret_pad = " ".repeat(span.col as usize - 1);
            out.push_str(&format!(" {pad} | {caret_pad}^\n"));
        }
    }
    for (key, value) in &d.payload {
        out.push_str(&format!("  = {key}: {}\n", value.to_json()));
    }
    out
}

/// Render a diagnostic as a single-line JSON object:
///
/// ```text
/// {"code":"DCDS002","severity":"error","message":"...","file":"specs/x.dcds","line":6,"col":18,"payload":{"name":"P"}}
/// ```
///
/// `line`/`col` are omitted when the diagnostic has no span.
pub fn render_json(d: &Diagnostic, path: &str) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"code\":{}", json_string(d.code)));
    out.push_str(&format!(
        ",\"severity\":{}",
        json_string(&d.severity.to_string())
    ));
    out.push_str(&format!(",\"message\":{}", json_string(&d.message)));
    out.push_str(&format!(",\"file\":{}", json_string(path)));
    if let Some(span) = d.span {
        out.push_str(&format!(",\"line\":{},\"col\":{}", span.line, span.col));
    }
    out.push_str(",\"payload\":{");
    let entries: Vec<String> = d
        .payload
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), v.to_json()))
        .collect();
    out.push_str(&entries.join(","));
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::{codes, Diagnostic, Payload};
    use dcds_folang::Span;

    #[test]
    fn text_has_span_snippet_and_payload() {
        let d = Diagnostic::error(codes::ARITY_MISMATCH, "bad arity")
            .at(Span::new(2, 5))
            .with("name", Payload::Str("P".to_owned()));
        let rendered = render_text(&d, "x.dcds", "schema {\n    P 1;\n}\n");
        assert!(rendered.starts_with("error[DCDS002]: bad arity\n"));
        assert!(rendered.contains("  --> x.dcds:2:5\n"));
        assert!(rendered.contains(" 2 |     P 1;\n"));
        assert!(rendered.contains(" | ^") || rendered.contains("|     ^"));
        assert!(rendered.contains("  = name: \"P\"\n"));
    }

    #[test]
    fn text_without_span_or_source() {
        let d = Diagnostic::note(codes::RUN_BOUND, "bounded");
        assert_eq!(render_text(&d, "x.dcds", ""), "note[DCDS062]: bounded\n");
    }

    #[test]
    fn json_is_one_line_and_escaped() {
        let d = Diagnostic::warning(codes::DEAD_ACTION, "action `a` is \"dead\"\nreally")
            .at(Span::new(7, 1))
            .with("action", Payload::Str("a".to_owned()))
            .with("count", Payload::Int(3));
        let rendered = render_json(&d, "x.dcds");
        assert!(!rendered.contains('\n'));
        assert_eq!(
            rendered,
            "{\"code\":\"DCDS040\",\"severity\":\"warning\",\"message\":\"action `a` is \\\"dead\\\"\\nreally\",\"file\":\"x.dcds\",\"line\":7,\"col\":1,\"payload\":{\"action\":\"a\",\"count\":3}}"
        );
    }

    #[test]
    fn json_omits_span_when_absent() {
        let d = Diagnostic::note(codes::STATE_BOUND, "ok");
        let rendered = render_json(&d, "x.dcds");
        assert!(!rendered.contains("\"line\""));
        assert!(rendered.contains("\"payload\":{}"));
    }
}

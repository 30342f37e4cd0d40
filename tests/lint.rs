//! End-to-end tests for `dcds lint`, driving the real binary over the
//! `specs/bad/` fixtures and temporary specs that exercise every stable
//! `DCDS0xx` code, in both output formats, with the exit-code contract.

use std::process::Command;

/// Run the binary; returns (exit code, combined stdout+stderr).
fn dcds_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("not killed by signal"), text)
}

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Write `src` to a fresh temp spec named for the calling test and lint it.
fn lint_src(tag: &str, src: &str, extra: &[&str]) -> (i32, String) {
    let path = std::env::temp_dir().join(format!("dcds_lint_{tag}_{}.dcds", std::process::id()));
    std::fs::write(&path, src).expect("temp spec written");
    let path_s = path.to_str().expect("utf-8 temp path").to_owned();
    let mut args = vec!["lint", path_s.as_str()];
    args.extend_from_slice(extra);
    let res = dcds_code(&args);
    let _ = std::fs::remove_file(&path);
    res
}

// ---------------------------------------------------------------- fixtures

#[test]
fn arity_mismatch_fixture() {
    let (code, text) = dcds_code(&["lint", &spec("bad/arity_mismatch.dcds")]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS002]"), "{text}");
    assert!(text.contains("error[DCDS001]"), "{text}");
    // Spans point at the offending atoms.
    assert!(text.contains("arity_mismatch.dcds:6:5"), "{text}");
    assert!(text.contains("arity_mismatch.dcds:7:5"), "{text}");
    // Source snippet and caret are rendered.
    assert!(text.contains("P(X, Y) ~> R(X);"), "{text}");
    assert!(text.contains("^"), "{text}");
}

#[test]
fn unbound_param_fixture() {
    let (code, text) = dcds_code(&["lint", &spec("bad/unbound_param.dcds")]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS020]"), "{text}");
    assert!(text.contains("error[DCDS021]"), "{text}");
    assert!(text.contains("error[DCDS022]"), "{text}");
    // The head-variable span lands on the variable itself.
    assert!(text.contains("unbound_param.dcds:9:15"), "{text}");
}

#[test]
fn dead_action_fixture() {
    let (code, text) = dcds_code(&["lint", &spec("bad/dead_action.dcds")]);
    // Warnings only: exits 0 without --deny, 1 with it.
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("warning[DCDS040]"), "{text}");
    assert!(text.contains("warning[DCDS041]"), "{text}");
    assert!(text.contains("warning[DCDS042]"), "{text}");

    let (code, text) = dcds_code(&["lint", &spec("bad/dead_action.dcds"), "--deny", "warnings"]);
    assert_eq!(code, 1, "{text}");
}

#[test]
fn nonacyclic_fixture() {
    let (code, text) = dcds_code(&["lint", &spec("bad/nonacyclic.dcds")]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("warning[DCDS061]"), "{text}");
    assert!(text.contains("recall cycle pi3"), "{text}");
    // Every boundedness warning is accompanied by the engine-routing note.
    assert!(text.contains("note[DCDS080]"), "{text}");
    assert!(text.contains("--engine symbolic"), "{text}");
}

#[test]
fn symbolic_fallback_note_on_unbounded_safe() {
    let (code, text) = dcds_code(&["lint", &spec("unbounded_safe.dcds")]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("warning[DCDS060]"), "{text}");
    assert!(text.contains("note[DCDS080]"), "{text}");
    assert!(text.contains("--engine symbolic"), "{text}");
}

// ---------------------------------------------------- remaining DCDS codes

#[test]
fn parse_error_is_dcds000_with_exit_3() {
    // A run-time error, as an unparsable spec is for every command.
    let (code, text) = lint_src("parse", "schema { P 1 }\n", &[]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("error[DCDS000]"), "{text}");

    let (code, text) = lint_src("parse_json", "schema { P 1 }\n", &["--format", "json"]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("\"code\":\"DCDS000\""), "{text}");
    assert!(text.contains("\"line\":1"), "{text}");
}

#[test]
fn duplicate_declarations() {
    let (code, text) = lint_src(
        "dups",
        "schema { P 1; P 2; }\n\
         services { f 1 det; f 1 det; }\n\
         init { P(a); }\n\
         action go() { P(X) ~> P(f(X)); }\n\
         action go() { P(X) ~> P(X); }\n\
         rule true => go;\n",
        &[],
    );
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS003]"), "{text}");
    assert!(text.contains("error[DCDS006]"), "{text}");
    assert!(text.contains("error[DCDS007]"), "{text}");
}

#[test]
fn service_errors() {
    let (code, text) = lint_src(
        "svc",
        "schema { P 1; }\n\
         services { f 2 det; }\n\
         init { P(a); }\n\
         action go() { P(X) ~> P(g(X)); }\n\
         action go2() { P(X) ~> P(f(X)); }\n\
         rule true => go;\n\
         rule true => go2;\n",
        &[],
    );
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS004]"), "{text}");
    assert!(text.contains("error[DCDS005]"), "{text}");
}

#[test]
fn rule_errors() {
    let (code, text) = lint_src(
        "rules",
        "schema { P 1; }\n\
         init { P(a); }\n\
         action go(X) { P(X) ~> P(X); }\n\
         rule P(X) & P(Y) => go;\n\
         rule true => gone;\n",
        &[],
    );
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS008]"), "{text}");
    assert!(text.contains("error[DCDS009]"), "{text}");
}

#[test]
fn filter_and_disjunction_errors() {
    let (code, text) = lint_src(
        "filter",
        "schema { P 1; Q 1; }\n\
         init { P(a); }\n\
         action go() { P(X) & !Q(V) ~> P(X); }\n\
         action go2() { P(X) | Q(X) ~> P(X); }\n\
         rule true => go;\n\
         rule true => go2;\n",
        &[],
    );
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS023]"), "{text}");
    assert!(text.contains("error[DCDS024]"), "{text}");
}

#[test]
fn unsat_condition_warning() {
    let (code, text) = lint_src(
        "unsat",
        "schema { P 1; }\n\
         init { P(a); }\n\
         action go() { P(X) ~> P(X); }\n\
         rule P(b) & b = c => go;\n",
        &[],
    );
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("warning[DCDS043]"), "{text}");
}

#[test]
fn weak_acyclicity_warning_and_run_bound_note() {
    // Deterministic Example 4.3: not weakly acyclic → DCDS060 with cycle.
    let (code, text) = lint_src(
        "wa",
        "schema { R 1; Q 1; }\n\
         services { f 1 det; }\n\
         init { R(a); }\n\
         action alpha() { R(X) ~> Q(f(X)); Q(X) ~> R(X); }\n\
         rule true => alpha;\n",
        &[],
    );
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("warning[DCDS060]"), "{text}");
    assert!(text.contains("=[special]=>"), "{text}");

    // A weakly acyclic deterministic spec gets the DCDS062 note instead.
    let (code, text) = lint_src(
        "rb",
        "schema { P 1; }\n\
         services { f 1 det; }\n\
         init { P(a); }\n\
         action go() { P(X) ~> P(f(a)); }\n\
         rule true => go;\n",
        &[],
    );
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("note[DCDS062]"), "{text}");
    assert!(text.contains("run_bound"), "{text}");
}

#[test]
fn state_bound_note() {
    let (code, text) = dcds_code(&["lint", &spec("ping_pong.dcds")]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("note[DCDS063]"), "{text}");
}

#[test]
fn constraint_reference_path_note() {
    // A vacuous ∀ and an ∃ in the consequent stay on the reference
    // evaluator (DCDS044 each, with the reason); the guard-shaped key
    // constraint and assert compile and stay silent.
    let (code, text) = lint_src(
        "cpath",
        "schema { P 1; Q 2; }\n\
         init { P(a); Q(a, a); }\n\
         constraint Q(X, Y) & Q(X, Z) -> Y = Z;\n\
         assert forall X, Y . Q(X, Y) -> P(X) | X = Y;\n\
         assert forall X . P(a) -> P(X) | true;\n\
         assert forall X . P(X) -> exists Y . Q(X, Y);\n\
         action go() { P(X) ~> P(X); Q(X, Y) ~> Q(X, Y); }\n\
         rule true => go;\n",
        &["--format", "json"],
    );
    assert_eq!(code, 0, "{text}");
    let notes: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"code\":\"DCDS044\""))
        .collect();
    assert_eq!(notes.len(), 2, "{text}");
    assert!(notes[0].contains("\"line\":5"), "{text}");
    assert!(
        notes[0].contains("\"reason\":\"unguarded-variable\""),
        "{text}"
    );
    assert!(notes[1].contains("\"line\":6"), "{text}");
    assert!(
        notes[1].contains("\"reason\":\"quantified-consequent\""),
        "{text}"
    );
    assert!(
        notes.iter().all(|n| n.contains("\"severity\":\"note\"")),
        "{text}"
    );
}

#[test]
fn shipped_constraints_run_compiled() {
    // travel_request's two asserts are guard-shaped: no DCDS044.
    let (code, text) = dcds_code(&["lint", &spec("travel_request.dcds")]);
    assert_eq!(code, 0, "{text}");
    assert!(!text.contains("DCDS044"), "{text}");
}

#[test]
fn lowering_error_catch_all() {
    // Constraint violated by the initial instance: every per-construct pass
    // is happy, but strict lowering still rejects the spec → DCDS099.
    let (code, text) = lint_src(
        "lower",
        "schema { P 1; }\n\
         init { P(a); }\n\
         constraint P(X) -> false;\n\
         action go() { P(X) ~> P(X); }\n\
         rule true => go;\n",
        &[],
    );
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error[DCDS099]"), "{text}");
}

// ----------------------------------------------------------- JSON contract

#[test]
fn json_format_is_one_object_per_line() {
    let (code, text) = dcds_code(&["lint", &spec("bad/arity_mismatch.dcds"), "--format", "json"]);
    assert_eq!(code, 1, "{text}");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 3, "{text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"code\":\"DCDS0"), "{line}");
        assert!(line.contains("\"severity\":"), "{line}");
        assert!(line.contains("\"payload\":"), "{line}");
    }
    // The arity mismatch carries its machine-readable arity payload.
    assert!(
        text.contains("\"used_arity\":2") && text.contains("\"declared_arity\":1"),
        "{text}"
    );
    // No text-format summary line in JSON mode.
    assert!(!text.contains("error(s)"), "{text}");
}

// ------------------------------------------------------------- round-trip

#[test]
fn shipped_specs_lint_clean() {
    for name in [
        "ping_pong.dcds",
        "accumulator.dcds",
        "travel_request.dcds",
        "unbounded_safe.dcds",
    ] {
        let (code, text) = dcds_code(&["lint", &spec(name)]);
        assert_eq!(code, 0, "{name}: {text}");
        assert!(!text.contains("error["), "{name}: {text}");
        // accumulator is deliberately state-unbounded (Example 5.2): it
        // carries the DCDS061 advisory but stays exit-0 without --deny.
        if name == "accumulator.dcds" {
            assert!(text.contains("warning[DCDS061]"), "{text}");
        }
    }
}

#[test]
fn unreadable_path_is_a_usage_error() {
    // A run-time error (exit 3), as an unparsable spec is.
    let (code, text) = dcds_code(&["lint", "no_such_spec.dcds"]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("cannot read"), "{text}");
}

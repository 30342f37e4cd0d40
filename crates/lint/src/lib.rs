//! # dcds-lint
//!
//! A rustc-style, multi-pass lint engine for `.dcds` specifications.
//!
//! The engine runs a registry of independent passes over the tolerant,
//! span-carrying [`DcdsSpec`] AST (see `dcds_core::spec`) and emits
//! structured [`Diagnostic`]s — each with a stable `DCDS0xx` code, a
//! severity, a message, an optional `line:col` span, and a
//! machine-readable payload. Pass families:
//!
//! * **well-formedness** ([`wellformed`]): renders
//!   [`DcdsSpec::defects`], the checker that `DcdsSpec::lower` and so
//!   `dcds check` share — unknown/duplicate relations, services and
//!   actions; wrong arities in atoms, init facts, effect heads and service
//!   calls; rule/parameter mismatches; effect-head, filter and
//!   service-call variables the effect body does not bind; disjunctive
//!   effect bodies; malformed equality constraints and open asserts;
//! * **dead code** ([`dead`], [`unsat`]): actions no rule invokes,
//!   relations never written or never read, trivially unsatisfiable rule
//!   conditions (congruence closure over equalities/inequalities);
//! * **boundedness advisories** ([`bounded`]): reuses `dcds-analysis` to
//!   warn when the spec is neither weakly acyclic (deterministic
//!   services, Theorem 4.7) nor GR⁺-acyclic (nondeterministic services,
//!   Theorem 5.6), attaching the concrete cycle witness, and to report
//!   the estimated run/state bound when one exists;
//! * **engine routing** ([`symbolic`]): when the boundedness certificate
//!   is missing, a note points at `dcds check --engine symbolic`, which
//!   decides AG/EF safety properties without boundedness.
//!
//! Rendering to rustc-style text or line-delimited JSON lives in
//! [`render`]; the `dcds lint` subcommand drives everything.

pub mod bounded;
pub mod dead;
pub mod diagnostic;
pub mod render;
pub mod symbolic;
pub mod unsat;
pub mod wellformed;

pub use diagnostic::{codes, Diagnostic, Payload, Severity, CODE_TABLE};
pub use render::{render_json, render_text};

use dcds_core::spec::DcdsSpec;
use dcds_core::Dcds;

/// What a pass sees: the surface spec, plus the validated [`Dcds`] for
/// whole-system passes (only once every spec-level pass found no error).
pub struct LintContext<'a> {
    /// The tolerant, span-carrying AST.
    pub spec: &'a DcdsSpec,
    /// The lowered system, when lowering succeeded.
    pub dcds: Option<&'a Dcds>,
}

/// A registered lint pass.
pub struct LintPass {
    /// Short pass name (shown in `--help`-style listings).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Whether the pass needs the lowered [`Dcds`] (runs only when the
    /// spec-level passes found no errors and lowering succeeded).
    pub needs_dcds: bool,
    /// The pass body.
    pub run: fn(&LintContext<'_>, &mut Vec<Diagnostic>),
}

/// The pass registry, in execution order.
pub fn registry() -> &'static [LintPass] {
    &[
        LintPass {
            name: "well-formedness",
            description: "names, arities, bindings, effect bodies, constraint shapes",
            needs_dcds: false,
            run: wellformed::run,
        },
        LintPass {
            name: "dead-code",
            description: "dead actions, never-written/never-read relations",
            needs_dcds: false,
            run: dead::run,
        },
        LintPass {
            name: "unsat",
            description: "trivially unsatisfiable rule conditions",
            needs_dcds: false,
            run: unsat::run,
        },
        LintPass {
            name: "boundedness",
            description: "weak/GR+ acyclicity advisories with witnesses and bounds",
            needs_dcds: true,
            run: bounded::run,
        },
        LintPass {
            name: "symbolic-fallback",
            description: "points unbounded specs at `dcds check --engine symbolic`",
            needs_dcds: true,
            run: symbolic::run,
        },
    ]
}

/// The outcome of linting one spec.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted by source position then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of notes.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// Any errors?
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }
}

/// Run every registered pass over a parsed spec.
///
/// Spec-level passes always run. The whole-system passes (boundedness)
/// need a validated [`Dcds`], so they run only when no spec-level pass
/// reported an error and [`DcdsSpec::lower`] succeeds. A spec without
/// defects fails to lower only when its initial instance violates a
/// constraint, which becomes a `DCDS099` diagnostic.
pub fn lint_spec(spec: &DcdsSpec) -> LintReport {
    let mut diagnostics = Vec::new();
    let ctx = LintContext { spec, dcds: None };
    for pass in registry().iter().filter(|p| !p.needs_dcds) {
        (pass.run)(&ctx, &mut diagnostics);
    }
    if !diagnostics.iter().any(|d| d.severity == Severity::Error) {
        match spec.lower() {
            Ok(dcds) => {
                let ctx = LintContext {
                    spec,
                    dcds: Some(&dcds),
                };
                for pass in registry().iter().filter(|p| p.needs_dcds) {
                    (pass.run)(&ctx, &mut diagnostics);
                }
            }
            Err(e) => {
                let mut d = Diagnostic::error(codes::LOWERING_ERROR, e.message);
                if let Some(span) = e.span {
                    d = d.at(span);
                }
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (
                d.span.map_or((u32::MAX, u32::MAX), |s| (s.line, s.col)),
                d.code,
            )
        };
        key(a).cmp(&key(b))
    });
    LintReport { diagnostics }
}

/// Parse and lint a source string. `Err` is a *syntax* error (exit-code 2
/// territory for the CLI); semantic defects come back as diagnostics.
pub fn lint_source(src: &str) -> Result<LintReport, dcds_folang::ParseError> {
    let spec = dcds_core::spec::parse_spec(src)?;
    Ok(lint_spec(&spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(src: &str) -> Vec<&'static str> {
        lint_source(src)
            .expect("spec should parse")
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn unknown_relation_and_arity_mismatch() {
        let found = codes_of(
            "schema { P 1; }\n\
             init { P(a); }\n\
             action go() { P(X, Y) ~> P(X); Nope(X) ~> P(X); }\n\
             rule true => go;\n",
        );
        assert!(found.contains(&codes::ARITY_MISMATCH), "{found:?}");
        assert!(found.contains(&codes::UNKNOWN_RELATION), "{found:?}");
    }

    #[test]
    fn duplicate_declarations() {
        let found = codes_of(
            "schema { P 1; P 2; }\n\
             services { f 1 det; f 1 det; }\n\
             init { P(a); }\n\
             action go() { P(X) ~> P(f(X)); }\n\
             action go() { P(X) ~> P(X); }\n\
             rule true => go;\n",
        );
        assert!(found.contains(&codes::DUPLICATE_RELATION), "{found:?}");
        assert!(found.contains(&codes::DUPLICATE_SERVICE), "{found:?}");
        assert!(found.contains(&codes::DUPLICATE_ACTION), "{found:?}");
    }

    #[test]
    fn rule_errors() {
        let found = codes_of(
            "schema { P 1; }\n\
             init { P(a); }\n\
             action go(X) { P(X) ~> P(X); }\n\
             rule true => go;\n\
             rule P(X) & P(Y) => go;\n\
             rule true => gone;\n",
        );
        assert!(found.contains(&codes::PARAM_UNBOUND), "{found:?}");
        assert!(found.contains(&codes::RULE_EXTRA_FREE_VARS), "{found:?}");
        assert!(found.contains(&codes::UNKNOWN_ACTION), "{found:?}");
    }

    #[test]
    fn binding_errors_in_effects() {
        let found = codes_of(
            "schema { P 1; R 1; }\n\
             services { f 1 det; }\n\
             init { P(a); }\n\
             action go() {\n\
                 P(X) ~> R(Z);\n\
                 P(X) ~> R(f(W));\n\
                 P(X) & !R(V) ~> R(X);\n\
             }\n\
             rule true => go;\n",
        );
        assert!(found.contains(&codes::HEAD_VAR_UNBOUND), "{found:?}");
        assert!(found.contains(&codes::SERVICE_ARG_UNBOUND), "{found:?}");
        assert!(found.contains(&codes::FILTER_VAR_UNBOUND), "{found:?}");
    }

    #[test]
    fn dead_code_findings() {
        let report = lint_source(
            "schema { P 1; Q 1; S 1; }\n\
             init { P(a); }\n\
             action alive() { P(X) & !S(X) ~> P(X); }\n\
             action ghost() { P(X) ~> Q(X); }\n\
             rule true => alive;\n",
        )
        .unwrap();
        let found: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(found.contains(&codes::DEAD_ACTION), "{found:?}");
        assert!(found.contains(&codes::RELATION_NEVER_WRITTEN), "{found:?}");
        assert!(found.contains(&codes::RELATION_NEVER_READ), "{found:?}");
        // Warnings only: the spec still lowers, so the boundedness pass ran.
        assert!(!report.has_errors());
        assert!(found.contains(&codes::RUN_BOUND), "{found:?}");
    }

    #[test]
    fn unsatisfiable_condition() {
        let found = codes_of(
            "schema { P 1; }\n\
             init { P(a); }\n\
             action go() { P(X) ~> P(X); }\n\
             rule P(b) & b = c => go;\n",
        );
        assert!(found.contains(&codes::UNSATISFIABLE_CONDITION), "{found:?}");
    }

    #[test]
    fn weak_acyclicity_warning_with_witness() {
        // Example 4.3 with a deterministic service: not weakly acyclic.
        let report = lint_source(
            "schema { R 1; Q 1; }\n\
             services { f 1 det; }\n\
             init { R(a); }\n\
             action alpha() { R(X) ~> Q(f(X)); Q(X) ~> R(X); }\n\
             rule true => alpha;\n",
        )
        .unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::NOT_WEAKLY_ACYCLIC)
            .expect("expected DCDS060");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.payload.iter().any(|(k, _)| *k == "cycle"));
    }

    #[test]
    fn gr_plus_warning_on_accumulator() {
        let report = lint_source(
            "schema { R 1; Q 1; }\n\
             services { f 1 nondet; }\n\
             init { R(a); }\n\
             action alpha() { R(X) ~> R(X); R(X) ~> Q(f(X)); Q(X) ~> Q(X); }\n\
             rule true => alpha;\n",
        )
        .unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::NOT_GR_PLUS_ACYCLIC)
            .expect("expected DCDS061");
        assert!(d
            .payload
            .iter()
            .any(|(k, v)| *k == "witness" && matches!(v, Payload::Str(s) if s.contains("pi3"))));
    }

    #[test]
    fn symbolic_fallback_note_accompanies_boundedness_warnings() {
        // Deterministic, not weakly acyclic → DCDS060 + DCDS080.
        let det = lint_source(
            "schema { R 1; Flag 1; }\n\
             services { f 1 det; }\n\
             init { R(a); Flag(ok); }\n\
             action step() { R(X) ~> R(f(X)); Flag(Y) ~> Flag(Y); }\n\
             rule true => step;\n",
        )
        .unwrap();
        let d = det
            .diagnostics
            .iter()
            .find(|d| d.code == codes::SYMBOLIC_FALLBACK)
            .expect("expected DCDS080");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("--engine symbolic"), "{}", d.message);

        // Nondeterministic accumulator, not GR+-acyclic → DCDS061 + DCDS080.
        let nondet = lint_source(
            "schema { R 1; Q 1; }\n\
             services { f 1 nondet; }\n\
             init { R(a); }\n\
             action alpha() { R(X) ~> R(X); R(X) ~> Q(f(X)); Q(X) ~> Q(X); }\n\
             rule true => alpha;\n",
        )
        .unwrap();
        let found: Vec<_> = nondet.diagnostics.iter().map(|d| d.code).collect();
        assert!(found.contains(&codes::SYMBOLIC_FALLBACK), "{found:?}");

        // Bounded specs stay quiet.
        let bounded = lint_source(
            "schema { P 1; }\n\
             services { f 1 det; }\n\
             init { P(a); }\n\
             action go() { P(X) ~> P(f(a)); }\n\
             rule true => go;\n",
        )
        .unwrap();
        assert!(bounded
            .diagnostics
            .iter()
            .all(|d| d.code != codes::SYMBOLIC_FALLBACK));
    }

    #[test]
    fn state_bound_note_on_ping_pong() {
        // Example 4.3 under nondeterministic services: GR-acyclic.
        let report = lint_source(
            "schema { R 1; Q 1; }\n\
             services { f 1 nondet; }\n\
             init { R(a); }\n\
             action alpha() { R(X) ~> Q(f(X)); Q(X) ~> R(X); }\n\
             rule true => alpha;\n",
        )
        .unwrap();
        assert!(!report.has_errors());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::STATE_BOUND));
    }

    #[test]
    fn clean_spec_yields_only_notes() {
        let report = lint_source(
            "schema { P 1; }\n\
             services { f 1 det; }\n\
             init { P(a); }\n\
             action go() { P(X) ~> P(f(a)); }\n\
             rule true => go;\n",
        )
        .unwrap();
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 0);
    }

    #[test]
    fn disjunctive_effect_is_flagged() {
        let found = codes_of(
            "schema { P 1; Q 1; }\n\
             init { P(a); }\n\
             action go() { P(X) | Q(X) ~> P(X); }\n\
             rule true => go;\n",
        );
        assert!(found.contains(&codes::EFFECT_DISJUNCTIVE), "{found:?}");
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let report = lint_source(
            "schema { P 1; }\n\
             init { P(a); }\n\
             action go() { Nope(X) ~> P(X); P(X, Y) ~> P(X); }\n\
             rule true => go;\n",
        )
        .unwrap();
        let spans: Vec<_> = report.diagnostics.iter().filter_map(|d| d.span).collect();
        let mut sorted = spans.clone();
        sorted.sort_by_key(|s| (s.line, s.col));
        assert_eq!(spans, sorted);
    }
}

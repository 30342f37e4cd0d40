//! Structured, span-carrying diagnostics with stable `DCDS0xx` codes.

use dcds_folang::lexer::Span;
use dcds_obs::export::json_string;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The spec cannot be given a semantics; `lower()` would reject it.
    Error,
    /// The spec is valid but almost certainly not what the author meant,
    /// or carries a divergence risk (boundedness advisories).
    Warning,
    /// Informational — e.g. a concrete run/state bound estimate.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// A machine-readable payload value attached to a diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A string (rendered witness, name, …).
    Str(String),
    /// An integer (counts, indices).
    Int(i64),
    /// A float (bound estimates).
    Num(f64),
    /// A list of values (cycle positions, …).
    List(Vec<Payload>),
}

impl Payload {
    /// Serialize as a JSON value.
    pub fn to_json(&self) -> String {
        match self {
            Payload::Str(s) => json_string(s),
            Payload::Int(i) => i.to_string(),
            Payload::Num(n) => {
                if n.is_finite() {
                    // `{:e}` keeps astronomically loose bounds readable and
                    // still parseable as a JSON number.
                    format!("{n:e}")
                } else {
                    json_string(&n.to_string())
                }
            }
            Payload::List(xs) => {
                let items: Vec<String> = xs.iter().map(Payload::to_json).collect();
                format!("[{}]", items.join(","))
            }
        }
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code, e.g. `DCDS002`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source position, when the finding is about a specific construct.
    pub span: Option<Span>,
    /// Machine-readable key/value payload (kept ordered for stable output).
    pub payload: Vec<(&'static str, Payload)>,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            payload: Vec::new(),
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Build a note diagnostic.
    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attach a source span.
    pub fn at(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a payload entry.
    pub fn with(mut self, key: &'static str, value: Payload) -> Self {
        self.payload.push((key, value));
        self
    }
}

/// The stable code table. Codes are grouped by pass family:
/// `DCDS000` parse, `DCDS00x` arity/consistency, `DCDS02x` binding,
/// `DCDS04x` dead code and slow paths, `DCDS06x` boundedness advisories,
/// `DCDS08x` engine-routing advisories, `DCDS099` lowering/validation
/// catch-all.
pub mod codes {
    /// Syntax error — the spec could not be parsed at all.
    pub const PARSE_ERROR: &str = "DCDS000";
    /// An atom or init/head fact names an undeclared relation.
    pub const UNKNOWN_RELATION: &str = "DCDS001";
    /// A relation is used with the wrong number of arguments.
    pub const ARITY_MISMATCH: &str = "DCDS002";
    /// A relation is declared more than once.
    pub const DUPLICATE_RELATION: &str = "DCDS003";
    /// A head term calls an undeclared service.
    pub const UNKNOWN_SERVICE: &str = "DCDS004";
    /// A service call has the wrong number of arguments.
    pub const SERVICE_ARITY_MISMATCH: &str = "DCDS005";
    /// A service is declared more than once.
    pub const DUPLICATE_SERVICE: &str = "DCDS006";
    /// An action is declared more than once.
    pub const DUPLICATE_ACTION: &str = "DCDS007";
    /// A CA rule invokes an action that is never declared.
    pub const UNKNOWN_ACTION: &str = "DCDS008";
    /// A rule condition has free variables beyond the action's parameters.
    pub const RULE_EXTRA_FREE_VARS: &str = "DCDS009";
    /// An action parameter is not bound by the invoking rule's condition.
    pub const PARAM_UNBOUND: &str = "DCDS020";
    /// An effect head variable is bound by neither the effect body's
    /// positive atoms nor the action parameters.
    pub const HEAD_VAR_UNBOUND: &str = "DCDS021";
    /// A service call argument variable is unbound.
    pub const SERVICE_ARG_UNBOUND: &str = "DCDS022";
    /// An effect filter (`Q⁻`) uses a variable no positive atom binds.
    pub const FILTER_VAR_UNBOUND: &str = "DCDS023";
    /// An effect body is disjunctive at the top level.
    pub const EFFECT_DISJUNCTIVE: &str = "DCDS024";
    /// An action is never invoked by any CA rule.
    pub const DEAD_ACTION: &str = "DCDS040";
    /// A relation is read but never written (neither init nor any head).
    pub const RELATION_NEVER_WRITTEN: &str = "DCDS041";
    /// A relation is written but never read by any formula.
    pub const RELATION_NEVER_READ: &str = "DCDS042";
    /// A rule condition is trivially unsatisfiable (congruence closure).
    pub const UNSATISFIABLE_CONDITION: &str = "DCDS043";
    /// A `constraint`/`assert` is outside the compiled-constraint fragment
    /// and runs the reference FO evaluator on every successor.
    pub const CONSTRAINT_REFERENCE_PATH: &str = "DCDS044";
    /// Deterministic services and the dependency graph is not weakly
    /// acyclic: run-boundedness (Thm 4.7) is not guaranteed.
    pub const NOT_WEAKLY_ACYCLIC: &str = "DCDS060";
    /// Nondeterministic services and the dataflow graph is not
    /// GR⁺-acyclic: state-boundedness (Thm 5.6) is not guaranteed.
    pub const NOT_GR_PLUS_ACYCLIC: &str = "DCDS061";
    /// Weakly acyclic — the Theorem 4.7 run bound estimate.
    pub const RUN_BOUND: &str = "DCDS062";
    /// GR(⁺)-acyclic — state-bounded, with the Theorem 5.6 estimate when
    /// GR-acyclicity gives one.
    pub const STATE_BOUND: &str = "DCDS063";
    /// The boundedness certificate is missing, but AG/EF safety properties
    /// remain checkable via `dcds check --engine symbolic`.
    pub const SYMBOLIC_FALLBACK: &str = "DCDS080";
    /// The spec passed the per-construct passes but strict lowering /
    /// validation still rejected it.
    pub const LOWERING_ERROR: &str = "DCDS099";
}

/// All codes the engine can emit, with one-line descriptions (drives the
/// README table and the coverage test).
pub const CODE_TABLE: &[(&str, Severity, &str)] = &[
    (codes::PARSE_ERROR, Severity::Error, "syntax error"),
    (codes::UNKNOWN_RELATION, Severity::Error, "unknown relation"),
    (
        codes::ARITY_MISMATCH,
        Severity::Error,
        "relation arity mismatch",
    ),
    (
        codes::DUPLICATE_RELATION,
        Severity::Error,
        "duplicate relation declaration",
    ),
    (codes::UNKNOWN_SERVICE, Severity::Error, "unknown service"),
    (
        codes::SERVICE_ARITY_MISMATCH,
        Severity::Error,
        "service call arity mismatch",
    ),
    (
        codes::DUPLICATE_SERVICE,
        Severity::Error,
        "duplicate service declaration",
    ),
    (
        codes::DUPLICATE_ACTION,
        Severity::Error,
        "duplicate action declaration",
    ),
    (
        codes::UNKNOWN_ACTION,
        Severity::Error,
        "rule invokes unknown action",
    ),
    (
        codes::RULE_EXTRA_FREE_VARS,
        Severity::Error,
        "rule condition free variables beyond action parameters",
    ),
    (
        codes::PARAM_UNBOUND,
        Severity::Error,
        "action parameter unbound by rule condition",
    ),
    (
        codes::HEAD_VAR_UNBOUND,
        Severity::Error,
        "effect head variable unbound",
    ),
    (
        codes::SERVICE_ARG_UNBOUND,
        Severity::Error,
        "service call over unbound variable",
    ),
    (
        codes::FILTER_VAR_UNBOUND,
        Severity::Error,
        "effect filter variable unbound",
    ),
    (
        codes::EFFECT_DISJUNCTIVE,
        Severity::Error,
        "disjunctive effect body",
    ),
    (
        codes::DEAD_ACTION,
        Severity::Warning,
        "action never invoked by any rule",
    ),
    (
        codes::RELATION_NEVER_WRITTEN,
        Severity::Warning,
        "relation read but never written",
    ),
    (
        codes::RELATION_NEVER_READ,
        Severity::Warning,
        "relation written but never read",
    ),
    (
        codes::UNSATISFIABLE_CONDITION,
        Severity::Warning,
        "trivially unsatisfiable rule condition",
    ),
    (
        codes::CONSTRAINT_REFERENCE_PATH,
        Severity::Note,
        "constraint checked by the reference evaluator, not a compiled plan",
    ),
    (
        codes::NOT_WEAKLY_ACYCLIC,
        Severity::Warning,
        "not weakly acyclic (run-boundedness not guaranteed)",
    ),
    (
        codes::NOT_GR_PLUS_ACYCLIC,
        Severity::Warning,
        "not GR+-acyclic (state-boundedness not guaranteed)",
    ),
    (
        codes::RUN_BOUND,
        Severity::Note,
        "run-bounded, with Theorem 4.7 estimate",
    ),
    (
        codes::STATE_BOUND,
        Severity::Note,
        "state-bounded, with Theorem 5.6 estimate",
    ),
    (
        codes::SYMBOLIC_FALLBACK,
        Severity::Note,
        "unbounded spec: AG/EF safety still decidable via --engine symbolic",
    ),
    (
        codes::LOWERING_ERROR,
        Severity::Error,
        "spec rejected by strict lowering/validation",
    ),
];

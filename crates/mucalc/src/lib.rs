//! # dcds-mucalc
//!
//! First-order µ-calculus verification logics over data-centric dynamic
//! systems (Section 3 of the paper):
//!
//! * **µL** — first-order µ-calculus with unrestricted quantification
//!   across states ([`ast`]);
//! * **µLA** — the *history-preserving* fragment: quantification guarded by
//!   `LIVE(x)` (Section 3.1);
//! * **µLP** — the *persistence-preserving* fragment: modal operators
//!   additionally guard the free variables with `LIVE(~x)` (Section 3.2).
//!
//! Fragment membership and the syntactic monotonicity of fixpoints are
//! checked by [`fragments`]. Model checking over explicit finite transition
//! systems (concrete prefixes or the finite abstractions of Theorems 4.3 /
//! 5.4) has two evaluators:
//!
//! * [`engine`] — the production path: a staged evaluator with a
//!   query-extension cache and parallel per-state query evaluation
//!   ([`engine::check_traced`] exposes thread control and
//!   [`engine::McCounters`] observability);
//! * [`mc`] — the definition: a naive direct evaluator of the extension
//!   function of Figure 1, kept as the differential-testing oracle.
//!
//! [`prop`] builds the `PROP(Φ)` propositionalisation of Theorem 4.4, a
//! quantifier-free [`Mu`]; either evaluator then performs the conventional
//! propositional model checking of that theorem.
//! `tests/mc_engine_differential.rs` holds the engine to [`mc::eval`] on
//! seeded random and hand-written formulas, and on their `PROP(Φ)`.
//! [`sugar`] offers CTL-style combinators (`AG`, `EF`, `AF`, `EU`, ...)
//! compiled into µ-calculus, and [`parser`] a surface syntax (`mu Z . ...`,
//! `<> phi`, `[] phi`, `live(X)`). [`safety`] recognises the AG/EF safety
//! fragment and compiles it to the reachability question answered by the
//! symbolic backward engine.

pub mod ast;
pub mod diagnostics;
pub mod engine;
pub mod fragments;
pub mod mc;
pub mod parser;
pub mod pretty;
pub mod prop;
pub mod safety;
mod stateset;
pub mod sugar;

pub use ast::{Mu, NotQuery, PredVar};
pub use diagnostics::{counterexample_ag, witness_ef};
pub use engine::{
    check, check_traced, ensure_closed, eval_traced, CheckError, McCounters, McOptions, McRun,
};
pub use fragments::{classify, is_closed_leaf, Fragment, FragmentError};
pub use mc::{eval, Valuation};
pub use parser::parse_mu;
pub use pretty::MuDisplay;
pub use prop::propositionalize;
pub use safety::{extract_safety, SafetyError, SafetyMode, SafetyProperty};

//! # dcds-symbolic
//!
//! Symbolic safety verification by **regression-based backward
//! reachability** — deciding AG/EF properties without enumerating states,
//! and therefore without requiring the run-/state-boundedness that the
//! explicit abstraction engines of Theorems 4.3 / 5.4 depend on. The
//! approach follows the static line of work around relational action
//! bases: represent sets of instances as existentially quantified clauses
//! ([`clause`]), regress them through the actions' overwrite semantics
//! ([`mod@regress`]), detect the fixpoint by entailment ([`subsume`]) over the
//! congruence-closure core shared with `dcds-lint` via
//! [`dcds_analysis::cc`], and prune against the data layer's integrity
//! constraints ([`constraints`]).
//!
//! The clause set over-approximates the states that can reach Bad, so:
//!
//! * **fixpoint, initial instance not covered** → definitive SAFE;
//! * **initial instance covered** → a bounded concrete search over the
//!   commitment-representative successors confirms a genuine trace before
//!   UNSAFE is reported ([`engine`]);
//! * otherwise → inconclusive, with budgets and the reason surfaced.
//!
//! The accepted property fragment is `AG φ` / `EF φ` with `φ` a
//! quantifier-guarded FO state property (recognised by
//! [`dcds_mucalc::safety`]); the bad condition must compile to
//! positive-existential clauses.

pub mod clause;
pub mod constraints;
pub mod engine;
#[cfg(test)]
mod gen;
pub mod regress;
pub mod subsume;

pub use clause::{Clause, STerm, SVar};
pub use constraints::{guarded_constraints, GuardedConstraint};
pub use engine::{
    check_safety, check_safety_traced, clauses_from_bad, render_trace, SymCounters, SymError,
    SymOptions, SymRun, SymVerdict, Trace,
};
pub use regress::{RegressOut, Regression, TargetCtx};
pub use subsume::{subsumes, ClauseCtx};

//! # dcds-folang
//!
//! First-order queries over relational instances, as used throughout the
//! DCDS framework (Bagheri Hariri et al., PODS 2013, Section 2):
//!
//! * the formula AST with variables, constants, atoms, equality, boolean
//!   connectives and quantifiers ([`ast`]);
//! * conjunctive queries and unions of conjunctive queries, the shape
//!   required of the positive part `q+` of effect specifications ([`ucq`]);
//! * a reference evaluator under the **active-domain semantics** the paper
//!   adopts (answers are assignments of free variables to the active domain
//!   of the instance) ([`eval`]);
//! * compiled evaluation plans for (U)CQs, the one UCQ evaluator —
//!   numbered variable slots, join orders fixed at compile time, hoisted
//!   equality checks, and sorted-prefix probes into each instance's
//!   sorted tuples — checked against the reference evaluator ([`plan`]);
//! * equality constraints `Q -> /\ z_i = y_i` and arbitrary FO sentences as
//!   integrity constraints, checked through compiled denial plans when they
//!   are guard-shaped ([`constraints`]);
//! * a safe-range (range-restriction) analyzer, the classical syntactic
//!   criterion for domain independence ([`safety`]);
//! * a lexer and parser for a datalog-flavoured surface syntax (uppercase
//!   identifiers are variables, lowercase or quoted identifiers are
//!   constants) ([`lexer`], [`parser`]);
//! * pretty printing ([`pretty`]).

pub mod ast;
pub mod constraints;
pub mod eval;
#[cfg(test)]
mod eval_cq;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod safety;
pub mod ucq;

pub use ast::{Assignment, Formula, QTerm, Var};
pub use constraints::{Constraint, EqualityConstraint, FallbackReason, FoConstraint, GuardForm};
pub use eval::{answers, answers_over, holds, holds_closed, holds_unguided};
pub use lexer::{Lexer, Span, Token, TokenKind};
pub use parser::{parse_formula, ParseError, Parser, RelUse};
pub use plan::{CompiledPlan, DeltaPlan, EvalCtx, PlanError, PlanStats, Seed, SortedRow};
pub use safety::{is_safe_range, SafetyError};
pub use ucq::{ConjunctiveQuery, Ucq};

/// Errors produced when constructing or evaluating queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An atom's argument count does not match the relation arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments in the atom.
        got: usize,
    },
    /// A free variable was not bound by the supplied assignment.
    UnboundVariable(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "atom over {relation} has {got} arguments but the relation has arity {expected}"
            ),
            QueryError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
        }
    }
}

impl std::error::Error for QueryError {}

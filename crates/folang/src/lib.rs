//! # dcds-folang
//!
//! First-order queries over relational instances, as used throughout the
//! DCDS framework (Bagheri Hariri et al., PODS 2013, Section 2):
//!
//! * the formula AST with variables, constants, atoms, equality, boolean
//!   connectives and quantifiers ([`ast`]);
//! * conjunctive queries and unions of conjunctive queries, the shape
//!   required of the positive part `q+` of effect specifications ([`ucq`]);
//! * compiled evaluation plans, the one FO evaluator under the
//!   **active-domain semantics** the paper adopts (answers are assignments
//!   of free variables to the active domain of the instance) — negation
//!   normal form split into unions of joins, numbered variable slots, join
//!   orders fixed at compile time, hoisted checks and filters, anti-join
//!   sub-plans, explicit ADOM steps for variables no atom binds, and
//!   sorted-prefix probes into each instance's sorted tuples ([`plan`]);
//! * a reference evaluator under the same semantics, straight from the
//!   definition, with the constraint verdicts defined through it, which
//!   the tests hold the plans and the compiled constraint checks to
//!   ([`eval`]);
//! * equality constraints `Q -> /\ z_i = y_i` and arbitrary FO sentences as
//!   integrity constraints, checked as the compiled plan of their violation
//!   ([`constraints`]);
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
pub mod ucq;

pub use ast::{Assignment, Formula, QTerm, Var};
pub use constraints::{Constraint, EqualityConstraint, FoConstraint, GuardForm};
pub use eval::{answers, equality_satisfied, fo_satisfied, holds, holds_closed};
pub use lexer::{Lexer, Span, Token, TokenKind};
pub use parser::{parse_formula, ParseError, Parser, RelUse};
pub use plan::{CompiledPlan, DeltaPlan, EvalCtx, PlanStats, Seed, SortedRow};
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

//! # dcds-reldata
//!
//! Relational data substrate for the DCDS verification stack.
//!
//! This crate implements the *data layer* vocabulary of Bagheri Hariri et al.,
//! "Verification of Relational Data-Centric Dynamic Systems with External
//! Services" (PODS 2013), Section 2.1:
//!
//! * a countably infinite set of constants `C`, realised by a
//!   [`ConstantPool`] that interns named constants and mints fresh ones on
//!   demand ([`value`]);
//! * database schemas `R = {R_1, ..., R_n}` ([`schema`]);
//! * database instances conforming to a schema, with deterministic iteration
//!   order and active-domain computation ([`instance`]);
//! * isomorphism of instances (and of arbitrary "fact graphs") modulo a set
//!   of *rigid* constants, together with canonical forms used to quotient
//!   transition-system states by isomorphism type ([`iso`]).
//!
//! Everything downstream (first-order queries, DCDS semantics, abstractions,
//! bisimulations) is built on these types.

#[cfg(test)]
mod canon_tests;
pub mod display;
pub mod instance;
pub mod iso;
pub mod schema;
pub mod sig;
pub mod tuple;
pub mod value;

pub use display::{FactsDisplay, InstanceDisplay};
pub use instance::Instance;
pub use iso::{CanonKey, CanonStats, DenseCtx, Facts};
pub use schema::{RelId, RelSchema, Schema};
pub use tuple::Tuple;
pub use value::{ConstantPool, Value};

/// Errors produced by the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A tuple's arity does not match the relation schema.
    ArityMismatch {
        /// Relation involved.
        relation: String,
        /// Arity declared in the schema.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A relation name was not found in the schema.
    UnknownRelation(String),
    /// A relation name was declared twice.
    DuplicateRelation(String),
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for relation {relation}: schema declares {expected}, tuple has {got}"
            ),
            RelError::UnknownRelation(name) => write!(f, "unknown relation {name}"),
            RelError::DuplicateRelation(name) => write!(f, "duplicate relation {name}"),
        }
    }
}

impl std::error::Error for RelError {}

//! # dcds-core
//!
//! Data-Centric Dynamic Systems: the primary model of Bagheri Hariri,
//! Calvanese, De Giacomo, Deutsch, Montali, *"Verification of Relational
//! Data-Centric Dynamic Systems with External Services"* (PODS 2013).
//!
//! A DCDS `S = ⟨D, P⟩` couples
//!
//! * a **data layer** `D = ⟨C, R, E, I₀⟩` — constants, schema, equality
//!   constraints and an initial instance ([`data_layer`]); and
//! * a **process layer** `P = ⟨F, A, ρ⟩` — external service interfaces,
//!   atomic actions with conditional effects, and condition–action rules
//!   ([`service`], [`action`], [`process`]).
//!
//! Executing an action computes `DO(I, ασ)` ([`do_op`]) — a set of facts over
//! constants and *ground service calls* (Skolem terms, [`term`]) — and then
//! resolves the calls, either **deterministically** (service-call maps,
//! Section 4.1, [`det`]) or **nondeterministically** (evaluations, Section
//! 5.1, [`nondet`]). Both semantics induce a (generally infinite) concrete
//! transition system; [`ts`] holds the explicit finite transition systems we
//! materialise, and [`explore`] performs bounded concrete exploration, one
//! successor per equality commitment.
//!
//! [`commitment`] implements *equality commitments* (Appendix C.3), the
//! device by which the infinitely many successor evaluations are grouped
//! into finitely many isomorphism types; the finite abstractions themselves
//! live in the `dcds-abstraction` crate.
//!
//! A textual specification format is provided in [`parser`] and a
//! programmatic API in [`builder`].

pub mod action;
pub mod builder;
pub mod commitment;
pub mod compact;
pub mod data_layer;
pub mod dcds;
pub mod det;
pub mod display;
pub mod do_op;
pub mod explore;
pub mod nondet;
pub mod par;
pub mod parser;
pub mod process;
pub mod runner;
pub mod service;
pub mod spec;
pub mod term;
pub mod ts;

pub use action::{Action, ActionId, Effect};
pub use builder::DcdsBuilder;
pub use commitment::{enumerate_commitments, CommitTarget, Commitment};
pub use compact::{CompactTs, StateSpace};
pub use data_layer::DataLayer;
pub use dcds::{Dcds, ValidationError};
pub use det::DetState;
pub use display::{to_spec, DcdsDisplay};
pub use do_op::{
    do_action, do_rows, legal_assignments, legal_sigmas, DoProgram, DoRows, DoTerm, LegalSigmas,
    PlanCache, PreInstance, Sigma,
};
pub use explore::{explore_det, explore_nondet, ExploreOutcome, Limits};
pub use par::{
    configured_threads, par_map, par_map_obs, par_map_with, EngineCounters, MAX_THREADS,
};
pub use parser::parse_dcds;
pub use process::{CaRule, FsProcess, ProcessLayer};
pub use runner::{AnswerPolicy, Runner, StepRecord};
pub use service::{FuncId, ServiceCatalog, ServiceKind};
pub use spec::{parse_spec, DcdsSpec, SpecError};
pub use term::{BaseTerm, ETerm, GTerm, ServiceCall};
pub use ts::{StateId, Ts};

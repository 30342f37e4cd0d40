//! # dcds-verify
//!
//! Verification of relational **data-centric dynamic systems** (DCDSs) with
//! external services — a full implementation of Bagheri Hariri, Calvanese,
//! De Giacomo, Deutsch, Montali, PODS 2013 (arXiv:1203.0024).
//!
//! This crate is the facade over the workspace:
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`reldata`] | `dcds-reldata` | constants, schemas, instances, isomorphism |
//! | [`folang`] | `dcds-folang` | FO queries, UCQs, evaluators, constraints, parser |
//! | [`core`] | `dcds-core` | the DCDS model, both service semantics, transition systems |
//! | [`mucalc`] | `dcds-mucalc` | µL / µLA / µLP, fragment checks, model checkers |
//! | [`analysis`] | `dcds-analysis` | weak acyclicity, GR(⁺)-acyclicity, congruence closure, graph exports |
//! | [`abstraction`] | `dcds-abstraction` | deterministic abstraction, Algorithm RCYCL |
//! | [`symbolic`] | `dcds-symbolic` | regression-based backward reachability for AG/EF safety |
//! | [`lint`] | `dcds-lint` | multi-pass spec diagnostics with stable `DCDS0xx` codes |
//! | [`obs`] | `dcds-obs` | spans, metrics registry, Chrome-trace/JSON exporters, heartbeats |
//! | [`bisim`] | `dcds-bisim` | history-/persistence-preserving bisimulation checkers |
//! | [`reductions`] | `dcds-reductions` | TM reduction, det↔nondet rewrites, artifact systems |
//! | [`mod@bench`] | `dcds-bench` | paper examples, travel systems, workloads, figure regeneration |
//!
//! ## Quickstart
//!
//! ```
//! use dcds_verify::prelude::*;
//!
//! // Example 4.3 of the paper under nondeterministic services: the
//! // R/Q ping-pong is state-bounded, so RCYCL builds a finite faithful
//! // abstraction and µLP properties are decidable on it.
//! let dcds = DcdsBuilder::new()
//!     .relation("R", 1)
//!     .relation("Q", 1)
//!     .service("f", 1, ServiceKind::Nondeterministic)
//!     .init_fact("R", &["a"])
//!     .action("alpha", &[], |a| {
//!         a.effect("R(X)", "Q(f(X))");
//!         a.effect("Q(X)", "R(X)");
//!     })
//!     .rule("true", "alpha")
//!     .build()
//!     .unwrap();
//!
//! // Static sufficient condition (Theorem 5.6): GR-acyclic ⇒ state-bounded.
//! let df = dataflow_graph(&dcds);
//! assert!(is_gr_acyclic(&df));
//!
//! // Finite faithful abstraction via Algorithm RCYCL (Theorem 5.4).
//! let pruning = rcycl(&dcds, 1_000);
//! assert!(pruning.complete);
//!
//! // Model-check a µLP property: "always, some tuple is live".
//! let mut schema = dcds.data.schema.clone();
//! let mut pool = dcds.data.pool.clone();
//! let phi = parse_mu(
//!     "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
//!     &mut schema,
//!     &mut pool,
//! )
//! .unwrap();
//! assert!(check(&phi, &pruning.ts).unwrap());
//! ```

pub use dcds_abstraction as abstraction;
pub use dcds_analysis as analysis;
pub use dcds_bench as bench;
pub use dcds_bisim as bisim;
pub use dcds_core as core;
pub use dcds_folang as folang;
pub use dcds_lint as lint;
pub use dcds_mucalc as mucalc;
pub use dcds_obs as obs;
pub use dcds_reductions as reductions;
pub use dcds_reldata as reldata;
pub use dcds_symbolic as symbolic;

pub mod cli;

/// The most common imports in one place.
pub mod prelude {
    pub use dcds_abstraction::{det_abstraction, rcycl, AbsOutcome};
    pub use dcds_analysis::gr_acyclicity::{is_gr_acyclic, is_gr_plus_acyclic};
    pub use dcds_analysis::{dataflow_graph, dependency_graph, is_weakly_acyclic};
    pub use dcds_bisim::{history_bisimilar, persistence_bisimilar};
    pub use dcds_core::explore::{explore_det, explore_nondet, Limits};
    pub use dcds_core::{parse_dcds, Dcds, DcdsBuilder, ServiceKind, Ts};
    pub use dcds_folang::{parse_formula, Formula};
    pub use dcds_mucalc::{check, classify, parse_mu, propositionalize, sugar, Fragment, Mu};
    pub use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};
    pub use dcds_symbolic::{check_safety, SymOptions, SymVerdict};
}

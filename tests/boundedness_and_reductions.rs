//! Integration tests for the boundedness machinery and the Section 6
//! reductions, exercised across crates:
//!
//! * Lemma 4.1: the positive approximate over-approximates run growth;
//! * Theorem 4.7: weakly acyclic ⇒ run-bounded (empirically: abstraction
//!   saturation across a family of systems);
//! * Theorem 5.6: GR-acyclic ⇒ state-bounded (empirically: RCYCL
//!   saturation), and the converse failure modes;
//! * Theorems 6.1/6.2 round trip: det → nondet → det preserves the
//!   original-schema behaviours.

use dcds_verify::abstraction::{observe_run_bound, observe_state_bound};
use dcds_verify::analysis::positive_approximate;
use dcds_verify::bench::{examples, synthetic};
use dcds_verify::prelude::*;
use dcds_verify::reductions::{det_to_nondet, nondet_to_det};

#[test]
fn lemma_4_1_positive_approximate_dominates() {
    // For every depth, the approximate's witnessed run bound dominates the
    // original's (it has strictly more behaviours).
    for dcds in [examples::example_4_1(), examples::example_4_2()] {
        let plus = positive_approximate(&dcds);
        for depth in 1..=3 {
            let orig = observe_run_bound(&dcds, depth, 3_000);
            let approx = observe_run_bound(&plus, depth, 3_000);
            assert!(
                approx.max_observed >= orig.max_observed,
                "S+ must dominate S at depth {depth}"
            );
        }
    }
}

#[test]
fn theorem_4_7_weak_acyclicity_implies_saturation() {
    // Weakly acyclic systems: deterministic abstraction saturates.
    for (name, dcds) in [
        ("example_4_1", examples::example_4_1()),
        ("example_4_2", examples::example_4_2()),
        ("copy_chain_4", synthetic::copy_chain(4)),
        ("service_chain_2", synthetic::service_chain(2)),
    ] {
        let dg = dependency_graph(&dcds);
        assert!(is_weakly_acyclic(&dg), "{name}");
        let abs = det_abstraction(&dcds, 4_000);
        assert_eq!(abs.outcome, AbsOutcome::Complete, "{name}");
        // And the theoretical bound of the Theorem 4.7 proof is finite.
        let bound = dcds_verify::analysis::run_bound_estimate(&dcds, &dg).unwrap();
        assert!(bound.is_finite(), "{name}");
    }
    // Contrast: the non-weakly-acyclic Example 4.3 does not saturate.
    let e43 = examples::example_4_3(ServiceKind::Deterministic);
    assert!(!is_weakly_acyclic(&dependency_graph(&e43)));
    assert_eq!(det_abstraction(&e43, 60).outcome, AbsOutcome::Truncated);
}

#[test]
fn theorem_5_6_gr_acyclicity_implies_rcycl_saturation() {
    for (name, dcds) in [
        ("example_5_1", examples::example_5_1()),
        ("flush_ladder", synthetic::flush_ladder()),
    ] {
        let df = dataflow_graph(&dcds);
        assert!(is_gr_plus_acyclic(&df), "{name} should be GR(+)-acyclic");
        let res = rcycl(&dcds, 4_000);
        assert!(res.complete, "{name} should saturate");
    }
    for (name, dcds) in [
        ("example_5_2", examples::example_5_2()),
        ("example_5_3", examples::example_5_3()),
        ("accumulator_2", synthetic::accumulator(2)),
    ] {
        let df = dataflow_graph(&dcds);
        assert!(!is_gr_plus_acyclic(&df), "{name}");
        let res = rcycl(&dcds, 100);
        assert!(!res.complete, "{name} should truncate");
    }
}

#[test]
fn state_bounds_track_gr_verdicts() {
    // Example 5.3 is special: NOT GR-acyclic yet its states grow without
    // accumulating per-value (the count of tuples doubles — and with it the
    // number of calls per step, so observation depth must stay shallow:
    // commitment enumeration is exponential in the per-step call count).
    let e53 = examples::example_5_3();
    let shallow = observe_state_bound(&e53, 1, 500);
    let deep = observe_state_bound(&e53, 2, 500);
    assert!(deep.max_observed > shallow.max_observed);
    // Example 5.1 stays flat.
    let e51 = examples::example_5_1();
    assert_eq!(observe_state_bound(&e51, 4, 5_000).max_observed, 1);
}

#[test]
fn theorems_6_1_6_2_round_trip() {
    // det → nondet → det: the double rewrite preserves the original-schema
    // reachable isomorphism types on a bounded horizon.
    use dcds_verify::core::explore::{explore_det, Limits};
    use dcds_verify::reldata::Facts;
    use std::collections::BTreeSet;

    let d0 = examples::example_4_3(ServiceKind::Deterministic);
    let n1 = det_to_nondet(&d0).unwrap();
    let d2 = nondet_to_det(&n1).unwrap();

    let limits = Limits {
        max_states: 500,
        max_depth: 2,
    };
    let e0 = explore_det(&d0, limits);
    let e2 = explore_det(&d2, limits);

    let orig: BTreeSet<_> = d0.data.schema.rel_ids().collect();
    let rigid = d0.rigid_constants();
    let keys = |ts: &Ts| -> BTreeSet<dcds_verify::reldata::CanonKey> {
        ts.state_ids()
            .map(|s| Facts::from_instance(&ts.db(s).project(&orig)).canonical_key(&rigid))
            .collect()
    };
    // The doubly-rewritten system shows every original isomorphism type.
    let k0 = keys(&e0.ts);
    let k2 = keys(&e2.ts);
    assert!(
        k0.is_subset(&k2),
        "double rewrite must preserve original behaviours"
    );
}

#[test]
fn run_bounded_but_not_weakly_acyclic_exists() {
    // Weak acyclicity is sufficient, not necessary: a system whose cycle
    // through a special edge is semantically dead (guarded by an
    // always-false filter) is run-bounded yet rejected by the syntactic
    // check — exactly the precision/decidability trade the paper makes.
    let dcds = DcdsBuilder::new()
        .relation("R", 1)
        .relation("Q", 1)
        .service("f", 1, ServiceKind::Deterministic)
        .init_fact("R", &["a"])
        .action("alpha", &[], |a| {
            // The generating effect can never fire (filter is false).
            a.effect("R(X) & X != X", "Q(f(X))");
            a.effect("Q(X)", "R(X)");
            a.effect("R(X)", "R(X)");
        })
        .rule("true", "alpha")
        .build()
        .unwrap();
    let dg = dependency_graph(&dcds);
    assert!(!is_weakly_acyclic(&dg), "syntactically rejected");
    let abs = det_abstraction(&dcds, 100);
    assert_eq!(abs.outcome, AbsOutcome::Complete, "semantically bounded");
}

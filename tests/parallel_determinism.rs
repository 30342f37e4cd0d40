//! Parallel engines are bit-identical to the serial ones.
//!
//! The abstraction engines are level-synchronised and phase-split: query
//! evaluation fans out over worker threads, while every order-sensitive
//! effect (constant minting, dedup and state-id allocation) replays the
//! serial order. The contract is not
//! "isomorphic output" but **structural equality**: same states in the same
//! order, same edges, same outcome, same pool, same counters — at every
//! thread count.
//!
//! This suite checks that contract on the paper's running examples
//! (4.1, 4.2, 4.3, 5.1, 5.2) and the Appendix E travel-reimbursement
//! systems, for 1, 2, and 8 worker threads.

use dcds_verify::abstraction::{
    det_abstraction_traced, rcycl_traced, reference, AbsOptions, DetAbstraction, RcyclResult,
    StateKeys,
};
use dcds_verify::bench::{examples, travel};
use dcds_verify::core::{Dcds, ServiceKind};
use dcds_verify::obs::Obs;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn det_runs(dcds: &Dcds, max_states: usize) -> Vec<DetAbstraction> {
    THREAD_COUNTS
        .into_iter()
        .map(|threads| {
            det_abstraction_traced(
                dcds,
                max_states,
                AbsOptions {
                    threads,
                    ..AbsOptions::default()
                },
                &Obs::disabled(),
            )
        })
        .collect()
}

fn assert_det_runs_identical(name: &str, runs: &[DetAbstraction]) {
    let base = &runs[0];
    for (other, threads) in runs[1..].iter().zip(&THREAD_COUNTS[1..]) {
        assert_eq!(base.ts, other.ts, "{name}: Ts differs at {threads} threads");
        assert_eq!(
            base.outcome, other.outcome,
            "{name}: outcome differs at {threads} threads"
        );
        assert_eq!(
            base.pool.len(),
            other.pool.len(),
            "{name}: pool differs at {threads} threads"
        );
        assert_eq!(
            base.counters, other.counters,
            "{name}: counters differ at {threads} threads"
        );
    }
}

fn rcycl_runs(dcds: &Dcds, max_states: usize) -> Vec<RcyclResult> {
    THREAD_COUNTS
        .into_iter()
        .map(|threads| {
            rcycl_traced(
                dcds,
                max_states,
                threads,
                StateKeys::Exact,
                &Obs::disabled(),
            )
        })
        .collect()
}

fn assert_rcycl_runs_identical(name: &str, runs: &[RcyclResult]) {
    let base = &runs[0];
    for (other, threads) in runs[1..].iter().zip(&THREAD_COUNTS[1..]) {
        assert_eq!(base.ts, other.ts, "{name}: Ts differs at {threads} threads");
        assert_eq!(
            base.complete, other.complete,
            "{name}: completeness differs at {threads} threads"
        );
        assert_eq!(
            base.used_values, other.used_values,
            "{name}: UsedValues differs at {threads} threads"
        );
        assert_eq!(
            base.triples_processed, other.triples_processed,
            "{name}: triple count differs at {threads} threads"
        );
        assert_eq!(
            base.pool.len(),
            other.pool.len(),
            "{name}: pool differs at {threads} threads"
        );
        assert_eq!(
            base.counters, other.counters,
            "{name}: counters differ at {threads} threads"
        );
    }
}

#[test]
fn det_abstraction_examples_are_thread_count_invariant() {
    for (name, dcds, budget) in [
        ("Example 4.1", examples::example_4_1(), 200),
        ("Example 4.2", examples::example_4_2(), 200),
        (
            "Example 4.3 (det)",
            examples::example_4_3(ServiceKind::Deterministic),
            60,
        ),
    ] {
        let runs = det_runs(&dcds, budget);
        assert_det_runs_identical(name, &runs);
    }
}

#[test]
fn det_abstraction_travel_audit_is_thread_count_invariant() {
    let dcds = travel::audit_system_small();
    let runs = det_runs(&dcds, 80);
    assert_det_runs_identical("travel audit (small)", &runs);
    // The workload is non-trivial: every run expanded real frontiers.
    assert!(runs[0].counters.states_expanded > 1);
    assert!(runs[0].counters.successors_generated > runs[0].counters.states_expanded);
}

#[test]
fn rcycl_examples_are_thread_count_invariant() {
    for (name, dcds, budget) in [
        ("Example 5.1", examples::example_5_1(), 100),
        ("Example 5.2", examples::example_5_2(), 80),
    ] {
        let runs = rcycl_runs(&dcds, budget);
        assert_rcycl_runs_identical(name, &runs);
    }
}

#[test]
fn rcycl_travel_request_is_thread_count_invariant() {
    let dcds = travel::request_system_small();
    let runs = rcycl_runs(&dcds, 150);
    assert_rcycl_runs_identical("travel request (small)", &runs);
    // The travel pruning has a real θ fan-out per triple.
    assert!(runs[0].counters.successors_generated > 100);
}

#[test]
fn det_abstraction_matches_reference_on_travel_audit() {
    // The signature-bucketed canonical-key index defines the same quotient
    // as the pairwise-isomorphism reference construction.
    let dcds = travel::audit_system_small();
    let abs = det_abstraction_traced(
        &dcds,
        80,
        AbsOptions {
            threads: 4,
            ..AbsOptions::default()
        },
        &Obs::disabled(),
    );
    let (ref_ts, ref_outcome, _) = reference::det_abstraction(&dcds, 80);
    assert_eq!(abs.outcome, ref_outcome);
    assert_eq!(abs.ts, ref_ts);
}

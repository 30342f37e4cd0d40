//! Seeded engine-level differential: each abstraction construction
//! against the small reference constructions, over synthetic families
//! and SplitMix64-seeded random systems, at 1, 2, 4 and 8 worker threads.
//!
//! Every thread count must build the **bit-identical** result of the
//! 1-thread run: same transition system (states in the same order, same
//! edges), same outcome/completeness, same minted constant pool, and the
//! same value of every engine counter — including canonical keys computed
//! and signature-filter skips, i.e. the same dedup decisions, not just the
//! same final answer. The 1-thread run must equal the reference
//! construction (`dcds_abstraction::reference`, pairwise isomorphism
//! checks) on the system, the outcome and the pool.

use dcds_abstraction::{
    det_abstraction_traced, rcycl_traced, reference, AbsOptions, DetAbstraction, RcyclResult,
    StateKeys,
};
use dcds_bench::synthetic::{self, RandomParams};
use dcds_bench::{examples, travel};
use dcds_core::{Dcds, ServiceKind};
use dcds_obs::Obs;

/// Run the det abstraction at 1 thread and assert that 2, 4 and 8 threads
/// build the same result; return the 1-thread run.
fn det_threads_agree(dcds: &Dcds, budget: usize, opts: AbsOptions) -> DetAbstraction {
    let run = |threads| {
        let opts = AbsOptions { threads, ..opts };
        det_abstraction_traced(dcds, budget, opts, &Obs::disabled())
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(par.ts, serial.ts, "det ts diverged at {threads} threads");
        assert_eq!(par.outcome, serial.outcome);
        assert_eq!(par.pool.len(), serial.pool.len());
        assert_eq!(
            par.counters, serial.counters,
            "det counters diverged at {threads} threads"
        );
    }
    serial
}

/// The RCYCL analogue of [`det_threads_agree`].
fn rcycl_threads_agree(dcds: &Dcds, budget: usize) -> RcyclResult {
    let run = |threads| rcycl_traced(dcds, budget, threads, StateKeys::Exact, &Obs::disabled());
    let serial = run(1);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(par.ts, serial.ts, "rcycl ts diverged at {threads} threads");
        assert_eq!(par.complete, serial.complete);
        assert_eq!(par.state_budget_hit, serial.state_budget_hit);
        assert_eq!(par.eval_budget_skips, serial.eval_budget_skips);
        assert_eq!(par.used_values, serial.used_values);
        assert_eq!(par.triples_processed, serial.triples_processed);
        assert_eq!(par.pool.len(), serial.pool.len());
        assert_eq!(
            par.counters, serial.counters,
            "rcycl counters diverged at {threads} threads"
        );
    }
    serial
}

fn assert_det_identical(dcds: &Dcds, budget: usize) {
    let (ref_ts, ref_outcome, ref_pool) = reference::det_abstraction(dcds, budget);
    let abs = det_threads_agree(dcds, budget, AbsOptions::default());
    assert_eq!(abs.ts, ref_ts, "det engine differs from the reference");
    assert_eq!(abs.outcome, ref_outcome);
    assert_eq!(abs.pool.len(), ref_pool.len());
}

fn assert_rcycl_identical(dcds: &Dcds, budget: usize) {
    let (ref_ts, ref_complete, ref_pool, ref_used) = reference::rcycl(dcds, budget);
    let res = rcycl_threads_agree(dcds, budget);
    assert_eq!(res.ts, ref_ts, "RCYCL engine differs from the reference");
    assert_eq!(res.complete, ref_complete);
    assert_eq!(res.pool.len(), ref_pool.len());
    // The engine grows UsedValues from θ's image alone; the reference by
    // the definition, `∪= ADOM(I_next)`.
    assert_eq!(res.used_values, ref_used);
}

#[test]
fn storages_match_reference_on_paper_examples() {
    // Examples 4.1, 4.2 (saturating) and 4.3 (truncating) through the det
    // abstraction, Examples 5.1 (saturating) and 5.2 (truncating) through
    // RCYCL.
    assert_det_identical(&examples::example_4_1(), 60);
    assert_det_identical(&examples::example_4_2(), 60);
    assert_det_identical(&examples::example_4_3(ServiceKind::Deterministic), 60);
    assert_rcycl_identical(&examples::example_5_1(), 100);
    assert_rcycl_identical(&examples::example_5_2(), 80);
    // Appendix E's audit system, full and small, through the det
    // abstraction: its `CheckTravel` joins are keyed on non-prefix columns
    // (`Hotel` on its `passed` column, then `Flight` on `trId` and
    // `passed`), so those steps run as filtered relation scans.
    assert_det_identical(&travel::audit_system_small(), 400);
    assert_det_identical(&travel::audit_system(), 400);
}

#[test]
fn det_storages_match_reference_on_synthetic_families() {
    assert_det_identical(&synthetic::service_chain(6), 400);
    assert_det_identical(&synthetic::service_cycle(4), 400);
    assert_det_identical(&synthetic::parallel_rings(2), 300);
}

#[test]
fn det_storages_match_reference_on_collision_heavy_family() {
    // Thousands of isomorphism classes behind a handful of signatures:
    // the exact-match key index must make the same dedup decisions (and
    // counters) at every thread count even when whole levels collide.
    assert_det_identical(&synthetic::collision_pairs(7), 400);
}

#[test]
fn det_level_chunking_is_output_invariant() {
    // Wide BFS levels are stepped in `level_chunk`-sized batches to bound
    // transient allocation. Chunking must not change anything observable:
    // force pathologically small chunks (so every level spans many chunk
    // boundaries) and require bit-identity with the default chunking —
    // same Ts, same pool, same counters, at every thread count.
    for dcds in [
        synthetic::service_chain(6),
        synthetic::collision_pairs(7),
        synthetic::parallel_rings(2),
    ] {
        let baseline = det_threads_agree(&dcds, 400, AbsOptions::default());
        for level_chunk in [1, 3, 64] {
            let opts = AbsOptions {
                level_chunk,
                ..AbsOptions::default()
            };
            let chunked = det_threads_agree(&dcds, 400, opts);
            let at = format!("chunk {level_chunk}");
            assert_eq!(chunked.ts, baseline.ts, "ts diverged at {at}");
            assert_eq!(chunked.pool.len(), baseline.pool.len());
            assert_eq!(
                chunked.counters, baseline.counters,
                "counters diverged at {at}"
            );
        }
    }
}

/// The RCYCL systems of `plan_paths`: the travel-request pruning and the
/// accumulator.
#[test]
fn rcycl_thread_count_invariant_with_plans() {
    rcycl_threads_agree(&travel::request_system_small(), 5000);
    rcycl_threads_agree(&synthetic::accumulator(2), 400);
}

/// The det system of `plan_paths`: the small audit system, whose
/// `CheckTravel` joins run as filtered scans.
#[test]
fn det_abstraction_thread_count_invariant_with_plans() {
    det_threads_agree(&travel::audit_system_small(), 2000, AbsOptions::default());
}

#[test]
fn rcycl_storages_match_reference_on_synthetic_families() {
    assert_rcycl_identical(&synthetic::phased_rings(3), 500);
    assert_rcycl_identical(&synthetic::flush_ladder(), 500);
    assert_rcycl_identical(&synthetic::accumulator(2), 120);
}

/// RCYCL looks each θ-successor up by its fact key before building it,
/// and runs the constraints only on a key it has not seen. These systems
/// exercise the corners of that path.
mod key_path {
    use super::*;
    use dcds_core::DcdsBuilder;
    use dcds_obs::ObsConfig;
    use dcds_reldata::Tuple;

    /// Two calls into `Q`, whose constraint keeps only the θ that give
    /// both the same value.
    fn constrained_pair() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .service("g", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .constraint("Q(X) & Q(Y) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("R(X)", "Q(g(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    /// `R(f(a))` beside the constant fact `R(b)`: θ(f(a)) = b resolves
    /// both pre-facts to one fact.
    fn merging_heads() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "R(f(X))");
                a.effect("R(X)", "R('b')");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    /// An unvalidated system whose `I₀ = {R(a), R(c)}` breaks "at most
    /// one R"; `copy` maps `I₀` to itself, which must be rejected.
    fn invalid_initial() -> Dcds {
        let valid = DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .constraint("R(X) & R(Y) -> X = Y")
            .action("copy", &[], |a| {
                a.effect("R(X)", "R(X)");
            })
            .action("call", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "copy")
            .rule("true", "call")
            .build()
            .unwrap();
        let mut data = valid.data.clone();
        let r = data.schema.rel_id("R").unwrap();
        let c = data.pool.intern("c");
        data.initial.insert(r, Tuple::from([c]));
        Dcds::from_parts(data, valid.process.clone())
    }

    /// Total θ fan-out of one traced RCYCL run, against the successors it
    /// kept.
    fn fanout_and_successors(dcds: &Dcds, budget: usize) -> (u64, u64) {
        let obs = Obs::enabled(ObsConfig::default());
        let res = rcycl_traced(dcds, budget, 1, StateKeys::Exact, &obs);
        let metrics = obs.finish().unwrap().metrics;
        let fanout = metrics.histogram("rcycl.theta_fanout").unwrap().sum;
        let fanout = u64::try_from(fanout).unwrap();
        (fanout, res.counters.successors_generated)
    }

    #[test]
    fn constraints_reject_some_theta_successors() {
        let dcds = constrained_pair();
        let (fanout, kept) = fanout_and_successors(&dcds, 200);
        assert!(kept > 0 && kept < fanout, "{kept} of {fanout}");
        assert_rcycl_identical(&dcds, 200);
    }

    #[test]
    fn resolution_merges_pre_facts() {
        let dcds = merging_heads();
        let res = rcycl_traced(&dcds, 200, 1, StateKeys::Exact, &Obs::disabled());
        // From {R(a)}, θ(f(a)) = b reaches the one-fact state {R(b)}.
        let s0 = res.ts.initial();
        assert!(res
            .ts
            .successors(s0)
            .iter()
            .any(|&s| res.ts.db(s).len() == 1));
        assert_rcycl_identical(&dcds, 200);
    }

    /// Exact and up to isomorphism: a successor equal to, or in the class
    /// of, an `I₀` that breaks a constraint is rejected. (`I₀`'s values
    /// are all rigid, so its class is `I₀` alone.)
    #[test]
    fn an_unvalidated_initial_state_is_not_a_successor() {
        let dcds = invalid_initial();
        assert!(!dcds.data.satisfies_constraints(&dcds.data.initial));
        for keys in [StateKeys::Exact, StateKeys::UpToIsomorphism] {
            let res = rcycl_traced(&dcds, 200, 1, keys, &Obs::disabled());
            let s0 = res.ts.initial();
            assert!(!res.ts.successors(s0).is_empty());
            assert!(res
                .ts
                .state_ids()
                .all(|s| !res.ts.successors(s).contains(&s0)));
        }
        assert_rcycl_identical(&dcds, 200);
    }
}

#[test]
fn det_storages_match_reference_on_seeded_random_systems() {
    for seed in [7, 21, 1977] {
        let dcds = synthetic::random_dcds(
            seed,
            RandomParams {
                kind: ServiceKind::Deterministic,
                ..RandomParams::default()
            },
        );
        assert_det_identical(&dcds, 300);
    }
}

#[test]
fn rcycl_storages_match_reference_on_seeded_random_systems() {
    for seed in [3, 1013] {
        let dcds = synthetic::random_dcds(
            seed,
            RandomParams {
                kind: ServiceKind::Nondeterministic,
                call_probability: 0.6,
                ..RandomParams::default()
            },
        );
        assert_rcycl_identical(&dcds, 250);
    }
}

//! Seeded engine-level differential: each abstraction construction in
//! both state storages against the small reference constructions, over
//! synthetic families and SplitMix64-seeded random systems, at 1, 2, 4
//! and 8 worker threads.
//!
//! The owned and store storages must build **bit-identical** results:
//! same transition system (states in the same order, same edges), same
//! outcome/completeness, same minted constant pool, and the same value of
//! every engine counter — including canonical keys computed and
//! signature-filter skips, i.e. the same dedup decisions, not just the
//! same final answer. Both must equal the reference construction
//! (`dcds_abstraction::reference`, pairwise isomorphism checks) on the
//! system, the outcome and the pool.

use dcds_abstraction::{
    det_abs, det_abstraction, rcycl, reference, AbsOptions, AbsOutcome, Owned, Store,
    OWNED_MAX_STATES,
};
use dcds_bench::synthetic::{self, RandomParams};
use dcds_bench::{examples, parity, travel};
use dcds_core::{Dcds, ServiceKind, StateSpace};
use dcds_obs::Obs;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_det_identical(dcds: &Dcds, budget: usize) {
    let (ref_ts, ref_outcome, ref_pool) = reference::det_abstraction(dcds, budget);
    for threads in THREAD_COUNTS {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let owned = parity::det_storages_agree(dcds, budget, opts);
        assert_eq!(owned.ts, ref_ts, "det engine differs from the reference");
        assert_eq!(owned.outcome, ref_outcome);
        assert_eq!(owned.pool.len(), ref_pool.len());
    }
}

fn assert_rcycl_identical(dcds: &Dcds, budget: usize) {
    let (ref_ts, ref_complete, ref_pool, ref_used) = reference::rcycl(dcds, budget);
    for threads in THREAD_COUNTS {
        let owned = parity::rcycl_storages_agree(dcds, budget, threads);
        assert_eq!(owned.ts, ref_ts, "RCYCL engine differs from the reference");
        assert_eq!(owned.complete, ref_complete);
        assert_eq!(owned.pool.len(), ref_pool.len());
        // The engine grows UsedValues from θ's image alone; the reference
        // by the definition, `∪= ADOM(I_next)`.
        assert_eq!(
            owned.used_values, ref_used,
            "UsedValues differ at {threads} threads"
        );
    }
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
    // counters) in both storages even when whole levels collide.
    assert_det_identical(&synthetic::collision_pairs(7), 400);
}

#[test]
fn det_level_chunking_is_output_invariant() {
    // Wide BFS levels are stepped in `level_chunk`-sized batches to bound
    // transient allocation. Chunking must not change anything observable:
    // force pathologically small chunks (so every level spans many chunk
    // boundaries) and require bit-identity with the default chunking in
    // both storages — same Ts, same pool, same counters, at every thread
    // count.
    for dcds in [
        synthetic::service_chain(6),
        synthetic::collision_pairs(7),
        synthetic::parallel_rings(2),
    ] {
        for threads in [1, 4] {
            let opts = AbsOptions {
                threads,
                ..AbsOptions::default()
            };
            let baseline = det_abs::build::<Owned>(&dcds, 400, opts, &Obs::disabled());
            for level_chunk in [1, 3, 64] {
                let opts = AbsOptions {
                    level_chunk,
                    ..opts
                };
                let chunked = parity::det_storages_agree(&dcds, 400, opts);
                let at = format!("chunk {level_chunk}, {threads} threads");
                assert_eq!(chunked.ts, baseline.ts, "ts diverged at {at}");
                assert_eq!(chunked.pool.len(), baseline.pool.len());
                assert_eq!(
                    chunked.counters, baseline.counters,
                    "counters diverged at {at}"
                );
            }
        }
    }
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
        let res = rcycl::build::<Owned>(dcds, budget, 1, &obs);
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
        let res = rcycl::build::<Owned>(&dcds, 200, 1, &Obs::disabled());
        // From {R(a)}, θ(f(a)) = b reaches the one-fact state {R(b)}.
        let s0 = res.ts.initial();
        assert!(res
            .ts
            .successors(s0)
            .iter()
            .any(|&s| res.ts.db(s).len() == 1));
        assert_rcycl_identical(&dcds, 200);
    }

    #[test]
    fn an_unvalidated_initial_state_is_not_a_successor() {
        let dcds = invalid_initial();
        assert!(!dcds.data.satisfies_constraints(&dcds.data.initial));
        let res = rcycl::build::<Owned>(&dcds, 200, 1, &Obs::disabled());
        let s0 = res.ts.initial();
        assert!(!res.ts.successors(s0).is_empty());
        assert!(res
            .ts
            .state_ids()
            .all(|s| !res.ts.successors(s).contains(&s0)));
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

#[test]
fn the_budget_picks_the_storage() {
    // The public entry points keep states owned up to OWNED_MAX_STATES and
    // in the store above it — with the same result either way.
    let det = synthetic::service_chain(4);
    let small = det_abstraction(&det, OWNED_MAX_STATES);
    let large = det_abstraction(&det, OWNED_MAX_STATES + 1);
    assert!(matches!(small.ts, StateSpace::Owned(_)));
    assert!(matches!(large.ts, StateSpace::Store(_)));
    assert_eq!(small.outcome, AbsOutcome::Complete);
    assert_eq!(small.ts, large.ts);
    assert_eq!(small.counters, large.counters);

    let nondet = synthetic::phased_rings(2);
    let small = rcycl(&nondet, OWNED_MAX_STATES);
    let large = rcycl(&nondet, OWNED_MAX_STATES + 1);
    assert!(matches!(small.ts, StateSpace::Owned(_)));
    assert!(matches!(large.ts, StateSpace::Store(_)));
    assert!(small.complete);
    assert_eq!(small.ts, large.ts);
    assert_eq!(small.counters, large.counters);
}

#[test]
fn store_keeps_successors_as_deltas() {
    // The truncating Example 4.3 run: successors extend their parent, so
    // almost every state is stored as a delta over it.
    let dcds = examples::example_4_3(ServiceKind::Deterministic);
    let opts = AbsOptions::default();
    let abs = det_abs::build::<Store>(&dcds, 60, opts, &Obs::disabled());
    let stats = abs.ts.store_stats();
    assert_eq!(stats.states(), 60);
    assert!(stats.delta_states > 40, "stats: {stats:?}");
    assert!(stats.delta_share() > 0.3, "stats: {stats:?}");
}

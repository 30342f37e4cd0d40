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
use dcds_bench::{examples, parity};
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
    let (ref_ts, ref_complete, ref_pool) = reference::rcycl(dcds, budget);
    for threads in THREAD_COUNTS {
        let owned = parity::rcycl_storages_agree(dcds, budget, threads);
        assert_eq!(owned.ts, ref_ts, "RCYCL engine differs from the reference");
        assert_eq!(owned.complete, ref_complete);
        assert_eq!(owned.pool.len(), ref_pool.len());
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

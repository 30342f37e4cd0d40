//! The det abstraction's commitment screen against the definitional step.
//!
//! On every reachable state of a set of systems, for every legal `ασ` and
//! every equality commitment of its new calls, the screened step
//! ([`SplitDo::step`] on the program's `DO(I, ασ)`: its base checked once, the
//! call-bearing facts resolved into a delta and screened, the successor
//! built only for survivors) must return exactly what
//! [`det_step_with_pre`] returns: `None` for the same commitments, the
//! same `DetState` otherwise. The systems cover every path of the
//! screen: delta checks (keys, equality constraints, the collision
//! constraints), a consequent that reads a relation, a premise outside the
//! UCQs, and a base that already violates a constraint. The engine's
//! commitment counters are pinned at several thread counts.

use dcds_abstraction::{det_abstraction_traced, AbsOptions};
use dcds_bench::{examples, synthetic};
use dcds_core::commitment::instantiate;
use dcds_core::det::{det_step_with_pre, DetState, SplitDo};
use dcds_core::{
    do_action, do_rows, enumerate_commitments, legal_sigmas, parse_dcds, Dcds, DcdsBuilder, DoRows,
    ServiceKind,
};
use dcds_obs::{Obs, ObsConfig};
use dcds_reldata::Value;
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Walk up to `max_states` reachable states (one per isomorphism class)
/// and compare the two steps on every commitment. Returns the number of
/// commitments compared and how many the constraints rejected.
fn screened_steps_agree(dcds: &Dcds, max_states: usize) -> (usize, usize) {
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let mut pool = dcds.working_pool();
    let s0 = DetState::initial(dcds);
    let mut seen = HashSet::from([s0.to_facts(num_rels).canonical_key(&rigid)]);
    let mut queue = VecDeque::from([s0]);
    let (mut compared, mut rejected) = (0, 0);
    while let Some(state) = queue.pop_front() {
        let mut known: BTreeSet<Value> = state.known_values();
        known.extend(rigid.iter().copied());
        let known: Vec<Value> = known.into_iter().collect();
        let mut rows = DoRows::default();
        for sigma in legal_sigmas(dcds, &state.instance).iter() {
            let pre = do_action(dcds, &state.instance, sigma.action, &sigma.assignment(dcds));
            do_rows(dcds, &state.instance, sigma, &mut rows);
            let split = SplitDo::new(dcds, &state, &rows);
            let new_calls: Vec<_> = pre
                .calls()
                .into_iter()
                .filter(|c| !state.call_map.contains_key(c))
                .collect();
            assert_eq!(split.new_calls(), new_calls.as_slice());
            for commitment in enumerate_commitments(split.new_calls(), &known) {
                let choice = instantiate(&commitment, &mut pool);
                let want = det_step_with_pre(dcds, &state, &pre, &choice);
                assert_eq!(
                    split.step(dcds, &state, &choice),
                    want,
                    "screened step differs on {commitment:?} from {state:?}"
                );
                compared += 1;
                let Some(next) = want else {
                    rejected += 1;
                    continue;
                };
                if seen.len() < max_states
                    && seen.insert(next.to_facts(num_rels).canonical_key(&rigid))
                {
                    queue.push_back(next);
                }
            }
        }
    }
    (compared, rejected)
}

/// Both outcomes of the screen occur on the system.
fn agrees_with_both_outcomes(dcds: &Dcds, max_states: usize) {
    let (compared, rejected) = screened_steps_agree(dcds, max_states);
    assert!(
        rejected > 0 && rejected < compared,
        "{rejected} of {compared} commitments rejected"
    );
}

#[test]
fn collision_pairs_screen_like_the_full_step() {
    // Sum of T(0..5) = 44 states; most commitments hit a rigid tag.
    let (compared, rejected) = screened_steps_agree(&synthetic::collision_pairs(5), 100);
    assert!(
        compared > 100 && rejected * 2 > compared,
        "{rejected} of {compared}"
    );
}

#[test]
fn travel_request_screens_like_the_full_step() {
    let src = include_str!("../../../specs/travel_request.dcds");
    let dcds = parse_dcds(src).expect("shipped spec parses");
    agrees_with_both_outcomes(&dcds, 300);
}

#[test]
fn example_4_2_screens_like_the_full_step() {
    agrees_with_both_outcomes(&examples::example_4_2(), 100);
}

/// Example 4.1's system with one extra constraint.
fn example_4_1_with(constraint: impl FnOnce(DcdsBuilder) -> DcdsBuilder) -> Dcds {
    let b = DcdsBuilder::new()
        .relation("Q", 2)
        .relation("P", 1)
        .relation("R", 1)
        .service("f", 1, ServiceKind::Deterministic)
        .service("g", 1, ServiceKind::Deterministic)
        .init_fact("P", &["a"])
        .init_fact("Q", &["a", "a"])
        .action("alpha", &[], |a| {
            a.effect("Q(a,a) & P(X)", "R(X)");
            a.effect("P(X)", "P(X), Q(f(X), g(X))");
        })
        .rule("true", "alpha");
    constraint(b).build().unwrap()
}

#[test]
fn a_consequent_that_reads_a_relation_is_checked_in_full() {
    // `Q(X, Y) -> P(X)`: its consequent reads P, so there is no delta
    // check and every commitment goes through the full check.
    let dcds = example_4_1_with(|b| b.fo_constraint("forall X, Y . Q(X, Y) -> P(X)"));
    assert!(dcds
        .data
        .fo_constraints
        .iter()
        .all(|c| c.fallback().is_none()));
    agrees_with_both_outcomes(&dcds, 100);
}

#[test]
fn a_premise_outside_the_ucqs_is_checked_in_full() {
    let dcds = example_4_1_with(|b| b.constraint("P(X) & Q(Y, Z) & !R(Y) -> X = Y"));
    assert!(dcds.data.constraints.iter().all(|c| c.fallback().is_some()));
    agrees_with_both_outcomes(&dcds, 100);
}

#[test]
fn a_violating_base_rejects_every_commitment() {
    // `go` asserts S(a), which the constraint forbids, beside a fresh
    // call: the base alone violates it, so every commitment of `go` is
    // rejected; `stay` keeps the system moving.
    let dcds = DcdsBuilder::new()
        .relation("P", 1)
        .relation("S", 1)
        .relation("Q", 1)
        .service("f", 1, ServiceKind::Deterministic)
        .init_fact("P", &["a"])
        .fo_constraint("forall X . S(X) -> X != a")
        .action("go", &[], |a| {
            a.effect("P(X)", "P(X), S(X), Q(f(X))");
        })
        .action("stay", &[], |a| {
            a.effect("P(X)", "P(X), Q(f(X))");
        })
        .rule("true", "go")
        .rule("true", "stay")
        .build()
        .unwrap();
    agrees_with_both_outcomes(&dcds, 100);
}

#[test]
fn commitment_counters_are_thread_count_deterministic() {
    // The family of the perfbench `det` workload: 2,357 step tasks, 2,006
    // of them rejected by the constraints, at every thread count; and one
    // sample per level of each phase timer.
    let dcds = synthetic::collision_pairs(7);
    for threads in [1, 2, 4] {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let obs = Obs::enabled(ObsConfig::default());
        det_abstraction_traced(&dcds, 1000, opts, &obs);
        let m = obs.finish().unwrap().metrics;
        let counted = (
            m.counter("abs.commitments"),
            m.counter("abs.commitments_rejected"),
        );
        assert_eq!(counted, (Some(2357), Some(2006)), "{threads} threads");
        let levels = m.counter("abs.levels").unwrap();
        for timer in [
            "abs.screen_us",
            "abs.materialise_us",
            "abs.encode_us",
            "abs.key_us",
        ] {
            assert_eq!(m.histogram(timer).unwrap().count, levels, "{timer}");
        }
    }
}

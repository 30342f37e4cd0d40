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
//! UCQs, and a base that already violates a constraint.
//!
//! The same walk holds the known-target filter ([`SplitDo::commitments`])
//! to the unfiltered enumeration: the commitments it keeps come out in
//! the same order, each one it drops is rejected by the definitional
//! step, and the fresh values the dropped ones would have minted are
//! accounted where they fall. Two systems pin its edges: one where
//! whether a fact violates alone depends on a position other than the
//! call's, and one whose facts carry two new calls, where it must not
//! fire. The engine's commitment counters are pinned at several thread
//! counts.
//!
//! The walk also holds each constraint's compiled check to the
//! definition ([`equality_satisfied`], [`fo_satisfied`]) on every
//! commitment's resolved `DO(I, ασ)`, kept or rejected, and asserts that
//! both verdicts occur.

use dcds_abstraction::{det_abstraction_traced, AbsOptions};
use dcds_bench::{examples, synthetic};
use dcds_core::commitment::{fresh_cell_count, instantiate, CommitTarget};
use dcds_core::det::{det_step_with_pre, DetState, SoloViolations, SplitDo};
use dcds_core::do_op::resolve_with_map;
use dcds_core::{
    do_action, do_rows, enumerate_commitments, legal_sigmas, parse_dcds, Dcds, DcdsBuilder, DoRows,
    ServiceKind,
};
use dcds_folang::{equality_satisfied, fo_satisfied, Constraint};
use dcds_obs::{Obs, ObsConfig};
use dcds_reldata::{Instance, Value};
use std::collections::{HashSet, VecDeque};

/// What [`screened_steps_agree`] saw.
#[derive(Debug, Default)]
struct Walked {
    /// Commitments compared.
    compared: usize,
    /// Commitments the constraints rejected.
    rejected: usize,
    /// Commitments the known-target filter dropped.
    dropped: usize,
    /// Kept commitments that send a call to a known value.
    kept_known: Vec<(dcds_core::ServiceCall, Value)>,
    /// Constraint verdicts held to the definition.
    checks: usize,
    /// Those verdicts that were violations.
    violations: usize,
}

impl Walked {
    /// Each constraint's compiled check on `inst` gives the definitional
    /// verdict.
    fn check_constraints(&mut self, dcds: &Dcds, inst: &Instance) {
        let eq = dcds
            .data
            .constraints
            .iter()
            .map(|c| (c.satisfied(inst), equality_satisfied(c, inst)));
        let fo = dcds
            .data
            .fo_constraints
            .iter()
            .map(|c| (c.satisfied(inst), fo_satisfied(c, inst)));
        for (compiled, definition) in eq.chain(fo) {
            assert_eq!(
                compiled, definition,
                "a constraint check differs on {inst:?}"
            );
            self.checks += 1;
            self.violations += usize::from(!definition);
        }
    }
}

/// Walk up to `max_states` reachable states (one per isomorphism class)
/// and compare the two steps on every commitment, the filtered
/// enumeration with the unfiltered one, and the constraint checks with
/// the definition.
fn screened_steps_agree(dcds: &Dcds, max_states: usize) -> Walked {
    let rigid = dcds.rigid_constants();
    let solo = SoloViolations::new(dcds, &rigid);
    let num_rels = dcds.data.schema.len();
    let mut pool = dcds.working_pool();
    let s0 = DetState::initial(dcds);
    let mut seen = HashSet::from([s0.to_facts(num_rels).canonical_key(&rigid)]);
    let mut queue = VecDeque::from([s0]);
    let mut walked = Walked::default();
    while let Some(state) = queue.pop_front() {
        let known = state.known_targets(&rigid);
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
            let filtered = split.commitments(dcds, &known, &solo);
            let mut kept = filtered.kept.iter();
            let mut next_kept = kept.next();
            // Fresh values minted by dropped commitments since the last
            // kept one, and the commitments dropped in this step.
            let (mut skipped, mut step_dropped) = (0, 0);
            for commitment in enumerate_commitments(split.new_calls(), &known) {
                let choice = instantiate(&commitment, &mut pool);
                let mut map = state.call_map.clone();
                map.extend(choice.iter().map(|(call, v)| (call.clone(), *v)));
                let resolved = resolve_with_map(&pre, &map).expect("every call is answered");
                walked.check_constraints(dcds, &resolved);
                let want = det_step_with_pre(dcds, &state, &pre, &choice);
                assert_eq!(
                    split.step(dcds, &state, &choice),
                    want,
                    "screened step differs on {commitment:?} from {state:?}"
                );
                walked.compared += 1;
                match next_kept {
                    Some((mints, c)) if *c == commitment => {
                        assert_eq!(*mints, skipped, "mints before {commitment:?}");
                        skipped = 0;
                        next_kept = kept.next();
                        for (call, target) in &commitment {
                            if let CommitTarget::Known(v) = target {
                                walked.kept_known.push((call.clone(), *v));
                            }
                        }
                    }
                    _ => {
                        assert!(
                            want.is_none(),
                            "the filter dropped {commitment:?} from {state:?}, which steps"
                        );
                        walked.dropped += 1;
                        step_dropped += 1;
                        skipped += fresh_cell_count(&commitment);
                    }
                }
                let Some(next) = want else {
                    walked.rejected += 1;
                    continue;
                };
                if seen.len() < max_states
                    && seen.insert(next.to_facts(num_rels).canonical_key(&rigid))
                {
                    queue.push_back(next);
                }
            }
            assert_eq!(next_kept, None, "kept commitments out of order");
            assert_eq!(filtered.dropped as usize, step_dropped);
            assert_eq!(filtered.trailing_mints, skipped);
        }
    }
    assert!(
        walked.violations > 0 && walked.violations < walked.checks,
        "{walked:?}"
    );
    walked
}

/// Both outcomes of the screen occur on the system.
fn agrees_with_both_outcomes(dcds: &Dcds, max_states: usize) -> Walked {
    let walked = screened_steps_agree(dcds, max_states);
    assert!(
        walked.rejected > 0 && walked.rejected < walked.compared,
        "{walked:?}"
    );
    walked
}

#[test]
fn collision_pairs_screen_like_the_full_step() {
    // Sum of T(0..5) = 44 states; most commitments hit a rigid tag, and
    // the filter drops each of those before it is built.
    let walked = screened_steps_agree(&synthetic::collision_pairs(5), 100);
    assert!(
        walked.compared > 100 && walked.rejected * 2 > walked.compared,
        "{walked:?}"
    );
    assert!(
        walked.dropped > 0 && walked.dropped < walked.rejected,
        "{walked:?}"
    );
    // Two constraints on each of the 257 resolved successors.
    assert_eq!((walked.checks, walked.violations), (514, 214));
}

#[test]
fn travel_request_screens_like_the_full_step() {
    let src = include_str!("../../../specs/travel_request.dcds");
    let dcds = parse_dcds(src).expect("shipped spec parses");
    let walked = agrees_with_both_outcomes(&dcds, 300);
    assert_eq!((walked.checks, walked.violations), (594, 126));
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
        .all(|c| !c.has_delta_check()));
    agrees_with_both_outcomes(&dcds, 100);
}

#[test]
fn a_premise_outside_the_ucqs_is_checked_in_full() {
    let dcds = example_4_1_with(|b| b.constraint("P(X) & Q(Y, Z) & !R(Y) -> X = Y"));
    assert!(dcds.data.constraints.iter().all(|c| !c.has_delta_check()));
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
fn the_filter_reads_every_position_of_a_fact() {
    // `E(X, V) -> X = V | V != c`: `E(x, c)` violates alone unless
    // `x = c`. So `f(a) ↦ c` is dropped before it is built, while
    // `f(c) ↦ c` is kept and steps. A filter keyed only on (relation,
    // position, constant) would drop both.
    let dcds = DcdsBuilder::new()
        .relation("P", 1)
        .relation("E", 2)
        .service("f", 1, ServiceKind::Deterministic)
        .init_fact("P", &["a"])
        .init_fact("P", &["c"])
        .fo_constraint("forall X, V . E(X, V) -> X = V | V != c")
        .action("go", &[], |a| {
            a.effect("P(X)", "P(X), E(X, f(X))");
        })
        .rule("true", "go")
        .build()
        .unwrap();
    let walked = agrees_with_both_outcomes(&dcds, 100);
    assert!(walked.dropped > 0, "{walked:?}");
    let c = dcds.data.pool.get("c").unwrap();
    assert!(
        walked
            .kept_known
            .iter()
            .any(|(call, v)| *v == c && call.args == [c]),
        "f(c) ↦ c must be kept: {walked:?}"
    );
}

#[test]
fn the_filter_ignores_a_fact_with_two_new_calls() {
    // `E(f(x), g(x))` holds two new calls: whether it violates depends on
    // both answers, so no single target is ruled out, and the screen
    // alone rejects `g(x) ↦ c`.
    let dcds = DcdsBuilder::new()
        .relation("P", 1)
        .relation("E", 2)
        .service("f", 1, ServiceKind::Deterministic)
        .service("g", 1, ServiceKind::Deterministic)
        .init_fact("P", &["a"])
        .fo_constraint("forall X, V . E(X, V) -> V != c")
        .action("go", &[], |a| {
            a.effect("P(X)", "P(X), E(f(X), g(X))");
        })
        .rule("true", "go")
        .build()
        .unwrap();
    let walked = agrees_with_both_outcomes(&dcds, 100);
    assert_eq!(walked.dropped, 0, "{walked:?}");
}

#[test]
fn commitment_counters_are_thread_count_deterministic() {
    // The family of the perfbench `det` workload: 2,357 commitments, 2,006
    // of them rejected by the constraints, of which the known-target
    // filter drops 1,800 before they are built: 557 step tasks, at every
    // thread count; and one sample per level of each phase timer.
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
            m.counter("abs.commitments_built"),
        );
        assert_eq!(
            counted,
            (Some(2357), Some(2006), Some(557)),
            "{threads} threads"
        );
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

//! Bounded exploration of the concrete transition systems.
//!
//! The concrete transition system of a DCDS is infinite in general — both
//! infinitely branching (a fresh call may return any constant) and
//! infinitely deep. This module materialises finite *prefixes* of it, used
//! to validate the finite abstractions empirically (bisimulation tests) and
//! to visualise the systems of the paper's figures.
//!
//! Branching is tamed by a [`ValueOracle`], which picks finitely many
//! evaluations for the calls of each step; depth and size are tamed by
//! [`Limits`]. The default [`CommitmentOracle`] picks one representative
//! evaluation per equality commitment — the same representatives the
//! abstraction keeps, so prefixes explored with it are isomorphic-faithful.

use crate::commitment::{enumerate_commitments, CommitTarget};
use crate::dcds::Dcds;
use crate::det::{det_step_with_pre, DetState};
use crate::do_op::{
    do_action_indexed, legal_assignments_indexed, publish_query_stats_delta, query_stats_snapshot,
    state_index, PreInstance,
};
use crate::nondet::nondet_step_with_pre;
use crate::par::{configured_threads, par_map_obs};
use crate::term::ServiceCall;
use crate::ts::{StateId, Ts};
use dcds_obs::{event, span, Obs};
use dcds_reldata::{ConstantPool, Instance, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Bounds on exploration.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of states to materialise.
    pub max_states: usize,
    /// Maximum BFS depth from the initial state.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 10_000,
            max_depth: 8,
        }
    }
}

/// Whether exploration exhausted the reachable space within the limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every reachable state within the oracle's branching was visited.
    Complete,
    /// Limits were hit; the result is a strict prefix.
    Truncated,
}

/// Chooses finitely many evaluations for the service calls of one step.
pub trait ValueOracle {
    /// Produce the evaluations to explore for `calls` issued in `inst`.
    /// `known` is `ADOM(inst) ∪ rigid`; fresh values may be minted from the
    /// pool.
    fn evaluations(
        &mut self,
        calls: &BTreeSet<ServiceCall>,
        known: &BTreeSet<Value>,
        pool: &mut ConstantPool,
    ) -> Vec<BTreeMap<ServiceCall, Value>>;
}

/// One representative evaluation per equality commitment.
#[derive(Debug, Default, Clone, Copy)]
pub struct CommitmentOracle;

impl ValueOracle for CommitmentOracle {
    fn evaluations(
        &mut self,
        calls: &BTreeSet<ServiceCall>,
        known: &BTreeSet<Value>,
        pool: &mut ConstantPool,
    ) -> Vec<BTreeMap<ServiceCall, Value>> {
        let calls: Vec<ServiceCall> = calls.iter().cloned().collect();
        let known: Vec<Value> = known.iter().copied().collect();
        enumerate_commitments(&calls, &known)
            .into_iter()
            .map(|commitment| {
                let cells = crate::commitment::fresh_cell_count(&commitment);
                let fresh: Vec<Value> = (0..cells).map(|_| pool.mint("v")).collect();
                commitment
                    .into_iter()
                    .map(|(c, t)| {
                        let v = match t {
                            CommitTarget::Known(v) => v,
                            CommitTarget::Fresh(cell) => fresh[cell],
                        };
                        (c, v)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Samples up to `samples` evaluations over `known ∪ {fresh_pool_size fresh
/// values}` pseudo-randomly (deterministic from `seed`). Models an
/// adversarial-ish environment cheaply for fuzz-style tests.
#[derive(Debug, Clone, Copy)]
pub struct SampledOracle {
    /// RNG seed.
    pub seed: u64,
    /// Number of evaluations to keep per step.
    pub samples: usize,
    /// Fresh values to mint as sampling targets per step.
    pub fresh_per_step: usize,
}

impl ValueOracle for SampledOracle {
    fn evaluations(
        &mut self,
        calls: &BTreeSet<ServiceCall>,
        known: &BTreeSet<Value>,
        pool: &mut ConstantPool,
    ) -> Vec<BTreeMap<ServiceCall, Value>> {
        let mut universe: Vec<Value> = known.iter().copied().collect();
        for _ in 0..self.fresh_per_step {
            universe.push(pool.mint("v"));
        }
        if universe.is_empty() {
            return if calls.is_empty() {
                vec![BTreeMap::new()]
            } else {
                Vec::new()
            };
        }
        let mut out = Vec::with_capacity(self.samples);
        let mut state = self.seed | 1;
        for _ in 0..self.samples {
            let mut theta = BTreeMap::new();
            for c in calls {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = universe[(state % universe.len() as u64) as usize];
                theta.insert(c.clone(), v);
            }
            out.push(theta);
        }
        self.seed = state;
        out
    }
}

/// What the parallel enumeration phase computes per `(state, ασ)`: the
/// pre-instance, the service calls still needing values, and the values
/// already known to the state (for the oracle's domain).
type Enumerated = (PreInstance, BTreeSet<ServiceCall>, BTreeSet<Value>);

/// Result of a deterministic exploration: the transition system, the
/// service-call map of each state, and whether the prefix is complete.
#[derive(Debug, Clone)]
pub struct DetExploration {
    /// States labeled by instances.
    pub ts: Ts,
    /// Per-state service-call maps (parallel to `ts` state ids).
    pub call_maps: Vec<BTreeMap<ServiceCall, Value>>,
    /// Completeness within the oracle's branching.
    pub outcome: ExploreOutcome,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
}

/// Result of a nondeterministic exploration.
#[derive(Debug, Clone)]
pub struct NondetExploration {
    /// States labeled by instances.
    pub ts: Ts,
    /// Completeness within the oracle's branching.
    pub outcome: ExploreOutcome,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
}

/// BFS over the deterministic concrete transition system, branching as the
/// oracle dictates, deduplicating identical `⟨I, M⟩` states.
pub fn explore_det(dcds: &Dcds, limits: Limits, oracle: &mut dyn ValueOracle) -> DetExploration {
    explore_det_traced(dcds, limits, oracle, configured_threads(), &Obs::disabled())
}

/// [`explore_det`] with an explicit worker-thread count and an
/// observability handle: per-level spans, frontier-size metrics, and
/// rate-limited heartbeats.
///
/// The BFS is level-synchronised and phase-split like the abstraction
/// engine: query evaluation (`DO`, the step per θ) runs in parallel over
/// the frontier, while the oracle — which is stateful and mints from the
/// pool — is invoked serially in exactly the order the serial engine would
/// use. Output is identical for every `threads` value, including 1.
pub fn explore_det_traced(
    dcds: &Dcds,
    limits: Limits,
    oracle: &mut dyn ValueOracle,
    threads: usize,
    obs: &Obs,
) -> DetExploration {
    let _run = span!(obs, "explore_det", threads = threads);
    let query_stats0 = query_stats_snapshot(dcds);
    let threads = threads.max(1);
    let mut pool = dcds.working_pool();
    let rigid = dcds.rigid_constants();
    let s0 = DetState::initial(dcds);
    let mut ts = Ts::new(s0.instance.clone());
    let mut call_maps = vec![s0.call_map.clone()];
    let mut index: HashMap<DetState, StateId> = HashMap::new();
    index.insert(s0.clone(), ts.initial());
    let mut level: Vec<(StateId, DetState)> = vec![(ts.initial(), s0)];
    let mut depth = 0usize;
    let mut outcome = ExploreOutcome::Complete;

    while !level.is_empty() {
        // A non-empty level at the depth limit is exactly the serial
        // engine's "popped a state with depth ≥ max_depth" truncation.
        if depth >= limits.max_depth {
            outcome = ExploreOutcome::Truncated;
            break;
        }
        let mut level_span = span!(obs, "explore_level", depth = depth, frontier = level.len());
        obs.histogram("explore.frontier_states", level.len() as u64);
        obs.gauge_max("explore.max_frontier", level.len() as i64);
        obs.heartbeat(|| {
            format!(
                "explore depth {depth}: frontier {}, {} states total",
                level.len(),
                ts.num_states()
            )
        });
        // Phase 1 (parallel): `DO` and the not-yet-mapped calls per
        // `(state, ασ)` — pure queries, no pool access. One hash index per
        // frontier state serves every rule condition and effect evaluated
        // there.
        let enumerated: Vec<Vec<Enumerated>> =
            par_map_obs(&level, threads, obs, "enumerate", |(_, state)| {
                let idx = state_index(dcds, &state.instance);
                legal_assignments_indexed(dcds, &state.instance, Some(&idx))
                    .into_iter()
                    .map(|(action, sigma)| {
                        let pre =
                            do_action_indexed(dcds, &state.instance, action, &sigma, Some(&idx));
                        let new_calls: BTreeSet<ServiceCall> = pre
                            .calls()
                            .into_iter()
                            .filter(|c| !state.call_map.contains_key(c))
                            .collect();
                        let mut known = state.known_values();
                        known.extend(rigid.iter().copied());
                        (pre, new_calls, known)
                    })
                    .collect()
            });
        // Phase 2 (serial): the oracle, in the serial invocation order.
        let mut tasks: Vec<(usize, usize, BTreeMap<ServiceCall, Value>)> = Vec::new();
        for (state_ix, per_state) in enumerated.iter().enumerate() {
            for (pre_ix, (_, new_calls, known)) in per_state.iter().enumerate() {
                for theta in oracle.evaluations(new_calls, known, &mut pool) {
                    tasks.push((state_ix, pre_ix, theta));
                }
            }
        }
        // Phase 3 (parallel): one step per θ.
        let stepped: Vec<Option<DetState>> =
            par_map_obs(&tasks, threads, obs, "step", |(state_ix, pre_ix, theta)| {
                let (_, state) = &level[*state_ix];
                let (pre, _, _) = &enumerated[*state_ix][*pre_ix];
                det_step_with_pre(dcds, state, pre, theta)
            });
        // Phase 4 (serial, task order): dedup, edges, next level.
        let mut next_level: Vec<(StateId, DetState)> = Vec::new();
        for ((state_ix, _, _), next) in tasks.iter().zip(stepped) {
            let Some(next) = next else { continue };
            let sid = level[*state_ix].0;
            let next_id = match index.get(&next) {
                Some(&id) => id,
                None => {
                    if ts.num_states() >= limits.max_states {
                        outcome = ExploreOutcome::Truncated;
                        continue;
                    }
                    let id = ts.add_state(next.instance.clone());
                    call_maps.push(next.call_map.clone());
                    index.insert(next.clone(), id);
                    next_level.push((id, next));
                    id
                }
            };
            ts.add_edge(sid, next_id);
        }
        obs.counter_add("explore.states_expanded", level.len() as u64);
        obs.counter_add("explore.tasks_stepped", tasks.len() as u64);
        level_span.set("new_states", next_level.len() as u64);
        event!(
            obs,
            "level",
            engine = "explore_det",
            level = depth,
            frontier = level.len(),
            tasks = tasks.len(),
            new_states = next_level.len(),
            states = ts.num_states(),
        );
        level = next_level;
        depth += 1;
    }
    obs.counter_add("explore.levels", depth as u64);
    publish_query_stats_delta(dcds, obs, &query_stats0);
    obs.progress_flush(|| format!("explore done: {} states, {depth} levels", ts.num_states()));
    DetExploration {
        ts,
        call_maps,
        outcome,
        pool,
    }
}

/// BFS over the nondeterministic concrete transition system, deduplicating
/// identical instances.
pub fn explore_nondet(
    dcds: &Dcds,
    limits: Limits,
    oracle: &mut dyn ValueOracle,
) -> NondetExploration {
    explore_nondet_traced(dcds, limits, oracle, configured_threads(), &Obs::disabled())
}

/// [`explore_nondet`] with an explicit worker-thread count and an
/// observability handle; same phase split and determinism contract as
/// [`explore_det_traced`].
pub fn explore_nondet_traced(
    dcds: &Dcds,
    limits: Limits,
    oracle: &mut dyn ValueOracle,
    threads: usize,
    obs: &Obs,
) -> NondetExploration {
    let _run = span!(obs, "explore_nondet", threads = threads);
    let query_stats0 = query_stats_snapshot(dcds);
    let threads = threads.max(1);
    let mut pool = dcds.working_pool();
    let rigid = dcds.rigid_constants();
    let mut ts = Ts::new(dcds.data.initial.clone());
    let mut index: HashMap<Instance, StateId> = HashMap::new();
    index.insert(dcds.data.initial.clone(), ts.initial());
    let mut level: Vec<(StateId, Instance)> = vec![(ts.initial(), dcds.data.initial.clone())];
    let mut depth = 0usize;
    let mut outcome = ExploreOutcome::Complete;

    while !level.is_empty() {
        if depth >= limits.max_depth {
            outcome = ExploreOutcome::Truncated;
            break;
        }
        let mut level_span = span!(obs, "explore_level", depth = depth, frontier = level.len());
        obs.histogram("explore.frontier_states", level.len() as u64);
        obs.gauge_max("explore.max_frontier", level.len() as i64);
        obs.heartbeat(|| {
            format!(
                "explore depth {depth}: frontier {}, {} states total",
                level.len(),
                ts.num_states()
            )
        });
        let enumerated: Vec<Vec<Enumerated>> =
            par_map_obs(&level, threads, obs, "enumerate", |(_, inst)| {
                let idx = state_index(dcds, inst);
                legal_assignments_indexed(dcds, inst, Some(&idx))
                    .into_iter()
                    .map(|(action, sigma)| {
                        let pre = do_action_indexed(dcds, inst, action, &sigma, Some(&idx));
                        let calls = pre.calls();
                        let mut known = inst.active_domain();
                        known.extend(rigid.iter().copied());
                        (pre, calls, known)
                    })
                    .collect()
            });
        let mut tasks: Vec<(usize, usize, BTreeMap<ServiceCall, Value>)> = Vec::new();
        for (state_ix, per_state) in enumerated.iter().enumerate() {
            for (pre_ix, (_, calls, known)) in per_state.iter().enumerate() {
                for theta in oracle.evaluations(calls, known, &mut pool) {
                    tasks.push((state_ix, pre_ix, theta));
                }
            }
        }
        let stepped: Vec<Option<Instance>> =
            par_map_obs(&tasks, threads, obs, "step", |(state_ix, pre_ix, theta)| {
                let (pre, _, _) = &enumerated[*state_ix][*pre_ix];
                nondet_step_with_pre(dcds, pre, theta)
            });
        let mut next_level: Vec<(StateId, Instance)> = Vec::new();
        for ((state_ix, _, _), next) in tasks.iter().zip(stepped) {
            let Some(next) = next else { continue };
            let sid = level[*state_ix].0;
            let next_id = match index.get(&next) {
                Some(&id) => id,
                None => {
                    if ts.num_states() >= limits.max_states {
                        outcome = ExploreOutcome::Truncated;
                        continue;
                    }
                    let id = ts.add_state(next.clone());
                    index.insert(next.clone(), id);
                    next_level.push((id, next));
                    id
                }
            };
            ts.add_edge(sid, next_id);
        }
        obs.counter_add("explore.states_expanded", level.len() as u64);
        obs.counter_add("explore.tasks_stepped", tasks.len() as u64);
        level_span.set("new_states", next_level.len() as u64);
        event!(
            obs,
            "level",
            engine = "explore_nondet",
            level = depth,
            frontier = level.len(),
            tasks = tasks.len(),
            new_states = next_level.len(),
            states = ts.num_states(),
        );
        level = next_level;
        depth += 1;
    }
    obs.counter_add("explore.levels", depth as u64);
    publish_query_stats_delta(dcds, obs, &query_stats0);
    obs.progress_flush(|| format!("explore done: {} states, {depth} levels", ts.num_states()));
    NondetExploration { ts, outcome, pool }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    fn example_4_3(kind: ServiceKind) -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, kind)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn nondet_exploration_of_example_5_1_is_growing_but_state_bounded() {
        let dcds = example_4_3(ServiceKind::Nondeterministic);
        let mut oracle = CommitmentOracle;
        let res = explore_nondet(
            &dcds,
            Limits {
                max_states: 200,
                max_depth: 4,
            },
            &mut oracle,
        );
        // Every state holds exactly one fact: state-bounded with bound 1.
        assert_eq!(res.ts.max_state_adom(), 1);
        assert!(res.ts.num_states() > 2);
    }

    #[test]
    fn det_exploration_tracks_call_maps() {
        let dcds = example_4_3(ServiceKind::Deterministic);
        let mut oracle = CommitmentOracle;
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 100,
                max_depth: 3,
            },
            &mut oracle,
        );
        assert_eq!(res.ts.num_states(), res.call_maps.len());
        // Depth-1 successors of ⟨{R(a)}, ∅⟩ commit f(a) to a or fresh: the
        // initial state has exactly 2 successors.
        assert_eq!(res.ts.successors(res.ts.initial()).len(), 2);
        // The run-unbounded system keeps minting fresh values: truncated.
        assert_eq!(res.outcome, ExploreOutcome::Truncated);
    }

    #[test]
    fn depth_zero_is_initial_only() {
        let dcds = example_4_3(ServiceKind::Deterministic);
        let mut oracle = CommitmentOracle;
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 10,
                max_depth: 0,
            },
            &mut oracle,
        );
        assert_eq!(res.ts.num_states(), 1);
    }

    #[test]
    fn thread_counts_agree_exactly() {
        // Phase-split parallelism must not change the explored prefix —
        // the oracle runs serially in the same order, so states, edges,
        // call maps, and the pool are identical at every thread count.
        let dcds = example_4_3(ServiceKind::Deterministic);
        let limits = Limits {
            max_states: 100,
            max_depth: 3,
        };
        let runs: Vec<DetExploration> = [1usize, 2, 8]
            .into_iter()
            .map(|t| {
                let mut oracle = CommitmentOracle;
                explore_det_traced(&dcds, limits, &mut oracle, t, &Obs::disabled())
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].ts, other.ts);
            assert_eq!(runs[0].call_maps, other.call_maps);
            assert_eq!(runs[0].outcome, other.outcome);
            assert_eq!(runs[0].pool.len(), other.pool.len());
        }

        let nd = example_4_3(ServiceKind::Nondeterministic);
        let nd_runs: Vec<NondetExploration> = [1usize, 2, 8]
            .into_iter()
            .map(|t| {
                let mut oracle = SampledOracle {
                    seed: 11,
                    samples: 4,
                    fresh_per_step: 1,
                };
                explore_nondet_traced(&nd, limits, &mut oracle, t, &Obs::disabled())
            })
            .collect();
        for other in &nd_runs[1..] {
            assert_eq!(nd_runs[0].ts, other.ts);
            assert_eq!(nd_runs[0].outcome, other.outcome);
            assert_eq!(nd_runs[0].pool.len(), other.pool.len());
        }
    }

    #[test]
    fn sampled_oracle_is_deterministic_per_seed() {
        let dcds = example_4_3(ServiceKind::Nondeterministic);
        let run = |seed| {
            let mut oracle = SampledOracle {
                seed,
                samples: 3,
                fresh_per_step: 1,
            };
            let res = explore_nondet(
                &dcds,
                Limits {
                    max_states: 50,
                    max_depth: 3,
                },
                &mut oracle,
            );
            res.ts.num_states()
        };
        assert_eq!(run(7), run(7));
    }
}

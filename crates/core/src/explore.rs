//! Bounded exploration of the concrete transition systems.
//!
//! The concrete transition system of a DCDS is infinite in general — both
//! infinitely branching (a fresh call may return any constant) and
//! infinitely deep. This module materialises finite *prefixes* of it, used
//! to validate the finite abstractions empirically (bisimulation tests) and
//! to visualise the systems of the paper's figures.
//!
//! Branching is tamed by keeping one successor per equality commitment
//! ([`det_successors_by_commitment`], [`nondet_successors_by_commitment`])
//! — the same representatives the abstractions keep, so the prefixes are
//! isomorphic-faithful. Depth and size are tamed by [`Limits`]. The
//! explorers are a serial reference over that relation, not an engine.

use crate::dcds::Dcds;
use crate::det::{det_successors_by_commitment, DetState};
use crate::nondet::nondet_successors_by_commitment;
use crate::term::ServiceCall;
use crate::ts::{StateId, Ts};
use dcds_reldata::{ConstantPool, Instance, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;

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
    /// Every reachable commitment representative was visited.
    Complete,
    /// Limits were hit; the result is a strict prefix.
    Truncated,
}

/// Result of a deterministic exploration: the transition system, the
/// service-call map of each state, and whether the prefix is complete.
#[derive(Debug, Clone)]
pub struct DetExploration {
    /// States labeled by instances.
    pub ts: Ts,
    /// Per-state service-call maps (parallel to `ts` state ids).
    pub call_maps: Vec<BTreeMap<ServiceCall, Value>>,
    /// Completeness within the commitment representatives.
    pub outcome: ExploreOutcome,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
}

/// Result of a nondeterministic exploration.
#[derive(Debug, Clone)]
pub struct NondetExploration {
    /// States labeled by instances.
    pub ts: Ts,
    /// Completeness within the commitment representatives.
    pub outcome: ExploreOutcome,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
}

/// BFS over the deterministic concrete transition system, one successor per
/// equality commitment, deduplicating identical `⟨I, M⟩` states.
pub fn explore_det(dcds: &Dcds, limits: Limits) -> DetExploration {
    let mut pool = dcds.working_pool();
    let (ts, states, outcome) = bfs(
        DetState::initial(dcds),
        limits,
        |s| Instance::clone(&s.instance),
        |s| {
            det_successors_by_commitment(dcds, s, &mut pool)
                .into_iter()
                .map(|(_, _, _, next)| next)
                .collect()
        },
    );
    DetExploration {
        ts,
        call_maps: states.into_iter().map(|s| s.call_map).collect(),
        outcome,
        pool,
    }
}

/// BFS over the nondeterministic concrete transition system, one successor
/// per equality commitment, deduplicating identical instances.
pub fn explore_nondet(dcds: &Dcds, limits: Limits) -> NondetExploration {
    let mut pool = dcds.working_pool();
    let (ts, _, outcome) = bfs(dcds.data.initial.clone(), limits, Instance::clone, |inst| {
        nondet_successors_by_commitment(dcds, inst, &mut pool)
            .into_iter()
            .map(|(_, _, _, next)| next)
            .collect()
    });
    NondetExploration { ts, outcome, pool }
}

/// FIFO breadth-first search with exact dedup. Returns the transition
/// system, the state behind each id, and whether the limits cut it: a
/// state at depth `max_depth` is never expanded, and a new state past
/// `max_states` is dropped together with its edge.
fn bfs<S: Clone + Eq + Hash>(
    initial: S,
    limits: Limits,
    label: impl Fn(&S) -> Instance,
    mut successors: impl FnMut(&S) -> Vec<S>,
) -> (Ts, Vec<S>, ExploreOutcome) {
    let mut ts = Ts::new(label(&initial));
    let mut index: HashMap<S, StateId> = HashMap::from([(initial.clone(), ts.initial())]);
    let mut states = vec![initial];
    let mut queue = VecDeque::from([(ts.initial(), 0usize)]);
    let mut outcome = ExploreOutcome::Complete;
    while let Some((id, depth)) = queue.pop_front() {
        if depth >= limits.max_depth {
            outcome = ExploreOutcome::Truncated;
            break;
        }
        for next in successors(&states[id.index()]) {
            let next_id = match index.get(&next) {
                Some(&known) => known,
                None if ts.num_states() >= limits.max_states => {
                    outcome = ExploreOutcome::Truncated;
                    continue;
                }
                None => {
                    let fresh = ts.add_state(label(&next));
                    index.insert(next.clone(), fresh);
                    states.push(next);
                    queue.push_back((fresh, depth + 1));
                    fresh
                }
            };
            ts.add_edge(id, next_id);
        }
    }
    (ts, states, outcome)
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
        let res = explore_nondet(
            &dcds,
            Limits {
                max_states: 200,
                max_depth: 4,
            },
        );
        // Every state holds exactly one fact: state-bounded with bound 1.
        assert_eq!(res.ts.max_state_adom(), 1);
        assert!(res.ts.num_states() > 2);
    }

    #[test]
    fn det_exploration_tracks_call_maps() {
        let dcds = example_4_3(ServiceKind::Deterministic);
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 100,
                max_depth: 3,
            },
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
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 10,
                max_depth: 0,
            },
        );
        assert_eq!(res.ts.num_states(), 1);
    }
}

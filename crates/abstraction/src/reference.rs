//! Reference constructions, written straight from the paper and kept
//! small on purpose: the oracle the engine differential tests compare
//! [`crate::det_abs`] and [`mod@crate::rcycl`] against.
//!
//! Both are serial worklist loops over the core semantics — no query
//! index, no state store, no signatures or canonical keys, no batching,
//! no threads. They resolve the paper's free choices the way the engines
//! do (worklist order, lowest recyclable values first, fresh values minted
//! in enumeration order), so the engines must reproduce their output
//! exactly: the same states in the same order, the same edges, the same
//! outcome, the same minted pool.

use crate::det_abs::AbsOutcome;
use crate::rcycl::over_eval_budget;
use dcds_core::det::{det_successors_by_commitment, DetState};
use dcds_core::do_op::{do_action, legal_assignments};
use dcds_core::nondet::{evals_over, nondet_step_with_pre};
use dcds_core::{Dcds, StateId, Ts};
use dcds_reldata::{ConstantPool, Facts, Instance, Value};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Theorem 4.3: the deterministic abstraction up to `max_states` classes.
///
/// From each state `⟨I, M⟩`, in worklist order, take one successor per
/// legal `ασ` and equality commitment of the new calls against the known
/// values ([`det_successors_by_commitment`]), and keep it unless it is
/// isomorphic — fixing the rigid constants — to a state already kept.
/// Isomorphism is decided pairwise against every kept state.
pub fn det_abstraction(dcds: &Dcds, max_states: usize) -> (Ts, AbsOutcome, ConstantPool) {
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let mut pool = dcds.working_pool();
    let s0 = DetState::initial(dcds);
    let mut ts = Ts::new_shared(s0.instance.clone());
    let mut kept: Vec<Facts> = vec![s0.to_facts(num_rels)];
    let mut queue = VecDeque::from([(ts.initial(), s0)]);
    let mut outcome = AbsOutcome::Complete;
    while let Some((sid, state)) = queue.pop_front() {
        for (_, _, _, next) in det_successors_by_commitment(dcds, &state, &mut pool) {
            let facts = next.to_facts(num_rels);
            let next_id = match kept.iter().position(|k| k.isomorphic(&facts, &rigid)) {
                Some(ix) => StateId::from_index(ix),
                None if ts.num_states() >= max_states => {
                    outcome = AbsOutcome::Truncated;
                    continue;
                }
                None => {
                    let id = ts.add_state_shared(next.instance.clone());
                    kept.push(facts);
                    queue.push_back((id, next));
                    id
                }
            };
            ts.add_edge(sid, next_id);
        }
    }
    (ts, outcome, pool)
}

/// Appendix C.3: Algorithm RCYCL up to `max_states` states.
///
/// Returns the pruning, whether it saturated, the pool extended with the
/// fresh values minted, and the final `UsedValues`. A triple whose
/// `EVALS_F` would exceed `2·10⁴` evaluations is skipped and the result
/// marked incomplete, as the engine does.
pub fn rcycl(dcds: &Dcds, max_states: usize) -> (Ts, bool, ConstantPool, BTreeSet<Value>) {
    let rigid = dcds.rigid_constants();
    let mut pool = dcds.working_pool();
    let initial = dcds.data.initial.clone();
    let mut ts = Ts::new(initial.clone());
    let mut ids: HashMap<Instance, StateId> = HashMap::from([(initial.clone(), ts.initial())]);
    // UsedValues := ADOM(I₀).
    let mut used: BTreeSet<Value> = initial.active_domain();
    used.extend(rigid.iter().copied());
    let mut queue = VecDeque::from([(ts.initial(), initial)]);
    let mut complete = true;
    while let Some((sid, inst)) = queue.pop_front() {
        let adom = inst.active_domain();
        // Each (I, α, σ) triple once.
        for (action, sigma) in legal_assignments(dcds, &inst) {
            let pre = do_action(dcds, &inst, action, &sigma);
            let calls = pre.calls();
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)).
            let recyclable: Vec<Value> = used
                .iter()
                .copied()
                .filter(|v| !rigid.contains(v) && !adom.contains(v))
                .collect();
            // V: recycled values if there are enough, else fresh ones.
            let v: Vec<Value> = if recyclable.len() >= calls.len() {
                recyclable[..calls.len()].to_vec()
            } else {
                (0..calls.len()).map(|_| pool.mint("v")).collect()
            };
            // F := ADOM(I₀) ∪ ADOM(I) ∪ V.
            let mut f: BTreeSet<Value> = adom.clone();
            f.extend(rigid.iter().copied());
            f.extend(v);
            if over_eval_budget(f.len(), calls.len()) {
                complete = false;
                continue;
            }
            for theta in evals_over(&calls, &f) {
                let Some(next) = nondet_step_with_pre(dcds, &pre, &theta) else {
                    continue;
                };
                let next_id = match ids.get(&next) {
                    Some(&id) => id,
                    None if ts.num_states() >= max_states => {
                        complete = false;
                        continue;
                    }
                    None => {
                        let id = ts.add_state(next.clone());
                        ids.insert(next.clone(), id);
                        queue.push_back((id, next.clone()));
                        id
                    }
                };
                used.extend(next.active_domain());
                ts.add_edge(sid, next_id);
            }
        }
    }
    (ts, complete, pool, used)
}

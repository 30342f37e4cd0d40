//! Nondeterministic service semantics (Section 5.1).
//!
//! States are plain instances. A step picks a legal `ασ`, evaluates
//! `DO(I, ασ)`, and replaces the service calls by values chosen
//! nondeterministically — *without* any cross-step consistency requirement
//! (within one step, all occurrences of the same ground call coincide,
//! because calls are resolved call-by-call, not occurrence-by-occurrence).
//!
//! As with the deterministic case, the successor space is infinite;
//! exposed here are point steps ([`nondet_step`]), commitment
//! representatives ([`nondet_successors_by_commitment`]), and the
//! `EVALS_F`-style enumeration over an explicit finite value set
//! ([`evals_over`], used by the reference Algorithm RCYCL).

use crate::action::ActionId;
use crate::commitment::{enumerate_commitments, instantiate, Commitment};
use crate::dcds::Dcds;
use crate::do_op::{do_action, legal_assignments, resolve_with_map};
use crate::term::ServiceCall;
use dcds_folang::Assignment;
use dcds_reldata::{ConstantPool, Instance, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One concrete execution step `⟨I, ασθ, I'⟩ ∈ N-EXECS` under an explicit
/// evaluation θ of the calls. Returns `None` if θ misses a call or the
/// successor violates the constraints.
pub fn nondet_step(
    dcds: &Dcds,
    inst: &Instance,
    action: ActionId,
    sigma: &Assignment,
    theta: &BTreeMap<ServiceCall, Value>,
) -> Option<Instance> {
    let pre = do_action(dcds, inst, action, sigma);
    nondet_step_with_pre(dcds, &pre, theta)
}

/// [`nondet_step`] for a caller that has already computed `DO(I, ασ)`
/// and steps it under many evaluations θ.
pub fn nondet_step_with_pre(
    dcds: &Dcds,
    pre: &crate::do_op::PreInstance,
    theta: &BTreeMap<ServiceCall, Value>,
) -> Option<Instance> {
    let next = resolve_with_map(pre, theta)?;
    if !dcds.data.satisfies_constraints(&next) {
        return None;
    }
    Some(next)
}

/// All evaluations `θ : calls → values` (the set `EVALS_F(I, α, σ)` for a
/// finite `F`). The count is `|values|^|calls|`; callers bound both.
pub fn evals_over(
    calls: &BTreeSet<ServiceCall>,
    values: &BTreeSet<Value>,
) -> Vec<BTreeMap<ServiceCall, Value>> {
    let calls: Vec<&ServiceCall> = calls.iter().collect();
    let values: Vec<Value> = values.iter().copied().collect();
    if calls.is_empty() {
        return vec![BTreeMap::new()];
    }
    if values.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(values.len().pow(calls.len() as u32));
    let mut acc: Vec<Value> = Vec::with_capacity(calls.len());
    fn rec(
        calls: &[&ServiceCall],
        values: &[Value],
        ix: usize,
        acc: &mut Vec<Value>,
        out: &mut Vec<BTreeMap<ServiceCall, Value>>,
    ) {
        if ix == calls.len() {
            out.push(
                calls
                    .iter()
                    .map(|c| (*c).clone())
                    .zip(acc.iter().copied())
                    .collect(),
            );
            return;
        }
        for &v in values {
            acc.push(v);
            rec(calls, values, ix + 1, acc, out);
            acc.pop();
        }
    }
    rec(&calls, &values, 0, &mut acc, &mut out);
    out
}

/// The commitment-representative successors of a nondeterministic state:
/// for every legal `ασ` and every equality commitment of the calls against
/// `ADOM(I) ∪ ADOM(I₀)`, one successor with freshly minted values for the
/// fresh cells. Constraint-violating representatives are dropped.
pub fn nondet_successors_by_commitment(
    dcds: &Dcds,
    inst: &Instance,
    pool: &mut ConstantPool,
) -> Vec<(ActionId, Assignment, Commitment, Instance)> {
    let mut out = Vec::new();
    let rigid = dcds.rigid_constants();
    for (action, sigma) in legal_assignments(dcds, inst) {
        let pre = do_action(dcds, inst, action, &sigma);
        let calls: Vec<ServiceCall> = pre.calls().into_iter().collect();
        let mut known: BTreeSet<Value> = inst.active_domain();
        known.extend(rigid.iter().copied());
        let known: Vec<Value> = known.into_iter().collect();
        for commitment in enumerate_commitments(&calls, &known) {
            let theta = instantiate(&commitment, pool);
            if let Some(next) = nondet_step_with_pre(dcds, &pre, &theta) {
                out.push((action, sigma.clone(), commitment, next));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    /// Example 4.3 with nondeterministic f (as in Example 5.1).
    fn example_5_1() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    /// Example 5.2: α : { R(x) ⇝ R(x), R(x) ⇝ Q(f(x)), Q(x) ⇝ Q(x) }.
    fn example_5_2() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "R(X)");
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "Q(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn step_replaces_whole_state() {
        let dcds = example_5_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let a = dcds.data.pool.get("a").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        let theta: BTreeMap<ServiceCall, Value> = pre.calls().into_iter().map(|c| (c, a)).collect();
        let next =
            nondet_step(&dcds, &dcds.data.initial, alpha, &Assignment::new(), &theta).unwrap();
        // {R(a)} → {Q(a)}: R is forgotten (no copy effect for R from R).
        let r = dcds.data.schema.rel_id("R").unwrap();
        let q = dcds.data.schema.rel_id("Q").unwrap();
        assert_eq!(next.cardinality(r), 0);
        assert_eq!(next.cardinality(q), 1);
    }

    #[test]
    fn evals_enumerate_total_functions() {
        let dcds = example_5_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        let calls = pre.calls();
        assert_eq!(calls.len(), 1);
        let a = dcds.data.pool.get("a").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let values: BTreeSet<Value> = [a, b].into_iter().collect();
        assert_eq!(evals_over(&calls, &values).len(), 2);
    }

    #[test]
    fn commitment_successors_of_example_5_1() {
        // One call f(a) against known {a}: Known(a) or Fresh → 2 successors.
        let dcds = example_5_1();
        let mut pool = dcds.working_pool();
        let succs = nondet_successors_by_commitment(&dcds, &dcds.data.initial, &mut pool);
        assert_eq!(succs.len(), 2);
        // Every successor is a single Q-fact: state-bounded with bound 1.
        for (_, _, _, inst) in &succs {
            assert_eq!(inst.len(), 1);
        }
    }

    #[test]
    fn example_5_2_accumulates() {
        // Applying α twice with fresh results grows the state: R(a) →
        // {R(a), Q(v)} → {R(a), Q(v), Q(v')}.
        let dcds = example_5_2();
        let mut pool = dcds.working_pool();
        let succs1 = nondet_successors_by_commitment(&dcds, &dcds.data.initial, &mut pool);
        let grown = succs1
            .iter()
            .map(|(_, _, _, i)| i)
            .find(|i| i.len() == 2)
            .expect("fresh successor has two facts");
        let succs2 = nondet_successors_by_commitment(&dcds, grown, &mut pool);
        assert!(succs2.iter().any(|(_, _, _, i)| i.len() == 3));
    }

    #[test]
    fn empty_value_set_yields_no_evals_when_calls_exist() {
        let dcds = example_5_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        assert!(evals_over(&pre.calls(), &BTreeSet::new()).is_empty());
    }
}

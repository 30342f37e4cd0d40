//! Deterministic service semantics (Section 4.1).
//!
//! States of the concrete transition system are pairs `⟨I, M⟩` of an
//! instance and a *service-call map* `M : SC → C` recording every result
//! returned so far; determinism is exactly the persistence of `M` across
//! steps. `EXECS` relates `⟨I, M⟩` to `⟨I', M'⟩` when some legal `ασ`
//! produces `M' = SERVICECALLS(I, ασ, M)` (old entries kept, new calls bound
//! to arbitrary values) and `I' = M'(DO(I, ασ))` satisfies the constraints.
//!
//! The successor space is infinite (new calls can return anything); this
//! module exposes (i) point successors under an explicit choice of values
//! ([`det_step`]) and (ii) the finitely many *commitment representatives*
//! ([`det_successors_by_commitment`]), which is what the abstract transition
//! system of Theorem 4.3 retains.

use crate::action::ActionId;
use crate::commitment::{
    enumerate_commitments, enumerate_commitments_except, instantiate, Commitment, Enumerated,
};
use crate::dcds::Dcds;
use crate::do_op::{do_action, legal_assignments, resolve_with_map, DoRows, DoTerm, PreInstance};
use crate::term::ServiceCall;
use dcds_folang::Assignment;
use dcds_reldata::{ConstantPool, DenseCtx, Facts, Instance, RelId, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// A state of the deterministic concrete transition system: `⟨I, M⟩`.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DetState {
    /// The current database `I`, shared with the transition system that
    /// keeps the state.
    pub instance: Arc<Instance>,
    /// The service-call map `M` accumulated so far.
    pub call_map: BTreeMap<ServiceCall, Value>,
}

impl DetState {
    /// The initial state `⟨I₀, ∅⟩`.
    pub fn initial(dcds: &Dcds) -> Self {
        DetState {
            instance: Arc::new(dcds.data.initial.clone()),
            call_map: BTreeMap::new(),
        }
    }

    /// All values the state *remembers*: the active domain plus every
    /// argument and result recorded in the call map.
    pub fn known_values(&self) -> BTreeSet<Value> {
        let mut out = self.instance.active_domain();
        for (call, result) in &self.call_map {
            out.extend(call.args.iter().copied());
            out.insert(*result);
        }
        out
    }

    /// The `Known` targets of an equality commitment from this state: its
    /// known values ([`DetState::known_values`]) and the `rigid`
    /// constants, ascending and without repeats.
    pub fn known_targets(&self, rigid: &BTreeSet<Value>) -> Vec<Value> {
        let len = self.instance.facts().map(|(_, t)| t.arity()).sum::<usize>()
            + self
                .call_map
                .keys()
                .map(|call| call.args.len() + 1)
                .sum::<usize>()
            + rigid.len();
        let mut known: Vec<Value> = Vec::with_capacity(len);
        known.extend(self.instance.facts().flat_map(|(_, t)| t.iter()));
        for (call, result) in &self.call_map {
            known.extend(call.args.iter().copied());
            known.push(*result);
        }
        known.extend(rigid.iter().copied());
        known.sort_unstable();
        known.dedup();
        known
    }

    /// Encode the full state (instance + call map) as a colored fact set for
    /// isomorphism checking / canonicalisation. Relation facts keep their
    /// relation index as color; the entry `f(v₁..vₙ) ↦ r` becomes a fact of
    /// color `num_rels + f` with tuple `(v₁..vₙ, r)`. Both parts come in
    /// ascending order (relation facts sorted, call-map entries by
    /// function and then arguments), so they are stored as they come.
    pub fn to_facts(&self, num_rels: usize) -> Facts {
        let relational = self
            .instance
            .facts()
            .map(|(rel, t)| (rel.index() as u32, t.clone()));
        let calls = self.call_map.iter().map(|(call, result)| {
            let mut t: Vec<Value> = call.args.clone();
            t.push(*result);
            ((num_rels + call.func.index()) as u32, Tuple::from(t))
        });
        Facts::from_sorted_facts(relational.chain(calls))
    }

    /// The dense form of [`DetState::to_facts`] over `rigid`, read from the
    /// state without building the [`Facts`]: the same signature and
    /// canonical key.
    pub fn dense(&self, num_rels: usize, rigid: &BTreeSet<Value>) -> DenseCtx {
        DenseCtx::from_sorted_facts(
            || {
                let relational = self
                    .instance
                    .facts()
                    .map(|(rel, t)| (rel.index() as u32, t.values().iter().copied().chain(None)));
                let calls = self.call_map.iter().map(|(call, result)| {
                    let color = (num_rels + call.func.index()) as u32;
                    (color, call.args.iter().copied().chain(Some(*result)))
                });
                relational.chain(calls)
            },
            rigid,
        )
    }
}

/// One concrete execution step `⟨⟨I,M⟩, ασ, ⟨I',M'⟩⟩ ∈ EXECS` under an
/// explicit assignment of values to the *new* calls. Returns `None` when
/// the resulting instance violates the constraints (condition 4 of EXECS) or
/// when `choice` contradicts `M` / misses a call.
pub fn det_step(
    dcds: &Dcds,
    state: &DetState,
    action: ActionId,
    sigma: &Assignment,
    choice: &BTreeMap<ServiceCall, Value>,
) -> Option<DetState> {
    let pre = do_action(dcds, &state.instance, action, sigma);
    det_step_with_pre(dcds, state, &pre, choice)
}

/// [`det_step`] for a caller that has already computed `DO(I, ασ)`.
///
/// The parallel frontier expansion computes each `PreInstance` once per
/// legal `ασ` and then evaluates every commitment of that `ασ` against it,
/// instead of re-running `DO` (a full query-evaluation pass) per
/// commitment as the pointwise API does.
pub fn det_step_with_pre(
    dcds: &Dcds,
    state: &DetState,
    pre: &PreInstance,
    choice: &BTreeMap<ServiceCall, Value>,
) -> Option<DetState> {
    let mut new_map = state.call_map.clone();
    for call in pre.calls() {
        if let Some(&v) = state.call_map.get(&call) {
            // Determinism: a previously-answered call must not be re-chosen
            // differently.
            if let Some(&w) = choice.get(&call) {
                if w != v {
                    return None;
                }
            }
            let _ = v;
        } else {
            let v = *choice.get(&call)?;
            new_map.insert(call, v);
        }
    }
    let inst = resolve_with_map(pre, &new_map)?;
    if !dcds.data.satisfies_constraints(&inst) {
        return None;
    }
    Some(DetState {
        instance: Arc::new(inst),
        call_map: new_map,
    })
}

/// Which single facts violate, on their own, a constraint that has a
/// delta check, as a function of one new call's answer: decided once per
/// fact *template* per run, and shared by every state and worker.
///
/// Such a constraint's violation is a positive join with row filters, so
/// it is monotone: a fact that violates it alone violates it inside any
/// instance. A commitment whose `Δ` would contain the fact is therefore
/// rejected by [`SplitDo::screen`], and [`SplitDo::commitments`] need not
/// build it. The constraints mention only rigid constants, so whether
/// `R(t̄)` violates depends only on `R`, the rigid values of `t̄` and its
/// equality pattern. A template is a call-bearing fact up to that: its
/// relation, its rigid values, its other values by equality pattern and
/// the positions of the call. One decision covers every answer: each rigid
/// constant, each other value of the fact, and a value distinct from all
/// of them.
#[derive(Debug)]
pub struct SoloViolations {
    /// Sorted rigid constants.
    rigid: Vec<Value>,
    /// Whether any constraint has a delta check (else nothing is decided).
    active: bool,
    /// Template `[relation, code…]` → the answers that make the fact
    /// violate. The call codes as [`SoloViolations::CALL`], a rigid value
    /// as its index, any other value as `FREE` plus the first position it
    /// takes in the tuple.
    verdicts: Mutex<HashMap<Vec<u64>, Arc<Violating>>>,
}

/// The answers to a template's call that make its fact violate alone.
#[derive(Debug)]
struct Violating {
    /// The rigid constants, sorted.
    rigid: Vec<Value>,
    /// Per non-rigid value at a position other than the call's, in order
    /// of first occurrence: the answer equal to it.
    other: Vec<bool>,
    /// An answer equal to no rigid constant and no value of the fact.
    distinct: bool,
}

impl SoloViolations {
    /// Codes of non-rigid values start here, above every value index.
    const FREE: u64 = 1 << 32;
    /// The code of the call's positions.
    const CALL: u64 = u64::MAX;

    /// An empty memo over `rigid`, which must hold every constant of the
    /// constraints ([`Dcds::rigid_constants`] does).
    pub fn new(dcds: &Dcds, rigid: &BTreeSet<Value>) -> SoloViolations {
        SoloViolations {
            rigid: rigid.iter().copied().collect(),
            active: dcds.data.all_constraints().any(|c| c.has_delta_check()),
            verdicts: Mutex::new(HashMap::new()),
        }
    }

    /// Push onto `ruled_out` every value of `known` that, as the answer to
    /// the one call of the fact `rel(terms)`, makes the fact violate alone.
    fn rule_out(
        &self,
        dcds: &Dcds,
        rel: RelId,
        terms: &[DoTerm],
        known: &[Value],
        ruled_out: &mut Vec<Value>,
    ) {
        // The template's key, and the fact's non-rigid values in order of
        // first occurrence.
        let mut key = Vec::with_capacity(1 + terms.len());
        let mut others: Vec<Value> = Vec::new();
        key.push(rel.index() as u64);
        for (p, t) in terms.iter().enumerate() {
            key.push(match *t {
                DoTerm::Call(_) => Self::CALL,
                DoTerm::Val(v) if self.rigid.binary_search(&v).is_ok() => v.index() as u64,
                DoTerm::Val(v) => {
                    if !others.contains(&v) {
                        others.push(v);
                    }
                    let first = terms.iter().position(|w| *w == DoTerm::Val(v));
                    Self::FREE + first.unwrap_or(p) as u64
                }
            });
        }
        let violating = {
            let mut verdicts = self
                .verdicts
                .lock()
                .expect("no thread panics while it holds the template memo");
            let entry = verdicts
                .entry(key)
                .or_insert_with(|| Arc::new(self.decide(dcds, rel, terms, &others)));
            Arc::clone(entry)
        };
        for &v in known {
            let violates = match self.rigid.binary_search(&v) {
                Ok(_) => violating.rigid.binary_search(&v).is_ok(),
                Err(_) => match others.iter().position(|&w| w == v) {
                    Some(i) => violating.other[i],
                    None => violating.distinct,
                },
            };
            if violates && !ruled_out.contains(&v) {
                ruled_out.push(v);
            }
        }
    }

    /// Decide a template on the fact `rel(terms)`, whose non-rigid values
    /// are `others`: resolve its call to each candidate answer and check
    /// the one-fact instance.
    fn decide(&self, dcds: &Dcds, rel: RelId, terms: &[DoTerm], others: &[Value]) -> Violating {
        let violates = |answer: Value| {
            let vals: Vec<Value> = terms
                .iter()
                .map(|t| match *t {
                    DoTerm::Val(v) => v,
                    DoTerm::Call(_) => answer,
                })
                .collect();
            let alone = Instance::from_facts([(rel, Tuple::from(vals))]);
            dcds.data
                .all_constraints()
                .any(|c| c.has_delta_check() && !c.satisfied(&alone))
        };
        // A value above every value of the fact and every rigid constant.
        let above = self.rigid.iter().chain(others).map(|v| v.index() + 1).max();
        Violating {
            rigid: self
                .rigid
                .iter()
                .copied()
                .filter(|&r| violates(r))
                .collect(),
            other: others.iter().map(|&w| violates(w)).collect(),
            distinct: violates(Value::from_index(above.unwrap_or(0))),
        }
    }
}

/// `DO(I, ασ)` split once per `(⟨I, M⟩, ασ)` so that each equality
/// commitment of its new calls is screened before its successor is built
/// (the det abstraction's step). It is split from the [`DoRows`] of the
/// action's program:
///
/// * the *base*: the facts with no new call, old calls resolved through
///   `M`. It is part of every commitment's successor instance, and it is
///   checked once against the constraints that have a delta check; if it
///   already violates one, so does every successor;
/// * the facts that carry a new call, resolved per commitment into a
///   small delta `Δ` ([`SplitDo::screen`]), against which those
///   constraints are decided on the guard rows that use a `Δ` fact;
/// * the new calls, in `CALLS` order, for the commitment enumeration.
///
/// A fact of `Δ` that holds one new call `c` and no other call already
/// rules out targets: if the fact, with `c ↦ v`, violates such a
/// constraint on its own ([`SoloViolations`]), then every commitment that
/// sends `c` to `Known(v)` fails the screen, so [`SplitDo::commitments`]
/// counts those commitments without building them. Only a commitment that
/// is built and passes the screen gets its instance `base ∪ Δ`, the full
/// check of the remaining constraints and its call map
/// ([`SplitDo::materialise`]). [`SplitDo::step`] returns exactly what
/// [`det_step_with_pre`] returns on [`do_action`]'s `DO(I, ασ)`, for a
/// choice that answers the new calls.
#[derive(Debug, Clone)]
pub struct SplitDo {
    base: Instance,
    /// The facts with a new call, without repeats: old calls resolved
    /// through `M`, a new call as its position in `new_calls`.
    pending: Vec<(RelId, Vec<DoTerm>)>,
    new_calls: Vec<ServiceCall>,
    /// The base violates a constraint that has a delta check.
    base_violates: bool,
}

impl SplitDo {
    /// Split `rows = DO(I, ασ)` against the state's call map `M`.
    pub fn new(dcds: &Dcds, state: &DetState, rows: &DoRows) -> SplitDo {
        // Each distinct call resolved through `M` once; an unanswered one
        // becomes a `DoTerm::Call` into `new_calls`, which keeps `CALLS`
        // order.
        let mut new_calls = Vec::new();
        let resolved: Vec<DoTerm> = rows
            .calls()
            .map(|call| match state.call_map.get(&call) {
                Some(&v) => DoTerm::Val(v),
                None => {
                    new_calls.push(call);
                    DoTerm::Call(new_calls.len() as u32 - 1)
                }
            })
            .collect();
        let mut base = Vec::new();
        let mut pending = Vec::new();
        for (rel, terms) in rows.facts() {
            let terms: Vec<DoTerm> = terms
                .iter()
                .map(|t| match *t {
                    DoTerm::Call(c) => resolved[c as usize],
                    val => val,
                })
                .collect();
            let vals: Option<Vec<Value>> = terms
                .iter()
                .map(|t| match *t {
                    DoTerm::Val(v) => Some(v),
                    DoTerm::Call(_) => None,
                })
                .collect();
            match vals {
                Some(vals) => base.push((rel, Tuple::from(vals))),
                None => pending.push((rel, terms)),
            }
        }
        let base = Instance::from_facts(base);
        pending.sort_unstable();
        pending.dedup();
        let base_violates = dcds
            .data
            .all_constraints()
            .any(|c| c.has_delta_check() && !c.satisfied(&base));
        SplitDo {
            base,
            pending,
            new_calls,
            base_violates,
        }
    }

    /// The calls of `DO(I, ασ)` that `M` does not answer, in order.
    pub fn new_calls(&self) -> &[ServiceCall] {
        &self.new_calls
    }

    /// The equality commitments of the new calls against `known`, in
    /// [`enumerate_commitments`]' order, without those that a single fact
    /// of `Δ` rules out (see [`SoloViolations`]); those are only counted.
    pub fn commitments(&self, dcds: &Dcds, known: &[Value], solo: &SoloViolations) -> Enumerated {
        let mut ruled_out: Vec<Vec<Value>> = vec![Vec::new(); self.new_calls.len()];
        if solo.active {
            for (rel, terms) in &self.pending {
                let mut calls = terms.iter().filter_map(|t| match *t {
                    DoTerm::Call(c) => Some(c),
                    DoTerm::Val(_) => None,
                });
                let c = calls.next().expect("a pending fact holds a new call");
                if calls.all(|d| d == c) {
                    solo.rule_out(dcds, *rel, terms, known, &mut ruled_out[c as usize]);
                }
            }
        }
        enumerate_commitments_except(&self.new_calls, known, &ruled_out)
    }

    /// Resolve the call-bearing facts under `choice` into `Δ`, and decide
    /// every constraint that has a delta check on `base ∪ Δ`. `None` when
    /// one is violated (or `choice` misses a new call); otherwise `Δ`, for
    /// [`SplitDo::materialise`].
    pub fn screen(&self, dcds: &Dcds, choice: &BTreeMap<ServiceCall, Value>) -> Option<Instance> {
        if self.base_violates {
            return None;
        }
        let answers: Vec<Value> = self
            .new_calls
            .iter()
            .map(|c| choice.get(c).copied())
            .collect::<Option<_>>()?;
        let delta = Instance::from_facts(self.pending.iter().map(|(rel, terms)| {
            let vals: Vec<Value> = terms
                .iter()
                .map(|t| match *t {
                    DoTerm::Val(v) => v,
                    DoTerm::Call(c) => answers[c as usize],
                })
                .collect();
            (*rel, Tuple::from(vals))
        }));
        let violated = dcds
            .data
            .all_constraints()
            .any(|c| c.satisfied_with_delta(&self.base, &delta) == Some(false));
        (!violated).then_some(delta)
    }

    /// The successor of a screened commitment: `I' = base ∪ Δ`, checked
    /// against the constraints without a delta check, and
    /// `M' = M ∪ choice` over the new calls.
    pub fn materialise(
        &self,
        dcds: &Dcds,
        state: &DetState,
        choice: &BTreeMap<ServiceCall, Value>,
        delta: Instance,
    ) -> Option<DetState> {
        // One merge that moves `Δ`'s facts and clones the base's.
        let mut instance = delta;
        instance.extend_from(&self.base);
        let unscreened_ok = dcds
            .data
            .all_constraints()
            .all(|c| c.has_delta_check() || c.satisfied(&instance));
        if !unscreened_ok {
            return None;
        }
        let mut call_map = state.call_map.clone();
        for call in &self.new_calls {
            call_map.insert(call.clone(), *choice.get(call)?);
        }
        Some(DetState {
            instance: Arc::new(instance),
            call_map,
        })
    }

    /// [`SplitDo::screen`], then [`SplitDo::materialise`].
    pub fn step(
        &self,
        dcds: &Dcds,
        state: &DetState,
        choice: &BTreeMap<ServiceCall, Value>,
    ) -> Option<DetState> {
        let delta = self.screen(dcds, choice)?;
        self.materialise(dcds, state, choice, delta)
    }
}

/// The commitment-representative successors of a deterministic state: for
/// every legal `ασ` and every equality commitment of the new calls against
/// the state's known values (and `ADOM(I₀)`), one successor whose fresh
/// cells are instantiated with freshly minted constants.
///
/// Constraint-violating representatives are dropped (the paper's
/// "filtering it away if this is not the case").
pub fn det_successors_by_commitment(
    dcds: &Dcds,
    state: &DetState,
    pool: &mut ConstantPool,
) -> Vec<(ActionId, Assignment, Commitment, DetState)> {
    let mut out = Vec::new();
    let rigid = dcds.rigid_constants();
    for (action, sigma) in legal_assignments(dcds, &state.instance) {
        let pre = do_action(dcds, &state.instance, action, &sigma);
        let new_calls: Vec<ServiceCall> = pre
            .calls()
            .into_iter()
            .filter(|c| !state.call_map.contains_key(c))
            .collect();
        let known = state.known_targets(&rigid);
        for commitment in enumerate_commitments(&new_calls, &known) {
            let choice = instantiate(&commitment, pool);
            if let Some(next) = det_step_with_pre(dcds, state, &pre, &choice) {
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
    use crate::commitment::CommitTarget;
    use crate::service::ServiceKind;

    fn example_4_1() -> Dcds {
        DcdsBuilder::new()
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
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_4_2() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn step_records_calls_deterministically() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|c| (c, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        assert_eq!(s1.call_map.len(), 2);
        // Second step: P still holds only a, so the issued calls f(a), g(a)
        // are already answered by M — determinism means no new choices.
        let pre2 = do_action(&dcds, &s1.instance, alpha, &Assignment::new());
        let new: Vec<_> = pre2
            .calls()
            .into_iter()
            .filter(|c| !s1.call_map.contains_key(c))
            .collect();
        assert!(new.is_empty());
        // And the deterministic step is now unique: passing an empty choice
        // succeeds and reuses the recorded results. R(a) is dropped (its
        // guard Q(a,a) no longer holds), P(a) and Q(b,b) are reproduced.
        let s2 = det_step(&dcds, &s1, alpha, &Assignment::new(), &BTreeMap::new()).unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        assert_eq!(s2.instance.cardinality(r), 0);
        assert_eq!(s2.instance.len(), 2);
        assert_eq!(s2.call_map, s1.call_map);
    }

    #[test]
    fn contradicting_choice_rejected() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let c = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|cl| (cl, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        // Re-answering f(a) with a different value must be rejected.
        let bad: BTreeMap<ServiceCall, Value> = s1
            .call_map
            .keys()
            .cloned()
            .map(|k| (k, c))
            .chain(
                do_action(&dcds, &s1.instance, alpha, &Assignment::new())
                    .calls()
                    .into_iter()
                    .map(|k| (k, c)),
            )
            .collect();
        assert!(det_step(&dcds, &s1, alpha, &Assignment::new(), &bad).is_none());
    }

    #[test]
    fn commitment_successors_of_example_4_1() {
        // From I0 the two new calls f(a), g(a) against known {a} give
        // (K,K), (K,F0), (F0,K), (F0,F0), (F0,F1): 5 successors.
        let dcds = example_4_1();
        let mut pool = dcds.working_pool();
        let s0 = DetState::initial(&dcds);
        let succs = det_successors_by_commitment(&dcds, &s0, &mut pool);
        assert_eq!(succs.len(), 5);
    }

    #[test]
    fn equality_constraint_prunes_successors() {
        // Example 4.2: the constraint forces f(a) = a, so only commitments
        // with f(a) ↦ Known(a) survive: g(a) ∈ {a, fresh} → 2 successors.
        let dcds = example_4_2();
        let mut pool = dcds.working_pool();
        let s0 = DetState::initial(&dcds);
        let succs = det_successors_by_commitment(&dcds, &s0, &mut pool);
        assert_eq!(succs.len(), 2);
        let a = dcds.data.pool.get("a").unwrap();
        for (_, _, commitment, _) in &succs {
            let f_call = commitment
                .keys()
                .find(|c| dcds.process.services.name(c.func) == "f")
                .unwrap();
            assert_eq!(commitment[f_call], CommitTarget::Known(a));
        }
    }

    #[test]
    fn known_targets_are_the_known_values_and_the_rigid_constants() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let (b, c) = (pool.mint("v"), pool.mint("v"));
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|call| (call, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        let rigid: BTreeSet<Value> = [c].into_iter().collect();
        let mut want = s1.known_values();
        want.extend(&rigid);
        assert_eq!(
            s1.known_targets(&rigid),
            want.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn dense_form_equals_that_of_the_facts() {
        // Along a few commitment successors of Example 4.1 (call maps
        // included), the state's own dense form keys and signs exactly as
        // the dense form of its `Facts` does.
        let dcds = example_4_1();
        let n = dcds.data.schema.len();
        let rigid = dcds.rigid_constants();
        let mut pool = dcds.working_pool();
        let mut states = vec![DetState::initial(&dcds)];
        for _ in 0..2 {
            let next: Vec<DetState> = states
                .iter()
                .flat_map(|s| det_successors_by_commitment(&dcds, s, &mut pool))
                .map(|(_, _, _, next)| next)
                .collect();
            states.extend(next);
        }
        assert!(states.len() > 10 && states.iter().any(|s| !s.call_map.is_empty()));
        for s in &states {
            let (own, via_facts) = (s.dense(n, &rigid), s.to_facts(n).dense(&rigid));
            assert_eq!(own.signature(), via_facts.signature());
            assert_eq!(own.canonical_key_stats(), via_facts.canonical_key_stats());
        }
    }

    #[test]
    fn known_values_include_call_map() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|c| (c, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        assert!(s1.known_values().contains(&b));
    }

    #[test]
    fn to_facts_distinguishes_call_maps() {
        let dcds = example_4_1();
        let n = dcds.data.schema.len();
        let s0 = DetState::initial(&dcds);
        let mut s0b = s0.clone();
        let a = dcds.data.pool.get("a").unwrap();
        s0b.call_map.insert(
            ServiceCall {
                func: crate::service::FuncId::from_index(0),
                args: vec![a],
            },
            a,
        );
        assert_ne!(s0.to_facts(n), s0b.to_facts(n));
    }
}

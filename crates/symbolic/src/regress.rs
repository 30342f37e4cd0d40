//! The regression operator: weakest-precondition clauses of an action.
//!
//! Given a target clause `C` and an action `α`, `regress` produces clauses
//! `D` such that a state satisfying `D` *may* step to a state satisfying
//! `C` by executing `α` — the backward image through the overwrite
//! semantics of `DO` (Section 4.1 of the paper): the successor instance is
//! exactly the union of grounded effect heads, so **every** atom of `C`
//! must be produced by some (effect, head fact, q⁺ disjunct) choice, while
//! the state must also let some condition–action rule fire `α`.
//!
//! A choice whose head fact puts a constant where the target atom holds a
//! different constant can never produce the atom; such choices are pruned
//! before any candidate is built, so the enumeration only builds clauses
//! that could survive normalisation on that account.
//!
//! Per-atom variable copies are exact: `DO` unions the heads over *all*
//! answers of each effect, so distinct target atoms may be produced by
//! distinct answers, and equal answers are the special case where the
//! copies unify through the equalities.
//!
//! Service calls in effect heads regress by kind:
//!
//! * **deterministic** `f(t̄)` becomes the application term `f(t̄)` — the
//!   persistent service-call map makes it a single value per argument
//!   tuple across the whole run, which the congruence closure enforces;
//! * **nondeterministic** `f(t̄)` becomes a fresh variable, interned per
//!   syntactic argument tuple *within the step* (the same ground call
//!   resolves once per step). Beyond syntactic equality the result is
//!   over-approximate, which is the sound direction.
//!
//! Two further over-approximations, both sound for SAFE verdicts and both
//! counted so the verdict report can show them: a non-UCQ effect filter
//! `Q⁻` is dropped, and a non-UCQ rule condition is dropped.

use crate::clause::{Clause, STerm, SVar};
use dcds_core::{ActionId, BaseTerm, Dcds, ETerm, FuncId, ServiceKind};
use dcds_folang::{ConjunctiveQuery, Formula, QTerm, Ucq, Var};
use dcds_reldata::RelId;
use std::collections::BTreeMap;

/// Result of regressing one clause through one action.
#[derive(Debug, Default)]
pub struct RegressOut {
    /// Normalised precondition clauses (unsatisfiable candidates dropped).
    pub clauses: Vec<Clause>,
    /// Candidate clauses built before normalisation. Production options
    /// that clash with the target on a constant are never built, so this
    /// counts only candidates that survive that pruning.
    pub candidates: u64,
    /// Times a non-UCQ effect filter `Q⁻` was dropped (over-approximation).
    pub qminus_dropped: u64,
    /// Times a non-UCQ rule condition was dropped (over-approximation).
    pub cond_dropped: u64,
    /// The candidate limit cut the enumeration short.
    pub truncated: bool,
}

/// How an effect's `Q⁻` filter participates in regression.
enum QmPlan {
    /// `Formula::True`: no filter.
    Absent,
    /// UCQ-shaped: regressed exactly, one case per disjunct.
    Ucq(Ucq),
    /// Outside the UCQ fragment: dropped (sound over-approximation).
    Dropped,
}

/// One way a target atom can be produced: effect, head fact, `q⁺`
/// disjunct, and (when the filter is a UCQ) `Q⁻` disjunct.
#[derive(Clone, Copy)]
struct AtomOption {
    effect_ix: usize,
    head_ix: usize,
    qplus_ix: usize,
    /// `None` when the filter is absent or dropped.
    qminus_ix: Option<usize>,
    /// The filter was dropped for this option.
    qminus_dropped: bool,
}

/// One way `α` can have been licensed: a rule and a disjunct of its
/// condition (`None` disjunct when the condition is `true` or dropped).
#[derive(Clone, Copy)]
struct RuleOption<'a> {
    ucq: Option<(&'a Ucq, usize)>,
    dropped: bool,
}

/// Regress `target` through `action`, emitting at most `limit` clauses.
pub fn regress(dcds: &Dcds, target: &Clause, action: ActionId, limit: usize) -> RegressOut {
    let mut out = RegressOut::default();
    let act = dcds.process.action(action);

    // Rule options: α must be licensed by some rule whose condition holds
    // in the predecessor.
    let rule_ucqs: Vec<(Option<Ucq>, &Formula)> = dcds
        .process
        .rules_for(action)
        .map(|r| {
            if r.condition == Formula::True {
                (Some(Ucq::truth()), &r.condition)
            } else {
                (Ucq::from_formula(&r.condition), &r.condition)
            }
        })
        .collect();
    if rule_ucqs.is_empty() {
        return out; // no rule ever fires α
    }
    let mut rule_options: Vec<RuleOption<'_>> = Vec::new();
    for (ucq, _) in &rule_ucqs {
        match ucq {
            Some(u) => {
                for dix in 0..u.disjuncts.len() {
                    rule_options.push(RuleOption {
                        ucq: Some((u, dix)),
                        dropped: false,
                    });
                }
            }
            None => rule_options.push(RuleOption {
                ucq: None,
                dropped: true,
            }),
        }
    }
    if rule_options.is_empty() {
        return out; // every condition is an unsatisfiable (empty) UCQ
    }

    // Filter plans, one per effect.
    let qm_plans: Vec<QmPlan> = act
        .effects
        .iter()
        .map(|e| {
            if e.qminus == Formula::True {
                QmPlan::Absent
            } else {
                match Ucq::from_formula(&e.qminus) {
                    Some(u) => QmPlan::Ucq(u),
                    None => QmPlan::Dropped,
                }
            }
        })
        .collect();

    // Production options per target atom.
    let mut options: Vec<Vec<AtomOption>> = Vec::with_capacity(target.atoms.len());
    for (rel, terms) in &target.atoms {
        let mut opts = Vec::new();
        for (eix, effect) in act.effects.iter().enumerate() {
            for (hix, (hrel, hterms)) in effect.head.iter().enumerate() {
                if hrel != rel || constant_clash(terms, hterms) {
                    continue;
                }
                for qix in 0..effect.qplus.disjuncts.len() {
                    match &qm_plans[eix] {
                        QmPlan::Absent => opts.push(AtomOption {
                            effect_ix: eix,
                            head_ix: hix,
                            qplus_ix: qix,
                            qminus_ix: None,
                            qminus_dropped: false,
                        }),
                        QmPlan::Dropped => opts.push(AtomOption {
                            effect_ix: eix,
                            head_ix: hix,
                            qplus_ix: qix,
                            qminus_ix: None,
                            qminus_dropped: true,
                        }),
                        QmPlan::Ucq(u) => {
                            for mix in 0..u.disjuncts.len() {
                                opts.push(AtomOption {
                                    effect_ix: eix,
                                    head_ix: hix,
                                    qplus_ix: qix,
                                    qminus_ix: Some(mix),
                                    qminus_dropped: false,
                                });
                            }
                        }
                    }
                }
            }
        }
        if opts.is_empty() {
            return out; // α cannot produce this atom at all
        }
        options.push(opts);
    }

    // Enumerate rule option × per-atom option combinations (odometer).
    let mut pick = vec![0usize; target.atoms.len()];
    'rules: for rule_opt in &rule_options {
        pick.iter_mut().for_each(|p| *p = 0);
        loop {
            if out.clauses.len() >= limit {
                out.truncated = true;
                break 'rules;
            }
            build_candidate(dcds, target, action, rule_opt, &options, &pick, &mut out);
            // Advance the odometer; a full wrap (including the atom-free
            // single-combination case) ends this rule option.
            let mut k = 0;
            while k < pick.len() {
                pick[k] += 1;
                if pick[k] < options[k].len() {
                    break;
                }
                pick[k] = 0;
                k += 1;
            }
            if k == pick.len() {
                break;
            }
        }
    }
    out
}

/// Does some position hold a constant in the target atom and a different
/// constant in the head fact? Every candidate built from that head would
/// equate two distinct constants, which [`Clause::normalize`] rejects, so
/// the option is dropped before any candidate is built.
fn constant_clash(target: &[STerm], head: &[ETerm]) -> bool {
    target
        .iter()
        .zip(head)
        .any(|pair| matches!(pair, (STerm::Const(a), ETerm::Base(BaseTerm::Const(b))) if a != b))
}

/// Fresh-variable allocator plus the shared maps of one candidate.
struct CandidateVars {
    next: SVar,
    params: BTreeMap<Var, SVar>,
    nondet: BTreeMap<(FuncId, Vec<STerm>), SVar>,
}

impl CandidateVars {
    fn fresh(&mut self) -> SVar {
        let v = self.next;
        self.next += 1;
        v
    }
}

#[allow(clippy::too_many_arguments)]
fn build_candidate(
    dcds: &Dcds,
    target: &Clause,
    action: ActionId,
    rule_opt: &RuleOption<'_>,
    options: &[Vec<AtomOption>],
    pick: &[usize],
    out: &mut RegressOut,
) {
    let act = dcds.process.action(action);
    let mut vars = CandidateVars {
        next: target.next_var(),
        params: BTreeMap::new(),
        nondet: BTreeMap::new(),
    };
    for p in &act.params {
        let v = vars.fresh();
        vars.params.insert(p.clone(), v);
    }

    let mut atoms: Vec<(RelId, Vec<STerm>)> = Vec::new();
    let mut eqs: Vec<(STerm, STerm)> = target.eqs.clone();
    let neqs: Vec<(STerm, STerm)> = target.neqs.clone();

    // The licensing rule condition must hold in the predecessor.
    if rule_opt.dropped {
        out.cond_dropped += 1;
    } else if let Some((ucq, dix)) = rule_opt.ucq {
        let cq = &ucq.disjuncts[dix];
        let mut copy: BTreeMap<Var, SVar> = BTreeMap::new();
        add_cq(cq, &mut copy, &mut vars, &mut atoms, &mut eqs);
    }

    // Each target atom is produced by its chosen (effect, head, disjunct).
    for (aix, (_, terms)) in target.atoms.iter().enumerate() {
        let opt = options[aix][pick[aix]];
        if opt.qminus_dropped {
            out.qminus_dropped += 1;
        }
        let effect = &act.effects[opt.effect_ix];
        let cq = &effect.qplus.disjuncts[opt.qplus_ix];
        // Fresh copies of the disjunct's variables, one set per atom.
        let mut copy: BTreeMap<Var, SVar> = BTreeMap::new();
        add_cq(cq, &mut copy, &mut vars, &mut atoms, &mut eqs);
        // Answer variables are guaranteed in `copy` by range restriction
        // (head ⊆ atom vars); allocate defensively anyway.
        for v in effect.qplus.head() {
            if !vars.params.contains_key(v) && !copy.contains_key(v) {
                let id = vars.fresh();
                copy.insert(v.clone(), id);
            }
        }
        // The filter Q⁻, when it is a UCQ, shares the answer variables.
        if let Some(mix) = opt.qminus_ix {
            if let QmPlan::Ucq(u) = qm_plan_of(effect) {
                let dq = &u.disjuncts[mix];
                let mut qm_copy: BTreeMap<Var, SVar> = BTreeMap::new();
                for v in effect.qplus.head() {
                    if let Some(id) = copy.get(v) {
                        qm_copy.insert(v.clone(), *id);
                    }
                }
                add_cq(dq, &mut qm_copy, &mut vars, &mut atoms, &mut eqs);
            }
        }
        // Unify the target atom with the grounded head fact.
        let (_, head_terms) = &effect.head[opt.head_ix];
        debug_assert_eq!(terms.len(), head_terms.len());
        for (t, e) in terms.iter().zip(head_terms.iter()) {
            let h = eterm_to_sterm(dcds, e, &copy, &mut vars);
            eqs.push((t.clone(), h));
        }
    }

    out.candidates += 1;
    let cand = Clause {
        atoms,
        eqs,
        neqs,
        level: target.level + 1,
    };
    if let Some(n) = cand.normalize() {
        out.clauses.push(n);
    }
}

/// Recompute the filter plan for one effect (cheap; avoids threading the
/// per-action vector through the candidate builder).
fn qm_plan_of(effect: &dcds_core::Effect) -> QmPlan {
    if effect.qminus == Formula::True {
        QmPlan::Absent
    } else {
        match Ucq::from_formula(&effect.qminus) {
            Some(u) => QmPlan::Ucq(u),
            None => QmPlan::Dropped,
        }
    }
}

/// Add a conjunctive query's atoms and equalities to the candidate, with
/// parameters shared and all other variables freshly copied via `copy`.
fn add_cq(
    cq: &ConjunctiveQuery,
    copy: &mut BTreeMap<Var, SVar>,
    vars: &mut CandidateVars,
    atoms: &mut Vec<(RelId, Vec<STerm>)>,
    eqs: &mut Vec<(STerm, STerm)>,
) {
    for (rel, ts) in &cq.atoms {
        let mapped: Vec<STerm> = ts.iter().map(|t| qterm_to_sterm(t, copy, vars)).collect();
        atoms.push((*rel, mapped));
    }
    for (a, b) in &cq.equalities {
        eqs.push((qterm_to_sterm(a, copy, vars), qterm_to_sterm(b, copy, vars)));
    }
}

fn qterm_to_sterm(t: &QTerm, copy: &mut BTreeMap<Var, SVar>, vars: &mut CandidateVars) -> STerm {
    match t {
        QTerm::Const(c) => STerm::Const(*c),
        QTerm::Var(v) => STerm::Var(var_id(v, copy, vars)),
    }
}

fn var_id(v: &Var, copy: &mut BTreeMap<Var, SVar>, vars: &mut CandidateVars) -> SVar {
    if let Some(id) = vars.params.get(v) {
        return *id;
    }
    if let Some(id) = copy.get(v) {
        return *id;
    }
    let id = vars.fresh();
    copy.insert(v.clone(), id);
    id
}

/// Convert a head term: values stay, variables resolve through the answer
/// copy / parameters, service calls regress by kind.
fn eterm_to_sterm(
    dcds: &Dcds,
    e: &ETerm,
    copy: &BTreeMap<Var, SVar>,
    vars: &mut CandidateVars,
) -> STerm {
    match e {
        ETerm::Base(b) => base_resolved(b, copy, vars),
        ETerm::Call(f, args) => {
            let mapped: Vec<STerm> = args.iter().map(|a| base_resolved(a, copy, vars)).collect();
            match dcds.process.services.kind(*f) {
                ServiceKind::Deterministic => STerm::App(*f, mapped),
                ServiceKind::Nondeterministic => {
                    let key = (*f, mapped);
                    if let Some(id) = vars.nondet.get(&key) {
                        STerm::Var(*id)
                    } else {
                        let id = vars.fresh();
                        vars.nondet.insert(key, id);
                        STerm::Var(id)
                    }
                }
            }
        }
    }
}

/// Resolve a base head term; head variables must already be allocated
/// (validation guarantees head vars ⊆ answer vars ∪ params).
fn base_resolved(t: &BaseTerm, copy: &BTreeMap<Var, SVar>, vars: &mut CandidateVars) -> STerm {
    match t {
        BaseTerm::Const(c) => STerm::Const(*c),
        BaseTerm::Var(v) => {
            if let Some(id) = vars.params.get(v) {
                STerm::Var(*id)
            } else if let Some(id) = copy.get(v) {
                STerm::Var(*id)
            } else {
                debug_assert!(
                    false,
                    "head variable {v:?} not bound by answer or parameters"
                );
                STerm::Var(vars.fresh())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::DcdsBuilder;

    /// Two actions passing a phase token `p0 → p1 → p0`, each sustaining
    /// `R`.
    fn phased() -> Dcds {
        DcdsBuilder::new()
            .relation("Phase", 1)
            .relation("R", 1)
            .init_fact("Phase", &["p0"])
            .init_fact("R", &["a"])
            .action("step0", &[], |a| {
                a.effect("Phase('p0')", "Phase('p1')");
                a.effect("R(X)", "R(X)");
            })
            .action("step1", &[], |a| {
                a.effect("Phase('p1')", "Phase('p0')");
                a.effect("R(X)", "R(X)");
            })
            .rule("Phase('p0')", "step0")
            .rule("Phase('p1')", "step1")
            .build()
            .unwrap()
    }

    /// `∃x. Phase(phase) ∧ R(x)`.
    fn phase_target(dcds: &Dcds, phase: &str) -> Clause {
        let schema = &dcds.data.schema;
        let value = dcds.data.pool.get(phase).unwrap();
        Clause {
            atoms: vec![
                (schema.rel_id("Phase").unwrap(), vec![STerm::Const(value)]),
                (schema.rel_id("R").unwrap(), vec![STerm::Var(0)]),
            ],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        }
    }

    #[test]
    fn a_constant_no_head_produces_builds_no_candidate() {
        // `a` is a value of the spec, but no head writes it into `Phase`.
        let dcds = phased();
        let target = phase_target(&dcds, "a");
        for name in ["step0", "step1"] {
            let out = regress(&dcds, &target, dcds.action_id(name).unwrap(), 100);
            assert_eq!(out.candidates, 0, "{name}");
            assert!(out.clauses.is_empty(), "{name}");
        }
    }

    #[test]
    fn a_phase_guarded_target_regresses_only_through_its_producer() {
        let dcds = phased();
        let target = phase_target(&dcds, "p1");
        let step0 = regress(&dcds, &target, dcds.action_id("step0").unwrap(), 100);
        let step1 = regress(&dcds, &target, dcds.action_id("step1").unwrap(), 100);
        assert_eq!((step0.candidates, step1.candidates), (1, 0));
        // The precondition: the token sat at `p0`, and `R` was non-empty.
        let p0 = STerm::Const(dcds.data.pool.get("p0").unwrap());
        let pre = &step0.clauses[0];
        let phase = dcds.data.schema.rel_id("Phase").unwrap();
        assert!(pre.atoms.contains(&(phase, vec![p0])), "{pre:?}");
        assert!(step1.clauses.is_empty());
    }
}

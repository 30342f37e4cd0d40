//! The regression operator: weakest-precondition clauses of an action.
//!
//! Given a target clause `C` and an action `α`, regression produces
//! clauses `D` such that a state satisfying `D` *may* step to a state
//! satisfying `C` by executing `α` — the backward image through the
//! overwrite semantics of `DO` (Section 4.1 of the paper): the successor
//! instance is exactly the union of grounded effect heads, so **every**
//! atom of `C` must be produced by some (effect, head fact, q⁺ disjunct)
//! choice, while the state must also let some condition–action rule fire
//! `α`. A candidate is one rule option and one such choice per target
//! atom (an *option vector*); the vectors are enumerated by an odometer
//! whose first position turns fastest (colex order: the last position is
//! the most significant).
//!
//! A choice whose head fact puts a constant where the target atom holds a
//! different constant can never produce the atom; such choices are pruned
//! before any candidate is built, and a target atom whose relation no head
//! writes ends the call at once.
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
//!
//! # Slot templates
//!
//! [`Regression::new`] compiles each action once per run: its rule
//! options, and for every effect each `q⁺` disjunct together with each
//! `Q⁻` case (a body) and each head fact (a head). Their variables become
//! dense slots — parameter `k`, or local `j` numbered in the order in
//! which a candidate allocates fresh variables: the body's atoms, then its
//! equalities, then the answer variables missing from them, then the `Q⁻`
//! disjunct's own variables. A candidate gives parameter `k` the variable
//! `base + k`, where `base` is the target's first unused variable, and
//! each rule or body block the next free offset, so building it is adding
//! offsets; only nondeterministic calls are interned per candidate, after
//! the locals of the block whose head makes them. The raw candidate is
//! the same clause, variable for variable, that copying the queries
//! through name maps produced (the test reference).
//!
//! # Orbit enumeration
//!
//! Clauses are existentially closed, so renaming variables does not
//! change the states a clause denotes. Let `σ = (u v)` be a transposition
//! of target variables that maps the target onto itself (atoms,
//! equalities and disequalities, each as a set) — [`Clause::
//! transposition_symmetries`] finds them once per target, and only when
//! the target's option lists are all non-empty. `σ` permutes the target's
//! atoms by an involution `π`, and two atoms it swaps have the same
//! relation and constants, so the same option lists. The candidate of an
//! option vector `p` renamed by `σ` is the candidate of `p ∘ π` up to the
//! names of fresh variables: so the two denote the same states. A vector
//! whose image under some `π` comes earlier in the odometer is skipped;
//! every orbit's odometer-first member has no earlier image and is built,
//! before any other member, so a skipped candidate renames one built
//! earlier in the same call, which subsumes it.
//!
//! Counting: `candidates` counts every vector that passes constant-clash
//! pruning, built or skipped, and `built` the vectors built and
//! normalised. A skipped vector goes where the clause it renames went: a
//! repeat of that clause (the engine counts it as the exact duplicate, or
//! the constraint-pruned clause, it would have been), or unsatisfiable
//! when that clause was.

use crate::clause::{Clause, STerm, SVar};
use dcds_core::{ActionId, BaseTerm, Dcds, ETerm, FuncId, ServiceKind};
use dcds_folang::{ConjunctiveQuery, Formula, QTerm, Ucq, Var};
use dcds_obs::PhaseClock;
use dcds_reldata::{RelId, Value};
use std::cell::OnceCell;

/// Result of regressing one clause through one action.
#[derive(Debug, Default)]
pub struct RegressOut {
    /// Normalised precondition clauses of the built candidates
    /// (unsatisfiable ones dropped).
    pub clauses: Vec<Clause>,
    /// For each clause, the skipped option vectors whose candidates rename
    /// it (see the module docs).
    pub repeats: Vec<u64>,
    /// Option vectors that survive constant-clash pruning, built or
    /// skipped as a renaming of a built one.
    pub candidates: u64,
    /// Candidates built and normalised.
    pub built: u64,
    /// Unsatisfiable candidates: built ones normalisation rejected, and
    /// skipped ones whose renamed clause it rejected.
    pub unsat: u64,
    /// Times a non-UCQ effect filter `Q⁻` was dropped (over-approximation).
    pub qminus_dropped: u64,
    /// Times a non-UCQ rule condition was dropped (over-approximation).
    pub cond_dropped: u64,
    /// The clause limit cut the enumeration short.
    pub truncated: bool,
}

/// A term of a compiled template: a constant, or a dense slot that a
/// candidate turns into a variable by adding an offset.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Const(Value),
    /// Action parameter `k`: variable `base + k`.
    Param(SVar),
    /// Local `j` of a rule or body block: variable `offset + j`.
    Local(SVar),
}

impl Slot {
    fn resolve(self, base: SVar, offset: SVar) -> STerm {
        match self {
            Slot::Const(c) => STerm::Const(c),
            Slot::Param(k) => STerm::Var(base + k),
            Slot::Local(j) => STerm::Var(offset + j),
        }
    }
}

/// The atoms and equalities of a conjunctive query (or two, a body's
/// `q⁺` and `Q⁻` disjuncts), over slots.
#[derive(Debug, Clone, Default)]
struct CqTemplate {
    atoms: Vec<(RelId, Vec<Slot>)>,
    eqs: Vec<(Slot, Slot)>,
    /// Locals the block allocates.
    locals: SVar,
}

impl CqTemplate {
    fn instantiate(
        &self,
        base: SVar,
        offset: SVar,
        atoms: &mut Vec<(RelId, Vec<STerm>)>,
        eqs: &mut Vec<(STerm, STerm)>,
    ) {
        let r = |s: &Slot| s.resolve(base, offset);
        atoms.extend(
            self.atoms
                .iter()
                .map(|(rel, ts)| (*rel, ts.iter().map(r).collect())),
        );
        eqs.extend(self.eqs.iter().map(|(a, b)| (r(a), r(b))));
    }
}

/// A head-fact term over the slots of its `q⁺` disjunct.
#[derive(Debug)]
enum HeadTerm {
    Base(Slot),
    /// A deterministic call: the application term.
    Det(FuncId, Vec<Slot>),
    /// A nondeterministic call: a fresh variable per argument tuple.
    Nondet(FuncId, Vec<Slot>),
}

/// A body: a `q⁺` disjunct with one `Q⁻` case.
#[derive(Debug)]
struct Body {
    cq: CqTemplate,
    /// The effect's filter is outside the UCQ fragment and was dropped.
    qminus_dropped: bool,
}

/// One way to produce a fact: a body, and a head fact of the same effect
/// and `q⁺` disjunct (indices into [`ActionPlan`]).
#[derive(Debug, Clone, Copy)]
struct Production {
    body: u32,
    head: u32,
}

/// The regression plan of one action, compiled once per run.
#[derive(Debug)]
struct ActionPlan {
    params: SVar,
    /// One per rule-condition disjunct; `None` for a dropped condition.
    rules: Vec<Option<CqTemplate>>,
    bodies: Vec<Body>,
    heads: Vec<Vec<HeadTerm>>,
    /// The productions of each relation (by index), in the order effect,
    /// head fact, `q⁺` disjunct, `Q⁻` disjunct. An empty list: no head
    /// writes the relation.
    producers: Vec<Vec<Production>>,
}

/// Names the variables of a template: action parameters by position,
/// every other variable by the order of its first occurrence.
struct Namer<'a> {
    params: &'a [Var],
    locals: Vec<(Var, SVar)>,
    next: SVar,
}

impl Namer<'_> {
    fn slot(&mut self, v: &Var) -> Slot {
        // A repeated parameter name resolves to its last position.
        if let Some(k) = self.params.iter().rposition(|p| p == v) {
            return Slot::Param(k as SVar);
        }
        Slot::Local(self.local(v))
    }

    fn local(&mut self, v: &Var) -> SVar {
        if let Some((_, j)) = self.locals.iter().find(|(w, _)| w == v) {
            return *j;
        }
        let j = self.next;
        self.next += 1;
        self.locals.push((v.clone(), j));
        j
    }

    fn term(&mut self, t: &QTerm) -> Slot {
        match t {
            QTerm::Const(c) => Slot::Const(*c),
            QTerm::Var(v) => self.slot(v),
        }
    }

    fn base(&mut self, t: &BaseTerm) -> Slot {
        match t {
            BaseTerm::Const(c) => Slot::Const(*c),
            BaseTerm::Var(v) => self.slot(v),
        }
    }

    /// Append the query's atoms, then its equalities.
    fn add_cq(&mut self, cq: &ConjunctiveQuery, out: &mut CqTemplate) {
        for (rel, ts) in &cq.atoms {
            let slots = ts.iter().map(|t| self.term(t)).collect();
            out.atoms.push((*rel, slots));
        }
        for (a, b) in &cq.equalities {
            let pair = (self.term(a), self.term(b));
            out.eqs.push(pair);
        }
        out.locals = self.next;
    }
}

impl ActionPlan {
    fn compile(dcds: &Dcds, action: ActionId) -> ActionPlan {
        let act = dcds.process.action(action);
        let params = &act.params[..];
        let namer = || Namer {
            params,
            locals: Vec::new(),
            next: 0,
        };
        // Rule options: α must be licensed by some rule whose condition
        // holds in the predecessor.
        let mut rules = Vec::new();
        for rule in dcds.process.rules_for(action) {
            if rule.condition == Formula::True {
                rules.push(Some(CqTemplate::default()));
                continue;
            }
            match Ucq::from_formula(&rule.condition) {
                Some(u) => rules.extend(u.disjuncts.iter().map(|cq| {
                    let mut t = CqTemplate::default();
                    namer().add_cq(cq, &mut t);
                    Some(t)
                })),
                None => rules.push(None),
            }
        }

        let mut plan = ActionPlan {
            params: params.len() as SVar,
            rules,
            bodies: Vec::new(),
            heads: Vec::new(),
            producers: vec![Vec::new(); dcds.data.schema.len()],
        };
        for effect in &act.effects {
            let qminus = if effect.qminus == Formula::True {
                Some(None)
            } else {
                Ucq::from_formula(&effect.qminus).map(Some)
            };
            // Body and head indices, per q⁺ disjunct.
            let mut blocks: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for cq in &effect.qplus.disjuncts {
                let mut names = namer();
                let mut qplus = CqTemplate::default();
                names.add_cq(cq, &mut qplus);
                // Answer variables the atoms and equalities left unbound
                // (range restriction binds them all in a validated system).
                for v in effect.qplus.head() {
                    names.slot(v);
                }
                // A head variable that neither the answer nor a parameter
                // binds (only in an unvalidated system) becomes a fresh
                // local of the block.
                let heads = effect.head.iter().map(|(_, ts)| {
                    let terms = ts.iter().map(|t| head_term(dcds, t, &mut names)).collect();
                    plan.heads.push(terms);
                    plan.heads.len() as u32 - 1
                });
                let heads = heads.collect();
                qplus.locals = names.next;
                let mut bodies = Vec::new();
                let mut body = |cq: CqTemplate, qminus_dropped| {
                    plan.bodies.push(Body { cq, qminus_dropped });
                    bodies.push(plan.bodies.len() as u32 - 1);
                };
                match &qminus {
                    Some(None) => body(qplus, false),
                    None => body(qplus, true),
                    // The filter shares the answer variables.
                    Some(Some(u)) => {
                        for dq in &u.disjuncts {
                            let answer = |(v, _): &&(Var, SVar)| effect.qplus.head().contains(v);
                            let mut names = Namer {
                                params,
                                locals: names.locals.iter().filter(answer).cloned().collect(),
                                next: names.next,
                            };
                            let mut t = qplus.clone();
                            names.add_cq(dq, &mut t);
                            body(t, false);
                        }
                    }
                }
                blocks.push((bodies, heads));
            }
            for (hix, (rel, _)) in effect.head.iter().enumerate() {
                for (bodies, heads) in &blocks {
                    let producers = &mut plan.producers[rel.index()];
                    producers.extend(bodies.iter().map(|&body| Production {
                        body,
                        head: heads[hix],
                    }));
                }
            }
        }
        plan
    }

    /// The raw candidate of one rule option and option vector.
    fn build(
        &self,
        target: &Clause,
        base: SVar,
        rule: Option<&CqTemplate>,
        options: &[Vec<Production>],
        pick: &[usize],
    ) -> Clause {
        let mut next = base + self.params;
        let mut atoms = Vec::new();
        let mut eqs = target.eqs.clone();
        if let Some(cq) = rule {
            cq.instantiate(base, next, &mut atoms, &mut eqs);
            next += cq.locals;
        }
        let mut nondet: Vec<(FuncId, Vec<STerm>, SVar)> = Vec::new();
        for ((_, terms), (opts, &p)) in target.atoms.iter().zip(options.iter().zip(pick)) {
            let prod = opts[p];
            let body = &self.bodies[prod.body as usize].cq;
            let offset = next;
            body.instantiate(base, offset, &mut atoms, &mut eqs);
            next += body.locals;
            // Unify the target atom with the grounded head fact.
            let head = &self.heads[prod.head as usize];
            debug_assert_eq!(terms.len(), head.len());
            for (t, h) in terms.iter().zip(head) {
                let args = |args: &[Slot]| args.iter().map(|a| a.resolve(base, offset)).collect();
                let h = match h {
                    HeadTerm::Base(s) => s.resolve(base, offset),
                    HeadTerm::Det(f, a) => STerm::App(*f, args(a)),
                    HeadTerm::Nondet(f, a) => {
                        let a: Vec<STerm> = args(a);
                        let known = nondet.iter().find(|(g, b, _)| g == f && *b == a);
                        STerm::Var(match known {
                            Some(&(_, _, v)) => v,
                            None => {
                                nondet.push((*f, a, next));
                                next += 1;
                                next - 1
                            }
                        })
                    }
                };
                eqs.push((t.clone(), h));
            }
        }
        Clause {
            atoms,
            eqs,
            neqs: target.neqs.clone(),
            level: target.level + 1,
        }
    }
}

fn head_term(dcds: &Dcds, t: &ETerm, names: &mut Namer<'_>) -> HeadTerm {
    match t {
        ETerm::Base(b) => HeadTerm::Base(names.base(b)),
        ETerm::Call(f, args) => {
            let args = args.iter().map(|a| names.base(a)).collect();
            match dcds.process.services.kind(*f) {
                ServiceKind::Deterministic => HeadTerm::Det(*f, args),
                ServiceKind::Nondeterministic => HeadTerm::Nondet(*f, args),
            }
        }
    }
}

/// Does some position hold a constant in the target atom and a different
/// constant in the head fact? Every candidate built from that head would
/// equate two distinct constants, which [`Clause::normalize`] rejects, so
/// the option is dropped before any candidate is built.
fn constant_clash(target: &[STerm], head: &[HeadTerm]) -> bool {
    target
        .iter()
        .zip(head)
        .any(|pair| matches!(pair, (STerm::Const(a), HeadTerm::Base(Slot::Const(b))) if a != b))
}

/// What the regressions of one target clause through every action share:
/// the first variable its candidates allocate, and the clause's
/// transposition symmetries, found on first use. Build it from the clause
/// it is used with.
pub struct TargetCtx {
    base: SVar,
    symmetries: OnceCell<Vec<Vec<usize>>>,
}

impl TargetCtx {
    /// The context of `target`.
    pub fn new(target: &Clause) -> TargetCtx {
        TargetCtx {
            base: target.next_var(),
            symmetries: OnceCell::new(),
        }
    }
}

/// The regression plans of every action of a system, compiled once per
/// run (see the module docs).
#[derive(Debug)]
pub struct Regression {
    actions: Vec<ActionPlan>,
}

/// The rank of `pick`'s image under the atom permutation `perm`, when
/// that image comes earlier in the odometer; `weights[k]` is the rank of
/// the vector that is 1 at position `k` and 0 elsewhere.
fn earlier_image(perm: &[usize], pick: &[usize], weights: &[usize]) -> Option<usize> {
    // The image puts `pick[perm[j]]` at position `j` (`perm` is an
    // involution); colex compares from the last position.
    let earlier = (0..pick.len())
        .rev()
        .map(|j| (pick[perm[j]], pick[j]))
        .find(|(image, own)| image != own)
        .is_some_and(|(image, own)| image < own);
    earlier.then(|| (0..pick.len()).map(|j| pick[perm[j]] * weights[j]).sum())
}

impl Regression {
    /// Compile every action of `dcds`.
    pub fn new(dcds: &Dcds) -> Regression {
        let actions = (0..dcds.process.actions.len())
            .map(|a| ActionPlan::compile(dcds, ActionId::from_index(a)))
            .collect();
        Regression { actions }
    }

    /// Regress `target` (whose context is `ctx`) through `action`,
    /// emitting at most `limit` clauses, repeats included.
    /// `normalize_clock` times the normalisation of the candidates.
    pub fn regress(
        &self,
        target: &Clause,
        ctx: &TargetCtx,
        action: ActionId,
        limit: usize,
        normalize_clock: &mut PhaseClock,
    ) -> RegressOut {
        self.regress_with(target, ctx, action, limit, |_, _, raw| {
            normalize_clock.time(|| raw.normalize())
        })
    }

    /// [`Regression::regress`], handing each built candidate, with its
    /// rule option and option vector, to `normalize`.
    fn regress_with(
        &self,
        target: &Clause,
        ctx: &TargetCtx,
        action: ActionId,
        limit: usize,
        mut normalize: impl FnMut(usize, &[usize], Clause) -> Option<Clause>,
    ) -> RegressOut {
        let mut out = RegressOut::default();
        let plan = &self.actions[action.index()];
        let producers = |rel: &RelId| plan.producers.get(rel.index()).filter(|p| !p.is_empty());
        if plan.rules.is_empty() || target.atoms.iter().any(|(rel, _)| producers(rel).is_none()) {
            return out; // no rule fires α, or α writes no fact of some atom
        }
        // Production options per target atom.
        let mut options: Vec<Vec<Production>> = Vec::with_capacity(target.atoms.len());
        for (rel, terms) in &target.atoms {
            let all = producers(rel).into_iter().flatten();
            let clash = |p: &&Production| constant_clash(terms, &plan.heads[p.head as usize]);
            let opts: Vec<Production> = all.filter(|p| !clash(p)).copied().collect();
            if opts.is_empty() {
                return out; // α cannot produce this atom at all
            }
            options.push(opts);
        }
        let perms = ctx
            .symmetries
            .get_or_init(|| target.transposition_symmetries());
        let mut weights = Vec::with_capacity(options.len());
        let mut weight = 1usize;
        for opts in &options {
            weights.push(weight);
            weight = weight.saturating_mul(opts.len());
        }

        const UNSAT: u32 = u32::MAX;
        // With symmetries: where each vector of the current rule option
        // went, by rank — an index into `out.clauses`, or `UNSAT`.
        let mut went: Vec<u32> = Vec::new();
        let mut emitted = 0usize;
        let mut pick = vec![0usize; target.atoms.len()];
        'rules: for (rix, rule) in plan.rules.iter().enumerate() {
            pick.iter_mut().for_each(|p| *p = 0);
            went.clear();
            loop {
                if emitted >= limit {
                    out.truncated = true;
                    break 'rules;
                }
                out.candidates += 1;
                out.cond_dropped += u64::from(rule.is_none());
                let dropped = options.iter().zip(&pick);
                let dropped =
                    dropped.filter(|(o, &p)| plan.bodies[o[p].body as usize].qminus_dropped);
                out.qminus_dropped += dropped.count() as u64;
                let image = perms
                    .iter()
                    .find_map(|perm| earlier_image(perm, &pick, &weights));
                let to = match image {
                    Some(rank) => went[rank],
                    None => {
                        out.built += 1;
                        let raw = plan.build(target, ctx.base, rule.as_ref(), &options, &pick);
                        match normalize(rix, &pick, raw) {
                            Some(c) => {
                                out.clauses.push(c);
                                out.repeats.push(0);
                                out.clauses.len() as u32 - 1
                            }
                            None => UNSAT,
                        }
                    }
                };
                match to {
                    UNSAT => out.unsat += 1,
                    ix => {
                        emitted += 1;
                        if image.is_some() {
                            out.repeats[ix as usize] += 1;
                        }
                    }
                }
                if !perms.is_empty() {
                    went.push(to);
                }
                // Advance the odometer; a full wrap (including the
                // atom-free single-combination case) ends this rule
                // option.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};
    use dcds_core::DcdsBuilder;
    use std::collections::BTreeMap;

    /// The candidate builder before slot templates, kept as the reference:
    /// it copies the queries through name maps and recomputes the filter
    /// plans per candidate.
    mod reference {
        use super::*;

        enum QmPlan {
            Absent,
            Ucq(Ucq),
            Dropped,
        }

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

        #[derive(Clone, Copy)]
        struct AtomOption {
            effect_ix: usize,
            head_ix: usize,
            qplus_ix: usize,
            qminus_ix: Option<usize>,
            qminus_dropped: bool,
        }

        struct CandidateVars {
            next: SVar,
            params: BTreeMap<Var, SVar>,
            nondet: BTreeMap<(FuncId, Vec<STerm>), SVar>,
        }

        impl CandidateVars {
            fn fresh(&mut self) -> SVar {
                self.next += 1;
                self.next - 1
            }
        }

        /// Every vector the enumeration visits, in order: rule option,
        /// option vector and raw candidate; with the dropped-filter and
        /// dropped-condition counts. `None` when there are more than
        /// `cap` vectors.
        pub type Visits = (Vec<(usize, Vec<usize>, Clause)>, u64, u64);

        pub fn enumerate(
            dcds: &Dcds,
            target: &Clause,
            action: ActionId,
            cap: usize,
        ) -> Option<Visits> {
            let act = dcds.process.action(action);
            let mut rule_options: Vec<Option<(Ucq, usize)>> = Vec::new();
            for r in dcds.process.rules_for(action) {
                let ucq = if r.condition == Formula::True {
                    Some(Ucq::truth())
                } else {
                    Ucq::from_formula(&r.condition)
                };
                match ucq {
                    Some(u) => {
                        rule_options.extend((0..u.disjuncts.len()).map(|d| Some((u.clone(), d))))
                    }
                    None => rule_options.push(None),
                }
            }
            let mut options: Vec<Vec<AtomOption>> = Vec::new();
            for (rel, terms) in &target.atoms {
                let mut opts = Vec::new();
                for (eix, effect) in act.effects.iter().enumerate() {
                    for (hix, (hrel, hterms)) in effect.head.iter().enumerate() {
                        let clash = terms.iter().zip(hterms).any(|pair| {
                            matches!(pair, (STerm::Const(a), ETerm::Base(BaseTerm::Const(b))) if a != b)
                        });
                        if hrel != rel || clash {
                            continue;
                        }
                        for qix in 0..effect.qplus.disjuncts.len() {
                            let opt = |qminus_ix, qminus_dropped| AtomOption {
                                effect_ix: eix,
                                head_ix: hix,
                                qplus_ix: qix,
                                qminus_ix,
                                qminus_dropped,
                            };
                            match qm_plan_of(effect) {
                                QmPlan::Absent => opts.push(opt(None, false)),
                                QmPlan::Dropped => opts.push(opt(None, true)),
                                QmPlan::Ucq(u) => {
                                    opts.extend((0..u.disjuncts.len()).map(|m| opt(Some(m), false)))
                                }
                            }
                        }
                    }
                }
                options.push(opts);
            }
            if rule_options.is_empty() || options.iter().any(Vec::is_empty) {
                return Some((Vec::new(), 0, 0));
            }
            let per_rule = options
                .iter()
                .try_fold(1usize, |n, o| n.checked_mul(o.len()))?;
            if per_rule.checked_mul(rule_options.len())? > cap {
                return None;
            }
            let (mut visits, mut qminus_dropped, mut cond_dropped) = (Vec::new(), 0, 0);
            let mut pick = vec![0usize; target.atoms.len()];
            for (rix, rule) in rule_options.iter().enumerate() {
                pick.iter_mut().for_each(|p| *p = 0);
                loop {
                    cond_dropped += u64::from(rule.is_none());
                    let opts = options.iter().zip(&pick).map(|(o, &p)| o[p]);
                    qminus_dropped += opts.filter(|o| o.qminus_dropped).count() as u64;
                    let raw = build_candidate(dcds, target, action, rule, &options, &pick);
                    visits.push((rix, pick.clone(), raw));
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
            Some((visits, qminus_dropped, cond_dropped))
        }

        fn build_candidate(
            dcds: &Dcds,
            target: &Clause,
            action: ActionId,
            rule: &Option<(Ucq, usize)>,
            options: &[Vec<AtomOption>],
            pick: &[usize],
        ) -> Clause {
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
            let mut atoms = Vec::new();
            let mut eqs = target.eqs.clone();
            if let Some((ucq, dix)) = rule {
                add_cq(
                    &ucq.disjuncts[*dix],
                    &mut BTreeMap::new(),
                    &mut vars,
                    &mut atoms,
                    &mut eqs,
                );
            }
            for (aix, (_, terms)) in target.atoms.iter().enumerate() {
                let opt = options[aix][pick[aix]];
                let effect = &act.effects[opt.effect_ix];
                let mut copy = BTreeMap::new();
                add_cq(
                    &effect.qplus.disjuncts[opt.qplus_ix],
                    &mut copy,
                    &mut vars,
                    &mut atoms,
                    &mut eqs,
                );
                for v in effect.qplus.head() {
                    if !vars.params.contains_key(v) && !copy.contains_key(v) {
                        let id = vars.fresh();
                        copy.insert(v.clone(), id);
                    }
                }
                if let (Some(mix), QmPlan::Ucq(u)) = (opt.qminus_ix, qm_plan_of(effect)) {
                    let mut qm_copy: BTreeMap<Var, SVar> = BTreeMap::new();
                    for v in effect.qplus.head() {
                        if let Some(id) = copy.get(v) {
                            qm_copy.insert(v.clone(), *id);
                        }
                    }
                    add_cq(
                        &u.disjuncts[mix],
                        &mut qm_copy,
                        &mut vars,
                        &mut atoms,
                        &mut eqs,
                    );
                }
                let (_, head_terms) = &effect.head[opt.head_ix];
                for (t, e) in terms.iter().zip(head_terms) {
                    let base = |b: &BaseTerm, vars: &CandidateVars| match b {
                        BaseTerm::Const(c) => STerm::Const(*c),
                        BaseTerm::Var(v) => {
                            STerm::Var(vars.params.get(v).copied().unwrap_or_else(|| copy[v]))
                        }
                    };
                    let h = match e {
                        ETerm::Base(b) => base(b, &vars),
                        ETerm::Call(f, args) => {
                            let mapped: Vec<STerm> = args.iter().map(|a| base(a, &vars)).collect();
                            match dcds.process.services.kind(*f) {
                                ServiceKind::Deterministic => STerm::App(*f, mapped),
                                ServiceKind::Nondeterministic => {
                                    let key = (*f, mapped);
                                    match vars.nondet.get(&key) {
                                        Some(id) => STerm::Var(*id),
                                        None => {
                                            let id = vars.fresh();
                                            vars.nondet.insert(key, id);
                                            STerm::Var(id)
                                        }
                                    }
                                }
                            }
                        }
                    };
                    eqs.push((t.clone(), h));
                }
            }
            Clause {
                atoms,
                eqs,
                neqs: target.neqs.clone(),
                level: target.level + 1,
            }
        }

        fn add_cq(
            cq: &ConjunctiveQuery,
            copy: &mut BTreeMap<Var, SVar>,
            vars: &mut CandidateVars,
            atoms: &mut Vec<(RelId, Vec<STerm>)>,
            eqs: &mut Vec<(STerm, STerm)>,
        ) {
            let mut term = |t: &QTerm, vars: &mut CandidateVars| match t {
                QTerm::Const(c) => STerm::Const(*c),
                QTerm::Var(v) => STerm::Var(match vars.params.get(v).or(copy.get(v)) {
                    Some(id) => *id,
                    None => {
                        let id = vars.fresh();
                        copy.insert(v.clone(), id);
                        id
                    }
                }),
            };
            for (rel, ts) in &cq.atoms {
                let mapped = ts.iter().map(|t| term(t, vars)).collect();
                atoms.push((*rel, mapped));
            }
            for (a, b) in &cq.equalities {
                let pair = (term(a, vars), term(b, vars));
                eqs.push(pair);
            }
        }
    }

    /// A seeded system over the relations and functions of
    /// [`gen::symmetric_clause`]: `A 1; B 2; C 1`, det `f`, `g` and nondet
    /// `n`. Its effects mix one- and two-disjunct q⁺ bodies with UCQ,
    /// dropped and absent `Q⁻` filters, heads with constants and
    /// nondeterministic calls; its rules true, UCQ and dropped conditions,
    /// some binding a parameter.
    fn random_system(rng: &mut Rng) -> Dcds {
        const BODIES: [&str; 5] = [
            "A(X)",
            "B(X, Y)",
            "C(X) & B(X, Y)",
            "B(X, 'b')",
            "A(X) & X = 'a'",
        ];
        const FILTERS: [&str; 4] = ["", "", " & (exists Z . B(X, Z))", " & !C(X)"];
        const HEADS: [&str; 9] = [
            "A(X)",
            "A(f(X))",
            "C(g(X))",
            "B(X, n(X))",
            "B(n(X), n(X))",
            "B(X, 'a')",
            "C('b')",
            "A(P)",
            "B(P, X)",
        ];
        let mut b = DcdsBuilder::new()
            .relation("A", 1)
            .relation("B", 2)
            .relation("C", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .service("n", 1, ServiceKind::Nondeterministic)
            .init_fact("A", &["a"])
            .init_fact("B", &["a", "b"])
            .init_fact("C", &["c"]);
        for a in 0..1 + rng.below(2) {
            let param = rng.chance(40);
            let heads = if param { &HEADS[..] } else { &HEADS[..7] };
            let effects: Vec<(String, String)> = (0..2 + rng.below(3))
                .map(|_| {
                    let body = BODIES[rng.below(BODIES.len())].to_owned()
                        + FILTERS[rng.below(FILTERS.len())];
                    let n_heads = 1 + rng.below(2);
                    let head: Vec<&str> = (0..n_heads)
                        .map(|_| heads[rng.below(heads.len())])
                        .collect();
                    (body, head.join(", "))
                })
                .collect();
            let name = format!("act{a}");
            let params: &[&str] = if param { &["P"] } else { &[] };
            b = b.action(&name, params, |spec| {
                for (body, head) in &effects {
                    spec.effect(body, head);
                }
            });
            let conditions: &[&str] = if param {
                &[
                    "A(P)",
                    "(A(P) | C(P))",
                    "A(P) & !C(P)",
                    "exists W . B(P, W)",
                ]
            } else {
                &[
                    "true",
                    "(A('a') | C('b'))",
                    "!C('a')",
                    "exists W . B('a', W)",
                ]
            };
            for _ in 0..1 + rng.below(2) {
                b = b.rule(conditions[rng.below(conditions.len())], &name);
            }
        }
        let mut dcds = b.build().expect("generated system");
        // The surface syntax has one q⁺ disjunct per effect and no
        // disjunctive filter; add some of both.
        let [a, c] = ["A", "C"].map(|r| dcds.data.schema.rel_id(r).unwrap());
        let x = || vec![QTerm::var("X")];
        for effect in dcds.process.actions.iter_mut().flat_map(|a| &mut a.effects) {
            if effect.qminus == Formula::True && rng.chance(30) {
                effect.qminus = Formula::Atom(c, x()).or(Formula::Atom(a, x()));
            }
            if rng.chance(20) {
                let head = effect.qplus.head().to_vec();
                effect.qplus.disjuncts.push(ConjunctiveQuery {
                    head,
                    atoms: vec![(c, x())],
                    equalities: Vec::new(),
                });
            }
        }
        dcds
    }

    /// Is `d` a variable renaming of `c`, taking atoms and (unordered)
    /// pairs as multisets? A backtracking search for the bijection, which
    /// maps each atom and pair of `c` onto one of `d`.
    fn renames(c: &Clause, d: &Clause) -> bool {
        type Item<'a> = (u8, usize, Vec<&'a STerm>);
        fn items(c: &Clause) -> Vec<Item<'_>> {
            let atoms = c
                .atoms
                .iter()
                .map(|(r, ts)| (0, r.index(), ts.iter().collect()));
            let eqs = c.eqs.iter().map(|(a, b)| (1, 0, vec![a, b]));
            let neqs = c.neqs.iter().map(|(a, b)| (2, 0, vec![a, b]));
            atoms.chain(eqs).chain(neqs).collect()
        }
        /// The bijection so far, both ways (`UNSET` where undecided).
        type Maps = (Vec<SVar>, Vec<SVar>);
        const UNSET: SVar = SVar::MAX;
        fn unify(a: &STerm, b: &STerm, maps: &mut Maps) -> bool {
            match (a, b) {
                (STerm::Const(x), STerm::Const(y)) => x == y,
                (STerm::Var(x), STerm::Var(y)) => {
                    let (there, back) = (&mut maps.0[*x as usize], &mut maps.1[*y as usize]);
                    let fits = (*there == UNSET || *there == *y) && (*back == UNSET || *back == *x);
                    (*there, *back) = (*y, *x);
                    fits
                }
                (STerm::App(f, xs), STerm::App(g, ys)) => {
                    f == g
                        && xs.len() == ys.len()
                        && xs.iter().zip(ys).all(|(x, y)| unify(x, y, maps))
                }
                _ => false,
            }
        }
        /// The ways to match item `i` of `ours` onto an unused one of
        /// `theirs` (pairs in either orientation), as extended maps.
        fn options(
            ours: &Item<'_>,
            theirs: &[Item<'_>],
            used: &[bool],
            maps: &Maps,
        ) -> Vec<(usize, Maps)> {
            let (kind, rel, ts) = ours;
            let mut out = Vec::new();
            for (j, (k, r, us)) in theirs.iter().enumerate() {
                if used[j] || k != kind || r != rel {
                    continue;
                }
                let orders: &[[usize; 2]] = if *kind == 0 {
                    &[[0, 1]]
                } else {
                    &[[0, 1], [1, 0]]
                };
                for order in orders {
                    let mut m = maps.clone();
                    let u = |i: usize| if *kind == 0 { us[i] } else { us[order[i]] };
                    if ts.iter().enumerate().all(|(i, t)| unify(t, u(i), &mut m)) {
                        out.push((j, m));
                    }
                }
            }
            out
        }
        /// Match the unmatched items of `ours`: a forced one when there is
        /// one, else the most constrained.
        fn search(
            ours: &mut Vec<Item<'_>>,
            theirs: &[Item<'_>],
            used: &mut [bool],
            maps: &Maps,
        ) -> bool {
            let mut best: Option<(usize, Vec<(usize, Maps)>)> = None;
            for (i, item) in ours.iter().enumerate() {
                let opts = options(item, theirs, used, maps);
                let forced = opts.len() <= 1;
                if best.as_ref().is_none_or(|(_, b)| opts.len() < b.len()) {
                    best = Some((i, opts));
                }
                if forced {
                    break;
                }
            }
            let Some((i, opts)) = best else {
                return true;
            };
            let item = ours.swap_remove(i);
            for (j, m) in opts {
                used[j] = true;
                if search(ours, theirs, used, &m) {
                    return true;
                }
                used[j] = false;
            }
            ours.push(item);
            let last = ours.len() - 1;
            ours.swap(i, last);
            false
        }
        let (mut ours, theirs) = (items(c), items(d));
        let vars = c.next_var().max(d.next_var()) as usize;
        ours.len() == theirs.len()
            && search(
                &mut ours,
                &theirs,
                &mut vec![false; theirs.len()],
                &(vec![UNSET; vars], vec![UNSET; vars]),
            )
    }

    #[test]
    fn orbit_enumeration_matches_the_reference_builder() {
        let mut rng = Rng::new(0x0eb1_75ed);
        let mut seen = BTreeMap::<&str, usize>::new();
        let mut note = |what, yes: bool| *seen.entry(what).or_default() += usize::from(yes);
        for _ in 0..40 {
            let dcds = random_system(&mut rng);
            let names = ["a", "b", "c"].map(|c| dcds.data.pool.get(c));
            assert_eq!(names, [0, 1, 2].map(|i| Some(gen::val(i))), "constants 0–2");
            let regression = Regression::new(&dcds);
            for _ in 0..12 {
                let target = match rng.below(10) {
                    0..=2 => gen::clause(&mut rng),
                    3..=5 => gen::symmetric_clause(&mut rng, true),
                    _ => gen::symmetric_clause(&mut rng, false),
                };
                let ctx = TargetCtx::new(&target);
                let perms = target.transposition_symmetries();
                let symmetric = !perms.is_empty();
                for a in 0..dcds.process.actions.len() {
                    let action = ActionId::from_index(a);
                    let Some((visits, qminus_dropped, cond_dropped)) =
                        reference::enumerate(&dcds, &target, action, 500)
                    else {
                        continue;
                    };
                    let mut built = BTreeMap::new();
                    let out = regression.regress_with(
                        &target,
                        &ctx,
                        action,
                        usize::MAX,
                        |rix, pick, raw| {
                            built.insert((rix, pick.to_vec()), raw.clone());
                            raw.normalize()
                        },
                    );
                    assert_eq!(out.candidates, visits.len() as u64);
                    assert_eq!(
                        (out.qminus_dropped, out.cond_dropped),
                        (qminus_dropped, cond_dropped)
                    );
                    assert_eq!(out.built, built.len() as u64);
                    // A skipped vector's earlier image, followed until built.
                    let built_image = |rix: usize, pick: &[usize]| {
                        let mut pick = pick.to_vec();
                        while !built.contains_key(&(rix, pick.clone())) {
                            let earlier = |perm: &&Vec<usize>| {
                                let image: Vec<usize> = perm.iter().map(|&i| pick[i]).collect();
                                let differs = (0..pick.len()).rev().find(|&j| image[j] != pick[j]);
                                differs.is_some_and(|j| image[j] < pick[j]).then_some(image)
                            };
                            pick = perms
                                .iter()
                                .find_map(|p| earlier(&p))
                                .expect("an earlier image");
                        }
                        &built[&(rix, pick)]
                    };
                    let (mut sat, mut unsat) = (0, 0);
                    for (rix, pick, raw) in &visits {
                        let normal = raw.clone().normalize();
                        sat += u64::from(normal.is_some());
                        unsat += u64::from(normal.is_none());
                        match built.get(&(*rix, pick.clone())) {
                            // 1. A built vector's raw candidate is the reference's.
                            Some(ours) => assert_eq!(ours, raw),
                            // 2. A skipped one renames a candidate built in the
                            // call (compared before normalising: the normal
                            // form is not canonical under renaming).
                            None => assert!(
                                renames(built_image(*rix, pick), raw),
                                "{target:?}: skipped {raw:?}"
                            ),
                        }
                    }
                    assert_eq!(out.unsat, unsat);
                    assert_eq!(
                        out.clauses.len() as u64 + out.repeats.iter().sum::<u64>(),
                        sat
                    );
                    // 3. Without a symmetry nothing is skipped.
                    if !symmetric {
                        assert_eq!(out.built, out.candidates, "{target:?}");
                    }
                    let skipped = out.candidates - out.built;
                    note("regressions that skip", skipped > 0);
                    note("asymmetric regressions", !symmetric && out.candidates > 0);
                    note(
                        "skips with a dropped filter",
                        skipped > 0 && qminus_dropped > 0,
                    );
                    note(
                        "skips with a dropped condition",
                        skipped > 0 && cond_dropped > 0,
                    );
                    let act = dcds.process.action(action);
                    let nondet = act.effects.iter().flat_map(|e| &e.head).flat_map(|(_, ts)| ts).any(|t| {
                        matches!(t, ETerm::Call(f, _) if dcds.process.services.kind(*f) == ServiceKind::Nondeterministic)
                    });
                    note("skips with a nondet head", skipped > 0 && nondet);
                    note(
                        "skips with a parameter",
                        skipped > 0 && !act.params.is_empty(),
                    );
                    note(
                        "skips with a UCQ filter",
                        skipped > 0
                            && act.effects.iter().any(|e| {
                                e.qminus != Formula::True && Ucq::from_formula(&e.qminus).is_some()
                            }),
                    );
                    note(
                        "skips with two q⁺ disjuncts",
                        skipped > 0 && act.effects.iter().any(|e| e.qplus.disjuncts.len() > 1),
                    );
                    note(
                        "skips with residual equalities",
                        skipped > 0 && !target.eqs.is_empty(),
                    );
                    note(
                        "skips with applications in atoms",
                        skipped > 0
                            && target
                                .atoms
                                .iter()
                                .any(|(_, ts)| ts.iter().any(|t| matches!(t, STerm::App(..)))),
                    );
                }
            }
        }
        assert!(seen.values().all(|&n| n >= 10), "{seen:?}");
    }

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

    fn regress(dcds: &Dcds, target: &Clause, action: &str) -> RegressOut {
        let action = dcds.action_id(action).unwrap();
        let ctx = TargetCtx::new(target);
        Regression::new(dcds).regress(target, &ctx, action, 100, &mut PhaseClock::off())
    }

    #[test]
    fn a_constant_no_head_produces_builds_no_candidate() {
        // `a` is a value of the spec, but no head writes it into `Phase`.
        let dcds = phased();
        let target = phase_target(&dcds, "a");
        for name in ["step0", "step1"] {
            let out = regress(&dcds, &target, name);
            assert_eq!(out.candidates, 0, "{name}");
            assert!(out.clauses.is_empty(), "{name}");
        }
    }

    #[test]
    fn a_phase_guarded_target_regresses_only_through_its_producer() {
        let dcds = phased();
        let target = phase_target(&dcds, "p1");
        let step0 = regress(&dcds, &target, "step0");
        let step1 = regress(&dcds, &target, "step1");
        assert_eq!((step0.candidates, step1.candidates), (1, 0));
        // The precondition: the token sat at `p0`, and `R` was non-empty.
        let p0 = STerm::Const(dcds.data.pool.get("p0").unwrap());
        let pre = &step0.clauses[0];
        let phase = dcds.data.schema.rel_id("Phase").unwrap();
        assert!(pre.atoms.contains(&(phase, vec![p0])), "{pre:?}");
        assert!(step1.clauses.is_empty());
    }

    #[test]
    fn interchangeable_atoms_build_one_candidate_per_orbit() {
        // `∃x y. R(x) ∧ R(y) ∧ x ≠ y` through an action with two producers
        // of `R`: of the four vectors, (1, 0) renames (0, 1) and is
        // skipped as a repeat of its clause.
        let dcds = DcdsBuilder::new()
            .relation("R", 1)
            .relation("S", 1)
            .init_fact("R", &["a"])
            .action("go", &[], |a| {
                a.effect("R(X)", "R(X)");
                a.effect("S(X)", "R(X)");
            })
            .rule("true", "go")
            .build()
            .unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        let target = Clause {
            atoms: vec![(r, vec![STerm::Var(0)]), (r, vec![STerm::Var(1)])],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Var(1))],
            level: 0,
        };
        assert_eq!(target.transposition_symmetries(), vec![vec![1, 0]]);
        let out = regress(&dcds, &target, "go");
        assert_eq!((out.candidates, out.built, out.unsat), (4, 3, 0));
        assert_eq!(out.repeats.iter().sum::<u64>(), 1);
    }
}

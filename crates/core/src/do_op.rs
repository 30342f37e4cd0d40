//! The `DO` operator and legal parameter assignments.
//!
//! `DO(I, ασ)` (Section 4.1) unions, over every effect `q⁺ ∧ Q⁻ ⇝ E` of α
//! and every answer θ of `(q⁺ ∧ Q⁻)σ` over `I`, the grounded head facts
//! `Eσθ`: a set of facts whose terms are values or ground service calls
//! awaiting resolution (deterministic resolution in [`crate::det`],
//! nondeterministic in [`crate::nondet`]).
//!
//! # The program
//!
//! The explicit engines run `DO` as a [`DoProgram`]: each action's effects
//! compiled once, stored in the system's [`PlanCache`], and written into
//! the flat rows of a [`DoRows`]. Every effect is classified when it is
//! compiled:
//!
//! * a *copy*: `q⁺` is one atom `R(x̄)` over distinct variables, none a
//!   parameter, with no constant, no equality and no `Q⁻`, and every head
//!   fact lists exactly those variables. A *frame* effect `R(x̄) ⇝ R(x̄)`
//!   (a DCDS has no inertia, so specs copy each relation they keep this
//!   way) copies R's tuples; a *rename or permutation* `R(x̄) ⇝ S(πx̄)`
//!   copies them into S with the columns reordered. No plan runs;
//! * every other effect runs its compiled `q⁺` plan
//!   ([`CompiledPlan::any_row`]) and writes each row through a head
//!   template of value and call operands read from the row's registers
//!   and σ — no per-row assignment and no grounded term vector. A `Q⁻`
//!   filter is decided per row by the reference [`holds`], as in
//!   [`do_action`].
//!
//! The legal σ are produced as value rows ([`legal_sigmas`]); the program
//! that answers a σ takes it as a [`SortedRow`] over its variables.
//!
//! # The reference
//!
//! [`do_action`] computes `DO(I, ασ)` by the definition into a
//! [`PreInstance`], a set of grounded facts; [`PreInstance::resolve`]
//! resolves it. They serve the step-by-step runner, the nondeterministic
//! successor functions, the det reference step
//! ([`crate::det::det_step_with_pre`]), the reference constructions and
//! the tests that hold the program to them.
//!
//! Both run the compiled plans of the system's [`PlanCache`] against the
//! state's instance itself: a join step keyed on a prefix of its atom's
//! columns reads a range of the sorted tuples, every other step scans its
//! relation. No per-state index is built, so an engine passes nothing but
//! the instance.

use crate::action::{ActionId, Effect};
use crate::dcds::Dcds;
use crate::service::FuncId;
use crate::term::{BaseTerm, ETerm, GTerm, ServiceCall};
use dcds_folang::{
    holds, Assignment, CompiledPlan, EvalCtx, Formula, PlanStats, QTerm, SortedRow, Ucq, Var,
};
use dcds_reldata::{Instance, RelId, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

/// A set of facts over ground terms (values and unresolved service calls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreInstance {
    facts: BTreeSet<(RelId, Vec<GTerm>)>,
}

impl PreInstance {
    /// Empty pre-instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact.
    pub fn insert(&mut self, rel: RelId, terms: Vec<GTerm>) -> bool {
        self.facts.insert((rel, terms))
    }

    /// Iterate over facts.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &[GTerm])> {
        self.facts.iter().map(|(r, ts)| (*r, ts.as_slice()))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are present.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// `CALLS(·)`: the set of ground service calls occurring in the facts.
    pub fn calls(&self) -> BTreeSet<ServiceCall> {
        let mut out = BTreeSet::new();
        for (_, terms) in self.facts() {
            for t in terms {
                if let GTerm::Call(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        out
    }

    /// Resolve every call through `lookup`, producing a relational instance.
    /// Returns `None` if some call is not covered.
    pub fn resolve(
        &self,
        lookup: &dyn Fn(&ServiceCall) -> Option<dcds_reldata::Value>,
    ) -> Option<Instance> {
        let mut out = Instance::new();
        for (rel, terms) in self.facts() {
            let mut vals = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    GTerm::Val(v) => vals.push(*v),
                    GTerm::Call(c) => vals.push(lookup(c)?),
                }
            }
            out.insert(rel, Tuple::from(vals));
        }
        Some(out)
    }
}

/// Compiled query plans for a DCDS: the [`DoProgram`] of every action,
/// whose effects hold their `q⁺` plans (the action parameters as
/// pre-bound inputs), and one plan per rule condition that is
/// recognisably a UCQ. Built once per system — see [`Dcds::plans`] — and
/// shared across the whole exploration. Validated `q⁺` is
/// range-restricted modulo the parameters, so every effect compiles; rule
/// conditions outside the compilable fragment keep `None` and are
/// answered by the reference active-domain evaluator.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// One optional plan per condition–action rule.
    rule_plans: Vec<Option<CompiledPlan>>,
    /// One program per action, over its parameters, read by the engines
    /// and (its plans) by the reference [`do_action`]; then one per rule
    /// whose free variables are not the parameters of its action (only
    /// an unvalidated system has such a rule).
    programs: Vec<DoProgram>,
    /// The number of actions: `programs[..actions]` are theirs.
    actions: usize,
    /// Per rule, how [`legal_sigmas`] reads its answers.
    rules: Vec<RuleRows>,
    /// Evaluation counters (plan evals, sorted-prefix probes vs scans,
    /// fallbacks).
    pub stats: PlanStats,
}

/// How one rule's answers become σ rows.
#[derive(Debug)]
struct RuleRows {
    /// The program that runs the rule's σ; its variables are the rule's.
    program: usize,
    /// Per disjunct of the rule plan: the slot of each variable, in
    /// variable order.
    slots: Vec<Vec<usize>>,
    /// Some earlier rule has the same action and variables, so its σ may
    /// repeat one already listed.
    twin: bool,
}

impl PlanCache {
    /// Compile every action's program, with its effects' `q⁺`, and every
    /// UCQ-shaped rule condition.
    pub fn build(dcds: &Dcds) -> PlanCache {
        let actions = &dcds.process.actions;
        let rule_plans: Vec<Option<CompiledPlan>> = dcds
            .process
            .rules
            .iter()
            .map(|rule| {
                Ucq::from_formula(&rule.condition)
                    .and_then(|ucq| CompiledPlan::compile(&ucq, &BTreeSet::new()).ok())
            })
            .collect();
        let mut programs: Vec<DoProgram> = actions
            .iter()
            .map(|action| {
                DoProgram::compile(&action.effects, action.params.iter().cloned().collect())
            })
            .collect();
        let mut rules: Vec<RuleRows> = Vec::new();
        for (rix, rule) in dcds.process.rules.iter().enumerate() {
            let vars = rule.condition.free_vars();
            let mut program = rule.action.index();
            if programs[program].vars.iter().ne(vars.iter()) {
                programs.push(DoProgram::compile(
                    &dcds.process.action(rule.action).effects,
                    vars.clone(),
                ));
                program = programs.len() - 1;
            }
            let slots = rule_plans[rix].as_ref().map_or_else(Vec::new, |plan| {
                (0..plan.disjuncts())
                    .map(|d| {
                        vars.iter()
                            .map(|v| {
                                plan.out_slot(d, v)
                                    .expect("every free variable is an output")
                            })
                            .collect()
                    })
                    .collect()
            });
            let twin = dcds.process.rules[..rix].iter().any(|earlier| {
                earlier.action == rule.action && earlier.condition.free_vars() == vars
            });
            rules.push(RuleRows {
                program,
                slots,
                twin,
            });
        }
        PlanCache {
            rule_plans,
            programs,
            actions: actions.len(),
            rules,
            stats: PlanStats::default(),
        }
    }

    /// The plan for a rule condition, if it compiled.
    pub fn rule_plan(&self, rule: usize) -> Option<&CompiledPlan> {
        self.rule_plans.get(rule)?.as_ref()
    }

    /// The `DO` program of an action, over its parameters.
    pub fn program(&self, action: ActionId) -> &DoProgram {
        &self.programs[action.index()]
    }

    /// How many effects (resp. rules) compiled, out of how many. Every
    /// effect compiles; only rule conditions can fall outside the fragment.
    pub fn coverage(&self) -> ((usize, usize), (usize, usize)) {
        let effects = self.programs[..self.actions]
            .iter()
            .map(|p| p.effects.len())
            .sum();
        (
            (effects, effects),
            (
                self.rule_plans.iter().filter(|p| p.is_some()).count(),
                self.rule_plans.len(),
            ),
        )
    }
}

/// Snapshot of the plan-cache counters, for delta publication around a run.
pub fn query_stats_snapshot(dcds: &Dcds) -> [(&'static str, u64); 4] {
    dcds.plans().stats.snapshot()
}

/// Publish the growth of the plan-cache counters since `before` into the
/// observability registry under `query.*`. The totals depend only on the
/// work performed, not on the thread count, and this is called from serial
/// engine code — so the registry stays bit-identical at every thread count.
pub fn publish_query_stats_delta(
    dcds: &Dcds,
    obs: &dcds_obs::Obs,
    before: &[(&'static str, u64); 4],
) {
    if !obs.is_enabled() {
        return;
    }
    for ((name, after), (_, b)) in dcds.plans().stats.snapshot().iter().zip(before) {
        obs.counter_add(format!("query.{name}"), after.saturating_sub(*b));
    }
}

/// Compile `q⁺` with `bound` as pre-bound inputs, keeping the disjuncts
/// that are range-restricted modulo `bound`. A dropped disjunct has an
/// unbound head or equality variable, which the natural join reads as
/// ranging over nothing, so it contributes no answer. Validated effects
/// under their own parameters drop nothing; only unvalidated systems
/// ([`Dcds::from_parts`]) and public-API σ that miss a parameter do.
fn compile_qplus(qplus: &Ucq, bound: &BTreeSet<Var>) -> CompiledPlan {
    let disjuncts = qplus
        .disjuncts
        .iter()
        .filter(|cq| CompiledPlan::compile(&Ucq::single((*cq).clone()), bound).is_ok())
        .cloned()
        .collect();
    CompiledPlan::compile(&Ucq { disjuncts }, bound).expect("every kept disjunct compiles")
}

/// `DO(I, ασ)`: apply the action under the parameter assignment, producing
/// the pre-instance of grounded effect heads. `q⁺` is evaluated through
/// the cached compiled plans.
///
/// The cached plans take exactly `params(α)` as inputs. Any other σ
/// (possible through this public API) is answered by a plan compiled for
/// it, with every variable σ binds as an input: a binding outside `q⁺` is
/// ignored, a parameter σ leaves open is bound by the join, and a disjunct
/// in which no atom binds it yields nothing — what substituting σ into
/// `q⁺` and joining returns.
pub fn do_action(
    dcds: &Dcds,
    inst: &Instance,
    action: ActionId,
    sigma: &Assignment,
) -> PreInstance {
    let cache = dcds.plans();
    let action_id = action;
    let action = dcds.process.action(action);
    let sigma_is_params =
        sigma.len() == action.params.len() && action.params.iter().all(|p| sigma.contains_key(p));
    let adhoc: Vec<CompiledPlan>;
    let plans: Vec<&CompiledPlan> = if sigma_is_params {
        cache.programs[action_id.index()]
            .effects
            .iter()
            .map(|e| &e.plan)
            .collect()
    } else {
        let bound: BTreeSet<Var> = sigma.keys().cloned().collect();
        adhoc = action
            .effects
            .iter()
            .map(|effect| compile_qplus(&effect.qplus, &bound))
            .collect();
        adhoc.iter().collect()
    };
    let ctx = EvalCtx::scan(inst).stats(&cache.stats);
    let mut out = PreInstance::new();
    for (effect, plan) in action.effects.iter().zip(plans) {
        let thetas = plan.eval(&ctx, sigma);
        let qminus = effect.qminus.apply(sigma);
        for theta in thetas {
            // θ covers the (remaining) head variables of q+; the filter Q-
            // may mention them and the parameters (already substituted).
            let mut full: Assignment = theta.clone();
            for (p, v) in sigma {
                full.insert(p.clone(), *v);
            }
            let pass = if qminus == dcds_folang::Formula::True {
                true
            } else {
                // Restrict to the filter's free variables (all bound).
                holds(&qminus, inst, &full).unwrap_or(false)
            };
            if !pass {
                continue;
            }
            for (rel, terms) in &effect.head {
                let grounded: Option<Vec<GTerm>> = terms.iter().map(|t| t.ground(&full)).collect();
                if let Some(g) = grounded {
                    out.insert(*rel, g);
                }
            }
        }
    }
    out
}

/// A term of a [`DoRows`] fact: a value, or a service call by its
/// position in [`DoRows`] call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DoTerm {
    /// A value.
    Val(Value),
    /// The call at this position of [`DoRows::calls`].
    Call(u32),
}

/// `DO(I, ασ)` as a [`DoProgram`] writes it: the ground facts as flat
/// `[relation, term…]` rows, and the distinct calls of `CALLS(DO(I, ασ))`
/// sorted in [`ServiceCall`] order, which is the order of
/// [`PreInstance::calls`]. Two effects may write the same fact, so rows
/// can repeat; as a set they are the reference [`do_action`]'s facts.
/// The buffers are reused from run to run.
#[derive(Debug, Clone, Default)]
pub struct DoRows {
    /// Per fact: its relation and the end of its terms in `terms`.
    facts: Vec<(RelId, u32)>,
    terms: Vec<DoTerm>,
    /// Per call: its function and the range of its arguments in `args`.
    calls: Vec<(FuncId, u32, u32)>,
    args: Vec<Value>,
}

impl DoRows {
    /// The facts, each a relation and its terms, in the order written.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &[DoTerm])> {
        let mut start = 0;
        self.facts.iter().map(move |&(rel, end)| {
            let terms = &self.terms[start..end as usize];
            start = end as usize;
            (rel, terms)
        })
    }

    /// `|CALLS(DO(I, ασ))|`.
    pub fn num_calls(&self) -> usize {
        self.calls.len()
    }

    /// `CALLS(DO(I, ασ))` in order.
    pub fn calls(&self) -> impl Iterator<Item = ServiceCall> + '_ {
        self.calls.iter().map(|&(func, start, end)| ServiceCall {
            func,
            args: self.args[start as usize..end as usize].to_vec(),
        })
    }

    fn clear(&mut self) {
        self.facts.clear();
        self.terms.clear();
        self.calls.clear();
        self.args.clear();
    }

    fn end_fact(&mut self, rel: RelId) {
        self.facts.push((rel, self.terms.len() as u32));
    }

    /// Write one head fact of a plan row.
    fn push_head(&mut self, head: &HeadFact, regs: &[Option<Value>], sigma: &[Value]) {
        for term in &head.terms {
            let t = match term {
                HeadTerm::Base(op) => DoTerm::Val(op.value(regs, sigma)),
                HeadTerm::Call(func, ops) => {
                    let start = self.args.len() as u32;
                    self.args.extend(ops.iter().map(|op| op.value(regs, sigma)));
                    self.calls.push((*func, start, self.args.len() as u32));
                    DoTerm::Call(self.calls.len() as u32 - 1)
                }
            };
            self.terms.push(t);
        }
        self.end_fact(head.rel);
    }

    /// Sort the calls, one per occurrence so far, into [`ServiceCall`]
    /// order without repeats, and renumber the call terms.
    fn finish(&mut self) {
        let key = |c: &(FuncId, u32, u32)| (c.0, &self.args[c.1 as usize..c.2 as usize]);
        if self.calls.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            return; // already in order, as a single call always is
        }
        let mut order: Vec<u32> = (0..self.calls.len() as u32).collect();
        order.sort_by(|&a, &b| key(&self.calls[a as usize]).cmp(&key(&self.calls[b as usize])));
        let mut renumber = vec![0u32; self.calls.len()];
        let mut calls: Vec<(FuncId, u32, u32)> = Vec::new();
        let mut args: Vec<Value> = Vec::new();
        for &i in &order {
            let call = self.calls[i as usize];
            let repeat = calls
                .last()
                .is_some_and(|&(f, s, e)| (f, &args[s as usize..e as usize]) == key(&call));
            if !repeat {
                let start = args.len() as u32;
                args.extend_from_slice(&self.args[call.1 as usize..call.2 as usize]);
                calls.push((call.0, start, args.len() as u32));
            }
            renumber[i as usize] = calls.len() as u32 - 1;
        }
        for t in &mut self.terms {
            if let DoTerm::Call(c) = t {
                *c = renumber[*c as usize];
            }
        }
        self.calls = calls;
        self.args = args;
    }
}

/// Where a head term reads its value in a plan row.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(Value),
    /// A register of the row.
    Slot(usize),
    /// A value of σ, by variable position.
    Param(usize),
}

impl Operand {
    fn value(self, regs: &[Option<Value>], sigma: &[Value]) -> Value {
        match self {
            Operand::Const(v) => v,
            Operand::Slot(s) => regs[s].expect("output slot bound in a row"),
            Operand::Param(i) => sigma[i],
        }
    }
}

#[derive(Debug, Clone)]
enum HeadTerm {
    Base(Operand),
    Call(FuncId, Vec<Operand>),
}

/// One head fact of an effect, compiled against a disjunct's registers.
#[derive(Debug, Clone)]
struct HeadFact {
    rel: RelId,
    terms: Vec<HeadTerm>,
}

/// One compiled effect of a [`DoProgram`]: its `q⁺` plan, which the
/// reference [`do_action`] runs, and how the program writes it.
#[derive(Debug, Clone)]
struct EffectProgram {
    plan: CompiledPlan,
    kind: EffectKind,
}

#[derive(Debug, Clone)]
enum EffectKind {
    /// `R(x̄) ⇝ S₁(π₁x̄), …`: every tuple of `from` with the atom's arity,
    /// its columns reordered by each head's permutation. The plan does
    /// not run.
    Copy {
        from: RelId,
        arity: usize,
        heads: Vec<(RelId, Vec<usize>)>,
    },
    /// The plan's rows, each written through the head facts of its
    /// disjunct. A head fact that names a variable neither σ nor the
    /// disjunct binds writes nothing, as its grounding fails in
    /// [`do_action`].
    Template {
        /// `Q⁻`, unless it is `true`.
        qminus: Option<Formula>,
        heads: Vec<Vec<HeadFact>>,
    },
}

/// The effects of an action compiled once for `DO(I, ασ)` over the
/// σ that bind exactly `vars` (see the module docs).
#[derive(Debug, Clone)]
pub struct DoProgram {
    /// The variables σ binds, ascending: a σ is a row of values over them.
    vars: Vec<Var>,
    effects: Vec<EffectProgram>,
}

impl DoProgram {
    /// Compile `effects` for the σ that bind exactly `vars`.
    fn compile(effects: &[Effect], vars: BTreeSet<Var>) -> DoProgram {
        let effects = effects
            .iter()
            .map(|effect| {
                let plan = compile_qplus(&effect.qplus, &vars);
                let kind = as_copy(effect, &vars).unwrap_or_else(|| EffectKind::Template {
                    qminus: (effect.qminus != Formula::True).then(|| effect.qminus.clone()),
                    heads: (0..plan.disjuncts())
                        .map(|d| head_facts(effect, &vars, &plan, d))
                        .collect(),
                });
                EffectProgram { plan, kind }
            })
            .collect();
        DoProgram {
            vars: vars.into_iter().collect(),
            effects,
        }
    }

    /// How many effects run as copies (frames, renames, permutations),
    /// out of how many.
    pub fn copies(&self) -> (usize, usize) {
        let copies = self
            .effects
            .iter()
            .filter(|e| matches!(e.kind, EffectKind::Copy { .. }))
            .count();
        (copies, self.effects.len())
    }

    /// Write `DO(I, ασ)` into `out` (cleared first) for σ given as one
    /// value per variable, ascending. Each plan run counts as a plan
    /// evaluation in `stats`; a copy runs none.
    fn run(&self, stats: &PlanStats, inst: &Instance, sigma: &[Value], out: &mut DoRows) {
        out.clear();
        let ctx = EvalCtx::scan(inst).stats(stats);
        let seed = SortedRow {
            vars: &self.vars,
            values: sigma,
        };
        for EffectProgram { plan, kind } in &self.effects {
            match kind {
                EffectKind::Copy { from, arity, heads } => {
                    for t in inst.tuples(*from) {
                        let vals = t.values();
                        if vals.len() != *arity {
                            continue;
                        }
                        for (rel, perm) in heads {
                            out.terms.extend(perm.iter().map(|&i| DoTerm::Val(vals[i])));
                            out.end_fact(*rel);
                        }
                    }
                }
                EffectKind::Template { qminus, heads } => {
                    stats.plan_evals.fetch_add(1, Ordering::Relaxed);
                    // `Q⁻σ`, and σ as the assignment its rows extend.
                    let filter = qminus.as_ref().map(|q| {
                        let asg: Assignment = self
                            .vars
                            .iter()
                            .cloned()
                            .zip(sigma.iter().copied())
                            .collect();
                        (q.apply(&asg), asg)
                    });
                    plan.any_row(&ctx, &seed, |d, regs| {
                        if let Some((q, sigma_asg)) = &filter {
                            let mut full = sigma_asg.clone();
                            full.extend(plan.out_vars(d).map(|(v, s)| {
                                (v.clone(), regs[s].expect("output slot bound in a row"))
                            }));
                            if !holds(q, inst, &full).unwrap_or(false) {
                                return false;
                            }
                        }
                        for head in &heads[d] {
                            out.push_head(head, regs, sigma);
                        }
                        false
                    });
                }
            }
        }
        out.finish();
    }
}

/// The head facts of `effect` compiled against the rows of disjunct `d` of
/// its plan: a variable of σ (`vars`, ascending) reads σ, any other a
/// register of the row. A fact that names a variable neither binds is
/// left out, as its grounding fails in [`do_action`].
fn head_facts(
    effect: &Effect,
    vars: &BTreeSet<Var>,
    plan: &CompiledPlan,
    d: usize,
) -> Vec<HeadFact> {
    let operand = |b: &BaseTerm| match b {
        BaseTerm::Const(c) => Some(Operand::Const(*c)),
        BaseTerm::Var(v) => match vars.iter().position(|w| w == v) {
            Some(i) => Some(Operand::Param(i)),
            None => plan.out_slot(d, v).map(Operand::Slot),
        },
    };
    effect
        .head
        .iter()
        .filter_map(|(rel, terms)| {
            let terms = terms
                .iter()
                .map(|t| match t {
                    ETerm::Base(b) => operand(b).map(HeadTerm::Base),
                    ETerm::Call(f, args) => args
                        .iter()
                        .map(operand)
                        .collect::<Option<_>>()
                        .map(|ops| HeadTerm::Call(*f, ops)),
                })
                .collect::<Option<_>>()?;
            Some(HeadFact { rel: *rel, terms })
        })
        .collect()
}

/// The copy program of `effect` if it is one: `q⁺` a single atom over
/// distinct variables, none in `vars` (σ's), with no constant, equality
/// or `Q⁻`, and every head fact a permutation of the atom's variables.
fn as_copy(effect: &Effect, vars: &BTreeSet<Var>) -> Option<EffectKind> {
    if effect.qminus != Formula::True {
        return None;
    }
    let [cq] = effect.qplus.disjuncts.as_slice() else {
        return None;
    };
    let [(from, terms)] = cq.atoms.as_slice() else {
        return None;
    };
    if !cq.equalities.is_empty() {
        return None;
    }
    let atom: Vec<&Var> = terms
        .iter()
        .map(|t| match t {
            QTerm::Var(v) if !vars.contains(v) => Some(v),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let distinct: BTreeSet<&Var> = atom.iter().copied().collect();
    if distinct.len() != atom.len() || cq.head.iter().collect::<BTreeSet<_>>() != distinct {
        return None;
    }
    let heads = effect
        .head
        .iter()
        .map(|(rel, hterms)| {
            if hterms.len() != atom.len() {
                return None;
            }
            let perm: Vec<usize> = hterms
                .iter()
                .map(|t| match t {
                    ETerm::Base(BaseTerm::Var(v)) => atom.iter().position(|a| *a == v),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            let used: BTreeSet<usize> = perm.iter().copied().collect();
            (used.len() == perm.len()).then_some((*rel, perm))
        })
        .collect::<Option<_>>()?;
    Some(EffectKind::Copy {
        from: *from,
        arity: atom.len(),
        heads,
    })
}

/// One legal `ασ` of [`LegalSigmas`]: the action, and σ as one value per
/// free variable of the rule condition that made it legal, ascending —
/// the parameters of α, in a validated system.
#[derive(Debug, Clone, Copy)]
pub struct Sigma<'a> {
    /// The action α.
    pub action: ActionId,
    /// The program that runs `DO(I, ασ)`.
    program: usize,
    /// σ's values, in variable order.
    pub values: &'a [Value],
}

impl Sigma<'_> {
    /// σ as an assignment, for the reference functions.
    pub fn assignment(&self, dcds: &Dcds) -> Assignment {
        let vars = &dcds.plans().programs[self.program].vars;
        vars.iter()
            .cloned()
            .zip(self.values.iter().copied())
            .collect()
    }
}

/// The legal `ασ` of a state as value rows, in [`legal_assignments`]
/// order.
#[derive(Debug, Clone, Default)]
pub struct LegalSigmas {
    /// Per σ: action, program, and the end of its values in `values`.
    sigmas: Vec<(ActionId, usize, usize)>,
    values: Vec<Value>,
}

impl LegalSigmas {
    /// True when no action is legal.
    pub fn is_empty(&self) -> bool {
        self.sigmas.is_empty()
    }

    /// The legal `ασ`, in order.
    pub fn iter(&self) -> impl Iterator<Item = Sigma<'_>> {
        let mut start = 0;
        self.sigmas.iter().map(move |&(action, program, end)| {
            let values = &self.values[start..end];
            start = end;
            Sigma {
                action,
                program,
                values,
            }
        })
    }

    fn push(&mut self, action: ActionId, program: usize, values: &[Value]) {
        self.values.extend_from_slice(values);
        self.sigmas.push((action, program, self.values.len()));
    }
}

/// `DO(I, ασ)` by the program of σ's rule, written into `out`.
pub fn do_rows(dcds: &Dcds, inst: &Instance, sigma: Sigma<'_>, out: &mut DoRows) {
    let cache = dcds.plans();
    cache.programs[sigma.program].run(&cache.stats, inst, sigma.values, out);
}

/// Legal parameter assignments: for each rule `Q ↦ α`, every answer of `Q`
/// over the instance provides a legal σ for α (Section 4.1). Returns
/// deterministic, deduplicated `(α, σ)` rows: rule by rule, each rule's
/// answers in ascending order (the order of a set of assignments), and a
/// σ an earlier rule already gave its action left out.
///
/// UCQ-shaped rule conditions are answered through their compiled plans —
/// a condition without free variables by [`CompiledPlan::holds`], which
/// stops at the first row; conditions outside the fragment — negation,
/// universal quantification, non-range-restricted equalities — keep the
/// reference active-domain evaluator. Identical output either way:
/// compiled plans are gated on the range restriction under which the two
/// semantics coincide.
pub fn legal_sigmas(dcds: &Dcds, inst: &Instance) -> LegalSigmas {
    let cache = dcds.plans();
    let ctx = EvalCtx::scan(inst).stats(&cache.stats);
    let mut out = LegalSigmas::default();
    let mut found: Vec<Value> = Vec::new();
    for (rix, (rule, rows)) in dcds.process.rules.iter().zip(&cache.rules).enumerate() {
        let width = cache.programs[rows.program].vars.len();
        found.clear();
        let mut any = false;
        match cache.rule_plan(rix) {
            Some(plan) if width == 0 => any = plan.holds(&ctx, &Assignment::new()),
            Some(plan) => {
                cache.stats.plan_evals.fetch_add(1, Ordering::Relaxed);
                plan.any_row(&ctx, &Assignment::new(), |d, regs| {
                    found.extend(
                        rows.slots[d]
                            .iter()
                            .map(|&s| regs[s].expect("output bound")),
                    );
                    false
                });
            }
            None => {
                cache.stats.fallback_evals.fetch_add(1, Ordering::Relaxed);
                for sigma in dcds_folang::answers(&rule.condition, inst) {
                    debug_assert_eq!(sigma.len(), width, "an answer binds every free variable");
                    any = true;
                    found.extend(sigma.into_values());
                }
            }
        }
        if width == 0 {
            let repeat = rows.twin
                && out
                    .iter()
                    .any(|s| s.action == rule.action && s.values.is_empty());
            if any && !repeat {
                out.push(rule.action, rows.program, &[]);
            }
            continue;
        }
        let mut answers: Vec<&[Value]> = found.chunks_exact(width).collect();
        answers.sort_unstable();
        answers.dedup();
        for values in answers {
            let repeat = rows.twin
                && out.iter().any(|s| {
                    s.action == rule.action
                        && cache.programs[s.program].vars == cache.programs[rows.program].vars
                        && s.values == values
                });
            if !repeat {
                out.push(rule.action, rows.program, values);
            }
        }
    }
    out
}

/// [`legal_sigmas`] with each σ as an assignment, for the reference
/// functions.
pub fn legal_assignments(dcds: &Dcds, inst: &Instance) -> Vec<(ActionId, Assignment)> {
    legal_sigmas(dcds, inst)
        .iter()
        .map(|sigma| (sigma.action, sigma.assignment(dcds)))
        .collect()
}

/// Overwrite semantics helper used by both service semantics: the successor
/// instance is *exactly* the resolved `DO` result — facts not re-asserted by
/// some effect are forgotten (the paper's transition semantics).
pub fn resolve_with_map(
    pre: &PreInstance,
    map: &BTreeMap<ServiceCall, dcds_reldata::Value>,
) -> Option<Instance> {
    pre.resolve(&|c| map.get(c).copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    /// Example 4.1 from the paper.
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
            .expect("example 4.1 is well-formed")
    }

    #[test]
    fn do_produces_calls_and_values() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Facts: R(a), P(a), Q(f(a), g(a)).
        assert_eq!(pre.len(), 3);
        let calls = pre.calls();
        assert_eq!(calls.len(), 2);
        let names: BTreeSet<String> = calls
            .iter()
            .map(|c| c.display(&dcds.process.services, &dcds.data.pool))
            .collect();
        assert_eq!(
            names,
            ["f(a)".to_owned(), "g(a)".to_owned()].into_iter().collect()
        );
    }

    #[test]
    fn resolve_builds_instance() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        let a = dcds.data.pool.get("a").unwrap();
        let map: BTreeMap<ServiceCall, _> = pre.calls().into_iter().map(|c| (c, a)).collect();
        let inst = resolve_with_map(&pre, &map).unwrap();
        // R(a), P(a), Q(a,a).
        assert_eq!(inst.len(), 3);
        let q = dcds.data.schema.rel_id("Q").unwrap();
        assert!(inst.contains(q, &Tuple::from([a, a])));
    }

    #[test]
    fn legal_assignments_from_true_rule() {
        let dcds = example_4_1();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 1);
        assert!(legal[0].1.is_empty());
    }

    #[test]
    fn unresolved_calls_fail_resolution() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        assert!(resolve_with_map(&pre, &BTreeMap::new()).is_none());
    }

    #[test]
    fn parameterised_action_and_guard() {
        // ρ = { P(X) ↦ alpha(X) }, alpha(p): true ⇝ R(p).
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .action("alpha", &["X"], |a| {
                a.effect("true", "R(X)");
            })
            .rule("P(X)", "alpha")
            .build()
            .unwrap();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 2);
        let alpha = dcds.action_id("alpha").unwrap();
        for (act, sigma) in legal {
            assert_eq!(act, alpha);
            let pre = do_action(&dcds, &dcds.data.initial, act, &sigma);
            assert_eq!(pre.len(), 1);
        }
    }

    #[test]
    fn negative_filter_blocks_instantiations() {
        // e: P(X) ∧ ¬R(X) ⇝ R(X) — only copies P-values not yet in R.
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("P(X) & !R(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Only R(b).
        assert_eq!(pre.len(), 1);
        let b = dcds.data.pool.get("b").unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        let inst = pre.resolve(&|_| None).unwrap();
        assert!(inst.contains(r, &Tuple::from([b])));
    }
}

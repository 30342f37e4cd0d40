//! Compiled evaluation plans for first-order queries under the
//! active-domain semantics.
//!
//! Every query the engines ask — rule conditions, effect bodies `q⁺ ∧ Q⁻`,
//! integrity constraints, model-checker leaves, the symbolic engine's bad
//! states — is compiled once into a [`CompiledPlan`] and evaluated at every
//! state it is asked of. The formula is first put in negation normal form
//! (`φ → ψ ≡ ¬φ ∨ ψ`, `∀x.φ ≡ ¬∃x.¬φ`, negation pushed onto atoms,
//! equalities and `∃`) and split into **branches**, a union whose rows are
//! the formula's answers. A branch is a conjunction read as one join:
//!
//! * positive atoms are **join steps**, `∃`-bound variables are pulled into
//!   the branch (renamed apart when they would shadow), and equalities are
//!   checks;
//! * a negated or quantified conjunct whose variables are all bound is a
//!   **filter**: a quantifier-free one is a slot-resolved predicate
//!   (membership tests, `=`, `¬`, `∧`, `∨`), and an `∃` inside it is a
//!   boolean **sub-plan** seeded from the branch's registers — a semi-join,
//!   or under `¬` an anti-join;
//! * a disjunction is a filter when its variables are bound, and is
//!   otherwise distributed into one branch per disjunct;
//! * a variable that no positive atom binds gets an explicit **ADOM step**:
//!   it ranges over `ADOM(I)`, the values of the instance, which is what
//!   the active-domain semantics gives it ([`PlanStats::adom_steps`]
//!   counts them).
//!
//! Compilation cannot fail, so this is the one FO evaluator; the reference
//! evaluator in [`crate::eval`] remains for tests and the model-checking
//! oracles (`tests/plan_differential.rs` compares the two on generated
//! formulas).
//! Each branch is compiled like a conjunctive query:
//!
//! * variables are numbered **slots** and partial assignments become a flat
//!   `Vec<Option<Value>>` register file (no tree maps, no per-extension
//!   clones — bindings are written and undone in place during backtracking);
//! * the greedy join order is fixed at **compile time**, with parameters
//!   treated as pre-bound inputs, and ADOM steps run after every join;
//! * every atom position is classified up front as constant, bound, or free,
//!   yielding the positions a join step has bound before it runs. A step
//!   bound on a *prefix* of its atom's columns is a **sorted-prefix
//!   probe**: a range over the relation's sorted tuples
//!   ([`Instance::tuples_with_prefix`]), a logarithmic seek plus the
//!   matches. Every other step — unbound, or bound only on non-prefix
//!   columns — scans the relation and filters;
//! * equality checks and filters are **hoisted** to the earliest step at
//!   which their variables are bound (ones over constants and parameters
//!   only run once per evaluation, before any step);
//! * steps whose newly-bound slots are never read again (not by later steps,
//!   later checks, or the head) are *existential*: the first candidate that
//!   passes suffices and the rest are skipped — the dead-variable
//!   projection that makes boolean sub-joins cheap.
//!
//! A variable bound by a join takes its value from a tuple, hence from
//! `ADOM(I)`, and every assignment satisfying the atoms is a join row, so
//! the natural join and the active-domain semantics coincide on it; the
//! ADOM steps cover every other variable. Evaluation visits candidate
//! tuples in instance iteration order (a prefix range is a slice of that
//! order) and ADOM values ascending, so outputs are bit-identical whether
//! a step probes or scans, and at every thread count.

use crate::ast::{Assignment, Formula, QTerm, Var};
use crate::ucq::Ucq;
use dcds_reldata::{Instance, RelId, Tuple, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Evaluation counters, shared across threads. Totals are a function of the
/// evaluated work only, so they are identical at every thread count.
#[derive(Debug, Default)]
pub struct PlanStats {
    /// Compiled-plan evaluations ([`CompiledPlan::eval`] / [`CompiledPlan::holds`]).
    pub plan_evals: AtomicU64,
    /// Join steps answered by a sorted-prefix probe: a step bound on a
    /// prefix of its atom's columns reads one range of the sorted tuples.
    pub index_probes: AtomicU64,
    /// Join steps answered by a relation scan (no bound position, or bound
    /// positions that are not a prefix).
    pub relation_scans: AtomicU64,
    /// ADOM steps run: a variable no positive atom binds, enumerated over
    /// the values of the instance.
    pub adom_steps: AtomicU64,
}

impl PlanStats {
    /// Current values as `(name, value)` pairs, for publishing into an
    /// observability registry.
    pub fn snapshot(&self) -> [(&'static str, u64); 4] {
        [
            ("plan_evals", self.plan_evals.load(Ordering::Relaxed)),
            ("index_probes", self.index_probes.load(Ordering::Relaxed)),
            (
                "relation_scans",
                self.relation_scans.load(Ordering::Relaxed),
            ),
            ("adom_steps", self.adom_steps.load(Ordering::Relaxed)),
        ]
    }
}

/// Where an evaluation reads its tuples: an instance, optionally with a
/// [`PlanStats`] to count into.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    inst: &'a Instance,
    stats: Option<&'a PlanStats>,
}

impl<'a> EvalCtx<'a> {
    /// Evaluate over `inst`: prefix-keyed steps probe the sorted tuples,
    /// every other step scans its relation.
    pub fn scan(inst: &'a Instance) -> Self {
        EvalCtx { inst, stats: None }
    }

    /// Attach an evaluation-counter sink.
    pub fn stats(mut self, stats: &'a PlanStats) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// Where the steps of an evaluation read their tuples: one instance
/// ([`EvalCtx`]), or a base and a delta read as their union
/// ([`DeltaPlan`]). Each evaluator gets its own monomorphised join loop.
trait Source {
    /// Count one event into the attached [`PlanStats`], if any.
    fn count(&self, f: impl FnOnce(&PlanStats) -> &AtomicU64);
    /// Every tuple of `rel`.
    fn scan(&self, rel: RelId) -> impl Iterator<Item = &Tuple>;
    /// The tuples of `rel` whose leading components equal `key`.
    fn prefix<'s>(&'s self, rel: RelId, key: &'s [Value]) -> impl Iterator<Item = &'s Tuple>;
    /// Is `values` a tuple of `rel`?
    fn contains(&self, rel: RelId, values: &[Value]) -> bool {
        self.prefix(rel, values).any(|t| t.values() == values)
    }
    /// `ADOM`, ascending.
    fn active_domain(&self) -> Vec<Value>;
}

impl Source for EvalCtx<'_> {
    fn count(&self, f: impl FnOnce(&PlanStats) -> &AtomicU64) {
        if let Some(stats) = self.stats {
            f(stats).fetch_add(1, Ordering::Relaxed);
        }
    }

    fn scan(&self, rel: RelId) -> impl Iterator<Item = &Tuple> {
        self.inst.tuples(rel)
    }

    fn prefix<'s>(&'s self, rel: RelId, key: &'s [Value]) -> impl Iterator<Item = &'s Tuple> {
        self.inst.tuples_with_prefix(rel, key)
    }

    fn active_domain(&self) -> Vec<Value> {
        self.inst.active_domain().into_iter().collect()
    }
}

/// `base ∪ delta`, read without building it: every step reads the base's
/// tuples and then the delta's. A fact in both is read twice, which only
/// repeats rows.
struct Union<'a> {
    base: &'a Instance,
    delta: &'a Instance,
}

impl Source for Union<'_> {
    fn count(&self, _: impl FnOnce(&PlanStats) -> &AtomicU64) {}

    fn scan(&self, rel: RelId) -> impl Iterator<Item = &Tuple> {
        self.base.tuples(rel).chain(self.delta.tuples(rel))
    }

    fn prefix<'s>(&'s self, rel: RelId, key: &'s [Value]) -> impl Iterator<Item = &'s Tuple> {
        self.base
            .tuples_with_prefix(rel, key)
            .chain(self.delta.tuples_with_prefix(rel, key))
    }

    fn active_domain(&self) -> Vec<Value> {
        unreachable!("a delta plan has no ADOM step")
    }
}

/// One evaluation's source, with `ADOM` built on the first ADOM step and
/// shared by every sub-plan the evaluation runs.
struct Cx<'a, S> {
    src: &'a S,
    adom: OnceCell<Vec<Value>>,
}

impl<'a, S: Source> Cx<'a, S> {
    fn new(src: &'a S) -> Self {
        Cx {
            src,
            adom: OnceCell::new(),
        }
    }

    fn adom(&self) -> &[Value] {
        self.adom.get_or_init(|| self.src.active_domain())
    }
}

/// Where an evaluation reads the values of its parameters: an
/// [`Assignment`], or a [`SortedRow`] of values.
pub trait Seed {
    /// The value bound to `v`, if any.
    fn value(&self, v: &Var) -> Option<Value>;
}

impl Seed for Assignment {
    fn value(&self, v: &Var) -> Option<Value> {
        self.get(v).copied()
    }
}

/// Parameter values as a row: `values[i]` is bound to `vars[i]`, and
/// `vars` is sorted ascending — the order of an [`Assignment`]'s keys.
#[derive(Debug, Clone, Copy)]
pub struct SortedRow<'a> {
    /// The variables, ascending.
    pub vars: &'a [Var],
    /// One value per variable.
    pub values: &'a [Value],
}

impl Seed for SortedRow<'_> {
    fn value(&self, v: &Var) -> Option<Value> {
        let i = self.vars.binary_search(v).ok()?;
        Some(self.values[i])
    }
}

/// A sub-plan's parameters, read from its parent's registers.
struct Registers<'a> {
    /// Parameter and parent slot, by variable ascending.
    inputs: &'a [(Var, usize)],
    regs: &'a [Option<Value>],
}

impl Seed for Registers<'_> {
    fn value(&self, v: &Var) -> Option<Value> {
        let i = self.inputs.binary_search_by(|(w, _)| w.cmp(v)).ok()?;
        self.regs[self.inputs[i].1]
    }
}

/// A value source known at compile time: a constant or a register slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Const(Value),
    Slot(usize),
}

impl Src {
    fn value(self, regs: &[Option<Value>]) -> Value {
        match self {
            Src::Const(c) => c,
            Src::Slot(s) => regs[s].expect("slot read before bound"),
        }
    }

    fn slot(self) -> Option<usize> {
        match self {
            Src::Const(_) => None,
            Src::Slot(s) => Some(s),
        }
    }
}

/// An equality check with both sides bound by the time it runs.
#[derive(Debug, Clone, Copy)]
struct EqCheck {
    a: Src,
    b: Src,
}

impl EqCheck {
    fn holds(self, regs: &[Option<Value>]) -> bool {
        self.a.value(regs) == self.b.value(regs)
    }
}

/// A filter over bound registers: a quantifier-free predicate, with
/// `∃`-subformulas as sub-plans seeded from the registers.
#[derive(Debug, Clone)]
enum Cond {
    Const(bool),
    Atom(RelId, Vec<Src>),
    Eq(Src, Src),
    Not(Box<Cond>),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    /// The sub-plan has a row, its parameters read from the registers.
    Exists(Box<SubPlan>),
}

/// A boolean plan whose parameters are registers of the plan it filters.
#[derive(Debug, Clone)]
struct SubPlan {
    plan: CompiledPlan,
    /// Each parameter with the parent slot it reads, by variable ascending.
    inputs: Vec<(Var, usize)>,
}

impl Cond {
    /// Compile a filter in negation normal form over the slots of `slot_of`,
    /// which binds every free variable of `f`.
    fn compile(f: &Formula, slot_of: &BTreeMap<Var, usize>) -> Cond {
        let src = |t: &QTerm| match t {
            QTerm::Const(c) => Src::Const(*c),
            QTerm::Var(v) => Src::Slot(slot_of[v]),
        };
        let sub = |g: &Formula| Box::new(Cond::compile(g, slot_of));
        match f {
            Formula::True => Cond::Const(true),
            Formula::False => Cond::Const(false),
            Formula::Atom(rel, terms) => Cond::Atom(*rel, terms.iter().map(src).collect()),
            Formula::Eq(a, b) => Cond::Eq(src(a), src(b)),
            Formula::Not(g) => Cond::Not(sub(g)),
            Formula::And(g, h) => Cond::And(sub(g), sub(h)),
            Formula::Or(g, h) => Cond::Or(sub(g), sub(h)),
            Formula::Exists(..) => {
                let params = f.free_vars();
                let inputs = params.iter().map(|v| (v.clone(), slot_of[v])).collect();
                Cond::Exists(Box::new(SubPlan {
                    plan: CompiledPlan::compile(f, &params),
                    inputs,
                }))
            }
            Formula::Implies(..) | Formula::Forall(..) => {
                unreachable!("filters are in negation normal form")
            }
        }
    }

    fn holds<S: Source>(&self, cx: &Cx<'_, S>, regs: &[Option<Value>]) -> bool {
        match self {
            Cond::Const(b) => *b,
            Cond::Atom(rel, args) => {
                let values: Vec<Value> = args.iter().map(|a| a.value(regs)).collect();
                cx.src.contains(*rel, &values)
            }
            Cond::Eq(a, b) => a.value(regs) == b.value(regs),
            Cond::Not(c) => !c.holds(cx, regs),
            Cond::And(c, d) => c.holds(cx, regs) && d.holds(cx, regs),
            Cond::Or(c, d) => c.holds(cx, regs) || d.holds(cx, regs),
            Cond::Exists(sub) => {
                let seed = Registers {
                    inputs: &sub.inputs,
                    regs,
                };
                sub.plan
                    .branches
                    .iter()
                    .any(|b| b.run(cx, &seed, &mut |_| true))
            }
        }
    }

    /// The slots the filter reads.
    fn slots(&self, out: &mut Vec<usize>) {
        match self {
            Cond::Const(_) => {}
            Cond::Atom(_, args) => out.extend(args.iter().filter_map(|a| a.slot())),
            Cond::Eq(a, b) => out.extend([a, b].into_iter().filter_map(|a| a.slot())),
            Cond::Not(c) => c.slots(out),
            Cond::And(c, d) | Cond::Or(c, d) => {
                c.slots(out);
                d.slots(out);
            }
            Cond::Exists(sub) => out.extend(sub.inputs.iter().map(|(_, s)| *s)),
        }
    }

    /// Does the filter read the instance (an atom or a sub-plan)?
    fn reads_relation(&self) -> bool {
        match self {
            Cond::Const(_) | Cond::Eq(..) => false,
            Cond::Atom(..) | Cond::Exists(_) => true,
            Cond::Not(c) => c.reads_relation(),
            Cond::And(c, d) | Cond::Or(c, d) => c.reads_relation() || d.reads_relation(),
        }
    }

    fn has_adom_step(&self) -> bool {
        match self {
            Cond::Const(_) | Cond::Atom(..) | Cond::Eq(..) => false,
            Cond::Not(c) => c.has_adom_step(),
            Cond::And(c, d) | Cond::Or(c, d) => c.has_adom_step() || d.has_adom_step(),
            Cond::Exists(sub) => sub.plan.has_adom_step(),
        }
    }
}

/// Compile-time classification of one atom position.
#[derive(Debug, Clone, Copy)]
enum PosTerm {
    /// The position must carry this constant.
    Const(Value),
    /// The position must equal the (already bound) slot.
    Bound(usize),
    /// The position binds the slot (or re-checks it, on a repeated variable
    /// within the same atom).
    Free(usize),
}

/// How a step extends the register file.
#[derive(Debug, Clone)]
enum Access {
    /// Through the tuples of a relation.
    Join {
        rel: RelId,
        terms: Vec<PosTerm>,
        /// How to compute the probe key when the positions bound before
        /// the step runs are `0..k` for some `k ≥ 1`: the matching tuples
        /// are then one range of the relation's sorted tuples. Empty when
        /// the step scans.
        prefix_key: Vec<Src>,
    },
    /// By binding the slot to each value of `ADOM(I)`, ascending.
    Adom(usize),
}

/// One step of a branch, with the checks that run once it has bound.
#[derive(Debug, Clone)]
struct Step {
    access: Access,
    /// Equalities hoisted to this step (both sides bound once it binds).
    eq_checks: Vec<EqCheck>,
    /// Filters hoisted to this step, run after the equalities.
    filters: Vec<Cond>,
    /// No slot bound here is read later: the first passing candidate
    /// suffices.
    existential: bool,
}

impl Step {
    fn passes<S: Source>(&self, cx: &Cx<'_, S>, regs: &[Option<Value>]) -> bool {
        self.eq_checks.iter().all(|eq| eq.holds(regs))
            && self.filters.iter().all(|c| c.holds(cx, regs))
    }
}

/// A compiled conjunction: one branch of a plan.
#[derive(Debug, Clone)]
struct Branch {
    nslots: usize,
    /// Parameter variables and their slots, seeded from the input.
    param_slots: Vec<(Var, usize)>,
    /// Output variables (head minus parameters) and their slots.
    out_vars: Vec<(Var, usize)>,
    /// Equalities over constants and parameters only: checked once per
    /// evaluation, before any step.
    pre_checks: Vec<EqCheck>,
    /// Filters over constants and parameters only, after `pre_checks`.
    pre_filters: Vec<Cond>,
    steps: Vec<Step>,
}

/// A compiled first-order query. Evaluation returns assignments over the
/// head variables that are not parameters — exactly the answers of the
/// query with the parameters substituted as constants.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    branches: Vec<Branch>,
}

impl CompiledPlan {
    /// Compile `f` under the active-domain semantics, treating `params` as
    /// pre-bound inputs. Its rows are the answers of `f` over the free
    /// variables that are not parameters, in ascending variable order;
    /// evaluated with parameter values outside `ADOM(I)`, they are the
    /// answers with those values substituted.
    pub fn compile(f: &Formula, params: &BTreeSet<Var>) -> CompiledPlan {
        let head: Vec<Var> = f.free_vars().difference(params).cloned().collect();
        let branches = blocks(&nnf(f, false), params, &head)
            .iter()
            .map(|block| compile_branch(block, &head, params, None))
            .collect();
        CompiledPlan { branches }
    }

    /// Compile a UCQ with each disjunct conjoined with `filter` (its `Q⁻`),
    /// treating `params` as pre-bound inputs: one branch per disjunct,
    /// whose rows are assignments over its head minus the parameters.
    /// `filter` is read over those and the parameters: a disjunct whose
    /// head and parameters miss one of its variables has no row.
    pub fn compile_ucq(ucq: &Ucq, filter: &Formula, params: &BTreeSet<Var>) -> CompiledPlan {
        let filter_vars = filter.free_vars();
        let branches = ucq
            .disjuncts
            .iter()
            .map(|cq| {
                let covered = filter_vars
                    .iter()
                    .all(|v| cq.head.contains(v) || params.contains(v));
                let mut filters = Vec::new();
                match covered {
                    true => conjuncts(nnf(filter, false), &mut filters),
                    false => filters.push(Formula::False),
                }
                // Every variable of the atoms and equalities gets a slot;
                // one no atom binds takes an ADOM step.
                let block = Block {
                    atoms: cq.atoms.clone(),
                    equalities: cq.equalities.clone(),
                    filters,
                    locals: BTreeSet::new(),
                };
                compile_branch(&block, &cq.head, params, None)
            })
            .collect();
        CompiledPlan { branches }
    }

    /// Evaluate, seeding the parameter slots from `seed`. Returns the set
    /// of assignments over the non-parameter head variables: the answers of
    /// the parameter-substituted query.
    ///
    /// Panics if `seed` misses a parameter that occurs in the query.
    pub fn eval(&self, ctx: &EvalCtx<'_>, seed: &Assignment) -> BTreeSet<Assignment> {
        ctx.count(|s| &s.plan_evals);
        let cx = Cx::new(ctx);
        let mut out = BTreeSet::new();
        for branch in &self.branches {
            branch.run(&cx, seed, &mut |regs| {
                out.insert(branch.row(regs));
                false
            });
        }
        out
    }

    /// Boolean evaluation: is the answer set non-empty? Stops at the first
    /// produced row.
    pub fn holds(&self, ctx: &EvalCtx<'_>, seed: &Assignment) -> bool {
        ctx.count(|s| &s.plan_evals);
        let cx = Cx::new(ctx);
        self.branches
            .iter()
            .any(|branch| branch.run(&cx, seed, &mut |_| true))
    }

    /// Row-level evaluation without materialising rows: calls `sink` with
    /// the branch index and the register file of each produced row, and
    /// stops as soon as `sink` returns `true` (the return value reports
    /// whether it did). Rows of one branch may repeat; the sink reads
    /// output variables through [`CompiledPlan::out_slot`]. Unlike
    /// [`CompiledPlan::eval`] and [`CompiledPlan::holds`], it does not
    /// count a plan evaluation (steps are still counted).
    pub fn any_row(
        &self,
        ctx: &EvalCtx<'_>,
        seed: &impl Seed,
        mut sink: impl FnMut(usize, &[Option<Value>]) -> bool,
    ) -> bool {
        let cx = Cx::new(ctx);
        self.branches
            .iter()
            .enumerate()
            .any(|(i, branch)| branch.run(&cx, seed, &mut |regs| sink(i, regs)))
    }

    /// Number of branches: the disjuncts of a UCQ, the branches of a
    /// formula.
    pub fn disjuncts(&self) -> usize {
        self.branches.len()
    }

    /// The register slot holding output variable `v` in the rows of
    /// branch `disjunct`, or `None` if `v` is not one of its outputs.
    pub fn out_slot(&self, disjunct: usize, v: &Var) -> Option<usize> {
        self.branches[disjunct]
            .out_vars
            .iter()
            .find(|(w, _)| w == v)
            .map(|(_, s)| *s)
    }

    /// Does some branch, or some sub-plan of a filter, enumerate `ADOM(I)`
    /// for a variable no positive atom binds?
    pub fn has_adom_step(&self) -> bool {
        self.branches
            .iter()
            .any(|b| b.has_adom_step() || b.filters().any(Cond::has_adom_step))
    }
}

/// A parameterless query compiled for evaluation over `base ∪ Δ` that only
/// looks for the rows using a `Δ` tuple (the delta rule of semi-naive
/// evaluation): every branch is compiled once per atom with that atom
/// joined first and matched against `Δ` alone, and every later step reads
/// `base` and `Δ` in turn, without building their union.
///
/// A row of `base ∪ Δ` whose atoms match some `Δ` tuple is produced by the
/// copy that joins that atom first; a row matching base tuples only is
/// never produced, unless its tuples are also in `Δ`. Only queries without
/// ADOM steps and whose filters read no relation have one: their other
/// rows are the same on `base` and on `base ∪ Δ`.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Each branch compiled with one of its atoms first.
    seeded: Vec<Branch>,
}

impl DeltaPlan {
    /// Compile every branch of `f` (no parameters) once per atom, or
    /// `None` when some branch has an ADOM step or a filter that reads a
    /// relation.
    pub fn compile(f: &Formula) -> Option<DeltaPlan> {
        let no_params = BTreeSet::new();
        let head: Vec<Var> = f.free_vars().into_iter().collect();
        let mut seeded = Vec::new();
        for block in blocks(&nnf(f, false), &no_params, &head) {
            let whole = compile_branch(&block, &head, &no_params, None);
            if whole.has_adom_step() || whole.filters().any(Cond::reads_relation) {
                return None;
            }
            for first in 0..block.atoms.len() {
                let copy = compile_branch(&block, &head, &no_params, Some(first));
                debug_assert_eq!(copy.out_vars, whole.out_vars);
                seeded.push(copy);
            }
        }
        Some(DeltaPlan { seeded })
    }

    /// Does some row of `base ∪ delta` match an atom to a `delta` tuple?
    /// Counts nothing.
    pub fn holds(&self, base: &Instance, delta: &Instance) -> bool {
        let union = Union { base, delta };
        let cx = Cx::new(&union);
        self.seeded
            .iter()
            .any(|branch| branch.run_seeded(&cx, &mut |_| true))
    }
}

/// Negation normal form of `f`, negated if `neg`: `→` and `∀` rewritten
/// away, `¬` only on atoms, equalities and `∃`.
fn nnf(f: &Formula, neg: bool) -> Formula {
    let not = |g: Formula| if neg { g.not() } else { g };
    match f {
        Formula::True | Formula::False => match (f == &Formula::True) != neg {
            true => Formula::True,
            false => Formula::False,
        },
        Formula::Atom(..) | Formula::Eq(..) => not(f.clone()),
        Formula::Not(g) => nnf(g, !neg),
        Formula::And(g, h) | Formula::Or(g, h) => {
            let (a, b) = (nnf(g, neg), nnf(h, neg));
            match matches!(f, Formula::And(..)) != neg {
                true => a.and(b),
                false => a.or(b),
            }
        }
        // ¬g ∨ h, negated g ∧ ¬h.
        Formula::Implies(g, h) => {
            let (a, b) = (nnf(g, !neg), nnf(h, neg));
            match neg {
                true => a.and(b),
                false => a.or(b),
            }
        }
        Formula::Exists(v, g) => not(Formula::Exists(v.clone(), Box::new(nnf(g, false)))),
        // ∀v.g ≡ ¬∃v.¬g.
        Formula::Forall(v, g) => {
            let e = Formula::Exists(v.clone(), Box::new(nnf(g, true)));
            if neg {
                e
            } else {
                e.not()
            }
        }
    }
}

/// The top-level disjuncts of `f`.
fn disjuncts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::Or(g, h) => {
            let mut out = disjuncts(g);
            out.extend(disjuncts(h));
            out
        }
        _ => vec![f],
    }
}

/// The top-level conjuncts of `f`, without `true`.
fn conjuncts(f: Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(g, h) => {
            conjuncts(*g, out);
            conjuncts(*h, out);
        }
        Formula::True => {}
        _ => out.push(f),
    }
}

/// Disjunctions distributed past this many branches stay filters, their
/// unbound variables on ADOM steps.
const MAX_BRANCHES: usize = 64;

/// A conjunction before compilation.
#[derive(Debug, Clone, Default)]
struct Block {
    atoms: Vec<(RelId, Vec<QTerm>)>,
    equalities: Vec<(QTerm, QTerm)>,
    /// Conjuncts in negation normal form that are neither atoms,
    /// equalities nor `∃`: negations, and disjunctions whose variables the
    /// atoms bind.
    filters: Vec<Formula>,
    /// The `∃`-bound variables pulled into the block.
    locals: BTreeSet<Var>,
}

/// The branches of `f`, in negation normal form, whose free variables are
/// `params` and `head`: one block per top-level disjunct, each split
/// further where a disjunction binds a variable no atom does.
fn blocks(f: &Formula, params: &BTreeSet<Var>, head: &[Var]) -> Vec<Block> {
    let mut scope = params.clone();
    scope.extend(head.iter().cloned());
    let mut out = Vec::new();
    for d in disjuncts(f) {
        let mut block = Block::default();
        let mut ors = Vec::new();
        if block.add(d, &mut ors, &scope) {
            block.settle(ors, &scope, params, &mut out);
        }
    }
    out
}

impl Block {
    /// Conjoin `f`, deferring disjunctions to `ors`; `false` when `f` is
    /// (and the block has no row).
    fn add(&mut self, f: &Formula, ors: &mut Vec<Formula>, scope: &BTreeSet<Var>) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::And(g, h) => self.add(g, ors, scope) && self.add(h, ors, scope),
            Formula::Atom(rel, terms) => {
                self.atoms.push((*rel, terms.clone()));
                true
            }
            Formula::Eq(a, b) => {
                self.equalities.push((a.clone(), b.clone()));
                true
            }
            Formula::Exists(v, g) if scope.contains(v) || self.locals.contains(v) => {
                // A shadowing binder: rename it apart.
                let fresh = (1..)
                    .map(|n| Var::new(&format!("{v}#{n}")))
                    .find(|w| !scope.contains(w) && !self.locals.contains(w))
                    .expect("a fresh name");
                let g = g.substitute(&[(v.clone(), QTerm::Var(fresh.clone()))].into());
                self.locals.insert(fresh);
                self.add(&g, ors, scope)
            }
            Formula::Exists(v, g) => {
                self.locals.insert(v.clone());
                self.add(g, ors, scope)
            }
            Formula::Or(..) => {
                ors.push(f.clone());
                true
            }
            _ => {
                self.filters.push(f.clone());
                true
            }
        }
    }

    /// Finish the block into `out`: a disjunction with a variable no atom
    /// (or parameter) binds is distributed, one block per disjunct; every
    /// other disjunction becomes a filter.
    fn settle(
        mut self,
        mut ors: Vec<Formula>,
        scope: &BTreeSet<Var>,
        params: &BTreeSet<Var>,
        out: &mut Vec<Block>,
    ) {
        let bound: BTreeSet<&Var> = self
            .atoms
            .iter()
            .flat_map(|(_, terms)| terms.iter().filter_map(QTerm::as_var))
            .chain(params)
            .collect();
        let unbound = ors
            .iter()
            .position(|o| o.free_vars().iter().any(|v| !bound.contains(v)));
        match unbound {
            Some(i) if out.len() < MAX_BRANCHES => {
                let or = ors.remove(i);
                for d in disjuncts(&or) {
                    let mut block = self.clone();
                    let mut rest = ors.clone();
                    if block.add(d, &mut rest, scope) {
                        block.settle(rest, scope, params, out);
                    }
                }
            }
            _ => {
                self.filters.extend(ors);
                out.push(self);
            }
        }
    }
}

/// Are `positions` exactly `0..k` for some `k ≥ 1`?
fn is_prefix(positions: &[usize]) -> bool {
    !positions.is_empty() && positions.iter().enumerate().all(|(i, &p)| i == p)
}

/// Compile one block with outputs `head` (minus `params`); `first` forces
/// the atom joined first (the delta-first copies of a [`DeltaPlan`]), the
/// rest of the join order is greedy as always.
fn compile_branch(
    block: &Block,
    head: &[Var],
    params: &BTreeSet<Var>,
    first: Option<usize>,
) -> Branch {
    // Slots: every variable of the block, numbered in variable order.
    // (Parameters that occur only in the head need no slot — the caller's
    // seed supplies their values directly.)
    let atom_vars: BTreeSet<Var> = block
        .atoms
        .iter()
        .flat_map(|(_, terms)| terms.iter().filter_map(QTerm::as_var))
        .cloned()
        .collect();
    let mut slot_vars: BTreeSet<Var> = atom_vars.clone();
    slot_vars.extend(block.locals.iter().cloned());
    slot_vars.extend(head.iter().filter(|v| !params.contains(*v)).cloned());
    slot_vars.extend(
        block
            .equalities
            .iter()
            .flat_map(|(a, b)| [a, b])
            .filter_map(QTerm::as_var)
            .cloned(),
    );
    for f in &block.filters {
        slot_vars.extend(f.free_vars());
    }
    let slot_of: BTreeMap<Var, usize> = slot_vars
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();
    let nslots = slot_of.len();
    let param_slots: Vec<(Var, usize)> = slot_of
        .iter()
        .filter(|(v, _)| params.contains(*v))
        .map(|(v, &s)| (v.clone(), s))
        .collect();
    let mut out_vars: Vec<(Var, usize)> = Vec::new();
    for v in head {
        if !params.contains(v) && out_vars.iter().all(|(w, _)| w != v) {
            out_vars.push((v.clone(), slot_of[v]));
        }
    }

    // Join order fixed at compile time: `first` if given, then greedily
    // the atom sharing the most variables with those already bound (ties
    // by position), with parameter slots counting as bound from the start.
    // (The answer set is order-independent; the order only shapes how much
    // gets pruned early.)
    let order = {
        let mut remaining: Vec<usize> = (0..block.atoms.len()).collect();
        let mut bound_vars: BTreeSet<Var> = param_slots.iter().map(|(v, _)| v.clone()).collect();
        let mut order = Vec::with_capacity(block.atoms.len());
        while !remaining.is_empty() {
            let forced = first.filter(|_| order.is_empty());
            let (pos, &best) = remaining
                .iter()
                .enumerate()
                .filter(|(_, &ix)| forced.is_none_or(|f| f == ix))
                .max_by_key(|(_, &ix)| {
                    let terms = &block.atoms[ix].1;
                    let shared = terms
                        .iter()
                        .filter_map(QTerm::as_var)
                        .collect::<BTreeSet<_>>()
                        .iter()
                        .filter(|v| bound_vars.contains(**v))
                        .count();
                    let consts = terms.iter().filter(|t| t.as_const().is_some()).count();
                    (shared, consts, usize::MAX - ix)
                })
                .expect("remaining nonempty");
            order.push(best);
            bound_vars.extend(
                block.atoms[best]
                    .1
                    .iter()
                    .filter_map(|t| t.as_var().cloned()),
            );
            remaining.remove(pos);
        }
        order
    };

    // Build the join steps, tracking which slot each step binds first.
    let mut bound: Vec<bool> = vec![false; nslots];
    for (_, s) in &param_slots {
        bound[*s] = true;
    }
    let mut first_bound_at: Vec<Option<usize>> = vec![None; nslots]; // None = param
    let mut steps: Vec<Step> = Vec::with_capacity(order.len());
    let step = |access| Step {
        access,
        eq_checks: Vec::new(),
        filters: Vec::new(),
        existential: false,
    };
    for (six, &atom_ix) in order.iter().enumerate() {
        let (rel, terms) = &block.atoms[atom_ix];
        let mut pos_terms = Vec::with_capacity(terms.len());
        let mut key_positions = Vec::new();
        let mut key_srcs = Vec::new();
        let mut newly: Vec<usize> = Vec::new();
        for (pos, t) in terms.iter().enumerate() {
            match t {
                QTerm::Const(c) => {
                    pos_terms.push(PosTerm::Const(*c));
                    key_positions.push(pos);
                    key_srcs.push(Src::Const(*c));
                }
                QTerm::Var(v) => {
                    let s = slot_of[v];
                    if bound[s] {
                        pos_terms.push(PosTerm::Bound(s));
                        key_positions.push(pos);
                        key_srcs.push(Src::Slot(s));
                    } else {
                        // First occurrence binds; a repeat within the same
                        // atom re-checks against the fresh binding at eval
                        // time (it is not bound *before* the step, so it
                        // cannot be part of the probe key).
                        pos_terms.push(PosTerm::Free(s));
                        if !newly.contains(&s) {
                            newly.push(s);
                        }
                    }
                }
            }
        }
        for &s in &newly {
            bound[s] = true;
            first_bound_at[s] = Some(six);
        }
        if !is_prefix(&key_positions) {
            key_srcs.clear();
        }
        steps.push(step(Access::Join {
            rel: *rel,
            terms: pos_terms,
            prefix_key: key_srcs,
        }));
    }
    // Every variable still unbound ranges over the active domain.
    for (v, &s) in &slot_of {
        if !bound[s] {
            debug_assert!(!atom_vars.contains(v));
            first_bound_at[s] = Some(steps.len());
            steps.push(step(Access::Adom(s)));
        }
    }

    // Hoist each equality and filter to the earliest step after which its
    // slots are bound; those over constants and parameters only run once
    // per evaluation, before any step.
    let ready =
        |slots: &mut dyn Iterator<Item = usize>| slots.map(|s| first_bound_at[s]).max().flatten();
    let mut pre_checks = Vec::new();
    for (t1, t2) in &block.equalities {
        let src = |t: &QTerm| match t {
            QTerm::Const(c) => Src::Const(*c),
            QTerm::Var(v) => Src::Slot(slot_of[v]),
        };
        let (a, b) = (src(t1), src(t2));
        match ready(&mut [a, b].into_iter().filter_map(Src::slot)) {
            None => pre_checks.push(EqCheck { a, b }),
            Some(six) => steps[six].eq_checks.push(EqCheck { a, b }),
        }
    }
    let mut pre_filters = Vec::new();
    for f in &block.filters {
        let cond = Cond::compile(f, &slot_of);
        let mut slots = Vec::new();
        cond.slots(&mut slots);
        match ready(&mut slots.into_iter()) {
            None => pre_filters.push(cond),
            Some(six) => steps[six].filters.push(cond),
        }
    }

    // Dead-variable projection: a step none of whose fresh slots is read by
    // a later step, a later check, or the head is purely existential.
    let out_slots: BTreeSet<usize> = out_vars.iter().map(|(_, s)| *s).collect();
    for six in 0..steps.len() {
        let newly: BTreeSet<usize> = (0..nslots)
            .filter(|&s| first_bound_at[s] == Some(six))
            .collect();
        let used_later = steps[six + 1..].iter().any(|later| {
            let mut read = Vec::new();
            if let Access::Join { terms, .. } = &later.access {
                read.extend(terms.iter().filter_map(|t| match t {
                    PosTerm::Bound(s) | PosTerm::Free(s) => Some(*s),
                    PosTerm::Const(_) => None,
                }));
            }
            for eq in &later.eq_checks {
                read.extend([eq.a, eq.b].into_iter().filter_map(Src::slot));
            }
            for cond in &later.filters {
                cond.slots(&mut read);
            }
            read.iter().any(|s| newly.contains(s))
        });
        steps[six].existential = !used_later && newly.is_disjoint(&out_slots);
    }

    Branch {
        nslots,
        param_slots,
        out_vars,
        pre_checks,
        pre_filters,
        steps,
    }
}

impl Branch {
    /// Does a step of the branch enumerate `ADOM(I)`?
    fn has_adom_step(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.access, Access::Adom(_)))
    }

    /// Every filter of the branch, pre-filters first.
    fn filters(&self) -> impl Iterator<Item = &Cond> {
        self.pre_filters
            .iter()
            .chain(self.steps.iter().flat_map(|s| &s.filters))
    }

    /// Run the branch, handing the register file of every produced row to
    /// `sink`; returns `true` as soon as `sink` does. The sink is a generic
    /// parameter, so each caller gets its own monomorphised join loop.
    fn run<S: Source, F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        cx: &Cx<'_, S>,
        seed: &impl Seed,
        sink: &mut F,
    ) -> bool {
        let mut regs: Vec<Option<Value>> = vec![None; self.nslots];
        for (v, s) in &self.param_slots {
            let val = seed.value(v).unwrap_or_else(|| {
                panic!("compiled plan evaluated without a binding for parameter {v}")
            });
            regs[*s] = Some(val);
        }
        if !self.pre_checks.iter().all(|eq| eq.holds(&regs))
            || !self.pre_filters.iter().all(|c| c.holds(cx, &regs))
        {
            return false;
        }
        self.dfs(0, &mut regs, cx, sink)
    }

    /// [`Branch::run`] of a parameterless copy compiled delta-first: the
    /// first step reads `delta` alone, every later one `base ∪ delta`.
    fn run_seeded<F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        cx: &Cx<'_, Union<'_>>,
        sink: &mut F,
    ) -> bool {
        let mut regs: Vec<Option<Value>> = vec![None; self.nslots];
        if !self.pre_checks.iter().all(|eq| eq.holds(&regs))
            || !self.pre_filters.iter().all(|c| c.holds(cx, &regs))
        {
            return false;
        }
        let first = &self.steps[0];
        let Access::Join {
            rel, prefix_key, ..
        } = &first.access
        else {
            unreachable!("a delta-first copy joins an atom first");
        };
        // Nothing is bound yet, so the key holds the leading constants.
        let key: Vec<Value> = prefix_key.iter().map(|s| s.value(&regs)).collect();
        let seeds = cx.src.delta.tuples_with_prefix(*rel, &key);
        self.extend(first, 0, seeds, &mut regs, cx, sink)
    }

    /// The output row held by a complete register file.
    fn row(&self, regs: &[Option<Value>]) -> Assignment {
        self.out_vars
            .iter()
            .map(|(v, s)| {
                (
                    v.clone(),
                    regs[*s].expect("head slot bound after all steps"),
                )
            })
            .collect()
    }

    fn dfs<S: Source, F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        depth: usize,
        regs: &mut Vec<Option<Value>>,
        cx: &Cx<'_, S>,
        sink: &mut F,
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return sink(regs);
        };
        match &step.access {
            // Candidate tuples: a range of the sorted tuples when the bound
            // positions are a prefix, else a scan in instance iteration
            // order. The range is a slice of that order, so both sources
            // enumerate the same matching tuples in the same sequence.
            Access::Join {
                rel, prefix_key, ..
            } if !prefix_key.is_empty() => {
                cx.src.count(|s| &s.index_probes);
                let key: Vec<Value> = prefix_key.iter().map(|s| s.value(regs)).collect();
                let range = cx.src.prefix(*rel, &key);
                self.extend(step, depth, range, regs, cx, sink)
            }
            Access::Join { rel, .. } => {
                cx.src.count(|s| &s.relation_scans);
                self.extend(step, depth, cx.src.scan(*rel), regs, cx, sink)
            }
            Access::Adom(slot) => {
                cx.src.count(|s| &s.adom_steps);
                for &v in cx.adom() {
                    regs[*slot] = Some(v);
                    if !step.passes(cx, regs) {
                        continue;
                    }
                    if self.dfs(depth + 1, regs, cx, sink) {
                        regs[*slot] = None;
                        return true;
                    }
                    if step.existential {
                        break;
                    }
                }
                regs[*slot] = None;
                false
            }
        }
    }

    fn extend<'t, S: Source, F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        step: &Step,
        depth: usize,
        tuples: impl Iterator<Item = &'t Tuple>,
        regs: &mut Vec<Option<Value>>,
        cx: &Cx<'_, S>,
        sink: &mut F,
    ) -> bool {
        let Access::Join { terms, .. } = &step.access else {
            unreachable!("only join steps read tuples");
        };
        let mut written: Vec<usize> = Vec::new();
        for tuple in tuples {
            let vals = tuple.values();
            if vals.len() != terms.len() {
                continue; // cannot match an atom of different arity
            }
            written.clear();
            let mut ok = true;
            for (pos, pt) in terms.iter().enumerate() {
                match pt {
                    PosTerm::Const(c) => {
                        if vals[pos] != *c {
                            ok = false;
                            break;
                        }
                    }
                    PosTerm::Bound(s) => {
                        if regs[*s] != Some(vals[pos]) {
                            ok = false;
                            break;
                        }
                    }
                    PosTerm::Free(s) => match regs[*s] {
                        Some(b) => {
                            if b != vals[pos] {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            regs[*s] = Some(vals[pos]);
                            written.push(*s);
                        }
                    },
                }
            }
            if ok && !step.passes(cx, regs) {
                ok = false;
            }
            if ok {
                let found = self.dfs(depth + 1, regs, cx, sink);
                for &s in &written {
                    regs[s] = None;
                }
                if found {
                    return true;
                }
                if step.existential {
                    // Nothing bound here is read again: every further
                    // candidate reaches the same sub-search, producing only
                    // duplicate rows. One passing tuple is enough.
                    return false;
                }
            } else {
                for &s in &written {
                    regs[s] = None;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::answers;
    use crate::parser::parse_formula;
    use crate::ucq::ConjunctiveQuery;
    use dcds_reldata::{ConstantPool, Schema, Tuple};

    fn setup() -> (ConstantPool, Schema, RelId, RelId, Instance) {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let c = pool.intern("c");
        let inst = Instance::from_facts([
            (p, Tuple::from([a])),
            (p, Tuple::from([b])),
            (q, Tuple::from([a, b])),
            (q, Tuple::from([b, c])),
        ]);
        (pool, schema, p, q, inst)
    }

    fn compile(ucq: &Ucq, params: &BTreeSet<Var>) -> CompiledPlan {
        CompiledPlan::compile_ucq(ucq, &Formula::True, params)
    }

    /// The plan agrees with the active-domain answers; returns those
    /// answers.
    fn check_agreement(ucq: &Ucq, inst: &Instance) -> BTreeSet<Assignment> {
        let plan = compile(ucq, &BTreeSet::new());
        let reference = answers(&ucq.to_formula(), inst);
        assert_eq!(
            plan.eval(&EvalCtx::scan(inst), &Assignment::new()),
            reference
        );
        assert_eq!(
            plan.holds(&EvalCtx::scan(inst), &Assignment::new()),
            !reference.is_empty()
        );
        reference
    }

    #[test]
    fn agrees_on_joins_constants_and_repeats() {
        let (mut pool, mut schema, _, _, inst) = setup();
        let mut ucq = |src: &str| {
            let f = crate::parser::parse_formula(src, &mut schema, &mut pool).unwrap();
            Ucq::from_formula(&f).unwrap()
        };
        let unary = [
            ("P(X)", &["a", "b"][..]),
            // Only X = a reaches a Y in P.
            ("exists X . P(X) & Q(X, Y) & P(Y)", &["b"]),
            // A repeated variable forces equality.
            ("Q(X, X)", &[]),
            ("Q(a, Y)", &["b"]),
            // P gives {a, b}, Q's second column {b, c}.
            ("P(X) | exists Y . Q(Y, X)", &["a", "b", "c"]),
        ]
        .map(|(src, names)| (src, ucq(src), names));
        let boolean = [
            ucq("exists X, Y . Q(X, Y)"),
            Ucq::single(ConjunctiveQuery::truth()),
        ];
        for (src, q, names) in unary {
            let got: Vec<Value> = check_agreement(&q, &inst)
                .iter()
                .flat_map(|row| row.values().copied())
                .collect();
            let want: Vec<Value> = names.iter().map(|n| pool.get(n).unwrap()).collect();
            assert_eq!(got, want, "{src}");
        }
        // Projection leaves one empty row, on any instance for `true`.
        for (q, inst) in boolean.iter().zip([&inst, &Instance::new()]) {
            assert_eq!(check_agreement(q, inst), [Assignment::new()].into());
        }
    }

    #[test]
    fn equalities_are_hoisted_and_agree() {
        let (pool, _, p, q, inst) = setup();
        let b = pool.get("b").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("X")]),
            ],
            equalities: vec![(QTerm::var("Y"), QTerm::Const(b))],
        };
        let plan = compile(&Ucq::single(cq.clone()), &BTreeSet::new());
        // The equality runs at the step that binds Y, not at the end.
        let hoisted: usize = plan.branches[0]
            .steps
            .iter()
            .map(|s| s.eq_checks.len())
            .sum();
        assert_eq!(hoisted + plan.branches[0].pre_checks.len(), 1);
        // Q(X, b) with X in P: only X = a.
        let got = check_agreement(&Ucq::single(cq), &inst);
        let a = pool.get("a").unwrap();
        assert_eq!(got, [[(Var::new("X"), a)].into()].into());
    }

    #[test]
    fn params_match_substitution_semantics() {
        let (pool, _, _, q, inst) = setup();
        let a = pool.get("a").unwrap();
        // q+ = Q(p, Y) with parameter p; σ = {p ↦ a} must give the same
        // rows as substituting p := a and evaluating.
        let param = Var::new("p");
        let cq = ConjunctiveQuery {
            head: vec![param.clone(), Var::new("Y")],
            atoms: vec![(q, vec![QTerm::Var(param.clone()), QTerm::var("Y")])],
            equalities: vec![],
        };
        let params: BTreeSet<Var> = [param.clone()].into_iter().collect();
        let plan = compile(&Ucq::single(cq.clone()), &params);
        let sigma: Assignment = [(param, a)].into_iter().collect();
        let rows = plan.eval(&EvalCtx::scan(&inst), &sigma);
        let substituted = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![(q, vec![QTerm::Const(a), QTerm::var("Y")])],
            equalities: vec![],
        };
        assert_eq!(rows, answers(&Ucq::single(substituted).to_formula(), &inst));
    }

    #[test]
    fn existential_steps_are_detected() {
        let (_, _, p, q, _) = setup();
        // head X: Q(X, Y), P(Z) — Z is dead, Y is projected away but the
        // step binding (X, Y) feeds the head via X.
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("Z")]),
            ],
            equalities: vec![],
        };
        let plan = compile(&Ucq::single(cq), &BTreeSet::new());
        let steps = &plan.branches[0].steps;
        let on = |rel: RelId| {
            steps
                .iter()
                .find(|s| matches!(s.access, Access::Join { rel: r, .. } if r == rel))
                .unwrap()
        };
        assert!(on(p).existential);
        assert!(!on(q).existential);
    }

    #[test]
    fn unbound_head_and_equality_vars_take_adom_steps() {
        let (mut pool, mut schema, p, _, inst) = setup();
        // A head variable in no atom ranges over ADOM(I); an equality
        // variable in no atom is existential, over ADOM(I) too.
        let unbound_head = ConjunctiveQuery {
            head: vec![Var::new("Z")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        let unbound_eq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![(QTerm::var("W"), QTerm::var("X"))],
        };
        for (cq, reading) in [
            (unbound_head, "(exists X . P(X)) & Z = Z"),
            (unbound_eq, "exists X, W . P(X) & W = X"),
        ] {
            let ucq = Ucq::single(cq);
            let plan = compile(&ucq, &BTreeSet::new());
            assert!(plan.has_adom_step(), "{reading}");
            let stats = PlanStats::default();
            let rows = plan.eval(&EvalCtx::scan(&inst).stats(&stats), &Assignment::new());
            let f = parse_formula(reading, &mut schema, &mut pool).unwrap();
            assert_eq!(rows, answers(&f, &inst), "{reading}");
            assert!(stats.adom_steps.load(Ordering::Relaxed) > 0, "{reading}");
        }
    }

    #[test]
    fn stats_count_probes_and_scans() {
        let (_, _, p, q, inst) = setup();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![
                (p, vec![QTerm::var("X")]),
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        let ucq = Ucq::single(cq);
        let plan = compile(&ucq, &BTreeSet::new());
        // The unkeyed P step scans once, and the Q step, keyed on its first
        // column, is a sorted-prefix probe for each of P's two tuples.
        let stats = PlanStats::default();
        plan.eval(&EvalCtx::scan(&inst).stats(&stats), &Assignment::new());
        assert_eq!(
            stats.snapshot(),
            [
                ("plan_evals", 1),
                ("index_probes", 2),
                ("relation_scans", 1),
                ("adom_steps", 0),
            ]
        );

        // A step keyed on a non-prefix column (Q's second) scans: once
        // for P, then once per P tuple.
        let suffix = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![
                (p, vec![QTerm::var("Y")]),
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        let plan = compile(&Ucq::single(suffix), &BTreeSet::new());
        let suffix_stats = PlanStats::default();
        plan.eval(
            &EvalCtx::scan(&inst).stats(&suffix_stats),
            &Assignment::new(),
        );
        let snap: std::collections::BTreeMap<_, _> = suffix_stats.snapshot().into_iter().collect();
        assert_eq!((snap["index_probes"], snap["relation_scans"]), (0, 3));
    }

    #[test]
    fn pre_checks_filter_before_joining() {
        let (pool, _, p, _, inst) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![(QTerm::Const(a), QTerm::Const(b))],
        };
        let plan = compile(&Ucq::single(cq.clone()), &BTreeSet::new());
        assert_eq!(plan.branches[0].pre_checks.len(), 1);
        assert!(plan
            .eval(&EvalCtx::scan(&inst), &Assignment::new())
            .is_empty());
        check_agreement(&Ucq::single(cq), &inst);
    }

    #[test]
    fn negation_quantifiers_and_disjunctions_compile() {
        let (mut pool, mut schema, _, _, inst) = setup();
        for (src, adom) in [
            // Negated atoms and anti-joins over atom-bound variables.
            ("P(X) & !Q(X, X)", false),
            ("P(X) & forall Y . Q(X, Y) -> P(Y)", false),
            ("P(X) & !(exists Y . Q(Y, X))", false),
            // A variable no atom binds.
            ("!P(X)", true),
            ("forall X . P(X)", true),
            // Disjuncts over different variables, and a bound disjunction.
            ("P(X) | Q(Y, Y)", true),
            ("Q(X, Y) & (P(X) | P(Y))", false),
            // Vacuous and shadowing quantifiers, constants outside ADOM.
            ("exists X . P(a)", true),
            ("P(X) & exists X . Q(X, X)", false),
            ("Q(X, d) | X = d", true),
        ] {
            let f = parse_formula(src, &mut schema, &mut pool).unwrap();
            let plan = CompiledPlan::compile(&f, &BTreeSet::new());
            assert_eq!(plan.has_adom_step(), adom, "{src}");
            for inst in [&inst, &Instance::new()] {
                assert_eq!(
                    plan.eval(&EvalCtx::scan(inst), &Assignment::new()),
                    answers(&f, inst),
                    "{src}"
                );
            }
        }
    }
}

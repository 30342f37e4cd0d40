//! Compiled evaluation plans for (unions of) conjunctive queries.
//!
//! The positive parts `q+` of effect specifications are evaluated at
//! *every* transition of the concrete and abstract systems, against a query
//! that never changes — so we compile each (U)CQ once into a
//! [`CompiledPlan`] instead of re-deriving a join order, scanning whole
//! relations and cloning `BTreeMap` assignments per call, as a nested-loop
//! join would:
//!
//! * variables are numbered **slots** and partial assignments become a flat
//!   `Vec<Option<Value>>` register file (no tree maps, no per-extension
//!   clones — bindings are written and undone in place during backtracking);
//! * the greedy join order is fixed at **compile time**, with action
//!   parameters treated as pre-bound inputs;
//! * every atom position is classified up front as constant, bound, or free,
//!   yielding the positions a join step has bound before it runs. A step
//!   bound on a *prefix* of its atom's columns is a **sorted-prefix
//!   probe**: a range over the relation's sorted tuples
//!   ([`Instance::tuples_with_prefix`]), a logarithmic seek plus the
//!   matches. Every other step — unbound, or bound only on non-prefix
//!   columns — scans the relation and filters;
//! * equality side-conditions are **hoisted** to the earliest join step at
//!   which both sides are bound (input-only equalities are checked once per
//!   evaluation, before any join);
//! * steps whose newly-bound slots are never read again (not by later steps,
//!   later equalities, or the head) are *existential*: the first tuple that
//!   passes suffices and the remaining candidates are skipped — the
//!   dead-variable projection that makes boolean sub-joins cheap.
//!
//! Compilation is gated on range restriction: every head and equality
//! variable must occur in an atom or be a declared parameter, which is
//! exactly the condition under which the natural join semantics below and
//! the active-domain [`crate::eval::answers`] coincide (the unit tests and
//! `tests/plan_differential.rs` compare the two). Queries outside the
//! fragment are rejected at compile time ([`PlanError`]); validated effect
//! queries are always inside it, and rule conditions or formula leaves
//! outside it are answered by the reference evaluator in [`crate::eval`].
//! Evaluation visits candidate tuples in instance iteration order (a
//! prefix range is a slice of that order), so outputs are bit-identical
//! whether a step probes or scans, and at every thread count.

use crate::ast::{Assignment, QTerm, Var};
use crate::ucq::{ConjunctiveQuery, Ucq};
use dcds_reldata::{Instance, RelId, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a query cannot be compiled (and the caller should use the reference
/// evaluator instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A head variable occurs in no atom and is not a parameter.
    UnboundHeadVar(String),
    /// An equality variable occurs in no atom and is not a parameter.
    UnboundEqualityVar(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnboundHeadVar(v) => {
                write!(
                    f,
                    "head variable {v} occurs in no atom and is not a parameter"
                )
            }
            PlanError::UnboundEqualityVar(v) => {
                write!(
                    f,
                    "equality variable {v} occurs in no atom and is not a parameter"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

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
    /// Rule conditions outside the compilable fragment, answered by the
    /// reference evaluator instead of a plan.
    pub fallback_evals: AtomicU64,
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
            (
                "fallback_evals",
                self.fallback_evals.load(Ordering::Relaxed),
            ),
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

/// Where the join steps of an evaluation read their candidate tuples: one
/// instance ([`EvalCtx`]), or a base and a delta read as their union
/// ([`DeltaPlan`]). Each evaluator gets its own monomorphised join loop.
trait Source {
    /// Count one event into the attached [`PlanStats`], if any.
    fn count(&self, f: impl FnOnce(&PlanStats) -> &AtomicU64);
    /// Every tuple of `rel`.
    fn scan(&self, rel: RelId) -> impl Iterator<Item = &Tuple>;
    /// The tuples of `rel` whose leading components equal `key`.
    fn prefix<'s>(&'s self, rel: RelId, key: &'s [Value]) -> impl Iterator<Item = &'s Tuple>;
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

/// One join step: extend the register file through the tuples of a relation.
#[derive(Debug, Clone)]
struct Step {
    rel: RelId,
    terms: Vec<PosTerm>,
    /// How to compute the probe key when the positions bound before the
    /// step runs are `0..k` for some `k ≥ 1`: the matching tuples are then
    /// one range of the relation's sorted tuples. Empty when the step
    /// scans.
    prefix_key: Vec<Src>,
    /// Equalities hoisted to this step (both sides bound once it binds).
    eq_checks: Vec<EqCheck>,
    /// No slot bound here is read later: the first passing tuple suffices.
    existential: bool,
}

/// A compiled conjunctive query.
#[derive(Debug, Clone)]
struct CompiledCq {
    nslots: usize,
    /// Parameter variables and their slots, seeded from the input assignment.
    param_slots: Vec<(Var, usize)>,
    /// Output variables (head minus parameters) and their slots.
    out_vars: Vec<(Var, usize)>,
    /// Equalities over constants and parameters only: checked once per
    /// evaluation, before any join step.
    pre_checks: Vec<EqCheck>,
    steps: Vec<Step>,
}

/// A compiled union of conjunctive queries. Evaluation returns assignments
/// over the head variables that are not parameters — exactly the answers
/// of the query with the parameters substituted as constants.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    cqs: Vec<CompiledCq>,
}

impl CompiledPlan {
    /// Compile a UCQ, treating `params` as pre-bound input variables.
    ///
    /// Fails iff some disjunct is not range-restricted modulo `params`
    /// (a head or equality variable in no atom); callers should use the
    /// reference evaluator in that case.
    pub fn compile(ucq: &Ucq, params: &BTreeSet<Var>) -> Result<CompiledPlan, PlanError> {
        let cqs = ucq
            .disjuncts
            .iter()
            .map(|cq| compile_cq(cq, params, None))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledPlan { cqs })
    }

    /// Evaluate, seeding the parameter slots from `seed`. Returns the set
    /// of assignments over the non-parameter head variables: the answers of
    /// the parameter-substituted query.
    ///
    /// Panics if `seed` misses a parameter that occurs in the query.
    pub fn eval(&self, ctx: &EvalCtx<'_>, seed: &Assignment) -> BTreeSet<Assignment> {
        ctx.count(|s| &s.plan_evals);
        let mut out = BTreeSet::new();
        for cq in &self.cqs {
            cq.run(ctx, seed, &mut |regs| {
                out.insert(cq.row(regs));
                false
            });
        }
        out
    }

    /// Boolean evaluation: is the answer set non-empty? Stops at the first
    /// produced row.
    pub fn holds(&self, ctx: &EvalCtx<'_>, seed: &Assignment) -> bool {
        ctx.count(|s| &s.plan_evals);
        self.cqs.iter().any(|cq| cq.run(ctx, seed, &mut |_| true))
    }

    /// Row-level evaluation without materialising rows: calls `sink` with
    /// the disjunct index and the register file of each produced row, and
    /// stops as soon as `sink` returns `true` (the return value reports
    /// whether it did). Rows of one disjunct may repeat; the sink reads
    /// output variables through [`CompiledPlan::out_slot`]. Unlike
    /// [`CompiledPlan::eval`] and [`CompiledPlan::holds`], it does not
    /// count a plan evaluation (join steps are still counted).
    pub fn any_row(
        &self,
        ctx: &EvalCtx<'_>,
        seed: &Assignment,
        mut sink: impl FnMut(usize, &[Option<Value>]) -> bool,
    ) -> bool {
        self.cqs
            .iter()
            .enumerate()
            .any(|(i, cq)| cq.run(ctx, seed, &mut |regs| sink(i, regs)))
    }

    /// Number of disjuncts (compiled conjunctive queries).
    pub fn disjuncts(&self) -> usize {
        self.cqs.len()
    }

    /// The register slot holding output variable `v` in the rows of
    /// disjunct `disjunct`, or `None` if `v` is not one of its outputs.
    pub fn out_slot(&self, disjunct: usize, v: &Var) -> Option<usize> {
        self.cqs[disjunct]
            .out_vars
            .iter()
            .find(|(w, _)| w == v)
            .map(|(_, s)| *s)
    }
}

/// A parameterless UCQ compiled for evaluation over `base ∪ Δ` that only
/// looks for the rows using a `Δ` tuple (the delta rule of semi-naive
/// evaluation): every disjunct is compiled once per atom with that atom
/// joined first and matched against `Δ` alone, and every later step reads
/// `base` and `Δ` in turn, without building their union.
///
/// A row of `base ∪ Δ` whose atoms match some `Δ` tuple is produced by the
/// copy that joins that atom first; a row matching base tuples only is
/// never produced, unless its tuples are also in `Δ`. Slots are numbered
/// by variable, not by join order, so rows use the same register slots as
/// the [`CompiledPlan`] of the same UCQ ([`CompiledPlan::out_slot`]).
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// `(disjunct, copy)`: the disjunct compiled with one of its atoms first.
    seeded: Vec<(usize, CompiledCq)>,
}

impl DeltaPlan {
    /// Compile every disjunct once per atom. Fails exactly when
    /// [`CompiledPlan::compile`] of the UCQ without parameters does.
    pub fn compile(ucq: &Ucq) -> Result<DeltaPlan, PlanError> {
        let no_params = BTreeSet::new();
        let mut seeded = Vec::new();
        for (i, cq) in ucq.disjuncts.iter().enumerate() {
            for first in 0..cq.atoms.len() {
                let copy = compile_cq(cq, &no_params, Some(first))?;
                debug_assert_eq!(copy.out_vars, compile_cq(cq, &no_params, None)?.out_vars);
                seeded.push((i, copy));
            }
        }
        Ok(DeltaPlan { seeded })
    }

    /// [`CompiledPlan::any_row`] restricted to the rows of `base ∪ delta`
    /// that match some atom to a `delta` tuple. Counts nothing.
    pub fn any_row(
        &self,
        base: &Instance,
        delta: &Instance,
        mut sink: impl FnMut(usize, &[Option<Value>]) -> bool,
    ) -> bool {
        let union = Union { base, delta };
        self.seeded
            .iter()
            .any(|(i, cq)| cq.run_seeded(&union, &mut |regs| sink(*i, regs)))
    }
}

/// Are `positions` exactly `0..k` for some `k ≥ 1`?
fn is_prefix(positions: &[usize]) -> bool {
    !positions.is_empty() && positions.iter().enumerate().all(|(i, &p)| i == p)
}

fn src_of(t: &QTerm, slot_of: &BTreeMap<Var, usize>) -> Option<Src> {
    match t {
        QTerm::Const(c) => Some(Src::Const(*c)),
        QTerm::Var(v) => slot_of.get(v).map(|&s| Src::Slot(s)),
    }
}

/// Compile one conjunctive query; `first` forces the atom joined first
/// (the delta-first copies of a [`DeltaPlan`]), the rest of the order is
/// greedy as always.
fn compile_cq(
    cq: &ConjunctiveQuery,
    params: &BTreeSet<Var>,
    first: Option<usize>,
) -> Result<CompiledCq, PlanError> {
    // Slots: every atom variable, plus parameters referenced by equalities
    // (parameters referenced only by the head need no slot — the caller's
    // seed assignment supplies their values directly).
    let mut slot_vars: BTreeSet<Var> = cq.atom_vars();
    for (t1, t2) in &cq.equalities {
        for t in [t1, t2] {
            if let QTerm::Var(v) = t {
                if params.contains(v) {
                    slot_vars.insert(v.clone());
                }
            }
        }
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
        .filter(|(v, _)| params.contains(v))
        .map(|(v, &s)| (v.clone(), s))
        .collect();

    // Range restriction modulo parameters.
    let avars = cq.atom_vars();
    let mut out_vars: Vec<(Var, usize)> = Vec::new();
    let mut seen_head: BTreeSet<&Var> = BTreeSet::new();
    for v in &cq.head {
        if params.contains(v) {
            continue; // supplied by the seed, as after parameter substitution
        }
        if !avars.contains(v) {
            return Err(PlanError::UnboundHeadVar(v.name().to_owned()));
        }
        if seen_head.insert(v) {
            out_vars.push((v.clone(), slot_of[v]));
        }
    }
    for (t1, t2) in &cq.equalities {
        for t in [t1, t2] {
            if let QTerm::Var(v) = t {
                if !avars.contains(v) && !params.contains(v) {
                    return Err(PlanError::UnboundEqualityVar(v.name().to_owned()));
                }
            }
        }
    }

    // Join order fixed at compile time: `first` if given, then greedily
    // the atom sharing the most variables with those already bound (ties
    // by position), with parameter slots counting as bound from the start.
    // (The answer set is order-independent; the order only shapes how much
    // gets pruned early.)
    let order = {
        let mut remaining: Vec<usize> = (0..cq.atoms.len()).collect();
        let mut bound_vars: BTreeSet<Var> = param_slots.iter().map(|(v, _)| v.clone()).collect();
        let mut order = Vec::with_capacity(cq.atoms.len());
        while !remaining.is_empty() {
            let forced = first.filter(|_| order.is_empty());
            let (pos, &best) = remaining
                .iter()
                .enumerate()
                .filter(|(_, &ix)| forced.is_none_or(|f| f == ix))
                .max_by_key(|(_, &ix)| {
                    let terms = &cq.atoms[ix].1;
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
            bound_vars.extend(cq.atoms[best].1.iter().filter_map(|t| t.as_var().cloned()));
            remaining.remove(pos);
        }
        order
    };

    // Build the steps, tracking which slot each step binds first.
    let mut bound: Vec<bool> = vec![false; nslots];
    for (_, s) in &param_slots {
        bound[*s] = true;
    }
    let mut first_bound_at: Vec<Option<usize>> = vec![None; nslots]; // None = param
    let mut steps: Vec<Step> = Vec::with_capacity(order.len());
    for (six, &atom_ix) in order.iter().enumerate() {
        let (rel, terms) = &cq.atoms[atom_ix];
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
        steps.push(Step {
            rel: *rel,
            terms: pos_terms,
            prefix_key: key_srcs,
            eq_checks: Vec::new(),
            existential: false,
        });
    }

    // Hoist each equality to the earliest step after which both sides are
    // bound; equalities over constants and parameters only become
    // pre-checks, run once per evaluation.
    let mut pre_checks = Vec::new();
    for (t1, t2) in &cq.equalities {
        let a = src_of(t1, &slot_of).expect("equality var has a slot (validated above)");
        let b = src_of(t2, &slot_of).expect("equality var has a slot (validated above)");
        let ready = |s: Src| match s {
            Src::Const(_) => None,
            Src::Slot(slot) => first_bound_at[slot],
        };
        match ready(a).max(ready(b)) {
            None => pre_checks.push(EqCheck { a, b }),
            Some(six) => steps[six].eq_checks.push(EqCheck { a, b }),
        }
    }

    // Dead-variable projection: a step none of whose fresh slots is read by
    // a later step, a later equality, or the head is purely existential.
    let out_slots: BTreeSet<usize> = out_vars.iter().map(|(_, s)| *s).collect();
    for six in 0..steps.len() {
        let newly: BTreeSet<usize> = (0..nslots)
            .filter(|&s| first_bound_at[s] == Some(six))
            .collect();
        let used_later = steps[six + 1..].iter().any(|later| {
            later.terms.iter().any(|t| match t {
                PosTerm::Bound(s) | PosTerm::Free(s) => newly.contains(s),
                PosTerm::Const(_) => false,
            }) || later.eq_checks.iter().any(|eq| {
                [eq.a, eq.b]
                    .into_iter()
                    .any(|src| matches!(src, Src::Slot(s) if newly.contains(&s)))
            })
        });
        steps[six].existential = !used_later && newly.is_disjoint(&out_slots);
    }

    Ok(CompiledCq {
        nslots,
        param_slots,
        out_vars,
        pre_checks,
        steps,
    })
}

impl CompiledCq {
    /// Run the plan, handing the register file of every produced row to
    /// `sink`; returns `true` as soon as `sink` does. The sink is a generic
    /// parameter, so each caller gets its own monomorphised join loop.
    fn run<F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        ctx: &EvalCtx<'_>,
        seed: &Assignment,
        sink: &mut F,
    ) -> bool {
        let mut regs: Vec<Option<Value>> = vec![None; self.nslots];
        for (v, s) in &self.param_slots {
            let val = seed.get(v).unwrap_or_else(|| {
                panic!("compiled plan evaluated without a binding for parameter {v}")
            });
            regs[*s] = Some(*val);
        }
        if self.pre_checks.iter().any(|eq| !eq.holds(&regs)) {
            return false;
        }
        self.dfs(0, &mut regs, ctx, sink)
    }

    /// [`CompiledCq::run`] of a parameterless copy compiled delta-first:
    /// the first step reads `delta` alone, every later one `base ∪ delta`.
    fn run_seeded<F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        union: &Union<'_>,
        sink: &mut F,
    ) -> bool {
        let mut regs: Vec<Option<Value>> = vec![None; self.nslots];
        if self.pre_checks.iter().any(|eq| !eq.holds(&regs)) {
            return false;
        }
        let first = &self.steps[0];
        // Nothing is bound yet, so the key holds the leading constants.
        let key: Vec<Value> = first.prefix_key.iter().map(|s| s.value(&regs)).collect();
        let seeds = union.delta.tuples_with_prefix(first.rel, &key);
        self.extend(first, 0, seeds, &mut regs, union, sink)
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
        ctx: &S,
        sink: &mut F,
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return sink(regs);
        };
        // Candidate tuples: a range of the sorted tuples when the bound
        // positions are a prefix, else a scan in instance iteration order.
        // The range is a slice of that order, so both sources enumerate the
        // same matching tuples in the same sequence.
        if !step.prefix_key.is_empty() {
            ctx.count(|s| &s.index_probes);
            let key: Vec<Value> = step.prefix_key.iter().map(|s| s.value(regs)).collect();
            let range = ctx.prefix(step.rel, &key);
            return self.extend(step, depth, range, regs, ctx, sink);
        }
        ctx.count(|s| &s.relation_scans);
        self.extend(step, depth, ctx.scan(step.rel), regs, ctx, sink)
    }

    fn extend<'t, S: Source, F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        step: &Step,
        depth: usize,
        tuples: impl Iterator<Item = &'t Tuple>,
        regs: &mut Vec<Option<Value>>,
        ctx: &S,
        sink: &mut F,
    ) -> bool {
        let mut written: Vec<usize> = Vec::new();
        for tuple in tuples {
            let vals = tuple.values();
            if vals.len() != step.terms.len() {
                continue; // cannot match an atom of different arity
            }
            written.clear();
            let mut ok = true;
            for (pos, pt) in step.terms.iter().enumerate() {
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
            if ok && step.eq_checks.iter().any(|eq| !eq.holds(regs)) {
                ok = false;
            }
            if ok {
                let found = self.dfs(depth + 1, regs, ctx, sink);
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

    /// The plan agrees with the active-domain answers; returns those
    /// answers.
    fn check_agreement(ucq: &Ucq, inst: &Instance) -> BTreeSet<Assignment> {
        let plan = CompiledPlan::compile(ucq, &BTreeSet::new()).unwrap();
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
        let plan = CompiledPlan::compile(&Ucq::single(cq.clone()), &BTreeSet::new()).unwrap();
        // The equality runs at the step that binds Y, not at the end.
        let hoisted: usize = plan.cqs[0].steps.iter().map(|s| s.eq_checks.len()).sum();
        assert_eq!(hoisted + plan.cqs[0].pre_checks.len(), 1);
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
        let plan = CompiledPlan::compile(&Ucq::single(cq.clone()), &params).unwrap();
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
        let plan = CompiledPlan::compile(&Ucq::single(cq), &BTreeSet::new()).unwrap();
        let steps = &plan.cqs[0].steps;
        let p_step = steps.iter().find(|s| s.rel == p).unwrap();
        let q_step = steps.iter().find(|s| s.rel == q).unwrap();
        assert!(p_step.existential);
        assert!(!q_step.existential);
    }

    #[test]
    fn rejects_unbound_head_and_equality_vars() {
        let (_, _, p, _, _) = setup();
        let bad_head = ConjunctiveQuery {
            head: vec![Var::new("Z")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        assert!(matches!(
            CompiledPlan::compile(&Ucq::single(bad_head), &BTreeSet::new()),
            Err(PlanError::UnboundHeadVar(_))
        ));
        let bad_eq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![(QTerm::var("W"), QTerm::var("X"))],
        };
        assert!(matches!(
            CompiledPlan::compile(&Ucq::single(bad_eq), &BTreeSet::new()),
            Err(PlanError::UnboundEqualityVar(_))
        ));
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
        let plan = CompiledPlan::compile(&ucq, &BTreeSet::new()).unwrap();
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
                ("fallback_evals", 0),
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
        let plan = CompiledPlan::compile(&Ucq::single(suffix), &BTreeSet::new()).unwrap();
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
        let plan = CompiledPlan::compile(&Ucq::single(cq.clone()), &BTreeSet::new()).unwrap();
        assert_eq!(plan.cqs[0].pre_checks.len(), 1);
        assert!(plan
            .eval(&EvalCtx::scan(&inst), &Assignment::new())
            .is_empty());
        check_agreement(&Ucq::single(cq), &inst);
    }
}

//! Staged µ-calculus model-checking engine: memoized, parallel evaluation
//! of the Figure 1 extension function.
//!
//! The naive evaluator in [`crate::mc`] recomputes every FO query on every
//! state in every Kleene iteration, and walks every quantifier value by
//! value over `ADOM(Θ)`. This engine exploits the facts that make
//! verification over a *fixed* finite abstraction special (Thm 4.4 /
//! `PROP(Φ)`): `ADOM(Θ)` and the state databases never change during a run,
//! and the paper's atomic formulas are whole first-order *queries*, so
//!
//! 1. **quantifier-block fusion** — before anything else, every maximal
//!    block rooted at a quantifier that [`Mu::state_query`] lowers to one
//!    FO query is rewritten into **one** `Mu::Query` leaf: `∃x.φ` becomes
//!    `Query(∃x.φ')` and `∀x.φ` becomes `¬Query(∃x.¬φ')`, where `φ'` is
//!    the lowering (FO twins of the connectives, a `LIVE(x)` conjoined
//!    with a relational atom over `x` dropped, since that atom already
//!    puts `x`'s value in the state's active domain). The rewrite applies
//!    only when the query, compiled with the block's free variables as
//!    parameters, needs no ADOM step ([`CompiledPlan::has_adom_step`]):
//!    the plan alone decides what fuses. Such a query is
//!    domain-independent: every quantified variable takes its values from
//!    the state's facts, hence from `ADOM(Θ)`, so the plan's answer equals
//!    the per-value iteration over `ADOM(Θ)`; an ADOM step would range
//!    over the state's active domain instead of `ADOM(Θ)`. A fused block
//!    costs one plan evaluation per state instead of one per (state,
//!    domain value); blocks outside the fragment keep the per-binding
//!    path below.
//! 2. **query-extension caching over bitsets** — extensions are dense
//!    bitsets over state indices, so `¬ ∧ ∨ →` are word operations, `◇`/`□`
//!    fill a bitset from the successor lists, and a fixpoint converges on a
//!    word compare; the public API converts to `BTreeSet<StateId>` once, at
//!    the end. The extension of any subformula with no free predicate
//!    variables is a pure function of (subformula, values of its free
//!    individual variables). Extensions are cached under that key, so
//!    `Mu::Query` / `Mu::Live` atoms are evaluated once per distinct
//!    binding instead of once per fixpoint iteration, and a hit copies
//!    words. The same cache *hoists closed subformulas out of fixpoint
//!    loops*: after the first iteration every predicate-closed subtree is a
//!    lookup.
//! 3. **parallel extension computation** — the per-state evaluation of an
//!    FO query is embarrassingly parallel; it runs on the deterministic
//!    [`dcds_core::par`] scoped-thread pool. Results come back in state
//!    order, so the output (verdict, extension, counters) is bit-identical
//!    at every thread count.
//!
//! Nothing is built up front that a formula may not use. `ADOM(Θ)` is
//! collected the first time an unfused `∃`/`∀` node needs it, so a formula
//! whose quantifier blocks all fuse never builds it; the per-state active
//! domains behind `LIVE(c)` likewise wait for the first bound `LIVE`.
//! Compiled leaves read each state's database directly: a join step bound
//! on a prefix of its atom's columns (`Q(X)`, `E('t', V)`) is a range over
//! the state's sorted tuples, any other step (`E(X, 'c')`) a filtered scan
//! of the relation.
//!
//! Fixpoints keep the naive early-exit paths (∃ stops at `all`, ∀ stops at
//! `∅`), which never change the computed extension.
//!
//! [`crate::mc::eval`] remains in-tree, unfused, as the differential-testing
//! oracle; `tests/mc_engine_differential.rs` and the unit tests below check
//! agreement on seeded random and hand-written formulas, fusion edge shapes
//! included.

use crate::ast::{Mu, PredVar};
use crate::mc::Valuation;
use crate::stateset::StateSet;
use dcds_core::par::par_map;
use dcds_core::{StateId, Ts};
use dcds_folang::{Assignment, CompiledPlan, EvalCtx, Formula, PlanStats, QTerm, Var};
use dcds_obs::{event, span, Obs};
use dcds_reldata::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Why a formula was rejected before evaluation: model checking is defined
/// for *closed* formulas only, and an open one silently evaluates to a
/// wrong verdict (e.g. a free-variable atom under `Not` becomes "all
/// states").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Free individual (first-order) variables, sorted by name.
    FreeIndividuals(Vec<Var>),
    /// Free predicate (fixpoint) variables, sorted by name.
    FreePredicates(Vec<PredVar>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::FreeIndividuals(vs) => {
                let names: Vec<&str> = vs.iter().map(|v| v.name()).collect();
                write!(
                    f,
                    "formula is not closed: free individual variable{} {} \
                     (quantify, e.g. `exists {} . live({}) & ...`)",
                    if names.len() == 1 { "" } else { "s" },
                    names.join(", "),
                    names[0],
                    names[0],
                )
            }
            CheckError::FreePredicates(zs) => {
                let names: Vec<&str> = zs.iter().map(|z| z.name()).collect();
                write!(
                    f,
                    "formula is not closed: free predicate variable{} {} \
                     (bind with `mu {} . ...` or `nu {} . ...`)",
                    if names.len() == 1 { "" } else { "s" },
                    names.join(", "),
                    names[0],
                    names[0],
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Options for [`check_traced`] / [`eval_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOptions {
    /// Worker threads for per-state query evaluation (values `< 1` are
    /// treated as 1). The output is identical at every thread count.
    pub threads: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions { threads: 1 }
    }
}

/// Observability counters for one model-checking run. All counts are exact
/// and independent of the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McCounters {
    /// Per-state FO query / `LIVE` evaluations actually performed. A fused
    /// quantifier block is one query, so it counts once per state per
    /// distinct binding of its free variables — not once per domain value
    /// its quantifiers range over.
    pub query_state_evals: u64,
    /// Extension requests answered from the query-extension cache.
    pub cache_hits: u64,
    /// Extension requests that missed the cache and were computed.
    pub cache_misses: u64,
    /// Total Kleene iterations across all fixpoint subformulas.
    pub fixpoint_iterations: u64,
    /// States × subformulas visited: each computed subformula extension
    /// contributes the number of states it ranges over.
    pub state_subformula_visits: u64,
}

impl McCounters {
    /// The counters as `(name, value)` pairs — single source of truth for
    /// [`McCounters::to_json`] and [`McCounters::publish`].
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("query_state_evals", self.query_state_evals),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("fixpoint_iterations", self.fixpoint_iterations),
            ("state_subformula_visits", self.state_subformula_visits),
        ]
    }

    /// Serde-free JSON object, e.g. `{"query_state_evals":42,...}` — used
    /// by `dcds check --format json`.
    pub fn to_json(&self) -> String {
        dcds_obs::export::json_counters(&self.entries())
    }

    /// Publish every counter into the observability registry under
    /// `<prefix>.<name>`. Called from serial code only.
    pub fn publish(&self, obs: &Obs, prefix: &str) {
        if !obs.is_enabled() {
            return;
        }
        for (k, v) in self.entries() {
            obs.counter_add(format!("{prefix}.{k}"), v);
        }
    }

    /// Fraction of cacheable extension requests answered from the cache,
    /// in `[0, 1]`; `None` when there were no cacheable requests.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

impl fmt::Display for McCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} query-state evals, cache {} hits / {} misses, {} fixpoint iterations, \
             {} state×subformula visits",
            self.query_state_evals,
            self.cache_hits,
            self.cache_misses,
            self.fixpoint_iterations,
            self.state_subformula_visits,
        )
    }
}

/// Result of a staged model-checking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McRun {
    /// Does the formula hold in the initial state?
    pub holds: bool,
    /// The full extension `(Φ)ᵥ` (states satisfying the formula).
    pub extension: BTreeSet<StateId>,
    /// What the run cost.
    pub counters: McCounters,
}

/// Model-check a **closed** formula with the staged engine, returning the
/// verdict, the extension, and the run counters. `obs` records an overall
/// `mc_check` span, one span per fixpoint evaluation, iteration
/// heartbeats, and the run counters under `mc.*`; pass
/// [`Obs::disabled`] for none.
pub fn check_traced(f: &Mu, ts: &Ts, opts: McOptions, obs: &Obs) -> Result<McRun, CheckError> {
    let (extension, counters) = eval_traced(f, ts, &mut Valuation::default(), opts, obs)?;
    Ok(McRun {
        holds: extension.contains(&ts.initial()),
        extension,
        counters,
    })
}

/// Model checking: does the closed formula hold in the initial state?
///
/// Rejects non-closed formulas (free individual *or* predicate variables)
/// with a named-variable [`CheckError`] — an open formula silently
/// evaluates to a wrong verdict (e.g. a free-variable atom under `Not`
/// becomes "all states"), so it must never reach the fixpoint. Use
/// [`check_traced`] for thread control and counters.
pub fn check(f: &Mu, ts: &Ts) -> Result<bool, CheckError> {
    check_traced(f, ts, McOptions::default(), &Obs::disabled()).map(|run| run.holds)
}

/// Reject a formula with free individual or predicate variables: the
/// check [`check_traced`] makes before evaluating anything.
pub fn ensure_closed(f: &Mu) -> Result<(), CheckError> {
    ensure_assigned(f, &Valuation::default())
}

/// Reject a formula with a free individual or predicate variable that
/// `val` leaves unassigned. An extension is taken under a valuation of
/// the free variables, so such a formula has none.
pub(crate) fn ensure_assigned(f: &Mu, val: &Valuation) -> Result<(), CheckError> {
    let free: Vec<Var> = (f.free_vars().into_iter())
        .filter(|v| !val.individuals.contains_key(v))
        .collect();
    if !free.is_empty() {
        return Err(CheckError::FreeIndividuals(free));
    }
    let free_preds: Vec<PredVar> = (f.free_pred_vars().into_iter())
        .filter(|z| !val.predicates.contains_key(z))
        .collect();
    if !free_preds.is_empty() {
        return Err(CheckError::FreePredicates(free_preds));
    }
    Ok(())
}

/// Evaluate the extension of a (possibly open) formula with the staged
/// engine under an explicit valuation — the drop-in counterpart of
/// [`crate::mc::eval`] used by the differential tests — recording into
/// `obs`. The valuation must assign every free variable of `f`.
pub fn eval_traced(
    f: &Mu,
    ts: &Ts,
    val: &mut Valuation,
    opts: McOptions,
    obs: &Obs,
) -> Result<(BTreeSet<StateId>, McCounters), CheckError> {
    ensure_assigned(f, val)?;
    let mut run_span = span!(
        obs,
        "mc_eval",
        states = ts.num_states(),
        threads = opts.threads
    );
    let fused = fuse(f);
    let f = &fused;
    let mut infos = Vec::new();
    index(f, &mut infos);
    // Compile each query leaf once per run (pre-order ids mirror `index`).
    let mut leaves = HashMap::new();
    compile_leaves(f, &mut 0, &mut leaves);
    let n = ts.num_states();
    let preds = val
        .predicates
        .iter()
        .map(|(z, set)| (z.clone(), StateSet::from_ids(n, set)))
        .collect();
    let mut engine = Engine {
        ts,
        states: ts.state_ids().collect(),
        all: StateSet::full(n),
        seed_values: val.individuals.values().copied().collect(),
        domain: None,
        infos,
        leaves,
        adoms: None,
        preds,
        plan_stats: PlanStats::default(),
        threads: opts.threads.max(1),
        cache: HashMap::new(),
        counters: McCounters::default(),
        obs: obs.clone(),
    };
    let ext = engine.eval_node(f, 0, val);
    let size = ext.len();
    run_span.set("extension", size as u64);
    let fixpoint_iterations = engine.counters.fixpoint_iterations;
    engine.counters.publish(obs, "mc");
    obs.progress_flush(|| {
        format!(
            "mc done: |ext| = {size} over {n} states, {fixpoint_iterations} fixpoint iterations"
        )
    });
    // Plan-cache counters are totals of the work performed — independent of
    // the thread count — published here from serial code.
    if obs.is_enabled() {
        let compiled = engine.leaves.len() as u64;
        obs.counter_add("mc.plans_compiled", compiled);
        for (name, v) in engine.plan_stats.snapshot() {
            obs.counter_add(format!("mc.query.{name}"), v);
        }
    }
    Ok((ext.to_ids(), engine.counters))
}

/// Compile each `Mu::Query` leaf, keyed by its id in the pre-order of
/// [`index`] (`next` is the id of `f`). The query's free variables become
/// plan parameters, so evaluation under a full assignment is a boolean
/// existence check.
fn compile_leaves(f: &Mu, next: &mut u32, leaves: &mut HashMap<u32, CompiledPlan>) {
    if let Mu::Query(q) = f {
        leaves.insert(*next, CompiledPlan::compile(q, &q.free_vars()));
    }
    *next += 1;
    match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => {}
        Mu::Not(g)
        | Mu::Diamond(g)
        | Mu::Box_(g)
        | Mu::Exists(_, g)
        | Mu::Forall(_, g)
        | Mu::Lfp(_, g)
        | Mu::Gfp(_, g) => compile_leaves(g, next, leaves),
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => {
            compile_leaves(g, next, leaves);
            compile_leaves(h, next, leaves);
        }
    }
}

/// The fusion pass (see the module doc): replace every maximal quantifier
/// block that lowers to one FO query ([`Mu::state_query`]) whose plan,
/// with the block's free variables as parameters, needs no ADOM step by
/// that query; every other node is kept as is.
pub(crate) fn fuse(f: &Mu) -> Mu {
    let query = match f {
        Mu::Exists(..) => f.state_query().ok(),
        // ∀v.φ as ¬∃v.¬φ.
        Mu::Forall(v, g) => g
            .state_query()
            .ok()
            .map(|b| Formula::exists(v.clone(), b.not())),
        _ => None,
    };
    if let Some(q) = query {
        if !CompiledPlan::compile(&q, &q.free_vars()).has_adom_step() {
            return match f {
                Mu::Forall(..) => Mu::Query(q).not(),
                _ => Mu::Query(q),
            };
        }
    }
    let kid = |g: &Mu| Box::new(fuse(g));
    match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => f.clone(),
        Mu::Not(g) => Mu::Not(kid(g)),
        Mu::And(g, h) => Mu::And(kid(g), kid(h)),
        Mu::Or(g, h) => Mu::Or(kid(g), kid(h)),
        Mu::Implies(g, h) => Mu::Implies(kid(g), kid(h)),
        Mu::Exists(v, g) => Mu::Exists(v.clone(), kid(g)),
        Mu::Forall(v, g) => Mu::Forall(v.clone(), kid(g)),
        Mu::Diamond(g) => Mu::Diamond(kid(g)),
        Mu::Box_(g) => Mu::Box_(kid(g)),
        Mu::Lfp(z, g) => Mu::Lfp(z.clone(), kid(g)),
        Mu::Gfp(z, g) => Mu::Gfp(z.clone(), kid(g)),
    }
}

/// Static per-subformula facts, computed once per run by [`index`].
struct NodeInfo {
    /// Subtree size in nodes (this node included) — pre-order child ids
    /// are derived from it.
    size: u32,
    /// Free individual variables, sorted: the relevant slice of the
    /// valuation for the cache key.
    free: Vec<Var>,
    /// No free predicate variables ⇒ the extension depends only on the
    /// individual valuation ⇒ safe to cache for the whole run.
    cacheable: bool,
}

/// Pre-order-number the formula, returning the subtree size.
fn index(f: &Mu, infos: &mut Vec<NodeInfo>) -> u32 {
    let my = infos.len();
    infos.push(NodeInfo {
        size: 0,
        free: Vec::new(),
        cacheable: false,
    });
    let kids = match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => 0,
        Mu::Not(g)
        | Mu::Diamond(g)
        | Mu::Box_(g)
        | Mu::Exists(_, g)
        | Mu::Forall(_, g)
        | Mu::Lfp(_, g)
        | Mu::Gfp(_, g) => index(g, infos),
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => index(g, infos) + index(h, infos),
    };
    let size = 1 + kids;
    infos[my] = NodeInfo {
        size,
        free: f.free_vars().into_iter().collect(),
        cacheable: f.free_pred_vars().is_empty(),
    };
    size
}

type CacheKey = (u32, Vec<Option<Value>>);

struct Engine<'a> {
    ts: &'a Ts,
    /// Every state id, in index order: the items of per-state passes.
    states: Vec<StateId>,
    all: StateSet,
    /// Values of the caller's valuation, which join `ADOM(Θ)` in the
    /// quantifier domain.
    seed_values: Vec<Value>,
    /// `ADOM(Θ)` plus `seed_values`, built on the first unfused `∃`/`∀`.
    domain: Option<Arc<[Value]>>,
    infos: Vec<NodeInfo>,
    /// The compiled plan of each `Mu::Query` leaf, by pre-order node id.
    leaves: HashMap<u32, CompiledPlan>,
    /// Per-state active domains aligned with `states`, built on the first
    /// bound `LIVE` and reused by every later one.
    adoms: Option<Vec<BTreeSet<Value>>>,
    /// Predicate-variable valuation, as state sets.
    preds: HashMap<PredVar, StateSet>,
    plan_stats: PlanStats,
    threads: usize,
    cache: HashMap<CacheKey, StateSet>,
    counters: McCounters,
    obs: Obs,
}

impl Engine<'_> {
    /// Pre-order id of the first child of `id`.
    fn kid1(&self, id: u32) -> u32 {
        id + 1
    }

    /// Pre-order id of the second child of `id`.
    fn kid2(&self, id: u32) -> u32 {
        id + 1 + self.infos[(id + 1) as usize].size
    }

    /// The quantifier domain `ADOM(Θ)` ∪ the caller's values, built once.
    fn domain(&mut self) -> Arc<[Value]> {
        let (ts, seed) = (self.ts, &self.seed_values);
        let domain = self.domain.get_or_insert_with(|| {
            let mut d = ts.adom_union();
            d.extend(seed.iter().copied());
            d.into_iter().collect()
        });
        Arc::clone(domain)
    }

    fn eval_node(&mut self, f: &Mu, id: u32, val: &mut Valuation) -> StateSet {
        // Cache lookup: sound only for predicate-closed subformulas, keyed
        // by the valuation restricted to the node's free variables.
        let key: Option<CacheKey> = if self.infos[id as usize].cacheable {
            let slice: Vec<Option<Value>> = self.infos[id as usize]
                .free
                .iter()
                .map(|v| val.individuals.get(v).copied())
                .collect();
            let key = (id, slice);
            if let Some(hit) = self.cache.get(&key) {
                self.counters.cache_hits += 1;
                return hit.clone();
            }
            self.counters.cache_misses += 1;
            Some(key)
        } else {
            None
        };
        self.counters.state_subformula_visits += self.states.len() as u64;
        let out = self.compute(f, id, val);
        if let Some(key) = key {
            self.cache.insert(key, out.clone());
        }
        out
    }

    /// The states some (`any`) or every (`!any`) successor of which is in
    /// `target`.
    fn pre_image(&self, target: &StateSet, any: bool) -> StateSet {
        StateSet::from_fn(self.states.len(), |i| {
            let mut succ = self.ts.successors(self.states[i]).iter();
            match any {
                true => succ.any(|t| target.contains(t.index())),
                false => succ.all(|t| target.contains(t.index())),
            }
        })
    }

    fn compute(&mut self, f: &Mu, id: u32, val: &mut Valuation) -> StateSet {
        let n = self.states.len();
        match f {
            Mu::Query(q) => {
                // `eval_traced` checked that `val` assigns every free variable.
                let asg: Assignment = (q.free_vars().into_iter())
                    .filter_map(|v| val.individuals.get(&v).map(|&d| (v, d)))
                    .collect();
                self.counters.query_state_evals += n as u64;
                let (ts, threads) = (self.ts, self.threads);
                let (plan, stats) = (&self.leaves[&id], &self.plan_stats);
                let sat = par_map(&self.states, threads, |&s| {
                    plan.holds(&EvalCtx::scan(ts.db(s)).stats(stats), &asg)
                });
                StateSet::from_fn(n, |i| sat[i])
            }
            Mu::Live(t) => {
                let d = match t {
                    QTerm::Const(c) => Some(*c),
                    QTerm::Var(v) => val.individuals.get(v).copied(),
                };
                self.counters.query_state_evals += n as u64;
                let (ts, states) = (self.ts, &self.states);
                let adoms = self.adoms.get_or_insert_with(|| {
                    par_map(states, self.threads, |&s| ts.db(s).active_domain())
                });
                StateSet::from_fn(n, |i| d.is_some_and(|d| adoms[i].contains(&d)))
            }
            Mu::Not(g) => {
                let mut out = self.eval_node(g, self.kid1(id), val);
                out.complement();
                out
            }
            Mu::And(g, h) => {
                let (k1, k2) = (self.kid1(id), self.kid2(id));
                let mut out = self.eval_node(g, k1, val);
                out.and_with(&self.eval_node(h, k2, val));
                out
            }
            Mu::Or(g, h) => {
                let (k1, k2) = (self.kid1(id), self.kid2(id));
                let mut out = self.eval_node(g, k1, val);
                out.or_with(&self.eval_node(h, k2, val));
                out
            }
            Mu::Implies(g, h) => {
                let (k1, k2) = (self.kid1(id), self.kid2(id));
                let mut out = self.eval_node(g, k1, val);
                out.complement();
                out.or_with(&self.eval_node(h, k2, val));
                out
            }
            Mu::Exists(v, g) => {
                let kid = self.kid1(id);
                let saved = val.individuals.get(v).copied();
                let mut out = StateSet::empty(n);
                for &d in self.domain().iter() {
                    val.individuals.insert(v.clone(), d);
                    out.or_with(&self.eval_node(g, kid, val));
                    if out.is_full() {
                        break;
                    }
                }
                restore(val, v, saved);
                out
            }
            Mu::Forall(v, g) => {
                let kid = self.kid1(id);
                let saved = val.individuals.get(v).copied();
                let mut out = self.all.clone();
                for &d in self.domain().iter() {
                    val.individuals.insert(v.clone(), d);
                    out.and_with(&self.eval_node(g, kid, val));
                    if out.is_empty() {
                        break;
                    }
                }
                restore(val, v, saved);
                out
            }
            Mu::Diamond(g) => {
                let target = self.eval_node(g, self.kid1(id), val);
                self.pre_image(&target, true)
            }
            Mu::Box_(g) => {
                let target = self.eval_node(g, self.kid1(id), val);
                self.pre_image(&target, false)
            }
            Mu::Pvar(z) => self
                .preds
                .get(z)
                .cloned()
                .unwrap_or_else(|| StateSet::empty(n)),
            Mu::Lfp(z, g) => self.fixpoint("lfp", z, g, id, StateSet::empty(n), val),
            Mu::Gfp(z, g) => self.fixpoint("gfp", z, g, id, self.all.clone(), val),
        }
    }

    /// Kleene iteration of `op z . g` from `start` (∅ for `lfp`, all
    /// states for `gfp`) until two iterates are equal.
    fn fixpoint(
        &mut self,
        op: &'static str,
        z: &PredVar,
        g: &Mu,
        id: u32,
        start: StateSet,
        val: &mut Valuation,
    ) -> StateSet {
        let kid = self.kid1(id);
        let mut fp_span = span!(self.obs, op, node = id);
        let saved = self.preds.insert(z.clone(), start);
        let mut iters = 0u64;
        loop {
            self.counters.fixpoint_iterations += 1;
            iters += 1;
            let size = || self.preds[z].len();
            event!(
                self.obs,
                "fixpoint",
                op = op,
                node = id,
                iter = iters,
                extension = size(),
            );
            self.obs
                .heartbeat(|| format!("mc {op} node {id}: iteration {iters}, |ext| = {}", size()));
            let next = self.eval_node(g, kid, val);
            let current = self.preds.get_mut(z).expect("bound above");
            if next == *current {
                break;
            }
            *current = next;
        }
        let current = match saved {
            Some(outer) => self.preds.insert(z.clone(), outer),
            None => self.preds.remove(z),
        }
        .expect("bound above");
        fp_span.set("iterations", iters);
        fp_span.set("extension", current.len() as u64);
        current
    }
}

fn restore(val: &mut Valuation, v: &Var, saved: Option<Value>) {
    match saved {
        Some(d) => {
            val.individuals.insert(v.clone(), d);
        }
        None => {
            val.individuals.remove(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc;
    use crate::sugar;
    use dcds_folang::Formula;
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    /// The 3-state system of the `mc` tests: s0 --> s1 --> s2 (self-loop).
    fn sample() -> (Schema, ConstantPool, Ts) {
        let mut schema = Schema::new();
        let stud = schema.add_relation("Stud", 1).unwrap();
        let grad = schema.add_relation("Grad", 2).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let m = pool.intern("m");
        let s0 = Instance::from_facts([(stud, Tuple::from([a]))]);
        let s1 = Instance::from_facts([(stud, Tuple::from([a])), (stud, Tuple::from([b]))]);
        let s2 = Instance::from_facts([(grad, Tuple::from([a, m]))]);
        let mut ts = Ts::new(s0);
        let i1 = ts.add_state(s1);
        let i2 = ts.add_state(s2);
        ts.add_edge(ts.initial(), i1);
        ts.add_edge(i1, i2);
        ts.add_edge(i2, i2);
        (schema, pool, ts)
    }

    fn stud(s: &Schema, v: &str) -> Mu {
        Mu::Query(Formula::Atom(
            s.rel_id("Stud").unwrap(),
            vec![QTerm::var(v)],
        ))
    }

    fn formula_family(schema: &Schema, pool: &ConstantPool) -> Vec<Mu> {
        let a = pool.get("a").unwrap();
        let m = pool.get("m").unwrap();
        let grad_am = Mu::Query(Formula::Atom(
            schema.rel_id("Grad").unwrap(),
            vec![QTerm::Const(a), QTerm::Const(m)],
        ));
        let some_stud = Mu::exists("X", Mu::live("X").and(stud(schema, "X")));
        vec![
            some_stud.clone(),
            some_stud.clone().diamond(),
            sugar::ef(grad_am.clone()),
            sugar::ag(some_stud.clone().not()),
            sugar::ag(Mu::Query(Formula::True)),
            sugar::eu(some_stud.clone(), grad_am.clone()),
            sugar::af(grad_am.clone()),
            sugar::eg(some_stud.clone()),
            Mu::forall("X", Mu::live("X").implies(stud(schema, "X"))),
            Mu::exists(
                "X",
                Mu::live("X").and(stud(schema, "X")).and(
                    Mu::exists(
                        "Y",
                        Mu::live("Y").and(Mu::Query(Formula::Atom(
                            schema.rel_id("Grad").unwrap(),
                            vec![QTerm::var("X"), QTerm::var("Y")],
                        ))),
                    )
                    .diamond()
                    .diamond(),
                ),
            ),
        ]
    }

    #[test]
    fn agrees_with_naive_oracle_at_all_thread_counts() {
        let (schema, pool, ts) = sample();
        for phi in formula_family(&schema, &pool) {
            let oracle = mc::eval(&phi, &ts, &mut Valuation::default()).unwrap();
            let mut reference = None;
            for threads in [1, 2, 8] {
                let (ext, counters) = eval_traced(
                    &phi,
                    &ts,
                    &mut Valuation::default(),
                    McOptions { threads },
                    &Obs::disabled(),
                )
                .unwrap();
                assert_eq!(ext, oracle, "engine vs oracle on {phi:?}");
                match &reference {
                    None => reference = Some((ext, counters)),
                    Some((r_ext, r_counters)) => {
                        assert_eq!(&ext, r_ext, "extension varies with threads on {phi:?}");
                        assert_eq!(
                            &counters, r_counters,
                            "counters vary with threads on {phi:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixpoint_reuses_cached_query_extensions() {
        let (schema, pool, ts) = sample();
        let a = pool.get("a").unwrap();
        let m = pool.get("m").unwrap();
        let grad = Mu::Query(Formula::Atom(
            schema.rel_id("Grad").unwrap(),
            vec![QTerm::Const(a), QTerm::Const(m)],
        ));
        let run = check_traced(
            &sugar::ef(grad),
            &ts,
            McOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert!(run.holds);
        // EF needs ≥ 2 Kleene iterations; the ground Grad(a,m) leaf is
        // computed once and a cache hit afterwards.
        assert!(run.counters.fixpoint_iterations >= 2);
        assert!(run.counters.cache_hits > 0, "{:?}", run.counters);
        assert!(run.counters.cache_hit_rate().unwrap() > 0.0);
    }

    #[test]
    fn closed_subformulas_hoisted_out_of_fixpoints() {
        let (schema, pool, ts) = sample();
        let (_, _) = (&schema, &pool);
        // νZ.(∃x. LIVE(x) ∧ Stud(x)) ∧ []Z — the quantified conjunct is
        // predicate-closed, so iterations 2.. answer it from the cache.
        let some_stud = Mu::exists("X", Mu::live("X").and(stud(&schema, "X")));
        let run = check_traced(
            &sugar::ag(some_stud),
            &ts,
            McOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        let c = run.counters;
        assert!(c.fixpoint_iterations >= 2);
        // The hoisted conjunct costs one computation regardless of the
        // number of iterations: hits strictly exceed zero.
        assert!(c.cache_hits >= c.fixpoint_iterations - 1, "{c:?}");
    }

    #[test]
    fn open_formulas_are_rejected_by_name() {
        let (_, _, ts) = sample();
        let err =
            check_traced(&Mu::live("X"), &ts, McOptions::default(), &Obs::disabled()).unwrap_err();
        assert_eq!(err, CheckError::FreeIndividuals(vec![Var::new("X")]));
        assert!(err.to_string().contains("X"), "{err}");

        let open_pred = Mu::Pvar(PredVar::new("Z")).diamond();
        let err2 =
            check_traced(&open_pred, &ts, McOptions::default(), &Obs::disabled()).unwrap_err();
        assert_eq!(err2, CheckError::FreePredicates(vec![PredVar::new("Z")]));
        assert!(err2.to_string().contains("Z"), "{err2}");

        // The wrong-verdict shape from the issue: ¬LIVE(x) with x free
        // evaluated to ∅ (naive: all − all); now it is an error instead.
        let trap = Mu::live("X").not();
        assert!(check_traced(&trap, &ts, McOptions::default(), &Obs::disabled()).is_err());
    }

    /// Parse over the schema R/1, Q/1, S/1, P/1, E/2.
    fn parse(src: &str) -> Mu {
        let mut schema = Schema::new();
        for (name, arity) in [("R", 1), ("Q", 1), ("S", 1), ("P", 1), ("E", 2)] {
            schema.add_relation(name, arity).unwrap();
        }
        crate::parse_mu(src, &mut schema, &mut ConstantPool::new()).unwrap()
    }

    fn quantifiers(f: &Mu) -> usize {
        match f {
            Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => 0,
            Mu::Exists(_, g) | Mu::Forall(_, g) => 1 + quantifiers(g),
            Mu::Not(g) | Mu::Diamond(g) | Mu::Box_(g) | Mu::Lfp(_, g) | Mu::Gfp(_, g) => {
                quantifiers(g)
            }
            Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => quantifiers(g) + quantifiers(h),
        }
    }

    fn compiled_leaves(f: &Mu) -> usize {
        let mut leaves = HashMap::new();
        compile_leaves(f, &mut 0, &mut leaves);
        leaves.len()
    }

    #[test]
    fn fusion_turns_paper_idioms_into_one_compiled_leaf() {
        // The µLP idiom of the README, the CLI tests and BENCH_e2e.
        let fused = fuse(&parse("exists X . live(X) & (R(X) | Q(X))"));
        assert!(matches!(fused, Mu::Query(_)), "{fused:?}");
        assert_eq!(compiled_leaves(&fused), 1);
        // The perfbench `det` property: the ∀¬ block is one leaf beside the
        // ground phase query.
        let det = fuse(&parse(
            "nu Z . (forall V . !(E('a', V) & E('b', V) & E('c', V))) \
             & (mu Y . P('p7') | <> Y) & [] Z",
        ));
        assert_eq!(quantifiers(&det), 0, "{det:?}");
        assert_eq!(compiled_leaves(&det), 2, "{det:?}");
        // The perfbench `rcycl` property.
        let rcycl = fuse(&parse("nu Z . (forall X . !(R(X) & Q(X))) & [] Z"));
        assert_eq!(quantifiers(&rcycl), 0, "{rcycl:?}");
        assert_eq!(compiled_leaves(&rcycl), 1, "{rcycl:?}");
        // Nested and multi-variable blocks fuse whole.
        let nested = fuse(&parse(
            "exists X . live(X) & R(X) & (exists Y . live(Y) & E(X, Y) & Q(Y))",
        ));
        assert!(matches!(nested, Mu::Query(_)), "{nested:?}");
        // Under a modal-level quantifier the inner block fuses with `X` as
        // a plan parameter; the guarded outer quantifier stays.
        let guarded = fuse(&parse("forall X . live(X) -> <> (exists Y . E(X, Y))"));
        assert_eq!(quantifiers(&guarded), 1, "{guarded:?}");
        assert_eq!(compiled_leaves(&guarded), 1, "{guarded:?}");
    }

    #[test]
    fn fusion_leaves_formulas_outside_the_fragment_unchanged() {
        // Domain-independent spellings fuse whatever their connectives.
        for src in [
            "forall X . R(X) -> S(X)",
            "forall X . R(X) -> !S(X)",
            "exists X . R(X) & !S(X)",
            "exists X . R(X) & !(live(X) & S(X))",
        ] {
            let fused = fuse(&parse(src));
            assert_eq!(quantifiers(&fused), 0, "{src}: {fused:?}");
        }
        for src in [
            "forall X . R(X)",
            "exists V . R('a')",
            "exists X . R(X) | Q('a')",
            "forall X . live(X) -> (exists V . V = X)",
            "exists X . live(X)",
            "exists X . live(X) & !R(X)",
            "exists X . live(X) & <> R(X)",
        ] {
            let f = parse(src);
            assert_eq!(fuse(&f), f, "{src}");
        }
        // The outer `R(X)` does not cover the rebound `X` of the inner
        // `live(X)`, so neither block fuses.
        let shadow = parse("exists X . R(X) & (exists X . live(X) & !Q(X))");
        assert_eq!(fuse(&shadow), shadow);
    }

    #[test]
    fn verdicts_match_naive_check() {
        let (schema, pool, ts) = sample();
        for phi in formula_family(&schema, &pool) {
            if !phi.is_closed() {
                continue;
            }
            let naive = mc::eval(&phi, &ts, &mut Valuation::default())
                .unwrap()
                .contains(&ts.initial());
            let run = check_traced(&phi, &ts, McOptions { threads: 4 }, &Obs::disabled()).unwrap();
            assert_eq!(run.holds, naive, "{phi:?}");
        }
    }
}

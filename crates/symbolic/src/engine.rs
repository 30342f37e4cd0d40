//! The backward-reachability driver.
//!
//! Starting from the clause set of the *bad* condition, the engine
//! repeatedly regresses the frontier through every action, normalising,
//! constraint-pruning, and subsumption-checking the results, until either
//!
//! * the set reaches a **fixpoint** with no clause covering the initial
//!   instance — Bad is unreachable, reported definitively; or
//! * a clause covers `I₀` and a **bounded concrete search** (over the
//!   commitment-representative successors the explicit engines use)
//!   confirms an actual run into Bad — reachable, with a trace witness; or
//! * an iteration/clause/node budget runs out, or a purported hit never
//!   confirms — inconclusive, with the reason.
//!
//! The clause set *over-approximates* the set of states that can reach
//! Bad (regression drops non-UCQ filters and rule conditions, treats
//! nondeterministic results as per-step-interned free values, and ignores
//! successor constraint filtering — each one only ever enlarges the set).
//! That makes UNREACHABLE sound as computed, and is why REACHABLE is
//! never claimed from a clause hit alone.

use crate::clause::Clause;
use crate::constraints::{clause_violates, guarded_constraints};
use crate::regress::{Regression, TargetCtx};
use crate::subsume::{subsumes, ClauseCtx};
use dcds_core::det::det_successors_by_commitment;
use dcds_core::nondet::nondet_successors_by_commitment;
use dcds_core::{ActionId, Dcds, DetState};
use dcds_folang::{Assignment, CompiledPlan, EvalCtx, Formula};
use dcds_mucalc::safety::{extract_safety, SafetyError, SafetyMode};
use dcds_mucalc::{ensure_closed, CheckError, Mu};
use dcds_obs::{event, span, Obs, PhaseClock};
use dcds_reldata::{ConstantPool, Instance};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Budgets for the symbolic engine.
#[derive(Debug, Clone)]
pub struct SymOptions {
    /// Maximum regression depth (iterations of the fixpoint loop).
    pub max_iters: usize,
    /// Maximum number of clauses kept across the whole run.
    pub max_clauses: usize,
    /// Node budget for each concrete confirmation search.
    pub confirm_nodes: usize,
}

impl Default for SymOptions {
    fn default() -> Self {
        SymOptions {
            max_iters: 64,
            max_clauses: 4096,
            confirm_nodes: 50_000,
        }
    }
}

/// Observability counters of one symbolic run (serde-free `to_json`, like
/// the engine counters elsewhere in the workspace).
#[derive(Debug, Default, Clone)]
pub struct SymCounters {
    /// Fixpoint iterations executed.
    pub iterations: u64,
    /// Clause × action regressions performed.
    pub regressions: u64,
    /// Candidate clauses: the option vectors of each regression that pass
    /// constant-clash pruning (options whose head fact clashes with the
    /// target on a constant never count). This includes the vectors skipped
    /// as a variable renaming of a candidate built earlier in the same
    /// regression, which also count in `exact_dups` (or wherever the clause
    /// they rename went).
    pub candidates: u64,
    /// Candidates built and normalised: `candidates` less the skipped
    /// renamings.
    pub candidates_built: u64,
    /// Clauses kept in the backward-reachable set.
    pub kept: u64,
    /// Candidates dropped as exact duplicates, skipped renamings of a
    /// candidate of the same regression included.
    pub exact_dups: u64,
    /// Candidates dropped by subsumption.
    pub subsumed: u64,
    /// Candidates that normalisation found contradictory, counted from the
    /// built ones; a skipped renaming counts when the clause it renames
    /// did. Constant clashes are pruned earlier and never reach this count.
    pub unsat_dropped: u64,
    /// Candidates dropped by integrity-constraint pruning, skipped
    /// renamings of a pruned candidate included.
    pub constraint_pruned: u64,
    /// Non-UCQ effect filters dropped (over-approximation events).
    pub qminus_dropped: u64,
    /// Non-UCQ rule conditions dropped (over-approximation events).
    pub cond_dropped: u64,
    /// Clauses that covered the initial instance (permissive check).
    pub init_hits: u64,
    /// Concrete confirmation searches launched.
    pub confirm_runs: u64,
    /// States expanded across all confirmation searches.
    pub confirm_nodes: u64,
    /// Largest frontier (clauses regressed in one level) across the run.
    pub peak_frontier: u64,
}

impl SymCounters {
    /// `(name, value)` pairs in a fixed order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("iterations", self.iterations),
            ("regressions", self.regressions),
            ("candidates", self.candidates),
            ("candidates_built", self.candidates_built),
            ("kept", self.kept),
            ("exact_dups", self.exact_dups),
            ("subsumed", self.subsumed),
            ("unsat_dropped", self.unsat_dropped),
            ("constraint_pruned", self.constraint_pruned),
            ("qminus_dropped", self.qminus_dropped),
            ("cond_dropped", self.cond_dropped),
            ("init_hits", self.init_hits),
            ("confirm_runs", self.confirm_runs),
            ("confirm_nodes", self.confirm_nodes),
            ("peak_frontier", self.peak_frontier),
        ]
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        dcds_obs::export::json_counters(&self.entries())
    }

    /// Publish into the observability registry under `symbolic.<name>`.
    pub fn publish(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (k, v) in self.entries() {
            obs.counter_add(format!("symbolic.{k}"), v);
        }
    }
}

/// A concrete run witnessing reachability: `states[0]` is the initial
/// instance and `actions[i]` leads from `states[i]` to `states[i + 1]`.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Instances along the run.
    pub states: Vec<Instance>,
    /// Action (with parameter assignment) taken at each step.
    pub actions: Vec<(ActionId, Assignment)>,
    /// Constant pool covering every value in the trace — the spec pool
    /// extended with the fresh values the confirmation search injected.
    pub pool: ConstantPool,
}

/// The verdict of a symbolic safety check, already mapped through the
/// property's polarity (AG / EF).
#[derive(Debug, Clone)]
pub enum SymVerdict {
    /// The property holds. For EF properties the confirming trace is the
    /// witness.
    Holds(Option<Trace>),
    /// The property is violated. For AG properties the counterexample
    /// trace is attached.
    Violated(Option<Trace>),
    /// Neither verdict within budget; the string says why.
    Inconclusive(String),
}

/// Result of a symbolic run.
#[derive(Debug)]
pub struct SymRun {
    /// The verdict.
    pub verdict: SymVerdict,
    /// Polarity of the checked property.
    pub mode: SafetyMode,
    /// Counters for reporting.
    pub counters: SymCounters,
}

/// Why a check could not start.
#[derive(Debug, Clone)]
pub enum SymError {
    /// The formula has free variables.
    NotClosed(CheckError),
    /// The formula is outside the safety fragment.
    NotSafety(SafetyError),
    /// The bad condition cannot be compiled to clauses.
    UnsupportedBad(String),
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymError::NotClosed(e) => write!(f, "{e}"),
            SymError::NotSafety(e) => write!(f, "{e}"),
            SymError::UnsupportedBad(msg) => {
                write!(f, "bad condition outside the clause fragment: {msg}")
            }
        }
    }
}

impl std::error::Error for SymError {}

/// Check a µL safety formula symbolically (no observability).
pub fn check_safety(dcds: &Dcds, f: &Mu, opts: &SymOptions) -> Result<SymRun, SymError> {
    check_safety_traced(dcds, f, opts, &Obs::disabled())
}

/// Check a µL safety formula symbolically, recording spans and counters.
pub fn check_safety_traced(
    dcds: &Dcds,
    f: &Mu,
    opts: &SymOptions,
    obs: &Obs,
) -> Result<SymRun, SymError> {
    let mut run_span = span!(obs, "symbolic.check");
    ensure_closed(f).map_err(SymError::NotClosed)?;
    let prop = extract_safety(f).map_err(SymError::NotSafety)?;
    let bad = clauses_from_bad(&prop.bad).map_err(SymError::UnsupportedBad)?;
    let bad_plan = CompiledPlan::compile(&prop.bad, &BTreeSet::new());
    let mut counters = SymCounters::default();
    let reach = backward_reach(dcds, &bad_plan, bad, opts, obs, &mut counters);
    counters.publish(obs);
    run_span.set("iterations", counters.iterations);
    run_span.set("kept", counters.kept);
    obs.progress_flush(|| {
        format!(
            "symbolic done: {} iterations, {} clauses kept, peak frontier {}",
            counters.iterations, counters.kept, counters.peak_frontier
        )
    });
    let verdict = match reach {
        Reach::Unreachable => match prop.mode {
            SafetyMode::AlwaysGood => SymVerdict::Holds(None),
            SafetyMode::EventuallyBad => SymVerdict::Violated(None),
        },
        Reach::Reachable(trace) => match prop.mode {
            SafetyMode::AlwaysGood => SymVerdict::Violated(Some(trace)),
            SafetyMode::EventuallyBad => SymVerdict::Holds(Some(trace)),
        },
        Reach::Unknown(reason) => SymVerdict::Inconclusive(reason),
    };
    Ok(SymRun {
        verdict,
        mode: prop.mode,
        counters,
    })
}

enum Reach {
    Unreachable,
    Reachable(Trace),
    Unknown(String),
}

fn backward_reach(
    dcds: &Dcds,
    bad_plan: &CompiledPlan,
    bad_clauses: Vec<Clause>,
    opts: &SymOptions,
    obs: &Obs,
    counters: &mut SymCounters,
) -> Reach {
    let guards = guarded_constraints(&dcds.data);
    let init = &dcds.data.initial;

    let mut set = ClauseSet::default();
    // The clauses to regress next, as indices into `set.kept`.
    let mut frontier: Vec<usize> = Vec::new();
    let mut unconfirmed_hit = false;
    let mut clause_budget_hit = false;

    // Seed with the bad condition itself (level 0).
    for c in bad_clauses {
        set.admit(
            c,
            0,
            &guards,
            &mut frontier,
            counters,
            &mut PhaseClock::off(),
        );
    }
    obs.counter_add("sym.subsume_probes", std::mem::take(&mut set.probes));
    counters.peak_frontier = counters.peak_frontier.max(frontier.len() as u64);
    let seed_hits = set.hits(&frontier, init);
    counters.init_hits += seed_hits;
    if seed_hits > 0 {
        // Depth 0: Bad at the initial instance directly.
        if bad_plan.holds(&EvalCtx::scan(init), &Assignment::new()) {
            return Reach::Reachable(Trace {
                states: vec![init.clone()],
                actions: Vec::new(),
                pool: dcds.data.pool.clone(),
            });
        }
        unconfirmed_hit = true;
    }

    let actions: Vec<ActionId> = (0..dcds.process.actions.len())
        .map(ActionId::from_index)
        .collect();
    let regression = Regression::new(dcds);

    let mut level = 0usize;
    loop {
        if frontier.is_empty() {
            // Fixpoint. One last, deeper confirmation attempt if some hit
            // never confirmed, then report.
            if !unconfirmed_hit {
                return Reach::Unreachable;
            }
            if let Some(trace) =
                confirm_reach(dcds, bad_plan, level + 2, opts.confirm_nodes, counters)
            {
                return Reach::Reachable(trace);
            }
            return Reach::Unknown(
                "fixpoint reached, but a clause covering the initial instance could not be \
                 confirmed concretely (likely an over-approximation artefact)"
                    .to_owned(),
            );
        }
        if level >= opts.max_iters {
            return Reach::Unknown(format!(
                "iteration budget exhausted after {} levels ({} clauses kept)",
                level, counters.kept
            ));
        }
        if clause_budget_hit {
            return Reach::Unknown(format!(
                "clause budget exhausted ({} clauses kept)",
                counters.kept
            ));
        }
        level += 1;
        counters.iterations += 1;
        let _iter_span = span!(obs, "symbolic.iter", level = level as u64);
        let mut regress_clock = PhaseClock::new(obs);
        let mut normalize_clock = PhaseClock::new(obs);
        let mut subsume_clock = PhaseClock::new(obs);

        let mut new_frontier: Vec<usize> = Vec::new();
        'outer: for &target in &frontier {
            let ctx = TargetCtx::new(&set.kept[target].clause);
            for &action in &actions {
                counters.regressions += 1;
                let budget = opts.max_clauses.saturating_sub(set.seen.len()).max(1);
                let target = &set.kept[target].clause;
                let out = regress_clock.time(|| {
                    regression.regress(target, &ctx, action, budget, &mut normalize_clock)
                });
                counters.candidates += out.candidates;
                counters.candidates_built += out.built;
                counters.qminus_dropped += out.qminus_dropped;
                counters.cond_dropped += out.cond_dropped;
                counters.unsat_dropped += out.unsat;
                if out.truncated {
                    clause_budget_hit = true;
                }
                for (cand, repeats) in out.clauses.into_iter().zip(out.repeats) {
                    set.admit(
                        cand,
                        repeats,
                        &guards,
                        &mut new_frontier,
                        counters,
                        &mut subsume_clock,
                    );
                    if set.seen.len() >= opts.max_clauses {
                        clause_budget_hit = true;
                        break 'outer;
                    }
                }
            }
        }

        regress_clock.publish(obs, "sym.regress_us");
        normalize_clock.publish(obs, "sym.normalize_us");
        subsume_clock.publish(obs, "sym.subsume_us");
        obs.counter_add("sym.subsume_probes", std::mem::take(&mut set.probes));
        counters.peak_frontier = counters.peak_frontier.max(new_frontier.len() as u64);
        event!(
            obs,
            "sym_iter",
            level = level,
            frontier = frontier.len(),
            new_clauses = new_frontier.len(),
            kept = counters.kept,
            candidates = counters.candidates,
            subsumed = counters.subsumed,
        );
        // Any new clause covering the initial instance?
        let hits = set.hits(&new_frontier, init);
        counters.init_hits += hits;
        if hits > 0 {
            if let Some(trace) = confirm_reach(dcds, bad_plan, level, opts.confirm_nodes, counters)
            {
                return Reach::Reachable(trace);
            }
            unconfirmed_hit = true;
        }
        frontier = new_frontier;
    }
}

/// The clause set of a run, and what admission needs to filter it.
#[derive(Default)]
struct ClauseSet {
    /// The kept clauses, each with its subsumption context.
    kept: Vec<ClauseCtx>,
    /// The content of every candidate that passed constraint pruning,
    /// stored at level 0 so that equality ignores the level.
    seen: BTreeSet<Clause>,
    /// Subsumption probes that passed [`ClauseCtx::may_subsume`] since the
    /// count was last published (`sym.subsume_probes`).
    probes: u64,
}

impl ClauseSet {
    /// Normalised-candidate admission: constraint pruning, exact-duplicate
    /// and subsumption filtering, then keep. The duplicate set is probed
    /// by reference; only a new candidate's content is copied into it.
    /// Only kept clauses that pass [`ClauseCtx::may_subsume`] against the
    /// candidate are probed for subsumption. A kept clause's index goes on
    /// `frontier`. `repeats` skipped renamings of the candidate go where
    /// each would have gone after it: constraint-pruned with it, or exact
    /// duplicates of it.
    fn admit(
        &mut self,
        mut cand: Clause,
        repeats: u64,
        guards: &[crate::constraints::GuardedConstraint],
        frontier: &mut Vec<usize>,
        counters: &mut SymCounters,
        subsume_clock: &mut PhaseClock,
    ) {
        if clause_violates(&cand, guards) {
            counters.constraint_pruned += 1 + repeats;
            return;
        }
        let level = std::mem::replace(&mut cand.level, 0);
        if self.seen.contains(&cand) {
            counters.exact_dups += 1 + repeats;
            return;
        }
        counters.exact_dups += repeats;
        self.seen.insert(cand.clone());
        cand.level = level;
        let ctx = ClauseCtx::new(cand);
        let subsumed = subsume_clock.time(|| {
            self.kept.iter().filter(|k| k.may_subsume(&ctx)).any(|k| {
                self.probes += 1;
                subsumes(k, &ctx)
            })
        });
        if subsumed {
            counters.subsumed += 1;
            return;
        }
        counters.kept += 1;
        frontier.push(self.kept.len());
        self.kept.push(ctx);
    }

    /// How many of the kept clauses at `frontier` may hold in `init`.
    fn hits(&self, frontier: &[usize], init: &Instance) -> u64 {
        let covers = |&&k: &&usize| self.kept[k].clause.may_hold_in(init);
        frontier.iter().filter(covers).count() as u64
    }
}

/// Bounded concrete reachability search for the bad condition, over the
/// same commitment-representative successor construction as the explicit
/// engines — so a returned trace is a genuine run of the abstraction.
fn confirm_reach(
    dcds: &Dcds,
    bad: &CompiledPlan,
    depth: usize,
    node_budget: usize,
    counters: &mut SymCounters,
) -> Option<Trace> {
    counters.confirm_runs += 1;
    let mut pool = dcds.working_pool();
    let found = if dcds.is_deterministic() {
        bfs(
            DetState::initial(dcds),
            |s| Instance::clone(&s.instance),
            |s| {
                det_successors_by_commitment(dcds, s, &mut pool)
                    .into_iter()
                    .map(|(a, sigma, _, next)| (a, sigma, next))
                    .collect()
            },
            bad,
            depth,
            node_budget,
            counters,
        )
    } else {
        bfs(
            dcds.data.initial.clone(),
            |s: &Instance| s.clone(),
            |s| {
                nondet_successors_by_commitment(dcds, s, &mut pool)
                    .into_iter()
                    .map(|(a, sigma, _, next)| (a, sigma, next))
                    .collect()
            },
            bad,
            depth,
            node_budget,
            counters,
        )
    };
    found.map(|(states, actions)| Trace {
        states,
        actions,
        pool,
    })
}

/// One trace step: the action fired and the assignment it fired under.
type Step = (ActionId, Assignment);
/// BFS search node: (state, parent index, action from parent).
type SearchNode<S> = (S, usize, Option<Step>);

/// Generic breadth-first search over either state representation.
fn bfs<S: Ord + Clone>(
    start: S,
    instance_of: impl Fn(&S) -> Instance,
    mut successors: impl FnMut(&S) -> Vec<(ActionId, Assignment, S)>,
    bad: &CompiledPlan,
    depth: usize,
    node_budget: usize,
    counters: &mut SymCounters,
) -> Option<(Vec<Instance>, Vec<Step>)> {
    let mut nodes: Vec<SearchNode<S>> = vec![(start.clone(), 0, None)];
    let mut visited: BTreeSet<S> = BTreeSet::new();
    visited.insert(start);
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new(); // (node ix, depth)
    queue.push_back((0, 0));
    while let Some((ix, d)) = queue.pop_front() {
        counters.confirm_nodes += 1;
        let inst = instance_of(&nodes[ix].0);
        if bad.holds(&EvalCtx::scan(&inst), &Assignment::new()) {
            return Some(unwind(&nodes, ix, &instance_of));
        }
        if d >= depth || nodes.len() >= node_budget {
            continue;
        }
        let state = nodes[ix].0.clone();
        for (a, sigma, next) in successors(&state) {
            if visited.insert(next.clone()) {
                nodes.push((next, ix, Some((a, sigma))));
                queue.push_back((nodes.len() - 1, d + 1));
            }
        }
    }
    None
}

fn unwind<S>(
    nodes: &[SearchNode<S>],
    mut ix: usize,
    instance_of: &impl Fn(&S) -> Instance,
) -> (Vec<Instance>, Vec<Step>) {
    let mut states = Vec::new();
    let mut actions = Vec::new();
    loop {
        let (state, parent, step) = &nodes[ix];
        states.push(instance_of(state));
        match step {
            Some((a, sigma)) => {
                actions.push((*a, sigma.clone()));
                ix = *parent;
            }
            None => break,
        }
    }
    states.reverse();
    actions.reverse();
    (states, actions)
}

/// Render a trace for human consumption (stderr of the CLI).
pub fn render_trace(trace: &Trace, dcds: &Dcds) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, state) in trace.states.iter().enumerate() {
        if i == 0 {
            let _ = writeln!(out, "  state 0 (initial):");
        } else {
            let (action, sigma) = &trace.actions[i - 1];
            let name = &dcds.process.action(*action).name;
            let args: Vec<String> = sigma
                .iter()
                .map(|(v, c)| format!("{}={}", v.name(), trace.pool.name(*c)))
                .collect();
            let _ = writeln!(out, "  state {i} (after {}({})):", name, args.join(", "));
        }
        let shown = dcds_reldata::InstanceDisplay::new(state, &dcds.data.schema, &trace.pool);
        for line in shown.to_string().lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out
}

/// Compile a bad condition into clauses: negation-normal form, then
/// disjunctive normal form, each disjunct one clause. Universal
/// quantification and negated relational atoms are outside the fragment.
pub fn clauses_from_bad(f: &Formula) -> Result<Vec<Clause>, String> {
    // Pre-bind the free variables so they co-refer across disjuncts and
    // quantifier push/pop stays properly nested.
    let mut env: Vec<(dcds_folang::Var, u32)> = Vec::new();
    let mut next: u32 = 0;
    for v in f.free_vars() {
        env.push((v, next));
        next += 1;
    }
    let parts = dnf(f, true, &mut env, &mut next)?;
    let mut out = Vec::new();
    for p in parts {
        let clause = Clause {
            atoms: p.atoms,
            eqs: p.eqs,
            neqs: p.neqs,
            level: 0,
        };
        if let Some(n) = clause.normalize() {
            out.push(n);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Default)]
struct Part {
    atoms: Vec<(dcds_reldata::RelId, Vec<crate::clause::STerm>)>,
    eqs: Vec<(crate::clause::STerm, crate::clause::STerm)>,
    neqs: Vec<(crate::clause::STerm, crate::clause::STerm)>,
}

fn merge(a: &Part, b: &Part) -> Part {
    let mut out = a.clone();
    out.atoms.extend(b.atoms.iter().cloned());
    out.eqs.extend(b.eqs.iter().cloned());
    out.neqs.extend(b.neqs.iter().cloned());
    out
}

fn cross(xs: Vec<Part>, ys: Vec<Part>) -> Vec<Part> {
    let mut out = Vec::with_capacity(xs.len() * ys.len());
    for x in &xs {
        for y in &ys {
            out.push(merge(x, y));
        }
    }
    out
}

fn dnf(
    f: &Formula,
    pos: bool,
    env: &mut Vec<(dcds_folang::Var, u32)>,
    next: &mut u32,
) -> Result<Vec<Part>, String> {
    use crate::clause::STerm;
    use dcds_folang::QTerm;
    let term = |t: &QTerm, env: &mut Vec<(dcds_folang::Var, u32)>, next: &mut u32| match t {
        QTerm::Const(c) => STerm::Const(*c),
        QTerm::Var(v) => {
            if let Some((_, id)) = env.iter().rev().find(|(w, _)| w == v) {
                STerm::Var(*id)
            } else {
                let id = *next;
                *next += 1;
                env.push((v.clone(), id));
                STerm::Var(id)
            }
        }
    };
    match (f, pos) {
        (Formula::True, true) | (Formula::False, false) => Ok(vec![Part::default()]),
        (Formula::True, false) | (Formula::False, true) => Ok(Vec::new()),
        (Formula::Atom(rel, ts), true) => {
            let mapped: Vec<_> = ts.iter().map(|t| term(t, env, next)).collect();
            Ok(vec![Part {
                atoms: vec![(*rel, mapped)],
                ..Part::default()
            }])
        }
        (Formula::Atom(rel, _), false) => Err(format!(
            "negated relational atom over relation #{} (clauses are positive-existential)",
            rel.index()
        )),
        (Formula::Eq(a, b), _) => {
            let x = term(a, env, next);
            let y = term(b, env, next);
            let mut p = Part::default();
            if pos {
                p.eqs.push((x, y));
            } else {
                p.neqs.push((x, y));
            }
            Ok(vec![p])
        }
        (Formula::Not(g), _) => dnf(g, !pos, env, next),
        (Formula::And(g, h), true) | (Formula::Or(g, h), false) => {
            let a = dnf(g, pos, env, next)?;
            let b = dnf(h, pos, env, next)?;
            Ok(cross(a, b))
        }
        (Formula::And(g, h), false) | (Formula::Or(g, h), true) => {
            let mut a = dnf(g, pos, env, next)?;
            a.extend(dnf(h, pos, env, next)?);
            Ok(a)
        }
        (Formula::Implies(g, h), true) => {
            let mut a = dnf(g, false, env, next)?;
            a.extend(dnf(h, true, env, next)?);
            Ok(a)
        }
        (Formula::Implies(g, h), false) => {
            let a = dnf(g, true, env, next)?;
            let b = dnf(h, false, env, next)?;
            Ok(cross(a, b))
        }
        (Formula::Exists(v, g), true) | (Formula::Forall(v, g), false) => {
            let scope = env.len();
            let id = *next;
            *next += 1;
            env.push((v.clone(), id));
            let out = dnf(g, pos, env, next);
            env.truncate(scope);
            out
        }
        (Formula::Exists(_, _), false) => {
            Err("universal quantification (negated ∃) in the bad condition".to_owned())
        }
        (Formula::Forall(_, _), true) => {
            Err("universal quantification in the bad condition".to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_folang::QTerm;
    use dcds_reldata::RelId;

    #[test]
    fn dnf_splits_disjunctions() {
        // ∃x. R(x) ∨ S(x, x)
        let f = Formula::exists(
            "X",
            Formula::Atom(RelId::from_index(0), vec![QTerm::var("X")]).or(Formula::Atom(
                RelId::from_index(1),
                vec![QTerm::var("X"), QTerm::var("X")],
            )),
        );
        let cs = clauses_from_bad(&f).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn negated_invariant_compiles_to_neq() {
        // ¬(∀Y. Flag(Y) → Y = c)  ⇒  ∃Y. Flag(Y) ∧ Y ≠ c
        let inv = Formula::forall(
            "Y",
            Formula::Atom(RelId::from_index(0), vec![QTerm::var("Y")]).implies(Formula::eq(
                QTerm::var("Y"),
                QTerm::Const(dcds_reldata::Value::from_index(0)),
            )),
        );
        let bad = Formula::Not(Box::new(inv));
        let cs = clauses_from_bad(&bad).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].atoms.len(), 1);
        assert_eq!(cs[0].neqs.len(), 1);
    }

    #[test]
    fn universals_are_rejected() {
        let f = Formula::forall(
            "X",
            Formula::Atom(RelId::from_index(0), vec![QTerm::var("X")]),
        );
        assert!(clauses_from_bad(&f).is_err());
    }
}

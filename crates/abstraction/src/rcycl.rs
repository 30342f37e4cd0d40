//! Algorithm RCYCL (Appendix C.3): constructing an eventually recycling
//! pruning of the concrete transition system of a DCDS with
//! nondeterministic services.
//!
//! Pseudocode from the paper, realised faithfully:
//!
//! ```text
//! Σ := {I₀}; ⇒ := ∅; UsedValues := ADOM(I₀); Visited := ∅
//! repeat
//!   pick state I ∈ Σ, action α, legal σ with (I, α, σ) ∉ Visited
//!   RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I))
//!   pick V with |V| = |CALLS(DO(I, α, σ))|:
//!     V ⊆ RecyclableValues if enough recyclable values exist,
//!     else V ⊂ C − UsedValues (fresh)
//!   F := ADOM(I₀) ∪ ADOM(I) ∪ V
//!   for each θ ∈ EVALS_F(I, α, σ) with DO(I,α,σ)θ ⊨ E:
//!     Σ ∪= {I_next}; ⇒ ∪= {(I, I_next)}; UsedValues ∪= ADOM(I_next)
//!   Visited ∪= {(I, α, σ)}
//! until Σ and ⇒ no longer change
//! ```
//!
//! The nondeterministic "picks" are resolved deterministically (worklist
//! order; lowest recyclable values first), which Theorem 5.4 explicitly
//! allows ("the particular choices and their order do not matter"). For a
//! state-bounded input every run terminates with a finite eventually
//! recycling pruning `Θ_S ∼ Υ_S`; for state-unbounded inputs we stop at
//! `max_states` and report truncation.
//!
//! `DO(I, ασ)` is run once per triple by the action's compiled program
//! ([`DoRows`], see [`dcds_core::do_op`]): its facts, each term a value or
//! a call slot in `CALLS` order, are the θ loop's template, and the legal
//! σ come as value rows ([`legal_sigmas`]). Three bookkeeping steps are
//! computed without changing their result:
//!
//! * `Σ ∪= {I_next}` looks `I_next` up by its *fact key*, written for
//!   each θ into reused buffers from the template: its facts in
//!   [`Instance::facts`] order, each as `[rel, v₁, …, v_k]` (relation and
//!   value indexes). A relation's arity is fixed by the schema, so equal
//!   keys are equal databases. Only a key no state has yet becomes an
//!   [`Instance`], loaded in one pass from the key's sorted rows, checked
//!   against `E` and, if admitted, moved into the [`Ts`]: every state
//!   kept already satisfies `E` (bar an unvalidated `I₀`, which is
//!   checked).
//! * `UsedValues ∪= ADOM(I_next)` adds `θ(CALLS)` only, and only when `V`
//!   was freshly minted: `ADOM(I_next) ⊆ ADOM(I₀) ∪ ADOM(I) ∪ θ(CALLS)`,
//!   whose first two parts, and a recycled `V`, are already used.
//! * `RecyclableValues` is read from `UsedValues − ADOM(I₀)`, kept as a
//!   sorted vector that grows only with those minted values: per triple,
//!   its first `|CALLS|` values outside `ADOM(I)` are `V`, if it has that
//!   many.
//!
//! **Up to isomorphism** ([`StateKeys::UpToIsomorphism`]), the same loop
//! keeps one state per isomorphism class, the isomorphisms fixing
//! [`Dcds::rigid_constants`] (`ADOM(I₀)`, the spec's and the formula's
//! constants). `Σ ∪= {I_next}` first looks the fact key up, as above; the
//! map remembers every successor seen. On a miss it looks up the
//! successor's canonical key ([`DenseCtx::discrete_key`] over its sorted
//! rows) among the kept classes, and only a miss there too is admitted.
//! The θ generator is unchanged: θ over `F` with `|V| = n` already yields
//! every equality commitment of the calls up to renaming `V`, so, the
//! system being generic, a class representative's successors are those
//! of every state of its class, up to isomorphism. The result is the
//! quotient of the concrete system, bisimilar to it (not
//! persistence-preserving: values are not tracked across steps), and it
//! decides exactly the formulas that read states through closed FO
//! sentences (`dcds_mucalc::is_closed_leaf`). A state-bounded system has
//! finitely many classes, so the search ends wherever RCYCL ends.
//!
//! Two guards keep the keys no dearer than the states they save. Only a
//! successor whose colour refinement is discrete is canonicalised (an
//! isomorphism-invariant test); the others are keyed by their facts
//! alone, which at worst leaves isomorphic duplicates (counted as
//! `rcycl.unkeyed_states`). And the run ends at the first new state the
//! budget drops: a truncated run decides nothing, so keying the rest of
//! its successors would be wasted.

use dcds_core::do_op::{
    do_rows, legal_sigmas, publish_query_stats_delta, query_stats_snapshot, DoRows, DoTerm, Sigma,
};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{Dcds, StateId, Ts};
use dcds_obs::{event, span, Obs, PhaseClock};
use dcds_reldata::{CanonKey, ConstantPool, DenseCtx, Facts, Instance, RelId, Tuple, Value};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Steps whose `EVALS_F` enumeration would exceed this many evaluations
/// are skipped and the result is marked incomplete.
pub const MAX_EVALS_PER_STEP: u32 = 20_000;

/// Whether an `EVALS_F` enumeration of `|f|^n` evaluations exceeds
/// [`MAX_EVALS_PER_STEP`].
pub(crate) fn over_eval_budget(f: usize, n: usize) -> bool {
    (f as f64).powi(n as i32) > f64::from(MAX_EVALS_PER_STEP)
}

/// Result of running RCYCL.
#[derive(Debug)]
pub struct RcyclResult {
    /// The pruning (a transition system over instances).
    pub ts: Ts,
    /// Did the algorithm saturate (true), or hit `max_states` or skip a
    /// step over the evaluation budget (false)?
    pub complete: bool,
    /// Was a new state dropped because `max_states` states were kept?
    pub state_budget_hit: bool,
    /// Number of `(I, α, σ)` triples skipped because their `EVALS_F`
    /// would exceed [`MAX_EVALS_PER_STEP`] evaluations.
    pub eval_budget_skips: usize,
    /// All values ever used (the final `UsedValues`).
    pub used_values: BTreeSet<Value>,
    /// Number of `(I, α, σ)` triples processed.
    pub triples_processed: usize,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
    /// Observability counters: `states_expanded` / `successors_generated`
    /// are the load metrics. With [`StateKeys::Exact`] the
    /// canonicalisation counters stay zero; up to isomorphism,
    /// `canon_keys_computed` counts the successors whose canonical key was
    /// sought (one per exact-key miss, discrete or not).
    pub counters: EngineCounters,
}

/// How RCYCL recognises a successor as a state it already keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKeys {
    /// By its facts, as the paper's RCYCL does: the pruning is
    /// persistence-preserving bisimilar to the system (Thm 5.4), so it
    /// decides µLP.
    Exact,
    /// Up to isomorphisms fixing [`Dcds::rigid_constants`]: a successor
    /// isomorphic to a kept state is that state. The result is the
    /// quotient of the system by those isomorphisms, bisimilar to it, so
    /// it decides closed-leaf formulas only
    /// (`dcds_mucalc::is_closed_leaf`); its states are class
    /// representatives.
    UpToIsomorphism,
}

/// Run Algorithm RCYCL with a state budget and the configured thread count
/// (see [`configured_threads`]).
///
/// The `EVALS_F` enumeration is `|F|^n` for `n` calls per step; steps whose
/// enumeration would exceed an internal budget (2·10^4 evaluations) are
/// skipped and the result is marked incomplete — exactly the honest
/// behaviour for state-unbounded systems such as Example 5.3, whose call
/// count doubles every step. (State-bounded systems sit far below the
/// budget: their per-step call count is fixed by the specification and
/// their `F` recycles a bounded value pool.)
pub fn rcycl(dcds: &Dcds, max_states: usize) -> RcyclResult {
    let (threads, obs) = (configured_threads(), Obs::disabled());
    rcycl_traced(dcds, max_states, threads, StateKeys::Exact, &obs)
}

/// The fact key of `db` (see the module docs).
fn fact_key(db: &Instance) -> Box<[u32]> {
    let mut key = Vec::new();
    for (rel, t) in db.facts() {
        key.push(rel.index() as u32);
        key.extend(t.iter().map(|v| v.index() as u32));
    }
    key.into()
}

/// The θ loop's reused buffers: θ itself, enumerated as an odometer over
/// `F`, and the fact key of the successor `DO(I, ασ)θ`.
#[derive(Default)]
struct ThetaKeys {
    /// θ, indexed by call slot.
    theta: Vec<Value>,
    /// The position in `F` of each `theta` entry.
    digits: Vec<usize>,
    /// The resolved facts as `[rel, v₁…v_k]` rows, in template order.
    rows: Vec<u32>,
    /// The `rows` range of each fact, sorted and deduplicated by content.
    spans: Vec<(usize, usize)>,
    /// The rows of `spans`, concatenated.
    key: Vec<u32>,
}

impl ThetaKeys {
    /// Start at the first θ over `f` for `n` calls: every call mapped to
    /// the least value. `f` is nonempty when `n > 0`.
    fn start(&mut self, n: usize, f: &[Value]) {
        self.theta.clear();
        self.theta.extend((0..n).map(|_| f[0]));
        self.digits.clear();
        self.digits.resize(n, 0);
    }

    /// Step to the next θ in [`evals_over`](dcds_core::nondet::evals_over)
    /// order: the last call fastest, values ascending. False once every θ
    /// has been visited.
    fn advance(&mut self, f: &[Value]) -> bool {
        for i in (0..self.digits.len()).rev() {
            self.digits[i] += 1;
            if self.digits[i] < f.len() {
                self.theta[i] = f[self.digits[i]];
                return true;
            }
            self.digits[i] = 0;
            self.theta[i] = f[0];
        }
        false
    }

    /// Write the fact key of `DO(I, ασ)θ` for the current θ, `tpl` being
    /// `DO(I, ασ)`. Two effects may write the same fact and resolution
    /// can merge two facts, hence the dedup.
    fn build(&mut self, tpl: &DoRows) -> &[u32] {
        self.rows.clear();
        self.spans.clear();
        self.key.clear();
        for (rel, terms) in tpl.facts() {
            let start = self.rows.len();
            self.rows.push(rel.index() as u32);
            self.rows.extend(terms.iter().map(|t| match *t {
                DoTerm::Val(v) => v.index() as u32,
                DoTerm::Call(c) => self.theta[c as usize].index() as u32,
            }));
            self.spans.push((start, self.rows.len()));
        }
        let rows = &self.rows;
        self.spans
            .sort_unstable_by(|a, b| rows[a.0..a.1].cmp(&rows[b.0..b.1]));
        self.spans.dedup_by(|a, b| rows[a.0..a.1] == rows[b.0..b.1]);
        for &(start, end) in &self.spans {
            self.key.extend_from_slice(&rows[start..end]);
        }
        &self.key
    }

    /// The canonical key of the last built successor over `rigid`, when
    /// its colour refinement is discrete ([`DenseCtx::discrete_key`]).
    fn class_key(&self, rigid: &BTreeSet<Value>) -> Option<CanonKey> {
        let facts = || {
            self.spans.iter().map(|&(start, end)| {
                let values = self.rows[start + 1..end].iter();
                (
                    self.rows[start],
                    values.map(|&v| Value::from_index(v as usize)),
                )
            })
        };
        DenseCtx::from_sorted_facts(facts, rigid).discrete_key()
    }

    /// The database of the last built key, loaded in one pass from its
    /// sorted, deduplicated rows.
    fn instance(&self) -> Instance {
        Instance::from_sorted_facts(self.spans.iter().map(|&(start, end)| {
            let rel = RelId::from_index(self.rows[start] as usize);
            let values: Vec<Value> = self.rows[start + 1..end]
                .iter()
                .map(|&v| Value::from_index(v as usize))
                .collect();
            (rel, Tuple::from(values))
        }))
    }
}

/// What one θ contributes to the pruning.
enum Successor {
    /// `DO(I, ασ)θ` violates the constraints.
    Rejected,
    /// A new state, dropped because `max_states` states are kept.
    OverBudget,
    /// The state `DO(I, ασ)θ`, already kept or just admitted.
    State(StateId),
}

/// [`rcycl`] with an explicit worker-thread count, state keys and an
/// observability handle: one span per dequeued state, θ-fan-out metrics,
/// per-phase timers, and rate-limited heartbeats.
///
/// Up to isomorphism ([`StateKeys::UpToIsomorphism`]) the θ loop is the
/// same; only the lookup of a successor changes (see the module docs),
/// and the run ends at the first state the budget drops.
///
/// Output is identical for every `threads` value (including 1, the
/// serial schedule). RCYCL's outer loop cannot be level-parallelised
/// without changing the answer: `UsedValues` evolves per `(I, α, σ)`
/// triple and feeds the very next triple's `RecyclableValues` pick. Only
/// the per-state `DO` programs run on the workers (with
/// [`par_map`](dcds_core::par::par_map), results in triple order). The θ loop is serial: each evaluation θ writes the
/// successor's fact key into reused buffers and looks it up among the
/// kept states' keys, and only a key not seen yet is turned into an
/// [`Instance`] and checked against the constraints.
pub fn rcycl_traced(
    dcds: &Dcds,
    max_states: usize,
    threads: usize,
    state_keys: StateKeys,
    obs: &Obs,
) -> RcyclResult {
    let _run = span!(obs, "rcycl", threads = threads, max_states = max_states);
    let query_stats0 = query_stats_snapshot(dcds);
    let rigid_set = dcds.rigid_constants();
    let quotient = state_keys == StateKeys::UpToIsomorphism;
    let threads = threads.max(1);
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();
    let mut legal_clock = PhaseClock::new(obs);
    let mut do_clock = PhaseClock::new(obs);
    let mut theta_clock = PhaseClock::new(obs);
    let mut admit_clock = PhaseClock::new(obs);
    let mut canon_clock = PhaseClock::new(obs);

    let initial = &dcds.data.initial;
    let mut ts = Ts::new(initial.clone());
    // The kept states by fact key: `Σ`, for `Σ ∪= {I_next}`.
    let mut ids: HashMap<Box<[u32]>, StateId> = HashMap::from([(fact_key(initial), ts.initial())]);
    // Every admitted state passed the constraints, so a key hit needs no
    // check — except on an `I₀` that was never validated against them.
    let initial_id = StateId::from_index(0);
    let initial_ok = dcds.data.satisfies_constraints(initial);
    // Up to isomorphism: the kept states by canonical key, where their
    // refinement is discrete. `I₀`'s values are all rigid, so it has one.
    let mut classes: HashMap<CanonKey, StateId> = HashMap::new();
    if quotient {
        if let Some(key) = Facts::from_instance(initial)
            .dense(&rigid_set)
            .discrete_key()
        {
            classes.insert(key, initial_id);
        }
    }
    let mut unkeyed = 0u64;
    let mut used_values: BTreeSet<Value> = initial.active_domain();
    used_values.extend(rigid_set.iter().copied());
    let rigid: Vec<Value> = rigid_set.iter().copied().collect();
    // UsedValues − ADOM(I₀), ascending. It grows only when a freshly
    // minted V is used; each triple's RecyclableValues is this minus
    // ADOM(I).
    let mut used_nonrigid: Vec<Value> = used_values
        .iter()
        .copied()
        .filter(|v| rigid.binary_search(v).is_err())
        .collect();

    // Worklist of states whose (α, σ) triples are not yet Visited.
    // Legality depends only on I, so one pass per state suffices, and
    // every state is queued exactly once: when it is admitted.
    let mut queue: VecDeque<StateId> = VecDeque::from([initial_id]);
    let mut state_budget_hit = false;
    let mut eval_budget_skips = 0usize;
    let mut triples = 0usize;
    let mut keys = ThetaKeys::default();

    'run: while let Some(sid) = queue.pop_front() {
        counters.states_expanded += 1;
        // No levels to hang events on: report every 1024 dequeued states.
        if counters.states_expanded % 1024 == 0 {
            event!(
                obs,
                "progress",
                engine = "rcycl",
                expanded = counters.states_expanded,
                states = ts.num_states(),
                queued = queue.len(),
                triples = triples,
            );
        }
        let mut state_span = span!(obs, "rcycl_state", queue = queue.len());
        obs.heartbeat(|| {
            format!(
                "rcycl: {} states, {} queued, {} triples processed",
                ts.num_states(),
                queue.len(),
                triples
            )
        });
        let inst = ts.db_shared(sid);
        // ADOM(I), and ADOM(I₀) ∪ ADOM(I) — the part of F every triple
        // shares — ascending.
        let mut adom: Vec<Value> = inst.facts().flat_map(|(_, t)| t.iter()).collect();
        adom.sort_unstable();
        adom.dedup();
        let mut known: Vec<Value> = adom.iter().chain(&rigid).copied().collect();
        known.sort_unstable();
        known.dedup();
        // `DO(I, ασ)` depends only on the state, not on `UsedValues`:
        // run every triple's program in parallel.
        let legal = legal_clock.time(|| legal_sigmas(dcds, &inst));
        let sigmas: Vec<Sigma> = legal.iter().collect();
        let templates: Vec<DoRows> = do_clock.time(|| {
            par_map_obs(&sigmas, threads, obs, "do", |&sigma| {
                let mut rows = DoRows::default();
                do_rows(dcds, &inst, sigma, &mut rows);
                rows
            })
        });
        state_span.set("triples", templates.len() as u64);
        for tpl in &templates {
            triples += 1;
            let n = tpl.num_calls();
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)), in
            // ascending order; V is its first n values if it has n.
            let mut v_set: Vec<Value> = used_nonrigid
                .iter()
                .copied()
                .filter(|v| adom.binary_search(v).is_err())
                .take(n)
                .collect();
            let fresh = v_set.len() < n;
            if fresh {
                // Fresh values from C − UsedValues.
                v_set = (0..n).map(|_| pool.mint("v")).collect();
            }
            // F := ADOM(I₀) ∪ ADOM(I) ∪ V, ascending; V is disjoint from
            // the rest.
            let mut f = known.clone();
            f.extend(v_set);
            f.sort_unstable();
            if over_eval_budget(f.len(), n) {
                eval_budget_skips += 1;
                continue;
            }
            let fanout = f.len().pow(n as u32);
            obs.histogram("rcycl.theta_fanout", fanout as u64);
            if fanout == 0 {
                continue;
            }
            keys.start(n, &f);
            loop {
                let mut found = theta_clock.time(|| ids.get(keys.build(tpl)).copied());
                let mut class = None;
                if found.is_none() && quotient {
                    counters.canon_keys_computed += 1;
                    class = canon_clock.time(|| keys.class_key(&rigid_set));
                    found = class.as_ref().and_then(|k| classes.get(k)).copied();
                    if let Some(id) = found {
                        // An isomorphic copy of a kept state: that state,
                        // remembered under this fact key too.
                        ids.insert(keys.key.as_slice().into(), id);
                    }
                }
                let succ = match found {
                    Some(id) if id == initial_id && !initial_ok => Successor::Rejected,
                    Some(id) => Successor::State(id),
                    None => admit_clock.time(|| {
                        let next = keys.instance();
                        if !dcds.data.satisfies_constraints(&next) {
                            return Successor::Rejected;
                        }
                        if ts.num_states() >= max_states {
                            return Successor::OverBudget;
                        }
                        let id = ts.add_state(next);
                        ids.insert(keys.key.as_slice().into(), id);
                        match class {
                            Some(key) => {
                                classes.insert(key, id);
                            }
                            None => unkeyed += u64::from(quotient),
                        }
                        queue.push_back(id);
                        Successor::State(id)
                    }),
                };
                match succ {
                    Successor::Rejected => {}
                    Successor::OverBudget => {
                        counters.successors_generated += 1;
                        state_budget_hit = true;
                        if quotient {
                            break 'run;
                        }
                    }
                    Successor::State(id) => {
                        counters.successors_generated += 1;
                        // ADOM(I_next) ⊆ ADOM(I) ∪ ADOM(I₀) ∪ θ(CALLS),
                        // and only a freshly minted V adds values.
                        if fresh {
                            for &v in &keys.theta {
                                if used_values.insert(v) {
                                    let at = used_nonrigid.binary_search(&v).unwrap_err();
                                    used_nonrigid.insert(at, v);
                                }
                            }
                        }
                        ts.add_edge(sid, id);
                    }
                }
                if !keys.advance(&f) {
                    break;
                }
            }
        }
    }

    let complete = !state_budget_hit && eval_budget_skips == 0;
    if eval_budget_skips > 0 {
        obs.counter_add("rcycl.eval_budget_skips", eval_budget_skips as u64);
    }
    obs.counter_add("rcycl.triples_processed", triples as u64);
    obs.gauge_max("rcycl.used_values", used_values.len() as i64);
    legal_clock.publish(obs, "rcycl.legal_us");
    do_clock.publish(obs, "rcycl.do_us");
    theta_clock.publish(obs, "rcycl.theta_us");
    admit_clock.publish(obs, "rcycl.admit_us");
    if quotient {
        canon_clock.publish(obs, "rcycl.canon_us");
        obs.counter_add("rcycl.unkeyed_states", unkeyed);
    }
    counters.publish(obs, "rcycl");
    publish_query_stats_delta(dcds, obs, &query_stats0);
    event!(
        obs,
        "progress",
        engine = "rcycl",
        expanded = counters.states_expanded,
        states = ts.num_states(),
        queued = 0u64,
        triples = triples,
    );
    obs.progress_flush(|| {
        format!(
            "rcycl done: {} states, {triples} triples (complete: {complete})",
            ts.num_states()
        )
    });

    RcyclResult {
        ts,
        complete,
        state_budget_hit,
        eval_budget_skips,
        used_values,
        triples_processed: triples,
        pool,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    /// Example 4.3 under nondeterministic services (Example 5.1 / Fig. 7).
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

    /// Example 5.2 (state-unbounded accumulator).
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
    fn example_5_1_terminates_small() {
        // Figure 7b: the pruning is tiny (states of size 1; f's results are
        // recycled). The paper draws 4 states, one per isomorphism class;
        // our deterministic pick order keeps 6 exactly, and up to
        // isomorphism the 4 of the figure.
        let res = rcycl(&example_5_1(), 100);
        assert!(res.complete);
        assert_eq!(res.ts.num_states(), 6);
        assert_eq!(res.ts.max_state_adom(), 1);
        let up_to_iso = rcycl_traced(
            &example_5_1(),
            100,
            1,
            StateKeys::UpToIsomorphism,
            &Obs::disabled(),
        );
        assert!(up_to_iso.complete);
        assert_eq!(up_to_iso.ts.num_states(), 4);
        assert_eq!(up_to_iso.ts.max_state_adom(), 1);
    }

    #[test]
    fn example_5_2_truncates() {
        // State-unbounded: Q accumulates fresh values; RCYCL cannot
        // saturate.
        let res = rcycl(&example_5_2(), 80);
        assert!(!res.complete);
        assert_eq!(res.ts.num_states(), 80);
        // Growing states witness the unboundedness.
        assert!(res.ts.max_state_adom() >= 3);
    }

    #[test]
    fn every_state_satisfies_constraints() {
        let dcds = example_5_1();
        let ts = rcycl(&dcds, 100).ts;
        for s in ts.state_ids() {
            assert!(dcds.data.satisfies_constraints(ts.db(s)));
        }
    }

    #[test]
    fn pruning_is_finitely_branching() {
        let ts = rcycl(&example_5_1(), 100).ts;
        for s in ts.state_ids() {
            assert!(ts.successors(s).len() <= 4);
        }
    }

    #[test]
    fn recycling_bounds_used_values() {
        // For the state-bounded example the total set of used values stays
        // small (3b-style bound), far below what unbounded minting would
        // produce.
        let res = rcycl(&example_5_1(), 100);
        assert!(res.used_values.len() <= 6, "got {}", res.used_values.len());
    }
}

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
//! Two bookkeeping steps are computed without changing their result:
//!
//! * `Σ ∪= {I_next}` looks `I_next` up by its fact key (see
//!   [`StateStorage`]), written for each θ into reused buffers from a
//!   per-triple template of `DO(I, ασ)`. Only a key no state has yet
//!   becomes an [`Instance`] and is checked against `E`: every state kept
//!   already satisfies `E` (bar an unvalidated `I₀`, which is checked).
//! * `UsedValues ∪= ADOM(I_next)` adds `θ(CALLS)` only, and only when `V`
//!   was freshly minted: `ADOM(I_next) ⊆ ADOM(I₀) ∪ ADOM(I) ∪ θ(CALLS)`,
//!   whose first two parts, and a recycled `V`, are already used.
//!
//! The algorithm is written once ([`build`]), generic over the
//! [`StateStorage`] that holds its states; the public entry points pick the
//! storage from the state budget.

use crate::storage::{Owned, StateStorage, Store, OWNED_MAX_STATES};
use dcds_core::do_op::{
    do_action, legal_assignments, publish_query_stats_delta, query_stats_snapshot, PreInstance,
};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{Dcds, GTerm, ServiceCall, StateId, StateSpace};
use dcds_obs::{event, span, Obs, PhaseClock};
use dcds_reldata::{ConstantPool, Instance, RelId, Tuple, Value};
use std::collections::{BTreeSet, VecDeque};

/// Steps whose `EVALS_F` enumeration would exceed this many evaluations
/// are skipped and the result is marked incomplete.
pub const MAX_EVALS_PER_STEP: u32 = 20_000;

/// Whether an `EVALS_F` enumeration of `|f|^n` evaluations exceeds
/// [`MAX_EVALS_PER_STEP`].
pub(crate) fn over_eval_budget(f: usize, n: usize) -> bool {
    (f as f64).powi(n as i32) > f64::from(MAX_EVALS_PER_STEP)
}

/// Result of running RCYCL. `T` is the transition system: a
/// [`StateSpace`] from the public entry points, the storage's own system
/// from [`build`].
#[derive(Debug)]
pub struct RcyclResult<T = StateSpace> {
    /// The pruning (a transition system over instances).
    pub ts: T,
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
    /// Observability counters. RCYCL deduplicates by *exact* instance
    /// equality (the pruning recycles values, so isomorphic states really
    /// are equal), hence the canonicalisation counters stay zero here;
    /// `states_expanded` / `successors_generated` are the load metrics.
    pub counters: EngineCounters,
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
    rcycl_traced(dcds, max_states, configured_threads(), &Obs::disabled())
}

/// [`rcycl`] with an explicit worker-thread count and an observability
/// handle: one span per dequeued state, θ-fan-out metrics, per-phase
/// timers, and rate-limited heartbeats. The storage is picked from the
/// budget: [`Owned`] up to [`OWNED_MAX_STATES`], [`Store`] above.
///
/// Output is identical for every `threads` value (including 1, the
/// serial schedule) and either storage. RCYCL's outer loop cannot be
/// level-parallelised without changing the answer: `UsedValues` evolves
/// per `(I, α, σ)` triple and feeds the very next triple's
/// `RecyclableValues` pick. Only the per-state `DO` precomputation runs
/// on the workers (with [`par_map`](dcds_core::par::par_map), results in
/// triple order). The θ loop is serial: each evaluation θ writes the
/// successor's fact key into reused buffers and probes the storage with
/// it, and only a key the storage has not seen is turned into an
/// [`Instance`] and checked against the constraints.
pub fn rcycl_traced(dcds: &Dcds, max_states: usize, threads: usize, obs: &Obs) -> RcyclResult {
    if max_states <= OWNED_MAX_STATES {
        build::<Owned>(dcds, max_states, threads, obs).map_ts(StateSpace::Owned)
    } else {
        build::<Store>(dcds, max_states, threads, obs).map_ts(StateSpace::Store)
    }
}

impl<T> RcyclResult<T> {
    fn map_ts<U>(self, f: impl FnOnce(T) -> U) -> RcyclResult<U> {
        RcyclResult {
            ts: f(self.ts),
            complete: self.complete,
            state_budget_hit: self.state_budget_hit,
            eval_budget_skips: self.eval_budget_skips,
            used_values: self.used_values,
            triples_processed: self.triples_processed,
            pool: self.pool,
            counters: self.counters,
        }
    }
}

/// `DO(I, ασ)` compiled for the θ loop: each pre-fact as a relation and
/// its terms, a call standing as its slot, its position in
/// [`PreInstance::calls`] order.
struct Template {
    /// `|CALLS(DO(I, ασ))|`.
    calls: usize,
    facts: Vec<(u32, Vec<Slot>)>,
}

/// One term of a [`Template`] fact: a value index, or a call slot.
#[derive(Clone, Copy)]
enum Slot {
    Val(u32),
    Call(usize),
}

impl Template {
    fn new(pre: &PreInstance) -> Template {
        let calls: Vec<ServiceCall> = pre.calls().into_iter().collect();
        let facts = pre
            .facts()
            .map(|(rel, terms)| {
                let slots = terms
                    .iter()
                    .map(|t| match t {
                        GTerm::Val(v) => Slot::Val(v.index() as u32),
                        GTerm::Call(c) => {
                            Slot::Call(calls.binary_search(c).expect("every call is in CALLS"))
                        }
                    })
                    .collect();
                (rel.index() as u32, slots)
            })
            .collect();
        Template {
            calls: calls.len(),
            facts,
        }
    }
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

    /// Write the fact key of `DO(I, ασ)θ` for the current θ. Resolution
    /// can merge two pre-facts, hence the dedup.
    fn build(&mut self, tpl: &Template) -> &[u32] {
        self.rows.clear();
        self.spans.clear();
        self.key.clear();
        for (rel, slots) in &tpl.facts {
            let start = self.rows.len();
            self.rows.push(*rel);
            self.rows.extend(slots.iter().map(|s| match *s {
                Slot::Val(v) => v,
                Slot::Call(c) => self.theta[c].index() as u32,
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

    /// The database of the last built key.
    fn instance(&self) -> Instance {
        Instance::from_facts(self.spans.iter().map(|&(start, end)| {
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

/// RCYCL over an explicit storage `S` — the one body behind [`rcycl`] and
/// [`rcycl_traced`], public so tests and benchmarks can name a storage.
pub fn build<S: StateStorage>(
    dcds: &Dcds,
    max_states: usize,
    threads: usize,
    obs: &Obs,
) -> RcyclResult<S::Ts> {
    let _run = span!(obs, "rcycl", threads = threads, max_states = max_states);
    let query_stats0 = query_stats_snapshot(dcds);
    let rigid = dcds.rigid_constants();
    let threads = threads.max(1);
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();
    let mut do_clock = PhaseClock::new(obs);
    let mut theta_clock = PhaseClock::new(obs);
    let mut admit_clock = PhaseClock::new(obs);

    let initial = &dcds.data.initial;
    let mut storage = S::with_initial_state(dcds, initial);
    // Every admitted state passed the constraints, so a key hit needs no
    // check — except on an `I₀` that was never validated against them.
    let initial_id = StateId::from_index(0);
    let initial_ok = dcds.data.satisfies_constraints(initial);
    let mut used_values: BTreeSet<Value> = initial.active_domain();
    used_values.extend(rigid.iter().copied());

    // Worklist of states whose (α, σ) triples are not yet Visited.
    // Legality depends only on I, so one pass per state suffices, and
    // every state is queued exactly once: when it is admitted.
    let mut queue: VecDeque<StateId> = VecDeque::from([initial_id]);
    let mut state_budget_hit = false;
    let mut eval_budget_skips = 0usize;
    let mut triples = 0usize;
    let mut keys = ThetaKeys::default();

    while let Some(sid) = queue.pop_front() {
        counters.states_expanded += 1;
        // No levels to hang events on: report every 1024 dequeued states.
        if counters.states_expanded % 1024 == 0 {
            event!(
                obs,
                "progress",
                engine = "rcycl",
                expanded = counters.states_expanded,
                states = storage.num_states(),
                queued = queue.len(),
                triples = triples,
            );
        }
        let mut state_span = span!(obs, "rcycl_state", queue = queue.len());
        obs.heartbeat(|| {
            format!(
                "rcycl: {} states, {} queued, {} triples processed",
                storage.num_states(),
                queue.len(),
                triples
            )
        });
        let inst = storage.db(sid);
        let adom = inst.active_domain();
        // ADOM(I₀) ∪ ADOM(I), ascending: the part of F every triple shares.
        let known: Vec<Value> = adom.union(&rigid).copied().collect();
        // `DO(I, ασ)` depends only on the state, not on `UsedValues`:
        // precompute every triple's template in parallel.
        let triples_for_state = legal_assignments(dcds, &inst);
        let templates: Vec<Template> = do_clock.time(|| {
            par_map_obs(&triples_for_state, threads, obs, "do", |(action, sigma)| {
                Template::new(&do_action(dcds, &inst, *action, sigma))
            })
        });
        state_span.set("triples", templates.len() as u64);
        for tpl in &templates {
            triples += 1;
            let n = tpl.calls;
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)), in
            // ascending order.
            let recyclable: Vec<Value> = used_values
                .iter()
                .copied()
                .filter(|v| !rigid.contains(v) && !adom.contains(v))
                .collect();
            let fresh = recyclable.len() < n;
            let v_set: Vec<Value> = if fresh {
                // Fresh values from C − UsedValues.
                (0..n).map(|_| pool.mint("v")).collect()
            } else {
                recyclable.into_iter().take(n).collect()
            };
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
                let found = theta_clock.time(|| storage.lookup(keys.build(tpl)));
                let succ = match found {
                    Some(id) if id == initial_id && !initial_ok => Successor::Rejected,
                    Some(id) => Successor::State(id),
                    None => admit_clock.time(|| {
                        let next = keys.instance();
                        if !dcds.data.satisfies_constraints(&next) {
                            return Successor::Rejected;
                        }
                        if storage.num_states() >= max_states {
                            return Successor::OverBudget;
                        }
                        let id = storage.add_state(sid, &keys.key, next);
                        queue.push_back(id);
                        Successor::State(id)
                    }),
                };
                match succ {
                    Successor::Rejected => {}
                    Successor::OverBudget => {
                        counters.successors_generated += 1;
                        state_budget_hit = true;
                    }
                    Successor::State(id) => {
                        counters.successors_generated += 1;
                        // ADOM(I_next) ⊆ ADOM(I) ∪ ADOM(I₀) ∪ θ(CALLS),
                        // and only a freshly minted V adds values.
                        if fresh {
                            used_values.extend(keys.theta.iter().copied());
                        }
                        storage.add_edge(sid, id);
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
    do_clock.publish(obs, "rcycl.do_us");
    theta_clock.publish(obs, "rcycl.theta_us");
    admit_clock.publish(obs, "rcycl.admit_us");
    counters.publish(obs, "rcycl");
    storage.publish(obs);
    publish_query_stats_delta(dcds, obs, &query_stats0);
    event!(
        obs,
        "progress",
        engine = "rcycl",
        expanded = counters.states_expanded,
        states = storage.num_states(),
        queued = 0u64,
        triples = triples,
    );
    obs.progress_flush(|| {
        format!(
            "rcycl done: {} states, {triples} triples (complete: {complete})",
            storage.num_states()
        )
    });

    RcyclResult {
        ts: storage.finish(),
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
        // recycled). The paper draws 4 states; our deterministic pick order
        // may produce a slightly different—but finite and bisimilar—pruning.
        let res = rcycl(&example_5_1(), 100);
        assert!(res.complete);
        assert!(res.ts.num_states() <= 10, "got {}", res.ts.num_states());
        assert_eq!(res.ts.to_ts().max_state_adom(), 1);
    }

    #[test]
    fn example_5_2_truncates() {
        // State-unbounded: Q accumulates fresh values; RCYCL cannot
        // saturate.
        let res = rcycl(&example_5_2(), 80);
        assert!(!res.complete);
        assert_eq!(res.ts.num_states(), 80);
        // Growing states witness the unboundedness.
        assert!(res.ts.to_ts().max_state_adom() >= 3);
    }

    #[test]
    fn every_state_satisfies_constraints() {
        let dcds = example_5_1();
        let ts = rcycl(&dcds, 100).ts.into_ts();
        for s in ts.state_ids() {
            assert!(dcds.data.satisfies_constraints(ts.db(s)));
        }
    }

    #[test]
    fn pruning_is_finitely_branching() {
        let ts = rcycl(&example_5_1(), 100).ts.into_ts();
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

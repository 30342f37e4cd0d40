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
//! The algorithm is written once ([`build`]), generic over the
//! [`StateStorage`] that holds its states; the public entry points pick the
//! storage from the state budget.

use crate::storage::{Owned, StateStorage, Store, OWNED_MAX_STATES};
use dcds_core::do_op::{
    do_action_indexed, legal_assignments_indexed, publish_query_stats_delta, query_stats_snapshot,
    state_index, PreInstance,
};
use dcds_core::nondet::{evals_over, nondet_step_with_pre};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{Dcds, StateId, StateSpace};
use dcds_obs::{event, span, Obs};
use dcds_reldata::{ConstantPool, Instance, InstanceIndex, Value};
use std::collections::{BTreeSet, VecDeque};

/// Steps whose `EVALS_F` enumeration would exceed this many evaluations
/// are skipped and the result is marked incomplete.
pub(crate) const MAX_EVALS_PER_STEP: f64 = 20_000.0;

/// Result of running RCYCL. `T` is the transition system: a
/// [`StateSpace`] from the public entry points, the storage's own system
/// from [`build`].
#[derive(Debug)]
pub struct RcyclResult<T = StateSpace> {
    /// The pruning (a transition system over instances).
    pub ts: T,
    /// Did the algorithm saturate (true) or hit `max_states` (false)?
    pub complete: bool,
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
/// handle: one span per dequeued state, θ-fan-out metrics, and
/// rate-limited heartbeats. The storage is picked from the budget:
/// [`Owned`] up to [`OWNED_MAX_STATES`], [`Store`] above.
///
/// Output is identical for every `threads` value (including 1, the
/// serial schedule) and either storage. RCYCL's outer loop
/// cannot be level-parallelised without changing the answer: `UsedValues`
/// evolves per `(I, α, σ)` triple and feeds the very next triple's
/// `RecyclableValues` pick. What *is* embarrassingly parallel is the
/// inside of a triple — the up-to-`|F|^n` evaluations θ are independent
/// constraint-checked query evaluations against one shared `DO(I, ασ)`
/// pre-instance — and the per-state `DO` precomputation. Both are farmed
/// out with [`par_map`](dcds_core::par::par_map) and merged serially in
/// enumeration order, so the pruning, `UsedValues`, and the pool match the
/// serial run exactly.
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
            used_values: self.used_values,
            triples_processed: self.triples_processed,
            pool: self.pool,
            counters: self.counters,
        }
    }
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

    let initial = &dcds.data.initial;
    let mut storage = S::with_initial_state(dcds, initial);
    let mut used_values: BTreeSet<Value> = initial.active_domain();
    used_values.extend(rigid.iter().copied());

    // Worklist of states whose (α, σ) triples are not yet Visited, each
    // with its query index if the storage derived one. Legality depends
    // only on I, so one pass per state suffices, and every state is
    // queued exactly once: when it is admitted.
    let mut queue: VecDeque<(StateId, Option<InstanceIndex>)> = VecDeque::new();
    queue.push_back((StateId::from_index(0), None));
    let mut complete = true;
    let mut triples = 0usize;

    while let Some((sid, state_idx)) = queue.pop_front() {
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
        // `DO(I, ασ)` depends only on the state, not on `UsedValues`:
        // precompute every triple's pre-instance in parallel against the
        // state's hash index.
        let state_idx = state_idx.unwrap_or_else(|| state_index(dcds, &inst));
        let triples_for_state = legal_assignments_indexed(dcds, &inst, Some(&state_idx));
        let pres: Vec<PreInstance> =
            par_map_obs(&triples_for_state, threads, obs, "do", |(action, sigma)| {
                do_action_indexed(dcds, &inst, *action, sigma, Some(&state_idx))
            });
        state_span.set("triples", pres.len() as u64);
        for pre in &pres {
            triples += 1;
            let calls = pre.calls();
            let n = calls.len();
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)), in
            // ascending order.
            let recyclable: Vec<Value> = used_values
                .iter()
                .copied()
                .filter(|v| !rigid.contains(v) && !adom.contains(v))
                .collect();
            let v_set: Vec<Value> = if recyclable.len() >= n {
                recyclable.into_iter().take(n).collect()
            } else {
                // Fresh values from C − UsedValues.
                (0..n).map(|_| pool.mint("v")).collect()
            };
            // F := ADOM(I₀) ∪ ADOM(I) ∪ V.
            let mut f_set: BTreeSet<Value> = adom.clone();
            f_set.extend(rigid.iter().copied());
            f_set.extend(v_set.iter().copied());
            if (f_set.len() as f64).powi(n as i32) > MAX_EVALS_PER_STEP {
                complete = false;
                obs.counter_add("rcycl.eval_budget_skips", 1);
                continue;
            }
            // The θ fan-out: independent evaluations of one pre-instance,
            // merged below in enumeration order.
            let thetas = evals_over(&calls, &f_set);
            obs.histogram("rcycl.theta_fanout", thetas.len() as u64);
            let nexts: Vec<Option<Instance>> =
                par_map_obs(&thetas, threads, obs, "theta", |theta| {
                    nondet_step_with_pre(dcds, pre, theta)
                });
            for next in nexts.into_iter().flatten() {
                counters.successors_generated += 1;
                let next_id = match storage.lookup(&next) {
                    Ok(id) => id,
                    Err(probe) => {
                        if storage.num_states() >= max_states {
                            complete = false;
                            continue;
                        }
                        let id = storage.add_state(sid, &next, probe);
                        let index = storage.child_index(id, &next, Some(&state_idx));
                        queue.push_back((id, index));
                        id
                    }
                };
                used_values.extend(next.active_domain());
                storage.add_edge(sid, next_id);
            }
        }
    }

    obs.counter_add("rcycl.triples_processed", triples as u64);
    obs.gauge_max("rcycl.used_values", used_values.len() as i64);
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

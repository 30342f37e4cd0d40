//! Abstract transition system for deterministic services (Theorem 4.3).
//!
//! The concrete system is infinitely branching: at each step the new
//! service calls may return any constants. The abstraction keeps, per
//! reachable state and legal `ασ`, *one successor per equality commitment*
//! of the new calls against the state's known values, and then quotients
//! states by isomorphism of the full `⟨I, M⟩` structure (database + call
//! map) fixing the rigid constants. Theorem 4.3: for run-bounded systems
//! the result is finite and history-preserving bisimilar to the concrete
//! transition system; our tests machine-check instances of that statement
//! with the `dcds-bisim` checkers against bounded concrete prefixes.
//!
//! # Construction
//!
//! The construction ([`det_abstraction_traced`]) writes its states into a
//! [`Ts`], which shares each admitted state's instance with the frontier
//! that expands it. The BFS is **level-synchronised**;
//! each level is stepped in `level_chunk`-sized batches of frontier states,
//! and each batch runs four phases — two parallel passes between serial
//! ones — so the expensive work parallelises while every order-sensitive
//! effect stays serial:
//!
//! 1. *enumerate* (parallel): per frontier state, the legal σ as value
//!    rows ([`legal_sigmas`]), `DO(I, ασ)` run by the action's compiled
//!    program ([`do_rows`]) and split into its base and its call-bearing
//!    facts ([`SplitDo`]), the base checked once against the constraints
//!    that have a delta check, and the equality commitments of the new
//!    calls ([`SplitDo::commitments`]) — none of which touch the constant
//!    pool. The enumeration first filters the known targets: a
//!    call-bearing fact with one new call `c` that violates such a
//!    constraint on its own when `c ↦ v` rules out `Known(v)` for `c`, and
//!    every commitment it rules out is counted but never built. Whether a
//!    fact violates on its own is decided once per run for each fact
//!    template: its relation, rigid values and equality pattern
//!    ([`SoloViolations`]);
//! 2. *mint* (serial, frontier order): instantiate each kept commitment's
//!    fresh cells from the shared [`ConstantPool`], after minting the
//!    values the dropped commitments before it would have minted, so the
//!    pool (and every printed name) is what minting every commitment gives;
//! 3. *step* (parallel, over all `(state, ασ, kept commitment)` tasks):
//!    the screen ([`SplitDo::screen`]) resolves only the call-bearing
//!    facts into a small delta and decides those constraints on the guard
//!    rows that use a delta fact, so a rejected commitment builds nothing.
//!    Survivors get their instance, the full check of the other
//!    constraints and their call map ([`SplitDo::materialise`]), and the
//!    dense form of their `⟨I, M⟩` encoding ([`DetState::dense`]), built
//!    once and read by both the invariant signature
//!    ([`DenseCtx::signature`]) and, when the class index already has a
//!    matching signature bucket (here or in the merge), the canonical key.
//!    The result equals the definitional
//!    [`det_step_with_pre`](dcds_core::det::det_step_with_pre)'s;
//! 4. *merge* (serial, task order): deduplicate against the class index,
//!    admit new classes to the [`Ts`] and their
//!    [`Facts`] encoding to the index (a
//!    successor that is a dedup hit never builds one), record edges, apply
//!    the state budget.
//!
//! With observability on, each worker times its frontier state's
//! enumeration and its task's screen, materialisation, encoding and key,
//! and the level sums them into one `abs.enumerate_us` /
//! `abs.screen_us` / `abs.materialise_us` / `abs.encode_us` /
//! `abs.key_us` sample per level (`abs.key_us` also covers the merge's
//! own keys). Three counters follow the commitments: `abs.commitments`
//! counts every equality commitment, `abs.commitments_rejected` the ones
//! the constraints reject (those the phase-1 filter drops, and those the
//! screen or the full check rejects), and `abs.commitments_built` the ones
//! that became step tasks.
//!
//! Chunking bounds the per-level scratch (split pre-instances, stepped
//! successors) on wide levels. Because phases 2 and 4 run in global
//! frontier/task order, the output (`Ts`, outcome, pool, counters) is
//! **bit-identical for every thread count and chunk size** —
//! `dcds_core::par::par_map` returns results in input order regardless of
//! scheduling. The determinism and differential tests assert this.
//!
//! # Deduplication
//!
//! The class index groups isomorphism classes by their cheap
//! [`Facts::signature`](dcds_reldata::Facts::signature) and keeps an exact-match `HashMap<CanonKey, _>`
//! in front of the groups. A successor whose signature group is empty is
//! provably a new class — no canonicalisation happens at all (the common
//! case; see the `sig_filter_skips` counter). Only on a signature hit is
//! the canonical key computed (lazily for the probe, and once, ever, for
//! each resident class), after which a single hash probe of
//! the exact map decides membership: the per-probe cost is independent of
//! how many classes share the signature. The branch-and-bound key search
//! handles symmetric instances in a single descent, so *every* class is
//! keyed.

use dcds_core::commitment::{instantiate, skip_mints, Enumerated};
use dcds_core::det::{DetState, SoloViolations, SplitDo};
use dcds_core::do_op::{
    do_rows, legal_sigmas, publish_query_stats_delta, query_stats_snapshot, DoRows,
};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{Dcds, ServiceCall, StateId, Ts};
use dcds_obs::{event, span, Obs, PhaseClock};
use dcds_reldata::{CanonKey, CanonStats, ConstantPool, DenseCtx, Facts, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Whether an abstraction construction saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsOutcome {
    /// The iso-quotient BFS saturated: the abstraction is exact.
    Complete,
    /// The state limit was hit — consistent with (though not proof of)
    /// run-unboundedness.
    Truncated,
}

/// The result of the deterministic abstraction.
#[derive(Debug)]
pub struct DetAbstraction {
    /// The abstract transition system (states labeled by instances).
    pub ts: Ts,
    /// Saturated or truncated.
    pub outcome: AbsOutcome,
    /// The constant pool extended with the representative fresh values the
    /// construction minted (needed to display the states).
    pub pool: ConstantPool,
    /// Observability counters (exact and thread-count independent).
    pub counters: EngineCounters,
}

/// Options for [`det_abstraction_traced`].
#[derive(Debug, Clone, Copy)]
pub struct AbsOptions {
    /// Worker threads for the parallel phases. `1` is the serial engine
    /// (same output, no worker pool).
    pub threads: usize,
    /// Frontier states stepped per batch inside one BFS level. Bounds the
    /// transient per-level scratch (pre-instances, stepped successors)
    /// without altering any output: all serial decisions still run in
    /// global frontier/task order. `0` is treated as `1`.
    pub level_chunk: usize,
}

/// Default [`AbsOptions::level_chunk`]: small enough that a 100k-wide
/// frontier's scratch stays in the tens of megabytes, large enough that
/// parallel phases keep every worker busy.
pub const DEFAULT_LEVEL_CHUNK: usize = 4096;

impl Default for AbsOptions {
    fn default() -> Self {
        AbsOptions {
            threads: configured_threads(),
            level_chunk: DEFAULT_LEVEL_CHUNK,
        }
    }
}

/// Build the deterministic abstract transition system, up to `max_states`
/// isomorphism classes, with default options.
pub fn det_abstraction(dcds: &Dcds, max_states: usize) -> DetAbstraction {
    det_abstraction_traced(dcds, max_states, AbsOptions::default(), &Obs::disabled())
}

/// One signature's isomorphism classes, split by key status.
#[derive(Debug, Default)]
struct SigGroup {
    /// Number of member classes.
    members: u64,
    /// Admitted without a key attempt; lazily keyed (once, ever) when a
    /// keyed probe first collides with this signature.
    unkeyed: Vec<usize>,
    /// Number of members whose key lives in the exact-match map.
    keyed: u64,
}

/// Fold one canonical-key computation into the engine counters.
fn credit_canon(counters: &mut EngineCounters, stats: CanonStats) {
    counters.canon_keys_computed += 1;
    counters.canon_orders_enumerated += stats.orders_enumerated;
    counters.canon_prune_cutoffs += stats.prune_cutoffs;
}

/// Index of the isomorphism classes seen so far: an exact-match map over
/// canonical keys in front of signature groups. Each class keeps its
/// representative's [`Facts`], read only when a lazy key needs them.
///
/// Canonical keys are computed lazily: a class admitted through an empty
/// signature group never pays for canonicalisation unless a later probe
/// collides with its signature. Keyed classes are found with **one hash
/// probe** of the global `exact` map — equal keys imply isomorphism,
/// index classes are pairwise non-isomorphic, and isomorphic fact sets
/// share a signature, so at most one class can match and a hit is always
/// inside the probe's own signature group. The pruned key search succeeds
/// on every input, so each class is keyed at most once, ever, and no
/// probe needs a pairwise isomorphism check.
///
/// Counter semantics: a probe into an empty signature group counts one
/// `sig_filter_skips`, and `canon_keys_computed` counts every key search
/// exactly once (with `canon_orders_enumerated` / `canon_prune_cutoffs`
/// summing the search effort).
struct ClassIndex {
    rigid: BTreeSet<Value>,
    /// Per class: the fact encoding of its representative.
    classes: Vec<Facts>,
    /// Canonical key → class, global across signatures.
    exact: HashMap<CanonKey, usize>,
    /// Signature → its classes, grouped by key status.
    groups: HashMap<u64, SigGroup>,
}

impl ClassIndex {
    fn new(rigid: BTreeSet<Value>) -> Self {
        ClassIndex {
            rigid,
            classes: Vec::new(),
            exact: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    /// Is this signature's group non-empty? (Workers consult the
    /// level-start snapshot to decide whether to canonicalise eagerly.)
    fn bucket_occupied(&self, sig: u64) -> bool {
        self.groups.get(&sig).is_some_and(|g| g.members > 0)
    }

    /// Find the class of the fact set whose dense form is `probe`, if
    /// already present. `probe_key` carries a key a worker may have
    /// computed speculatively (`None` = not attempted); the slot is filled
    /// in from `probe` if the merge has to compute one, so a subsequent
    /// [`ClassIndex::insert`] can reuse it.
    fn find(
        &mut self,
        probe: &DenseCtx,
        sig: u64,
        probe_key: &mut Option<CanonKey>,
        counters: &mut EngineCounters,
        key_clock: &mut PhaseClock,
    ) -> Option<usize> {
        let ClassIndex {
            rigid,
            classes,
            exact,
            groups,
        } = self;
        let Some(group) = groups.get_mut(&sig).filter(|g| g.members > 0) else {
            // The signature proves the class is new.
            counters.sig_filter_skips += 1;
            return None;
        };
        // Materialise the probe's key on first need.
        let pk = probe_key.get_or_insert_with(|| {
            let (k, stats) = key_clock.time(|| probe.canonical_key_stats());
            credit_canon(counters, stats);
            k
        });
        // Key every unkeyed resident of the group — each at most once over
        // the whole construction — so the exact-map probe below replaces a
        // scan of the group.
        for ix in std::mem::take(&mut group.unkeyed) {
            let (ck, stats) = key_clock.time(|| classes[ix].canonical_key_stats(rigid));
            credit_canon(counters, stats);
            exact.insert(ck, ix);
            group.keyed += 1;
        }
        exact.get(pk).copied()
    }

    /// Admit a new class. `probe_key` is whatever [`ClassIndex::find`] (or
    /// a worker) computed — possibly nothing, which is the signature fast
    /// path's whole point.
    fn insert(&mut self, class: Facts, sig: u64, probe_key: Option<CanonKey>) {
        let ix = self.classes.len();
        self.classes.push(class);
        let group = self.groups.entry(sig).or_default();
        group.members += 1;
        match probe_key {
            Some(k) => {
                self.exact.insert(k, ix);
                group.keyed += 1;
            }
            None => group.unkeyed.push(ix),
        }
    }
}

/// A frontier state: its id and its `⟨I, M⟩` structure, whose instance the
/// [`Ts`] shares (dropped once the level is expanded).
struct FrontierState {
    id: StateId,
    state: DetState,
}

/// What the parallel enumeration phase computes per `(state, ασ)`: the
/// split `DO(I, ασ)` and the equality commitments over its new calls that
/// no single fact rules out.
type EnumeratedStep = (SplitDo, Enumerated);

/// One phase-3 task: a `(frontier state, ασ, commitment)` triple with its
/// minted evaluation choice.
struct StepTask<'a> {
    frontier_ix: usize,
    split: &'a SplitDo,
    choice: BTreeMap<ServiceCall, Value>,
}

/// A stepped successor awaiting the serial merge. Its
/// [`Facts`](dcds_reldata::Facts) encoding
/// is built only if the merge admits it as a new class.
struct Successor {
    state: DetState,
    /// The dense form of the state, for a key the merge may have to
    /// compute.
    dense: DenseCtx,
    sig: u64,
    /// The eagerly-computed canonical key, with the search stats the merge
    /// will account for in task order.
    key: Option<(CanonKey, CanonStats)>,
}

/// A step task's outcome: `None` when the commitment representative
/// violates the constraints.
type Stepped = Option<Successor>;

/// The det phase timers: each worker times its own task, and the merge
/// sums them into one sample per level (inert while obs is off).
struct PhaseClocks {
    /// Phase 1 per frontier state: legal `ασ`, `DO`, [`SplitDo::new`] and
    /// the commitments.
    enumerate: PhaseClock,
    /// Resolving `Δ` and the delta checks ([`SplitDo::screen`]).
    screen: PhaseClock,
    /// Building a survivor's state ([`SplitDo::materialise`]).
    materialise: PhaseClock,
    /// The dense form and its signature, and the
    /// [`Facts`](dcds_reldata::Facts) encoding of a
    /// successor the merge admits.
    encode: PhaseClock,
    /// Canonical keys, in the step and in the merge.
    key: PhaseClock,
}

impl PhaseClocks {
    fn new(obs: &Obs) -> PhaseClocks {
        PhaseClocks {
            enumerate: PhaseClock::new(obs),
            screen: PhaseClock::new(obs),
            materialise: PhaseClock::new(obs),
            encode: PhaseClock::new(obs),
            key: PhaseClock::new(obs),
        }
    }

    fn absorb(&mut self, task: PhaseClocks) {
        self.enumerate.absorb(task.enumerate);
        self.screen.absorb(task.screen);
        self.materialise.absorb(task.materialise);
        self.encode.absorb(task.encode);
        self.key.absorb(task.key);
    }

    fn publish(self, obs: &Obs) {
        self.enumerate.publish(obs, "abs.enumerate_us");
        self.screen.publish(obs, "abs.screen_us");
        self.materialise.publish(obs, "abs.materialise_us");
        self.encode.publish(obs, "abs.encode_us");
        self.key.publish(obs, "abs.key_us");
    }
}

/// [`det_abstraction`] with explicit options and an observability handle:
/// an overall span, one `frontier_level` span per BFS level,
/// frontier/dedup metrics, and rate-limited heartbeats. With a disabled
/// handle there are no clock reads and no recording.
///
/// Output is identical for every `opts.threads` value (including 1); see
/// the module docs. The registry is only updated from the serial phases,
/// so every metric except the `*_us` timing histograms is bit-identical
/// at every thread count.
pub fn det_abstraction_traced(
    dcds: &Dcds,
    max_states: usize,
    opts: AbsOptions,
    obs: &Obs,
) -> DetAbstraction {
    let _run = span!(
        obs,
        "det_abstraction",
        threads = opts.threads,
        max_states = max_states
    );
    let query_stats0 = query_stats_snapshot(dcds);
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let threads = opts.threads.max(1);
    let level_chunk = opts.level_chunk.max(1);
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();

    let s0 = DetState::initial(dcds);
    let f0 = s0.to_facts(num_rels);
    let dense0 = f0.dense(&rigid);
    let sig0 = dense0.signature();
    let (key0, stats0) = dense0.canonical_key_stats();
    credit_canon(&mut counters, stats0);
    let mut ts = Ts::new_shared(Arc::clone(&s0.instance));
    let mut index = ClassIndex::new(rigid.clone());
    let solo = SoloViolations::new(dcds, &rigid);
    index.insert(f0, sig0, Some(key0));

    let mut frontier = vec![FrontierState {
        id: StateId::from_index(0),
        state: s0,
    }];
    let mut outcome = AbsOutcome::Complete;
    let mut level = 0usize;
    let (mut commitments, mut rejected, mut built) = (0u64, 0u64, 0u64);

    while !frontier.is_empty() {
        counters.states_expanded += frontier.len() as u64;
        let mut level_span = span!(
            obs,
            "frontier_level",
            level = level,
            frontier = frontier.len()
        );
        obs.histogram("abs.frontier_states", frontier.len() as u64);
        obs.gauge_max("abs.max_frontier", frontier.len() as i64);
        obs.heartbeat(|| {
            format!(
                "abstraction level {level}: frontier {}, {} classes total",
                frontier.len(),
                ts.num_states()
            )
        });

        let mut next_frontier: Vec<FrontierState> = Vec::new();
        let mut dedup_hits = 0u64;
        let mut edges_added = 0u64;
        let mut clocks = PhaseClocks::new(obs);
        for chunk in frontier.chunks(level_chunk) {
            // Phase 1 (parallel): legal assignments, the split `DO` (with
            // its base checked once), and the commitments no single fact
            // rules out, per frontier state. Nothing here touches the pool.
            let (enumerated, enumerate_clocks): (Vec<Vec<EnumeratedStep>>, Vec<PhaseClock>) =
                par_map_obs(chunk, threads, obs, "enumerate", |entry| {
                    let state = &entry.state;
                    let mut clock = PhaseClock::new(obs);
                    let steps = clock.time(|| {
                        let known = state.known_targets(&rigid);
                        let mut rows = DoRows::default();
                        legal_sigmas(dcds, &state.instance)
                            .iter()
                            .map(|sigma| {
                                do_rows(dcds, &state.instance, sigma, &mut rows);
                                let split = SplitDo::new(dcds, state, &rows);
                                let commitments = split.commitments(dcds, &known, &solo);
                                (split, commitments)
                            })
                            .collect()
                    });
                    (steps, clock)
                })
                .into_iter()
                .unzip();
            for clock in enumerate_clocks {
                clocks.enumerate.absorb(clock);
            }

            // Phase 2 (serial, frontier order): mint the fresh cells of
            // every commitment, dropped ones included — the exact mint
            // sequence of a serial loop over all of them.
            let mut tasks: Vec<StepTask> = Vec::new();
            for (frontier_ix, per_state) in enumerated.iter().enumerate() {
                for (split, enumerated) in per_state {
                    for (skipped, commitment) in &enumerated.kept {
                        skip_mints(&mut pool, *skipped);
                        tasks.push(StepTask {
                            frontier_ix,
                            split,
                            choice: instantiate(commitment, &mut pool),
                        });
                    }
                    skip_mints(&mut pool, enumerated.trailing_mints);
                    commitments += enumerated.dropped;
                    rejected += enumerated.dropped;
                }
            }

            // Phase 3 (parallel): screen every commitment representative
            // against the constraints, build and encode the survivors, and
            // — on a signature hit against the class index as it stood at
            // the start of the batch — canonicalise eagerly so the serial
            // merge rarely has to.
            let step_timer = obs.timer();
            let stepped: Vec<(Stepped, PhaseClocks)> =
                par_map_obs(&tasks, threads, obs, "step", |task| {
                    let state = &chunk[task.frontier_ix].state;
                    let mut c = PhaseClocks::new(obs);
                    let next = c
                        .screen
                        .time(|| task.split.screen(dcds, &task.choice))
                        .and_then(|delta| {
                            c.materialise
                                .time(|| task.split.materialise(dcds, state, &task.choice, delta))
                        })
                        .map(|state| {
                            let (dense, sig) = c.encode.time(|| {
                                let dense = state.dense(num_rels, &rigid);
                                let sig = dense.signature();
                                (dense, sig)
                            });
                            let key = index
                                .bucket_occupied(sig)
                                .then(|| c.key.time(|| dense.canonical_key_stats()));
                            Successor {
                                state,
                                dense,
                                sig,
                                key,
                            }
                        });
                    (next, c)
                });
            obs.time_us("abs.step_phase_us", step_timer);

            // Phase 4 (serial, task order): deduplicate, admit new classes
            // and record edges.
            let merge_timer = obs.timer();
            commitments += tasks.len() as u64;
            built += tasks.len() as u64;
            for (task, (next, task_clocks)) in tasks.iter().zip(stepped) {
                clocks.absorb(task_clocks);
                let Some(Successor {
                    state: next,
                    dense,
                    sig,
                    key,
                }) = next
                else {
                    rejected += 1;
                    continue;
                };
                let source = chunk[task.frontier_ix].id;
                counters.successors_generated += 1;
                // Worker canonicalised eagerly; account for it exactly once.
                if let Some((_, stats)) = &key {
                    credit_canon(&mut counters, *stats);
                }
                let mut key: Option<CanonKey> = key.map(|(k, _)| k);
                let found = index.find(&dense, sig, &mut key, &mut counters, &mut clocks.key);
                let next_id = match found {
                    Some(class_ix) => {
                        dedup_hits += 1;
                        StateId::from_index(class_ix)
                    }
                    None => {
                        if ts.num_states() >= max_states {
                            outcome = AbsOutcome::Truncated;
                            continue;
                        }
                        let facts = clocks.encode.time(|| next.to_facts(num_rels));
                        let id = ts.add_state_shared(Arc::clone(&next.instance));
                        index.insert(facts, sig, key);
                        next_frontier.push(FrontierState { id, state: next });
                        id
                    }
                };
                ts.add_edge(source, next_id);
                edges_added += 1;
            }
            obs.time_us("abs.merge_phase_us", merge_timer);
        }
        clocks.publish(obs);
        level_span.set("new_classes", next_frontier.len() as u64);
        event!(
            obs,
            "level",
            engine = "det_abstraction",
            level = level,
            frontier = frontier.len(),
            new_classes = next_frontier.len(),
            states = ts.num_states(),
            edges = edges_added,
            dedup_hits = dedup_hits,
        );
        frontier = next_frontier;
        level += 1;
    }

    obs.counter_add("abs.levels", level as u64);
    obs.counter_add("abs.commitments", commitments);
    obs.counter_add("abs.commitments_rejected", rejected);
    obs.counter_add("abs.commitments_built", built);
    counters.publish(obs, "abs");
    publish_query_stats_delta(dcds, obs, &query_stats0);
    obs.progress_flush(|| {
        format!(
            "abstraction done: {} classes, {} levels ({outcome:?})",
            ts.num_states(),
            level
        )
    });

    DetAbstraction {
        ts,
        outcome,
        pool,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    /// [`ClassIndex::find`] with the key clock off.
    fn lookup(
        index: &mut ClassIndex,
        facts: &Facts,
        sig: u64,
        key: &mut Option<CanonKey>,
        counters: &mut EngineCounters,
    ) -> Option<usize> {
        let probe = facts.dense(&index.rigid);
        index.find(&probe, sig, key, counters, &mut PhaseClock::off())
    }

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
            .unwrap()
    }

    fn example_4_2() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_4_3() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn example_4_1_saturates_finite() {
        // Figure 3b: the abstraction of the weakly acyclic Example 4.1 is
        // finite. Initial state + 5 commitment successors (some of which
        // merge deeper), each looping once calls are recorded.
        let abs = det_abstraction(&example_4_1(), 200);
        assert_eq!(abs.outcome, AbsOutcome::Complete);
        // 1 initial + 5 first-level iso classes + their (deterministic)
        // successors which fold back into finitely many classes.
        assert!(abs.ts.num_states() >= 6);
        assert!(abs.ts.num_states() <= 20, "got {}", abs.ts.num_states());
    }

    #[test]
    fn example_4_2_constraint_prunes() {
        // Figure 2b: the equality constraint forces f(a) = a; only g(a)
        // branches (known or fresh): strictly fewer states than Example 4.1.
        let abs1 = det_abstraction(&example_4_1(), 200);
        let abs2 = det_abstraction(&example_4_2(), 200);
        assert_eq!(abs2.outcome, AbsOutcome::Complete);
        assert!(abs2.ts.num_states() < abs1.ts.num_states());
        // Initial state has exactly 2 successors in Figure 2b.
        let ts = abs2.ts;
        assert_eq!(ts.successors(ts.initial()).len(), 2);
    }

    #[test]
    fn example_4_3_truncates() {
        // Figure 4: run-unbounded — the call map keeps growing, no finite
        // quotient exists (Theorem 4.5's discussion); construction truncates.
        let abs = det_abstraction(&example_4_3(), 60);
        assert_eq!(abs.outcome, AbsOutcome::Truncated);
        assert_eq!(abs.ts.num_states(), 60);
    }

    #[test]
    fn abstraction_states_satisfy_constraints() {
        let dcds = example_4_2();
        let ts = det_abstraction(&dcds, 200).ts;
        for s in ts.state_ids() {
            assert!(dcds.data.satisfies_constraints(ts.db(s)));
        }
    }

    #[test]
    fn deterministic_closure_no_new_calls_loop() {
        // Once every issued call is recorded, states self-loop (Figure 3b's
        // bottom row): every non-initial state has at least one successor.
        let ts = det_abstraction(&example_4_1(), 200).ts;
        for s in ts.state_ids() {
            assert!(
                !ts.successors(s).is_empty(),
                "state {s:?} has no successors"
            );
        }
    }

    /// Unary fact sets over explicit raw values, for driving the index
    /// directly.
    fn unary_facts(color: u32, values: &[usize]) -> Facts {
        let mut f = Facts::new();
        for &v in values {
            f.insert(color, dcds_reldata::Tuple::new([Value::from_index(v)]));
        }
        f
    }

    /// A perfect matching on `2n` rigid tags, each pair sharing one fresh
    /// value: facts `E(t_i, v_p)` and `E(t_j, v_p)` for every matched pair
    /// `{i, j}`. Every matching of the same `2n` tags has the same
    /// signature (the signature never relates non-rigid values across
    /// facts), distinct matchings are non-isomorphic (tags are fixed
    /// pointwise), and canonical keys are cheap (each fresh value's rigid
    /// neighbours give it a singleton refinement class).
    fn matching_facts(pairs: &[(usize, usize)], fresh_base: usize) -> Facts {
        let mut f = Facts::new();
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let v = Value::from_index(fresh_base + p);
            f.insert(0, dcds_reldata::Tuple::new([Value::from_index(i), v]));
            f.insert(0, dcds_reldata::Tuple::new([Value::from_index(j), v]));
        }
        f
    }

    /// All perfect matchings of `0..2n`, in a deterministic order, up to
    /// `limit`.
    fn perfect_matchings(tags: &[usize], limit: usize, out: &mut Vec<Vec<(usize, usize)>>) {
        fn rec(
            rest: &[usize],
            acc: &mut Vec<(usize, usize)>,
            limit: usize,
            out: &mut Vec<Vec<(usize, usize)>>,
        ) {
            if out.len() >= limit {
                return;
            }
            let Some((&first, rest)) = rest.split_first() else {
                out.push(acc.clone());
                return;
            };
            for k in 0..rest.len() {
                let mut remaining: Vec<usize> = rest.to_vec();
                let partner = remaining.remove(k);
                acc.push((first, partner));
                rec(&remaining, acc, limit, out);
                acc.pop();
            }
        }
        rec(tags, &mut Vec::new(), limit, out);
    }

    #[test]
    fn empty_group_probe_counters() {
        // An empty-signature-group probe credits the signature filter with
        // one `sig_filter_skips`, without computing any canonical key.
        let rigid = BTreeSet::new();
        let mut index = ClassIndex::new(rigid.clone());
        let mut counters = EngineCounters::default();
        for class in [unary_facts(0, &[0]), unary_facts(0, &[1, 2])] {
            let sig = class.signature(&rigid);
            let mut key = None;
            assert_eq!(
                lookup(&mut index, &class, sig, &mut key, &mut counters),
                None
            );
            index.insert(class, sig, key);
        }
        let probe = unary_facts(1, &[3]);
        let sig = probe.signature(&rigid);
        let before = counters;
        let mut key = None;
        assert_eq!(
            lookup(&mut index, &probe, sig, &mut key, &mut counters),
            None
        );
        assert!(key.is_none(), "empty-group probe must not compute a key");
        let deltas = (
            counters.sig_filter_skips - before.sig_filter_skips,
            counters.canon_keys_computed - before.canon_keys_computed,
        );
        assert_eq!(deltas, (1, 0));
    }

    #[test]
    fn keyed_index_resolves_thousands_of_same_signature_classes() {
        // The collision-heavy regression: perfect matchings of 12 tags all
        // share one signature, so the old per-group linear scan made the
        // k-th admission pay O(k) key comparisons. The exact-match map must
        // resolve every probe with one key per class.
        let tags: Vec<usize> = (0..12).collect();
        let rigid: BTreeSet<Value> = tags.iter().map(|&t| Value::from_index(t)).collect();
        let mut matchings = Vec::new();
        perfect_matchings(&tags, 1500, &mut matchings);
        assert_eq!(matchings.len(), 1500);

        let mut index = ClassIndex::new(rigid.clone());
        let mut counters = EngineCounters::default();
        let sig0 = matching_facts(&matchings[0], 100).signature(&rigid);
        for m in &matchings {
            let facts = matching_facts(m, 100);
            let sig = facts.signature(&rigid);
            assert_eq!(sig, sig0, "matchings must collide on one signature");
            let mut key = None;
            assert_eq!(
                lookup(&mut index, &facts, sig, &mut key, &mut counters),
                None
            );
            index.insert(facts, sig, key);
        }
        // Re-probe every class under a fresh-value renaming: each must hit
        // its own class, purely through the exact map.
        for (expect_ix, m) in matchings.iter().enumerate() {
            let probe = matching_facts(m, 5000 + expect_ix);
            let mut key = None;
            assert_eq!(
                lookup(&mut index, &probe, sig0, &mut key, &mut counters),
                Some(expect_ix)
            );
        }
        // One key per admission probe (the first class is keyed lazily
        // when the second probe collides, the rest at their own probe) and
        // one per re-probe — each class's resident key computed once, ever.
        assert_eq!(
            counters.canon_keys_computed,
            2 * matchings.len() as u64,
            "every key must be computed exactly once"
        );
    }

    #[test]
    fn symmetric_classes_resolve_through_the_exact_map() {
        // Nine interchangeable fresh values defeat colour refinement — the
        // case that used to exceed the permutation budget and fall back to
        // the backtracking matcher. The branch-and-bound search collapses
        // the whole 9! orbit into a single descent, so the probe resolves
        // through the exact-match map.
        let rigid = BTreeSet::new();
        let mut index = ClassIndex::new(rigid.clone());
        let mut counters = EngineCounters::default();
        let a = unary_facts(0, &(100..109).collect::<Vec<_>>());
        let sig = a.signature(&rigid);
        let mut key = None;
        assert_eq!(lookup(&mut index, &a, sig, &mut key, &mut counters), None);
        index.insert(a, sig, key);

        let b = unary_facts(0, &(200..209).collect::<Vec<_>>());
        assert_eq!(b.signature(&rigid), sig);
        let mut key = None;
        assert_eq!(
            lookup(&mut index, &b, sig, &mut key, &mut counters),
            Some(0)
        );
        assert!(key.is_some(), "symmetric class must key successfully");
        // Probe key + lazily keying the resident class.
        assert_eq!(counters.canon_keys_computed, 2);
        // One descent each; transposition pruning cuts the other 9!-1
        // orders with 9*8/2 = 36 cutoffs per key search.
        assert_eq!(counters.canon_orders_enumerated, 2);
        assert_eq!(counters.canon_prune_cutoffs, 72);
    }

    #[test]
    fn signature_fast_path_skips_canonicalisation() {
        // Most dedup probes in a saturating construction are fresh classes:
        // the signature bucket is empty and no canonical key is computed.
        let abs = det_abstraction(&example_4_1(), 200);
        assert!(abs.counters.sig_filter_skips > 0);
        assert!(
            abs.counters.canon_keys_computed < abs.counters.successors_generated + 1,
            "fast path never fired: {:?}",
            abs.counters
        );
        assert!(abs.counters.states_expanded >= abs.ts.num_states() as u64);
    }
}

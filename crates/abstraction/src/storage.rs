//! Where the abstraction engines keep their states.
//!
//! The deterministic abstraction and RCYCL are each written once, generic
//! over a [`Storage`]. The storage decides only how states are held; every
//! decision of the construction
//! (minting, commitments, dedup, the state budget, counters, metrics) is
//! made by the shared engine body, so both storages build the same system
//! state for state and edge for edge.
//!
//! * [`Owned`] keeps one shared [`Instance`] per state in a [`Ts`]. For
//!   RCYCL it also maps each state's fact key to its id. It is the faster
//!   of the two.
//! * [`Store`] keeps each state as a delta over its parent in a
//!   [`StateStore`]. RCYCL's fact keys are looked up in the store's own
//!   interned-fact dedup table. It needs several times less memory, and
//!   its bytes per state stay flat up to millions of states.
//!
//! The public entry points pick the storage from the state budget; see
//! [`OWNED_MAX_STATES`].

use dcds_core::{CompactTs, Dcds, StateId, Ts};
use dcds_obs::Obs;
use dcds_reldata::{FactId, Facts, Instance, StateRef, StateStore, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Largest state budget the public entry points serve with [`Owned`]
/// storage; larger budgets use [`Store`]. It equals the CLI's default
/// `--max-states`.
///
/// Measured on a shared 2-vCPU Xeon VM (release builds, one thread), both
/// storages returning identical states, edges and counters. At or below
/// the threshold, `det_abs::build` / `rcycl::build` on seed-1 specs of the
/// `perfbench/` families (least of 20 alternating runs in one process;
/// `to_ts` converts the store to the owned [`Ts`] the model checker
/// takes):
///
/// | workload            | owned ms | store ms | store `to_ts` ms |
/// |---------------------|----------|----------|------------------|
/// | RCYCL, 3072 states  | 5.0      | 16.1     | 2.2              |
/// | det, 352 states     | 9.4      | 8.6      | 0.5              |
///
/// Above it, the same builds keeping their result (median of 3 runs, one
/// process each; wall time, peak RSS of the process):
///
/// | workload                    | states  | owned           | store           |
/// |-----------------------------|---------|-----------------|-----------------|
/// | det, `service_chain(16)`    | 20 000  | 1.05 s, 144 MiB | 1.22 s, 123 MiB |
/// | det, `service_chain(16)`    | 100 000 | 6.15 s, 422 MiB | 8.11 s, 293 MiB |
/// | RCYCL, `phased_rings(4)`    | 20 000  | 0.09 s, 13 MiB  | 0.20 s, 8.1 MiB |
/// | RCYCL, `phased_rings(4)`    | 80 000  | 0.38 s, 45 MiB  | 0.88 s, 24 MiB  |
///
/// So the store trades 16–130% more time for 1.2–1.9× less memory, and
/// it only wins while the system stays in the store. A caller that needs
/// an owned [`Ts`] holds both at the peak: with the instance layout before
/// sorted fact vectors, `dcds check` on the 80 000-state RCYCL system took
/// 3.2 s / 255 MiB owned against 5.0 s / 256 MiB through the store and
/// `into_ts`. The CLI, whose model checker and dot output take a [`Ts`],
/// therefore builds in [`Owned`] storage at every budget.
pub const OWNED_MAX_STATES: usize = 10_000;

/// How an abstraction engine holds its states: what both engines need.
///
/// State ids are dense and assigned in admission order, starting with the
/// initial state at 0. The deterministic abstraction admits states through
/// [`ClassStorage`] (it deduplicates by isomorphism class itself); RCYCL
/// through [`StateStorage`] (exact equality of databases).
pub trait Storage: Sized + Sync {
    /// The finished transition system.
    type Ts;

    /// Number of states admitted so far.
    fn num_states(&self) -> usize;

    /// Record the edge `from → to` (idempotent).
    fn add_edge(&mut self, from: StateId, to: StateId);

    /// Publish storage-specific metrics.
    fn publish(&self, obs: &Obs);

    /// The finished transition system.
    fn finish(self) -> Self::Ts;
}

/// The deterministic abstraction's view of a [`Storage`]: states are
/// isomorphism-class representatives, each with a handle for the class
/// index.
pub trait ClassStorage: Storage {
    /// What the class index keeps per class.
    type Class: Send + Sync;

    /// A storage holding only the initial state: database `db0` with fact
    /// encoding `facts0`. Returns the initial state's class.
    fn with_initial_class(dcds: &Dcds, db0: &Instance, facts0: Facts) -> (Self, Self::Class);

    /// Admit a new isomorphism class reached from `parent`: database `db`,
    /// fact encoding `facts`.
    fn add_class(&mut self, parent: StateId, db: &Instance, facts: Facts)
        -> (StateId, Self::Class);

    /// The fact encoding of a class's representative.
    fn class_facts<'a>(&'a self, class: &'a Self::Class) -> Cow<'a, Facts>;
}

/// RCYCL's view of a [`Storage`]: states are databases, deduplicated by
/// exact equality of their fact keys.
///
/// A database's *fact key* lists its facts in [`Instance::facts`] order,
/// each written as `[rel, v₁, …, v_k]` (relation and value indexes). A
/// relation's arity is fixed by the schema, so equal keys are equal
/// databases.
pub trait StateStorage: Storage {
    /// A storage holding only the initial state, database `db0`.
    fn with_initial_state(dcds: &Dcds, db0: &Instance) -> Self;

    /// The database of a state.
    fn db(&self, s: StateId) -> Arc<Instance>;

    /// The state whose database has fact key `key`, if any.
    fn lookup(&self, key: &[u32]) -> Option<StateId>;

    /// Admit `db`, whose fact key is `key`, reached from `parent` after
    /// `lookup` missed.
    fn add_state(&mut self, parent: StateId, key: &[u32], db: Instance) -> StateId;
}

/// The fact key of `db` (see [`StateStorage`]).
fn fact_key(db: &Instance) -> Vec<u32> {
    let mut key = Vec::new();
    for (rel, t) in db.facts() {
        key.push(rel.index() as u32);
        key.extend(t.iter().map(|v| v.index() as u32));
    }
    key
}

/// Owned storage: a [`Ts`] of shared instances. An admitted RCYCL state
/// is moved into the [`Ts`], not copied; the dedup map holds its fact key.
#[derive(Debug)]
pub struct Owned {
    ts: Ts,
    /// Exact-database dedup for [`StateStorage`], by fact key; unused
    /// (empty) under [`ClassStorage`].
    ids: HashMap<Box<[u32]>, StateId>,
}

impl Storage for Owned {
    type Ts = Ts;

    fn num_states(&self) -> usize {
        self.ts.num_states()
    }

    fn add_edge(&mut self, from: StateId, to: StateId) {
        self.ts.add_edge(from, to);
    }

    fn publish(&self, _obs: &Obs) {}

    fn finish(self) -> Ts {
        self.ts
    }
}

impl ClassStorage for Owned {
    type Class = Facts;

    fn with_initial_class(_dcds: &Dcds, db0: &Instance, facts0: Facts) -> (Self, Facts) {
        let ts = Ts::new(db0.clone());
        let ids = HashMap::new();
        (Owned { ts, ids }, facts0)
    }

    fn add_class(&mut self, _parent: StateId, db: &Instance, facts: Facts) -> (StateId, Facts) {
        (self.ts.add_state(db.clone()), facts)
    }

    fn class_facts<'a>(&'a self, class: &'a Facts) -> Cow<'a, Facts> {
        Cow::Borrowed(class)
    }
}

impl StateStorage for Owned {
    fn with_initial_state(_dcds: &Dcds, db0: &Instance) -> Self {
        let ts = Ts::new(db0.clone());
        let ids = HashMap::from([(fact_key(db0).into_boxed_slice(), ts.initial())]);
        Owned { ts, ids }
    }

    fn db(&self, s: StateId) -> Arc<Instance> {
        self.ts.db_shared(s)
    }

    fn lookup(&self, key: &[u32]) -> Option<StateId> {
        self.ids.get(key).copied()
    }

    fn add_state(&mut self, _parent: StateId, key: &[u32], db: Instance) -> StateId {
        let id = self.ts.add_state(db);
        self.ids.insert(key.into(), id);
        id
    }
}

/// Compact storage: states as deltas in a [`StateStore`], whose own
/// dedup table answers RCYCL's lookups.
#[derive(Debug)]
pub struct Store {
    store: StateStore,
    /// Store handle of each state, indexed by [`StateId`].
    refs: Vec<StateRef>,
    succ: Vec<Vec<StateId>>,
    /// Colors `< num_rels` are database facts; the rest encode call maps.
    num_rels: u32,
    /// Arity of each relation, to split a fact key into facts.
    arities: Vec<usize>,
    /// The fact ids of the parent last admitted from: a parent's children
    /// arrive consecutively, so it is resolved once for all of them.
    resolved: Option<(StateId, Vec<FactId>)>,
}

impl Store {
    fn insert(&mut self, parent: StateId, facts: &Facts) -> StateId {
        let parent_ref = self.refs[parent.index()];
        if self.resolved.as_ref().map(|(p, _)| *p) != Some(parent) {
            self.resolved = Some((parent, self.store.resolve(parent_ref)));
        }
        let parent_ids = &self.resolved.as_ref().expect("just resolved").1;
        let ins = self.store.insert_child(parent_ref, parent_ids, facts);
        debug_assert!(!ins.existing, "a new state duplicates a stored one");
        let id = StateId::from_index(self.refs.len());
        // `lookup` maps store handles straight back to state ids.
        debug_assert_eq!(ins.state.index(), id.index());
        self.refs.push(ins.state);
        self.succ.push(Vec::new());
        id
    }
}

impl Store {
    fn with_initial(dcds: &Dcds, facts0: &Facts) -> Self {
        let mut store = StateStore::new();
        let r0 = store.insert(None, facts0).state;
        Store {
            store,
            refs: vec![r0],
            succ: vec![Vec::new()],
            num_rels: dcds.data.schema.len() as u32,
            arities: dcds.data.schema.iter().map(|(_, r)| r.arity()).collect(),
            resolved: None,
        }
    }
}

impl Storage for Store {
    type Ts = CompactTs;

    fn num_states(&self) -> usize {
        self.refs.len()
    }

    fn add_edge(&mut self, from: StateId, to: StateId) {
        let out = &mut self.succ[from.index()];
        if !out.contains(&to) {
            out.push(to);
        }
    }

    fn publish(&self, obs: &Obs) {
        let stats = self.store.stats();
        obs.gauge_max("store.bytes", stats.bytes as i64);
        obs.gauge_max("store.facts_interned", stats.facts_interned as i64);
        obs.gauge_max("store.delta_states", stats.delta_states as i64);
    }

    fn finish(self) -> CompactTs {
        CompactTs::from_parts(self.store, self.refs, self.succ, self.num_rels)
    }
}

impl ClassStorage for Store {
    type Class = StateRef;

    fn with_initial_class(dcds: &Dcds, _db0: &Instance, facts0: Facts) -> (Self, StateRef) {
        let store = Store::with_initial(dcds, &facts0);
        let r0 = store.refs[0];
        (store, r0)
    }

    fn add_class(&mut self, parent: StateId, _db: &Instance, facts: Facts) -> (StateId, StateRef) {
        let id = self.insert(parent, &facts);
        (id, self.refs[id.index()])
    }

    fn class_facts<'a>(&'a self, class: &'a StateRef) -> Cow<'a, Facts> {
        Cow::Owned(self.store.facts(*class))
    }
}

impl StateStorage for Store {
    fn with_initial_state(dcds: &Dcds, db0: &Instance) -> Self {
        Store::with_initial(dcds, &Facts::from_instance(db0))
    }

    fn db(&self, s: StateId) -> Arc<Instance> {
        Arc::new(self.store.instance(self.refs[s.index()], self.num_rels))
    }

    fn lookup(&self, key: &[u32]) -> Option<StateId> {
        // Split the key into facts by arity and find their interned ids;
        // a fact never interned is in no stored state.
        let mut ids = Vec::new();
        let mut values = Vec::new();
        let mut rest = key;
        while let Some((&rel, tail)) = rest.split_first() {
            let (args, next) = tail.split_at(self.arities[rel as usize]);
            values.clear();
            values.extend(args.iter().map(|&v| Value::from_index(v as usize)));
            ids.push(self.store.fact_id(rel, &values)?);
            rest = next;
        }
        let r = self.store.find_ids(&ids)?;
        Some(StateId::from_index(r.index()))
    }

    fn add_state(&mut self, parent: StateId, _key: &[u32], db: Instance) -> StateId {
        self.insert(parent, &Facts::from_instance(&db))
    }
}

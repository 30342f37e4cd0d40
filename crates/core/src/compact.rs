//! Transition systems over the compact state store.
//!
//! A [`CompactTs`] is the arena-backed counterpart of [`crate::ts::Ts`]:
//! instead of owning one [`Instance`] per state it holds a
//! [`StateStore`] plus one [`StateRef`] handle per state, so per-state
//! memory is the *delta* a transition made, not the instance. States can
//! still be materialised on demand ([`CompactTs::db`]) and the whole
//! system can be converted to an owned [`Ts`] ([`CompactTs::to_ts`]) —
//! which the differential tests use to assert that both state storages of
//! an abstraction engine build the same system.
//!
//! [`StateSpace`] is either form: what an abstraction engine returns when
//! the storage was picked from its state budget.

use crate::ts::{StateId, Ts};
use dcds_reldata::{Instance, StateRef, StateStore, StoreStats};
use std::borrow::Cow;

/// An explicit transition system whose states live in a [`StateStore`].
#[derive(Debug)]
pub struct CompactTs {
    store: StateStore,
    /// Store handle of each state, indexed by [`StateId`].
    states: Vec<StateRef>,
    succ: Vec<Vec<StateId>>,
    initial: StateId,
    /// Colors `< num_rels` are database facts; the rest (service-call-map
    /// entries, where present) are excluded from [`CompactTs::db`].
    num_rels: u32,
}

impl CompactTs {
    /// Assemble from parts built by an engine. `states[0]` must be the
    /// initial state; `succ` must be parallel to `states`.
    pub fn from_parts(
        store: StateStore,
        states: Vec<StateRef>,
        succ: Vec<Vec<StateId>>,
        num_rels: u32,
    ) -> Self {
        assert_eq!(states.len(), succ.len());
        assert!(
            !states.is_empty(),
            "a transition system has an initial state"
        );
        CompactTs {
            store,
            states,
            succ,
            initial: StateId::from_index(0),
            num_rels,
        }
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Materialise the database labeling a state.
    pub fn db(&self, s: StateId) -> Instance {
        self.store.instance(self.states[s.index()], self.num_rels)
    }

    /// Successors of a state.
    pub fn successors(&self, s: StateId) -> &[StateId] {
        &self.succ[s.index()]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Iterate over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len()).map(StateId::from_index)
    }

    /// Deterministic storage statistics (see [`StoreStats`]).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Materialise the whole system as an owned [`Ts`].
    pub fn to_ts(&self) -> Ts {
        let mut ts = Ts::new(self.db(self.initial));
        for s in self.state_ids().skip(1) {
            ts.add_state(self.db(s));
        }
        for s in self.state_ids() {
            for &t in self.successors(s) {
                ts.add_edge(s, t);
            }
        }
        ts
    }
}

/// A finite transition system in either storage: owned instances (a
/// [`Ts`]) or the compact store (a [`CompactTs`]).
///
/// Equality is structural, as for [`Ts`]: two state spaces are equal when
/// they have the same states in the same order with the same edges,
/// whatever their storage.
#[derive(Debug)]
pub enum StateSpace {
    /// One shared [`Instance`] per state.
    Owned(Ts),
    /// States as deltas in a [`StateStore`].
    Store(CompactTs),
}

impl StateSpace {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        match self {
            StateSpace::Owned(ts) => ts.num_states(),
            StateSpace::Store(ts) => ts.num_states(),
        }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        match self {
            StateSpace::Owned(ts) => ts.num_edges(),
            StateSpace::Store(ts) => ts.num_edges(),
        }
    }

    /// The system as an owned [`Ts`]: borrowed when it already is one,
    /// materialised from the store otherwise.
    pub fn to_ts(&self) -> Cow<'_, Ts> {
        match self {
            StateSpace::Owned(ts) => Cow::Borrowed(ts),
            StateSpace::Store(ts) => Cow::Owned(ts.to_ts()),
        }
    }

    /// [`StateSpace::to_ts`] by value.
    pub fn into_ts(self) -> Ts {
        match self {
            StateSpace::Owned(ts) => ts,
            StateSpace::Store(ts) => ts.to_ts(),
        }
    }

    /// Store statistics, when the states live in a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        match self {
            StateSpace::Owned(_) => None,
            StateSpace::Store(ts) => Some(ts.store_stats()),
        }
    }
}

impl PartialEq for StateSpace {
    fn eq(&self, other: &Self) -> bool {
        self.to_ts() == other.to_ts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::{ConstantPool, Facts, Schema, Tuple};

    #[test]
    fn compact_ts_roundtrips_to_owned_ts() {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let mut store = StateStore::new();
        let mut f0 = Facts::new();
        f0.insert(p.index() as u32, Tuple::from([a]));
        let r0 = store.insert(None, &f0).state;
        let mut f1 = f0.clone();
        f1.insert(p.index() as u32, Tuple::from([b]));
        let r1 = store.insert(Some(r0), &f1).state;
        let compact = CompactTs::from_parts(
            store,
            vec![r0, r1],
            vec![vec![StateId::from_index(1)], vec![StateId::from_index(1)]],
            schema.len() as u32,
        );
        assert_eq!(compact.num_states(), 2);
        assert_eq!(compact.num_edges(), 2);
        let ts = compact.to_ts();
        assert_eq!(ts.num_states(), 2);
        assert_eq!(ts.num_edges(), 2);
        assert!(ts.db(StateId::from_index(1)).contains(p, &Tuple::from([b])));
        assert_eq!(ts.db(compact.initial()), &compact.db(compact.initial()));
    }
}

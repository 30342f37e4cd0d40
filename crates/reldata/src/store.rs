//! Compact state storage: states as fact-id sets, successors as deltas.
//!
//! A [`StateStore`] keeps every explored state either as a **root** — the
//! full sorted vector of interned [`FactId`]s — or as a **delta** over its
//! parent: the sorted fact-id slices added and removed by one transition.
//! Actions touch few relations, so a successor shares almost all of its
//! facts with its parent; storing only the difference makes per-state
//! memory proportional to the *change*, not the instance.
//!
//! Three guards keep resolution cheap and bounded:
//!
//! * a delta at least as large as the state itself is stored as a root
//!   (the delta encoding would not save anything);
//! * delta chains are capped at [`MAX_DELTA_DEPTH`]; a child of a
//!   maximal chain becomes a new root, so [`StateStore::resolve`] is
//!   O(depth · |state|) with a small constant depth;
//! * duplicate states are detected on insertion (hash of the resolved
//!   id vector, verified exactly), so the store never holds two copies
//!   of one state and handles double as cheap state identity.
//!
//! A [`FactsView`] resolves a state to its facts in exactly the order
//! [`crate::Facts`] iterates — sorted by `(color, tuple)` — so
//! [`FactsView::to_facts`] rebuilds the owned set without sorting, and
//! signatures, canonical keys and isomorphism checks are taken on that.

use crate::arena::{FactId, TupleArena};
use crate::{Facts, Instance, RelId, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Handle of a state stored in a [`StateStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateRef(u32);

impl StateRef {
    /// Dense 0-based index of this state in insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maximum delta-chain length before a child is stored as a fresh root.
pub const MAX_DELTA_DEPTH: u32 = 32;

#[derive(Debug)]
enum Node {
    Root {
        facts: Box<[FactId]>,
    },
    Delta {
        parent: StateRef,
        adds: Box<[FactId]>,
        removes: Box<[FactId]>,
        /// Resolved state size (facts), cached for dedup prechecks.
        len: u32,
        /// Chain length to the nearest root.
        depth: u32,
    },
}

/// Deterministic, self-reported store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Estimated heap bytes (arena + nodes + dedup table), derived from
    /// element counts — identical across runs and thread counts.
    pub bytes: usize,
    /// Distinct facts interned in the arena.
    pub facts_interned: usize,
    /// States stored as deltas over their parent.
    pub delta_states: usize,
    /// States stored as full roots.
    pub root_states: usize,
    /// Fact-id slots actually stored (roots + delta adds/removes).
    pub stored_fact_slots: usize,
    /// Fact-id slots the owned path would store (Σ state sizes).
    pub resolved_fact_slots: usize,
}

impl StoreStats {
    /// Total states stored.
    pub fn states(&self) -> usize {
        self.root_states + self.delta_states
    }

    /// Fraction of fact-slots the delta encoding avoided storing,
    /// in `[0, 1)`: `1 − stored / resolved`.
    pub fn delta_share(&self) -> f64 {
        if self.resolved_fact_slots == 0 {
            return 0.0;
        }
        1.0 - self.stored_fact_slots as f64 / self.resolved_fact_slots as f64
    }
}

/// Arena-backed store of states with delta compression and exact dedup.
#[derive(Debug, Default)]
pub struct StateStore {
    arena: TupleArena,
    nodes: Vec<Node>,
    /// Hash of the resolved id vector → states with that hash.
    dedup: HashMap<u64, Vec<StateRef>>,
    stored_fact_slots: usize,
    resolved_fact_slots: usize,
    delta_states: usize,
}

/// Result of [`StateStore::insert`]: the state's handle and whether it
/// was already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inserted {
    /// Handle of the (new or pre-existing) state.
    pub state: StateRef,
    /// `true` iff the state was already in the store.
    pub existing: bool,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        StateStore::default()
    }

    /// Number of states stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store holds no states.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Insert `facts` as a state. With a parent, the state is stored as a
    /// delta when profitable (see module docs); without one, as a root.
    /// Duplicate states return their existing handle.
    pub fn insert(&mut self, parent: Option<StateRef>, facts: &Facts) -> Inserted {
        let ids = self.arena.intern_facts(facts);
        match parent {
            Some(p) => {
                let parent_ids = self.resolve(p);
                self.insert_ids(Some((p, &parent_ids)), ids)
            }
            None => self.insert_ids(None, ids),
        }
    }

    /// [`StateStore::insert`] with the parent's ids already resolved —
    /// lets callers expanding one parent into many children resolve once.
    pub fn insert_child(
        &mut self,
        parent: StateRef,
        parent_ids: &[FactId],
        facts: &Facts,
    ) -> Inserted {
        let ids = self.arena.intern_facts(facts);
        self.insert_ids(Some((parent, parent_ids)), ids)
    }

    fn insert_ids(&mut self, parent: Option<(StateRef, &[FactId])>, ids: Vec<FactId>) -> Inserted {
        let h = TupleArena::hash_ids(&ids);
        if let Some(candidates) = self.dedup.get(&h) {
            for &c in candidates {
                if self.node_len(c) == ids.len() && self.resolve(c) == ids {
                    return Inserted {
                        state: c,
                        existing: true,
                    };
                }
            }
        }
        let state = StateRef(u32::try_from(self.nodes.len()).expect("store overflow: > 4G states"));
        let node = match parent {
            Some((p, parent_ids)) if self.depth(p) < MAX_DELTA_DEPTH => {
                let (adds, removes) = diff_sorted(&self.arena, parent_ids, &ids);
                if adds.len() + removes.len() >= ids.len() {
                    Node::Root {
                        facts: ids.clone().into_boxed_slice(),
                    }
                } else {
                    Node::Delta {
                        parent: p,
                        adds: adds.into_boxed_slice(),
                        removes: removes.into_boxed_slice(),
                        len: ids.len() as u32,
                        depth: self.depth(p) + 1,
                    }
                }
            }
            _ => Node::Root {
                facts: ids.clone().into_boxed_slice(),
            },
        };
        match &node {
            Node::Root { facts } => self.stored_fact_slots += facts.len(),
            Node::Delta { adds, removes, .. } => {
                self.delta_states += 1;
                self.stored_fact_slots += adds.len() + removes.len();
            }
        }
        self.resolved_fact_slots += ids.len();
        self.nodes.push(node);
        self.dedup.entry(h).or_default().push(state);
        Inserted {
            state,
            existing: false,
        }
    }

    fn depth(&self, r: StateRef) -> u32 {
        match &self.nodes[r.index()] {
            Node::Root { .. } => 0,
            Node::Delta { depth, .. } => *depth,
        }
    }

    fn node_len(&self, r: StateRef) -> usize {
        match &self.nodes[r.index()] {
            Node::Root { facts } => facts.len(),
            Node::Delta { len, .. } => *len as usize,
        }
    }

    /// Look a state up by its facts without inserting (or interning)
    /// anything. `None` when no stored state has exactly these facts.
    pub fn find(&self, facts: &Facts) -> Option<StateRef> {
        let mut ids = Vec::with_capacity(facts.len());
        for (c, t) in facts.iter() {
            ids.push(self.fact_id(c, t.values())?);
        }
        self.find_ids(&ids)
    }

    /// The id of the fact `color(values)` if it has been interned. A fact
    /// that was never interned occurs in no stored state.
    pub fn fact_id(&self, color: u32, values: &[Value]) -> Option<FactId> {
        self.arena.get_id(color, values)
    }

    /// [`StateStore::find`] by fact ids, given in the order [`Facts`]
    /// iterates.
    pub fn find_ids(&self, ids: &[FactId]) -> Option<StateRef> {
        let h = TupleArena::hash_ids(ids);
        self.dedup
            .get(&h)?
            .iter()
            .copied()
            .find(|&c| self.node_len(c) == ids.len() && self.resolve(c) == ids)
    }

    /// Resolve `r` to its full sorted fact-id vector.
    pub fn resolve(&self, r: StateRef) -> Vec<FactId> {
        // Collect the delta chain down to the root, then replay upward.
        let mut chain: Vec<StateRef> = Vec::new();
        let mut cur = r;
        let mut base: Vec<FactId> = loop {
            match &self.nodes[cur.index()] {
                Node::Root { facts } => break facts.to_vec(),
                Node::Delta { parent, .. } => {
                    chain.push(cur);
                    cur = *parent;
                }
            }
        };
        for &d in chain.iter().rev() {
            let Node::Delta { adds, removes, .. } = &self.nodes[d.index()] else {
                unreachable!("chain holds delta nodes only");
            };
            base = apply_delta(&self.arena, &base, adds, removes);
        }
        base
    }

    /// A [`FactsView`] of state `r`: facts in `Facts` iteration order.
    pub fn view(&self, r: StateRef) -> FactsView<'_> {
        FactsView {
            arena: &self.arena,
            ids: self.resolve(r),
        }
    }

    /// Materialise state `r` as owned [`Facts`].
    pub fn facts(&self, r: StateRef) -> Facts {
        self.view(r).to_facts()
    }

    /// Materialise the database part of state `r` (colors `< num_rels`)
    /// as an [`Instance`].
    pub fn instance(&self, r: StateRef, num_rels: u32) -> Instance {
        self.view(r).to_instance(num_rels)
    }

    /// Current deterministic statistics.
    pub fn stats(&self) -> StoreStats {
        let node_bytes = self.nodes.len() * std::mem::size_of::<Node>()
            + self.stored_fact_slots * std::mem::size_of::<FactId>();
        // Dedup map: one (u64, Vec) slot per state (×2 load-factor slack)
        // plus one StateRef per state.
        let dedup_bytes = self.nodes.len()
            * (std::mem::size_of::<u64>()
                + std::mem::size_of::<Vec<StateRef>>() * 2
                + std::mem::size_of::<StateRef>());
        StoreStats {
            bytes: self.arena.bytes_estimate() + node_bytes + dedup_bytes,
            facts_interned: self.arena.len(),
            delta_states: self.delta_states,
            root_states: self.nodes.len() - self.delta_states,
            stored_fact_slots: self.stored_fact_slots,
            resolved_fact_slots: self.resolved_fact_slots,
        }
    }
}

/// `(adds, removes)` turning sorted `parent` into sorted `child`.
fn diff_sorted(
    arena: &TupleArena,
    parent: &[FactId],
    child: &[FactId],
) -> (Vec<FactId>, Vec<FactId>) {
    let mut adds = Vec::new();
    let mut removes = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < parent.len() && j < child.len() {
        match arena.cmp(parent[i], child[j]) {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                removes.push(parent[i]);
                i += 1;
            }
            Ordering::Greater => {
                adds.push(child[j]);
                j += 1;
            }
        }
    }
    removes.extend_from_slice(&parent[i..]);
    adds.extend_from_slice(&child[j..]);
    (adds, removes)
}

/// `(base \ removes) ∪ adds`, all inputs and the output sorted by value.
fn apply_delta(
    arena: &TupleArena,
    base: &[FactId],
    adds: &[FactId],
    removes: &[FactId],
) -> Vec<FactId> {
    let mut out = Vec::with_capacity(base.len() + adds.len() - removes.len().min(base.len()));
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < base.len() {
        // Drop facts listed in `removes` (both sorted: two pointers).
        if k < removes.len() && base[i] == removes[k] {
            i += 1;
            k += 1;
            continue;
        }
        // Merge in any adds that sort before the next surviving base fact.
        while j < adds.len() && arena.cmp(adds[j], base[i]) == Ordering::Less {
            out.push(adds[j]);
            j += 1;
        }
        out.push(base[i]);
        i += 1;
    }
    out.extend_from_slice(&adds[j..]);
    out
}

/// A resolved state: facts in [`Facts`] iteration order, borrowed from
/// the arena. The bridge between compact storage and the owned-path
/// entry points (signatures, canonical keys, isomorphism, display).
#[derive(Debug)]
pub struct FactsView<'a> {
    arena: &'a TupleArena,
    ids: Vec<FactId>,
}

impl<'a> FactsView<'a> {
    /// Facts in sorted `(color, tuple)` order — identical to
    /// [`Facts::iter`] on the materialised set.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a Tuple)> + '_ {
        self.ids.iter().map(|&id| self.arena.get(id))
    }

    /// The resolved fact ids (sorted by value).
    pub fn ids(&self) -> &[FactId] {
        &self.ids
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the state has no facts.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Materialise as owned [`Facts`].
    pub fn to_facts(&self) -> Facts {
        Facts::from_facts(self.iter().map(|(c, t)| (c, t.clone())))
    }

    /// Materialise the database part (colors `< num_rels`) as an
    /// [`Instance`].
    pub fn to_instance(&self, num_rels: u32) -> Instance {
        Instance::from_sorted_facts(
            self.iter()
                .take_while(|(c, _)| *c < num_rels)
                .map(|(c, t)| (RelId::from_index(c as usize), t.clone())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstantPool;

    fn vals(pool: &mut ConstantPool, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| pool.intern(n)).collect()
    }

    fn facts_of(entries: &[(u32, &[Value])]) -> Facts {
        let mut f = Facts::new();
        for (c, vs) in entries {
            f.insert(*c, Tuple::new(vs.to_vec()));
        }
        f
    }

    #[test]
    fn roundtrip_root_and_delta() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c"]);
        let mut store = StateStore::new();
        let f0 = facts_of(&[(0, &[v[0]]), (0, &[v[1]]), (1, &[v[0], v[1]])]);
        let r0 = store.insert(None, &f0);
        assert!(!r0.existing);
        assert_eq!(store.facts(r0.state), f0);

        let f1 = facts_of(&[(0, &[v[0]]), (0, &[v[2]]), (1, &[v[0], v[1]])]);
        let r1 = store.insert(Some(r0.state), &f1);
        assert!(!r1.existing);
        assert_eq!(store.facts(r1.state), f1);
        assert_eq!(store.stats().delta_states, 1);
    }

    #[test]
    fn duplicate_states_dedup() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b"]);
        let mut store = StateStore::new();
        let f0 = facts_of(&[(0, &[v[0]])]);
        let f1 = facts_of(&[(0, &[v[0]]), (0, &[v[1]])]);
        let r0 = store.insert(None, &f0);
        let r1 = store.insert(Some(r0.state), &f1);
        // Same facts again, via a different parent route.
        let again = store.insert(Some(r1.state), &f0);
        assert!(again.existing);
        assert_eq!(again.state, r0.state);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn deep_chains_reroot() {
        let mut pool = ConstantPool::new();
        let names: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let v = vals(&mut pool, &refs);
        let mut store = StateStore::new();
        // Growing chain: state k = {v_0..v_k} plus a stable wide base so
        // the delta (1 add) stays profitable.
        let base: Vec<(u32, &[Value])> = (100..200).map(|i| (1u32, &v[i..=i])).collect();
        let mut cur = facts_of(&base);
        cur.insert(0, Tuple::from([v[0]]));
        let mut prev = store.insert(None, &cur).state;
        for value in v.iter().take(80).skip(1) {
            cur.insert(0, Tuple::from([*value]));
            let ins = store.insert(Some(prev), &cur);
            assert!(!ins.existing);
            assert_eq!(store.facts(ins.state), cur);
            prev = ins.state;
        }
        let stats = store.stats();
        // Depth cap forces periodic re-roots: some roots beyond the first.
        assert!(stats.root_states > 1, "expected re-roots, got {stats:?}");
        assert!(stats.delta_states > 0);
        assert!(stats.delta_share() > 0.0);
    }

    #[test]
    fn reroot_fires_exactly_at_max_delta_depth() {
        // Pin the boundary: a chain of k deltas under one root stays
        // all-delta for every k ≤ MAX_DELTA_DEPTH; the first child whose
        // parent sits at depth MAX_DELTA_DEPTH becomes a new root. So a
        // 31-chain and a 32-chain hold one root, a 33-chain holds two.
        let cap = MAX_DELTA_DEPTH as usize;
        for (chain_len, want_roots) in [(cap - 1, 1usize), (cap, 1), (cap + 1, 2)] {
            let mut pool = ConstantPool::new();
            let names: Vec<String> = (0..chain_len + 101).map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let v = vals(&mut pool, &refs);
            let mut store = StateStore::new();
            // Wide stable base keeps every 1-add delta profitable.
            let base: Vec<(u32, &[Value])> = (chain_len + 1..chain_len + 101)
                .map(|i| (1u32, &v[i..=i]))
                .collect();
            let mut cur = facts_of(&base);
            cur.insert(0, Tuple::from([v[0]]));
            let mut prev = store.insert(None, &cur).state;
            let mut states = vec![(prev, cur.clone())];
            for value in v.iter().take(chain_len + 1).skip(1) {
                cur.insert(0, Tuple::from([*value]));
                prev = store.insert(Some(prev), &cur).state;
                states.push((prev, cur.clone()));
            }
            let stats = store.stats();
            assert_eq!(
                stats.root_states, want_roots,
                "chain of {chain_len}: {stats:?}"
            );
            assert_eq!(stats.delta_states, chain_len + 1 - want_roots);
            // Every state along the chain still resolves to its facts.
            for (r, facts) in &states {
                assert_eq!(&store.facts(*r), facts, "chain of {chain_len}");
            }
        }
    }

    #[test]
    fn view_matches_owned_entry_points() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "d"]);
        let mut store = StateStore::new();
        let f0 = facts_of(&[(0, &[v[0], v[1]]), (1, &[v[1]]), (2, &[v[2], v[3]])]);
        let r0 = store.insert(None, &f0).state;
        let view = store.view(r0);
        assert_eq!(view.to_facts(), f0);
        let inst = view.to_instance(2);
        assert_eq!(inst.len(), 2);
        assert!(inst.contains(RelId::from_index(0), &Tuple::from([v[0], v[1]])));
    }
}

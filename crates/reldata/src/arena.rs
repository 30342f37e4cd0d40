//! Global fact interning: each distinct `(color, tuple)` fact is stored
//! once and addressed by a dense 32-bit [`FactId`].
//!
//! The state-space engines materialise millions of states whose fact sets
//! overlap almost entirely — an action touches a handful of tuples, the
//! rest of the instance is carried over verbatim. Owning a `BTreeSet`
//! copy of every fact in every state (as [`crate::Facts`] /
//! [`crate::Instance`] do) makes memory grow with *states × instance
//! size*. The [`TupleArena`] collapses that to *distinct facts*: a state
//! becomes a sorted vector of fact ids (see [`crate::store`]), and the
//! fact payloads — the only part whose size depends on arity — exist
//! exactly once.
//!
//! Determinism contract: ids are assigned in first-interning order, which
//! the engines keep deterministic (facts arrive from serial merge phases
//! or from `Facts` iteration, both fixed orders). All *comparisons* go
//! through [`TupleArena::cmp`], which orders ids by their underlying
//! `(color, tuple)` value — so sorted-id vectors, merges, and diffs are
//! independent of interning order anyway.

use crate::iso::hash2;
use crate::{Facts, Tuple, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Dense handle of an interned `(color, tuple)` fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(u32);

impl FactId {
    /// The dense index of this fact (0-based interning order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interning arena for `(color, tuple)` facts.
///
/// Colors follow the [`crate::Facts`] convention: relation indexes for
/// database facts, `num_rels + f` for service-call-map entries.
#[derive(Debug, Default)]
pub struct TupleArena {
    /// Fact payloads, indexed by `FactId`.
    facts: Vec<(u32, Tuple)>,
    /// Value-hash → candidate ids (collisions resolved by comparing
    /// against `facts`). Keyed by hash so the payload is not duplicated.
    lookup: HashMap<u64, Vec<FactId>>,
    /// Total `Value` slots across interned tuples (for `bytes_estimate`).
    value_slots: usize,
}

fn fact_hash(color: u32, values: &[Value]) -> u64 {
    let mut h = hash2(0xfac7, color as u64);
    for v in values {
        h = hash2(h, v.index() as u64 + 1);
    }
    h
}

impl TupleArena {
    /// An empty arena.
    pub fn new() -> Self {
        TupleArena::default()
    }

    /// Intern one fact, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, color: u32, tuple: &Tuple) -> FactId {
        let h = fact_hash(color, tuple.values());
        let candidates = self.lookup.entry(h).or_default();
        for &id in candidates.iter() {
            let (c, t) = &self.facts[id.index()];
            if *c == color && t == tuple {
                return id;
            }
        }
        let id = FactId(u32::try_from(self.facts.len()).expect("arena overflow: > 4G facts"));
        self.value_slots += tuple.arity();
        self.facts.push((color, tuple.clone()));
        candidates.push(id);
        id
    }

    /// Intern every fact of `facts`. Because [`Facts`] iterates in sorted
    /// `(color, tuple)` order, the returned vector is sorted under
    /// [`TupleArena::cmp`] — no extra sort needed.
    pub fn intern_facts(&mut self, facts: &Facts) -> Vec<FactId> {
        facts.iter().map(|(c, t)| self.intern(c, t)).collect()
    }

    /// The id of the fact `color(values)` if it has been interned,
    /// without interning it.
    pub fn get_id(&self, color: u32, values: &[Value]) -> Option<FactId> {
        let h = fact_hash(color, values);
        self.lookup.get(&h)?.iter().copied().find(|&id| {
            let (c, t) = &self.facts[id.index()];
            *c == color && t.values() == values
        })
    }

    /// The `(color, tuple)` payload of `id`.
    pub fn get(&self, id: FactId) -> (u32, &Tuple) {
        let (c, t) = &self.facts[id.index()];
        (*c, t)
    }

    /// Order two ids by their underlying `(color, tuple)` values — the
    /// same order [`Facts`] iterates in.
    pub fn cmp(&self, a: FactId, b: FactId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.facts[a.index()].cmp(&self.facts[b.index()])
    }

    /// Number of distinct facts interned.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Deterministic estimate of the arena's heap footprint in bytes:
    /// derived from element counts and `size_of`, not from allocator
    /// introspection, so it is identical across runs and thread counts.
    pub fn bytes_estimate(&self) -> usize {
        let payloads = self.facts.len() * std::mem::size_of::<(u32, Tuple)>()
            + self.value_slots * std::mem::size_of::<crate::Value>();
        // One (u64, Vec) map slot plus one FactId per fact; ×2 for the
        // hash map's load-factor slack.
        let lookup = self.facts.len()
            * (std::mem::size_of::<u64>()
                + std::mem::size_of::<Vec<FactId>>() * 2
                + std::mem::size_of::<FactId>());
        payloads + lookup
    }

    /// Hash a value-sorted id vector (used by the store's dedup table).
    pub(crate) fn hash_ids(ids: &[FactId]) -> u64 {
        let mut s = std::collections::hash_map::DefaultHasher::new();
        ids.len().hash(&mut s);
        for id in ids {
            id.0.hash(&mut s);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantPool, Value};

    fn vals(pool: &mut ConstantPool, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| pool.intern(n)).collect()
    }

    #[test]
    fn interning_is_idempotent() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b"]);
        let mut arena = TupleArena::new();
        let t = Tuple::from([v[0], v[1]]);
        let id1 = arena.intern(0, &t);
        let id2 = arena.intern(0, &t);
        assert_eq!(id1, id2);
        assert_eq!(arena.len(), 1);
        // Different color, same tuple: distinct fact.
        let id3 = arena.intern(1, &t);
        assert_ne!(id1, id3);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(id3), (1, &t));
    }

    #[test]
    fn intern_facts_is_value_sorted() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c"]);
        let mut arena = TupleArena::new();
        // Pre-intern in an order unrelated to value order so ids are
        // shuffled relative to values.
        arena.intern(1, &Tuple::from([v[2]]));
        arena.intern(0, &Tuple::from([v[1]]));
        let mut f = Facts::new();
        f.insert(1, Tuple::from([v[2]]));
        f.insert(0, Tuple::from([v[1]]));
        f.insert(0, Tuple::from([v[0]]));
        let ids = arena.intern_facts(&f);
        assert_eq!(ids.len(), 3);
        assert!(ids
            .windows(2)
            .all(|w| arena.cmp(w[0], w[1]) == std::cmp::Ordering::Less));
    }

    #[test]
    fn bytes_estimate_grows_with_interning() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b"]);
        let mut arena = TupleArena::new();
        let b0 = arena.bytes_estimate();
        arena.intern(0, &Tuple::from([v[0], v[1]]));
        assert!(arena.bytes_estimate() > b0);
    }
}

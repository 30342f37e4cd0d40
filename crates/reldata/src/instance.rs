//! Database instances.

use crate::{RelError, RelId, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A database instance: for each relation, a set of tuples.
///
/// Instances are backed by `BTreeMap`/`BTreeSet` so that iteration order —
/// and hence everything derived from it (canonical forms, pretty printing,
/// exploration order) — is deterministic.
///
/// ```
/// use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};
/// let mut pool = ConstantPool::new();
/// let mut schema = Schema::new();
/// let p = schema.add_relation("P", 1).unwrap();
/// let a = pool.intern("a");
/// let mut inst = Instance::new();
/// inst.insert(p, Tuple::from([a]));
/// assert!(inst.contains(p, &Tuple::from([a])));
/// assert_eq!(inst.active_domain(), [a].into_iter().collect());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    rels: BTreeMap<RelId, BTreeSet<Tuple>>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact. Returns true if the fact was not already present.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        self.rels.entry(rel).or_default().insert(tuple)
    }

    /// Remove a fact. Returns true if the fact was present.
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        match self.rels.get_mut(&rel) {
            Some(set) => {
                let removed = set.remove(tuple);
                if set.is_empty() {
                    self.rels.remove(&rel);
                }
                removed
            }
            None => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, rel: RelId, tuple: &Tuple) -> bool {
        self.rels.get(&rel).is_some_and(|set| set.contains(tuple))
    }

    /// Tuples of a relation (empty slice view if none).
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &Tuple> {
        self.rels.get(&rel).into_iter().flatten()
    }

    /// Tuples of a relation whose leading components equal `prefix`, in
    /// iteration order: a range over the sorted tuple set, so its cost is
    /// a logarithmic seek plus the matches. Tuples shorter than `prefix`
    /// never match. An empty prefix yields every tuple of the relation.
    pub fn tuples_with_prefix<'a>(
        &'a self,
        rel: RelId,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = &'a Tuple> {
        use std::ops::Bound::{Included, Unbounded};
        self.rels
            .get(&rel)
            .into_iter()
            .flat_map(move |set| set.range::<[Value], _>((Included(prefix), Unbounded)))
            .take_while(move |t| t.values().starts_with(prefix))
    }

    /// Number of tuples in a relation.
    pub fn cardinality(&self, rel: RelId) -> usize {
        self.rels.get(&rel).map_or(0, BTreeSet::len)
    }

    /// Total number of facts in the instance.
    pub fn len(&self) -> usize {
        self.rels.values().map(BTreeSet::len).sum()
    }

    /// True if the instance contains no facts.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Iterate over all facts `(rel, tuple)` in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.rels
            .iter()
            .flat_map(|(rel, set)| set.iter().map(move |t| (*rel, t)))
    }

    /// Relations with at least one tuple.
    pub fn nonempty_rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.keys().copied()
    }

    /// The active domain `ADOM(I)`: the set of constants occurring in `I`.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut adom = BTreeSet::new();
        for (_, t) in self.facts() {
            adom.extend(t.iter());
        }
        adom
    }

    /// Validate that every fact conforms to the schema's arities.
    pub fn check_schema(&self, schema: &Schema) -> Result<(), RelError> {
        for (rel, t) in self.facts() {
            let expected = schema.arity(rel);
            if t.arity() != expected {
                return Err(RelError::ArityMismatch {
                    relation: schema.name(rel).to_owned(),
                    expected,
                    got: t.arity(),
                });
            }
        }
        Ok(())
    }

    /// Set union of two instances.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (rel, t) in other.facts() {
            out.insert(rel, t.clone());
        }
        out
    }

    /// Add all facts of `other` into `self`.
    pub fn extend_from(&mut self, other: &Instance) {
        for (rel, t) in other.facts() {
            self.insert(rel, t.clone());
        }
    }

    /// True if every fact of `self` occurs in `other`.
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.facts().all(|(rel, t)| other.contains(rel, t))
    }

    /// Apply a value renaming to every fact, producing a new instance.
    /// Values missing from the map are kept unchanged.
    pub fn rename(&self, map: &BTreeMap<Value, Value>) -> Instance {
        let mut out = Instance::new();
        for (rel, t) in self.facts() {
            out.insert(rel, t.rename(map));
        }
        out
    }

    /// Restrict the instance to a subset of relations — the "projection of
    /// the transition system to a schema" used in Theorems 6.1/6.2.
    pub fn project(&self, rels: &BTreeSet<RelId>) -> Instance {
        let mut out = Instance::new();
        for (rel, t) in self.facts() {
            if rels.contains(&rel) {
                out.insert(rel, t.clone());
            }
        }
        out
    }

    /// Build an instance from a list of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = (RelId, Tuple)>) -> Instance {
        let mut out = Instance::new();
        for (rel, t) in facts {
            out.insert(rel, t);
        }
        out
    }

    /// Build an instance from facts given in strictly ascending
    /// `(relation, tuple)` order, in one pass: each relation's set is
    /// filled from its run and stored once, with no lookup per fact.
    pub fn from_sorted_facts(facts: impl IntoIterator<Item = (RelId, Tuple)>) -> Instance {
        let mut rels = BTreeMap::new();
        let mut run: Option<(RelId, BTreeSet<Tuple>)> = None;
        for (rel, t) in facts {
            match &mut run {
                Some((r, set)) if *r == rel => {
                    debug_assert!(
                        set.last().is_some_and(|last| *last < t),
                        "facts not ascending"
                    );
                    set.insert(t);
                }
                _ => {
                    if let Some((r, set)) = run.replace((rel, BTreeSet::from([t]))) {
                        debug_assert!(r < rel, "facts not ascending");
                        rels.insert(r, set);
                    }
                }
            }
        }
        if let Some((r, set)) = run {
            rels.insert(r, set);
        }
        Instance { rels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstantPool;

    fn setup() -> (ConstantPool, Schema, RelId, RelId) {
        let mut pool = ConstantPool::new();
        pool.intern("a");
        pool.intern("b");
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        (pool, schema, p, q)
    }

    #[test]
    fn insert_remove_contains() {
        let (pool, _, p, _) = setup();
        let a = pool.get("a").unwrap();
        let mut inst = Instance::new();
        assert!(inst.insert(p, Tuple::from([a])));
        assert!(!inst.insert(p, Tuple::from([a])));
        assert!(inst.contains(p, &Tuple::from([a])));
        assert!(inst.remove(p, &Tuple::from([a])));
        assert!(inst.is_empty());
    }

    #[test]
    fn active_domain_collects_all_values() {
        let (pool, _, p, q) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let inst = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([a, b]))]);
        let adom = inst.active_domain();
        assert_eq!(adom, [a, b].into_iter().collect());
    }

    #[test]
    fn schema_check_catches_arity_errors() {
        let (pool, schema, p, _) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let bad = Instance::from_facts([(p, Tuple::from([a, b]))]);
        assert!(bad.check_schema(&schema).is_err());
        let good = Instance::from_facts([(p, Tuple::from([a]))]);
        assert!(good.check_schema(&schema).is_ok());
    }

    #[test]
    fn union_and_subset() {
        let (pool, _, p, q) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let i1 = Instance::from_facts([(p, Tuple::from([a]))]);
        let i2 = Instance::from_facts([(q, Tuple::from([a, b]))]);
        let u = i1.union(&i2);
        assert_eq!(u.len(), 2);
        assert!(i1.is_subset_of(&u));
        assert!(i2.is_subset_of(&u));
        assert!(!u.is_subset_of(&i1));
    }

    #[test]
    fn rename_is_fact_wise() {
        let (mut pool, _, _, q) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.intern("c");
        let inst = Instance::from_facts([(q, Tuple::from([a, b]))]);
        let mut map = BTreeMap::new();
        map.insert(a, c);
        map.insert(b, a);
        let renamed = inst.rename(&map);
        assert!(renamed.contains(q, &Tuple::from([c, a])));
        assert_eq!(renamed.len(), 1);
    }

    #[test]
    fn rename_can_merge_facts() {
        let (mut pool, _, p, _) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.intern("c");
        let inst = Instance::from_facts([(p, Tuple::from([a])), (p, Tuple::from([b]))]);
        let mut map = BTreeMap::new();
        map.insert(a, c);
        map.insert(b, c);
        assert_eq!(inst.rename(&map).len(), 1);
    }

    #[test]
    fn project_restricts_relations() {
        let (pool, _, p, q) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let inst = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([a, b]))]);
        let only_p: BTreeSet<RelId> = [p].into_iter().collect();
        let proj = inst.project(&only_p);
        assert_eq!(proj.len(), 1);
        assert!(proj.contains(p, &Tuple::from([a])));
    }

    #[test]
    fn prefix_ranges_match_a_filtered_scan() {
        let (mut pool, _, p, q) = setup();
        let [a, b] = ["a", "b"].map(|n| pool.get(n).unwrap());
        let c = pool.intern("c");
        // Q holds tuples of arity 1, 2 and 3 so the range crosses arities.
        let inst = Instance::from_facts([
            (q, Tuple::from([a])),
            (q, Tuple::from([a, a])),
            (q, Tuple::from([a, b])),
            (q, Tuple::from([a, b, c])),
            (q, Tuple::from([b, a])),
            (q, Tuple::from([c, c])),
            (p, Tuple::from([a])),
        ]);
        let prefixes: [&[Value]; 6] = [&[], &[a], &[a, b], &[b], &[c, a], &[a, b, c, a]];
        for prefix in prefixes {
            let ranged: Vec<&Tuple> = inst.tuples_with_prefix(q, prefix).collect();
            let scanned: Vec<&Tuple> = inst
                .tuples(q)
                .filter(|t| t.values().starts_with(prefix))
                .collect();
            assert_eq!(ranged, scanned, "{prefix:?}");
        }
        let absent = pool.intern("absent_rel_value");
        assert_eq!(
            inst.tuples_with_prefix(RelId::from_index(7), &[absent])
                .count(),
            0
        );
    }

    #[test]
    fn nullary_relation_facts() {
        let mut schema = Schema::new();
        let halted = schema.add_relation("halted", 0).unwrap();
        let mut inst = Instance::new();
        inst.insert(halted, Tuple::unit());
        assert!(inst.contains(halted, &Tuple::unit()));
        assert!(inst.active_domain().is_empty());
        assert!(inst.check_schema(&schema).is_ok());
    }
}

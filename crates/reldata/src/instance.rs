//! Database instances.

use crate::{RelError, RelId, Schema, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A database instance: for each relation, a set of tuples.
///
/// The facts are held in one vector sorted by `(relation, tuple)` without
/// repeats, so each relation's tuples are a contiguous sorted run and
/// iteration order — and hence everything derived from it (canonical
/// forms, pretty printing, exploration order) — is deterministic. Reads
/// are binary searches over the vector; the bulk builders sort once, while
/// [`Instance::insert`] and [`Instance::remove`] shift the tail and suit
/// small edits only.
///
/// Instances order relation by relation, as a map from relations to sets
/// of tuples would: the first relation present in one and not the other,
/// or with a different tuple set, decides.
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Instance {
    facts: Vec<(RelId, Tuple)>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `(rel, tuple)` is, or would be inserted.
    fn search(&self, rel: RelId, tuple: &Tuple) -> Result<usize, usize> {
        self.facts
            .binary_search_by(|(r, t)| r.cmp(&rel).then_with(|| t.cmp(tuple)))
    }

    /// The run of `rel`'s facts.
    fn run(&self, rel: RelId) -> &[(RelId, Tuple)] {
        let start = self.facts.partition_point(|(r, _)| *r < rel);
        let len = self.facts[start..].partition_point(|(r, _)| *r == rel);
        &self.facts[start..start + len]
    }

    /// Insert a fact. Returns true if the fact was not already present.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        insert_sorted(&mut self.facts, (rel, tuple))
    }

    /// Remove a fact. Returns true if the fact was present.
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        match self.search(rel, tuple) {
            Ok(i) => {
                self.facts.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, rel: RelId, tuple: &Tuple) -> bool {
        self.search(rel, tuple).is_ok()
    }

    /// Tuples of a relation, in ascending order (none if the relation is
    /// empty).
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &Tuple> {
        self.run(rel).iter().map(|(_, t)| t)
    }

    /// Tuples of a relation whose leading components equal `prefix`, in
    /// iteration order: a range of the relation's sorted run, so its cost
    /// is a logarithmic seek plus the matches. Tuples shorter than `prefix`
    /// never match. An empty prefix yields every tuple of the relation.
    pub fn tuples_with_prefix<'a>(
        &'a self,
        rel: RelId,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = &'a Tuple> {
        let run = self.run(rel);
        let start = run.partition_point(|(_, t)| t.values() < prefix);
        run[start..]
            .iter()
            .map(|(_, t)| t)
            .take_while(move |t| t.values().starts_with(prefix))
    }

    /// Number of tuples in a relation.
    pub fn cardinality(&self, rel: RelId) -> usize {
        self.run(rel).len()
    }

    /// Total number of facts in the instance.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if the instance contains no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterate over all facts `(rel, tuple)` in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.facts.iter().map(|(r, t)| (*r, t))
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

    /// Set union of two instances: one merge of the sorted facts.
    pub fn union(&self, other: &Instance) -> Instance {
        Instance {
            facts: merge(
                self.facts.iter().map(Cow::Borrowed),
                other.facts.iter().map(Cow::Borrowed),
            ),
        }
    }

    /// Add all facts of `other` into `self`: one merge, which moves
    /// `self`'s facts and clones only `other`'s.
    pub fn extend_from(&mut self, other: &Instance) {
        if other.is_empty() {
            return;
        }
        let mine = std::mem::take(&mut self.facts);
        self.facts = merge(
            mine.into_iter().map(Cow::Owned),
            other.facts.iter().map(Cow::Borrowed),
        );
    }

    /// True if every fact of `self` occurs in `other`.
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.facts().all(|(rel, t)| other.contains(rel, t))
    }

    /// Apply a value renaming to every fact, producing a new instance.
    /// Values missing from the map are kept unchanged; facts the renaming
    /// merges are kept once.
    pub fn rename(&self, map: &BTreeMap<Value, Value>) -> Instance {
        Instance::from_facts(self.facts().map(|(rel, t)| (rel, t.rename(map))))
    }

    /// Restrict the instance to a subset of relations — the "projection of
    /// the transition system to a schema" used in Theorems 6.1/6.2.
    pub fn project(&self, rels: &BTreeSet<RelId>) -> Instance {
        Instance {
            facts: self
                .facts
                .iter()
                .filter(|(rel, _)| rels.contains(rel))
                .cloned()
                .collect(),
        }
    }

    /// Build an instance from a list of facts in any order, repeats
    /// allowed: one collect, one sort.
    pub fn from_facts(facts: impl IntoIterator<Item = (RelId, Tuple)>) -> Instance {
        Instance {
            facts: sorted(facts.into_iter().collect()),
        }
    }

    /// Build an instance from facts given in strictly ascending
    /// `(relation, tuple)` order: they are stored as they come.
    pub fn from_sorted_facts(facts: impl IntoIterator<Item = (RelId, Tuple)>) -> Instance {
        let facts: Vec<(RelId, Tuple)> = facts.into_iter().collect();
        debug_assert!(facts.windows(2).all(|w| w[0] < w[1]), "facts not ascending");
        Instance { facts }
    }
}

/// The order of a map from relations to tuple sets: relation runs compared
/// pairwise, each by its relation and then by its tuples.
impl Ord for Instance {
    fn cmp(&self, other: &Self) -> Ordering {
        let mut a = self.facts.chunk_by(|x, y| x.0 == y.0);
        let mut b = other.facts.chunk_by(|x, y| x.0 == y.0);
        loop {
            let (x, y) = match (a.next(), b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(x), Some(y)) => (x, y),
            };
            let ord = x[0]
                .0
                .cmp(&y[0].0)
                .then_with(|| x.iter().map(|(_, t)| t).cmp(y.iter().map(|(_, t)| t)));
            if ord != Ordering::Equal {
                return ord;
            }
        }
    }
}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `facts` sorted, repeats dropped.
pub(crate) fn sorted<T: Ord>(mut facts: Vec<T>) -> Vec<T> {
    facts.sort_unstable();
    facts.dedup();
    facts
}

/// Insert `fact` into the sorted, repeat-free `facts` unless present;
/// true if it was inserted.
pub(crate) fn insert_sorted<T: Ord>(facts: &mut Vec<T>, fact: T) -> bool {
    match facts.binary_search(&fact) {
        Ok(_) => false,
        Err(i) => {
            facts.insert(i, fact);
            true
        }
    }
}

/// Merge two ascending, repeat-free fact sequences into one, keeping a
/// fact both hold once. Borrowed facts are cloned as they are taken,
/// owned ones moved.
fn merge<'a>(
    a: impl ExactSizeIterator<Item = Cow<'a, (RelId, Tuple)>>,
    b: impl ExactSizeIterator<Item = Cow<'a, (RelId, Tuple)>>,
) -> Vec<(RelId, Tuple)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    b.next();
                    a.next()
                }
            },
            (Some(_), None) => a.next(),
            (None, Some(_)) => b.next(),
            (None, None) => break,
        };
        out.extend(next.map(Cow::into_owned));
    }
    out
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

//! Partial bijections between value domains, and the enumeration of
//! database isomorphisms consistent with one.

use dcds_reldata::{Facts, Instance, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A partial bijection between two value domains, stored with both
/// directions for O(log n) inverse lookups.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartialBijection {
    fwd: BTreeMap<Value, Value>,
    bwd: BTreeMap<Value, Value>,
}

impl PartialBijection {
    /// Empty bijection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a pair; returns false (and leaves the bijection unchanged) on
    /// conflict with injectivity/functionality.
    pub fn insert(&mut self, x: Value, y: Value) -> bool {
        match (self.fwd.get(&x), self.bwd.get(&y)) {
            (None, None) => {
                self.fwd.insert(x, y);
                self.bwd.insert(y, x);
                true
            }
            (Some(&y0), _) if y0 == y => true,
            _ => false,
        }
    }

    /// Forward image.
    pub fn get(&self, x: Value) -> Option<Value> {
        self.fwd.get(&x).copied()
    }

    /// Inverse image.
    pub fn get_inv(&self, y: Value) -> Option<Value> {
        self.bwd.get(&y).copied()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Domain of the bijection.
    pub fn domain(&self) -> impl Iterator<Item = Value> + '_ {
        self.fwd.keys().copied()
    }

    /// Forward map view.
    pub fn forward(&self) -> &BTreeMap<Value, Value> {
        &self.fwd
    }

    /// Restriction to a set of domain values (`h|_D` in the paper,
    /// footnote 6).
    pub fn restrict(&self, dom: &BTreeSet<Value>) -> PartialBijection {
        let mut out = PartialBijection::new();
        for (&x, &y) in &self.fwd {
            if dom.contains(&x) {
                out.insert(x, y);
            }
        }
        out
    }

    /// Does `other` extend `self` (agreeing on both directions)?
    pub fn extended_by(&self, other: &PartialBijection) -> bool {
        self.fwd.iter().all(|(&x, &y)| other.get(x) == Some(y))
    }
}

/// Enumerate all isomorphisms `g : ADOM(db1) → ADOM(db2)` (mapping `db1`
/// exactly onto `db2`) that are *compatible* with the partial bijection
/// `pre`: where `pre` is defined (in either direction) on a value of the
/// respective active domain, `g` must agree with it; `rigid` values must be
/// mapped to themselves.
///
/// Compatibility in both directions is exactly the paper's notion of a
/// bijection *extending* `pre`: no new value may be mapped onto a value
/// already in `pre`'s image. The search is
/// [`Facts::for_each_isomorphism`], the one definitional isomorphism
/// search of the workspace.
pub fn constrained_isomorphisms(
    db1: &Instance,
    db2: &Instance,
    pre: &PartialBijection,
    rigid: &BTreeSet<Value>,
) -> Vec<PartialBijection> {
    let mut out = Vec::new();
    Facts::from_instance(db1).for_each_isomorphism(
        &Facts::from_instance(db2),
        rigid,
        &pre.fwd,
        |g| {
            out.push(PartialBijection {
                fwd: g.clone(),
                bwd: g.iter().map(|(&x, &y)| (y, x)).collect(),
            });
            false
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::{ConstantPool, Schema, Tuple};

    fn setup() -> (ConstantPool, Schema) {
        let mut pool = ConstantPool::new();
        for n in ["a", "b", "c", "d"] {
            pool.intern(n);
        }
        let mut schema = Schema::new();
        schema.add_relation("P", 1).unwrap();
        schema.add_relation("Q", 2).unwrap();
        (pool, schema)
    }

    #[test]
    fn partial_bijection_insert_conflicts() {
        let (pool, _) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        let mut h = PartialBijection::new();
        assert!(h.insert(a, b));
        assert!(h.insert(a, b)); // idempotent
        assert!(!h.insert(a, c)); // functional conflict
        assert!(!h.insert(c, b)); // injective conflict
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn restriction_and_extension() {
        let (pool, _) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        let d = pool.get("d").unwrap();
        let mut h = PartialBijection::new();
        h.insert(a, b);
        h.insert(c, d);
        let r = h.restrict(&[a].into_iter().collect());
        assert_eq!(r.len(), 1);
        assert!(r.extended_by(&h));
        assert!(!h.extended_by(&r));
    }

    #[test]
    fn enumerates_isomorphisms() {
        let (pool, schema) = setup();
        let p = schema.rel_id("P").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        let d = pool.get("d").unwrap();
        // {P(a), P(b)} vs {P(c), P(d)}: 2 isomorphisms.
        let db1 = Instance::from_facts([(p, Tuple::from([a])), (p, Tuple::from([b]))]);
        let db2 = Instance::from_facts([(p, Tuple::from([c])), (p, Tuple::from([d]))]);
        let isos = constrained_isomorphisms(&db1, &db2, &PartialBijection::new(), &BTreeSet::new());
        assert_eq!(isos.len(), 2);
    }

    #[test]
    fn pre_constrains_choices() {
        let (pool, schema) = setup();
        let p = schema.rel_id("P").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        let d = pool.get("d").unwrap();
        let db1 = Instance::from_facts([(p, Tuple::from([a])), (p, Tuple::from([b]))]);
        let db2 = Instance::from_facts([(p, Tuple::from([c])), (p, Tuple::from([d]))]);
        let mut pre = PartialBijection::new();
        pre.insert(a, c);
        let isos = constrained_isomorphisms(&db1, &db2, &pre, &BTreeSet::new());
        assert_eq!(isos.len(), 1);
        assert_eq!(isos[0].get(b), Some(d));
    }

    #[test]
    fn inverse_constraint_blocks_reuse() {
        let (pool, schema) = setup();
        let p = schema.rel_id("P").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        // db1 = {P(b)}, db2 = {P(c)}; pre maps a ↦ c (a not in adom1).
        // b must not map to c because c is already pre's image of a.
        let db1 = Instance::from_facts([(p, Tuple::from([b]))]);
        let db2 = Instance::from_facts([(p, Tuple::from([c]))]);
        let mut pre = PartialBijection::new();
        pre.insert(a, c);
        let isos = constrained_isomorphisms(&db1, &db2, &pre, &BTreeSet::new());
        assert!(isos.is_empty());
    }

    #[test]
    fn rigid_values_fixed() {
        let (pool, schema) = setup();
        let p = schema.rel_id("P").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let db1 = Instance::from_facts([(p, Tuple::from([a]))]);
        let db2 = Instance::from_facts([(p, Tuple::from([b]))]);
        let rigid: BTreeSet<Value> = [a, b].into_iter().collect();
        assert!(constrained_isomorphisms(&db1, &db2, &PartialBijection::new(), &rigid).is_empty());
        let db3 = Instance::from_facts([(p, Tuple::from([a]))]);
        assert_eq!(
            constrained_isomorphisms(&db1, &db3, &PartialBijection::new(), &rigid).len(),
            1
        );
    }

    #[test]
    fn structure_mismatch_no_isos() {
        let (pool, schema) = setup();
        let q = schema.rel_id("Q").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.get("c").unwrap();
        let d = pool.get("d").unwrap();
        // Q(a,a) (loop) vs Q(c,d) (edge): same sizes, not isomorphic... note
        // adom sizes differ (1 vs 2), caught early.
        let db1 = Instance::from_facts([(q, Tuple::from([a, a]))]);
        let db2 = Instance::from_facts([(q, Tuple::from([c, d]))]);
        assert!(
            constrained_isomorphisms(&db1, &db2, &PartialBijection::new(), &BTreeSet::new())
                .is_empty()
        );
        // Q(a,b), Q(b,a) vs Q(c,d), Q(d,c): isomorphic (2 ways).
        let db3 = Instance::from_facts([(q, Tuple::from([a, b])), (q, Tuple::from([b, a]))]);
        let db4 = Instance::from_facts([(q, Tuple::from([c, d])), (q, Tuple::from([d, c]))]);
        assert_eq!(
            constrained_isomorphisms(&db3, &db4, &PartialBijection::new(), &BTreeSet::new()).len(),
            2
        );
    }
}

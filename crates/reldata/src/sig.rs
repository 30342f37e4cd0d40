//! Cheap order-invariant signatures of fact sets.
//!
//! [`Facts::canonical_key`] is exact but expensive: it refines value colors
//! and then searches class-respecting orders of the non-rigid values, which
//! is factorial in the refinement class sizes. During abstract
//! transition-system construction the overwhelmingly common question is
//! *"have we seen this isomorphism class before?"*, and the answer is
//! usually *no* — so the engines first consult a 64-bit **invariant
//! signature**: a hash that is guaranteed equal for isomorphic fact sets
//! (with the same rigid set) and almost always different for
//! non-isomorphic ones.
//!
//! The signature folds, commutatively over the facts, a per-fact hash built
//! only from isomorphism-invariant data:
//!
//! * the fact's color (relation / call-map id) and arity;
//! * per position, either the identity of a **rigid** value (isomorphisms
//!   fix those pointwise) or, for a non-rigid value, its global *occurrence
//!   count* over the whole fact set together with the position of its first
//!   occurrence inside the tuple (the within-tuple equality pattern);
//! * globally, the fact count and active-domain size.
//!
//! Any isomorphism fixing the rigid values preserves every ingredient, so
//! **isomorphic ⇒ equal signature**. The converse can fail (hash and
//! invariant collisions), so equal signatures are always confirmed by
//! [`Facts::canonical_key`] or [`Facts::isomorphism`]; unequal signatures
//! need no further work. That asymmetry is what the abstraction engines
//! exploit: an empty signature bucket proves the class is new without ever
//! canonicalising it.
//!
//! The signature is computed from scratch in two passes over the facts
//! (count occurrences, then fold). It is the prefilter of
//! [`Facts::isomorphism`] and the bucket key of the deterministic
//! abstraction's class index.

use crate::iso::hash2;
use crate::{Facts, Value};
use std::collections::{BTreeMap, BTreeSet};

impl Facts {
    /// The order-invariant 64-bit signature of this fact set with respect
    /// to `rigid`.
    ///
    /// Guarantee: `a.isomorphic(&b, rigid)` implies
    /// `a.signature(rigid) == b.signature(rigid)`. The converse does not
    /// hold in general; confirm equal signatures with an exact check.
    pub fn signature(&self, rigid: &BTreeSet<Value>) -> u64 {
        // Global occurrence count of each value over all (fact, position)
        // slots — invariant under any renaming bijection.
        let mut occ: BTreeMap<Value, u64> = BTreeMap::new();
        for (_, t) in self.iter() {
            for v in t.iter() {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
        let mut total: u64 = hash2(0x5157, self.len() as u64);
        total = total.wrapping_add(hash2(0x51c2, occ.len() as u64));
        for (c, t) in self.iter() {
            let mut h = hash2(c as u64 + 1, t.arity() as u64);
            for (p, v) in t.iter().enumerate() {
                let contrib = if rigid.contains(&v) {
                    hash2(1, v.index() as u64)
                } else {
                    // First position of `v` inside this tuple: captures the
                    // equality pattern among the tuple's components without
                    // referencing the value's identity.
                    let first = t.iter().position(|w| w == v).unwrap_or(p);
                    hash2(2, hash2(occ[&v], first as u64))
                };
                h = hash2(h, hash2(p as u64, contrib));
            }
            // Commutative fold: the fact set is unordered.
            total = total.wrapping_add(hash2(h, 0x57a7));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantPool, Tuple};

    fn vals(pool: &mut ConstantPool, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| pool.intern(n)).collect()
    }

    #[test]
    fn renaming_non_rigid_preserves_signature() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "x", "y", "z"]);
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0], v[1]]));
        f1.insert(1, Tuple::from([v[1], v[2]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[3], v[4]]));
        f2.insert(1, Tuple::from([v[4], v[5]]));
        let empty = BTreeSet::new();
        assert_eq!(f1.signature(&empty), f2.signature(&empty));
    }

    #[test]
    fn rigid_identity_matters() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b"]);
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[1]]));
        let rigid: BTreeSet<Value> = v.iter().copied().collect();
        assert_ne!(f1.signature(&rigid), f2.signature(&rigid));
        // Without rigidity the two are isomorphic, hence equal signatures.
        let empty = BTreeSet::new();
        assert_eq!(f1.signature(&empty), f2.signature(&empty));
    }

    #[test]
    fn loop_vs_edge_distinguished() {
        // A self-loop has a different within-tuple equality pattern (and
        // occurrence counts) than an edge between distinct values.
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["c", "d"]);
        let mut looped = Facts::new();
        looped.insert(0, Tuple::from([v[0], v[0]]));
        let mut edge = Facts::new();
        edge.insert(0, Tuple::from([v[0], v[1]]));
        let empty = BTreeSet::new();
        assert_ne!(looped.signature(&empty), edge.signature(&empty));
    }

    #[test]
    fn signature_agrees_with_canonical_key_on_small_family() {
        // Exhaustive-ish cross-check: for a small family of fact sets the
        // signature must be constant on canonical-key classes.
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c"]);
        let rigid: BTreeSet<Value> = [v[0]].into_iter().collect();
        let mut sets = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                let mut f = Facts::new();
                f.insert(0, Tuple::from([v[x], v[y]]));
                f.insert(1, Tuple::from([v[y]]));
                sets.push(f);
            }
        }
        for f1 in &sets {
            for f2 in &sets {
                if f1.canonical_key(&rigid) == f2.canonical_key(&rigid) {
                    assert_eq!(f1.signature(&rigid), f2.signature(&rigid));
                }
            }
        }
    }

    #[test]
    fn color_matters() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a"]);
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0]]));
        let mut f2 = Facts::new();
        f2.insert(1, Tuple::from([v[0]]));
        let empty = BTreeSet::new();
        assert_ne!(f1.signature(&empty), f2.signature(&empty));
    }
}

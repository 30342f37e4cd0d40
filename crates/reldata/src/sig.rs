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
//! The signature is read from the fact set's dense form
//! ([`Facts::dense`]): the per-slot occurrence counts are the lengths of
//! its occurrence lists, so one pass that builds the context serves both
//! the signature and, when one is needed, the canonical key. It is the
//! bucket key of the deterministic abstraction's class index.
//! [`Facts::isomorphism`] does not read it, so the guarantee is tested
//! against an independent search.

use crate::iso::{hash2, DenseCtx};
use crate::{Facts, Value};
use std::collections::BTreeSet;

impl Facts {
    /// The order-invariant 64-bit signature of this fact set with respect
    /// to `rigid` ([`DenseCtx::signature`] of [`Facts::dense`]).
    ///
    /// Guarantee: `a.isomorphic(&b, rigid)` implies
    /// `a.signature(rigid) == b.signature(rigid)`. The converse does not
    /// hold in general; confirm equal signatures with an exact check.
    pub fn signature(&self, rigid: &BTreeSet<Value>) -> u64 {
        self.dense(rigid).signature()
    }
}

impl DenseCtx {
    /// The signature of the fact set this context was built from (see the
    /// module docs for what it folds).
    pub fn signature(&self) -> u64 {
        let mut total: u64 = hash2(0x5157, self.nfacts() as u64);
        total = total.wrapping_add(hash2(0x51c2, self.nslots() as u64));
        for f in 0..self.nfacts() {
            let (c, slots) = self.fact(f);
            let mut h = hash2(c as u64 + 1, slots.len() as u64);
            for (p, &s) in slots.iter().enumerate() {
                let contrib = match self.rigid_code(s as usize) {
                    Some(code) => hash2(1, code),
                    None => {
                        // Global occurrence count, and the first position
                        // of the value inside this tuple: the equality
                        // pattern among the tuple's components, without
                        // the value's identity.
                        let first = slots.iter().position(|&w| w == s).unwrap_or(p);
                        hash2(2, hash2(self.occ_count(s as usize) as u64, first as u64))
                    }
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
    use std::collections::BTreeMap;

    /// The signature written over the facts themselves: count each value's
    /// occurrences, then fold. The dense signature must give the same
    /// value on every fact set.
    fn reference_signature(facts: &Facts, rigid: &BTreeSet<Value>) -> u64 {
        let mut occ: BTreeMap<Value, u64> = BTreeMap::new();
        for (_, t) in facts.iter() {
            for v in t.iter() {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
        let mut total: u64 = hash2(0x5157, facts.len() as u64);
        total = total.wrapping_add(hash2(0x51c2, occ.len() as u64));
        for (c, t) in facts.iter() {
            let mut h = hash2(c as u64 + 1, t.arity() as u64);
            for (p, v) in t.iter().enumerate() {
                let contrib = if rigid.contains(&v) {
                    hash2(1, v.index() as u64)
                } else {
                    let first = t.iter().position(|w| w == v).unwrap_or(p);
                    hash2(2, hash2(occ[&v], first as u64))
                };
                h = hash2(h, hash2(p as u64, contrib));
            }
            total = total.wrapping_add(hash2(h, 0x57a7));
        }
        total
    }

    #[test]
    fn dense_signature_equals_the_reference() {
        // Every fact set over four values, two colours and arities 0..=2
        // with up to three facts (a sample of the third), under three
        // rigid sets.
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "d"]);
        let mut candidates = vec![(0u32, Tuple::unit()), (1, Tuple::unit())];
        for c in 0..2u32 {
            for &x in &v {
                candidates.push((c, Tuple::from([x])));
                for &y in &v {
                    candidates.push((c, Tuple::from([x, y])));
                }
            }
        }
        let rigids: Vec<BTreeSet<Value>> = vec![
            BTreeSet::new(),
            [v[0]].into_iter().collect(),
            [v[0], v[2]].into_iter().collect(),
        ];
        let mut checked = 0;
        for i in 0..candidates.len() {
            for j in i..candidates.len() {
                for k in (j..candidates.len()).step_by(7) {
                    let f = Facts::from_facts([i, j, k].map(|ix| candidates[ix].clone()));
                    for rigid in &rigids {
                        assert_eq!(f.signature(rigid), reference_signature(&f, rigid), "{f:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 5_000, "{checked}");
        assert_eq!(
            Facts::new().signature(&BTreeSet::new()),
            reference_signature(&Facts::new(), &BTreeSet::new())
        );
    }

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

//! Seeded property suite for the pruned canonical-key search (`iso`).
//!
//! Four invariants, checked against replayable SplitMix64 randomness
//! (Steele, Lea & Flood, OOPSLA 2014 — local copy, no `rand` dependency):
//!
//! 1. the branch-and-bound search returns byte-identical [`CanonKey`]s to
//!    the retired exhaustive enumerator, kept as a test-only oracle;
//! 2. fully symmetric classes far past the old permutation budget
//!    (`k ≥ 10`, i.e. well over `8!` class-respecting orders) canonicalise
//!    in a single descent and key renamed copies identically;
//! 3. key equality coincides exactly with the [`Facts::isomorphic`]
//!    verdict of the definitional search, which reads no signature or
//!    refinement colour; that verdict is reflexive and symmetric, its
//!    [`Facts::isomorphism`] witness is exact and fixes rigid values, and
//!    isomorphic fact sets have equal [`Facts::signature`]s;
//! 4. where refinement is discrete, the key written directly in class order
//!    equals the search's key and stats, and `DenseCtx::discrete_key`
//!    returns it exactly there, alike for renamed copies.

use crate::{CanonKey, ConstantPool, Facts, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn gen_range(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

const NUM_COLORS: u32 = 3;

fn universe(pool: &mut ConstantPool, n: usize) -> Vec<Value> {
    (0..n).map(|i| pool.intern(&format!("v{i}"))).collect()
}

fn random_facts(rng: &mut SplitMix64, vals: &[Value]) -> Facts {
    let mut f = Facts::new();
    for _ in 0..1 + rng.gen_range(6) {
        let color = rng.gen_range(NUM_COLORS as usize) as u32;
        let arity = 1 + rng.gen_range(2);
        let tuple = Tuple::new(
            (0..arity)
                .map(|_| vals[rng.gen_range(vals.len())])
                .collect::<Vec<_>>(),
        );
        f.insert(color, tuple);
    }
    f
}

fn random_rigid(rng: &mut SplitMix64, vals: &[Value]) -> BTreeSet<Value> {
    vals.iter()
        .copied()
        .filter(|_| rng.gen_range(3) == 0)
        .collect()
}

/// A random bijection on `vals` that fixes `rigid` pointwise.
fn random_renaming(
    rng: &mut SplitMix64,
    vals: &[Value],
    rigid: &BTreeSet<Value>,
) -> BTreeMap<Value, Value> {
    let free: Vec<Value> = vals
        .iter()
        .copied()
        .filter(|v| !rigid.contains(v))
        .collect();
    let mut img = free.clone();
    for i in (1..img.len()).rev() {
        let j = rng.gen_range(i + 1);
        img.swap(i, j);
    }
    let mut map: BTreeMap<Value, Value> = rigid.iter().map(|&v| (v, v)).collect();
    map.extend(free.into_iter().zip(img));
    map
}

/// Invariant 1: pruned search ≡ exhaustive enumeration, byte for byte, on
/// random fact sets under random rigid subsets. The 6-value universe keeps
/// the oracle's worst case at 6! = 720 orders.
#[test]
fn pruned_key_matches_exhaustive_oracle() {
    for seed in 0..4u64 {
        let mut rng = SplitMix64(0xcaf_e001 ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals = universe(&mut pool, 6);
        for _ in 0..150 {
            let f = random_facts(&mut rng, &vals);
            let rigid = random_rigid(&mut rng, &vals);
            let (key, stats) = f.canonical_key_stats(&rigid);
            assert_eq!(
                key,
                f.exhaustive_canonical_key(&rigid),
                "pruned key diverged from oracle (seed {seed}, facts {f:?}, rigid {rigid:?})"
            );
            assert!(stats.orders_enumerated >= 1);
        }
    }
}

/// Invariant 2a: a `k`-element fully symmetric class (`k!` class-respecting
/// orders — astronomically past the old `8!` budget) costs exactly one
/// descent: every sibling subtree is cut by a transposition automorphism.
#[test]
fn symmetric_classes_past_the_old_budget_key_identically() {
    for k in [10usize, 12, 16] {
        let mut pool = ConstantPool::new();
        let mut f1 = Facts::new();
        let mut f2 = Facts::new();
        for i in 0..k {
            f1.insert(0, Tuple::from([pool.intern(&format!("x{i}"))]));
            f2.insert(0, Tuple::from([pool.intern(&format!("y{i}"))]));
        }
        let empty = BTreeSet::new();
        let (k1, s1) = f1.canonical_key_stats(&empty);
        let (k2, _) = f2.canonical_key_stats(&empty);
        assert_eq!(
            k1, k2,
            "renamed symmetric copies must key identically (k={k})"
        );
        assert_eq!(k1.var_count(), k);
        assert_eq!(
            s1.orders_enumerated, 1,
            "fully symmetric class must cost one descent (k={k})"
        );
        assert_eq!(s1.prune_cutoffs, (k * (k - 1) / 2) as u64);
    }
}

/// Invariant 2b: the same holds for dense structure — the complete digraph
/// on 12 values, where every value occurs in 22 binary facts and every
/// transposition is an automorphism.
#[test]
fn complete_digraph_keys_in_one_descent() {
    let n = 12usize;
    let mut pool = ConstantPool::new();
    let xs: Vec<Value> = (0..n).map(|i| pool.intern(&format!("x{i}"))).collect();
    let ys: Vec<Value> = (0..n).map(|i| pool.intern(&format!("y{i}"))).collect();
    let mut f1 = Facts::new();
    let mut f2 = Facts::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                f1.insert(0, Tuple::from([xs[i], xs[j]]));
                f2.insert(0, Tuple::from([ys[i], ys[j]]));
            }
        }
    }
    let empty = BTreeSet::new();
    let (k1, s1) = f1.canonical_key_stats(&empty);
    let (k2, _) = f2.canonical_key_stats(&empty);
    assert_eq!(k1, k2);
    assert_eq!(k1.var_count(), n);
    assert_eq!(s1.orders_enumerated, 1);
    assert_eq!(s1.prune_cutoffs, (n * (n - 1) / 2) as u64);
}

/// Invariant 2c: random unary multisets over a 14-value universe produce
/// fully symmetric refinement classes of arbitrary sizes; renamed copies
/// must key identically and the search must stay at one descent.
#[test]
fn random_unary_multisets_are_renaming_invariant() {
    for seed in 0..4u64 {
        let mut rng = SplitMix64(0xbead_5eed ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals = universe(&mut pool, 14);
        let empty = BTreeSet::new();
        for _ in 0..40 {
            let mut f = Facts::new();
            for _ in 0..1 + rng.gen_range(16) {
                let color = rng.gen_range(2) as u32;
                f.insert(color, Tuple::from([vals[rng.gen_range(vals.len())]]));
            }
            let map = random_renaming(&mut rng, &vals, &empty);
            let g = f.rename(&map);
            let (kf, sf) = f.canonical_key_stats(&empty);
            let (kg, _) = g.canonical_key_stats(&empty);
            assert_eq!(kf, kg, "renamed copy diverged (seed {seed}, facts {f:?})");
            assert_eq!(
                sf.orders_enumerated, 1,
                "unary classes are fully symmetric; search must not branch (seed {seed})"
            );
        }
    }
}

/// Invariant 3: key equality ⇔ `isomorphic()`, on renamed copies (always
/// equal) and on independent random pairs (either verdict, but consistent);
/// isomorphic pairs have equal signatures.
#[test]
fn key_equality_coincides_with_isomorphism() {
    for seed in 0..6u64 {
        let mut rng = SplitMix64(0x150_a0ab ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals = universe(&mut pool, 6);
        for _ in 0..100 {
            let f1 = random_facts(&mut rng, &vals);
            let rigid = random_rigid(&mut rng, &vals);
            let map = random_renaming(&mut rng, &vals, &rigid);
            let f2 = f1.rename(&map);
            let k1: CanonKey = f1.canonical_key(&rigid);
            assert_eq!(
                k1,
                f2.canonical_key(&rigid),
                "rigid-fixing renaming changed the key (seed {seed})"
            );
            assert!(f1.isomorphic(&f2, &rigid));
            assert!(f1.isomorphic(&f1, &rigid), "isomorphism is not reflexive");
            assert!(f2.isomorphic(&f1, &rigid), "isomorphism is not symmetric");
            let h = f1
                .isomorphism(&f2, &rigid)
                .expect("a renamed copy has a witness");
            assert_eq!(f1.rename(&h), f2, "the witness is not exact");
            assert!(
                h.iter().all(|(x, y)| !rigid.contains(x) || x == y),
                "the witness moves a rigid value"
            );
            assert_eq!(f2.len(), f1.len(), "renaming changed the fact count");
            assert_eq!(f1.signature(&rigid), f2.signature(&rigid), "seed {seed}");
            let f3 = random_facts(&mut rng, &vals);
            let keys_equal = k1 == f3.canonical_key(&rigid);
            let isomorphic = f1.isomorphic(&f3, &rigid);
            assert_eq!(
                keys_equal, isomorphic,
                "key equality disagreed with the matcher (seed {seed}, {f1:?} vs {f3:?})"
            );
            // The signature's guarantee, against a search that reads none.
            if isomorphic {
                assert_eq!(
                    f1.signature(&rigid),
                    f3.signature(&rigid),
                    "isomorphic fact sets with different signatures (seed {seed})"
                );
            }
        }
    }
}

/// A directed path `a → x₀ → … → x₉` hanging off one rigid constant `a`:
/// `order` lists the free values' names in path order, and `reversed`
/// flips every edge, so that `a` becomes the sink.
fn rigid_path(pool: &mut ConstantPool, a: Value, order: &[&str], reversed: bool) -> Facts {
    let mut nodes = vec![a];
    nodes.extend(order.iter().map(|name| pool.intern(name)));
    let mut f = Facts::new();
    for w in nodes.windows(2) {
        let (from, to) = if reversed { (w[1], w[0]) } else { (w[0], w[1]) };
        f.insert(0, Tuple::from([from, to]));
    }
    f
}

/// Refinement depth: every free value of a 10-value path is told apart
/// only by its distance from the rigid end or the free end, so colour
/// refinement needs five rounds to split the path into singletons. A stop
/// rule that halts early leaves interior values in shared classes and the
/// search branches; the pinned effort counters catch that.
#[test]
fn long_rigid_paths_refine_to_singletons() {
    let mut pool = ConstantPool::new();
    let a = pool.intern("a");
    let rigid: BTreeSet<Value> = [a].into_iter().collect();
    let names: Vec<String> = (0..10).map(|i| format!("x{i}")).collect();
    let xs: Vec<&str> = names.iter().map(String::as_str).collect();
    // The renamed copy interns its values in the opposite order, so its
    // dense slots run against the path.
    let renamed: Vec<String> = (0..10).rev().map(|i| format!("y{i}")).collect();
    for name in &renamed {
        pool.intern(name);
    }
    let ys: Vec<&str> = renamed.iter().rev().map(String::as_str).collect();

    let path = rigid_path(&mut pool, a, &xs, false);
    let (key, stats) = path.canonical_key_stats(&rigid);
    assert_eq!(key.var_count(), 10);
    assert_eq!(key, path.exhaustive_canonical_key(&rigid));
    assert_eq!((stats.orders_enumerated, stats.prune_cutoffs), (1, 0));

    let copy = rigid_path(&mut pool, a, &ys, false);
    assert_eq!(copy.canonical_key_stats(&rigid), (key.clone(), stats));

    let reversed = rigid_path(&mut pool, a, &xs, true);
    let (rkey, rstats) = reversed.canonical_key_stats(&rigid);
    assert_ne!(rkey, key);
    assert_eq!(rkey, reversed.exhaustive_canonical_key(&rigid));
    assert_eq!((rstats.orders_enumerated, rstats.prune_cutoffs), (1, 0));
}

/// The discrete-refinement shortcut: where refinement leaves every free
/// value in a class of its own, the key is written directly in class
/// order. It must equal the search's key and stats (one order, no
/// cutoff) and the exhaustive oracle's key, on random fact sets whose
/// refinement is discrete; a non-discrete set still goes through the
/// search. [`crate::DenseCtx::discrete_key`] is that shortcut alone: the
/// key where it applies, `None` elsewhere, the same for a renamed copy.
#[test]
fn discrete_refinement_shortcut_matches_the_search() {
    let mut discrete = 0;
    for seed in 0..4u64 {
        let mut rng = SplitMix64(0xd15c_0e7e ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals = universe(&mut pool, 6);
        for _ in 0..150 {
            let f = random_facts(&mut rng, &vals);
            let rigid = random_rigid(&mut rng, &vals);
            let (key, stats, direct) = f.canonical_key_with(&rigid, true);
            // `discrete_key` is the shortcut alone, and whether it applies
            // does not change under a renaming that fixes `rigid`.
            let ctx = f.dense(&rigid);
            assert_eq!(ctx.discrete_key(), direct.then(|| key.clone()), "{f:?}");
            let renamed = f.rename(&random_renaming(&mut rng, &vals, &rigid));
            assert_eq!(renamed.dense(&rigid).discrete_key(), ctx.discrete_key());
            if !direct {
                continue;
            }
            discrete += 1;
            let (searched, searched_stats, _) = f.canonical_key_with(&rigid, false);
            assert_eq!((&key, stats), (&searched, searched_stats), "{f:?}");
            assert_eq!(key, f.exhaustive_canonical_key(&rigid), "{f:?}");
            assert_eq!((stats.orders_enumerated, stats.prune_cutoffs), (1, 0));
        }
    }
    assert!(discrete >= 100, "only {discrete} discrete fact sets drawn");

    // Ten interchangeable values: one class, which only the search's
    // transposition pruning (45 cutoffs) collapses to one descent.
    let mut pool = ConstantPool::new();
    let mut f = Facts::new();
    for v in universe(&mut pool, 10) {
        f.insert(0, Tuple::from([v]));
    }
    let (key, stats, direct) = f.canonical_key_with(&BTreeSet::new(), true);
    assert!(!direct, "a ten-value class cannot be discrete");
    assert_eq!(f.dense(&BTreeSet::new()).discrete_key(), None);
    assert_eq!((stats.orders_enumerated, stats.prune_cutoffs), (1, 45));
    assert_eq!(key.var_count(), 10);
}

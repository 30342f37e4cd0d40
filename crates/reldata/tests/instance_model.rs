//! Seeded model test: `Instance` and `Facts` (sorted fact vectors) against
//! a B-tree reference model — a map from relations to tuple sets, and a
//! set of colored tuples.
//!
//! Random operation sequences run on both in lockstep; after every step
//! each read (`contains`, `tuples`, `cardinality`, `tuples_with_prefix`,
//! `facts` order, `len`) must agree with the model. The bulk builders and
//! set operations are checked against the model's own, and the orders
//! against the model's derived order, so an `Instance` orders relation by
//! relation as a map of sets does.
//!
//! Runs offline: pseudo-randomness is a local SplitMix64 (Steele, Lea &
//! Flood, OOPSLA 2014), so the same sequences replay on every run.

use dcds_reldata::{ConstantPool, Facts, Instance, RelId, Tuple, Value};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// SplitMix64 (local copy — this crate has no path to the bench crate's
/// `rng` module without a dependency cycle).
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

const SEEDS: u64 = 64;
const NUM_RELS: usize = 4;
const MAX_ARITY: usize = 3;

/// The reference model: today's layout of a map of sets.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Model(BTreeMap<RelId, BTreeSet<Tuple>>);

impl Model {
    fn insert(&mut self, rel: RelId, t: Tuple) -> bool {
        self.0.entry(rel).or_default().insert(t)
    }

    fn remove(&mut self, rel: RelId, t: &Tuple) -> bool {
        let Some(set) = self.0.get_mut(&rel) else {
            return false;
        };
        let removed = set.remove(t);
        if set.is_empty() {
            self.0.remove(&rel);
        }
        removed
    }

    fn facts(&self) -> Vec<(RelId, Tuple)> {
        self.0
            .iter()
            .flat_map(|(r, set)| set.iter().map(move |t| (*r, t.clone())))
            .collect()
    }

    fn tuples(&self, rel: RelId) -> Vec<Tuple> {
        self.0.get(&rel).into_iter().flatten().cloned().collect()
    }
}

fn values(n: usize) -> Vec<Value> {
    let mut pool = ConstantPool::new();
    (0..n).map(|i| pool.intern(&format!("v{i}"))).collect()
}

/// A tuple of arity 0..=MAX_ARITY, so relations mix arities and hold
/// nullary facts.
fn random_tuple(rng: &mut SplitMix64, vals: &[Value]) -> Tuple {
    let arity = rng.gen_range(MAX_ARITY + 1);
    Tuple::new(
        (0..arity)
            .map(|_| vals[rng.gen_range(vals.len())])
            .collect::<Vec<_>>(),
    )
}

fn random_fact(rng: &mut SplitMix64, vals: &[Value]) -> (RelId, Tuple) {
    let rel = RelId::from_index(rng.gen_range(NUM_RELS));
    (rel, random_tuple(rng, vals))
}

fn random_facts(rng: &mut SplitMix64, vals: &[Value], max: usize) -> Vec<(RelId, Tuple)> {
    (0..rng.gen_range(max + 1))
        .map(|_| random_fact(rng, vals))
        .collect()
}

fn model_of(facts: &[(RelId, Tuple)]) -> Model {
    let mut m = Model::default();
    for (r, t) in facts {
        m.insert(*r, t.clone());
    }
    m
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

fn facts_of(inst: &Instance) -> Vec<(RelId, Tuple)> {
    inst.facts().map(|(r, t)| (r, t.clone())).collect()
}

/// Every read of `inst` agrees with `model`.
fn assert_reads(inst: &Instance, model: &Model, vals: &[Value], rng: &mut SplitMix64) {
    let expected = model.facts();
    assert_eq!(facts_of(inst), expected, "facts order");
    assert_eq!(inst.len(), expected.len());
    assert_eq!(inst.is_empty(), expected.is_empty());
    // One relation past the last one used, which is always empty.
    for rel in (0..=NUM_RELS).map(RelId::from_index) {
        let tuples = model.tuples(rel);
        let got: Vec<Tuple> = inst.tuples(rel).cloned().collect();
        assert_eq!(got, tuples, "tuples of {rel:?}");
        assert_eq!(inst.cardinality(rel), tuples.len());
        for t in &tuples {
            assert!(inst.contains(rel, t));
        }
        let probe = random_tuple(rng, vals);
        assert_eq!(
            inst.contains(rel, &probe),
            tuples.contains(&probe),
            "contains {rel:?} {probe:?}"
        );
        for _ in 0..4 {
            let len = rng.gen_range(MAX_ARITY + 2);
            let prefix: Vec<Value> = (0..len).map(|_| vals[rng.gen_range(vals.len())]).collect();
            let ranged: Vec<&Tuple> = inst.tuples_with_prefix(rel, &prefix).collect();
            let scanned: Vec<&Tuple> = tuples
                .iter()
                .filter(|t| t.values().starts_with(&prefix))
                .collect();
            assert_eq!(ranged, scanned, "prefix {prefix:?} of {rel:?}");
        }
        // A prefix taken from a stored tuple always matches it.
        if let Some(t) = tuples.get(rng.gen_range(tuples.len().max(1))) {
            let cut = rng.gen_range(t.arity() + 1);
            let prefix = &t.values()[..cut];
            assert!(inst.tuples_with_prefix(rel, prefix).any(|u| u == t));
        }
    }
}

#[test]
fn operation_sequences_match_the_map_of_sets() {
    let vals = values(4);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        let mut inst = Instance::new();
        let mut model = Model::default();
        for _ in 0..60 {
            match rng.gen_range(4) {
                0 | 1 => {
                    let (r, t) = random_fact(rng, &vals);
                    assert_eq!(inst.insert(r, t.clone()), model.insert(r, t));
                }
                2 => {
                    let (r, t) = random_fact(rng, &vals);
                    assert_eq!(inst.remove(r, &t), model.remove(r, &t));
                }
                _ => {
                    // Remove a fact that is present.
                    let facts = model.facts();
                    if let Some((r, t)) = facts.get(rng.gen_range(facts.len().max(1))) {
                        assert!(inst.remove(*r, t));
                        assert!(model.remove(*r, t));
                    }
                }
            }
            assert_reads(&inst, &model, &vals, rng);
        }
    }
}

#[test]
fn bulk_builders_match_repeated_inserts() {
    let vals = values(4);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        // Unsorted, with repeats.
        let mut facts = random_facts(rng, &vals, 20);
        let n = facts.len();
        for _ in 0..n / 2 {
            let dup = facts[rng.gen_range(n)].clone();
            facts.push(dup);
        }
        let model = model_of(&facts);
        let built = Instance::from_facts(facts.clone());
        assert_reads(&built, &model, &vals, rng);
        let mut inserted = Instance::new();
        for (r, t) in facts.iter().rev() {
            inserted.insert(*r, t.clone());
        }
        assert_eq!(built, inserted);
        assert_eq!(Instance::from_sorted_facts(model.facts()), built);
    }
}

#[test]
fn set_operations_match_the_model() {
    let vals = values(4);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        let fa = random_facts(rng, &vals, 12);
        let fb = random_facts(rng, &vals, 12);
        let (a, b) = (
            Instance::from_facts(fa.clone()),
            Instance::from_facts(fb.clone()),
        );
        let (ma, mb) = (model_of(&fa), model_of(&fb));

        let mut mu = ma.clone();
        for (r, t) in mb.facts() {
            mu.insert(r, t);
        }
        assert_reads(&a.union(&b), &mu, &vals, rng);
        let mut extended = a.clone();
        extended.extend_from(&b);
        assert_reads(&extended, &mu, &vals, rng);
        let mut extended = b.clone();
        extended.extend_from(&a);
        assert_reads(&extended, &mu, &vals, rng);
        assert!(a.is_subset_of(&a.union(&b)) && b.is_subset_of(&a.union(&b)));

        // A renaming that merges values, so renamed facts collide.
        let map: BTreeMap<Value, Value> =
            vals.iter().map(|&v| (v, vals[rng.gen_range(2)])).collect();
        let mut mr = Model::default();
        for (r, t) in ma.facts() {
            mr.insert(r, t.rename(&map));
        }
        assert_reads(&a.rename(&map), &mr, &vals, rng);

        let rels: BTreeSet<RelId> = (0..NUM_RELS)
            .filter(|_| rng.gen_range(2) == 0)
            .map(RelId::from_index)
            .collect();
        let mp = Model(
            ma.0.iter()
                .filter(|(r, _)| rels.contains(r))
                .map(|(r, s)| (*r, s.clone()))
                .collect(),
        );
        assert_reads(&a.project(&rels), &mp, &vals, rng);
    }
}

#[test]
fn eq_hash_and_order_match_the_map_of_sets() {
    // Few values and relations, so instances often share prefixes.
    let vals = values(2);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        let built: Vec<(Instance, Model)> = (0..12)
            .map(|_| {
                let facts = random_facts(rng, &vals, 5);
                (Instance::from_facts(facts.clone()), model_of(&facts))
            })
            .collect();
        for (a, ma) in &built {
            for (b, mb) in &built {
                assert_eq!(a.cmp(b), ma.cmp(mb), "{ma:?} vs {mb:?}");
                assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
                assert_eq!(a == b, ma == mb);
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}

#[test]
fn order_is_relation_by_relation() {
    let vals = values(3);
    let (a, b, c) = (vals[0], vals[1], vals[2]);
    let (p, q) = (RelId::from_index(0), RelId::from_index(1));
    // {P(a), Q(c)} vs {P(a), P(b)}: P's tuple set {a} is a proper prefix of
    // {a, b}, so the first is less, although its second fact Q(c) is
    // greater than P(b).
    let left = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([c]))]);
    let right = Instance::from_facts([(p, Tuple::from([a])), (p, Tuple::from([b]))]);
    assert_eq!(left.cmp(&right), Ordering::Less);
    assert_eq!(right.cmp(&left), Ordering::Greater);
    let model = |i: &Instance| model_of(&facts_of(i));
    assert_eq!(model(&left).cmp(&model(&right)), Ordering::Less);
    // The instance whose first relation is smaller is less, whatever
    // follows; the empty instance is least.
    let only_q = Instance::from_facts([(q, Tuple::from([a]))]);
    assert_eq!(left.cmp(&only_q), Ordering::Less);
    assert_eq!(Instance::new().cmp(&only_q), Ordering::Less);
}

#[test]
fn facts_match_the_set_of_colored_tuples() {
    let vals = values(3);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        let mut facts = Facts::new();
        let mut model: BTreeSet<(u32, Tuple)> = BTreeSet::new();
        let mut stream = Vec::new();
        for _ in 0..30 {
            let (r, t) = random_fact(rng, &vals);
            let c = r.index() as u32;
            stream.push((c, t.clone()));
            assert_eq!(facts.insert(c, t.clone()), model.insert((c, t)));
            let got: Vec<(u32, Tuple)> = facts.iter().map(|(c, t)| (c, t.clone())).collect();
            let expected: Vec<(u32, Tuple)> = model.iter().cloned().collect();
            assert_eq!(got, expected);
            assert_eq!(facts.len(), model.len());
            let (pr, pt) = random_fact(rng, &vals);
            let pc = pr.index() as u32;
            assert_eq!(facts.contains(pc, &pt), model.contains(&(pc, pt)));
        }
        assert_eq!(Facts::from_facts(stream.into_iter().rev()), facts);

        let inst_facts = random_facts(rng, &vals, 10);
        let inst = Instance::from_facts(inst_facts);
        let from_inst = Facts::from_instance(&inst);
        let expected: Vec<(u32, Tuple)> = inst
            .facts()
            .map(|(r, t)| (r.index() as u32, t.clone()))
            .collect();
        let got: Vec<(u32, Tuple)> = from_inst.iter().map(|(c, t)| (c, t.clone())).collect();
        assert_eq!(got, expected);

        let map: BTreeMap<Value, Value> = vals.iter().map(|&v| (v, vals[0])).collect();
        let renamed: BTreeSet<(u32, Tuple)> =
            model.iter().map(|(c, t)| (*c, t.rename(&map))).collect();
        let got: Vec<(u32, Tuple)> = facts
            .rename(&map)
            .iter()
            .map(|(c, t)| (c, t.clone()))
            .collect();
        assert_eq!(got, renamed.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn facts_order_and_hash_match_the_set_of_colored_tuples() {
    let vals = values(2);
    for seed in 0..SEEDS {
        let rng = &mut SplitMix64(seed);
        let built: Vec<(Facts, BTreeSet<(u32, Tuple)>)> = (0..12)
            .map(|_| {
                let fs: Vec<(u32, Tuple)> = random_facts(rng, &vals, 5)
                    .into_iter()
                    .map(|(r, t)| (r.index() as u32, t))
                    .collect();
                (Facts::from_facts(fs.clone()), fs.into_iter().collect())
            })
            .collect();
        for (a, ma) in &built {
            for (b, mb) in &built {
                assert_eq!(a.cmp(b), ma.cmp(mb));
                assert_eq!(a == b, ma == mb);
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}

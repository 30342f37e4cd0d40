//! Seeded differential test: the arena/delta state store against owned
//! `Facts`/`Instance` state.
//!
//! Random mutation chains (insert/remove a few facts off a random
//! existing state — the shape of an action's effect) are applied to both
//! representations in lockstep; every stored state must then materialise
//! **bit-identically**: same fact iteration order, same `Facts` and
//! `Instance`, same dedup lookup.
//!
//! Runs offline: pseudo-randomness is a local SplitMix64 (Steele, Lea &
//! Flood, OOPSLA 2014), not the `rand` crate, so the exact same chains
//! replay on every run and platform.

use dcds_reldata::{ConstantPool, Facts, Instance, RelId, StateRef, StateStore, Tuple, Value};

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

const NUM_RELS: u32 = 3;
const NUM_VALUES: usize = 6;

fn random_fact(rng: &mut SplitMix64, vals: &[Value]) -> (u32, Tuple) {
    let color = rng.gen_range(NUM_RELS as usize) as u32;
    let arity = 1 + rng.gen_range(2);
    let tuple = Tuple::new(
        (0..arity)
            .map(|_| vals[rng.gen_range(vals.len())])
            .collect::<Vec<_>>(),
    );
    (color, tuple)
}

/// Apply a random action-shaped mutation (a few inserts and removes) to a
/// copy of `base`. `Facts` has no removal — like the engines, build the
/// successor fact set from scratch.
fn mutate(rng: &mut SplitMix64, base: &Facts, vals: &[Value]) -> Facts {
    let mut kept: Vec<(u32, Tuple)> = base.iter().map(|(c, t)| (c, t.clone())).collect();
    for _ in 0..rng.gen_range(3) {
        if kept.is_empty() {
            break;
        }
        kept.remove(rng.gen_range(kept.len()));
    }
    let mut out = Facts::new();
    for (c, t) in kept {
        out.insert(c, t);
    }
    for _ in 0..1 + rng.gen_range(3) {
        let (c, t) = random_fact(rng, vals);
        out.insert(c, t);
    }
    out
}

#[test]
fn random_mutation_chains_materialise_identically() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64(0xd1f_f00d ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals: Vec<Value> = (0..NUM_VALUES)
            .map(|i| pool.intern(&format!("v{i}")))
            .collect();

        // Root state: a handful of random facts.
        let mut root = Facts::new();
        for _ in 0..2 + rng.gen_range(4) {
            let (c, t) = random_fact(&mut rng, &vals);
            root.insert(c, t);
        }

        let mut store = StateStore::new();
        // Owned oracle and store evolve in lockstep: owned[i] <-> refs[i].
        let mut owned: Vec<Facts> = vec![root.clone()];
        let mut refs: Vec<StateRef> = vec![store.insert(None, &root).state];

        for _ in 0..60 {
            let parent = rng.gen_range(owned.len());
            let child = mutate(&mut rng, &owned[parent], &vals);
            let ins = store.insert(Some(refs[parent]), &child);
            match owned.iter().position(|f| *f == child) {
                Some(ix) => assert_eq!(
                    ins.state, refs[ix],
                    "store dedup disagrees with owned equality (seed {seed})"
                ),
                None => {
                    assert!(
                        !ins.existing,
                        "store claims a novel state exists (seed {seed})"
                    );
                    owned.push(child);
                    refs.push(ins.state);
                }
            }
        }

        for i in 0..owned.len() {
            let facts = &owned[i];
            let view = store.view(refs[i]);

            // Iteration order, facts, instance: bit-identical.
            let owned_seq: Vec<(u32, Tuple)> = facts.iter().map(|(c, t)| (c, t.clone())).collect();
            let view_seq: Vec<(u32, Tuple)> = view.iter().map(|(c, t)| (c, t.clone())).collect();
            assert_eq!(
                owned_seq, view_seq,
                "iteration order diverged (seed {seed})"
            );
            assert_eq!(view.to_facts(), *facts);
            assert_eq!(store.facts(refs[i]), *facts);

            let inst = facts_to_instance(facts);
            assert_eq!(view.to_instance(NUM_RELS), inst);
            assert_eq!(store.instance(refs[i], NUM_RELS), inst);

            // Dedup lookup finds exactly this state.
            assert_eq!(store.find(facts), Some(refs[i]));
        }
    }
}

/// Materialisation across delta re-root boundaries: a linear chain long
/// enough to cross `MAX_DELTA_DEPTH` (children at depths 31, 32, 33 sit
/// just before, on, and just after the store's re-root point) must resolve
/// every state to exactly its facts and find it again by them, no matter
/// how the store represents the state or its ancestors internally.
#[test]
fn states_materialise_across_reroot_boundaries() {
    use dcds_reldata::MAX_DELTA_DEPTH;
    let chain_len = MAX_DELTA_DEPTH + 8;
    for seed in 0..4u64 {
        let mut rng = SplitMix64(0x5ec_0ded ^ seed.wrapping_mul(0x9e37_79b9));
        let mut pool = ConstantPool::new();
        let vals: Vec<Value> = (0..NUM_VALUES)
            .map(|i| pool.intern(&format!("v{i}")))
            .collect();

        let mut root = Facts::new();
        for _ in 0..2 + rng.gen_range(4) {
            let (c, t) = random_fact(&mut rng, &vals);
            root.insert(c, t);
        }
        let mut store = StateStore::new();
        let mut chain = vec![(store.insert(None, &root).state, root)];
        for depth in 1..=chain_len {
            let (prev_ref, prev_facts) = chain.last().expect("root inserted");
            // Force novel children so the chain actually deepens.
            let child = loop {
                let cand = mutate(&mut rng, prev_facts, &vals);
                if chain.iter().all(|(_, f)| *f != cand) {
                    break cand;
                }
            };
            let r = store.insert(Some(*prev_ref), &child).state;
            assert_eq!(
                store.view(r).to_facts(),
                child,
                "materialisation diverged at depth {depth} (seed {seed})"
            );
            assert_eq!(
                store.find(&child),
                Some(r),
                "lookup missed at depth {depth} (seed {seed})"
            );
            chain.push((r, child));
        }
        // No chain of `MAX_DELTA_DEPTH + 8` links is one delta chain.
        assert!(store.stats().root_states >= 2, "seed {seed}");
        // Later re-roots leave every earlier state intact.
        for (depth, (r, facts)) in chain.iter().enumerate() {
            assert_eq!(
                store.view(*r).to_facts(),
                *facts,
                "depth {depth} (seed {seed})"
            );
            assert_eq!(store.find(facts), Some(*r), "depth {depth} (seed {seed})");
        }
    }
}

/// Project the database colors of `facts` into an `Instance` (colors `>=
/// NUM_RELS` are service-call-map entries and have no relational slot).
fn facts_to_instance(facts: &Facts) -> Instance {
    let mut inst = Instance::new();
    for (c, t) in facts.iter() {
        if c < NUM_RELS {
            inst.insert(RelId::from_index(c as usize), t.clone());
        }
    }
    inst
}

//! Seeded differential test of the constraints' delta check against the
//! full check.
//!
//! For a base instance that satisfies a constraint, the delta check
//! decides `base ∪ Δ` from the guard rows that use a `Δ` fact only
//! ([`Constraint::satisfied_with_delta`]). On random satisfying bases and
//! random deltas its verdict must equal [`Constraint::satisfied`] on the
//! materialised union, for every constraint shape the det abstraction
//! screens with it: keys, equality constraints with several disjuncts,
//! constants and repeated variables in guard atoms, and the three-way
//! guard of the collision constraints. A constraint whose consequent
//! reads a relation, or whose plan needs an ADOM step, must report no
//! delta check.
//!
//! Runs offline: pseudo-randomness is a local SplitMix64, so the same
//! instances replay on every run and platform.

use dcds_folang::{parse_formula, Constraint, EqualityConstraint, FoConstraint, QTerm};
use dcds_reldata::{ConstantPool, Instance, RelId, Schema, Tuple, Value};

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

/// Schema `P/1, Q/2, E/2` over the constants `c0..c4`.
struct World {
    schema: Schema,
    pool: ConstantPool,
    rels: Vec<RelId>,
    consts: Vec<Value>,
}

impl World {
    fn new() -> World {
        let mut schema = Schema::new();
        let rels = vec![
            schema.add_relation("P", 1).unwrap(),
            schema.add_relation("Q", 2).unwrap(),
            schema.add_relation("E", 2).unwrap(),
        ];
        let mut pool = ConstantPool::new();
        let consts = (0..5).map(|i| pool.intern(&format!("c{i}"))).collect();
        World {
            schema,
            pool,
            rels,
            consts,
        }
    }

    fn fo(&mut self, src: &str) -> FoConstraint {
        let f = parse_formula(src, &mut self.schema, &mut self.pool).unwrap();
        FoConstraint::new(f).unwrap()
    }

    /// `premise -> X = Y`.
    fn equality(&mut self, premise: &str) -> EqualityConstraint {
        let f = parse_formula(premise, &mut self.schema, &mut self.pool).unwrap();
        EqualityConstraint::new(f, vec![(QTerm::var("X"), QTerm::var("Y"))]).unwrap()
    }

    fn random_fact(&self, rng: &mut SplitMix64) -> (RelId, Tuple) {
        let rel = self.rels[rng.gen_range(self.rels.len())];
        let vals: Vec<Value> = (0..self.schema.arity(rel))
            .map(|_| self.consts[rng.gen_range(self.consts.len())])
            .collect();
        (rel, Tuple::from(vals))
    }

    /// A random base that satisfies `c`: random facts, each kept only if
    /// the base still satisfies `c` with it.
    fn satisfying_base(&self, rng: &mut SplitMix64, c: &dyn Constraint) -> Instance {
        let mut base = Instance::new();
        for _ in 0..rng.gen_range(14) {
            let (rel, t) = self.random_fact(rng);
            if base.insert(rel, t.clone()) && !c.satisfied(&base) {
                base.remove(rel, &t);
            }
        }
        base
    }

    /// One to three random facts, which may repeat base facts.
    fn random_delta(&self, rng: &mut SplitMix64) -> Instance {
        Instance::from_facts((0..1 + rng.gen_range(3)).map(|_| self.random_fact(rng)))
    }
}

/// The delta verdict equals the full check of the union on 400
/// random satisfying bases and deltas, and both verdicts occur.
fn agrees_with_the_full_check(world: &World, name: &str, c: &dyn Constraint, seed: u64) {
    assert!(c.has_delta_check(), "{name} has no delta check");
    let mut rng = SplitMix64(0xde17_a000 ^ seed.wrapping_mul(0x9e37_79b9));
    let (mut held, mut violated) = (0, 0);
    for _ in 0..400 {
        let base = world.satisfying_base(&mut rng, c);
        let delta = world.random_delta(&mut rng);
        let full = c.satisfied(&base.union(&delta));
        assert_eq!(
            c.satisfied_with_delta(&base, &delta),
            Some(full),
            "{name}: base {base:?}, delta {delta:?}"
        );
        if full {
            held += 1;
        } else {
            violated += 1;
        }
    }
    assert!(
        held > 0 && violated > 0,
        "{name}: {held} held, {violated} violated"
    );
}

#[test]
fn delta_verdicts_equal_the_full_check() {
    let mut world = World::new();
    let e = world.rels[2];
    let q = world.rels[1];
    let mut cases: Vec<(&str, Box<dyn Constraint>)> = vec![
        (
            "key E[0]",
            Box::new(EqualityConstraint::key(&world.schema, e, &[0])),
        ),
        (
            "key Q[1]",
            Box::new(EqualityConstraint::key(&world.schema, q, &[1])),
        ),
    ];
    let equalities = [
        ("two disjuncts", "(P(X) & Q(X, Y)) | (E(X, Y) & P(Y))"),
        ("constants in the guard", "Q(X, c0) & E(c1, Y) & P(X)"),
        ("repeated variable", "Q(X, X) & E(X, Y)"),
    ];
    for (name, premise) in equalities {
        cases.push((name, Box::new(world.equality(premise))));
    }
    let sentences = [
        (
            "three-way guard",
            "forall X, Y, Z, V . E(X, V) & E(Y, V) & E(Z, V) -> X = Y | X = Z | Y = Z",
        ),
        (
            "fresh only",
            "forall X, V . E(X, V) -> V != c0 & V != c1 & V != c2",
        ),
        ("constant guard", "forall X . Q(c0, X) -> X = c1 | X = c2"),
        (
            "repeated variable, implication",
            "forall X, Y . Q(X, X) & E(X, Y) -> (X != Y -> Y = c3)",
        ),
        (
            "nested guards",
            "forall X . P(X) -> forall Y . Q(X, Y) -> X = Y | Y = c4",
        ),
        // The violation joins P: `E(X, Y) & X != Y & P(Y)`.
        (
            "negated consequent atom",
            "forall X, Y . E(X, Y) -> X = Y | !P(Y)",
        ),
    ];
    for (name, src) in sentences {
        cases.push((name, Box::new(world.fo(src))));
    }
    for (seed, (name, c)) in cases.iter().enumerate() {
        agrees_with_the_full_check(&world, name, c.as_ref(), seed as u64);
    }
}

#[test]
fn constraints_outside_the_screen_report_no_delta_check() {
    let mut world = World::new();
    let a = world.consts[0];
    let base = Instance::from_facts([(world.rels[0], Tuple::from([a]))]);
    let delta = Instance::from_facts([(world.rels[1], Tuple::from([a, a]))]);
    let fo = [
        // The consequent reads a relation.
        "forall X . P(X) -> Q(X, X)",
        "forall X, Y . E(X, Y) -> X = Y | P(Y)",
        // A variable in no guard atom: an ADOM step.
        "forall X . P(X) | X = c0",
    ];
    for src in fo {
        let c = world.fo(src);
        assert!(!c.has_delta_check(), "{src}");
        assert_eq!(c.satisfied_with_delta(&base, &delta), None, "{src}");
    }
    // A premise outside the UCQs.
    let c = world.equality("P(X) & Q(X, Y) & !E(X, Y)");
    assert!(!c.has_delta_check());
    assert_eq!(c.satisfied_with_delta(&base, &delta), None);
}

//! Seeded differential test: compiled constraint checks against the
//! active-domain definition.
//!
//! Random sentences — `∀`-closed guards of one to three atoms (multi-atom
//! guards where no single atom covers the block, the shape of
//! triple-collision constraints like `∀X,Y,Z,V . E(X,V) ∧ E(Y,V) ∧ E(Z,V)
//! → ...`), `∃`-closed conjunctions and `∃`-closed unions of conjunctive
//! bodies — are checked as integrity constraints
//! ([`FoConstraint::satisfied`], which runs the compiled plan of the
//! sentence's violation) against the definition ([`fo_satisfied`]: the
//! sentence holds, every quantifier enumerating `ADOM(I)`). Equality
//! constraints (random UCQ premises, keys) are checked against
//! [`equality_satisfied`]: every answer of the premise meets every
//! equality.
//!
//! Runs offline: pseudo-randomness is a local SplitMix64, not the `rand`
//! crate, so the exact same formulas replay on every run and platform.

use dcds_folang::{
    equality_satisfied, fo_satisfied, holds_closed, EqualityConstraint, FoConstraint, Formula,
    QTerm, Var,
};
use dcds_reldata::{ConstantPool, Instance, RelId, Schema, Tuple, Value};
use std::collections::BTreeSet;

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

const NUM_CONSTS: usize = 5;
const VAR_NAMES: [&str; 4] = ["X", "Y", "Z", "V"];

fn setup(rng: &mut SplitMix64) -> (Schema, Vec<Value>, Vec<RelId>, Instance) {
    let mut schema = Schema::new();
    let rels = vec![
        schema.add_relation("P", 1).unwrap(),
        schema.add_relation("Q", 2).unwrap(),
        schema.add_relation("E", 2).unwrap(),
    ];
    let mut pool = ConstantPool::new();
    let consts: Vec<Value> = (0..NUM_CONSTS)
        .map(|i| pool.intern(&format!("c{i}")))
        .collect();
    let mut inst = Instance::new();
    for _ in 0..2 + rng.gen_range(9) {
        let r = rng.gen_range(rels.len());
        let arity = schema.arity(rels[r]);
        let t: Vec<Value> = (0..arity)
            .map(|_| consts[rng.gen_range(consts.len())])
            .collect();
        inst.insert(rels[r], Tuple::new(t));
    }
    (schema, consts, rels, inst)
}

/// A random atom over the given variables (terms are block variables or
/// constants, constants rare so joins stay non-trivial).
fn random_atom(
    rng: &mut SplitMix64,
    schema: &Schema,
    rels: &[RelId],
    consts: &[Value],
    vars: &[&str],
) -> Formula {
    let rel = rels[rng.gen_range(rels.len())];
    let terms: Vec<QTerm> = (0..schema.arity(rel))
        .map(|_| {
            if rng.gen_range(5) == 0 {
                QTerm::Const(consts[rng.gen_range(consts.len())])
            } else {
                QTerm::var(vars[rng.gen_range(vars.len())])
            }
        })
        .collect();
    Formula::Atom(rel, terms)
}

/// A random conclusion / extra conjunct: an equality or an atom.
fn random_leaf(
    rng: &mut SplitMix64,
    schema: &Schema,
    rels: &[RelId],
    consts: &[Value],
    vars: &[&str],
) -> Formula {
    if rng.gen_range(2) == 0 {
        Formula::eq(
            QTerm::var(vars[rng.gen_range(vars.len())]),
            if rng.gen_range(2) == 0 {
                QTerm::var(vars[rng.gen_range(vars.len())])
            } else {
                QTerm::Const(consts[rng.gen_range(consts.len())])
            },
        )
    } else {
        random_atom(rng, schema, rels, consts, vars)
    }
}

#[test]
fn compiled_checks_follow_the_definition_on_forall_guards() {
    // ∀-blocks with 1–3-atom guards: no single atom need cover the block.
    for seed in 0..6u64 {
        let mut rng = SplitMix64(0x9a1_ded ^ seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..60 {
            let (schema, consts, rels, inst) = setup(&mut rng);
            let nvars = 2 + rng.gen_range(3);
            let vars = &VAR_NAMES[..nvars];
            let mut lhs = random_atom(&mut rng, &schema, &rels, &consts, vars);
            for _ in 0..rng.gen_range(3) {
                lhs = lhs.and(random_atom(&mut rng, &schema, &rels, &consts, vars));
            }
            let mut rhs = random_leaf(&mut rng, &schema, &rels, &consts, vars);
            if rng.gen_range(2) == 0 {
                rhs = rhs.or(random_leaf(&mut rng, &schema, &rels, &consts, vars));
            }
            // The sentence, and the same guard with the consequent negated.
            let close = |mut f: Formula| {
                for v in vars.iter().rev() {
                    f = Formula::forall(*v, f);
                }
                f
            };
            let negated = close(lhs.clone().implies(rhs.clone().not()));
            let f = close(lhs.implies(rhs));
            check_constraint(&f, &[&inst, &Instance::new()]);
            check_constraint(&negated, &[&inst, &Instance::new()]);
        }
    }
}

#[test]
fn compiled_checks_follow_the_definition_on_exists_conjunctions() {
    for seed in 0..6u64 {
        let mut rng = SplitMix64(0x00e7_1575 ^ seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..60 {
            let (schema, consts, rels, inst) = setup(&mut rng);
            let nvars = 2 + rng.gen_range(3);
            let vars = &VAR_NAMES[..nvars];
            let mut body = random_atom(&mut rng, &schema, &rels, &consts, vars);
            for _ in 0..rng.gen_range(3) {
                body = body.and(random_atom(&mut rng, &schema, &rels, &consts, vars));
            }
            if rng.gen_range(2) == 0 {
                body = body.and(random_leaf(&mut rng, &schema, &rels, &consts, vars));
            }
            let mut f = body;
            for v in vars.iter().rev() {
                f = Formula::exists(*v, f);
            }
            check_constraint(&f, &[&inst]);
        }
    }
}

#[test]
fn compiled_checks_follow_the_definition_on_exists_disjunctions() {
    // ∃-closed UCQ formulas: a disjunction of conjunctive bodies, each
    // with its own inner ∃-block, closed over the variables left free.
    let mut held = 0;
    for seed in 0..6u64 {
        let mut rng = SplitMix64(0xd15_1ac7 ^ seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..60 {
            let (schema, consts, rels, inst) = setup(&mut rng);
            let nvars = 2 + rng.gen_range(3);
            let vars = &VAR_NAMES[..nvars];
            let mut ucq: Option<Formula> = None;
            for _ in 0..2 + rng.gen_range(2) {
                let mut body = random_atom(&mut rng, &schema, &rels, &consts, vars);
                for _ in 0..rng.gen_range(3) {
                    body = body.and(random_atom(&mut rng, &schema, &rels, &consts, vars));
                }
                if rng.gen_range(2) == 0 {
                    body = body.and(random_leaf(&mut rng, &schema, &rels, &consts, vars));
                }
                for v in vars.iter().filter(|_| rng.gen_range(2) == 0) {
                    body = Formula::exists(*v, body);
                }
                ucq = Some(match ucq {
                    Some(u) => u.or(body),
                    None => body,
                });
            }
            let mut f = ucq.expect("at least two disjuncts");
            for v in f.free_vars() {
                f = Formula::Exists(v, Box::new(f));
            }
            held += usize::from(check_constraint(&f, &[&inst]) == 1);
        }
    }
    // Both verdicts occur in bulk.
    assert!((60..300).contains(&held), "{held} of 360 held");
}

/// Variables of the top-level conjunct atoms.
fn atom_vars(f: &Formula) -> BTreeSet<Var> {
    match f {
        Formula::And(g, h) => atom_vars(g).union(&atom_vars(h)).cloned().collect(),
        Formula::Atom(_, terms) => terms.iter().filter_map(|t| t.as_var().cloned()).collect(),
        _ => BTreeSet::new(),
    }
}

/// Check `sentence` as an FO constraint on every instance against the
/// definition; return on how many it holds.
fn check_constraint(sentence: &Formula, insts: &[&Instance]) -> usize {
    let c = FoConstraint::new(sentence.clone()).unwrap();
    let mut held = 0;
    for inst in insts {
        let sat = fo_satisfied(&c, inst);
        assert_eq!(c.satisfied(inst), sat, "{sentence:?} over {inst:?}");
        held += usize::from(sat);
    }
    held
}

#[test]
fn compiled_equality_constraints_agree_with_answers() {
    // Premises: one or two disjuncts of 1–3 atoms, sometimes with an
    // equality on an atom variable; disjuncts over different free
    // variables need ADOM steps.
    for seed in 0..6u64 {
        let mut rng = SplitMix64(0x0e9_c057 ^ seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..60 {
            let (schema, consts, rels, inst) = setup(&mut rng);
            let nvars = 1 + rng.gen_range(3);
            let vars = &VAR_NAMES[..nvars];
            let ndisjuncts = 1 + rng.gen_range(2);
            let disjuncts: Vec<Formula> = (0..ndisjuncts)
                .map(|_| {
                    let mut d = random_atom(&mut rng, &schema, &rels, &consts, vars);
                    for _ in 0..rng.gen_range(3) {
                        d = d.and(random_atom(&mut rng, &schema, &rels, &consts, vars));
                    }
                    let avars: Vec<Var> = atom_vars(&d).into_iter().collect();
                    if !avars.is_empty() && rng.gen_range(4) == 0 {
                        let v = avars[rng.gen_range(avars.len())].clone();
                        let c = consts[rng.gen_range(consts.len())];
                        d = d.and(Formula::eq(QTerm::Var(v), QTerm::Const(c)));
                    }
                    d
                })
                .collect();
            let premise = Formula::disj(disjuncts);
            let free: Vec<Var> = premise.free_vars().into_iter().collect();
            let term = |rng: &mut SplitMix64| {
                if free.is_empty() || rng.gen_range(3) == 0 {
                    QTerm::Const(consts[rng.gen_range(consts.len())])
                } else {
                    QTerm::Var(free[rng.gen_range(free.len())].clone())
                }
            };
            let eqs: Vec<(QTerm, QTerm)> = (0..1 + rng.gen_range(2))
                .map(|_| (term(&mut rng), term(&mut rng)))
                .collect();
            let c = EqualityConstraint::new(premise, eqs).unwrap();
            for inst in [&inst, &Instance::new()] {
                assert_eq!(
                    c.satisfied(inst),
                    equality_satisfied(&c, inst),
                    "{c:?} over {inst:?} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn key_constraints_compile_and_agree_with_answers() {
    for seed in 0..4u64 {
        let mut rng = SplitMix64(0x0000_6e75 ^ seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..40 {
            let (schema, _, rels, inst) = setup(&mut rng);
            let rel = rels[rng.gen_range(rels.len())];
            let key: Vec<usize> = (0..schema.arity(rel))
                .filter(|_| rng.gen_range(2) == 0)
                .collect();
            let c = EqualityConstraint::key(&schema, rel, &key);
            for inst in [&inst, &Instance::new()] {
                assert_eq!(c.satisfied(inst), equality_satisfied(&c, inst), "{c:?}");
            }
        }
    }
}

/// A schema with a nullary relation beside `setup`'s, and random
/// instances over it (the nullary fact present about half the time).
fn shape_instances() -> (Vec<RelId>, Vec<Value>, Vec<Instance>) {
    let mut schema = Schema::new();
    let rels = vec![
        schema.add_relation("P", 1).unwrap(),
        schema.add_relation("Q", 2).unwrap(),
        schema.add_relation("V", 0).unwrap(),
    ];
    let mut pool = ConstantPool::new();
    let consts: Vec<Value> = (0..3).map(|i| pool.intern(&format!("c{i}"))).collect();
    let mut rng = SplitMix64(0x005b_a9e5);
    let mut insts = vec![Instance::new()];
    for _ in 0..80 {
        let mut inst = Instance::new();
        for _ in 0..rng.gen_range(6) {
            let r = rels[rng.gen_range(rels.len())];
            let t: Vec<Value> = (0..schema.arity(r))
                .map(|_| consts[rng.gen_range(consts.len())])
                .collect();
            inst.insert(r, Tuple::new(t));
        }
        insts.push(inst);
    }
    (rels, consts, insts)
}

#[test]
fn constraint_shapes_take_the_expected_path() {
    let (rels, c, insts) = shape_instances();
    let (p, q, verified) = (rels[0], rels[1], rels[2]);
    let x = || QTerm::var("X");
    let y = || QTerm::var("Y");
    let s = || QTerm::var("S");
    let at = |r: RelId, ts: Vec<QTerm>| Formula::Atom(r, ts);
    let k = |i: usize| QTerm::Const(c[i]);
    let forall2 = |a: &str, b: &str, f: Formula| Formula::forall(a, Formula::forall(b, f));
    let insts: Vec<&Instance> = insts.iter().collect();
    let shapes: Vec<Formula> = vec![
        // The travel-request shape: a 0-ary guard, then a nested ∀.
        at(verified, vec![]).implies(Formula::forall(
            "S",
            at(p, vec![s()]).implies(Formula::eq(s(), k(0)).or(Formula::eq(s(), k(1)))),
        )),
        // Consequent atoms and negated atoms.
        forall2(
            "X",
            "Y",
            at(q, vec![x(), y()]).implies(at(p, vec![x()]).and(at(p, vec![y()]).not())),
        ),
        // Constants in the guard and the consequent; `→` inside ψ.
        Formula::forall(
            "X",
            at(q, vec![x(), k(0)]).implies(
                Formula::neq(x(), k(1)).and(at(p, vec![x()]).implies(at(q, vec![k(2), x()]))),
            ),
        ),
        // A repeated variable and a guard equality.
        forall2(
            "X",
            "Y",
            at(q, vec![x(), x()])
                .and(at(p, vec![y()]))
                .and(Formula::eq(x(), y()))
                .implies(Formula::False),
        ),
        // Ground sentences: a bare atom, and `true → ψ`.
        at(p, vec![k(0)]),
        Formula::True.implies(at(verified, vec![]).or(at(p, vec![k(1)]))),
    ];
    for f in &shapes {
        check_constraint(f, &insts);
    }
    let beyond_guards: Vec<Formula> = vec![
        // A ∀ variable in no atom.
        forall2(
            "X",
            "Y",
            at(p, vec![x()]).implies(Formula::eq(x(), y()).or(at(q, vec![x(), y()]))),
        ),
        // ∃ in the consequent.
        Formula::forall(
            "X",
            at(p, vec![x()]).implies(Formula::exists("Y", at(q, vec![x(), y()]))),
        ),
        // Shadowing: the inner X is a different variable.
        Formula::forall(
            "X",
            at(p, vec![x()]).implies(Formula::forall(
                "X",
                at(q, vec![x(), x()]).implies(Formula::eq(x(), k(0))),
            )),
        ),
        // An equality variable in no atom.
        forall2(
            "X",
            "Y",
            at(p, vec![x()])
                .and(Formula::eq(x(), y()))
                .implies(at(q, vec![x(), y()])),
        ),
        // A vacuous ∀ over a ground body (empty-domain sensitive).
        Formula::forall("X", Formula::True.implies(at(p, vec![k(0)]))),
    ];
    for f in &beyond_guards {
        check_constraint(f, &insts);
    }
}

#[test]
fn equality_constraint_shapes_take_the_expected_path() {
    let (rels, c, insts) = shape_instances();
    let (p, q) = (rels[0], rels[1]);
    let x = || QTerm::var("X");
    let y = || QTerm::var("Y");
    let at = |r: RelId, ts: Vec<QTerm>| Formula::Atom(r, ts);
    let check = |premise: Formula, eqs: Vec<(QTerm, QTerm)>| {
        let ec = EqualityConstraint::new(premise, eqs).unwrap();
        for inst in &insts {
            assert_eq!(ec.satisfied(inst), equality_satisfied(&ec, inst), "{ec:?}");
        }
    };
    let (c0, c1) = (QTerm::Const(c[0]), QTerm::Const(c[1]));
    // Multi-disjunct premise with an existential variable.
    check(
        at(p, vec![x()]).or(Formula::exists("Y", at(q, vec![x(), y()]))),
        vec![(x(), c0.clone())],
    );
    // `false` premise: no guard rows at all; `true`: one empty row.
    check(Formula::False, vec![(c0.clone(), c1.clone())]);
    check(Formula::True, vec![(c0, c1)]);
    // An equality variable in no atom.
    check(
        at(p, vec![x()]).and(Formula::eq(x(), y())),
        vec![(x(), y())],
    );
    // Negation: no UCQ.
    check(
        at(p, vec![x()]).and(at(q, vec![x(), x()]).not()),
        vec![(x(), QTerm::Const(c[2]))],
    );
}

#[test]
fn triple_collision_constraint_shape() {
    // The collision_pairs invariant verbatim: at most two X share a V.
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 2).unwrap();
    let mut pool = ConstantPool::new();
    let a = pool.intern("a");
    let b = pool.intern("b");
    let c = pool.intern("c");
    let v = pool.intern("v");
    let f = Formula::forall(
        "X",
        Formula::forall(
            "Y",
            Formula::forall(
                "Z",
                Formula::forall(
                    "V",
                    Formula::Atom(e, vec![QTerm::var("X"), QTerm::var("V")])
                        .and(Formula::Atom(e, vec![QTerm::var("Y"), QTerm::var("V")]))
                        .and(Formula::Atom(e, vec![QTerm::var("Z"), QTerm::var("V")]))
                        .implies(
                            Formula::eq(QTerm::var("X"), QTerm::var("Y"))
                                .or(Formula::eq(QTerm::var("X"), QTerm::var("Z")))
                                .or(Formula::eq(QTerm::var("Y"), QTerm::var("Z"))),
                        ),
                ),
            ),
        ),
    );
    let pairs = Instance::from_facts([(e, Tuple::from([a, v])), (e, Tuple::from([b, v]))]);
    assert!(holds_closed(&f, &pairs).unwrap());
    let triple = Instance::from_facts([
        (e, Tuple::from([a, v])),
        (e, Tuple::from([b, v])),
        (e, Tuple::from([c, v])),
    ]);
    assert!(!holds_closed(&f, &triple).unwrap());
    check_constraint(&f, &[&pairs, &triple, &Instance::new()]);
}

#[test]
fn inner_block_shadows_outer_binding() {
    // ∃X. P(X) ∧ (∃X,Y. Q(X,Y) ∧ X = 'c1'): the inner block's X must
    // rebind freely, not stay pinned to the outer witness.
    let mut schema = Schema::new();
    let p = schema.add_relation("P", 1).unwrap();
    let q = schema.add_relation("Q", 2).unwrap();
    let mut pool = ConstantPool::new();
    let c0 = pool.intern("c0");
    let c1 = pool.intern("c1");
    let inst = Instance::from_facts([(p, Tuple::from([c0])), (q, Tuple::from([c1, c0]))]);
    let inner = Formula::exists(
        "X",
        Formula::exists(
            "Y",
            Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")])
                .and(Formula::eq(QTerm::var("X"), QTerm::Const(c1))),
        ),
    );
    let f = Formula::exists("X", Formula::Atom(p, vec![QTerm::var("X")]).and(inner));
    // Outer X = c0 (the only P witness); inner X must still find Q(c1, _).
    assert!(holds_closed(&f, &inst).unwrap());
    check_constraint(&f, &[&inst]);
}

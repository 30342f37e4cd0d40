//! Seeded differential test for the compiled query plans.
//!
//! Runs offline: a deterministic SplitMix64 generator produces random
//! schemas, instances, and UCQs (with equalities and parameter bindings),
//! and every case is checked four ways —
//!
//! 1. the reference active-domain evaluator (`answers`),
//! 2. the nested-loop join evaluator (`eval_ucq`),
//! 3. the compiled plan over relation scans,
//! 4. the compiled plan through a prebuilt [`InstanceIndex`] —
//!
//! all of which must return **bit-identical** `BTreeSet<Assignment>`s.

use dcds_folang::{answers, eval_ucq, Assignment, CompiledPlan, EvalCtx, QTerm, Var};
use dcds_folang::{ConjunctiveQuery, Ucq};
use dcds_reldata::{ConstantPool, Instance, InstanceIndex, RelId, Schema, Tuple, Value};
use std::collections::BTreeSet;

/// SplitMix64 (Steele, Lea & Flood) — same generator the bench crate
/// ships; duplicated here because dev-dependencies may not cross crates.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

const ARITIES: [usize; 3] = [1, 2, 2];
const NUM_CONSTS: usize = 6;
const NUM_VARS: usize = 5;

struct Case {
    instance: Instance,
    ucq: Ucq,
    consts: Vec<Value>,
}

fn gen_case(rng: &mut SplitMix64) -> Case {
    let mut schema = Schema::new();
    let rels: Vec<RelId> = ARITIES
        .iter()
        .enumerate()
        .map(|(i, &a)| schema.add_relation(&format!("R{i}"), a).unwrap())
        .collect();
    let mut pool = ConstantPool::new();
    let consts: Vec<Value> = (0..NUM_CONSTS)
        .map(|i| pool.intern(&format!("c{i}")))
        .collect();
    let vars: Vec<Var> = (0..NUM_VARS).map(|i| Var::new(&format!("V{i}"))).collect();

    let mut instance = Instance::new();
    for _ in 0..rng.below(30) {
        let rel_ix = rng.below(rels.len());
        let tuple: Vec<Value> = (0..ARITIES[rel_ix])
            .map(|_| consts[rng.below(NUM_CONSTS)])
            .collect();
        instance.insert(rels[rel_ix], Tuple::from(tuple));
    }

    // Disjuncts with atoms over random vars/consts; equalities drawn from
    // the disjunct's own atom variables (and constants) so every generated
    // query stays inside the compilable range-restricted fragment.
    let num_disjuncts = 1 + rng.below(2);
    let mut raw: Vec<ConjunctiveQuery> = Vec::new();
    for _ in 0..num_disjuncts {
        let mut atoms: Vec<(RelId, Vec<QTerm>)> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let rel_ix = rng.below(rels.len());
            let terms: Vec<QTerm> = (0..ARITIES[rel_ix])
                .map(|_| {
                    if rng.chance(7, 10) {
                        QTerm::Var(vars[rng.below(NUM_VARS)].clone())
                    } else {
                        QTerm::Const(consts[rng.below(NUM_CONSTS)])
                    }
                })
                .collect();
            atoms.push((rels[rel_ix], terms));
        }
        let avars: Vec<Var> = atoms
            .iter()
            .flat_map(|(_, ts)| ts.iter().filter_map(|t| t.as_var().cloned()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut equalities = Vec::new();
        if !avars.is_empty() {
            for _ in 0..rng.below(3) {
                let side = |rng: &mut SplitMix64, avars: &[Var], consts: &[Value]| {
                    if rng.chance(6, 10) {
                        QTerm::Var(avars[rng.below(avars.len())].clone())
                    } else {
                        QTerm::Const(consts[rng.below(consts.len())])
                    }
                };
                equalities.push((side(rng, &avars, &consts), side(rng, &avars, &consts)));
            }
        }
        raw.push(ConjunctiveQuery {
            head: avars,
            atoms,
            equalities,
        });
    }
    // Shared head: a random subset of the intersection of the disjuncts'
    // atom variables (UCQ disjuncts must answer over the same head).
    let shared: BTreeSet<Var> = raw
        .iter()
        .map(|cq| cq.head.iter().cloned().collect::<BTreeSet<_>>())
        .reduce(|a, b| a.intersection(&b).cloned().collect())
        .unwrap_or_default();
    let head: Vec<Var> = shared.into_iter().filter(|_| rng.chance(7, 10)).collect();
    let disjuncts = raw
        .into_iter()
        .map(|mut cq| {
            cq.head = head.clone();
            cq
        })
        .collect();
    Case {
        instance,
        ucq: Ucq { disjuncts },
        consts,
    }
}

/// The four evaluators agree bit-for-bit on random parameterless UCQs.
#[test]
fn four_way_agreement_on_random_ucqs() {
    let mut rng = SplitMix64(0xdcd5);
    let mut nonempty = 0usize;
    for case_ix in 0..400 {
        let case = gen_case(&mut rng);
        let reference = answers(&case.ucq.to_formula(), &case.instance);
        let nested = eval_ucq(&case.ucq, &case.instance);
        assert_eq!(nested, reference, "case {case_ix}: eval_ucq vs answers");

        let plan = CompiledPlan::compile(&case.ucq, &BTreeSet::new())
            .unwrap_or_else(|e| panic!("case {case_ix}: expected compilable query: {e}"));
        let scanned = plan.eval(&EvalCtx::scan(&case.instance), &Assignment::new());
        assert_eq!(scanned, reference, "case {case_ix}: plan scan diverged");

        let index = InstanceIndex::build(&case.instance, plan.access_paths());
        let indexed = plan.eval(
            &EvalCtx::with_index(&case.instance, &index),
            &Assignment::new(),
        );
        assert_eq!(indexed, reference, "case {case_ix}: plan+index diverged");
        if !reference.is_empty() {
            nonempty += 1;
        }
    }
    // The generator must not silently degenerate into all-empty answers.
    assert!(nonempty > 40, "only {nonempty}/400 cases had answers");
}

/// Parameterised plans agree with filtering the unparameterised answers:
/// `plan(params = P, seed σ)` must equal `{ρ \ P : ρ ∈ eval_ucq, ρ ⊇ σ}`.
#[test]
fn parameterised_plans_agree_with_filtered_answers() {
    let mut rng = SplitMix64(0xbeef);
    let mut checked = 0usize;
    for case_ix in 0..400 {
        let case = gen_case(&mut rng);
        if case.ucq.disjuncts[0].head.is_empty() {
            continue;
        }
        let head = case.ucq.disjuncts[0].head.clone();
        let params: BTreeSet<Var> = head.iter().filter(|_| rng.chance(1, 2)).cloned().collect();
        if params.is_empty() {
            continue;
        }
        let seed: Assignment = params
            .iter()
            .map(|p| (p.clone(), case.consts[rng.below(case.consts.len())]))
            .collect();
        let plan = match CompiledPlan::compile(&case.ucq, &params) {
            Ok(p) => p,
            Err(e) => panic!("case {case_ix}: expected compilable query: {e}"),
        };
        let full = eval_ucq(&case.ucq, &case.instance);
        let expected: BTreeSet<Assignment> = full
            .into_iter()
            .filter(|row| params.iter().all(|p| row.get(p) == seed.get(p)))
            .map(|row| {
                row.into_iter()
                    .filter(|(v, _)| !params.contains(v))
                    .collect()
            })
            .collect();
        let index = InstanceIndex::build(&case.instance, plan.access_paths());
        for ctx in [
            EvalCtx::scan(&case.instance),
            EvalCtx::with_index(&case.instance, &index),
        ] {
            let got = plan.eval(&ctx, &seed);
            assert_eq!(got, expected, "case {case_ix}: params {params:?}");
            assert_eq!(
                plan.holds(&ctx, &seed),
                !expected.is_empty(),
                "case {case_ix}: holds() disagrees with eval()"
            );
        }
        checked += 1;
    }
    assert!(checked > 100, "only {checked}/400 cases exercised params");
}

/// Evaluation is deterministic and index-independent: repeated runs, with
/// and without the index, return the same `BTreeSet` (the engines rely on
/// this for thread-count-independent output).
#[test]
fn index_on_off_determinism() {
    let mut rng = SplitMix64(0x5eed);
    for _ in 0..100 {
        let case = gen_case(&mut rng);
        let plan = CompiledPlan::compile(&case.ucq, &BTreeSet::new()).unwrap();
        let index = InstanceIndex::build(&case.instance, plan.access_paths());
        let baseline = plan.eval(&EvalCtx::scan(&case.instance), &Assignment::new());
        for _ in 0..3 {
            assert_eq!(
                plan.eval(&EvalCtx::scan(&case.instance), &Assignment::new()),
                baseline
            );
            assert_eq!(
                plan.eval(
                    &EvalCtx::with_index(&case.instance, &index),
                    &Assignment::new()
                ),
                baseline
            );
        }
    }
}

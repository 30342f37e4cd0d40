//! Seeded differential test for the compiled query plans.
//!
//! Runs offline: a deterministic SplitMix64 generator produces random
//! schemas, instances, and UCQs (with equalities and parameter bindings),
//! and every case is checked four ways —
//!
//! 1. the reference active-domain evaluator (`answers`) and
//! 2. the compiled plan (sorted-prefix probes for steps keyed on a prefix
//!    of their atom's columns, filtered relation scans otherwise) must
//!    return **bit-identical** `BTreeSet<Assignment>`s, the plan producing
//!    its rows in the same order on every run;
//! 3. the plan compiled with the head variables as parameters must accept
//!    every answer row, and
//! 4. must reject every other head row over the case's constants (heads
//!    of at most three variables: 6,590 rows over the seeded cases).
//!
//! A second generator emits full first-order formulas — `!`, `forall`,
//! `->`, and `|` over disjuncts whose free variables differ, vacuous and
//! shadowing quantifiers, constants outside `ADOM(I)`, the empty instance
//! — whose plans (ADOM steps, filters, anti-join sub-plans) must agree
//! with the reference, as rows and with the head as parameters, and whose
//! readings as FO and equality constraints, full and delta, must agree
//! with the reference verdicts.

use dcds_folang::{answers, equality_satisfied, fo_satisfied, holds, parse_formula};
use dcds_folang::{Assignment, CompiledPlan, EvalCtx, Formula, PlanStats, QTerm, Var};
use dcds_folang::{ConjunctiveQuery, Constraint, EqualityConstraint, FoConstraint, Ucq};
use dcds_reldata::{ConstantPool, Instance, RelId, Schema, Tuple, Value};
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
    // query is range-restricted: a join with no ADOM step.
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

/// The four evaluators agree on random parameterless UCQs.
#[test]
fn four_way_agreement_on_random_ucqs() {
    let mut rng = SplitMix64(0xdcd5);
    let (mut nonempty, mut rejected) = (0usize, 0usize);
    for case_ix in 0..400 {
        let case = gen_case(&mut rng);
        let formula = case.ucq.to_formula();
        let reference = answers(&formula, &case.instance);
        let plan = ucq_plan(&case.ucq, &BTreeSet::new());
        let ctx = EvalCtx::scan(&case.instance);
        assert_eq!(
            plan.eval(&ctx, &Assignment::new()),
            reference,
            "case {case_ix}: plan diverged"
        );
        let head = head_of(&case.ucq);
        let by_row = ucq_plan(&case.ucq, &head.iter().cloned().collect());
        for row in &reference {
            assert!(
                by_row.holds(&ctx, row),
                "case {case_ix}: the parameterised plan rejects {row:?}"
            );
        }
        // Every other head row over the case's constants is no answer.
        if head.len() <= 3 {
            for ix in 0..NUM_CONSTS.pow(head.len() as u32) {
                let row: Assignment = (head.iter().enumerate())
                    .map(|(i, v)| {
                        (
                            v.clone(),
                            case.consts[ix / NUM_CONSTS.pow(i as u32) % NUM_CONSTS],
                        )
                    })
                    .collect();
                if reference.contains(&row) {
                    continue;
                }
                assert!(
                    !by_row.holds(&ctx, &row),
                    "case {case_ix}: the parameterised plan accepts non-answer {row:?}"
                );
                rejected += 1;
            }
        }
        if !reference.is_empty() {
            nonempty += 1;
        }
    }
    // The generator must not silently degenerate into all-empty answers,
    // nor check 4 into a handful of rows.
    assert!(nonempty > 40, "only {nonempty}/400 cases had answers");
    assert!(rejected >= 6590, "only {rejected} non-answer rows checked");
}

/// The plan is deterministic: repeated runs produce the same rows in the
/// same order (the engines rely on this for thread-count-independent
/// output), whether the run counts its probes and scans or not, and on a
/// copy of the instance built from its facts in reverse order — a
/// sorted-prefix range, the one indexed access a plan has, depends on the
/// instance's contents only.
#[test]
fn index_on_off_determinism() {
    let mut rng = SplitMix64(0x5eed);
    for case_ix in 0..100 {
        let case = gen_case(&mut rng);
        let plan = ucq_plan(&case.ucq, &BTreeSet::new());
        let head = head_of(&case.ucq);
        let rebuilt = Instance::from_facts(
            case.instance
                .facts()
                .map(|(rel, t)| (rel, t.clone()))
                .collect::<Vec<_>>()
                .into_iter()
                .rev(),
        );
        assert_eq!(rebuilt, case.instance, "case {case_ix}: rebuild");
        let ctx = EvalCtx::scan(&case.instance);
        let baseline = plan.eval(&ctx, &Assignment::new());
        let baseline_rows = rows_in_order(&plan, &ctx, &head);
        let stats = PlanStats::default();
        for _ in 0..3 {
            for ctx in [
                EvalCtx::scan(&case.instance),
                EvalCtx::scan(&case.instance).stats(&stats),
                EvalCtx::scan(&rebuilt),
            ] {
                assert_eq!(
                    plan.eval(&ctx, &Assignment::new()),
                    baseline,
                    "case {case_ix}: answers"
                );
                assert_eq!(
                    rows_in_order(&plan, &ctx, &head),
                    baseline_rows,
                    "case {case_ix}: row order is not deterministic"
                );
            }
        }
    }
}

/// Parameterised plans agree with filtering the unparameterised answers:
/// `plan(params = P, seed σ)` must equal `{ρ \ P : ρ ∈ answers, ρ ⊇ σ}`.
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
        let plan = ucq_plan(&case.ucq, &params);
        let full = answers(&case.ucq.to_formula(), &case.instance);
        let expected: BTreeSet<Assignment> = full
            .into_iter()
            .filter(|row| params.iter().all(|p| row.get(p) == seed.get(p)))
            .map(|row| {
                row.into_iter()
                    .filter(|(v, _)| !params.contains(v))
                    .collect()
            })
            .collect();
        let ctx = EvalCtx::scan(&case.instance);
        let got = plan.eval(&ctx, &seed);
        assert_eq!(got, expected, "case {case_ix}: params {params:?}");
        assert_eq!(
            plan.holds(&ctx, &seed),
            !expected.is_empty(),
            "case {case_ix}: holds() disagrees with eval()"
        );
        checked += 1;
    }
    assert!(checked > 100, "only {checked}/400 cases exercised params");
}

/// Chain joins, constant-anchored chains, equality stars and unions of
/// chains, pinned as small cases: the generator above yields the first
/// three only now and then, and never a union of two chains.
#[test]
fn benchmark_join_shapes_agree() {
    let mut rng = SplitMix64(0x10ad);
    let mut schema = Schema::new();
    let mut pool = ConstantPool::new();
    let dom: Vec<Value> = (0..8).map(|i| pool.intern(&format!("c{i}"))).collect();
    let mut instance = Instance::new();
    for i in 0..4 {
        let rel = schema.add_relation(&format!("E{i}"), 2).unwrap();
        for _ in 0..14 {
            let pair = [dom[rng.below(dom.len())], dom[rng.below(dom.len())]];
            instance.insert(rel, Tuple::from(pair));
        }
    }
    for shape in [
        "exists X1 . E0(X0, X1) & E1(X1, X2)",
        "exists X1, X2 . E0(c0, X1) & E1(X1, X2) & E2(X2, X3)",
        "exists Y, Z . E0(X, Y) & E1(X, Z) & Y = Z",
        "(exists X1 . E0(X0, X1) & E1(X1, X2)) | (exists X1 . E2(X0, X1) & E3(X1, X2))",
    ] {
        let formula = parse_formula(shape, &mut schema, &mut pool).unwrap();
        let ucq = Ucq::from_formula(&formula).expect(shape);
        let reference = answers(&ucq.to_formula(), &instance);
        assert!(!reference.is_empty(), "{shape}: degenerate case");
        let plan = ucq_plan(&ucq, &BTreeSet::new());
        assert_eq!(
            plan.eval(&EvalCtx::scan(&instance), &Assignment::new()),
            reference,
            "{shape}"
        );
    }
}

/// The plan of a UCQ with no filter.
fn ucq_plan(ucq: &Ucq, params: &BTreeSet<Var>) -> CompiledPlan {
    CompiledPlan::compile_ucq(ucq, &Formula::True, params)
}

/// The head variables every disjunct answers over.
fn head_of(ucq: &Ucq) -> Vec<Var> {
    ucq.disjuncts
        .first()
        .map_or_else(Vec::new, |cq| cq.head.clone())
}

/// Every row a plan produces, in production order, with its disjunct:
/// the values of `head`, read from the register file.
fn rows_in_order(plan: &CompiledPlan, ctx: &EvalCtx<'_>, head: &[Var]) -> Vec<(usize, Vec<Value>)> {
    let mut rows = Vec::new();
    plan.any_row(ctx, &Assignment::new(), |i, regs| {
        let row = head
            .iter()
            .map(|v| regs[plan.out_slot(i, v).expect("head variable")].expect("bound"))
            .collect();
        rows.push((i, row));
        false
    });
    rows
}

/// A prefix-keyed step is a range over the sorted tuples: it must produce
/// the rows a filtered scan produces, in the same order. Each shape is
/// paired with a twin that binds the keyed columns through equalities
/// instead, so that the same step scans its relation and filters. Covers
/// constants in column 0, a variable repeated inside a probed atom, a
/// relation that also holds tuples of other arities, a relation absent
/// from the instance, and two shapes keyed on non-prefix columns, which
/// scan as they are.
#[test]
fn sorted_prefix_probes_match_filtered_scans_in_order() {
    let mut rng = SplitMix64(0x50f7);
    let mut schema = Schema::new();
    let mut pool = ConstantPool::new();
    let dom: Vec<Value> = (0..5).map(|i| pool.intern(&format!("c{i}"))).collect();
    let mut instance = Instance::new();
    for (name, arity, facts) in [("P", 1, 4), ("Q", 2, 14), ("T", 3, 20)] {
        let rel = schema.add_relation(name, arity).unwrap();
        for _ in 0..facts {
            let t: Vec<Value> = (0..arity).map(|_| dom[rng.below(dom.len())]).collect();
            instance.insert(rel, Tuple::from(t));
        }
    }
    // Q also holds a unary, a ternary and a repeated-value tuple, which
    // sort among its binary ones; A is declared but holds nothing.
    let q = schema.rel_id("Q").unwrap();
    for t in [
        vec![dom[0]],
        vec![dom[0], dom[1], dom[2]],
        vec![dom[1], dom[1]],
    ] {
        instance.insert(q, Tuple::from(t));
    }
    schema.add_relation("A", 2).unwrap();
    let mut probed = 0;
    for (src, twin) in [
        ("Q(c0, Y)", "exists W . Q(W, Y) & W = c0"),
        ("T(c0, c1, Z)", "exists U, W . T(U, W, Z) & U = c0 & W = c1"),
        (
            "exists X . P(X) & Q(X, Y)",
            "exists X, W . P(X) & Q(W, Y) & W = X",
        ),
        (
            "exists X . P(X) & Q(X, X)",
            "exists X, W . P(X) & Q(W, W) & W = X",
        ),
        ("T(c1, Y, Y)", "exists W . T(W, Y, Y) & W = c1"),
        (
            "exists X, Y . P(X) & T(X, Y, Y)",
            "exists X, Y, W . P(X) & T(W, Y, Y) & W = X",
        ),
        (
            "exists Y . Q(c0, Y) & A(Y, Z)",
            "exists Y, U, W . Q(U, Y) & A(W, Z) & U = c0 & W = Y",
        ),
        (
            "A(c0, Y) | Q(c1, Y)",
            "(exists W . A(W, Y) & W = c0) | (exists W . Q(W, Y) & W = c1)",
        ),
        ("exists X . P(X) & Q(Y, X)", "exists X . P(X) & Q(Y, X)"),
        ("exists X . Q(X, c2)", "exists X . Q(X, c2)"),
    ] {
        let mut compile = |text: &str| {
            let formula = parse_formula(text, &mut schema, &mut pool).unwrap();
            let ucq = Ucq::from_formula(&formula).expect(text);
            let plan = ucq_plan(&ucq, &BTreeSet::new());
            (ucq, plan)
        };
        let (ucq, plan) = compile(src);
        let (_, scanning) = compile(twin);
        let reference = answers(&ucq.to_formula(), &instance);
        let (probe_stats, scan_stats) = (PlanStats::default(), PlanStats::default());
        let probe = EvalCtx::scan(&instance).stats(&probe_stats);
        let scan = EvalCtx::scan(&instance).stats(&scan_stats);
        assert_eq!(plan.eval(&probe, &Assignment::new()), reference, "{src}");
        assert_eq!(
            scanning.eval(&scan, &Assignment::new()),
            reference,
            "{twin}"
        );
        let head = head_of(&ucq);
        assert_eq!(
            rows_in_order(&plan, &probe, &head),
            rows_in_order(&scanning, &scan, &head),
            "{src}: row order"
        );
        // The twin reaches the same steps as often, and scans at each.
        let [probe_snap, scan_snap] = [&probe_stats, &scan_stats].map(|stats| {
            stats
                .snapshot()
                .into_iter()
                .collect::<std::collections::BTreeMap<_, _>>()
        });
        assert_eq!(scan_snap["index_probes"], 0, "{twin}");
        assert_eq!(
            probe_snap["index_probes"] + probe_snap["relation_scans"],
            scan_snap["relation_scans"],
            "{src}"
        );
        if probe_snap["index_probes"] > 0 {
            probed += 1;
        }
    }
    assert_eq!(probed, 8, "the last two shapes probe non-prefix columns");
}

/// Variables of the full-FO generator: few, so quantifiers often shadow,
/// go vacuous, or leave disjuncts over different free variables.
const FO_VARS: [&str; 3] = ["X", "Y", "Z"];

/// A random formula over `rels` (arities 0, 1, 2), with constants drawn
/// from `consts` (the instances use only the first four).
fn gen_fo(
    rng: &mut SplitMix64,
    rels: &[(RelId, usize)],
    consts: &[Value],
    depth: usize,
) -> Formula {
    let term = |rng: &mut SplitMix64| {
        if rng.chance(3, 4) {
            QTerm::var(FO_VARS[rng.below(FO_VARS.len())])
        } else {
            QTerm::Const(consts[rng.below(consts.len())])
        }
    };
    let pick = if depth == 0 {
        rng.below(3)
    } else {
        rng.below(11)
    };
    let sub = |rng: &mut SplitMix64| gen_fo(rng, rels, consts, depth - 1);
    let var = |rng: &mut SplitMix64| FO_VARS[rng.below(FO_VARS.len())];
    match pick {
        0 | 1 => {
            let (rel, arity) = rels[rng.below(rels.len())];
            Formula::Atom(rel, (0..arity).map(|_| term(rng)).collect())
        }
        2 => match rng.below(6) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::eq(term(rng), term(rng)),
        },
        3 => sub(rng).not(),
        4 => sub(rng).and(sub(rng)),
        5 => sub(rng).or(sub(rng)),
        6 => sub(rng).implies(sub(rng)),
        7 | 8 => Formula::exists(var(rng), sub(rng)),
        9 => Formula::forall(var(rng), sub(rng)),
        // A guarded conjunction, so joins and anti-joins stay common.
        _ => {
            let (rel, arity) = rels[rng.below(rels.len())];
            Formula::Atom(rel, (0..arity).map(|_| term(rng)).collect()).and(sub(rng))
        }
    }
}

/// A guard-shaped sentence `∀x̄. atoms → ψ`, `ψ` built from equalities,
/// so that its constraint has a delta check.
fn gen_guarded(rng: &mut SplitMix64, rels: &[(RelId, usize)], consts: &[Value]) -> Formula {
    let term = |rng: &mut SplitMix64| {
        if rng.chance(4, 5) {
            QTerm::var(FO_VARS[rng.below(FO_VARS.len())])
        } else {
            QTerm::Const(consts[rng.below(consts.len())])
        }
    };
    let mut guard = Formula::True;
    for _ in 0..1 + rng.below(3) {
        let (rel, arity) = rels[1 + rng.below(rels.len() - 1)];
        guard = guard.and(Formula::Atom(rel, (0..arity).map(|_| term(rng)).collect()));
    }
    let mut psi = Formula::eq(term(rng), term(rng));
    if rng.chance(1, 2) {
        psi = psi.or(Formula::neq(term(rng), term(rng)));
    }
    let mut f = guard.implies(psi);
    for v in f.free_vars().into_iter().rev() {
        f = Formula::Forall(v, Box::new(f));
    }
    f
}

/// A random instance over `rels` and the first four of `consts`; empty
/// one time in five.
fn gen_instance(rng: &mut SplitMix64, rels: &[(RelId, usize)], consts: &[Value]) -> Instance {
    let mut inst = Instance::new();
    if rng.chance(1, 5) {
        return inst;
    }
    for _ in 0..1 + rng.below(8) {
        let (rel, arity) = rels[rng.below(rels.len())];
        let t: Vec<Value> = (0..arity).map(|_| consts[rng.below(4)]).collect();
        inst.insert(rel, Tuple::from(t));
    }
    inst
}

/// Full first-order formulas: the plan's rows are the reference answers,
/// bit for bit; the plan with the head as parameters agrees with `holds`
/// on every answer row and on assignments outside the answers, values
/// outside `ADOM(I)` included.
#[test]
fn full_fo_plans_agree_with_answers() {
    let mut schema = Schema::new();
    let rels: Vec<(RelId, usize)> = [("V", 0), ("P", 1), ("Q", 2), ("E", 2)]
        .map(|(name, arity)| (schema.add_relation(name, arity).unwrap(), arity))
        .to_vec();
    let mut pool = ConstantPool::new();
    let consts: Vec<Value> = (0..6).map(|i| pool.intern(&format!("c{i}"))).collect();
    let mut rng = SplitMix64(0xf0_f0f0);
    let (mut nonempty, mut adom, mut filtered) = (0, 0, 0);
    for case_ix in 0..1500 {
        let depth = 1 + rng.below(3);
        let f = gen_fo(&mut rng, &rels, &consts, depth);
        let inst = gen_instance(&mut rng, &rels, &consts);
        let reference = answers(&f, &inst);
        let plan = CompiledPlan::compile(&f, &BTreeSet::new());
        let stats = PlanStats::default();
        let ctx = EvalCtx::scan(&inst).stats(&stats);
        assert_eq!(
            plan.eval(&ctx, &Assignment::new()),
            reference,
            "case {case_ix}: {f:?} over {inst:?}"
        );
        assert_eq!(
            plan.holds(&ctx, &Assignment::new()),
            !reference.is_empty(),
            "case {case_ix}: {f:?} over {inst:?}"
        );
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        let by_row = CompiledPlan::compile(&f, &free.iter().cloned().collect());
        let ctx = EvalCtx::scan(&inst);
        for row in &reference {
            assert!(
                by_row.holds(&ctx, row),
                "case {case_ix}: {f:?} rejects {row:?}"
            );
        }
        // Assignments that may fall outside the answers and ADOM(I).
        for _ in 0..4 {
            let asg: Assignment = free
                .iter()
                .map(|v| (v.clone(), consts[rng.below(consts.len())]))
                .collect();
            assert_eq!(
                by_row.holds(&ctx, &asg),
                holds(&f, &inst, &asg).unwrap(),
                "case {case_ix}: {f:?} under {asg:?} over {inst:?}"
            );
        }
        nonempty += usize::from(!reference.is_empty());
        adom += usize::from(plan.has_adom_step());
        filtered += usize::from(stats.snapshot()[3].1 > 0);
    }
    // Every kind of case occurs in bulk.
    assert!(nonempty > 300, "only {nonempty}/1500 cases had answers");
    assert!(adom > 300, "only {adom}/1500 plans had an ADOM step");
    assert!(
        filtered > 200,
        "only {filtered}/1500 runs took an ADOM step"
    );
}

/// `c` gives the `reference` verdict on `base` and, where `base`
/// satisfies it and `c` has a delta check, on `base ∪ delta` through that
/// check; returns how many delta checks ran.
fn check_against(
    c: &dyn Constraint,
    reference: impl Fn(&Instance) -> bool,
    base: &Instance,
    delta: &Instance,
    what: &str,
) -> usize {
    let sat = c.satisfied(base);
    assert_eq!(sat, reference(base), "{what}");
    if !sat {
        return 0;
    }
    let Some(with_delta) = c.satisfied_with_delta(base, delta) else {
        return 0;
    };
    assert_eq!(with_delta, reference(&base.union(delta)), "{what}");
    1
}

/// Every generated formula, read as an FO constraint (its universal
/// closure) and as the premise of an equality constraint, gives the
/// reference verdict — in full, and through the delta check on every
/// satisfying base where there is one.
#[test]
fn full_fo_constraints_agree_with_the_reference() {
    let mut schema = Schema::new();
    let rels: Vec<(RelId, usize)> = [("V", 0), ("P", 1), ("Q", 2), ("E", 2)]
        .map(|(name, arity)| (schema.add_relation(name, arity).unwrap(), arity))
        .to_vec();
    let mut pool = ConstantPool::new();
    let consts: Vec<Value> = (0..6).map(|i| pool.intern(&format!("c{i}"))).collect();
    let mut rng = SplitMix64(0xc0_5717);
    let mut deltas = 0;
    for case_ix in 0..1200 {
        let depth = 1 + rng.below(3);
        let f = if rng.chance(1, 3) {
            gen_guarded(&mut rng, &rels, &consts)
        } else {
            gen_fo(&mut rng, &rels, &consts, depth)
        };
        let mut sentence = f.clone();
        for v in f.free_vars().into_iter().rev() {
            sentence = Formula::Forall(v, Box::new(sentence));
        }
        let fo = FoConstraint::new(sentence).unwrap();
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        let term = |rng: &mut SplitMix64| {
            if free.is_empty() || rng.chance(1, 3) {
                QTerm::Const(consts[rng.below(consts.len())])
            } else {
                QTerm::Var(free[rng.below(free.len())].clone())
            }
        };
        let eqs = (0..1 + rng.below(2))
            .map(|_| (term(&mut rng), term(&mut rng)))
            .collect();
        let eq = EqualityConstraint::new(f.clone(), eqs).unwrap();
        for _ in 0..3 {
            let base = gen_instance(&mut rng, &rels, &consts);
            let delta = gen_instance(&mut rng, &rels, &consts);
            let fo_reference = |i: &Instance| fo_satisfied(&fo, i);
            let eq_reference = |i: &Instance| equality_satisfied(&eq, i);
            let what = format!("case {case_ix}: {f:?} over {base:?} with {delta:?}");
            deltas += check_against(&fo, fo_reference, &base, &delta, &what);
            deltas += check_against(&eq, eq_reference, &base, &delta, &what);
        }
    }
    assert!(deltas > 300, "only {deltas} delta checks ran");
}

//! Differential testing of the staged model-checking engine against the
//! naive Kleene evaluator it replaced: `engine::eval_traced` — quantifier
//! blocks fused into single compiled queries — must compute the exact same
//! extension as the unfused `mc::eval`, at every thread count, and its
//! counters must not depend on the thread count. On closed µLA formulas
//! the staged engine on `PROP(Φ)` (Theorem 4.4: quantifiers expanded over
//! `ADOM(Θ)`) is held to the definition, `mc::eval` on the formula itself.
//!
//! Formulas come from a seeded SplitMix64 generator (so the suite runs
//! offline and reproducibly) plus a hand-written list of the shapes the
//! fusion pass treats specially. Systems: Example 5.1 and the small travel
//! request system through RCYCL, `service_cycle` and `collision_pairs`
//! through the deterministic abstraction. `collision_pairs(6)` (120
//! states, so state sets span two 64-bit words and the last one is
//! partial) also runs query leaves whose plans scan on a non-prefix
//! access path next to prefix-keyed ones, and violated AG properties
//! whose greatest fixpoints iterate several times.

use dcds_verify::bench::rng::SplitMix64;
use dcds_verify::bench::{examples, synthetic, travel};
use dcds_verify::folang::{Formula, QTerm, Var};
use dcds_verify::mucalc::fragments::check_monotone;
use dcds_verify::mucalc::mc::{eval, Valuation};
use dcds_verify::mucalc::{
    check_traced, classify, eval_traced, propositionalize, sugar, CheckError, Fragment, McOptions,
    Mu, PredVar,
};
use dcds_verify::obs::Obs;
use dcds_verify::prelude::*;
use dcds_verify::reldata::{RelId, Value};
use std::collections::BTreeMap;

/// One system under test: its transition system, schema, and the constant
/// pool that names its values.
struct System {
    name: &'static str,
    ts: Ts,
    schema: Schema,
    pool: ConstantPool,
}

fn systems() -> Vec<System> {
    let mut out = Vec::new();
    for (name, dcds, budget) in [
        ("example_5_1", examples::example_5_1(), 100),
        ("travel_small", travel::request_system_small(), 5000),
    ] {
        let res = rcycl(&dcds, budget);
        assert!(res.complete, "{name}");
        out.push(System {
            name,
            ts: res.ts,
            schema: dcds.data.schema.clone(),
            pool: res.pool,
        });
    }
    for (name, dcds, budget) in [
        ("service_cycle(3)", synthetic::service_cycle(3), 60),
        ("collision_pairs(4)", synthetic::collision_pairs(4), 1000),
    ] {
        let abs = det_abstraction(&dcds, budget);
        out.push(System {
            name,
            ts: abs.ts,
            schema: dcds.data.schema.clone(),
            pool: abs.pool,
        });
    }
    out
}

/// Staged engine at 1/2/4 threads against the naive oracle, under `val`;
/// for closed formulas also the `check_traced` entry point, and for closed
/// µLA formulas the engine on `PROP(Φ)`. Returns whether that last
/// comparison ran.
fn assert_agrees(sys: &System, phi: &Mu, val: &Valuation) -> bool {
    let oracle = eval(phi, &sys.ts, &mut val.clone()).unwrap();
    let mut first = None;
    for threads in [1usize, 2, 4] {
        let (ext, counters) = eval_traced(
            phi,
            &sys.ts,
            &mut val.clone(),
            McOptions { threads },
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(
            ext, oracle,
            "{}: engine at {threads} threads disagrees with naive on {phi:?} under {:?}",
            sys.name, val.individuals
        );
        match first {
            None => first = Some(counters),
            Some(c) => assert_eq!(
                c, counters,
                "{}: counters depend on the thread count on {phi:?}",
                sys.name
            ),
        }
    }
    if !phi.is_closed() {
        return false;
    }
    let run = check_traced(phi, &sys.ts, McOptions::default(), &Obs::disabled()).unwrap();
    assert_eq!(run.holds, oracle.contains(&sys.ts.initial()), "{phi:?}");
    assert_eq!(run.extension, oracle, "{phi:?}");
    // Theorem 4.4's pipeline: on µLA (and so µLP) formulas, PROP(Φ) over
    // the union of the active domains agrees on every state.
    if !matches!(classify(phi), Ok(Fragment::MuLA | Fragment::MuLP)) {
        return false;
    }
    let prop = propositionalize(phi, &sys.ts.adom_union()).unwrap();
    let opts = McOptions::default();
    let (via_prop, _) = eval_traced(
        &prop,
        &sys.ts,
        &mut Valuation::default(),
        opts,
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(
        via_prop, oracle,
        "{}: the engine on PROP disagrees with naive on {phi:?}",
        sys.name
    );
    true
}

/// Random µL formulas over a system's schema: variables V0..V2, a few of
/// its constants, at most three nested operators, fixpoint variables only
/// in positive positions.
struct Gen<'a> {
    rng: SplitMix64,
    rels: Vec<(RelId, usize)>,
    consts: &'a [Value],
}

impl Gen<'_> {
    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.rng.gen_range(xs.len())].clone()
    }

    fn var(&mut self) -> String {
        format!("V{}", self.rng.gen_range(3))
    }

    fn term(&mut self) -> QTerm {
        if !self.consts.is_empty() && self.rng.gen_bool(0.25) {
            QTerm::Const(self.pick(self.consts))
        } else {
            QTerm::var(&self.var())
        }
    }

    fn atom(&mut self) -> Formula {
        let (rel, arity) = self.rels[self.rng.gen_range(self.rels.len())];
        Formula::Atom(rel, (0..arity).map(|_| self.term()).collect())
    }

    /// A query leaf: mostly atoms, sometimes a small FO formula, inside or
    /// outside the UCQ fragment.
    fn query(&mut self) -> Formula {
        match self.rng.gen_range(8) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::eq(self.term(), self.term()),
            3 => {
                let v = self.var();
                let body = self.atom().and(self.atom());
                Formula::exists(v.as_str(), body)
            }
            4 => self.atom().or(self.atom()),
            5 => self.atom().not(),
            _ => self.atom(),
        }
    }

    fn mu(&mut self, depth: usize) -> Mu {
        if depth == 0 || self.rng.gen_bool(0.2) {
            return if self.rng.gen_bool(0.25) {
                match self.term() {
                    QTerm::Var(v) => Mu::live(v.name()),
                    c => Mu::Live(c),
                }
            } else {
                Mu::Query(self.query())
            };
        }
        let d = depth - 1;
        match self.rng.gen_range(13) {
            0 => self.mu(d).not(),
            1 => self.mu(d).and(self.mu(d)),
            2 => self.mu(d).or(self.mu(d)),
            3 => self.mu(d).implies(self.mu(d)),
            4 => self.mu(d).diamond(),
            5 => self.mu(d).boxed(),
            6 => {
                let v = self.var();
                Mu::exists(v.as_str(), self.mu(d))
            }
            7 => {
                let v = self.var();
                Mu::exists(v.as_str(), Mu::live(&v).and(self.mu(d)))
            }
            8 => {
                let v = self.var();
                Mu::forall(v.as_str(), self.mu(d).not())
            }
            9 => {
                let v = self.var();
                Mu::forall(v.as_str(), Mu::live(&v).implies(self.mu(d)))
            }
            10 => {
                let v = self.var();
                Mu::forall(v.as_str(), self.mu(d))
            }
            11 => Mu::lfp("Zp", self.mu(d).or(Mu::Pvar(PredVar::new("Zp")).diamond())),
            _ => Mu::gfp("Zq", self.mu(d).and(Mu::Pvar(PredVar::new("Zq")).boxed())),
        }
    }
}

/// Close a formula by guarded-existentially quantifying its free variables.
fn close(f: Mu) -> Mu {
    let mut out = f;
    for v in out.clone().free_vars() {
        let name = v.name().to_owned();
        out = Mu::exists(name.as_str(), Mu::live(&name).and(out));
    }
    out
}

#[test]
fn engine_agrees_with_naive_on_seeded_random_formulas() {
    let mut prop_runs = 0;
    for (k, sys) in systems().iter().enumerate() {
        let rels: Vec<(RelId, usize)> = sys
            .schema
            .rel_ids()
            .map(|r| (r, sys.schema.arity(r)))
            .collect();
        let adom: Vec<Value> = sys.ts.adom_union().into_iter().collect();
        // Three constants of the system plus one value no state holds.
        let mut consts: Vec<Value> = adom.iter().copied().take(3).collect();
        let outside = (0..).map(Value::from_index).find(|v| !adom.contains(v));
        consts.extend(outside);
        let mut gen = Gen {
            rng: SplitMix64::new(0x5eed_0000 + k as u64),
            rels,
            consts: &consts,
        };
        for _ in 0..100 {
            let open = gen.mu(3);
            let closed = close(open.clone());
            if check_monotone(&closed, &mut BTreeMap::new(), true).is_err() {
                continue;
            }
            prop_runs += usize::from(assert_agrees(sys, &closed, &Valuation::default()));
            // The open formula under a random valuation of its free
            // variables.
            let mut val = Valuation::default();
            for v in open.free_vars() {
                val.individuals.insert(v, gen.pick(&consts));
            }
            prop_runs += usize::from(assert_agrees(sys, &open, &val));
        }
    }
    // The seeds draw 346 closed µLA formulas over the four systems: the
    // PROP(Φ) comparison must not go quiet when the generator or the
    // classifier changes.
    assert!(prop_runs >= 346, "only {prop_runs} PROP(Φ) comparisons ran");
}

/// The shapes the fusion pass rewrites or deliberately leaves alone;
/// `{U}`/`{W}` stand for unary relations, `{B}` for a binary one and
/// `{c}`/`{d}`/`{e}` for constants of the system.
const SHAPES: &[&str] = &[
    // ∃ / ∀¬ over conjunctive queries, multi-variable and nested blocks.
    "exists X . {U}(X)",
    "exists X, Y . {U}(X) & {W}(Y)",
    "forall X . !({U}(X) & {W}(X))",
    "forall X . !{U}(X)",
    "exists X . {U}(X) & (exists Y . {W}(Y) & X = Y)",
    // LIVE conjuncts with and without a covering atom.
    "exists X . live(X) & {U}(X)",
    "exists X . live(X)",
    "exists X . live(X) & X = '{c}'",
    "exists X . live(X) & !{U}(X)",
    // ∃ over ∨.
    "exists X . live(X) & ({U}(X) | {W}(X))",
    "exists X . {U}(X) | {W}(X)",
    "exists X . {U}(X) | {W}('{c}')",
    // Vacuous, shadowing, equality-only.
    "exists V . {U}('{c}')",
    "exists X . {U}(X) & (exists X . {W}(X))",
    "forall X . live(X) -> (exists V . V = X)",
    // Free variables bound by an outer modal-level quantifier.
    "exists X . live(X) & <> (exists Y . {W}(Y) & X = Y)",
    "forall X . live(X) -> [] (exists Y . {U}(Y) & Y = X)",
    "exists X . live(X) & {U}(X) & <> !(exists Y . {W}(Y) & Y = X)",
    // ... and one an inner quantifier would capture if pulled out.
    "exists Y . live(Y) & <> (exists X . {U}(X) & (exists Y . {W}(Y)) & {U}(Y))",
    "exists Y . live(Y) & [] (exists X . {U}(Y) & ((exists Y . {W}(Y)) | {U}(X)))",
    // ∀ over a non-negated body.
    "forall X . {U}(X)",
    "forall X . live(X) -> {U}(X)",
    "forall X . live(X) -> !{U}(X)",
    // Domain-independent blocks whose spelling is not a UCQ: they fuse
    // because their plans need no ADOM step.
    "forall X . {U}(X) -> !{W}(X)",
    "exists X . {U}(X) & !{W}(X)",
    "forall X . {U}(X) -> !(exists Y . {W}(Y) & Y = X)",
    // A LIVE covered under ∨ and under ¬, one covered by only one side of
    // an ∨, and one whose variable a shadowing binder rebinds.
    "exists X . {U}(X) & (live(X) | {W}(X))",
    "exists X . {U}(X) & !(live(X) & {W}(X))",
    "exists X . ({U}(X) | X = '{c}') & live(X)",
    "exists X . {U}(X) & (exists X . live(X) & !{W}(X))",
    // An uncovered LIVE of a variable an outer quantifier binds: the
    // block is no query, whatever its other conjuncts.
    "exists X . live(X) & <> (exists Y . {W}(Y) & live(X) & !{U}(X))",
];

/// Blocks with the free variable `Y`: both evaluators reject a valuation
/// that leaves it unassigned, and agree under every value of it.
const OPEN_SHAPES: &[&str] = &[
    "exists X . {U}(X) & !{W}(Y)",
    "exists X . {U}(X) & ({W}(X) | {U}(Y))",
];

const BINARY_SHAPES: &[&str] = &[
    "exists X, Y . {B}(X, Y)",
    "exists X . live(X) & (exists Y . {B}(X, Y) & {B}(Y, X))",
    "forall V . !({B}('{c}', V) & {B}('{d}', V))",
    "forall V . !({B}('{c}', V) & {B}('{d}', V) & {B}('{e}', V))",
    "exists X . (exists Y . {B}(X, Y)) & (exists Y . {B}(Y, X))",
    "exists X . live(X) & <> (exists Y . {B}(X, Y) | {B}(Y, X))",
];

#[test]
fn engine_agrees_with_naive_on_fusion_edge_shapes() {
    for sys in systems() {
        let by_arity = |n: usize| -> Vec<String> {
            sys.schema
                .rel_ids()
                .filter(|&r| sys.schema.arity(r) == n)
                .map(|r| sys.schema.name(r).to_owned())
                .collect()
        };
        let (unary, binary) = (by_arity(1), by_arity(2));
        let names: Vec<String> = sys
            .ts
            .adom_union()
            .into_iter()
            .map(|v| sys.pool.name(v).to_owned())
            .take(3)
            .collect();
        let mut shapes: Vec<&str> = SHAPES.to_vec();
        if !binary.is_empty() {
            shapes.extend(BINARY_SHAPES);
        }
        let mut checked = 0;
        for (i, u) in unary.iter().enumerate() {
            let w = &unary[(i + 1) % unary.len()];
            for shape in OPEN_SHAPES {
                let src = shape.replace("{U}", u).replace("{W}", w);
                let phi = parse_mu(&src, &mut sys.schema.clone(), &mut sys.pool.clone())
                    .unwrap_or_else(|e| panic!("{}: {src}: {e}", sys.name));
                let y = vec![Var::new("Y")];
                let unassigned = Valuation::default();
                match eval(&phi, &sys.ts, &mut unassigned.clone()) {
                    Err(CheckError::FreeIndividuals(vs)) => assert_eq!(vs, y, "{src}"),
                    other => panic!("{}: naive evaluated {src}: {other:?}", sys.name),
                }
                let opts = McOptions::default();
                match eval_traced(
                    &phi,
                    &sys.ts,
                    &mut unassigned.clone(),
                    opts,
                    &Obs::disabled(),
                ) {
                    Err(CheckError::FreeIndividuals(vs)) => assert_eq!(vs, y, "{src}"),
                    other => panic!("{}: engine evaluated {src}: {other:?}", sys.name),
                }
                for d in sys.ts.adom_union() {
                    let mut val = Valuation::default();
                    val.individuals.insert(Var::new("Y"), d);
                    assert_agrees(&sys, &phi, &val);
                    checked += 1;
                }
            }
            for shape in &shapes {
                let mut src = shape.replace("{U}", u).replace("{W}", w);
                if let Some(b) = binary.first() {
                    src = src.replace("{B}", b);
                }
                for (ph, n) in ["{c}", "{d}", "{e}"].iter().zip(names.iter().cycle()) {
                    src = src.replace(ph, n);
                }
                let phi = parse_mu(&src, &mut sys.schema.clone(), &mut sys.pool.clone())
                    .unwrap_or_else(|e| panic!("{}: {src}: {e}", sys.name));
                for f in [
                    phi.clone(),
                    sugar::ag(phi.clone()),
                    sugar::ef(phi.clone()),
                    phi.clone().not().diamond(),
                ] {
                    assert_agrees(&sys, &f, &Valuation::default());
                    checked += 1;
                }
            }
        }
        assert!(
            checked > 0,
            "{}: no unary relation to instantiate",
            sys.name
        );
    }
}

/// Leaves on `collision_pairs(6)`: prefix-keyed (`E('a1', V)`,
/// `Phase('p3')`) and non-prefix ones (`E(X, {c})` for a call result
/// `{c}`, `E(X, V)` with `V` bound outside, and the join
/// `E('a1', V) & E(X, V)` whose second step is keyed on column 1). The
/// cheap ones run under AG, EF and `<>¬` too; the naive oracle walks
/// `ADOM(Θ)` per quantifier, so the two-variable ones run bare.
const MIXED_ACCESS: &[(&str, bool)] = &[
    ("exists X . E(X, 'a0')", true),
    ("exists X . E(X, '{c}')", true),
    ("exists V . E('a1', V)", true),
    ("exists X, V . E('a1', V) & E(X, V) & X = 'a0'", false),
    ("exists V . live(V) & <> (exists X . E(X, V))", false),
    (
        "forall V . live(V) -> [] (exists X . E(X, V) & Seed(X))",
        false,
    ),
];

#[test]
fn engine_agrees_on_a_multi_word_system_with_non_prefix_leaves() {
    let dcds = synthetic::collision_pairs(6);
    let abs = det_abstraction(&dcds, 1000);
    let sys = System {
        name: "collision_pairs(6)",
        ts: abs.ts,
        schema: dcds.data.schema.clone(),
        pool: abs.pool,
    };
    let n = sys.ts.num_states();
    assert!(n > 64 && !n.is_multiple_of(64), "{n} states");
    // A call result: the second column of some `E` fact.
    let e = sys.schema.rel_id("E").unwrap();
    let c = sys
        .ts
        .state_ids()
        .find_map(|s| sys.ts.db(s).tuples(e).next().map(|t| t[1]))
        .expect("some state holds an E fact");
    let c = sys.pool.name(c).to_owned();
    let parse = |src: &str| {
        let src = src.replace("{c}", &c);
        parse_mu(&src, &mut sys.schema.clone(), &mut sys.pool.clone())
            .unwrap_or_else(|e| panic!("{src}: {e}"))
    };
    for &(src, wrapped) in MIXED_ACCESS {
        let phi = parse(src);
        let mut forms = vec![phi.clone()];
        if wrapped {
            forms.extend([
                sugar::ag(phi.clone()),
                sugar::ef(phi.clone()),
                phi.clone().not().diamond(),
            ]);
        }
        for f in forms {
            assert_agrees(&sys, &f, &Valuation::default());
        }
    }
    // Violated AG properties: a state one step in holds the call result
    // `{c}` (through a non-prefix leaf), and one three steps in is in
    // phase `p3`; the greatest fixpoint peels the states that reach them
    // level by level.
    for src in [
        "nu Z . !(exists X . E(X, '{c}')) & [] Z",
        "nu Z . !Phase('p3') & [] Z",
    ] {
        let phi = parse(src);
        assert_agrees(&sys, &phi, &Valuation::default());
        let run = check_traced(&phi, &sys.ts, McOptions { threads: 2 }, &Obs::disabled()).unwrap();
        assert!(!run.holds, "{src}");
        assert!(
            run.counters.fixpoint_iterations >= 3,
            "{src}: {:?}",
            run.counters
        );
    }
}

/// Two spellings of one domain-independent invariant fuse into the same
/// query: one evaluation per state, and the same extension and counters.
#[test]
fn equivalent_spellings_fuse_alike() {
    for sys in systems() {
        let unary: Vec<&str> = sys
            .schema
            .rel_ids()
            .filter(|&r| sys.schema.arity(r) == 1)
            .map(|r| sys.schema.name(r))
            .collect();
        let (a, b) = (unary[0], unary[unary.len() - 1]);
        let parse =
            |src: String| parse_mu(&src, &mut sys.schema.clone(), &mut sys.pool.clone()).unwrap();
        let implies = parse(format!("forall X . {a}(X) -> !{b}(X)"));
        let negated = parse(format!("forall X . !({a}(X) & {b}(X))"));
        let runs: Vec<_> = [implies, negated]
            .iter()
            .map(|phi| {
                assert_agrees(&sys, phi, &Valuation::default());
                check_traced(phi, &sys.ts, McOptions { threads: 2 }, &Obs::disabled()).unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{}", sys.name);
        let states = sys.ts.num_states() as u64;
        assert_eq!(runs[0].counters.query_state_evals, states, "{}", sys.name);
    }
}

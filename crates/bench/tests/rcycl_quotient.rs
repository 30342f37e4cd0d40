//! RCYCL up to isomorphism against exact RCYCL, through the definitional
//! isomorphism search (`Facts::isomorphic`).
//!
//! On every pair of complete runs:
//! * the quotient's states fall into exactly the isomorphism classes of
//!   exact RCYCL's states (isomorphisms fixing `Dcds::rigid_constants`),
//!   one state per class unless a state was kept unkeyed (its colour
//!   refinement was not discrete);
//! * each exact state's successors fall into the same classes as the
//!   successors of its class's quotient states: the quotient is the class
//!   graph of the pruning;
//! * every generated closed-leaf µLP formula, formula-only constants
//!   included, has the same verdict on both;
//! * the quotient is the same at every thread count.
//!
//! The systems: `phased_rings(2)` and `phased_rings(3)` (846 classes of
//! 3,072 states), the shipped `ping_pong` and `travel_request` specs,
//! `flush_ladder`, and seeded random nondeterministic systems.

use dcds_abstraction::{rcycl_traced, RcyclResult, StateKeys};
use dcds_bench::synthetic::{self, RandomParams};
use dcds_core::{parse_dcds, Dcds, ServiceKind, StateId, Ts};
use dcds_mucalc::{check, classify, is_closed_leaf, parse_mu, Fragment, Mu};
use dcds_obs::{Obs, ObsConfig};
use dcds_reldata::{Facts, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A shipped spec.
fn shipped(name: &str) -> Dcds {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    parse_dcds(&std::fs::read_to_string(path).expect("shipped spec")).expect("spec parses")
}

/// Closed-leaf µLP formulas over `dcds`'s schema, parsed into it with
/// their constants made rigid, as `dcds check` does: per relation its
/// nonemptiness, per pair of unary relations a shared value, and, with
/// `constants`, on the first unary relation the constant `a` and the
/// formula-only constant `zz`; each under AG, EF, AG EF, EG and AF. A
/// formula-only constant is a commitment target, so it grows the system.
fn closed_leaf_formulas(dcds: &mut Dcds, constants: bool) -> Vec<Mu> {
    let rels: Vec<(String, usize)> = (dcds.data.schema.iter())
        .map(|(_, r)| (r.name().to_owned(), r.arity()))
        .collect();
    let unary: Vec<&str> = (rels.iter())
        .filter(|(_, k)| *k == 1)
        .map(|(n, _)| n.as_str())
        .collect();
    let mut blocks: Vec<String> = (rels.iter())
        .map(|(name, k)| {
            let xs: Vec<String> = (0..*k).map(|i| format!("X{i}")).collect();
            match k {
                0 => format!("{name}()"),
                _ => format!("(exists {} . {name}({}))", xs.join(", "), xs.join(", ")),
            }
        })
        .collect();
    for (i, r) in unary.iter().enumerate().take(3) {
        for q in &unary[i + 1..] {
            blocks.push(format!("(exists X . live(X) & {r}(X) & {q}(X))"));
        }
    }
    if let Some(r) = unary.first().filter(|_| constants) {
        blocks.push(format!("{r}('a')"));
        blocks.push(format!("{r}('zz')"));
        blocks.push(format!("(exists X . live(X) & {r}(X) & X != 'zz')"));
    }
    let templates = [
        "nu Z . B & [] Z",
        "mu Z . B | <> Z",
        "nu Z . (mu Y . B | <> Y) & [] Z",
        "nu Z . B & <> Z",
        "mu Z . B | (<> true & [] Z)",
    ];
    let mut schema = dcds.data.schema.clone();
    let mut formulas = Vec::new();
    for b in &blocks {
        for t in templates {
            let text = t.replace('B', b);
            let phi = parse_mu(&text, &mut schema, &mut dcds.data.pool).expect(&text);
            assert_eq!(classify(&phi).unwrap(), Fragment::MuLP, "{text}");
            assert!(is_closed_leaf(&phi), "{text}");
            dcds.data.formula_constants.extend(phi.constants());
            formulas.push(phi);
        }
    }
    formulas
}

/// A state's facts with every free value blanked, sorted.
type Shape = Vec<(u32, Vec<Option<Value>>)>;

/// The isomorphism classes of states, drawn from several systems at once:
/// each state is matched against the representatives of its bucket with
/// the definitional search. A bucket holds the states whose facts have
/// the same relations and rigid values, free values blanked, a cheap
/// isomorphism invariant.
struct Classes<'a> {
    rigid: &'a BTreeSet<Value>,
    buckets: BTreeMap<Shape, Vec<(Facts, usize)>>,
    count: usize,
}

impl<'a> Classes<'a> {
    fn new(rigid: &'a BTreeSet<Value>) -> Self {
        Classes {
            rigid,
            buckets: BTreeMap::new(),
            count: 0,
        }
    }

    /// The class of `ts`'s state `s`, numbered in order of discovery.
    fn of(&mut self, ts: &Ts, s: StateId) -> usize {
        let facts = Facts::from_instance(ts.db(s));
        let mut shape: Shape = (facts.iter())
            .map(|(c, t)| {
                (
                    c,
                    t.iter()
                        .map(|v| self.rigid.contains(&v).then_some(v))
                        .collect(),
                )
            })
            .collect();
        shape.sort();
        let bucket = self.buckets.entry(shape).or_default();
        if let Some((_, class)) = bucket
            .iter()
            .find(|(rep, _)| rep.isomorphic(&facts, self.rigid))
        {
            return *class;
        }
        bucket.push((facts, self.count));
        self.count += 1;
        self.count - 1
    }
}

/// A run of RCYCL at one thread, with the count of states it kept unkeyed.
fn run(dcds: &Dcds, budget: usize, keys: StateKeys) -> (RcyclResult, u64) {
    let obs = Obs::enabled(ObsConfig::default());
    let res = rcycl_traced(dcds, budget, 1, keys, &obs);
    let metrics = obs.finish().unwrap().metrics;
    (res, metrics.counter("rcycl.unkeyed_states").unwrap_or(0))
}

/// What a compared pair of runs found.
#[derive(Debug, PartialEq, Eq)]
struct Compared {
    /// Exact RCYCL's states and edges.
    exact: (usize, usize),
    /// The quotient's states and edges.
    quotient: (usize, usize),
    /// Isomorphism classes of exact RCYCL's states.
    classes: usize,
}

/// Run both keyings of `dcds` at `budget` and, when both complete, hold
/// the quotient to the classes of the exact pruning and compare verdicts
/// (see [`closed_leaf_formulas`] for `constants`); `None` when a run is
/// incomplete.
fn compare(mut dcds: Dcds, budget: usize, constants: bool) -> Option<Compared> {
    let formulas = closed_leaf_formulas(&mut dcds, constants);
    let (exact, _) = run(&dcds, budget, StateKeys::Exact);
    let (quot, unkeyed) = run(&dcds, budget, StateKeys::UpToIsomorphism);
    assert_eq!(exact.counters.canon_keys_computed, 0);
    if !exact.complete || !quot.complete {
        return None;
    }
    let rigid = dcds.rigid_constants();
    let mut classes = Classes::new(&rigid);
    let exact_class: Vec<usize> = (exact.ts.state_ids())
        .map(|s| classes.of(&exact.ts, s))
        .collect();
    let nclasses = classes.count;
    let quot_class: Vec<usize> = (quot.ts.state_ids())
        .map(|s| classes.of(&quot.ts, s))
        .collect();
    assert_eq!(
        classes.count, nclasses,
        "a quotient state outside the exact classes"
    );
    let hit: BTreeSet<usize> = quot_class.iter().copied().collect();
    assert_eq!(
        hit.len(),
        nclasses,
        "a class of the exact pruning is missing"
    );
    let duplicates = quot.ts.num_states() - nclasses;
    assert!(
        duplicates as u64 <= unkeyed,
        "{duplicates} duplicates, {unkeyed} unkeyed"
    );
    // The class graph: every exact state and every quotient state of its
    // class step into the same classes.
    let succ_classes = |ts: &Ts, of: &[usize], s: StateId| -> BTreeSet<usize> {
        ts.successors(s).iter().map(|t| of[t.index()]).collect()
    };
    let mut members: Vec<Vec<StateId>> = vec![Vec::new(); nclasses];
    for s in quot.ts.state_ids() {
        members[quot_class[s.index()]].push(s);
    }
    for s in exact.ts.state_ids() {
        let want = succ_classes(&exact.ts, &exact_class, s);
        for &r in &members[exact_class[s.index()]] {
            assert_eq!(succ_classes(&quot.ts, &quot_class, r), want);
        }
    }
    for phi in &formulas {
        assert_eq!(check(phi, &exact.ts), check(phi, &quot.ts), "{phi:?}");
    }
    Some(Compared {
        exact: (exact.ts.num_states(), exact.ts.num_edges()),
        quotient: (quot.ts.num_states(), quot.ts.num_edges()),
        classes: nclasses,
    })
}

#[test]
fn phased_rings_quotient_is_the_class_graph() {
    for constants in [false, true] {
        let two = compare(synthetic::phased_rings(2), 5000, constants).expect("complete");
        assert_eq!(two.quotient.0, two.classes);
        assert!(two.classes < two.exact.0, "{two:?}");
    }
    // Only `DO` runs on the workers: the quotient is the same at every
    // thread count.
    let rings = synthetic::phased_rings(2);
    let at = |threads| {
        rcycl_traced(
            &rings,
            5000,
            threads,
            StateKeys::UpToIsomorphism,
            &Obs::disabled(),
        )
    };
    let serial = at(1);
    for threads in [2, 4] {
        let par = at(threads);
        assert_eq!((&par.ts, par.counters), (&serial.ts, serial.counters));
    }
    // The perfbench `rcycl` family, whose formulas name no constant.
    let three = compare(synthetic::phased_rings(3), 5000, false).expect("complete");
    assert_eq!(
        three,
        Compared {
            exact: (3072, 11244),
            quotient: (846, 2742),
            classes: 846,
        }
    );
}

#[test]
fn shipped_specs_and_flush_ladder_quotients_are_the_class_graphs() {
    for (name, dcds) in [
        ("ping_pong", shipped("ping_pong.dcds")),
        ("travel_request", shipped("travel_request.dcds")),
        ("flush_ladder", synthetic::flush_ladder()),
    ] {
        for constants in [false, true] {
            let got = compare(dcds.clone(), 5000, constants)
                .unwrap_or_else(|| panic!("{name}: incomplete"));
            assert_eq!(got.quotient.0, got.classes, "{name}: {got:?}");
        }
    }
}

#[test]
fn random_nondet_quotients_are_the_class_graphs() {
    let mut complete = 0;
    for seed in 0..120u64 {
        let params = RandomParams {
            relations: 3 + (seed % 3) as usize,
            services: 1 + (seed % 2) as usize,
            effects: 4 + (seed % 4) as usize,
            call_probability: 0.4,
            kind: ServiceKind::Nondeterministic,
        };
        let dcds = synthetic::random_dcds(seed, params);
        complete += usize::from(compare(dcds, 300, seed % 2 == 0).is_some());
    }
    assert!(complete >= 70, "only {complete} of 120 seeds complete");
}

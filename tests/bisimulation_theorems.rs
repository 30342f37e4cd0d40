//! Machine-checked instances of the paper's bisimulation theorems.
//!
//! * Theorem 4.3: the deterministic abstraction of a run-bounded DCDS is
//!   history-preserving bisimilar to the concrete transition system. We
//!   check the consequence that any two correct finite abstractions are
//!   history-bisimilar *to each other*, by hand-building the paper's
//!   Figure 2(b) with different fresh-value names.
//! * Theorem 5.4: any two eventually-recycling prunings are
//!   persistence-preserving bisimilar to each other; we hand-build an
//!   α-renamed copy of the RCYCL output and check ∼, plus a negative case
//!   showing a *wrong* pruning is rejected.
//! * Theorems 3.1/3.2: bisimilar systems satisfy the same µLA (resp. µLP)
//!   formulas — checked over a battery of formulas.

use dcds_verify::bench::examples;
use dcds_verify::bisim::{history_bisimilar, persistence_bisimilar};
use dcds_verify::mucalc::{check, sugar, Mu};
use dcds_verify::prelude::*;
use dcds_verify::reldata::Value;
use std::collections::BTreeSet;

/// Hand-build Figure 2(b): the 4-state abstraction of Example 4.2, with a
/// caller-chosen name for the fresh value returned by g(a).
fn figure_2b(fresh_name: &str) -> (Ts, Value) {
    let dcds = examples::example_4_2();
    let mut pool = dcds.data.pool.clone();
    let schema = &dcds.data.schema;
    let a = pool.get("a").unwrap();
    let b = pool.intern(fresh_name);
    let q = schema.rel_id("Q").unwrap();
    let p = schema.rel_id("P").unwrap();
    let r = schema.rel_id("R").unwrap();
    let mk = |facts: Vec<(dcds_verify::reldata::RelId, Vec<Value>)>| {
        Instance::from_facts(facts.into_iter().map(|(rel, vs)| (rel, Tuple::from(vs))))
    };
    // s0 = {P(a), Q(a,a)}; s1 = s0 + R(a) (g(a) ↦ a);
    // s2 = {P(a), R(a), Q(a,b)} (g(a) fresh); s3 = {P(a), Q(a,b)}.
    let s0 = mk(vec![(p, vec![a]), (q, vec![a, a])]);
    let s1 = mk(vec![(p, vec![a]), (q, vec![a, a]), (r, vec![a])]);
    let s2 = mk(vec![(p, vec![a]), (q, vec![a, b]), (r, vec![a])]);
    let s3 = mk(vec![(p, vec![a]), (q, vec![a, b])]);
    let mut ts = Ts::new(s0);
    let i1 = ts.add_state(s1);
    let i2 = ts.add_state(s2);
    let i3 = ts.add_state(s3);
    ts.add_edge(ts.initial(), i1);
    ts.add_edge(ts.initial(), i2);
    ts.add_edge(i1, i1);
    ts.add_edge(i2, i3);
    ts.add_edge(i3, i3);
    (ts, a)
}

#[test]
fn theorem_4_3_abstractions_are_history_bisimilar() {
    let dcds = examples::example_4_2();
    let abs = det_abstraction(&dcds, 100);
    assert_eq!(abs.outcome, AbsOutcome::Complete);
    let rigid: BTreeSet<Value> = dcds.rigid_constants();
    // Our computed abstraction vs the paper's hand-drawn Figure 2(b), with
    // an unrelated fresh-value name: history-preserving bisimilar.
    let (fig, _) = figure_2b("zz_other_fresh");
    assert!(history_bisimilar(&abs.ts, &fig, &rigid));
    // Reflexivity sanity.
    assert!(history_bisimilar(&abs.ts, &abs.ts, &rigid));
}

#[test]
fn theorem_3_1_mu_la_invariance_across_bisimilar_systems() {
    let dcds = examples::example_4_2();
    let abs = det_abstraction(&dcds, 100);
    let (fig, _) = figure_2b("another_name");
    let rigid = dcds.rigid_constants();
    assert!(history_bisimilar(&abs.ts, &fig, &rigid));
    let schema = &dcds.data.schema;
    let p = schema.rel_id("P").unwrap();
    let q = schema.rel_id("Q").unwrap();
    let r = schema.rel_id("R").unwrap();
    let var = dcds_verify::folang::QTerm::var;
    let formulas = [
        // AG ∃x.live(x) ∧ P(x).
        sugar::ag(Mu::exists(
            "X",
            Mu::live("X").and(Mu::Query(Formula::Atom(p, vec![var("X")]))),
        )),
        // EF ∃x,y. live ∧ Q(x,y) ∧ x ≠ y.
        sugar::ef(Mu::exists(
            "X",
            Mu::live("X").and(Mu::exists(
                "Y",
                Mu::live("Y").and(
                    Mu::Query(Formula::Atom(q, vec![var("X"), var("Y")]))
                        .and(Mu::Query(Formula::neq(var("X"), var("Y")))),
                ),
            )),
        )),
        // EF R nonempty, then AG from there (nested fixpoints).
        sugar::ef(
            Mu::exists(
                "X",
                Mu::live("X").and(Mu::Query(Formula::Atom(r, vec![var("X")]))),
            )
            .and(sugar::ag(Mu::exists(
                "Y",
                Mu::live("Y").and(Mu::Query(Formula::Atom(p, vec![var("Y")]))),
            ))),
        ),
        // A history-preserving cross-state reference: some live value is
        // eventually in R — µLA because the quantifier is guarded NOW.
        Mu::exists(
            "X",
            Mu::live("X").and(sugar::ef(Mu::Query(Formula::Atom(r, vec![var("X")])))),
        ),
    ];
    for (ix, phi) in formulas.iter().enumerate() {
        assert_eq!(
            check(phi, &abs.ts).unwrap(),
            check(phi, &fig).unwrap(),
            "formula #{ix} distinguishes bisimilar systems"
        );
    }
}

#[test]
fn theorem_5_4_prunings_are_persistence_bisimilar() {
    let dcds = examples::example_5_1();
    let res = rcycl(&dcds, 100);
    assert!(res.complete);
    let rigid = dcds.rigid_constants();

    // An α-renamed pruning: same shape, different non-rigid value names.
    let mut pool = res.pool.clone();
    let schema = &dcds.data.schema;
    let r = schema.rel_id("R").unwrap();
    let q = schema.rel_id("Q").unwrap();
    let a = pool.get("a").unwrap();
    let c1 = pool.intern("zz_c1");
    let c2 = pool.intern("zz_c2");
    let one = |rel, v: Value| Instance::from_facts([(rel, Tuple::from([v]))]);
    // Mirror of the RCYCL output shape: R(a) -> {Q(a), Q(c1)};
    // Q(a) -> R(a); Q(c1) -> R(c1); R(c1) -> {Q(a), Q(c1), Q(c2)};
    // Q(c2) -> R(c2); R(c2) -> {Q(a), Q(c1), Q(c2)}.
    let mut ts = Ts::new(one(r, a));
    let qa = ts.add_state(one(q, a));
    let qc1 = ts.add_state(one(q, c1));
    let rc1 = ts.add_state(one(r, c1));
    let qc2 = ts.add_state(one(q, c2));
    let rc2 = ts.add_state(one(r, c2));
    ts.add_edge(ts.initial(), qa);
    ts.add_edge(ts.initial(), qc1);
    ts.add_edge(qa, ts.initial());
    ts.add_edge(qc1, rc1);
    ts.add_edge(rc1, qa);
    ts.add_edge(rc1, qc1);
    ts.add_edge(rc1, qc2);
    ts.add_edge(qc2, rc2);
    ts.add_edge(rc2, qa);
    ts.add_edge(rc2, qc1);
    ts.add_edge(rc2, qc2);
    assert!(persistence_bisimilar(&res.ts, &ts, &rigid));

    // Negative: a "pruning" that forgot the fresh branch from the initial
    // state is NOT persistence-bisimilar.
    let mut broken = Ts::new(one(r, a));
    let bqa = broken.add_state(one(q, a));
    broken.add_edge(broken.initial(), bqa);
    broken.add_edge(bqa, broken.initial());
    assert!(!persistence_bisimilar(&res.ts, &broken, &rigid));
}

#[test]
fn theorem_3_2_mu_lp_invariance() {
    // Persistence-bisimilar systems (the RCYCL pruning and its mirror from
    // the previous test) agree on µLP formulas.
    let dcds = examples::example_5_1();
    let res = rcycl(&dcds, 100);
    let mut schema = dcds.data.schema.clone();
    let mut pool = res.pool.clone();
    let sources = [
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "nu Z . !(exists X . live(X) & R(X) & Q(X)) & [] Z",
        "mu Y . (exists X . live(X) & Q(X)) | <> Y",
        // A persistence-guarded modality: some R value is live and stays
        // live into some successor where Q holds of it (false here: the
        // whole state is replaced each step).
        "exists X . live(X) & R(X) & <> (live(X) & Q(X))",
    ];
    // The mirror built exactly as in the previous test.
    let r = schema.rel_id("R").unwrap();
    let q = schema.rel_id("Q").unwrap();
    let a = pool.get("a").unwrap();
    let c1 = pool.intern("zz_c1");
    let one = |rel, v: Value| Instance::from_facts([(rel, Tuple::from([v]))]);
    let mut mirror = Ts::new(one(r, a));
    let qa = mirror.add_state(one(q, a));
    let qc1 = mirror.add_state(one(q, c1));
    let rc1 = mirror.add_state(one(r, c1));
    let qc2 = mirror.add_state(one(q, pool.intern("zz_c2")));
    let rc2 = mirror.add_state(one(r, pool.get("zz_c2").unwrap()));
    mirror.add_edge(mirror.initial(), qa);
    mirror.add_edge(mirror.initial(), qc1);
    mirror.add_edge(qa, mirror.initial());
    mirror.add_edge(qc1, rc1);
    mirror.add_edge(rc1, qa);
    mirror.add_edge(rc1, qc1);
    mirror.add_edge(rc1, qc2);
    mirror.add_edge(qc2, rc2);
    mirror.add_edge(rc2, qa);
    mirror.add_edge(rc2, qc1);
    mirror.add_edge(rc2, qc2);
    let rigid = dcds.rigid_constants();
    assert!(persistence_bisimilar(&res.ts, &mirror, &rigid));
    for src in sources {
        let phi = parse_mu(src, &mut schema, &mut pool).unwrap();
        assert!(
            classify(&phi).unwrap() <= Fragment::MuLA,
            "test formulas should be in a decidable fragment: {src}"
        );
        assert_eq!(
            check(&phi, &res.ts).unwrap(),
            check(&phi, &mirror).unwrap(),
            "µLP formula distinguishes persistence-bisimilar systems: {src}"
        );
    }
}

//! Differential testing of the symbolic backward-reachability engine.
//!
//! On every *bounded* system — the shipped bounded specs plus seeded-random
//! weakly acyclic deterministic systems — a definitive symbolic verdict
//! must agree with two independent oracles computed on the complete
//! explicit abstraction: the naive Kleene evaluator ([`mucalc::check`])
//! and the staged engine ([`mucalc::check_traced`]). The symbolic
//! engine works on the *infinite-state* system directly, so agreement
//! here exercises the regression, subsumption, normalisation, and
//! trace-confirmation layers end to end.
//!
//! Inconclusive symbolic verdicts are permitted (the clause set
//! over-approximates), but the suite asserts they stay rare.

use dcds_verify::abstraction::{det_abstraction, rcycl, AbsOutcome};
use dcds_verify::bench::rng::SplitMix64;
use dcds_verify::bench::synthetic;
use dcds_verify::core::{parse_dcds, Dcds, DcdsBuilder, ServiceKind, Ts};
use dcds_verify::mucalc::{check, check_traced, parse_mu, McOptions};
use dcds_verify::obs::Obs;
use dcds_verify::symbolic::{check_safety, SymOptions, SymVerdict};

/// Build the complete explicit abstraction; panics if the budget is hit
/// (differential systems must be bounded for the oracle to be exact).
fn explicit_ts(dcds: &Dcds) -> Ts {
    if dcds.is_deterministic() {
        let abs = det_abstraction(dcds, 50_000);
        assert_eq!(abs.outcome, AbsOutcome::Complete, "abstraction truncated");
        abs.ts.into_ts()
    } else {
        let p = rcycl(dcds, 50_000);
        assert!(p.complete, "rcycl truncated");
        p.ts.into_ts()
    }
}

/// Check one property three ways. Returns `Some(verdict)` when the
/// symbolic engine was definitive (after asserting three-way agreement),
/// `None` when it was inconclusive.
fn differential(dcds: &Dcds, ts: &Ts, formula: &str, label: &str) -> Option<bool> {
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    let phi = parse_mu(formula, &mut schema, &mut pool)
        .unwrap_or_else(|e| panic!("{label}: {formula}: {e}"));

    let naive = check(&phi, ts).unwrap_or_else(|e| panic!("{label}: naive: {e}"));
    let staged = check_traced(&phi, ts, McOptions::default(), &Obs::disabled())
        .unwrap_or_else(|e| panic!("{label}: staged: {e}"))
        .holds;
    assert_eq!(
        naive, staged,
        "{label}: naive vs staged differ on {formula}"
    );

    let run = check_safety(dcds, &phi, &SymOptions::default())
        .unwrap_or_else(|e| panic!("{label}: symbolic rejected {formula}: {e}"));
    match run.verdict {
        SymVerdict::Holds(_) => {
            assert!(
                naive,
                "{label}: symbolic=holds, explicit=violated on {formula}"
            );
            Some(true)
        }
        SymVerdict::Violated(_) => {
            assert!(
                !naive,
                "{label}: symbolic=violated, explicit=holds on {formula}"
            );
            Some(false)
        }
        SymVerdict::Inconclusive(_) => None,
    }
}

fn load_spec(name: &str) -> Dcds {
    let path = format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    parse_dcds(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

#[test]
fn shipped_bounded_specs_agree() {
    // ping_pong: nondeterministic, state-bounded — RCYCL is exact.
    let pp = load_spec("ping_pong.dcds");
    let pp_ts = explicit_ts(&pp);
    let pp_props = [
        // R and Q are never simultaneously nonempty: holds.
        "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
        // Q is eventually populated: holds.
        "mu Z . (exists X . Q(X)) | <> Z",
        // Q stays empty forever: violated.
        "nu Z . (! (exists X . Q(X))) & [] Z",
        // R only ever holds the initial constant: violated (service
        // results flow back into R through Q).
        "nu Z . (forall Y . R(Y) -> Y = 'a') & [] Z",
        // Some R value differs from 'a' eventually: holds.
        "mu Z . (exists X . R(X) & ! X = 'a') | <> Z",
    ];
    for p in pp_props {
        let v = differential(&pp, &pp_ts, p, "ping_pong");
        assert!(v.is_some(), "ping_pong must be definitive on {p}");
    }

    // travel_request: nondeterministic with integrity constraints,
    // state-bounded via GR+-acyclicity.
    let tr = load_spec("travel_request.dcds");
    let tr_ts = explicit_ts(&tr);
    let tr_props = [
        // A request can be confirmed: holds.
        "mu Z . Status('requestConfirmed') | <> Z",
        // The Status domain constraint is invariant: holds (and the
        // symbolic engine proves it by constraint pruning alone).
        "nu Z . (forall S . Status(S) -> S = 'readyForRequest' | S = 'readyToVerify' \
         | S = 'readyToUpdate' | S = 'requestConfirmed') & [] Z",
        // The status never leaves the initial value: violated.
        "nu Z . (forall S . Status(S) -> S = 'readyForRequest') & [] Z",
        // Once verified, the status has advanced (the spec's second
        // integrity constraint, restated as an invariant): holds.
        "nu Z . (Verified() -> (forall S . Status(S) -> S = 'readyToUpdate' \
         | S = 'requestConfirmed')) & [] Z",
    ];
    for p in tr_props {
        let v = differential(&tr, &tr_ts, p, "travel_request");
        assert!(v.is_some(), "travel_request must be definitive on {p}");
    }
}

/// A seeded-random *weakly acyclic* deterministic system: unary layer
/// relations `L0..L{k-1}`, effects that copy a layer in place or write
/// strictly upward (optionally through a deterministic service), so every
/// special edge in the dependency graph points up and the system is
/// run-bounded by construction (Theorem 4.7).
fn random_layered_system(seed: u64) -> Dcds {
    let mut rng = SplitMix64::new(seed);
    let layers = 3 + rng.gen_range(2); // 3..=4
    let services = 1 + rng.gen_range(2); // 1..=2
    let mut b = DcdsBuilder::new();
    for i in 0..layers {
        b = b.relation(&format!("L{i}"), 1);
    }
    for s in 0..services {
        b = b.service(&format!("f{s}"), 1, ServiceKind::Deterministic);
    }
    b = b.init_fact("L0", &["c0"]);
    if rng.gen_range(2) == 0 {
        b = b.init_fact("L0", &["c1"]);
    }
    let actions = 1 + rng.gen_range(2); // 1..=2
    for a in 0..actions {
        let mut effects: Vec<(String, String)> = Vec::new();
        for i in 0..layers {
            if rng.gen_range(2) == 0 {
                effects.push((format!("L{i}(X)"), format!("L{i}(X)")));
            }
        }
        for _ in 0..(1 + rng.gen_range(3)) {
            let i = rng.gen_range(layers - 1);
            let j = i + 1 + rng.gen_range(layers - 1 - i);
            if rng.gen_range(2) == 0 {
                let s = rng.gen_range(services);
                effects.push((format!("L{i}(X)"), format!("L{j}(f{s}(X))")));
            } else {
                effects.push((format!("L{i}(X)"), format!("L{j}(X)")));
            }
        }
        let name = format!("act{a}");
        b = b.action(&name, &[], |spec| {
            for (body, head) in &effects {
                spec.effect(body, head);
            }
        });
        b = b.rule("true", &name);
    }
    b.build().expect("generated spec must validate")
}

#[test]
fn seeded_random_weakly_acyclic_systems_agree() {
    let mut definitive = 0usize;
    let mut inconclusive = 0usize;
    for seed in 0..12u64 {
        let dcds = random_layered_system(seed);
        // Belt and braces: the generator must only emit weakly acyclic
        // systems, otherwise the explicit oracle may be truncated.
        let dg = dcds_verify::analysis::dependency_graph(&dcds);
        assert!(
            dcds_verify::analysis::is_weakly_acyclic(&dg),
            "seed {seed}: generator emitted a non-weakly-acyclic system"
        );
        let ts = explicit_ts(&dcds);
        // Every relation is a layer, so the last one is the top.
        let top = format!("L{}", dcds.data.schema.len() - 1);
        let props = [
            // The top layer is eventually populated.
            format!("mu Z . (exists X . {top}(X)) | <> Z"),
            // The top layer only ever holds the initial constant.
            format!("nu Z . (forall Y . {top}(Y) -> Y = 'c0') & [] Z"),
            // Some non-initial value eventually reaches the top layer.
            format!("mu Z . (exists X . {top}(X) & ! X = 'c0') | <> Z"),
            // A middle layer stays inside the initial constants — a
            // disjunctive right-hand side, compiled to a two-disequality
            // bad clause.
            "nu Z . (forall Y . L1(Y) -> Y = 'c0' | Y = 'c1') & [] Z".to_owned(),
        ];
        for p in &props {
            match differential(&dcds, &ts, p, &format!("seed {seed}")) {
                Some(_) => definitive += 1,
                None => inconclusive += 1,
            }
        }
    }
    // The over-approximation may punt occasionally, but a symbolic engine
    // that answers nothing is differentially untested — require a strong
    // majority of definitive verdicts.
    assert!(
        definitive >= 3 * (definitive + inconclusive) / 4,
        "too many inconclusive verdicts: {definitive} definitive vs {inconclusive} inconclusive"
    );
}

#[test]
fn bad_free_shuffle_counters_are_pinned() {
    // The run-unbounded workload of the spec-to-verdict benchmark (8
    // phases, 4 values). Its search counters are fixed by construction;
    // they pin the clause set the regression and subsumption layers keep.
    let dcds = synthetic::bad_free_shuffle(8);
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    let phi = parse_mu(
        &synthetic::bad_free_shuffle_property(4),
        &mut schema,
        &mut pool,
    )
    .unwrap();
    let run = check_safety(&dcds, &phi, &SymOptions::default()).unwrap();
    assert!(matches!(run.verdict, SymVerdict::Holds(None)));
    let c = &run.counters;
    assert_eq!(
        (
            c.iterations,
            c.regressions,
            c.kept,
            c.exact_dups,
            c.subsumed
        ),
        (3, 1864, 233, 1260, 128)
    );
    assert_eq!(c.peak_frontier, 144);
    // Options that clash on a constant are never built, so every
    // candidate is satisfiable: each one is kept (all but the seeded bad
    // clause), a duplicate, or subsumed.
    assert_eq!(c.unsat_dropped, 0);
    assert_eq!(c.candidates, 1620);
}

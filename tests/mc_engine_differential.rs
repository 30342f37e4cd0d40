//! Differential testing of the staged model-checking engine against the
//! naive Kleene evaluator it replaced: on random µLA formulas over a real
//! RCYCL abstraction, `engine::eval_traced` must compute the exact same
//! extension as `mc::eval` — at every thread count — and its counters must
//! not depend on the thread count.

// Property tests require the external `proptest` crate, which the offline
// build environment cannot fetch; see the crate manifest for how to enable.
#![cfg(feature = "proptest")]

use dcds_verify::bench::examples;
use dcds_verify::folang::{Formula, QTerm};
use dcds_verify::mucalc::mc::{eval, Valuation};
use dcds_verify::mucalc::{check_traced, eval_traced, McOptions, Mu, PredVar};
use dcds_verify::obs::Obs;
use dcds_verify::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random closed µLA formula over schema {R/1, Q/1} with quantified
/// variables V0..V2 and at most one fixpoint binder.
fn arb_mu_la() -> impl Strategy<Value = Mu> {
    let leaf = prop_oneof![
        Just(Mu::Query(Formula::True)),
        Just(Mu::Query(Formula::False)),
        (0usize..2, 0usize..3).prop_map(|(rel, v)| {
            Mu::Query(Formula::Atom(
                dcds_verify::reldata::RelId::from_index(rel),
                vec![QTerm::var(&format!("V{v}"))],
            ))
        }),
        (0usize..3, 0usize..3).prop_map(|(v, w)| Mu::Query(Formula::eq(
            QTerm::var(&format!("V{v}")),
            QTerm::var(&format!("V{w}"))
        ))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.and(g)),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.or(g)),
            inner.clone().prop_map(|f| f.diamond()),
            inner.clone().prop_map(|f| f.boxed()),
            (0usize..3, inner.clone()).prop_map(|(v, f)| {
                let name = format!("V{v}");
                Mu::exists(name.as_str(), Mu::live(&name).and(f))
            }),
            (0usize..3, inner.clone()).prop_map(|(v, f)| {
                let name = format!("V{v}");
                Mu::forall(name.as_str(), Mu::live(&name).implies(f))
            }),
            inner.clone().prop_map(|f| Mu::lfp(
                "Zp",
                f.diamond().or(Mu::Pvar(PredVar::new("Zp")).diamond())
            )),
            inner
                .clone()
                .prop_map(|f| Mu::gfp("Zq", f.or(Mu::Pvar(PredVar::new("Zq")).boxed()))),
        ]
    })
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

fn system() -> Ts {
    let e51 = examples::example_5_1();
    let pruning = rcycl(&e51, 100);
    assert!(pruning.complete);
    pruning.ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn engine_agrees_with_naive_at_all_thread_counts(f in arb_mu_la()) {
        let phi = close(f);
        prop_assume!(dcds_verify::mucalc::fragments::check_monotone(
            &phi, &mut BTreeMap::new(), true).is_ok());
        let ts = system();
        let oracle = eval(&phi, &ts, &mut Valuation::default());
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let (ext, counters) = eval_traced(
                &phi, &ts, &mut Valuation::default(), McOptions { threads }, &Obs::disabled());
            prop_assert_eq!(&ext, &oracle,
                "engine at {} threads disagrees with naive on {:?}", threads, phi);
            runs.push(counters);
        }
        // Counters are a function of the run, not of the schedule.
        prop_assert_eq!(runs[0], runs[1]);
        prop_assert_eq!(runs[0], runs[2]);
        // The top-level entry point agrees with the extension-level one.
        let run = check_traced(&phi, &ts, McOptions::default(), &Obs::disabled()).unwrap();
        prop_assert_eq!(run.holds, oracle.contains(&ts.initial()));
        prop_assert_eq!(&run.extension, &oracle);
    }
}

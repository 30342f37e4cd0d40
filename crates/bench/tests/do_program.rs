//! The compiled `DO` program against the reference `DO`.
//!
//! On every reachable state of each system, and for every legal `ασ`:
//!
//! * the facts and calls the action's [`DoProgram`](dcds_core::DoProgram)
//!   writes ([`do_rows`]) equal [`do_action`]'s pre-instance and its
//!   `CALLS`, call order included;
//! * the legal σ rows ([`legal_sigmas`]) equal [`legal_assignments`], and
//!   the legal assignments by the definition: every answer of each rule's
//!   condition under the active-domain evaluator, in rule order, without
//!   repeats.
//!
//! The systems are the shipped specs, the travel request and both audit
//! systems, the perfbench-shaped `phased_rings(3)` and
//! `collision_pairs(5)`, and hand-written effects that put each feature of
//! the program on its own: a parameter in a frame-looking atom, a
//! constant, a repeated variable or a permutation in the head, a `Q⁻`
//! filter, a call with a parameter argument, two effects that write the
//! same fact, and rules that give the same σ twice.

use dcds_abstraction::{det_abs, rcycl, AbsOptions, Owned};
use dcds_bench::{synthetic, travel};
use dcds_core::{
    do_action, do_rows, legal_assignments, legal_sigmas, parse_dcds, ActionId, Dcds, DcdsBuilder,
    DoRows, DoTerm, GTerm, PreInstance, ServiceCall, ServiceKind, Ts,
};
use dcds_folang::{answers, parse_formula, Assignment};
use dcds_obs::Obs;
use dcds_reldata::Instance;

/// The legal assignments by the definition.
fn reference_legal(dcds: &Dcds, inst: &Instance) -> Vec<(ActionId, Assignment)> {
    let mut out: Vec<(ActionId, Assignment)> = Vec::new();
    for rule in &dcds.process.rules {
        for sigma in answers(&rule.condition, inst) {
            if !out.iter().any(|(a, s)| *a == rule.action && *s == sigma) {
                out.push((rule.action, sigma));
            }
        }
    }
    out
}

/// The program's facts as a pre-instance, for comparison with `do_action`.
fn to_pre_instance(rows: &DoRows) -> PreInstance {
    let calls: Vec<ServiceCall> = rows.calls().collect();
    let mut pre = PreInstance::new();
    for (rel, terms) in rows.facts() {
        let terms = terms
            .iter()
            .map(|t| match *t {
                DoTerm::Val(v) => GTerm::Val(v),
                DoTerm::Call(c) => GTerm::Call(calls[c as usize].clone()),
            })
            .collect();
        pre.insert(rel, terms);
    }
    pre
}

/// Every state of `ts`: the program's `DO` and the σ rows against the
/// reference. `definitional` also checks the σ against the active-domain
/// answers (out of reach on the full audit system's wide atoms). Returns
/// the number of `ασ` compared.
fn program_matches_reference(dcds: &Dcds, ts: &Ts, definitional: bool) -> usize {
    let mut compared = 0;
    let mut rows = DoRows::default();
    for s in ts.state_ids() {
        let inst = ts.db(s);
        let legal = legal_sigmas(dcds, inst);
        let as_assignments: Vec<(ActionId, Assignment)> = legal
            .iter()
            .map(|sigma| (sigma.action, sigma.assignment(dcds)))
            .collect();
        assert_eq!(
            as_assignments,
            legal_assignments(dcds, inst),
            "state {}",
            s.index()
        );
        if definitional {
            assert_eq!(
                as_assignments,
                reference_legal(dcds, inst),
                "state {}",
                s.index()
            );
        }
        for (sigma, (action, asg)) in legal.iter().zip(&as_assignments) {
            do_rows(dcds, inst, sigma, &mut rows);
            let pre = do_action(dcds, inst, *action, asg);
            let at = || {
                format!(
                    "state {}, action {}, σ = {asg:?}",
                    s.index(),
                    action.index()
                )
            };
            assert_eq!(to_pre_instance(&rows), pre, "{}", at());
            let calls: Vec<_> = rows.calls().collect();
            let want: Vec<_> = pre.calls().into_iter().collect();
            assert_eq!(calls, want, "{}", at());
            assert_eq!(rows.num_calls(), want.len(), "{}", at());
            compared += 1;
        }
    }
    compared
}

/// The reachable states of `dcds`: the det abstraction's for a
/// deterministic system, RCYCL's otherwise.
fn reachable(dcds: &Dcds, max_states: usize) -> Ts {
    if dcds.is_deterministic() {
        det_abs::build::<Owned>(dcds, max_states, AbsOptions::default(), &Obs::disabled()).ts
    } else {
        rcycl::build::<Owned>(dcds, max_states, 1, &Obs::disabled()).ts
    }
}

fn check(dcds: &Dcds, max_states: usize) -> usize {
    let compared = program_matches_reference(dcds, &reachable(dcds, max_states), true);
    assert!(compared > 0, "no legal ασ compared");
    compared
}

#[test]
fn shipped_specs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dcds") {
            let src = std::fs::read_to_string(&path).unwrap();
            let dcds = parse_dcds(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            check(&dcds, 300);
            checked += 1;
        }
    }
    assert_eq!(checked, 4, "the shipped specs");
}

#[test]
fn travel_and_audit_systems() {
    check(&travel::request_system(), 400);
    check(&travel::request_system_small(), 400);
    check(&travel::audit_system_small(), 400);
    // The full audit system's 7-column atoms put the active-domain answers
    // out of reach: its σ are held to `legal_assignments` only.
    let audit = travel::audit_system();
    assert!(program_matches_reference(&audit, &reachable(&audit, 150), false) > 0);
}

#[test]
fn perfbench_shaped_systems() {
    let rings = synthetic::phased_rings(3);
    let pairs = synthetic::collision_pairs(5);
    // Per action: four frames and one rename of seven effects in the
    // rings, two frames of three in the pairs.
    for (dcds, copies) in [(&rings, (5, 7)), (&pairs, (2, 3))] {
        for a in 0..dcds.process.actions.len() {
            assert_eq!(
                dcds.plans().program(ActionId::from_index(a)).copies(),
                copies
            );
        }
    }
    check(&rings, 400);
    check(&pairs, 400);
}

/// Each feature of the program on its own, under both service semantics.
fn feature_system(kind: ServiceKind) -> Dcds {
    DcdsBuilder::new()
        .relation("P", 1)
        .relation("R", 2)
        .relation("S", 2)
        .relation("Q", 1)
        .relation("T", 3)
        .relation("Tick", 0)
        .service("f", 1, kind)
        .service("g", 2, kind)
        .init_fact("P", &["a"])
        .init_fact("P", &["b"])
        .init_fact("R", &["a", "b"])
        .init_fact("R", &["b", "b"])
        .init_fact("Q", &["b"])
        .init_fact("Tick", &[])
        .action("alpha", &["X"], |a| {
            // A parameter in a frame-looking atom: a filter, not a copy.
            a.effect("R(X, Y)", "R(X, Y)");
            // A permutation, and a rename into another relation.
            a.effect("R(Y, Z)", "S(Z, Y)");
            a.effect("P(Y)", "Q(Y)");
            // A constant, a repeated variable, a wider head.
            a.effect("R(Y, Z)", "T(Y, Y, 'c'), R(Z, 'a')");
            // A `Q⁻` filter over the row and the parameter.
            a.effect("P(Y) & !R(Y, X)", "Q(Y)");
            // Calls, one with a parameter argument, one repeated.
            a.effect("P(Y)", "S(f(X), g(Y, X)), Q(f(X))");
            // Two effects writing the same fact as the frame of `P`.
            a.effect("P(Y)", "P(Y)");
            a.effect("Q(Y) & P(Y)", "P(Y)");
        })
        .action("beta", &[], |a| {
            // Pure frames, a nullary copy, and the same fact twice.
            a.effect("P(X)", "P(X)");
            a.effect("R(X, Y)", "R(X, Y), S(Y, X)");
            a.effect("R(X, Y)", "R(X, Y)");
            a.effect("Tick()", "Tick()");
            a.effect("true", "Q(f('c'))");
        })
        .rule("P(X)", "alpha")
        .rule("exists Y . R(X, Y)", "alpha")
        .rule("true", "beta")
        .rule("exists X . Q(X)", "beta")
        .build()
        .unwrap()
}

#[test]
fn hand_written_effects() {
    for kind in [ServiceKind::Deterministic, ServiceKind::Nondeterministic] {
        let dcds = feature_system(kind);
        // alpha: the permutation into `S`, the rename into `Q` and the
        // frame of `P`; beta: all but the call with a constant argument.
        let alpha = dcds.action_id("alpha").unwrap();
        let beta = dcds.action_id("beta").unwrap();
        assert_eq!(dcds.plans().program(alpha).copies(), (3, 8));
        assert_eq!(dcds.plans().program(beta).copies(), (4, 5));
        let compared = check(&dcds, 200);
        assert!(compared > 20, "{kind:?}: {compared} ασ compared");
    }
}

/// A rule condition outside the UCQs is answered by the reference
/// evaluator, and its σ rows still match.
#[test]
fn non_ucq_rule_condition() {
    let dcds = DcdsBuilder::new()
        .relation("P", 1)
        .relation("R", 1)
        .service("f", 0, ServiceKind::Nondeterministic)
        .init_fact("P", &["a"])
        .init_fact("P", &["b"])
        .init_fact("R", &["a"])
        .action("alpha", &["X"], |a| {
            a.effect("P(Y)", "P(Y)");
            a.effect("true", "R(X)");
            a.effect("R(Y)", "R(f())");
        })
        .rule("P(X) & !R(X)", "alpha")
        .build()
        .unwrap();
    assert_eq!(dcds.plans().coverage().1, (0, 1));
    check(&dcds, 100);
}

/// In an unvalidated system a rule's free variables need not be its
/// action's parameters: the σ binds the rule's variables, and `DO` runs a
/// program compiled for them, as `do_action` compiles a plan for them.
#[test]
fn rule_variables_other_than_the_parameters() {
    let valid = DcdsBuilder::new()
        .relation("P", 1)
        .relation("R", 2)
        .service("f", 1, ServiceKind::Nondeterministic)
        .init_fact("P", &["a"])
        .init_fact("R", &["a", "b"])
        .action("alpha", &["X"], |a| {
            a.effect("P(Y)", "P(Y)");
            a.effect("R(X, Z)", "R(Z, X), P(f(X))");
            a.effect("R(Y, Z)", "R(Y, Z)");
        })
        .rule("P(X)", "alpha")
        .build()
        .unwrap();
    let mut data = valid.data.clone();
    let mut process = valid.process.clone();
    // The rule now binds `X` and `Z`; `Z` also occurs in `q⁺`.
    process.rules[0].condition =
        parse_formula("P(X) & R(X, Z)", &mut data.schema, &mut data.pool).unwrap();
    let dcds = Dcds::from_parts(data, process);
    let legal = legal_sigmas(&dcds, &dcds.data.initial);
    assert!(!legal.is_empty() && legal.iter().all(|s| s.values.len() == 2));
    check(&dcds, 100);
}

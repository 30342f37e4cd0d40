//! Engine-level agreement with the definitions for the compiled-plan hot path.
//!
//! `DO` and the legal parameter assignments, which read every state
//! through compiled plans, are checked against their definitions
//! (Section 4.1, evaluated by the active-domain reference evaluator) on
//! every reachable state of the travel-request pruning and of the small
//! audit system — whose `CheckTravel` joins key `Hotel` and `Flight` on
//! non-prefix columns, so those steps run as filtered scans — and for σ
//! that are not exactly the action's parameters. On the travel-request
//! pruning, each constraint's compiled check is held to the definition on
//! every candidate successor.

use dcds_abstraction::{det_abstraction_traced, rcycl_traced, AbsOptions, AbsOutcome, StateKeys};
use dcds_bench::travel;
use dcds_core::do_op::resolve_with_map;
use dcds_core::nondet::evals_over;
use dcds_core::{do_action, legal_assignments, ActionId, Dcds, DcdsBuilder, PreInstance, Ts};
use dcds_folang::{answers, equality_satisfied, fo_satisfied, Assignment, Var};
use dcds_obs::Obs;
use dcds_reldata::Instance;

/// The legal assignments by the definition: every answer of each rule's
/// condition, in rule order, without repeats.
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

/// On every state of `ts`, the legal assignments and `DO` of each equal
/// their definitions.
fn assert_do_and_legal_match_definition(dcds: &Dcds, ts: &Ts) {
    for s in ts.state_ids() {
        let inst = ts.db(s);
        let legal = legal_assignments(dcds, inst);
        assert_eq!(legal, reference_legal(dcds, inst), "state {}", s.index());
        for (action, sigma) in &legal {
            assert_eq!(
                do_action(dcds, inst, *action, sigma),
                reference_do(dcds, inst, *action, sigma),
                "state {}, σ = {sigma:?}",
                s.index()
            );
        }
    }
}

/// On every state of `ts`, for each legal `ασ` and each evaluation θ of
/// its calls over `ADOM(I)` and the rigid constants, each constraint's
/// compiled check on the resolved `DO(I, ασ)` gives the definitional
/// verdict. Returns the verdicts compared and the violations among them.
fn constraint_checks_match_definition(dcds: &Dcds, ts: &Ts) -> (usize, usize) {
    let rigid = dcds.rigid_constants();
    let (mut checks, mut violations) = (0, 0);
    for s in ts.state_ids() {
        let inst = ts.db(s);
        let mut values = inst.active_domain();
        values.extend(rigid.iter().copied());
        for (action, sigma) in legal_assignments(dcds, inst) {
            let pre = do_action(dcds, inst, action, &sigma);
            for theta in evals_over(&pre.calls(), &values) {
                let next = resolve_with_map(&pre, &theta).expect("θ answers every call");
                let eq = dcds
                    .data
                    .constraints
                    .iter()
                    .map(|c| (c.satisfied(&next), equality_satisfied(c, &next)));
                let fo = dcds
                    .data
                    .fo_constraints
                    .iter()
                    .map(|c| (c.satisfied(&next), fo_satisfied(c, &next)));
                for (compiled, definition) in eq.chain(fo) {
                    assert_eq!(compiled, definition, "state {}, θ = {theta:?}", s.index());
                    checks += 1;
                    violations += usize::from(!definition);
                }
            }
        }
    }
    (checks, violations)
}

/// Every reachable state of the travel-request pruning.
#[test]
fn do_and_legal_agree_on_all_rcycl_states() {
    let dcds = travel::request_system_small();
    let res = rcycl_traced(&dcds, 5000, 1, StateKeys::Exact, &Obs::disabled());
    assert!(res.complete, "travel pruning should saturate");
    assert_do_and_legal_match_definition(&dcds, &res.ts);
    // Two constraints on each of 410 candidate successors of 115 states.
    let checks = constraint_checks_match_definition(&dcds, &res.ts);
    assert_eq!((res.ts.num_states(), checks), (115, (820, 128)));
}

/// Every reachable state of the small audit system's deterministic
/// abstraction, whose `CheckTravel` plans have keyed steps on non-prefix
/// columns. (The full audit system's 7-column atoms put the reference
/// evaluator's `ADOM^7` enumeration out of reach; `engine_differential`
/// checks its abstraction against the reference construction instead.)
#[test]
fn do_and_legal_agree_on_all_audit_states() {
    let dcds = travel::audit_system_small();
    let abs = det_abstraction_traced(&dcds, 2000, AbsOptions::default(), &Obs::disabled());
    assert_eq!(
        abs.outcome,
        AbsOutcome::Complete,
        "the audit abstraction saturates"
    );
    assert_do_and_legal_match_definition(&dcds, &abs.ts);
}

/// `DO` by the definition: every answer θ of `(q⁺ ∧ Q⁻)σ` under the
/// active-domain semantics grounds the head facts under `σθ`.
fn reference_do(dcds: &Dcds, inst: &Instance, action: ActionId, sigma: &Assignment) -> PreInstance {
    let mut out = PreInstance::new();
    for effect in &dcds.process.action(action).effects {
        let query = effect.qplus.to_formula().and(effect.qminus.clone());
        for theta in answers(&query.apply(sigma), inst) {
            let mut full = theta;
            full.extend(sigma.iter().map(|(v, c)| (v.clone(), *c)));
            for (rel, terms) in &effect.head {
                let grounded: Option<Vec<_>> = terms.iter().map(|t| t.ground(&full)).collect();
                if let Some(g) = grounded {
                    out.insert(*rel, g);
                }
            }
        }
    }
    out
}

/// `alpha(X)` with the parameter in a `q⁺` atom, only in the head, and
/// absent beside a `Q⁻` filter; every `q⁺` is range-restricted, so the
/// natural-join and active-domain readings of `q⁺σ` agree for any σ.
fn parameterised_system() -> Dcds {
    DcdsBuilder::new()
        .relation("P", 1)
        .relation("R", 2)
        .relation("Q", 1)
        .init_fact("P", &["a"])
        .init_fact("P", &["b"])
        .init_fact("R", &["a", "c"])
        .init_fact("R", &["b", "d"])
        .init_fact("Q", &["d"])
        .action("alpha", &["X"], |a| {
            a.effect("R(X, Y)", "Q(Y)");
            a.effect("true", "P(X)");
            a.effect("R(Z, Y) & !Q(Y)", "P(Y)");
        })
        .rule("P(X)", "alpha")
        .build()
        .unwrap()
}

/// A σ whose domain is not exactly the action's parameter list — padded
/// with a variable outside `q⁺`, or missing a parameter — gets a plan
/// compiled for it, and `do_action` still computes `DO` by definition.
#[test]
fn non_parameter_sigma_takes_identical_fallback() {
    let mut missing_nonempty = 0;
    for dcds in [travel::request_system_small(), parameterised_system()] {
        let inst = &dcds.data.initial;
        let spurious = *inst.active_domain().iter().next().unwrap();
        for (action, sigma) in legal_assignments(&dcds, inst) {
            let mut padded = sigma.clone();
            padded.insert(Var::new("__not_a_param"), spurious);
            let mut sigmas = vec![padded];
            for p in &dcds.process.action(action).params {
                let mut missing = sigma.clone();
                missing.remove(p);
                if !reference_do(&dcds, inst, action, &missing).is_empty() {
                    missing_nonempty += 1;
                }
                sigmas.push(missing);
            }
            for s in &sigmas {
                let expect = reference_do(&dcds, inst, action, s);
                assert_eq!(do_action(&dcds, inst, action, s), expect, "σ = {s:?}");
            }
        }
    }
    assert!(
        missing_nonempty > 0,
        "no σ missing a parameter produced facts"
    );
}

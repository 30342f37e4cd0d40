//! Theorem 6.1: deterministic → nondeterministic services.
//!
//! For each term `f(a₁..aₙ)` in some effect head, the rewritten system
//! records the returned value in a *history relation*
//! `__hist_f(a₁..aₙ, f(a₁..aₙ))`, copies every history relation across
//! steps, and declares the functional dependency `a₁..aₙ → r` on it as an
//! equality constraint. A nondeterministic evaluation that answers a
//! repeated call differently from history violates the dependency and the
//! transition is filtered out — so the projection of the rewritten
//! system's transition system onto the original schema coincides with the
//! original's, and run-boundedness becomes state-boundedness.
//!
//! Only *deterministic* services are instrumented: services that are
//! already nondeterministic pass through untouched, so the rewrite also
//! normalises the paper's **mixed semantics** (Section 6) to the purely
//! nondeterministic case, after which Algorithm RCYCL and µLP verification
//! apply.

use dcds_core::{Action, BaseTerm, Dcds, ETerm, Effect, ServiceCatalog, ServiceKind};
use dcds_folang::{ConjunctiveQuery, EqualityConstraint, QTerm, Ucq, Var};
use dcds_reldata::RelId;

/// Rewrite a DCDS with (some) deterministic services into one whose
/// services are all nondeterministic, preserving behaviour (Theorem 6.1).
pub fn det_to_nondet(dcds: &Dcds) -> Result<Dcds, String> {
    let mut out = dcds.clone();
    // 1. History relation per *deterministic* service (nondeterministic
    // ones need no instrumentation).
    let mut hist_rel: Vec<Option<RelId>> = Vec::new();
    for (fid, decl) in dcds.process.services.iter() {
        debug_assert_eq!(fid.index(), hist_rel.len());
        if decl.kind() != ServiceKind::Deterministic {
            hist_rel.push(None);
            continue;
        }
        let rel = out
            .data
            .schema
            .add_relation(&format!("__hist_{}", decl.name()), decl.arity() + 1)
            .map_err(|e| e.to_string())?;
        hist_rel.push(Some(rel));
        // FD: arguments determine the result.
        let key_cols: Vec<usize> = (0..decl.arity()).collect();
        out.data
            .constraints
            .push(EqualityConstraint::key(&out.data.schema, rel, &key_cols));
    }
    // 2. All services become nondeterministic.
    let mut services = ServiceCatalog::new();
    for (_, decl) in dcds.process.services.iter() {
        services
            .add(decl.name(), decl.arity(), ServiceKind::Nondeterministic)
            .map_err(|e| e.to_string())?;
    }
    out.process.services = services;
    // 3. Record every call in its history relation; 4. copy histories.
    let mut actions: Vec<Action> = Vec::new();
    for action in &dcds.process.actions {
        let mut new_action = action.clone();
        for effect in &mut new_action.effects {
            let mut recordings = Vec::new();
            for (_, terms) in &effect.head {
                for t in terms {
                    if let ETerm::Call(f, args) = t {
                        let Some(rel) = hist_rel[f.index()] else {
                            continue;
                        };
                        let mut hist_terms: Vec<ETerm> =
                            args.iter().cloned().map(ETerm::Base).collect();
                        hist_terms.push(ETerm::Call(*f, args.clone()));
                        recordings.push((rel, hist_terms));
                    }
                }
            }
            effect.head.extend(recordings);
        }
        // Copy effects for each history relation.
        for (fid, decl) in dcds.process.services.iter() {
            let Some(rel) = hist_rel[fid.index()] else {
                continue;
            };
            let vars: Vec<Var> = (0..=decl.arity())
                .map(|i| Var::new(&format!("_H{i}")))
                .collect();
            let atoms = vec![(
                rel,
                vars.iter().cloned().map(QTerm::Var).collect::<Vec<_>>(),
            )];
            let head_terms: Vec<ETerm> = vars
                .iter()
                .cloned()
                .map(|v| ETerm::Base(BaseTerm::Var(v)))
                .collect();
            new_action.effects.push(Effect {
                qplus: Ucq::single(ConjunctiveQuery {
                    head: vars,
                    atoms,
                    equalities: vec![],
                }),
                qminus: dcds_folang::Formula::True,
                head: vec![(rel, head_terms)],
            });
        }
        actions.push(new_action);
    }
    out.process.actions = actions;
    out.validate().map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests_mixed {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    /// A mixed-semantics system: deterministic lookup `f`, nondeterministic
    /// input `g` (the Section 6 "mixed semantics" shape).
    fn mixed() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("S", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "R(X), S(f(X))");
            })
            .action("beta", &[], |a| {
                a.effect("R(X)", "R(X), S(g(X))");
            })
            .rule("true", "alpha")
            .rule("true", "beta")
            .build()
            .unwrap()
    }

    #[test]
    fn only_deterministic_services_are_instrumented() {
        let n = det_to_nondet(&mixed()).unwrap();
        assert!(n.is_nondeterministic());
        assert!(n.data.schema.rel_id("__hist_f").is_some());
        assert!(n.data.schema.rel_id("__hist_g").is_none());
    }

    #[test]
    fn nondeterministic_service_stays_free() {
        use dcds_core::do_op::do_action;
        use dcds_core::nondet::nondet_step;
        use dcds_folang::Assignment;
        use std::collections::BTreeMap;
        let n = det_to_nondet(&mixed()).unwrap();
        let beta = n.action_id("beta").unwrap();
        let mut pool = n.data.pool.clone();
        let b = pool.mint("v");
        let c = pool.mint("v");
        // g(a) may return b at one step and c at the next: both succeed.
        let pre = do_action(&n, &n.data.initial, beta, &Assignment::new());
        let call = pre.calls().into_iter().next().unwrap();
        let theta1: BTreeMap<_, _> = [(call.clone(), b)].into_iter().collect();
        let s1 = nondet_step(&n, &n.data.initial, beta, &Assignment::new(), &theta1).unwrap();
        let pre2 = do_action(&n, &s1, beta, &Assignment::new());
        let call2 = pre2
            .calls()
            .into_iter()
            .find(|cl| cl.args == call.args)
            .unwrap();
        let theta2: BTreeMap<_, _> = [(call2, c)].into_iter().collect();
        assert!(
            nondet_step(&n, &s1, beta, &Assignment::new(), &theta2).is_some(),
            "nondeterministic g must not be history-constrained"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::do_op::do_action;
    use dcds_core::nondet::nondet_step;
    use dcds_core::{DcdsBuilder, ServiceKind};
    use dcds_folang::Assignment;
    use std::collections::BTreeMap;

    fn example_4_3_det() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn rewriting_adds_history_machinery() {
        let d = example_4_3_det();
        let n = det_to_nondet(&d).unwrap();
        assert!(n.is_nondeterministic());
        assert!(n.data.schema.rel_id("__hist_f").is_some());
        assert_eq!(n.data.constraints.len(), d.data.constraints.len() + 1);
        // Each action gained: the recording inside the existing effect plus
        // one copy effect per service.
        assert_eq!(
            n.process.actions[0].effects.len(),
            d.process.actions[0].effects.len() + 1
        );
    }

    #[test]
    fn history_forces_determinism() {
        let d = example_4_3_det();
        let n = det_to_nondet(&d).unwrap();
        let alpha = n.action_id("alpha").unwrap();
        let mut pool = n.data.pool.clone();
        let b = pool.mint("v");
        let c = pool.mint("v");
        // Step 1: f(a) ↦ b. State records __hist_f(a, b).
        let pre = do_action(&n, &n.data.initial, alpha, &Assignment::new());
        let calls: Vec<_> = pre.calls().into_iter().collect();
        assert_eq!(calls.len(), 1);
        let theta1: BTreeMap<_, _> = [(calls[0].clone(), b)].into_iter().collect();
        let s1 = nondet_step(&n, &n.data.initial, alpha, &Assignment::new(), &theta1).unwrap();
        let hist = n.data.schema.rel_id("__hist_f").unwrap();
        assert_eq!(s1.cardinality(hist), 1);
        // Step 2 from s1: Q(b) copies to R(b); f is NOT called again with
        // argument a (R now holds b)... the DCDS calls f(b). Force the
        // situation by a state containing R(a) again:
        // construct s1' = s1 ∪ {R(a)} — then f(a) is re-issued and answering
        // it with c ≠ b must violate the FD.
        let mut s1p = s1.clone();
        let r = n.data.schema.rel_id("R").unwrap();
        let a_val = n.data.pool.get("a").unwrap();
        s1p.insert(r, dcds_reldata::Tuple::from([a_val]));
        let pre2 = do_action(&n, &s1p, alpha, &Assignment::new());
        let f_a = pre2
            .calls()
            .into_iter()
            .find(|cl| cl.args == vec![a_val])
            .expect("f(a) reissued");
        let mut theta2: BTreeMap<_, _> = BTreeMap::new();
        for call in pre2.calls() {
            theta2.insert(call, c);
        }
        theta2.insert(f_a.clone(), c);
        assert!(
            nondet_step(&n, &s1p, alpha, &Assignment::new(), &theta2).is_none(),
            "answering f(a) with c != b must violate the history FD"
        );
        // Answering consistently with b succeeds.
        let mut theta3: BTreeMap<_, _> = BTreeMap::new();
        for call in pre2.calls() {
            theta3.insert(call, c);
        }
        theta3.insert(f_a, b);
        assert!(nondet_step(&n, &s1p, alpha, &Assignment::new(), &theta3).is_some());
    }

    #[test]
    fn projection_preserves_original_schema_reachability() {
        use dcds_core::explore::{explore_det, explore_nondet, Limits};
        use dcds_reldata::Facts;
        use std::collections::BTreeSet;
        let d = example_4_3_det();
        let n = det_to_nondet(&d).unwrap();
        let limits = Limits {
            max_states: 400,
            max_depth: 3,
        };
        let det = explore_det(&d, limits);
        let nondet = explore_nondet(&n, limits);
        // Original-schema relations.
        let orig: BTreeSet<_> = d.data.schema.rel_ids().collect();
        let rigid = d.rigid_constants();
        // Canonical keys of projected reachable states.
        let keys = |ts: &dcds_core::Ts| -> BTreeSet<dcds_reldata::CanonKey> {
            ts.state_ids()
                .map(|s| Facts::from_instance(&ts.db(s).project(&orig)).canonical_key(&rigid))
                .collect()
        };
        let det_keys = keys(&det.ts);
        let nondet_keys = keys(&nondet.ts);
        // Every original-system isomorphism type is realised by the
        // rewritten system, and vice versa.
        assert_eq!(det_keys, nondet_keys);
    }
}

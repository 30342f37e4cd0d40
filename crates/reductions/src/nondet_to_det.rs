//! Theorem 6.2: nondeterministic → deterministic services.
//!
//! Each nondeterministic `f/n` becomes a deterministic `f/(n+1)` whose
//! extra argument is a per-state *timestamp*: same-argument calls at
//! different steps become different-argument calls of the deterministic
//! service, recovering nondeterminism. Timestamps are produced by a
//! deterministic service `__newTs/1`, chained in `succ/2` (kept linear by
//! the Theorem 4.1 key trick with a looped guard node) with the most
//! recent one in `now/1`.

use dcds_core::{Action, BaseTerm, Dcds, ETerm, Effect, FuncId, ServiceCatalog, ServiceKind};
use dcds_folang::{ConjunctiveQuery, EqualityConstraint, Formula, QTerm, Ucq, Var};
use dcds_reldata::Tuple;

/// Rewrite a DCDS with (some) nondeterministic services into one whose
/// services are all deterministic, preserving behaviour (Theorem 6.2).
pub fn nondet_to_det(dcds: &Dcds) -> Result<Dcds, String> {
    let mut out = dcds.clone();
    // Schema: succ/2, now/1.
    let succ = out
        .data
        .schema
        .add_relation("__succ", 2)
        .map_err(|e| e.to_string())?;
    let now = out
        .data
        .schema
        .add_relation("__now", 1)
        .map_err(|e| e.to_string())?;
    // Initial timestamps: guard 0 with self-loop, current timestamp 1.
    let t0 = out.data.pool.intern("__ts0");
    let t1 = out.data.pool.intern("__ts1");
    out.data.initial.insert(succ, Tuple::from([t0, t0]));
    out.data.initial.insert(succ, Tuple::from([t0, t1]));
    out.data.initial.insert(now, Tuple::from([t1]));
    // Key: the second component of succ determines the first.
    out.data
        .constraints
        .push(EqualityConstraint::key(&out.data.schema, succ, &[1]));
    // Services: every f/n becomes deterministic f/(n+1); plus __newTs/1.
    let mut services = ServiceCatalog::new();
    for (_, decl) in dcds.process.services.iter() {
        services
            .add(decl.name(), decl.arity() + 1, ServiceKind::Deterministic)
            .map_err(|e| e.to_string())?;
    }
    let new_ts = services
        .add("__newTs", 1, ServiceKind::Deterministic)
        .map_err(|e| e.to_string())?;
    out.process.services = services;
    // Rewrite actions.
    let ts_var = Var::new("_TS");
    let mut actions: Vec<Action> = Vec::new();
    for action in &dcds.process.actions {
        let mut new_action = action.clone();
        for effect in &mut new_action.effects {
            let has_calls = effect
                .head
                .iter()
                .any(|(_, ts)| ts.iter().any(|t| matches!(t, ETerm::Call(_, _))));
            if !has_calls {
                continue;
            }
            // Bind the current timestamp in q+ and thread it into calls.
            for cq in &mut effect.qplus.disjuncts {
                cq.atoms.push((now, vec![QTerm::Var(ts_var.clone())]));
                if !cq.head.contains(&ts_var) {
                    cq.head.push(ts_var.clone());
                }
            }
            for (_, terms) in &mut effect.head {
                for t in terms.iter_mut() {
                    if let ETerm::Call(f, args) = t {
                        let mut new_args = args.clone();
                        new_args.push(BaseTerm::Var(ts_var.clone()));
                        *t = ETerm::Call(*f, new_args);
                    }
                }
            }
        }
        // Timestamp progression: now(x) ⇝ now(newTs(x)), succ(x, newTs(x));
        // succ accumulates.
        new_action.effects.push(Effect {
            qplus: Ucq::single(ConjunctiveQuery {
                head: vec![ts_var.clone()],
                atoms: vec![(now, vec![QTerm::Var(ts_var.clone())])],
                equalities: vec![],
            }),
            qminus: Formula::True,
            head: vec![
                (now, vec![ts_call(new_ts, &ts_var)]),
                (
                    succ,
                    vec![
                        ETerm::Base(BaseTerm::Var(ts_var.clone())),
                        ts_call(new_ts, &ts_var),
                    ],
                ),
            ],
        });
        let sx = Var::new("_S1");
        let sy = Var::new("_S2");
        new_action.effects.push(Effect {
            qplus: Ucq::single(ConjunctiveQuery {
                head: vec![sx.clone(), sy.clone()],
                atoms: vec![(succ, vec![QTerm::Var(sx.clone()), QTerm::Var(sy.clone())])],
                equalities: vec![],
            }),
            qminus: Formula::True,
            head: vec![(
                succ,
                vec![
                    ETerm::Base(BaseTerm::Var(sx)),
                    ETerm::Base(BaseTerm::Var(sy)),
                ],
            )],
        });
        actions.push(new_action);
    }
    out.process.actions = actions;
    out.validate().map_err(|e| e.to_string())?;
    Ok(out)
}

fn ts_call(new_ts: FuncId, ts_var: &Var) -> ETerm {
    ETerm::Call(new_ts, vec![BaseTerm::Var(ts_var.clone())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::det::{det_successors_by_commitment, DetState};
    use dcds_core::{DcdsBuilder, ServiceKind};

    fn example_5_1_nondet() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
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
    fn rewriting_adds_timestamp_machinery() {
        let n = example_5_1_nondet();
        let d = nondet_to_det(&n).unwrap();
        assert!(d.is_deterministic());
        assert!(d.data.schema.rel_id("__succ").is_some());
        assert!(d.data.schema.rel_id("__now").is_some());
        assert_eq!(d.process.services.len(), 2);
        let f = d.process.services.func_id("f").unwrap();
        assert_eq!(d.process.services.arity(f), 2);
    }

    #[test]
    fn timestamps_decouple_same_argument_calls() {
        // Walk one all-fresh branch of the rewritten system: f is called at
        // step 1 (producing Q(v)), then again at step 3 (after v flowed back
        // into R) — with a strictly later timestamp argument, even though in
        // the original system both calls were plain f(·).
        let n = example_5_1_nondet();
        let d = nondet_to_det(&n).unwrap();
        let mut pool = d.data.pool.clone();
        let mut state = DetState::initial(&d);
        let mut f_calls: Vec<dcds_core::ServiceCall> = Vec::new();
        for _ in 0..4 {
            let succs = det_successors_by_commitment(&d, &state, &mut pool);
            // Prefer the successor whose new calls all returned fresh
            // (minted) values — one always exists.
            let next = succs
                .into_iter()
                .map(|(_, _, _, s)| s)
                .find(|s| {
                    s.call_map
                        .iter()
                        .filter(|(c, _)| !state.call_map.contains_key(c))
                        .all(|(_, v)| pool.is_minted(*v))
                })
                .expect("an all-fresh successor exists");
            state = next;
            f_calls = state
                .call_map
                .keys()
                .filter(|c| d.process.services.name(c.func) == "f")
                .cloned()
                .collect();
            if f_calls.len() >= 2 {
                break;
            }
        }
        assert!(
            f_calls.len() >= 2,
            "f must be called at least twice along the branch"
        );
        // All f calls carry pairwise distinct timestamp arguments.
        let timestamps: std::collections::BTreeSet<_> = f_calls.iter().map(|c| c.args[1]).collect();
        assert_eq!(timestamps.len(), f_calls.len());
    }

    #[test]
    fn succ_stays_linear() {
        let n = example_5_1_nondet();
        let d = nondet_to_det(&n).unwrap();
        let mut pool = d.data.pool.clone();
        let s0 = DetState::initial(&d);
        let succ_rel = d.data.schema.rel_id("__succ").unwrap();
        let mut frontier = vec![s0];
        for _ in 0..3 {
            let mut next = Vec::new();
            for st in &frontier {
                for (_, _, _, s) in det_successors_by_commitment(&d, st, &mut pool) {
                    // Key holds: each timestamp has one predecessor.
                    let mut seen = std::collections::BTreeSet::new();
                    for t in s.instance.tuples(succ_rel) {
                        assert!(seen.insert(t[1]));
                    }
                    next.push(s);
                }
            }
            frontier = next.into_iter().take(6).collect();
        }
    }

    #[test]
    fn projection_matches_original_reachability() {
        use dcds_core::explore::{explore_det, explore_nondet, Limits};
        use dcds_reldata::Facts;
        use std::collections::BTreeSet;
        let n = example_5_1_nondet();
        let d = nondet_to_det(&n).unwrap();
        let limits = Limits {
            max_states: 600,
            max_depth: 2,
        };
        let nres = explore_nondet(&n, limits);
        let dres = explore_det(&d, limits);
        let orig: BTreeSet<_> = n.data.schema.rel_ids().collect();
        let rigid = n.rigid_constants();
        let keys = |ts: &dcds_core::Ts| -> BTreeSet<dcds_reldata::CanonKey> {
            ts.state_ids()
                .map(|s| Facts::from_instance(&ts.db(s).project(&orig)).canonical_key(&rigid))
                .collect()
        };
        assert_eq!(keys(&nres.ts), keys(&dres.ts));
    }
}

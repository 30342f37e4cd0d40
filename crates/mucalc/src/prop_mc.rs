//! Conventional propositional µ-calculus model checking over finite
//! transition systems, by naive Kleene fixpoint iteration — the procedure
//! the paper invokes via \[22\] (Emerson, "Model checking and the
//! mu-calculus") after Theorem 4.4.
//!
//! The complexity of the naive iteration is `O((|Θ|·|Φ|)^k)` for alternation
//! depth `k`, matching the discussion in Section 6.

use crate::ast::PredVar;
use crate::prop::PropMu;
use dcds_core::{StateId, Ts};
use dcds_folang::holds_closed;
use std::collections::{BTreeMap, BTreeSet};

/// The extension of a propositional formula over the system.
pub fn eval_prop(
    f: &PropMu,
    ts: &Ts,
    env: &mut BTreeMap<PredVar, BTreeSet<StateId>>,
) -> BTreeSet<StateId> {
    let all: BTreeSet<StateId> = ts.state_ids().collect();
    eval_rec(f, ts, env, &all)
}

fn eval_rec(
    f: &PropMu,
    ts: &Ts,
    env: &mut BTreeMap<PredVar, BTreeSet<StateId>>,
    all: &BTreeSet<StateId>,
) -> BTreeSet<StateId> {
    match f {
        PropMu::Atom(q) => ts
            .state_ids()
            .filter(|s| {
                holds_closed(q, ts.db(*s)).unwrap_or_else(|e| {
                    panic!("{e} in {q:?}, though `propositionalize` closes every leaf")
                })
            })
            .collect(),
        PropMu::LiveConst(c) => ts
            .state_ids()
            .filter(|s| ts.db(*s).active_domain().contains(c))
            .collect(),
        PropMu::Not(g) => all - &eval_rec(g, ts, env, all),
        PropMu::And(g, h) => &eval_rec(g, ts, env, all) & &eval_rec(h, ts, env, all),
        PropMu::Or(g, h) => &eval_rec(g, ts, env, all) | &eval_rec(h, ts, env, all),
        PropMu::Diamond(g) => {
            let target = eval_rec(g, ts, env, all);
            ts.state_ids()
                .filter(|s| ts.successors(*s).iter().any(|t| target.contains(t)))
                .collect()
        }
        PropMu::Box_(g) => {
            let target = eval_rec(g, ts, env, all);
            ts.state_ids()
                .filter(|s| ts.successors(*s).iter().all(|t| target.contains(t)))
                .collect()
        }
        PropMu::Pvar(z) => env.get(z).cloned().unwrap_or_default(),
        PropMu::Lfp(z, g) => {
            let saved = env.insert(z.clone(), BTreeSet::new());
            let mut current = BTreeSet::new();
            loop {
                env.insert(z.clone(), current.clone());
                let next = eval_rec(g, ts, env, all);
                if next == current {
                    break;
                }
                current = next;
            }
            restore(env, z, saved);
            current
        }
        PropMu::Gfp(z, g) => {
            let saved = env.insert(z.clone(), all.clone());
            let mut current = all.clone();
            loop {
                env.insert(z.clone(), current.clone());
                let next = eval_rec(g, ts, env, all);
                if next == current {
                    break;
                }
                current = next;
            }
            restore(env, z, saved);
            current
        }
    }
}

fn restore(
    env: &mut BTreeMap<PredVar, BTreeSet<StateId>>,
    z: &PredVar,
    saved: Option<BTreeSet<StateId>>,
) {
    match saved {
        Some(s) => {
            env.insert(z.clone(), s);
        }
        None => {
            env.remove(z);
        }
    }
}

/// Does the closed propositional formula hold in the initial state?
pub fn check_prop(f: &PropMu, ts: &Ts) -> bool {
    eval_prop(f, ts, &mut BTreeMap::new()).contains(&ts.initial())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Mu;
    use crate::mc;
    use crate::prop::propositionalize;
    use crate::sugar;
    use dcds_folang::{Formula, QTerm};
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    fn sample() -> (Schema, ConstantPool, Ts) {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let s0 = Instance::from_facts([(p, Tuple::from([a]))]);
        let s1 = Instance::from_facts([(p, Tuple::from([b]))]);
        let mut ts = Ts::new(s0);
        let i1 = ts.add_state(s1);
        ts.add_edge(ts.initial(), i1);
        ts.add_edge(i1, ts.initial());
        (schema, pool, ts)
    }

    #[test]
    fn atoms_and_live() {
        let (schema, pool, ts) = sample();
        let a = pool.get("a").unwrap();
        let pa = PropMu::Atom(Formula::Atom(
            schema.rel_id("P").unwrap(),
            vec![QTerm::Const(a)],
        ));
        assert!(check_prop(&pa, &ts));
        assert!(check_prop(&PropMu::LiveConst(a), &ts));
        let b = pool.get("b").unwrap();
        assert!(!check_prop(&PropMu::LiveConst(b), &ts));
    }

    #[test]
    fn agreement_with_direct_checker() {
        let (schema, _, ts) = sample();
        let p = schema.rel_id("P").unwrap();
        let formulas = [
            sugar::ag(Mu::exists(
                "X",
                Mu::live("X").and(Mu::Query(Formula::Atom(p, vec![QTerm::var("X")]))),
            )),
            sugar::ef(Mu::forall(
                "X",
                Mu::live("X").implies(Mu::Query(Formula::Atom(p, vec![QTerm::var("X")]))),
            )),
            sugar::af(Mu::exists("X", Mu::live("X").and(Mu::live("X")))),
        ];
        let adom = ts.adom_union();
        for f in &formulas {
            let direct = mc::check(f, &ts).unwrap();
            let prop = propositionalize(f, &adom).unwrap();
            assert_eq!(direct, check_prop(&prop, &ts), "formula {f:?}");
        }
    }

    #[test]
    fn fixpoints_terminate() {
        let (_, _, ts) = sample();
        // µZ.⟨−⟩Z over a cycle: empty (no base case ever added).
        let f = PropMu::Lfp(
            PredVar::new("Z"),
            Box::new(PropMu::Diamond(Box::new(PropMu::Pvar(PredVar::new("Z"))))),
        );
        assert!(!check_prop(&f, &ts));
        // νZ.⟨−⟩Z over a cycle: everything.
        let g = PropMu::Gfp(
            PredVar::new("Z"),
            Box::new(PropMu::Diamond(Box::new(PropMu::Pvar(PredVar::new("Z"))))),
        );
        assert!(check_prop(&g, &ts));
    }
}

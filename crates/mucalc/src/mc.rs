//! The definition of µL model checking over explicit finite transition
//! systems: the extension function of Figure 1, computed by naive (Kleene)
//! fixpoint iteration.
//!
//! [`eval`] is deliberately kept naive — no memoization, no parallelism —
//! because it is the **definitional oracle** for the staged engine in
//! [`crate::engine`]: every optimisation over there is validated by
//! agreement with the straight-line transcription of Figure 1 over here.
//! On a quantifier-free formula — `PROP(Φ)` of [`crate::prop`] — it is the
//! conventional propositional µ-calculus model checking the paper invokes
//! via \[22\] (Emerson, "Model checking and the mu-calculus") after
//! Theorem 4.4, of complexity `O((|Θ|·|Φ|)^k)` for alternation depth `k`.
//! Verdicts come from [`crate::engine::check`].
//!
//! First-order quantification is evaluated over `ADOM(Θ)` — the union of
//! all state active domains (plus the values already in the valuation).
//! For µLA/µLP formulas this is *exact*: their quantifiers are LIVE-guarded,
//! so witnesses outside `ADOM(Θ)` can never matter (this is precisely the
//! observation behind `PROP(Φ)`, Theorem 4.4). For unrestricted µL it is
//! the active-domain reading of quantification, which is the right notion
//! on a finite materialised system (the paper's Theorem 4.5 shows genuine
//! µL has no faithful finite abstraction at all).

use crate::ast::{Mu, PredVar};
use crate::engine::{ensure_assigned, CheckError};
use dcds_core::{StateId, Ts};
use dcds_folang::{holds, Assignment, QTerm, Var};
use dcds_reldata::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Individual + predicate variable valuations.
#[derive(Debug, Clone, Default)]
pub struct Valuation {
    /// Individual variables to values.
    pub individuals: BTreeMap<Var, Value>,
    /// Predicate variables to state sets.
    pub predicates: BTreeMap<PredVar, BTreeSet<StateId>>,
}

/// The extension `(Φ)ᵥ` of a formula: the set of states satisfying it.
/// Rejects a valuation that leaves a free variable of `f` unassigned.
pub fn eval(f: &Mu, ts: &Ts, val: &mut Valuation) -> Result<BTreeSet<StateId>, CheckError> {
    ensure_assigned(f, val)?;
    let all: BTreeSet<StateId> = ts.state_ids().collect();
    let domain: BTreeSet<Value> = {
        let mut d = ts.adom_union();
        d.extend(val.individuals.values().copied());
        d
    };
    Ok(eval_rec(f, ts, val, &all, &domain))
}

fn eval_rec(
    f: &Mu,
    ts: &Ts,
    val: &mut Valuation,
    all: &BTreeSet<StateId>,
    domain: &BTreeSet<Value>,
) -> BTreeSet<StateId> {
    match f {
        Mu::Query(q) => {
            // `eval` checked that `val` assigns every free variable.
            let asg: Assignment = (q.free_vars().into_iter())
                .filter_map(|v| val.individuals.get(&v).map(|&d| (v, d)))
                .collect();
            ts.state_ids()
                .filter(|s| {
                    holds(q, ts.db(*s), &asg).unwrap_or_else(|e| {
                        panic!("{e} in {q:?}, whose free variables `eval` checked")
                    })
                })
                .collect()
        }
        Mu::Live(t) => {
            let d = match t {
                QTerm::Const(c) => Some(*c),
                QTerm::Var(v) => val.individuals.get(v).copied(),
            };
            ts.state_ids()
                .filter(|s| d.is_some_and(|d| ts.db(*s).active_domain().contains(&d)))
                .collect()
        }
        Mu::Not(g) => all - &eval_rec(g, ts, val, all, domain),
        Mu::And(g, h) => &eval_rec(g, ts, val, all, domain) & &eval_rec(h, ts, val, all, domain),
        Mu::Or(g, h) => &eval_rec(g, ts, val, all, domain) | &eval_rec(h, ts, val, all, domain),
        Mu::Implies(g, h) => {
            let ng = all - &eval_rec(g, ts, val, all, domain);
            &ng | &eval_rec(h, ts, val, all, domain)
        }
        Mu::Exists(v, g) => {
            let mut out = BTreeSet::new();
            let saved = val.individuals.get(v).copied();
            for &d in domain {
                val.individuals.insert(v.clone(), d);
                out.extend(eval_rec(g, ts, val, all, domain));
                if out.len() == all.len() {
                    break;
                }
            }
            restore(val, v, saved);
            out
        }
        Mu::Forall(v, g) => {
            let mut out = all.clone();
            let saved = val.individuals.get(v).copied();
            for &d in domain {
                val.individuals.insert(v.clone(), d);
                out = &out & &eval_rec(g, ts, val, all, domain);
                if out.is_empty() {
                    break;
                }
            }
            restore(val, v, saved);
            out
        }
        Mu::Diamond(g) => {
            let target = eval_rec(g, ts, val, all, domain);
            ts.state_ids()
                .filter(|s| ts.successors(*s).iter().any(|t| target.contains(t)))
                .collect()
        }
        Mu::Box_(g) => {
            let target = eval_rec(g, ts, val, all, domain);
            ts.state_ids()
                .filter(|s| ts.successors(*s).iter().all(|t| target.contains(t)))
                .collect()
        }
        Mu::Pvar(z) => val.predicates.get(z).cloned().unwrap_or_default(),
        Mu::Lfp(z, g) => {
            let saved = val.predicates.insert(z.clone(), BTreeSet::new());
            let mut current = BTreeSet::new();
            loop {
                val.predicates.insert(z.clone(), current.clone());
                let next = eval_rec(g, ts, val, all, domain);
                if next == current {
                    break;
                }
                current = next;
            }
            restore_pred(val, z, saved);
            current
        }
        Mu::Gfp(z, g) => {
            let saved = val.predicates.insert(z.clone(), all.clone());
            let mut current = all.clone();
            loop {
                val.predicates.insert(z.clone(), current.clone());
                let next = eval_rec(g, ts, val, all, domain);
                if next == current {
                    break;
                }
                current = next;
            }
            restore_pred(val, z, saved);
            current
        }
    }
}

fn restore(val: &mut Valuation, v: &Var, saved: Option<Value>) {
    match saved {
        Some(d) => {
            val.individuals.insert(v.clone(), d);
        }
        None => {
            val.individuals.remove(v);
        }
    }
}

fn restore_pred(val: &mut Valuation, z: &PredVar, saved: Option<BTreeSet<StateId>>) {
    match saved {
        Some(s) => {
            val.predicates.insert(z.clone(), s);
        }
        None => {
            val.predicates.remove(z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sugar;
    use dcds_folang::Formula;
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    /// Does the closed formula hold in the initial state, by [`eval`]?
    fn check(f: &Mu, ts: &Ts) -> Result<bool, CheckError> {
        Ok(eval(f, ts, &mut Valuation::default())?.contains(&ts.initial()))
    }

    /// A 3-state system: s0 --> s1 --> s2, s2 self-loop.
    /// s0: Stud(a); s1: Stud(a), Stud(b); s2: Grad(a, m).
    fn sample() -> (Schema, ConstantPool, Ts) {
        let mut schema = Schema::new();
        let stud = schema.add_relation("Stud", 1).unwrap();
        let grad = schema.add_relation("Grad", 2).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let m = pool.intern("m");
        let s0 = Instance::from_facts([(stud, Tuple::from([a]))]);
        let s1 = Instance::from_facts([(stud, Tuple::from([a])), (stud, Tuple::from([b]))]);
        let s2 = Instance::from_facts([(grad, Tuple::from([a, m]))]);
        let mut ts = Ts::new(s0);
        let i1 = ts.add_state(s1);
        let i2 = ts.add_state(s2);
        ts.add_edge(ts.initial(), i1);
        ts.add_edge(i1, i2);
        ts.add_edge(i2, i2);
        (schema, pool, ts)
    }

    fn stud(s: &Schema, v: &str) -> Mu {
        Mu::Query(Formula::Atom(
            s.rel_id("Stud").unwrap(),
            vec![QTerm::var(v)],
        ))
    }

    #[test]
    fn query_and_modalities() {
        let (schema, _, ts) = sample();
        // ∃x.LIVE(x) ∧ Stud(x) holds in s0 and s1.
        let f = Mu::exists("X", Mu::live("X").and(stud(&schema, "X")));
        let ext = eval(&f, &ts, &mut Valuation::default()).unwrap();
        assert_eq!(ext.len(), 2);
        // ⟨−⟩ of it holds in s0 only.
        let g = Mu::exists("X", Mu::live("X").and(stud(&schema, "X"))).diamond();
        assert!(check(&g, &ts).unwrap());
        let ext2 = eval(&g, &ts, &mut Valuation::default()).unwrap();
        assert_eq!(ext2.len(), 1);
    }

    #[test]
    fn least_fixpoint_reaches() {
        let (schema, pool, ts) = sample();
        let a = pool.get("a").unwrap();
        let m = pool.get("m").unwrap();
        // EF Grad(a, m) via µZ. Grad(a,m) ∨ ⟨−⟩Z.
        let grad = Mu::Query(Formula::Atom(
            schema.rel_id("Grad").unwrap(),
            vec![QTerm::Const(a), QTerm::Const(m)],
        ));
        let f = sugar::ef(grad);
        assert!(check(&f, &ts).unwrap());
    }

    #[test]
    fn greatest_fixpoint_safety() {
        let (schema, _, ts) = sample();
        // AG ¬Stud(b)? Stud(b) holds in s1, so false.
        let mut pool2 = ConstantPool::new();
        pool2.intern("a");
        let b = pool2.intern("b");
        let studb = Mu::Query(Formula::Atom(
            schema.rel_id("Stud").unwrap(),
            vec![QTerm::Const(b)],
        ));
        assert!(!check(&sugar::ag(studb.clone().not()), &ts).unwrap());
        // AG ¬(Stud(b) ∧ Grad-state) is true since they never co-occur...
        // simpler: AG true is true.
        assert!(check(&sugar::ag(Mu::Query(Formula::True)), &ts).unwrap());
    }

    #[test]
    fn quantification_across_states() {
        let (schema, _, ts) = sample();
        // ∃x.LIVE(x) ∧ Stud(x) ∧ ⟨−⟩⟨−⟩ ∃y.LIVE(y) ∧ Grad(x,y):
        // student a at s0 eventually graduates at s2.
        let grad_xy = Mu::Query(Formula::Atom(
            schema.rel_id("Grad").unwrap(),
            vec![QTerm::var("X"), QTerm::var("Y")],
        ));
        let f = Mu::exists(
            "X",
            Mu::live("X").and(stud(&schema, "X")).and(
                Mu::exists("Y", Mu::live("Y").and(grad_xy))
                    .diamond()
                    .diamond(),
            ),
        );
        assert!(check(&f, &ts).unwrap());
    }

    #[test]
    fn live_tracks_active_domain() {
        let (_, pool, ts) = sample();
        let b = pool.get("b").unwrap();
        // LIVE(b) holds exactly in s1.
        let f = Mu::live_const(b);
        let ext = eval(&f, &ts, &mut Valuation::default()).unwrap();
        assert_eq!(ext.len(), 1);
    }

    #[test]
    fn unassigned_variables_are_rejected() {
        let (schema, pool, ts) = sample();
        let named = |f: &Mu| match eval(f, &ts, &mut Valuation::default()) {
            Err(CheckError::FreeIndividuals(vs)) => vs,
            other => panic!("{f:?} evaluated: {other:?}"),
        };
        let y = vec![Var::new("Y")];
        assert_eq!(named(&Mu::live("Y")), y);
        // Both readings of "not S(Y)" are rejected alike.
        let not_inside =
            Mu::Query(Formula::Atom(schema.rel_id("Stud").unwrap(), vec![QTerm::var("Y")]).not());
        assert_eq!(named(&not_inside), y);
        assert_eq!(named(&stud(&schema, "Y").not()), y);
        let z = Mu::Pvar(PredVar::new("Z"));
        assert!(matches!(
            eval(&z, &ts, &mut Valuation::default()),
            Err(CheckError::FreePredicates(_))
        ));
        // Assigned, the same formulas evaluate: `b` is live in s1 only.
        let mut val = Valuation::default();
        val.individuals
            .insert(Var::new("Y"), pool.get("b").unwrap());
        assert_eq!(eval(&Mu::live("Y"), &ts, &mut val).unwrap().len(), 1);
    }

    #[test]
    fn nested_fixpoints_until() {
        let (schema, _, ts) = sample();
        // E [Stud-nonempty U Grad-nonempty]: along some path students
        // persist until graduation.
        let some_stud = Mu::exists("X", Mu::live("X").and(stud(&schema, "X")));
        let some_grad = Mu::exists(
            "X",
            Mu::live("X").and(Mu::exists(
                "Y",
                Mu::live("Y").and(Mu::Query(Formula::Atom(
                    schema.rel_id("Grad").unwrap(),
                    vec![QTerm::var("X"), QTerm::var("Y")],
                ))),
            )),
        );
        let f = sugar::eu(some_stud, some_grad);
        assert!(check(&f, &ts).unwrap());
    }
}

//! `PROP(Φ)`: propositionalisation of first-order µ-calculus formulas over
//! a finite transition system (Theorem 4.4).
//!
//! Given the finite abstraction `Θ` with `ADOM(Θ) = ⋃ᵢ ADOM(db(sᵢ))`,
//! first-order quantification is expanded into finite boolean combinations:
//!
//! ```text
//!   PROP(∃x. LIVE(x) ∧ Ψ(x)) = ⋁_{t ∈ ADOM(Θ)} LIVE(t) ∧ PROP(Ψ(t))
//! ```
//!
//! and every other constructor is mapped homomorphically. The result is a
//! closed, quantifier-free [`Mu`] whose leaves are *closed* FO queries and
//! `LIVE(t)` of constants — propositions evaluated per state — so it is a
//! plain propositional µ-calculus formula, and any µ-calculus checker is a
//! conventional one on it: [`crate::mc::eval`] is the naive Kleene
//! iteration the paper cites after the theorem.

use crate::ast::Mu;
use dcds_folang::{Formula, QTerm, Var};
use dcds_reldata::Value;
use std::collections::BTreeSet;

/// Errors during propositionalisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for PropError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PropError {}

/// Translate a closed µL formula into propositional µ-calculus over the
/// finite value domain `adom` (typically `ADOM(Θ)`): a quantifier-free
/// [`Mu`] whose leaves are ground queries and `LIVE` of constants.
///
/// Quantifiers are expanded over `adom`; for µLA/µLP formulas this yields a
/// formula equivalent to the original (Theorem 4.4), since their LIVE
/// guards restrict witnesses to the active domain anyway.
pub fn propositionalize(f: &Mu, adom: &BTreeSet<Value>) -> Result<Mu, PropError> {
    let prop = |g: &Mu| propositionalize(g, adom).map(Box::new);
    // The instances of `∃v.g` / `∀v.g` over `adom`, folded with `join`.
    let expand = |v: &Var, g: &Mu, join: fn(Mu, Mu) -> Mu, empty| -> Result<Mu, PropError> {
        let mut out: Option<Mu> = None;
        for &t in adom {
            let inst = propositionalize(&g.substitute_var(v, t), adom)?;
            out = Some(match out {
                None => inst,
                Some(acc) => join(acc, inst),
            });
        }
        Ok(out.unwrap_or(Mu::Query(empty)))
    };
    Ok(match f {
        Mu::Query(q) => {
            if let Some(v) = q.free_vars().into_iter().next() {
                return Err(PropError {
                    message: format!("query leaf has free variable {}", v.name()),
                });
            }
            f.clone()
        }
        Mu::Live(QTerm::Const(_)) | Mu::Pvar(_) => f.clone(),
        Mu::Live(QTerm::Var(v)) => {
            return Err(PropError {
                message: format!("LIVE({}) with unsubstituted variable", v.name()),
            })
        }
        Mu::Not(g) => Mu::Not(prop(g)?),
        Mu::And(g, h) => Mu::And(prop(g)?, prop(h)?),
        Mu::Or(g, h) => Mu::Or(prop(g)?, prop(h)?),
        Mu::Implies(g, h) => Mu::Implies(prop(g)?, prop(h)?),
        Mu::Exists(v, g) => expand(v, g, Mu::or, Formula::False)?,
        Mu::Forall(v, g) => expand(v, g, Mu::and, Formula::True)?,
        Mu::Diamond(g) => Mu::Diamond(prop(g)?),
        Mu::Box_(g) => Mu::Box_(prop(g)?),
        Mu::Lfp(z, g) => Mu::Lfp(z.clone(), prop(g)?),
        Mu::Gfp(z, g) => Mu::Gfp(z.clone(), prop(g)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PredVar;
    use crate::mc::{eval, Valuation};
    use crate::sugar;
    use dcds_core::Ts;
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    #[test]
    fn quantifier_expansion_size() {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let adom: BTreeSet<Value> = ["a", "b", "c"].iter().map(|n| pool.intern(n)).collect();
        let f = Mu::exists(
            "X",
            Mu::live("X").and(Mu::Query(Formula::Atom(p, vec![QTerm::var("X")]))),
        );
        let prop = propositionalize(&f, &adom).unwrap();
        // Three disjuncts of LIVE(t) ∧ P(t), and no quantifier left.
        assert_eq!(prop.constants(), adom);
        assert!(prop.is_closed());
        assert_eq!(count_live_consts(&prop), 3);
    }

    fn count_live_consts(f: &Mu) -> usize {
        match f {
            Mu::Live(QTerm::Const(_)) => 1,
            Mu::Live(_) | Mu::Query(_) | Mu::Pvar(_) => 0,
            Mu::Exists(..) | Mu::Forall(..) => panic!("quantifier left in {f:?}"),
            Mu::Not(g) | Mu::Diamond(g) | Mu::Box_(g) | Mu::Lfp(_, g) | Mu::Gfp(_, g) => {
                count_live_consts(g)
            }
            Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => {
                count_live_consts(g) + count_live_consts(h)
            }
        }
    }

    #[test]
    fn empty_domain_quantifiers() {
        let f = Mu::exists("X", Mu::live("X"));
        let prop = propositionalize(&f, &BTreeSet::new()).unwrap();
        assert_eq!(prop, Mu::Query(Formula::False));
        let g = Mu::forall("X", Mu::live("X"));
        let propg = propositionalize(&g, &BTreeSet::new()).unwrap();
        assert_eq!(propg, Mu::Query(Formula::True));
    }

    #[test]
    fn open_query_rejected() {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let f = Mu::Query(Formula::Atom(p, vec![QTerm::var("X")]));
        assert!(propositionalize(&f, &BTreeSet::new()).is_err());
    }

    /// A 2-cycle `P(a) ⇄ P(b)`.
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

    /// Does the closed formula hold initially, by the naive Kleene
    /// iteration of [`crate::mc`]?
    fn holds(f: &Mu, ts: &Ts) -> bool {
        let ext = eval(f, ts, &mut Valuation::default()).unwrap();
        ext.contains(&ts.initial())
    }

    #[test]
    fn atoms_and_live() {
        let (schema, pool, ts) = sample();
        let a = pool.get("a").unwrap();
        let pa = Mu::Query(Formula::Atom(
            schema.rel_id("P").unwrap(),
            vec![QTerm::Const(a)],
        ));
        assert!(holds(&pa, &ts));
        assert!(holds(&Mu::live_const(a), &ts));
        let b = pool.get("b").unwrap();
        assert!(!holds(&Mu::live_const(b), &ts));
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
            let prop = propositionalize(f, &adom).unwrap();
            assert_eq!(holds(f, &ts), holds(&prop, &ts), "formula {f:?}");
        }
    }

    #[test]
    fn fixpoints_terminate() {
        let (_, _, ts) = sample();
        let z = || Mu::Pvar(PredVar::new("Z"));
        // µZ.⟨−⟩Z over a cycle: empty (no base case ever added).
        assert!(!holds(&Mu::lfp("Z", z().diamond()), &ts));
        // νZ.⟨−⟩Z over a cycle: everything.
        assert!(holds(&Mu::gfp("Z", z().diamond()), &ts));
    }
}

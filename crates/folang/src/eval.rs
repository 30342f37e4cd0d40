//! Reference evaluator for first-order queries under the active-domain
//! semantics, and the constraint verdicts defined through it.
//!
//! Following the paper (footnote 3, Section 2.1): given a FO query `Q` and an
//! instance `I`, `ans(Q, I)` is the set of assignments θ from the free
//! variables of `Q` to the *active domain* of `I` such that `I |= Qθ`.
//! Quantifiers likewise range over `ADOM(I)`. This makes every formula
//! domain-independent by construction. Every quantifier enumerates
//! `ADOM(I)` and every connective is read off its truth table: the module
//! is the definition, written to be checked by eye, not to be fast.
//!
//! An instance satisfies an equality constraint `Q → ⋀ z_j = y_j` when
//! every answer of `Q` meets every equality ([`equality_satisfied`]), and
//! an FO integrity constraint when its sentence holds ([`fo_satisfied`]).
//!
//! Production code evaluates every query and constraint through a
//! [`crate::plan::CompiledPlan`]; this module serves the tests and the
//! model-checking oracles that hold the plans to the definition.

use crate::ast::{Assignment, Formula, QTerm, Var};
use crate::constraints::{EqualityConstraint, FoConstraint};
use crate::QueryError;
use dcds_reldata::{Instance, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Does the (boolean) formula hold in the instance under the assignment?
///
/// All free variables of `f` must be bound by `asg`; otherwise an
/// [`QueryError::UnboundVariable`] is returned.
pub fn holds(f: &Formula, inst: &Instance, asg: &Assignment) -> Result<bool, QueryError> {
    let adom = inst.active_domain();
    let mut env: BTreeMap<Var, Value> = asg.clone();
    eval(f, inst, &adom, &mut env)
}

/// Like [`holds`] but for closed formulas.
pub fn holds_closed(f: &Formula, inst: &Instance) -> Result<bool, QueryError> {
    holds(f, inst, &Assignment::new())
}

/// The answers `ans(Q, I)`: all assignments of the free variables of `f` to
/// the active domain of `inst` under which `f` holds.
pub fn answers(f: &Formula, inst: &Instance) -> BTreeSet<Assignment> {
    let free: Vec<Var> = f.free_vars().into_iter().collect();
    let adom = inst.active_domain();
    let mut out = BTreeSet::new();
    let mut env: BTreeMap<Var, Value> = BTreeMap::new();
    enumerate(f, inst, &adom, &free, &mut env, &mut out);
    out
}

/// Does `inst` satisfy the equality constraint? Every answer θ of its
/// premise must meet every equality under θ.
pub fn equality_satisfied(c: &EqualityConstraint, inst: &Instance) -> bool {
    let value = |t: &QTerm, theta: &Assignment| match t {
        QTerm::Const(v) => Some(*v),
        QTerm::Var(v) => theta.get(v).copied(),
    };
    answers(c.query(), inst).iter().all(|theta| {
        c.equalities()
            .iter()
            .all(|(a, b)| value(a, theta) == value(b, theta))
    })
}

/// Does `inst` satisfy the FO integrity constraint? Its sentence must hold.
pub fn fo_satisfied(c: &FoConstraint, inst: &Instance) -> bool {
    holds_closed(c.sentence(), inst).expect("an FO constraint is a closed sentence")
}

fn enumerate(
    f: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    free: &[Var],
    env: &mut BTreeMap<Var, Value>,
    out: &mut BTreeSet<Assignment>,
) {
    let Some((first, rest)) = free.split_first() else {
        if eval(f, inst, adom, env)
            .unwrap_or_else(|e| panic!("{e} in {f:?}, with every free variable bound"))
        {
            out.insert(env.clone());
        }
        return;
    };
    for &v in adom {
        env.insert(first.clone(), v);
        enumerate(f, inst, adom, rest, env, out);
    }
    env.remove(first);
}

fn term_value(t: &QTerm, env: &BTreeMap<Var, Value>) -> Result<Value, QueryError> {
    match t {
        QTerm::Const(c) => Ok(*c),
        QTerm::Var(v) => env
            .get(v)
            .copied()
            .ok_or_else(|| QueryError::UnboundVariable(v.name().to_owned())),
    }
}

fn eval(
    f: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
) -> Result<bool, QueryError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(rel, terms) => {
            let vals = terms
                .iter()
                .map(|t| term_value(t, env))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(inst.contains(*rel, &Tuple::from(vals)))
        }
        Formula::Eq(t1, t2) => Ok(term_value(t1, env)? == term_value(t2, env)?),
        Formula::Not(g) => Ok(!eval(g, inst, adom, env)?),
        Formula::And(g, h) => Ok(eval(g, inst, adom, env)? && eval(h, inst, adom, env)?),
        Formula::Or(g, h) => Ok(eval(g, inst, adom, env)? || eval(h, inst, adom, env)?),
        Formula::Implies(g, h) => Ok(!eval(g, inst, adom, env)? || eval(h, inst, adom, env)?),
        Formula::Exists(v, g) => quantify(v, g, inst, adom, env, true),
        Formula::Forall(v, g) => quantify(v, g, inst, adom, env, false),
    }
}

/// `∃v. body` (`existential`) or `∀v. body` over the active domain: the
/// first value whose verdict is `existential` decides; else
/// `!existential`. The binding of `v` shadows any outer one for the
/// duration and is restored after.
fn quantify(
    v: &Var,
    body: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
    existential: bool,
) -> Result<bool, QueryError> {
    let saved = env.get(v).copied();
    let mut verdict = Ok(!existential);
    for &d in adom {
        env.insert(v.clone(), d);
        match eval(body, inst, adom, env) {
            Ok(b) if b != existential => {}
            decided => {
                verdict = decided;
                break;
            }
        }
    }
    match saved {
        Some(old) => env.insert(v.clone(), old),
        None => env.remove(v),
    };
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::{ConstantPool, RelId, Schema, Tuple};

    fn setup() -> (ConstantPool, Schema, RelId, RelId, Instance) {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let inst = Instance::from_facts([
            (p, Tuple::from([a])),
            (q, Tuple::from([a, b])),
            (q, Tuple::from([b, b])),
        ]);
        (pool, schema, p, q, inst)
    }

    #[test]
    fn atoms_and_equality() {
        let (pool, _, p, _, inst) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        assert!(holds_closed(&Formula::Atom(p, vec![QTerm::Const(a)]), &inst).unwrap());
        assert!(!holds_closed(&Formula::Atom(p, vec![QTerm::Const(b)]), &inst).unwrap());
        assert!(holds_closed(&Formula::eq(QTerm::Const(a), QTerm::Const(a)), &inst).unwrap());
        assert!(!holds_closed(&Formula::eq(QTerm::Const(a), QTerm::Const(b)), &inst).unwrap());
    }

    #[test]
    fn quantifiers_range_over_adom() {
        let (_, _, p, _, inst) = setup();
        // exists X. P(X)
        let f = Formula::exists("X", Formula::Atom(p, vec![QTerm::var("X")]));
        assert!(holds_closed(&f, &inst).unwrap());
        // forall X. P(X) — false, b is in adom but not in P.
        let g = Formula::forall("X", Formula::Atom(p, vec![QTerm::var("X")]));
        assert!(!holds_closed(&g, &inst).unwrap());
    }

    #[test]
    fn answers_enumerate_free_vars() {
        let (pool, _, _, q, inst) = setup();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        // Q(X, Y)
        let f = Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")]);
        let ans = answers(&f, &inst);
        assert_eq!(ans.len(), 2);
        let mut expected1 = Assignment::new();
        expected1.insert(Var::new("X"), a);
        expected1.insert(Var::new("Y"), b);
        assert!(ans.contains(&expected1));
        let mut expected2 = Assignment::new();
        expected2.insert(Var::new("X"), b);
        expected2.insert(Var::new("Y"), b);
        assert!(ans.contains(&expected2));
    }

    #[test]
    fn negation_is_wrt_active_domain() {
        let (pool, _, p, _, inst) = setup();
        let b = pool.get("b").unwrap();
        // !P(X): answers are adom values not in P, i.e. {b}.
        let f = Formula::Atom(p, vec![QTerm::var("X")]).not();
        let ans = answers(&f, &inst);
        assert_eq!(ans.len(), 1);
        let mut expected = Assignment::new();
        expected.insert(Var::new("X"), b);
        assert!(ans.contains(&expected));
    }

    #[test]
    fn implication_and_joins() {
        let (_, _, p, q, inst) = setup();
        // forall X. P(X) -> exists Y. Q(X, Y)
        let f = Formula::forall(
            "X",
            Formula::Atom(p, vec![QTerm::var("X")]).implies(Formula::exists(
                "Y",
                Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")]),
            )),
        );
        assert!(holds_closed(&f, &inst).unwrap());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let (_, _, p, _, inst) = setup();
        let f = Formula::Atom(p, vec![QTerm::var("X")]);
        assert_eq!(
            holds_closed(&f, &inst),
            Err(QueryError::UnboundVariable("X".to_owned()))
        );
    }

    #[test]
    fn true_query_has_one_empty_answer() {
        let (_, _, _, _, inst) = setup();
        let ans = answers(&Formula::True, &inst);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Assignment::new()));
    }

    #[test]
    fn guard_shaped_blocks() {
        // Guard-shaped ∀- and ∃-blocks on satisfied and violated instances.
        let (pool, _, p, q, inst) = setup();
        let a = pool.get("a").unwrap();
        // ∀X,Y. Q(X,Y) → P(X): Q = {(a,b),(b,b)}, P = {a} → fails at (b,b).
        let f = Formula::forall(
            "X",
            Formula::forall(
                "Y",
                Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")])
                    .implies(Formula::Atom(p, vec![QTerm::var("X")])),
            ),
        );
        assert!(!holds_closed(&f, &inst).unwrap());
        // ∀X,Y. Q(X,Y) → Y = b: holds.
        let b = pool.get("b").unwrap();
        let g = Formula::forall(
            "X",
            Formula::forall(
                "Y",
                Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")])
                    .implies(Formula::eq(QTerm::var("Y"), QTerm::Const(b))),
            ),
        );
        assert!(holds_closed(&g, &inst).unwrap());
        // ∃-block whose guard atom has a constant: ∃Y. Q(a, Y) ∧ Y = b.
        let h = Formula::exists(
            "Y",
            Formula::Atom(q, vec![QTerm::Const(a), QTerm::var("Y")])
                .and(Formula::eq(QTerm::var("Y"), QTerm::Const(b))),
        );
        assert!(holds_closed(&h, &inst).unwrap());
        // Guard with a repeated variable: ∃X. Q(X, X) — only (b,b).
        let r = Formula::exists(
            "X",
            Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("X")]),
        );
        assert!(holds_closed(&r, &inst).unwrap());
        // Same but over P(b)... Q(a,a) absent: ∃X. Q(X,X) ∧ P(X) fails
        // (only b satisfies Q(X,X), and P(b) is false).
        let s = Formula::exists(
            "X",
            Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("X")])
                .and(Formula::Atom(p, vec![QTerm::var("X")])),
        );
        assert!(!holds_closed(&s, &inst).unwrap());
    }

    #[test]
    fn inner_block_respects_outer_bindings() {
        // X bound by an outer quantifier; the inner block's guard mentions
        // X, and must read the outer binding.
        let (pool, _, p, q, inst) = setup();
        let _ = pool;
        // ∃X. P(X) ∧ (∀Y. Q(X, Y) → Y = Y): X = a works.
        let f = Formula::exists(
            "X",
            Formula::Atom(p, vec![QTerm::var("X")]).and(Formula::forall(
                "Y",
                Formula::Atom(q, vec![QTerm::var("X"), QTerm::var("Y")])
                    .implies(Formula::eq(QTerm::var("Y"), QTerm::var("Y"))),
            )),
        );
        assert!(holds_closed(&f, &inst).unwrap());
    }

    #[test]
    fn empty_instance_quantifiers() {
        let inst = Instance::new();
        // exists X. X = X is false over an empty adom; forall X. false is true.
        let f = Formula::exists("X", Formula::eq(QTerm::var("X"), QTerm::var("X")));
        assert!(!holds_closed(&f, &inst).unwrap());
        let g = Formula::forall("X", Formula::False);
        assert!(holds_closed(&g, &inst).unwrap());
    }
}

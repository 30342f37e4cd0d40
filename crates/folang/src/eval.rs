//! Reference evaluator for first-order queries under the active-domain
//! semantics.
//!
//! Following the paper (footnote 3, Section 2.1): given a FO query `Q` and an
//! instance `I`, `ans(Q, I)` is the set of assignments θ from the free
//! variables of `Q` to the *active domain* of `I` such that `I |= Qθ`.
//! Quantifiers likewise range over `ADOM(I)`. This makes every formula
//! domain-independent by construction.
//!
//! This is the reference: production code evaluates every query through a
//! [`crate::plan::CompiledPlan`], and this module serves the tests, the
//! model-checking oracles and the debug cross-checks that hold the plans to
//! the definition. Its atom-guided quantifier blocks keep those debug
//! cross-checks affordable on guard-shaped constraints with several
//! quantified variables.

use crate::ast::{Assignment, Formula, QTerm, Var};
use crate::QueryError;
use dcds_reldata::{Instance, Value};
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

/// Evaluate with atom-guided quantifier blocks disabled — plain
/// `|adom|^k` enumeration, straight from the active-domain semantics. The
/// reference that `guided_differential` checks [`holds`] against; the
/// semantics are identical.
pub fn holds_unguided(f: &Formula, inst: &Instance, asg: &Assignment) -> Result<bool, QueryError> {
    let adom = inst.active_domain();
    let mut env: BTreeMap<Var, Value> = asg.clone();
    GUIDANCE_DISABLED.with(|flag| flag.set(true));
    let out = eval(f, inst, &adom, &mut env);
    GUIDANCE_DISABLED.with(|flag| flag.set(false));
    out
}

thread_local! {
    static GUIDANCE_DISABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn guidance_disabled() -> bool {
    GUIDANCE_DISABLED.with(|flag| flag.get())
}

/// The answers `ans(Q, I)`: all assignments of the free variables of `f` to
/// the active domain of `inst` under which `f` holds.
pub fn answers(f: &Formula, inst: &Instance) -> BTreeSet<Assignment> {
    let adom: Vec<Value> = inst.active_domain().into_iter().collect();
    answers_over(f, inst, &adom)
}

/// Answers with the free variables ranging over an explicit domain instead of
/// the active domain. (Quantifiers still range over the active domain, per
/// the paper's semantics.)
pub fn answers_over(f: &Formula, inst: &Instance, domain: &[Value]) -> BTreeSet<Assignment> {
    let free: Vec<Var> = f.free_vars().into_iter().collect();
    let adom = inst.active_domain();
    let mut out = BTreeSet::new();
    let mut env: BTreeMap<Var, Value> = BTreeMap::new();
    enumerate(f, inst, &adom, domain, &free, 0, &mut env, &mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    f: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    domain: &[Value],
    free: &[Var],
    k: usize,
    env: &mut BTreeMap<Var, Value>,
    out: &mut BTreeSet<Assignment>,
) {
    if k == free.len() {
        if eval(f, inst, adom, env).unwrap_or(false) {
            out.insert(env.clone());
        }
        return;
    }
    for &v in domain {
        env.insert(free[k].clone(), v);
        enumerate(f, inst, adom, domain, free, k + 1, env, out);
    }
    env.remove(&free[k]);
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
            let mut vals = Vec::with_capacity(terms.len());
            for t in terms {
                vals.push(term_value(t, env)?);
            }
            Ok(inst.contains(*rel, &dcds_reldata::Tuple::from(vals)))
        }
        Formula::Eq(t1, t2) => Ok(term_value(t1, env)? == term_value(t2, env)?),
        Formula::Not(g) => Ok(!eval(g, inst, adom, env)?),
        Formula::And(g, h) => Ok(eval(g, inst, adom, env)? && eval(h, inst, adom, env)?),
        Formula::Or(g, h) => Ok(eval(g, inst, adom, env)? || eval(h, inst, adom, env)?),
        Formula::Implies(g, h) => Ok(!eval(g, inst, adom, env)? || eval(h, inst, adom, env)?),
        Formula::Exists(_, _) => eval_exists_block(f, inst, adom, env),
        Formula::Forall(_, _) => eval_forall_block(f, inst, adom, env),
    }
}

/// Evaluate a maximal `∃x₁...∃xₖ. body` block. When the body is a
/// conjunction of atoms (and other conjuncts), a witnessing assignment
/// must make every conjunct atom true, so it suffices to join the atoms'
/// *tuples* — binding block variables guard by guard — instead of
/// enumerating `|adom|^k` assignments. Block variables no guard atom
/// mentions still range over the active domain. This is the guided
/// evaluation that makes the paper's guard-shaped constraints
/// (`∀~x. R(~x) → ...`, `∃~x. R(~x) ∧ ...`) tractable; it subsumes the
/// earlier single-covering-atom special case, which could not handle
/// multi-atom guards like `E(X,V) ∧ E(Y,V) ∧ E(Z,V)`.
fn eval_exists_block(
    f: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
) -> Result<bool, QueryError> {
    let mut block: Vec<&Var> = Vec::new();
    let mut body = f;
    while let Formula::Exists(v, g) = body {
        block.push(v);
        body = g;
    }
    if !guidance_disabled() {
        let guards = guard_chain(body, &block, collect_conjunct_atoms);
        if !guards.is_empty() {
            return guided(inst, adom, env, &block, &guards, body, true);
        }
    }
    enumerate_block(inst, adom, env, &block, body, true)
}

/// Evaluate a maximal `∀x₁...∀xₖ. body` block; when the body is
/// `guard → ψ`, only assignments satisfying every conjunct atom of the
/// guard can falsify it, so the same atom join drives the search for a
/// counterexample.
fn eval_forall_block(
    f: &Formula,
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
) -> Result<bool, QueryError> {
    let mut block: Vec<&Var> = Vec::new();
    let mut body = f;
    while let Formula::Forall(v, g) = body {
        block.push(v);
        body = g;
    }
    if !guidance_disabled() {
        if let Formula::Implies(lhs, _) = body {
            let guards = guard_chain(lhs, &block, collect_conjunct_atoms);
            if !guards.is_empty() {
                return guided(inst, adom, env, &block, &guards, body, false);
            }
        }
    }
    enumerate_block(inst, adom, env, &block, body, false)
}

/// Greedily select a join sequence from the conjunct atoms produced by
/// `atoms_of`: each picked atom must bind at least one block variable no
/// earlier pick binds (most new variables first, ties broken by conjunct
/// order). Selection stops when no atom adds coverage; variables left
/// uncovered fall back to active-domain enumeration inside [`guided`].
/// Returns an empty vector when no atom binds any block variable.
fn guard_chain<'a>(
    body: &'a Formula,
    block: &[&Var],
    atoms_of: impl Fn(&'a Formula) -> Vec<&'a Formula>,
) -> Vec<&'a Formula> {
    let atoms = atoms_of(body);
    fn block_vars_of<'a>(a: &'a Formula, block: &[&Var]) -> Vec<&'a Var> {
        let Formula::Atom(_, terms) = a else {
            return Vec::new();
        };
        let mut vs: Vec<&Var> = Vec::new();
        for t in terms {
            if let QTerm::Var(v) = t {
                if block.contains(&v) && !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    }
    let mut chain: Vec<&Formula> = Vec::new();
    let mut covered: Vec<&Var> = Vec::new();
    loop {
        let mut best: Option<(usize, usize)> = None; // (new vars, atom index)
        for (i, a) in atoms.iter().enumerate() {
            if chain.iter().any(|c| std::ptr::eq(*c, *a)) {
                continue;
            }
            let fresh = block_vars_of(a, block)
                .iter()
                .filter(|v| !covered.contains(*v))
                .count();
            if fresh > 0 && best.is_none_or(|(n, _)| fresh > n) {
                best = Some((fresh, i));
            }
        }
        let Some((_, i)) = best else { break };
        for v in block_vars_of(atoms[i], block) {
            if !covered.contains(&v) {
                covered.push(v);
            }
        }
        chain.push(atoms[i]);
        if covered.len() == block.len() {
            break;
        }
    }
    chain
}

/// Top-level conjunct atoms of a formula.
fn collect_conjunct_atoms(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::And(g, h) => {
            let mut out = collect_conjunct_atoms(g);
            out.extend(collect_conjunct_atoms(h));
            out
        }
        Formula::Atom(_, _) => vec![f],
        _ => Vec::new(),
    }
}

/// Guided evaluation: join the guard atoms' tuples to bind the block,
/// enumerating any block variables the guards leave uncovered over the
/// active domain. `existential`: true for ∃-blocks (return true on a
/// witnessing assignment), false for ∀-blocks (return false on a
/// falsifying one). The verdict is a pure boolean, so join order cannot
/// change the result — only how fast it is reached.
fn guided(
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
    block: &[&Var],
    guards: &[&Formula],
    body: &Formula,
    existential: bool,
) -> Result<bool, QueryError> {
    // The block's quantifiers shadow any outer bindings of the same
    // names: strip them for the duration of the join, so an env entry for
    // a block variable always means "bound by an earlier guard".
    let saved: Vec<(Var, Option<Value>)> = block
        .iter()
        .map(|v| ((*v).clone(), env.remove(*v)))
        .collect();
    let out = guided_join(inst, adom, env, block, guards, body, existential);
    for (v, old) in saved {
        restore(env, &v, old);
    }
    out
}

/// The recursive join behind [`guided`]; see there. Expects block
/// variables in `env` to be exactly those bound by earlier guards.
fn guided_join(
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
    block: &[&Var],
    guards: &[&Formula],
    body: &Formula,
    existential: bool,
) -> Result<bool, QueryError> {
    let Some((guard, rest_guards)) = guards.split_first() else {
        // Every guard consumed: enumerate whatever block variables the
        // chain left unbound, then evaluate the body.
        let uncovered: Vec<&Var> = block
            .iter()
            .copied()
            .filter(|v| !env.contains_key(*v))
            .collect();
        return enumerate_block(inst, adom, env, &uncovered, body, existential);
    };
    let Formula::Atom(rel, terms) = guard else {
        unreachable!("guard_chain returns atoms");
    };
    let mut decided = None;
    'tuples: for tuple in inst.tuples(*rel) {
        // Unify the atom against the tuple (respecting already-bound vars
        // from outer scopes, earlier guards, and earlier positions).
        let mut local: BTreeMap<Var, Value> = BTreeMap::new();
        for (t, &val) in terms.iter().zip(tuple.values()) {
            match t {
                QTerm::Const(c) => {
                    if *c != val {
                        continue 'tuples;
                    }
                }
                QTerm::Var(v) => {
                    match local.get(v).copied().or_else(|| env.get(v).copied()) {
                        Some(b) if b != val => continue 'tuples,
                        Some(_) => {}
                        None => {
                            if block.contains(&v) {
                                local.insert(v.clone(), val);
                            } else {
                                // A free variable of the atom that the
                                // caller left unbound: error like the
                                // naive path would.
                                return Err(QueryError::UnboundVariable(v.name().to_owned()));
                            }
                        }
                    }
                }
            }
        }
        for (v, val) in &local {
            env.insert(v.clone(), *val);
        }
        let verdict = guided_join(inst, adom, env, block, rest_guards, body, existential)?;
        // Undo this tuple's bindings so the next tuple unifies freshly.
        for v in local.keys() {
            env.remove(v);
        }
        if verdict == existential {
            decided = Some(existential);
            break;
        }
    }
    Ok(decided.unwrap_or(!existential))
}

/// Fallback: plain enumeration of the block over the active domain.
fn enumerate_block(
    inst: &Instance,
    adom: &BTreeSet<Value>,
    env: &mut BTreeMap<Var, Value>,
    block: &[&Var],
    body: &Formula,
    existential: bool,
) -> Result<bool, QueryError> {
    fn rec(
        inst: &Instance,
        adom: &BTreeSet<Value>,
        env: &mut BTreeMap<Var, Value>,
        block: &[&Var],
        body: &Formula,
        existential: bool,
    ) -> Result<bool, QueryError> {
        let Some((first, rest)) = block.split_first() else {
            return eval(body, inst, adom, env);
        };
        let v: &Var = first;
        let saved = env.get(v).copied();
        let mut decided = None;
        for &d in adom.iter() {
            env.insert(v.clone(), d);
            let verdict = rec(inst, adom, env, rest, body, existential)?;
            if verdict == existential {
                decided = Some(existential);
                break;
            }
        }
        restore(env, v, saved);
        Ok(decided.unwrap_or(!existential))
    }
    rec(inst, adom, env, block, body, existential)
}

fn restore(env: &mut BTreeMap<Var, Value>, v: &Var, saved: Option<Value>) {
    match saved {
        Some(old) => {
            env.insert(v.clone(), old);
        }
        None => {
            env.remove(v);
        }
    }
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
    fn guided_blocks_agree_with_enumeration() {
        // ∀-block with a covering guard atom: the guided path must agree
        // with plain enumeration on satisfied and violated instances.
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
        // ∃-block guided by an atom with a constant: ∃Y. Q(a, Y) ∧ Y = b.
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
    fn guided_block_respects_outer_bindings() {
        // X bound by an outer quantifier; the inner guided block's guard
        // mentions X: unification must respect the outer binding.
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

//! Equality constraints and FO integrity constraints.
//!
//! The data layer of a DCDS carries a finite set of *equality constraints*
//! (Section 2.1): each has the form
//!
//! ```text
//!     Q_i  ->  /\_{j} z_ij = y_ij
//! ```
//!
//! where `Q_i` is a domain-independent FO query with free variables `~x`, and
//! each `z_ij`, `y_ij` is a variable of `~x` or a constant of `ADOM(I_0)`.
//! An instance satisfies the constraint when every answer θ of `Q_i`
//! satisfies all the equalities. Keys (the `right`/`succ` tricks of Theorems
//! 4.1 and 6.2) and the Section-6 encoding of arbitrary FO integrity
//! constraints are expressed this way.
//!
//! # Checking
//!
//! Every successor the engines keep must satisfy every constraint, so each
//! constraint is compiled once, when it is built, into the
//! [`CompiledPlan`] of its *violation*: `¬sentence` for an FO sentence,
//! `∃x̄. Q ∧ ¬⋀ z_j = y_j` for an equality constraint. The instance
//! satisfies the constraint iff that plan has no row, and the join stops at
//! the first row it finds. For the guard-shaped sentences `∀x̄. G → ψ`
//! the violation is `∃x̄. G ∧ ¬ψ`: the guard's atoms are the join and
//! `¬ψ` a filter on its rows; any other shape compiles the same way, with
//! sub-plans for quantifiers and ADOM steps for variables no atom binds
//! (see [`crate::plan`]).
//!
//! **Delta check.** When the violation plan has no ADOM step and no filter
//! that reads a relation, it is also compiled delta-first ([`DeltaPlan`])
//! and [`Constraint::satisfied_with_delta`] decides `base ∪ Δ` for a base
//! that satisfies the constraint: each atom is matched against each `Δ`
//! fact, and the rest of the join runs over `base ∪ Δ` without building
//! it. This is sound because the filters' verdict on a row depends on the
//! row alone: every row of the base is a row of `base ∪ Δ`, so a row of
//! `base ∪ Δ` that the base lacks matches some atom to a `Δ` fact. The
//! det abstraction screens each equality commitment this way: it checks
//! the part of `DO(I, ασ)` without new calls once and each commitment's
//! few call-bearing facts as `Δ`. Any other constraint has no delta check
//! ([`Constraint::has_delta_check`]) and is checked in full on the
//! materialised instance.
//!
//! Debug builds cross-check every delta verdict against the full check of
//! the union. The full checks are held to the definition
//! ([`crate::eval::equality_satisfied`], [`crate::eval::fo_satisfied`]) by
//! differential tests on generated formulas and on every candidate
//! successor of the engines' walks over a few systems.

use crate::ast::{Assignment, Formula, QTerm, Var};
use crate::plan::{CompiledPlan, DeltaPlan, EvalCtx};
use crate::ucq::collect_conjuncts;
use crate::QueryError;
use dcds_reldata::{Instance, RelId, Schema};
use std::collections::BTreeSet;

/// An equality constraint `Q -> /\ z_j = y_j`.
#[derive(Debug, Clone)]
pub struct EqualityConstraint {
    query: Formula,
    equalities: Vec<(QTerm, QTerm)>,
    check: Check,
}

impl PartialEq for EqualityConstraint {
    fn eq(&self, other: &Self) -> bool {
        // The check is a function of the formulas.
        self.query == other.query && self.equalities == other.equalities
    }
}

impl Eq for EqualityConstraint {}

impl EqualityConstraint {
    /// Build a constraint, checking the equality terms only use free
    /// variables of the premise (or constants).
    pub fn new(query: Formula, equalities: Vec<(QTerm, QTerm)>) -> Result<Self, QueryError> {
        let free = query.free_vars();
        for (t1, t2) in &equalities {
            for t in [t1, t2] {
                if let QTerm::Var(v) = t {
                    if !free.contains(v) {
                        return Err(QueryError::UnboundVariable(v.name().to_owned()));
                    }
                }
            }
        }
        Ok(Self::build(query, equalities))
    }

    /// A *key constraint* on relation `rel`: the positions in `key` determine
    /// the rest. E.g. the paper's "second component of `right` is a key"
    /// (proof of Theorem 4.1) is `key = [1]` over `right/2`.
    pub fn key(schema: &Schema, rel: RelId, key: &[usize]) -> Self {
        let arity = schema.arity(rel);
        let xs: Vec<QTerm> = (0..arity).map(|i| QTerm::var(&format!("X{i}"))).collect();
        let ys: Vec<QTerm> = (0..arity)
            .map(|i| {
                if key.contains(&i) {
                    xs[i].clone()
                } else {
                    QTerm::var(&format!("Y{i}"))
                }
            })
            .collect();
        let query = Formula::Atom(rel, xs.clone()).and(Formula::Atom(rel, ys.clone()));
        let equalities = (0..arity)
            .filter(|i| !key.contains(i))
            .map(|i| (xs[i].clone(), ys[i].clone()))
            .collect();
        Self::build(query, equalities)
    }

    fn build(query: Formula, equalities: Vec<(QTerm, QTerm)>) -> Self {
        // ∃x̄. Q ∧ ¬⋀ z_j = y_j over the premise's free variables.
        let holds = Formula::conj(
            equalities
                .iter()
                .map(|(t1, t2)| Formula::Eq(t1.clone(), t2.clone())),
        );
        let violation = query
            .free_vars()
            .into_iter()
            .rev()
            .fold(query.clone().and(holds.not()), |f, v| {
                Formula::Exists(v, Box::new(f))
            });
        EqualityConstraint {
            query,
            equalities,
            check: Check::new(&violation),
        }
    }

    /// The premise query; its free variables scope the equalities.
    pub fn query(&self) -> &Formula {
        &self.query
    }

    /// Conjunction of required equalities over the query's free variables
    /// and constants.
    pub fn equalities(&self) -> &[(QTerm, QTerm)] {
        &self.equalities
    }

    /// Does the instance satisfy the constraint? For each answer θ of the
    /// premise, every equality must hold under θ.
    pub fn satisfied(&self, inst: &Instance) -> bool {
        self.check.satisfied(inst)
    }
}

impl Constraint for EqualityConstraint {
    fn satisfied(&self, inst: &Instance) -> bool {
        EqualityConstraint::satisfied(self, inst)
    }

    fn has_delta_check(&self) -> bool {
        self.check.delta.is_some()
    }

    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool> {
        self.check
            .satisfied_with_delta(base, delta, |i| self.satisfied(i))
    }
}

/// An arbitrary FO sentence used as an integrity constraint under the
/// active-domain semantics (Section 6, "Support for arbitrary integrity
/// constraints"). The paper shows these reduce to equality constraints; we
/// also support them natively, and `dcds-reductions::fo_constraints`
/// implements the paper's reduction for cross-validation.
#[derive(Debug, Clone)]
pub struct FoConstraint {
    sentence: Formula,
    check: Check,
}

impl PartialEq for FoConstraint {
    fn eq(&self, other: &Self) -> bool {
        self.sentence == other.sentence
    }
}

impl Eq for FoConstraint {}

impl FoConstraint {
    /// Build from a closed formula.
    pub fn new(sentence: Formula) -> Result<Self, QueryError> {
        if let Some(v) = sentence.free_vars().into_iter().next() {
            return Err(QueryError::UnboundVariable(v.name().to_owned()));
        }
        let check = Check::new(&sentence.clone().not());
        Ok(FoConstraint { sentence, check })
    }

    /// The closed formula that must hold in every state.
    pub fn sentence(&self) -> &Formula {
        &self.sentence
    }

    /// Does the instance satisfy the sentence?
    pub fn satisfied(&self, inst: &Instance) -> bool {
        self.check.satisfied(inst)
    }
}

impl Constraint for FoConstraint {
    fn satisfied(&self, inst: &Instance) -> bool {
        FoConstraint::satisfied(self, inst)
    }

    fn has_delta_check(&self) -> bool {
        self.check.delta.is_some()
    }

    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool> {
        self.check
            .satisfied_with_delta(base, delta, |i| self.satisfied(i))
    }
}

/// What the engines ask of a data-layer constraint, of either kind.
pub trait Constraint {
    /// Does the instance satisfy the constraint?
    fn satisfied(&self, inst: &Instance) -> bool;

    /// Whether the constraint has a delta check (see the module docs).
    fn has_delta_check(&self) -> bool;

    /// For a `base` that satisfies the constraint: does `base ∪ delta`?
    /// Decided on the rows that use a `delta` fact, without building the
    /// union. `None` when the constraint has no delta check.
    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool>;
}

/// A constraint's violation compiled: the full plan and, where there is
/// one, the delta-first plan (see the module docs).
#[derive(Debug, Clone)]
struct Check {
    violation: CompiledPlan,
    delta: Option<DeltaPlan>,
}

impl Check {
    fn new(violation: &Formula) -> Check {
        Check {
            violation: CompiledPlan::compile(violation, &BTreeSet::new()),
            delta: DeltaPlan::compile(violation),
        }
    }

    /// No violating row.
    fn satisfied(&self, inst: &Instance) -> bool {
        !self
            .violation
            .holds(&EvalCtx::scan(inst), &Assignment::new())
    }

    /// The delta check — cross-checked in debug builds against the full
    /// check of the materialised union — and `None` without one.
    fn satisfied_with_delta(
        &self,
        base: &Instance,
        delta: &Instance,
        full: impl Fn(&Instance) -> bool,
    ) -> Option<bool> {
        let sat = !self.delta.as_ref()?.holds(base, delta);
        debug_assert!(full(base), "the delta check needs a base that satisfies");
        debug_assert_eq!(
            sat,
            full(&base.union(delta)),
            "the delta check disagrees with the full check"
        );
        Some(sat)
    }
}

/// A sentence read as `∀x̄. G → ψ`: the `∀` variables and the `→` premises
/// that are conjunctions of atoms, equalities and `true` are peeled off the
/// front, and whatever remains is the consequent `ψ`. The reading is a
/// plain syntactic walk, used by symbolic pruning in `dcds-symbolic`.
#[derive(Debug, Clone)]
pub struct GuardForm<'f> {
    /// The `∀` variables, outermost first (a shadowing rebind repeats).
    pub bound: Vec<Var>,
    /// Guard atoms, from every peeled premise.
    pub atoms: Vec<(RelId, Vec<QTerm>)>,
    /// Guard equalities, from every peeled premise.
    pub equalities: Vec<(QTerm, QTerm)>,
    /// The consequent `ψ`.
    pub consequent: &'f Formula,
    /// The first `∀` variable that rebinds an enclosing one. Then the
    /// flattened guard conflates two scopes: it is implied by the sentence
    /// but not equivalent to it.
    pub shadowed: Option<Var>,
}

impl<'f> GuardForm<'f> {
    /// Peel `∀`s and conjunctive `→` premises off `sentence`.
    pub fn of(sentence: &'f Formula) -> Self {
        let mut form = GuardForm {
            bound: Vec::new(),
            atoms: Vec::new(),
            equalities: Vec::new(),
            consequent: sentence,
            shadowed: None,
        };
        loop {
            match form.consequent {
                Formula::Forall(v, body) => {
                    if form.shadowed.is_none() && form.bound.contains(v) {
                        form.shadowed = Some(v.clone());
                    }
                    form.bound.push(v.clone());
                    form.consequent = body;
                }
                Formula::Implies(premise, rest) => {
                    let (mut atoms, mut equalities) = (Vec::new(), Vec::new());
                    if collect_conjuncts(premise, &mut atoms, &mut equalities).is_none() {
                        break;
                    }
                    form.atoms.extend(atoms);
                    form.equalities.extend(equalities);
                    form.consequent = rest;
                }
                _ => break,
            }
        }
        form
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use dcds_reldata::{ConstantPool, Schema, Tuple};

    #[test]
    fn example_4_2_constraint() {
        // E = { P(x) ∧ Q(y,z) → x = y } from Example 4.2.
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let premise = parse_formula("P(X) & Q(Y, Z)", &mut schema, &mut pool).unwrap();
        let ec =
            EqualityConstraint::new(premise, vec![(QTerm::var("X"), QTerm::var("Y"))]).unwrap();
        // {P(a), Q(a,a)} satisfies; {P(a), Q(b,a)} does not.
        let ok = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([a, a]))]);
        assert!(ec.satisfied(&ok));
        let bad = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([b, a]))]);
        assert!(!ec.satisfied(&bad));
    }

    #[test]
    fn vacuous_premise_is_satisfied() {
        let mut schema = Schema::new();
        let _p = schema.add_relation("P", 1).unwrap();
        schema.add_relation("Q", 2).unwrap();
        let mut pool = ConstantPool::new();
        let premise = parse_formula("P(X) & Q(X, Y)", &mut schema, &mut pool).unwrap();
        let ec =
            EqualityConstraint::new(premise, vec![(QTerm::var("X"), QTerm::var("Y"))]).unwrap();
        assert!(ec.satisfied(&Instance::new()));
    }

    #[test]
    fn equality_terms_must_use_premise_vars() {
        let mut schema = Schema::new();
        schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let premise = parse_formula("P(X)", &mut schema, &mut pool).unwrap();
        assert!(
            EqualityConstraint::new(premise, vec![(QTerm::var("Z"), QTerm::var("X"))]).is_err()
        );
    }

    #[test]
    fn key_constraint_detects_violations() {
        let mut schema = Schema::new();
        let right = schema.add_relation("right", 2).unwrap();
        let mut pool = ConstantPool::new();
        let c0 = pool.intern("0");
        let c1 = pool.intern("1");
        let c2 = pool.intern("2");
        // Second component is a key (as in the Theorem 4.1 reduction).
        let ec = EqualityConstraint::key(&schema, right, &[1]);
        let ok = Instance::from_facts([
            (right, Tuple::from([c0, c1])),
            (right, Tuple::from([c1, c2])),
        ]);
        assert!(ec.satisfied(&ok));
        // Two predecessors for c2: violation.
        let bad = Instance::from_facts([
            (right, Tuple::from([c0, c2])),
            (right, Tuple::from([c1, c2])),
        ]);
        assert!(!ec.satisfied(&bad));
    }

    #[test]
    fn fo_constraint_closed_only() {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let open = parse_formula("P(X)", &mut schema, &mut pool).unwrap();
        assert!(FoConstraint::new(open).is_err());
        let closed = parse_formula("forall X . P(X) -> P(X)", &mut schema, &mut pool).unwrap();
        let ic = FoConstraint::new(closed).unwrap();
        let a = pool.intern("a");
        let inst = Instance::from_facts([(p, Tuple::from([a]))]);
        assert!(ic.satisfied(&inst));
    }
}

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
//! # Denial plans
//!
//! Every successor the engines keep must satisfy every constraint, so each
//! constraint is compiled once, when it is built, into a *denial plan*: a
//! guard `G` (a conjunction of atoms and equalities) and a quantifier-free
//! consequent `ψ`, with the constraint read as `∀x̄. G → ψ`. The guard
//! becomes a [`CompiledPlan`] whose output slots are `ψ`'s variables, `ψ`
//! becomes a slot-resolved predicate (`Instance::contains` for atoms, plus
//! `=`, `¬`, `∧`, `∨`, `→`), and the instance satisfies the constraint iff
//! no guard row falsifies `ψ` — the join stops at the first row that does.
//!
//! * An FO sentence is flattened by [`GuardForm::of`]: nested `∀x̄` and
//!   `→` with conjunctive premises, so `A → ∀y. B → ψ` reads as
//!   `∀y. A ∧ B → ψ`.
//! * An equality constraint contributes one guard per UCQ disjunct of its
//!   premise, with `ψ` the conjunction of its equalities.
//!
//! **Soundness.** Under the active-domain semantics a `∀`-bound variable
//! ranges over `ADOM(I)`. The plan is used only when every such variable
//! (every free variable of the premise, for equality constraints) occurs in
//! a guard atom: a guard row then binds it to a value of some tuple, hence
//! of `ADOM(I)`, and every assignment satisfying `G` is a guard row, so
//! quantifying over `ADOM(I)` and joining the guard's tuples find the same
//! counterexamples — on the empty instance both find none. Flattening must
//! not rebind a variable (`∀x. A → ∀x. B` would conflate two scopes), and
//! `ψ` must be quantifier-free, since it is evaluated on the row alone.
//!
//! **Delta check.** When no consequent reads a relation (`ψ` is built
//! from equalities, constants and connectives only), the guards are also
//! compiled delta-first ([`DeltaPlan`]) and [`Constraint::satisfied_with_delta`]
//! decides `base ∪ Δ` for a base that satisfies the constraint: each guard
//! atom is matched against each `Δ` fact, and the rest of the guard joins
//! over `base ∪ Δ` without building it. This is sound because `ψ`'s verdict
//! on a row depends on the row alone: every guard row of the base is a
//! guard row of `base ∪ Δ` with the same verdict, so a row that falsifies
//! `ψ` on `base ∪ Δ` but not on the base matches some atom to a `Δ` fact.
//! The det abstraction screens each equality commitment this way: it
//! checks the part of `DO(I, ασ)` without new calls once and each
//! commitment's few call-bearing facts as `Δ`. A constraint whose
//! consequent reads a relation, or that falls back to the reference
//! evaluator, has no delta check ([`Constraint::has_delta_check`]) and is
//! checked in full on the materialised instance.
//!
//! **Fallback.** Every other constraint — a variable in no guard atom, a
//! quantifier in the consequent, shadowing, a premise outside the UCQs —
//! is checked by the guided reference evaluator ([`crate::eval`]) on every
//! call, and [`FoConstraint::fallback`] / [`EqualityConstraint::fallback`]
//! say why. Debug builds cross-check every compiled check against that
//! reference, and every delta verdict against the full check of the
//! union.

use crate::ast::{Assignment, Formula, QTerm, Var};
use crate::eval::{answers, holds_closed};
use crate::plan::{CompiledPlan, DeltaPlan, EvalCtx, PlanError};
use crate::ucq::{collect_conjuncts, ConjunctiveQuery, Ucq};
use crate::QueryError;
use dcds_reldata::{Instance, RelId, Schema, Tuple, Value};
use std::collections::BTreeSet;

/// An equality constraint `Q -> /\ z_j = y_j`.
#[derive(Debug, Clone)]
pub struct EqualityConstraint {
    query: Formula,
    equalities: Vec<(QTerm, QTerm)>,
    path: Result<DenialPlan, FallbackReason>,
}

impl PartialEq for EqualityConstraint {
    fn eq(&self, other: &Self) -> bool {
        // The check path is a function of the formulas.
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
        let path = match Ucq::from_formula(&query) {
            Some(ucq) => {
                let consequent = Formula::conj(
                    equalities
                        .iter()
                        .map(|(t1, t2)| Formula::Eq(t1.clone(), t2.clone())),
                );
                DenialPlan::compile(ucq.disjuncts, &consequent)
            }
            None => Err(FallbackReason::NonUcqPremise),
        };
        EqualityConstraint {
            query,
            equalities,
            path,
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

    /// Why the constraint is checked by the reference evaluator, or `None`
    /// when it runs as a compiled denial plan.
    pub fn fallback(&self) -> Option<&FallbackReason> {
        self.path.as_ref().err()
    }

    /// Does the instance satisfy the constraint? For each answer θ of the
    /// premise, every equality must hold under θ.
    pub fn satisfied(&self, inst: &Instance) -> bool {
        check(&self.path, inst, || self.reference_satisfied(inst))
    }

    fn reference_satisfied(&self, inst: &Instance) -> bool {
        answers(&self.query, inst).iter().all(|theta| {
            self.equalities
                .iter()
                .all(|(t1, t2)| resolve(t1, theta) == resolve(t2, theta))
        })
    }
}

impl Constraint for EqualityConstraint {
    fn satisfied(&self, inst: &Instance) -> bool {
        EqualityConstraint::satisfied(self, inst)
    }

    fn has_delta_check(&self) -> bool {
        self.path.as_ref().is_ok_and(|p| p.delta.is_some())
    }

    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool> {
        check_delta(&self.path, base, delta, |i| self.satisfied(i))
    }
}

fn resolve(t: &QTerm, theta: &Assignment) -> Option<Value> {
    match t {
        QTerm::Const(c) => Some(*c),
        QTerm::Var(v) => theta.get(v).copied(),
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
    path: Result<DenialPlan, FallbackReason>,
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
        let path = Self::denial(&sentence);
        Ok(FoConstraint { sentence, path })
    }

    /// The fragment gate of the module docs, in order: no shadowing, every
    /// `∀` variable in a guard atom, a quantifier-free consequent (checked
    /// while compiling it).
    fn denial(sentence: &Formula) -> Result<DenialPlan, FallbackReason> {
        let form = GuardForm::of(sentence);
        if let Some(v) = form.shadowed {
            return Err(FallbackReason::Shadowed(v));
        }
        let guard = ConjunctiveQuery {
            head: Vec::new(),
            atoms: form.atoms,
            equalities: form.equalities,
        };
        let guarded = guard.atom_vars();
        if let Some(v) = form.bound.into_iter().find(|v| !guarded.contains(v)) {
            return Err(FallbackReason::UnguardedVar(v));
        }
        DenialPlan::compile(vec![guard], form.consequent)
    }

    /// The closed formula that must hold in every state.
    pub fn sentence(&self) -> &Formula {
        &self.sentence
    }

    /// Why the sentence is checked by the reference evaluator, or `None`
    /// when it runs as a compiled denial plan.
    pub fn fallback(&self) -> Option<&FallbackReason> {
        self.path.as_ref().err()
    }

    /// Does the instance satisfy the sentence?
    pub fn satisfied(&self, inst: &Instance) -> bool {
        check(&self.path, inst, || self.reference_satisfied(inst))
    }

    fn reference_satisfied(&self, inst: &Instance) -> bool {
        holds_closed(&self.sentence, inst).unwrap_or(false)
    }
}

impl Constraint for FoConstraint {
    fn satisfied(&self, inst: &Instance) -> bool {
        FoConstraint::satisfied(self, inst)
    }

    fn has_delta_check(&self) -> bool {
        self.path.as_ref().is_ok_and(|p| p.delta.is_some())
    }

    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool> {
        check_delta(&self.path, base, delta, |i| self.satisfied(i))
    }
}

/// What the engines ask of a data-layer constraint, of either kind.
pub trait Constraint {
    /// Does the instance satisfy the constraint?
    fn satisfied(&self, inst: &Instance) -> bool;

    /// Whether the constraint has a delta check (see the module docs).
    fn has_delta_check(&self) -> bool;

    /// For a `base` that satisfies the constraint: does `base ∪ delta`?
    /// Decided on the guard rows that use a `delta` fact, without building
    /// the union. `None` when the constraint has no delta check.
    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool>;
}

/// Why a constraint is outside the denial-plan fragment (see the module
/// docs) and is checked by the reference evaluator instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// A quantified variable (or a premise variable of an equality
    /// constraint) occurs in no guard atom.
    UnguardedVar(Var),
    /// The consequent contains a quantifier.
    QuantifiedConsequent,
    /// A `∀` rebinds a variable of an enclosing `∀`.
    Shadowed(Var),
    /// The equality constraint's premise is not a union of conjunctive
    /// queries.
    NonUcqPremise,
}

impl FallbackReason {
    /// A stable short name, for machine-readable reports.
    pub fn kind(&self) -> &'static str {
        match self {
            FallbackReason::UnguardedVar(_) => "unguarded-variable",
            FallbackReason::QuantifiedConsequent => "quantified-consequent",
            FallbackReason::Shadowed(_) => "shadowing",
            FallbackReason::NonUcqPremise => "non-ucq-premise",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::UnguardedVar(v) => write!(f, "variable {v} occurs in no guard atom"),
            FallbackReason::QuantifiedConsequent => write!(f, "the consequent has a quantifier"),
            FallbackReason::Shadowed(v) => write!(f, "a nested quantifier rebinds {v}"),
            FallbackReason::NonUcqPremise => {
                write!(f, "the premise is not a union of conjunctive queries")
            }
        }
    }
}

/// A sentence read as `∀x̄. G → ψ`: the `∀` variables and the `→` premises
/// that are conjunctions of atoms, equalities and `true` are peeled off the
/// front, and whatever remains is the consequent `ψ`. The reading is a
/// plain syntactic walk; each consumer applies its own gate (the denial
/// plans above, symbolic pruning in `dcds-symbolic`).
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

/// Run the denial plan when there is one — cross-checked against the
/// reference in debug builds — and the reference otherwise.
fn check(
    path: &Result<DenialPlan, FallbackReason>,
    inst: &Instance,
    reference: impl Fn() -> bool,
) -> bool {
    match path {
        Ok(plan) => {
            let sat = plan.satisfied(inst);
            debug_assert_eq!(sat, reference(), "denial plan disagrees with the reference");
            sat
        }
        Err(_) => reference(),
    }
}

/// The delta check of a constraint with a denial plan whose consequent
/// reads no relation — cross-checked in debug builds against the full
/// check of the materialised union — and `None` otherwise.
fn check_delta(
    path: &Result<DenialPlan, FallbackReason>,
    base: &Instance,
    delta: &Instance,
    full: impl Fn(&Instance) -> bool,
) -> Option<bool> {
    let sat = path.as_ref().ok()?.satisfied_with_delta(base, delta)?;
    debug_assert!(full(base), "the delta check needs a base that satisfies");
    debug_assert_eq!(
        sat,
        full(&base.union(delta)),
        "the delta check disagrees with the full check"
    );
    Some(sat)
}

/// A compiled `∀x̄. G₁ ∨ ... ∨ Gₖ → ψ`: the guards as one plan whose
/// outputs are `ψ`'s variables, `ψ` resolved against each guard's slots,
/// and, when `ψ` reads no relation, the guards compiled delta-first.
#[derive(Debug, Clone)]
struct DenialPlan {
    guard: CompiledPlan,
    consequents: Vec<Pred>,
    delta: Option<DeltaPlan>,
}

impl DenialPlan {
    fn compile(
        mut guards: Vec<ConjunctiveQuery>,
        consequent: &Formula,
    ) -> Result<Self, FallbackReason> {
        let outputs: Vec<Var> = consequent.free_vars().into_iter().collect();
        for cq in &mut guards {
            cq.head = outputs.clone();
        }
        let ucq = Ucq { disjuncts: guards };
        let guard = CompiledPlan::compile(&ucq, &BTreeSet::new()).map_err(|e| {
            let (PlanError::UnboundHeadVar(v) | PlanError::UnboundEqualityVar(v)) = e;
            FallbackReason::UnguardedVar(Var::new(&v))
        })?;
        let consequents: Vec<Pred> = (0..guard.disjuncts())
            .map(|i| Pred::compile(consequent, &|v| guard.out_slot(i, v)))
            .collect::<Result<_, _>>()?;
        // The guard compiled, so its delta-first copies do too.
        let delta = (!consequents.iter().any(Pred::reads_relation))
            .then(|| DeltaPlan::compile(&ucq).ok())
            .flatten();
        Ok(DenialPlan {
            guard,
            consequents,
            delta,
        })
    }

    /// No guard row falsifies its consequent; stops at the first that does.
    fn satisfied(&self, inst: &Instance) -> bool {
        !self
            .guard
            .any_row(&EvalCtx::scan(inst), &Assignment::new(), |i, regs| {
                !self.consequents[i].holds(inst, regs)
            })
    }

    /// No guard row of `base ∪ delta` that uses a `delta` fact falsifies
    /// its consequent; `None` without a delta check. The consequents read
    /// no relation, so the instance they are handed is never read.
    fn satisfied_with_delta(&self, base: &Instance, delta: &Instance) -> Option<bool> {
        let plan = self.delta.as_ref()?;
        Some(!plan.any_row(base, delta, |i, regs| {
            !self.consequents[i].holds(base, regs)
        }))
    }
}

/// A value source of a compiled consequent.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Const(Value),
    Slot(usize),
}

impl Arg {
    fn value(self, regs: &[Option<Value>]) -> Value {
        match self {
            Arg::Const(c) => c,
            Arg::Slot(s) => regs[s].expect("consequent slot bound by the guard"),
        }
    }
}

/// A quantifier-free consequent over guard slots (`g → h` compiles to
/// `¬g ∨ h`).
#[derive(Debug, Clone)]
enum Pred {
    Const(bool),
    Atom(RelId, Vec<Arg>),
    Eq(Arg, Arg),
    Not(Box<Pred>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

impl Pred {
    fn compile(
        f: &Formula,
        slot_of: &impl Fn(&Var) -> Option<usize>,
    ) -> Result<Pred, FallbackReason> {
        let arg = |t: &QTerm| match t {
            QTerm::Const(c) => Ok(Arg::Const(*c)),
            QTerm::Var(v) => slot_of(v)
                .map(Arg::Slot)
                .ok_or_else(|| FallbackReason::UnguardedVar(v.clone())),
        };
        let sub = |g: &Formula| Pred::compile(g, slot_of).map(Box::new);
        Ok(match f {
            Formula::True => Pred::Const(true),
            Formula::False => Pred::Const(false),
            Formula::Atom(rel, terms) => {
                Pred::Atom(*rel, terms.iter().map(arg).collect::<Result<_, _>>()?)
            }
            Formula::Eq(t1, t2) => Pred::Eq(arg(t1)?, arg(t2)?),
            Formula::Not(g) => Pred::Not(sub(g)?),
            Formula::And(g, h) => Pred::And(sub(g)?, sub(h)?),
            Formula::Or(g, h) => Pred::Or(sub(g)?, sub(h)?),
            Formula::Implies(g, h) => Pred::Or(Box::new(Pred::Not(sub(g)?)), sub(h)?),
            Formula::Exists(..) | Formula::Forall(..) => {
                return Err(FallbackReason::QuantifiedConsequent)
            }
        })
    }

    /// Does the consequent read the instance (an atom)?
    fn reads_relation(&self) -> bool {
        match self {
            Pred::Const(_) | Pred::Eq(..) => false,
            Pred::Atom(..) => true,
            Pred::Not(g) => g.reads_relation(),
            Pred::And(g, h) | Pred::Or(g, h) => g.reads_relation() || h.reads_relation(),
        }
    }

    fn holds(&self, inst: &Instance, regs: &[Option<Value>]) -> bool {
        match self {
            Pred::Const(b) => *b,
            Pred::Atom(rel, args) => {
                let vals: Vec<Value> = args.iter().map(|a| a.value(regs)).collect();
                inst.contains(*rel, &Tuple::from(vals))
            }
            Pred::Eq(a, b) => a.value(regs) == b.value(regs),
            Pred::Not(g) => !g.holds(inst, regs),
            Pred::And(g, h) => g.holds(inst, regs) && h.holds(inst, regs),
            Pred::Or(g, h) => g.holds(inst, regs) || h.holds(inst, regs),
        }
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

//! Conjunctive queries and unions of conjunctive queries.
//!
//! Effect specifications in a DCDS are of the form `q+ ∧ Q- ⇝ E` where `q+`
//! is a UCQ (Section 2.2). This module provides first-class (U)CQs with a
//! conversion to general [`Formula`]s and validation.

use crate::ast::{Formula, QTerm, Var};
use crate::QueryError;
use dcds_reldata::{RelId, Schema};
use std::collections::BTreeSet;

/// A conjunctive query: `head(~x) :- atoms, equalities` where the head
/// variables are the free (distinguished) variables and every other variable
/// is existentially quantified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Distinguished (free) variables.
    pub head: Vec<Var>,
    /// Relational atoms.
    pub atoms: Vec<(RelId, Vec<QTerm>)>,
    /// Equality side-conditions, evaluated after the join.
    pub equalities: Vec<(QTerm, QTerm)>,
}

impl ConjunctiveQuery {
    /// The boolean query `true` (no head, no atoms).
    pub fn truth() -> Self {
        ConjunctiveQuery {
            head: Vec::new(),
            atoms: Vec::new(),
            equalities: Vec::new(),
        }
    }

    /// All variables appearing in the atoms.
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for (_, terms) in &self.atoms {
            for t in terms {
                if let QTerm::Var(v) = t {
                    out.insert(v.clone());
                }
            }
        }
        out
    }

    /// Validate the query: arities match the schema, and every head and
    /// equality variable occurs in some atom (the *range restriction* that
    /// makes CQ evaluation domain-independent).
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        for (rel, terms) in &self.atoms {
            let expected = schema.arity(*rel);
            if terms.len() != expected {
                return Err(QueryError::ArityMismatch {
                    relation: schema.name(*rel).to_owned(),
                    expected,
                    got: terms.len(),
                });
            }
        }
        match self.unrestricted(&BTreeSet::new()) {
            Some((_, v)) => Err(QueryError::UnboundVariable(v.name().to_owned())),
            None => Ok(()),
        }
    }

    /// The first head variable, else the first equality variable, that
    /// occurs in no atom and is not in `bound`, with which of the two it
    /// is (`"head"` or `"equality"`): `None` iff the query is
    /// range-restricted modulo `bound`, so that substituting values for
    /// `bound` and joining the atoms answers it.
    pub fn unrestricted(&self, bound: &BTreeSet<Var>) -> Option<(&'static str, &Var)> {
        let avars = self.atom_vars();
        let free = |v: &&Var| !avars.contains(*v) && !bound.contains(*v);
        let eq_vars = self.equalities.iter().flat_map(|(a, b)| [a, b]);
        let head = self.head.iter().find(free).map(|v| ("head", v));
        head.or_else(|| {
            eq_vars
                .filter_map(QTerm::as_var)
                .find(free)
                .map(|v| ("equality", v))
        })
    }

    /// Convert to a general formula: `∃ (atom_vars \ head). /\atoms /\ eqs`.
    pub fn to_formula(&self) -> Formula {
        let mut body = Formula::conj(
            self.atoms
                .iter()
                .map(|(rel, terms)| Formula::Atom(*rel, terms.clone()))
                .chain(
                    self.equalities
                        .iter()
                        .map(|(t1, t2)| Formula::Eq(t1.clone(), t2.clone())),
                ),
        );
        let head: BTreeSet<&Var> = self.head.iter().collect();
        // Quantify the non-distinguished variables (in reverse deterministic
        // order so the outermost quantifier binds the least variable).
        let existential: Vec<Var> = self
            .atom_vars()
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect();
        for v in existential.into_iter().rev() {
            body = Formula::Exists(v, Box::new(body));
        }
        body
    }
}

/// A union of conjunctive queries. All disjuncts must share the same head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    /// Disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// A UCQ with a single disjunct.
    pub fn single(cq: ConjunctiveQuery) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// The boolean query `true`.
    pub fn truth() -> Self {
        Ucq::single(ConjunctiveQuery::truth())
    }

    /// The shared head (empty for a boolean query).
    pub fn head(&self) -> &[Var] {
        self.disjuncts.first().map_or(&[], |cq| &cq.head)
    }

    /// Validate each disjunct and the head agreement.
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        let head: Option<BTreeSet<&Var>> =
            self.disjuncts.first().map(|cq| cq.head.iter().collect());
        for cq in &self.disjuncts {
            cq.validate(schema)?;
            let this: BTreeSet<&Var> = cq.head.iter().collect();
            if Some(&this) != head.as_ref() {
                return Err(QueryError::UnboundVariable(
                    "UCQ disjuncts disagree on head variables".to_owned(),
                ));
            }
        }
        Ok(())
    }

    /// Convert to a general formula (disjunction of the disjunct formulas).
    pub fn to_formula(&self) -> Formula {
        Formula::disj(self.disjuncts.iter().map(ConjunctiveQuery::to_formula))
    }

    /// Recognise a formula as a UCQ: the shape the model checker's
    /// quantifier-block fusion and symbolic regression require.
    ///
    /// Accepted shape: a top-level disjunction whose disjuncts are
    /// existential blocks over conjunctions of atoms, equalities, and
    /// `true`. Returns `None` outside that fragment, and — conservatively —
    /// whenever the equivalence between the converted query's natural
    /// semantics and the formula's active-domain semantics would be in
    /// doubt:
    ///
    /// * a disjunct whose free variables differ from the whole formula's
    ///   (the active-domain evaluator pads the missing variables over the
    ///   domain; a UCQ head cannot),
    /// * a vacuous or shadowing quantifier (`∃v` with `v` not free in the
    ///   body, or rebinding an outer variable).
    ///
    /// The returned query is *not* guaranteed range-restricted: its plan
    /// ([`crate::plan::CompiledPlan::compile_ucq`]) may need ADOM steps.
    pub fn from_formula(f: &Formula) -> Option<Ucq> {
        let free: BTreeSet<Var> = f.free_vars();
        let mut head: Vec<Var> = free.iter().cloned().collect();
        head.sort();
        let mut flat = Vec::new();
        flatten_or(f, &mut flat);
        let mut disjuncts = Vec::new();
        for g in flat {
            if matches!(g, Formula::False) {
                continue; // a false disjunct contributes no answers
            }
            if g.free_vars() != free {
                return None;
            }
            disjuncts.push(disjunct_to_cq(g, head.clone())?);
        }
        Some(Ucq { disjuncts })
    }
}

/// Flatten nested `Or` into a disjunct list.
fn flatten_or<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
    match f {
        Formula::Or(g, h) => {
            flatten_or(g, out);
            flatten_or(h, out);
        }
        _ => out.push(f),
    }
}

/// Convert one disjunct `∃x₁...∃xₖ. conj` into a CQ with the given head.
fn disjunct_to_cq(mut f: &Formula, head: Vec<Var>) -> Option<ConjunctiveQuery> {
    let mut scope: BTreeSet<&Var> = head.iter().collect();
    while let Formula::Exists(v, body) = f {
        // Reject shadowing (substitution semantics would differ) and
        // vacuous quantification (∃v over an empty active domain is false
        // even when the body is satisfiable, unlike dropping v).
        if !scope.insert(v) || !body.free_vars().contains(v) {
            return None;
        }
        f = body;
    }
    let mut atoms = Vec::new();
    let mut equalities = Vec::new();
    collect_conjuncts(f, &mut atoms, &mut equalities)?;
    Some(ConjunctiveQuery {
        head,
        atoms,
        equalities,
    })
}

/// Collect a conjunction of atoms / equalities / `true` leaves.
pub(crate) fn collect_conjuncts(
    f: &Formula,
    atoms: &mut Vec<(RelId, Vec<QTerm>)>,
    equalities: &mut Vec<(QTerm, QTerm)>,
) -> Option<()> {
    match f {
        Formula::True => Some(()),
        Formula::Atom(rel, terms) => {
            atoms.push((*rel, terms.clone()));
            Some(())
        }
        Formula::Eq(t1, t2) => {
            equalities.push((t1.clone(), t2.clone()));
            Some(())
        }
        Formula::And(g, h) => {
            collect_conjuncts(g, atoms, equalities)?;
            collect_conjuncts(h, atoms, equalities)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::Schema;

    fn schema() -> (Schema, RelId, RelId) {
        let mut s = Schema::new();
        let p = s.add_relation("P", 1).unwrap();
        let q = s.add_relation("Q", 2).unwrap();
        (s, p, q)
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (s, p, q) = schema();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        assert!(cq.validate(&s).is_ok());
    }

    #[test]
    fn validate_rejects_unbound_head() {
        let (s, p, _) = schema();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Z")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        assert!(cq.validate(&s).is_err());
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let (s, p, _) = schema();
        let cq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(p, vec![QTerm::var("X"), QTerm::var("Y")])],
            equalities: vec![],
        };
        assert!(cq.validate(&s).is_err());
    }

    #[test]
    fn to_formula_quantifies_nondistinguished() {
        let (_, p, q) = schema();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        let f = cq.to_formula();
        assert_eq!(f.free_vars(), [Var::new("X")].into_iter().collect());
    }

    #[test]
    fn ucq_head_agreement() {
        let (s, p, q) = schema();
        let cq1 = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        let cq2 = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![(q, vec![QTerm::var("Y"), QTerm::var("Y")])],
            equalities: vec![],
        };
        let bad = Ucq {
            disjuncts: vec![cq1.clone(), cq2],
        };
        assert!(bad.validate(&s).is_err());
        let good = Ucq {
            disjuncts: vec![cq1.clone(), cq1],
        };
        assert!(good.validate(&s).is_ok());
    }

    #[test]
    fn truth_is_closed_and_valid() {
        let (s, _, _) = schema();
        let t = Ucq::truth();
        assert!(t.validate(&s).is_ok());
        assert_eq!(t.to_formula().free_vars().len(), 0);
    }
}

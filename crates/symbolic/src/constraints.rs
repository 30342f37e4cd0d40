//! Pruning clauses against the data layer's integrity constraints.
//!
//! Every state of the concrete transition system — the initial instance
//! and every commitment-filtered successor — satisfies the equality and FO
//! constraints of the data layer. A clause whose every model violates some
//! constraint therefore covers no reachable state and can be dropped from
//! the backward-reachable set without losing soundness.
//!
//! Full constraint reasoning is out of scope; this module recognises the
//! *guarded* shape
//!
//! ```text
//!     ∀ x̄ .  A₁ ∧ ... ∧ Aₖ  →  D₁ ∨ ... ∨ Dₘ        Dⱼ = ⋀ equalities
//! ```
//!
//! which covers both [`EqualityConstraint`](dcds_folang::EqualityConstraint)s
//! (`Q → ⋀ eqs` with a UCQ premise: one guarded constraint per premise
//! disjunct, each with a single consequent disjunct) and the `assert`
//! sentences of spec files whose [`GuardForm`] has an equality-disjunction
//! consequent — e.g. both constraints of `specs/travel_request.dcds`.
//!
//! A clause is pruned when the constraint body embeds into its atoms (a
//! *forced* match: in every model of the clause the body then holds for
//! those witnesses) and every disjunct, added to the clause's congruence
//! closure, yields a conflict.

use crate::clause::Clause;
use dcds_analysis::cc::{Cc, TermId};
use dcds_core::DataLayer;
use dcds_folang::{Formula, GuardForm, QTerm, Ucq, Var};
use dcds_reldata::RelId;
use std::collections::BTreeMap;

/// A constraint in the guarded fragment (see module docs).
#[derive(Debug, Clone)]
pub struct GuardedConstraint {
    /// Conjunctive premise: relational atoms.
    pub body_atoms: Vec<(RelId, Vec<QTerm>)>,
    /// Conjunctive premise: equalities (must be *entailed* by the clause
    /// for the match to be forced).
    pub body_eqs: Vec<(QTerm, QTerm)>,
    /// Consequent: disjunction of equality conjunctions. Empty means the
    /// premise is forbidden outright.
    pub disjuncts: Vec<Vec<(QTerm, QTerm)>>,
}

/// Extract every constraint of the data layer that fits the guarded
/// fragment (the rest are simply not used for pruning).
pub fn guarded_constraints(data: &DataLayer) -> Vec<GuardedConstraint> {
    let mut out = Vec::new();
    for c in &data.constraints {
        out.extend(from_equality_constraint(c.query(), c.equalities()));
    }
    for c in &data.fo_constraints {
        out.extend(from_sentence(c.sentence()));
    }
    out
}

/// `Q → ⋀ eqs` with a UCQ premise `D₁ ∨ ... ∨ Dₖ`: one guarded constraint
/// per premise disjunct, each with the single equality-conjunction
/// consequent — `(⋁ Dᵢ) → eqs` implies every `Dᵢ → eqs`.
fn from_equality_constraint(
    query: &Formula,
    equalities: &[(QTerm, QTerm)],
) -> Vec<GuardedConstraint> {
    let Some(ucq) = Ucq::from_formula(query) else {
        return Vec::new();
    };
    ucq.disjuncts
        .into_iter()
        .map(|cq| GuardedConstraint {
            body_atoms: cq.atoms,
            body_eqs: cq.equalities,
            disjuncts: vec![equalities.to_vec()],
        })
        .collect()
}

/// A sentence in [`GuardForm`] whose consequent is an equality
/// disjunction. A shadowing `∀` is fine here: the flattened guard is then
/// implied by the sentence, which is all pruning needs.
fn from_sentence(f: &Formula) -> Option<GuardedConstraint> {
    let form = GuardForm::of(f);
    let disjuncts = collect_consequent(form.consequent)?;
    // A constraint with no relational guard cannot be matched against
    // clause atoms; skip it.
    if form.atoms.is_empty() && !disjuncts.is_empty() {
        return None;
    }
    Some(GuardedConstraint {
        body_atoms: form.atoms,
        body_eqs: form.equalities,
        disjuncts,
    })
}

/// The consequent: `false`, or a disjunction whose leaves are equalities
/// (or conjunctions of equalities).
fn collect_consequent(f: &Formula) -> Option<Vec<Vec<(QTerm, QTerm)>>> {
    if matches!(f, Formula::False) {
        return Some(Vec::new());
    }
    let mut leaves = Vec::new();
    flatten_or(f, &mut leaves);
    let mut out = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let mut eqs = Vec::new();
        collect_eq_conj(leaf, &mut eqs)?;
        out.push(eqs);
    }
    Some(out)
}

fn flatten_or<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::Or(g, h) => {
            flatten_or(g, out);
            flatten_or(h, out);
        }
        _ => out.push(f),
    }
}

fn collect_eq_conj(f: &Formula, out: &mut Vec<(QTerm, QTerm)>) -> Option<()> {
    match f {
        Formula::Eq(a, b) => {
            out.push((a.clone(), b.clone()));
            Some(())
        }
        Formula::And(g, h) => {
            collect_eq_conj(g, out)?;
            collect_eq_conj(h, out)
        }
        _ => None,
    }
}

/// Is the clause unsatisfiable together with the guarded constraints?
///
/// Searches for a forced embedding of some constraint body into the
/// clause's atoms under which *every* consequent disjunct conflicts with
/// the clause's congruence closure.
pub fn clause_violates(clause: &Clause, guards: &[GuardedConstraint]) -> bool {
    if guards.is_empty() || clause.atoms.is_empty() {
        return false;
    }
    let mut cc = Cc::new();
    let mut atom_ids = Vec::with_capacity(clause.atoms.len());
    for (rel, ts) in &clause.atoms {
        let ids: Vec<TermId> = ts.iter().map(|t| t.intern(&mut cc)).collect();
        atom_ids.push((*rel, ids));
    }
    let eq_ids: Vec<(TermId, TermId)> = clause
        .eqs
        .iter()
        .map(|(a, b)| (a.intern(&mut cc), b.intern(&mut cc)))
        .collect();
    let neq_ids: Vec<(TermId, TermId)> = clause
        .neqs
        .iter()
        .map(|(a, b)| (a.intern(&mut cc), b.intern(&mut cc)))
        .collect();
    for (a, b) in eq_ids {
        cc.merge(a, b);
    }
    for (a, b) in neq_ids {
        cc.add_neq(a, b);
    }
    if cc.conflict().is_some() {
        return true; // already unsatisfiable on its own
    }
    guards.iter().any(|g| embeds_conflicting(g, &atom_ids, &cc))
}

fn embeds_conflicting(g: &GuardedConstraint, atom_ids: &[(RelId, Vec<TermId>)], cc: &Cc) -> bool {
    let mut binding: BTreeMap<Var, TermId> = BTreeMap::new();
    embed(g, atom_ids, cc, 0, &mut binding)
}

fn embed(
    g: &GuardedConstraint,
    atom_ids: &[(RelId, Vec<TermId>)],
    cc: &Cc,
    ix: usize,
    binding: &mut BTreeMap<Var, TermId>,
) -> bool {
    if ix == g.body_atoms.len() {
        return body_eqs_entailed(g, cc, binding) && all_disjuncts_conflict(g, cc, binding);
    }
    let (rel, terms) = &g.body_atoms[ix];
    for (crel, cids) in atom_ids {
        if crel != rel || cids.len() != terms.len() {
            continue;
        }
        let mut added = Vec::new();
        let mut ok = true;
        let mut scratch = cc.clone();
        for (t, &u) in terms.iter().zip(cids.iter()) {
            match t {
                QTerm::Const(c) => {
                    let id = scratch.constant(c.index() as u64);
                    if !scratch.same_class(id, u) {
                        ok = false;
                        break;
                    }
                }
                QTerm::Var(v) => match binding.get(v) {
                    Some(&b) => {
                        if !scratch.same_class(b, u) {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding.insert(v.clone(), u);
                        added.push(v.clone());
                    }
                },
            }
        }
        if ok && embed(g, atom_ids, cc, ix + 1, binding) {
            return true;
        }
        for v in added {
            binding.remove(&v);
        }
    }
    false
}

/// Premise equalities must be *entailed* (not merely consistent) for the
/// embedding to hold in every model of the clause.
fn body_eqs_entailed(g: &GuardedConstraint, cc: &Cc, binding: &BTreeMap<Var, TermId>) -> bool {
    let mut scratch = cc.clone();
    for (a, b) in &g.body_eqs {
        let (Some(x), Some(y)) = (
            qterm_id(a, &mut scratch, binding),
            qterm_id(b, &mut scratch, binding),
        ) else {
            return false;
        };
        if !scratch.same_class(x, y) {
            return false;
        }
    }
    true
}

fn all_disjuncts_conflict(g: &GuardedConstraint, cc: &Cc, binding: &BTreeMap<Var, TermId>) -> bool {
    g.disjuncts.iter().all(|disjunct| {
        let mut scratch = cc.clone();
        for (a, b) in disjunct {
            let (Some(x), Some(y)) = (
                qterm_id(a, &mut scratch, binding),
                qterm_id(b, &mut scratch, binding),
            ) else {
                // An equality over a variable the body did not bind cannot
                // be refuted; the disjunct might hold.
                return false;
            };
            scratch.merge(x, y);
        }
        scratch.conflict().is_some()
    })
}

fn qterm_id(t: &QTerm, cc: &mut Cc, binding: &BTreeMap<Var, TermId>) -> Option<TermId> {
    match t {
        QTerm::Const(c) => Some(cc.constant(c.index() as u64)),
        QTerm::Var(v) => binding.get(v).copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::STerm;
    use dcds_reldata::Value;

    fn rel(ix: usize) -> RelId {
        RelId::from_index(ix)
    }

    fn val(ix: usize) -> Value {
        Value::from_index(ix)
    }

    #[test]
    fn sentence_extraction_handles_nesting() {
        // ∀S. Status(S) → S = a ∨ S = b
        let s = Formula::forall(
            "S",
            Formula::Atom(rel(0), vec![QTerm::var("S")]).implies(
                Formula::eq(QTerm::var("S"), QTerm::Const(val(0)))
                    .or(Formula::eq(QTerm::var("S"), QTerm::Const(val(1)))),
            ),
        );
        let g = from_sentence(&s).unwrap();
        assert_eq!(g.body_atoms.len(), 1);
        assert_eq!(g.disjuncts.len(), 2);

        // V() → (∀S. Status(S) → S = a): nested implication merges bodies.
        let s2 = Formula::Atom(rel(1), vec![]).implies(Formula::forall(
            "S",
            Formula::Atom(rel(0), vec![QTerm::var("S")])
                .implies(Formula::eq(QTerm::var("S"), QTerm::Const(val(0)))),
        ));
        let g2 = from_sentence(&s2).unwrap();
        assert_eq!(g2.body_atoms.len(), 2);
        assert_eq!(g2.disjuncts.len(), 1);
    }

    #[test]
    fn violating_clause_is_pruned() {
        // Constraint: ∀S. Status(S) → S = a.  Clause: ∃S. Status(S) ∧ S ≠ a.
        let g = GuardedConstraint {
            body_atoms: vec![(rel(0), vec![QTerm::var("S")])],
            body_eqs: vec![],
            disjuncts: vec![vec![(QTerm::var("S"), QTerm::Const(val(0)))]],
        };
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0)])],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Const(val(0)))],
            level: 0,
        };
        assert!(clause_violates(&c, std::slice::from_ref(&g)));

        // Clause Status(a) is fine.
        let ok = Clause {
            atoms: vec![(rel(0), vec![STerm::Const(val(0))])],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        assert!(!clause_violates(&ok, &[g]));
    }

    #[test]
    fn every_premise_disjunct_of_an_equality_constraint_prunes() {
        // Constraint: P(X) ∨ Q(X) → X = a. Clause: ∃S. Q(S) ∧ S ≠ a — only
        // the second premise disjunct matches it.
        let premise = Formula::Atom(rel(0), vec![QTerm::var("X")])
            .or(Formula::Atom(rel(1), vec![QTerm::var("X")]));
        let guards = from_equality_constraint(&premise, &[(QTerm::var("X"), QTerm::Const(val(0)))]);
        assert_eq!(guards.len(), 2);
        let c = Clause {
            atoms: vec![(rel(1), vec![STerm::Var(0)])],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Const(val(0)))],
            level: 0,
        };
        assert!(clause_violates(&c, &guards));
        assert!(!clause_violates(&c, &guards[..1]));
    }

    #[test]
    fn unmatched_body_never_prunes() {
        let g = GuardedConstraint {
            body_atoms: vec![(rel(5), vec![QTerm::var("X")])],
            body_eqs: vec![],
            disjuncts: vec![],
        };
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0)])],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        assert!(!clause_violates(&c, &[g]));
    }

    #[test]
    fn forbidden_premise_prunes_on_match() {
        // ∀. V() → false, clause contains V().
        let g = GuardedConstraint {
            body_atoms: vec![(rel(1), vec![])],
            body_eqs: vec![],
            disjuncts: vec![],
        };
        let c = Clause {
            atoms: vec![(rel(1), vec![])],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        assert!(clause_violates(&c, &[g]));
    }
}

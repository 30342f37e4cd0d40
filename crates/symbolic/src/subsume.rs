//! Clause subsumption: the entailment check behind fixpoint detection.
//!
//! `C` subsumes `D` when every state satisfying `D` satisfies `C` — so `D`
//! adds nothing to the clause set and can be dropped. The check looks for
//! a homomorphism from `C`'s variables into `D`'s terms mapping every atom
//! of `C` onto an atom of `D` (positions compared modulo `D`'s congruence
//! closure), every equality of `C` onto an equality `D` entails, and every
//! disequality of `C` onto a disequality `D` entails.
//!
//! Every atom of `C` must land on an atom of `D` over the same relation,
//! so `C` can only subsume `D` when `C`'s relations are a subset of `D`'s.
//! [`ClauseCtx::may_subsume`] tests that on precomputed bitsets before the
//! search clones a closure. A set, not a multiset: several atoms of `C`
//! may map onto one atom of `D`.
//!
//! The search is sound but deliberately incomplete (application arguments
//! must be bound before an application position can be checked); a missed
//! subsumption only keeps a redundant clause around, never changes a
//! verdict.

use crate::clause::{Clause, STerm, SVar};
use dcds_analysis::cc::{Cc, TermId};
use dcds_reldata::RelId;
use std::collections::BTreeMap;

/// A set of relations, as a bitset indexed by [`RelId`].
#[derive(Default)]
struct RelSet(Vec<u64>);

impl RelSet {
    fn insert(&mut self, rel: RelId) {
        let (word, bit) = (rel.index() / 64, rel.index() % 64);
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << bit;
    }

    fn is_subset(&self, other: &RelSet) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, w)| (w & !other.0.get(i).copied().unwrap_or(0)) == 0)
    }
}

/// A kept clause together with its interned congruence closure, built once
/// and cloned per subsumption probe.
pub struct ClauseCtx {
    /// The clause itself.
    pub clause: Clause,
    /// Congruence closure of the clause's equalities and disequalities.
    cc: Cc,
    /// The clause's atoms with positions as closure term ids.
    atom_ids: Vec<(RelId, Vec<TermId>)>,
    /// The relations of the clause's atoms.
    rels: RelSet,
}

impl ClauseCtx {
    /// Intern a normalised clause.
    pub fn new(clause: Clause) -> ClauseCtx {
        let mut cc = Cc::new();
        let mut atom_ids = Vec::with_capacity(clause.atoms.len());
        let mut rels = RelSet::default();
        for (rel, ts) in &clause.atoms {
            let ids: Vec<TermId> = ts.iter().map(|t| t.intern(&mut cc)).collect();
            atom_ids.push((*rel, ids));
            rels.insert(*rel);
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
        ClauseCtx {
            clause,
            cc,
            atom_ids,
            rels,
        }
    }

    /// Can this clause subsume `d` at all? False when one of its relations
    /// has no atom in `d`, which [`subsumes`] would then reject; true
    /// otherwise, so the filter never loses a subsumption.
    pub fn may_subsume(&self, d: &ClauseCtx) -> bool {
        self.rels.is_subset(&d.rels)
    }
}

/// Does `c` subsume the clause interned in `d`?
pub fn subsumes(c: &Clause, d: &ClauseCtx) -> bool {
    let mut cc = d.cc.clone();
    let mut binding: BTreeMap<SVar, TermId> = BTreeMap::new();
    match_atoms(c, d, 0, &mut cc, &mut binding)
}

fn match_atoms(
    c: &Clause,
    d: &ClauseCtx,
    ix: usize,
    cc: &mut Cc,
    binding: &mut BTreeMap<SVar, TermId>,
) -> bool {
    if ix == c.atoms.len() {
        return side_conditions(c, cc, binding);
    }
    let (rel, terms) = &c.atoms[ix];
    for (drel, dids) in &d.atom_ids {
        if drel != rel || dids.len() != terms.len() {
            continue;
        }
        let mut added: Vec<SVar> = Vec::new();
        let mut ok = true;
        for (t, &u) in terms.iter().zip(dids.iter()) {
            if !match_term(t, u, cc, binding, &mut added) {
                ok = false;
                break;
            }
        }
        if ok && match_atoms(c, d, ix + 1, cc, binding) {
            return true;
        }
        for v in added {
            binding.remove(&v);
        }
    }
    false
}

/// Match one term of `C` against a term id of `D` (modulo `D`'s closure).
fn match_term(
    t: &STerm,
    u: TermId,
    cc: &mut Cc,
    binding: &mut BTreeMap<SVar, TermId>,
    added: &mut Vec<SVar>,
) -> bool {
    match t {
        STerm::Var(v) => match binding.get(v) {
            Some(&b) => cc.same_class(b, u),
            None => {
                binding.insert(*v, u);
                added.push(*v);
                true
            }
        },
        _ => match resolve(t, cc, binding) {
            Some(id) => cc.same_class(id, u),
            None => false,
        },
    }
}

/// Build the term id of `t` under the current binding; `None` when an
/// unbound variable blocks it (the probe then fails — incompleteness, not
/// unsoundness).
fn resolve(t: &STerm, cc: &mut Cc, binding: &BTreeMap<SVar, TermId>) -> Option<TermId> {
    match t {
        STerm::Const(c) => Some(cc.constant(c.index() as u64)),
        STerm::Var(v) => binding.get(v).copied(),
        STerm::App(f, args) => {
            let mut ids = Vec::with_capacity(args.len());
            for a in args {
                ids.push(resolve(a, cc, binding)?);
            }
            Some(cc.app(f.index() as u64, &ids))
        }
    }
}

fn side_conditions(c: &Clause, cc: &mut Cc, binding: &BTreeMap<SVar, TermId>) -> bool {
    for (a, b) in &c.eqs {
        let (Some(x), Some(y)) = (resolve(a, cc, binding), resolve(b, cc, binding)) else {
            return false;
        };
        if !cc.same_class(x, y) {
            return false;
        }
    }
    for (a, b) in &c.neqs {
        let (Some(x), Some(y)) = (resolve(a, cc, binding), resolve(b, cc, binding)) else {
            return false;
        };
        if !cc.entails_neq(x, y) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::FuncId;
    use dcds_reldata::Value;

    fn rel(ix: usize) -> RelId {
        RelId::from_index(ix)
    }

    fn val(ix: usize) -> Value {
        Value::from_index(ix)
    }

    fn clause(atoms: Vec<(RelId, Vec<STerm>)>) -> Clause {
        Clause {
            atoms,
            eqs: vec![],
            neqs: vec![],
            level: 0,
        }
    }

    #[test]
    fn more_general_subsumes_more_specific() {
        // ∃x. R(x) subsumes ∃x y. R(x) ∧ S(x, y).
        let c = clause(vec![(rel(0), vec![STerm::Var(0)])]);
        let d = ClauseCtx::new(clause(vec![
            (rel(0), vec![STerm::Var(0)]),
            (rel(1), vec![STerm::Var(0), STerm::Var(1)]),
        ]));
        assert!(subsumes(&c, &d));
        assert!(!subsumes(&d.clause, &ClauseCtx::new(c)));
    }

    #[test]
    fn constants_must_agree_modulo_closure() {
        // ∃x. R(x, a) vs R(y, z) with z = a: subsumed through the closure.
        let c = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Const(val(0))])]);
        let mut dk = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]);
        dk.eqs.push((STerm::Var(1), STerm::Const(val(0))));
        // Note: normalisation would substitute; build the context raw to
        // exercise the closure path.
        let d = ClauseCtx::new(dk);
        assert!(subsumes(&c, &d));

        let d2 = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![STerm::Var(0), STerm::Const(val(1))],
        )]));
        assert!(!subsumes(&c, &d2));
    }

    #[test]
    fn disequalities_need_entailment() {
        // ∃x y. R(x,y) ∧ x ≠ y subsumes R(u,v) ∧ u ≠ v but not plain R(u,v).
        let mut c = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]);
        c.neqs.push((STerm::Var(0), STerm::Var(1)));
        let mut dk = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]);
        dk.neqs.push((STerm::Var(0), STerm::Var(1)));
        assert!(subsumes(&c, &ClauseCtx::new(dk)));
        let plain = ClauseCtx::new(clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]));
        assert!(!subsumes(&c, &plain));
        // Distinct constants entail the disequality.
        let consts = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![STerm::Const(val(0)), STerm::Const(val(1))],
        )]));
        assert!(subsumes(&c, &consts));
    }

    #[test]
    fn applications_match_congruently() {
        let f = FuncId::from_index(0);
        // ∃x. R(x, f(x)) subsumes R(a, f(a)).
        let c = clause(vec![(
            rel(0),
            vec![STerm::Var(0), STerm::App(f, vec![STerm::Var(0)])],
        )]);
        let d = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![
                STerm::Const(val(0)),
                STerm::App(f, vec![STerm::Const(val(0))]),
            ],
        )]));
        assert!(subsumes(&c, &d));
        // But not R(a, f(b)).
        let d2 = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![
                STerm::Const(val(0)),
                STerm::App(f, vec![STerm::Const(val(1))]),
            ],
        )]));
        assert!(!subsumes(&c, &d2));
    }

    #[test]
    fn empty_clause_subsumes_everything() {
        let c = clause(vec![]);
        let d = ClauseCtx::new(clause(vec![(rel(0), vec![STerm::Var(0)])]));
        assert!(subsumes(&c, &d));
    }

    #[test]
    fn relation_prefilter_never_rejects_a_subsumption() {
        let x = || STerm::Var(0);
        let y = || STerm::Var(1);
        let a = || STerm::Const(val(0));
        // Relations 64 and up sit past the first bitset word.
        let clauses = vec![
            clause(vec![]),
            clause(vec![(rel(0), vec![x()])]),
            clause(vec![(rel(0), vec![x()]), (rel(0), vec![y()])]),
            clause(vec![(rel(0), vec![a()])]),
            clause(vec![(rel(0), vec![a()]), (rel(1), vec![a()])]),
            clause(vec![(rel(64), vec![x()])]),
            clause(vec![(rel(64), vec![a()]), (rel(1), vec![a()])]),
            clause(vec![(rel(130), vec![x()]), (rel(0), vec![x()])]),
            clause(vec![
                (rel(130), vec![a()]),
                (rel(64), vec![a()]),
                (rel(0), vec![a()]),
            ]),
        ];
        let ctxs: Vec<ClauseCtx> = clauses.iter().cloned().map(ClauseCtx::new).collect();
        let mut subsumptions = 0;
        for c in &ctxs {
            for d in &ctxs {
                if subsumes(&c.clause, d) {
                    subsumptions += 1;
                    assert!(c.may_subsume(d), "{:?} ⊑ {:?}", c.clause, d.clause);
                }
            }
        }
        assert!(
            subsumptions > ctxs.len(),
            "the pairs must include real work"
        );

        // Two atoms of `C` onto one atom of `D`: R(x) ∧ R(y) subsumes R(a).
        assert!(ctxs[2].may_subsume(&ctxs[3]) && subsumes(&ctxs[2].clause, &ctxs[3]));
        // The empty clause passes the filter against anything, and nothing
        // with an atom passes it against the empty clause.
        assert!(ctxs.iter().all(|d| ctxs[0].may_subsume(d)));
        assert!(ctxs[1..].iter().all(|c| !c.may_subsume(&ctxs[0])));
        // A relation `D` lacks rejects the pair, whichever word it sits in.
        assert!(!ctxs[5].may_subsume(&ctxs[4]));
        assert!(ctxs[5].may_subsume(&ctxs[6]));
        assert!(!ctxs[7].may_subsume(&ctxs[6]));
        assert!(ctxs[7].may_subsume(&ctxs[8]) && subsumes(&ctxs[7].clause, &ctxs[8]));
        assert!(!ctxs[8].may_subsume(&ctxs[7]));
    }
}

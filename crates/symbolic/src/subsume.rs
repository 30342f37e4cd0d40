//! Clause subsumption: the entailment check behind fixpoint detection.
//!
//! `C` subsumes `D` when every state satisfying `D` satisfies `C` — so `D`
//! adds nothing to the clause set and can be dropped. The check looks for
//! a homomorphism from `C`'s variables into `D`'s terms mapping every atom
//! of `C` onto an atom of `D` (positions compared modulo `D`'s congruence
//! closure), every equality of `C` onto an equality `D` entails, and every
//! disequality of `C` onto a disequality `D` entails.
//!
//! # Prefilters
//!
//! [`ClauseCtx::may_subsume`] rejects most pairs with two set tests on
//! data precomputed once per clause, before any search:
//!
//! * **relations** — every atom of `C` must land on an atom of `D` over the
//!   same relation, so `C`'s relations must be a subset of `D`'s (a set,
//!   not a multiset: several atoms of `C` may map onto one atom of `D`);
//! * **constants** — every constant in `C`'s atoms and equalities must be
//!   interned in `D`'s closure. A constant `D` lacks would form a class of
//!   its own that no term of `D` is in, so the atom or equality holding it
//!   could not match. Constants that occur only in `C`'s disequalities are
//!   exempt: a constant `D` lacks differs from every constant of `D`, so
//!   `x ≠ c` is still entailed wherever `x` lands on a constant's class.
//!
//! # Search
//!
//! The search maps `C`'s atoms onto `D`'s atoms in order, binding `C`'s
//! variables to `D`'s terms. An equality or disequality of `C` is checked
//! as soon as the atoms matched so far bind all its variables, and a
//! branch that fails it is abandoned. Bindings only grow along a branch,
//! so that early answer is the one the leaf would give. The leaf checks
//! every side condition again and has the final word; it alone decides
//! those with a variable that no atom position binds.
//!
//! A probe reads `D`'s closure through precomputed class representatives,
//! class constants and the disequalities between classes; the closure
//! itself is not kept. A probe rebuilds it ([`Clause::build_cc`], which
//! interns in the same order and so gives the same term ids) only when `C`
//! names a term `D` lacks: an application that no application of `D` is
//! congruent to, or a constant of a disequality. Interning such a term
//! never merges two classes of `D`, so the precomputed classes stay valid
//! for the terms `D` had.
//!
//! The search is sound but deliberately incomplete (application arguments
//! must be bound before an application position can be checked); a missed
//! subsumption only keeps a redundant clause around, never changes a
//! verdict.

use crate::clause::{Clause, STerm, SVar};
use dcds_analysis::cc::{Cc, CcTerm, TermId};
use dcds_reldata::RelId;

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

/// An equality or disequality of a clause, by its index in `eqs`/`neqs`.
#[derive(Clone, Copy)]
enum Side {
    Eq(usize),
    Neq(usize),
}

/// A clause with everything the subsumption check needs precomputed: the
/// classes of its congruence closure, for when it is the subsumed `D`; its
/// constants and the atom after which each side condition is bound, for
/// when it is the subsuming `C`.
pub struct ClauseCtx {
    /// The clause itself.
    pub clause: Clause,
    /// The clause's atoms with positions as closure term ids.
    atom_ids: Vec<(RelId, Vec<TermId>)>,
    /// The relations of the clause's atoms.
    rels: RelSet,
    /// Class representative of every closure term.
    rep: Vec<TermId>,
    /// The constant of each class, indexed by representative.
    class_const: Vec<Option<u64>>,
    /// The disequalities as representative pairs `(lo, hi)`, sorted.
    neq_classes: Vec<(TermId, TermId)>,
    /// Every constant the closure interns, with its id, sorted by payload.
    consts: Vec<(u64, TermId)>,
    /// Every application term of the closure: id, function, arguments.
    apps: Vec<(TermId, u64, Vec<TermId>)>,
    /// The constants of the atoms and equalities, sorted, deduplicated.
    needs: Vec<u64>,
    /// `(i, side)`, sorted by `i`: the side conditions whose variables are
    /// all bound once the first `i` atoms are matched, and not before,
    /// for `i` below the number of atoms.
    checks: Vec<(usize, Side)>,
    /// One past the largest variable index.
    vars: usize,
}

impl ClauseCtx {
    /// Intern a normalised clause.
    pub fn new(clause: Clause) -> ClauseCtx {
        let mut cc = clause.build_cc();
        // Every term is interned already, so these look ids up.
        let mut atom_ids = Vec::with_capacity(clause.atoms.len());
        let mut rels = RelSet::default();
        for (rel, ts) in &clause.atoms {
            let ids: Vec<TermId> = ts.iter().map(|t| t.intern(&mut cc)).collect();
            atom_ids.push((*rel, ids));
            rels.insert(*rel);
        }
        let neq_ids: Vec<(TermId, TermId)> = clause
            .neqs
            .iter()
            .map(|(a, b)| (a.intern(&mut cc), b.intern(&mut cc)))
            .collect();

        // The classes, as `Cc::class_constant` and `Cc::entails_neq` see
        // them: the constant of a class is its first in id order.
        let rep: Vec<TermId> = (0..cc.num_terms()).map(|t| cc.find(t)).collect();
        let mut class_const = vec![None; rep.len()];
        let mut consts = Vec::new();
        let mut apps = Vec::new();
        for (t, &r) in rep.iter().enumerate() {
            match cc.term(t) {
                CcTerm::Const(p) => {
                    class_const[r].get_or_insert(*p);
                    consts.push((*p, t));
                }
                CcTerm::App(f, args) => apps.push((t, *f, args.clone())),
                CcTerm::Var => {}
            }
        }
        consts.sort_unstable();
        let mut neq_classes: Vec<(TermId, TermId)> = neq_ids
            .iter()
            .map(|&(a, b)| (rep[a].min(rep[b]), rep[a].max(rep[b])))
            .collect();
        neq_classes.sort_unstable();
        neq_classes.dedup();

        let mut needs = Vec::new();
        let mut push_consts = |t: &STerm| collect_consts(t, &mut needs);
        clause
            .atoms
            .iter()
            .flat_map(|(_, ts)| ts)
            .for_each(&mut push_consts);
        clause
            .eqs
            .iter()
            .flat_map(|(a, b)| [a, b])
            .for_each(&mut push_consts);
        needs.sort_unstable();
        needs.dedup();

        // A variable is bound once the first atom holding it at a position
        // (not inside an application) is matched.
        let vars = clause.next_var() as usize;
        let mut bound_after = vec![usize::MAX; vars];
        for (i, (_, ts)) in clause.atoms.iter().enumerate() {
            for t in ts {
                if let STerm::Var(v) = t {
                    let b = &mut bound_after[*v as usize];
                    *b = (*b).min(i + 1);
                }
            }
        }
        let mut checks = Vec::new();
        let eqs = clause.eqs.iter().enumerate().map(|(k, p)| (Side::Eq(k), p));
        let neqs = clause
            .neqs
            .iter()
            .enumerate()
            .map(|(k, p)| (Side::Neq(k), p));
        for (side, (a, b)) in eqs.chain(neqs) {
            let mut at = 0;
            for t in [a, b] {
                t.for_each_var(&mut |v| at = at.max(bound_after[v as usize]));
            }
            // Bound only by all atoms, or never: the leaf decides.
            if at < clause.atoms.len() {
                checks.push((at, side));
            }
        }
        checks.sort_by_key(|&(at, _)| at);

        ClauseCtx {
            clause,
            atom_ids,
            rels,
            rep,
            class_const,
            neq_classes,
            consts,
            apps,
            needs,
            checks,
            vars,
        }
    }

    /// Can this clause subsume `d` at all? False when one of its relations
    /// has no atom in `d`, or a constant of its atoms or equalities is not
    /// in `d`'s closure (see the module docs); [`subsumes`] would then
    /// reject the pair. True otherwise, so the filter never loses a
    /// subsumption.
    pub fn may_subsume(&self, d: &ClauseCtx) -> bool {
        let mut have = d.consts.iter().map(|&(p, _)| p);
        self.rels.is_subset(&d.rels) && self.needs.iter().all(|&n| have.any(|p| p == n))
    }

    /// The id of the constant with `payload`, if the closure interns it.
    fn constant(&self, payload: u64) -> Option<TermId> {
        let i = self
            .consts
            .binary_search_by_key(&payload, |&(p, _)| p)
            .ok()?;
        Some(self.consts[i].1)
    }

    /// An application of the closure congruent to `func(args)`.
    fn congruent_app(&self, func: u64, args: &[TermId]) -> Option<TermId> {
        let congruent = |(_, f, a): &&(TermId, u64, Vec<TermId>)| {
            *f == func
                && a.len() == args.len()
                && a.iter()
                    .zip(args)
                    .all(|(&x, &y)| self.rep[x] == self.rep[y])
        };
        self.apps.iter().find(congruent).map(|&(t, _, _)| t)
    }

    /// [`Cc::entails_neq`] on the precomputed classes.
    fn entails_neq(&self, a: TermId, b: TermId) -> bool {
        let (ra, rb) = (self.rep[a], self.rep[b]);
        if ra == rb {
            return false;
        }
        if let (Some(x), Some(y)) = (self.class_const[ra], self.class_const[rb]) {
            if x != y {
                return true;
            }
        }
        self.neq_classes
            .binary_search(&(ra.min(rb), ra.max(rb)))
            .is_ok()
    }
}

/// Push the payload of every constant in `t`, applications included.
fn collect_consts(t: &STerm, out: &mut Vec<u64>) {
    match t {
        STerm::Const(c) => out.push(c.index() as u64),
        STerm::Var(_) => {}
        STerm::App(_, args) => args.iter().for_each(|a| collect_consts(a, out)),
    }
}

/// Does `c` subsume the clause `d`?
pub fn subsumes(c: &ClauseCtx, d: &ClauseCtx) -> bool {
    let mut probe = Probe {
        d,
        scratch: None,
        binding: vec![None; c.vars],
        trail: Vec::new(),
    };
    probe.match_atoms(c, 0)
}

/// The state of one subsumption search of `C` into `d`.
struct Probe<'a> {
    d: &'a ClauseCtx,
    /// `d`'s closure, rebuilt when the probe first interns a term `d`
    /// lacks; from then on every class question goes to it.
    scratch: Option<Cc>,
    /// The `D` term each variable of `C` is bound to.
    binding: Vec<Option<TermId>>,
    /// The bound variables, in binding order, for backtracking.
    trail: Vec<SVar>,
}

impl Probe<'_> {
    fn match_atoms(&mut self, c: &ClauseCtx, ix: usize) -> bool {
        if ix == c.clause.atoms.len() {
            return self.side_conditions(&c.clause);
        }
        let from = c.checks.partition_point(|&(at, _)| at < ix);
        let due = c.checks[from..].iter().take_while(|&&(at, _)| at == ix);
        for &(_, side) in due {
            if !self.side_holds(&c.clause, side) {
                return false;
            }
        }
        let (rel, terms) = &c.clause.atoms[ix];
        let d = self.d;
        for (drel, dids) in &d.atom_ids {
            if drel != rel || dids.len() != terms.len() {
                continue;
            }
            let mark = self.trail.len();
            if terms.iter().zip(dids).all(|(t, &u)| self.match_term(t, u))
                && self.match_atoms(c, ix + 1)
            {
                return true;
            }
            for v in self.trail.drain(mark..) {
                self.binding[v as usize] = None;
            }
        }
        false
    }

    /// Match one term of `C` against a term id of `D` (modulo `D`'s
    /// closure).
    fn match_term(&mut self, t: &STerm, u: TermId) -> bool {
        match t {
            STerm::Var(v) => match self.binding[*v as usize] {
                Some(b) => self.same_class(b, u),
                None => {
                    self.binding[*v as usize] = Some(u);
                    self.trail.push(*v);
                    true
                }
            },
            _ => self.resolve(t).is_some_and(|id| self.same_class(id, u)),
        }
    }

    /// The term id of `t` under the current binding; `None` when an
    /// unbound variable blocks it (the probe then fails — incompleteness,
    /// not unsoundness).
    fn resolve(&mut self, t: &STerm) -> Option<TermId> {
        match t {
            STerm::Const(c) => {
                let payload = c.index() as u64;
                Some(match self.d.constant(payload) {
                    Some(id) => id,
                    None => self.scratch().constant(payload),
                })
            }
            STerm::Var(v) => self.binding[*v as usize],
            STerm::App(f, args) => {
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(self.resolve(a)?);
                }
                let func = f.index() as u64;
                let known = match self.scratch {
                    None => self.d.congruent_app(func, &ids),
                    Some(_) => None,
                };
                Some(known.unwrap_or_else(|| self.scratch().app(func, &ids)))
            }
        }
    }

    fn scratch(&mut self) -> &mut Cc {
        let d = self.d;
        self.scratch.get_or_insert_with(|| d.clause.build_cc())
    }

    fn same_class(&mut self, a: TermId, b: TermId) -> bool {
        match &mut self.scratch {
            Some(cc) => cc.same_class(a, b),
            None => self.d.rep[a] == self.d.rep[b],
        }
    }

    fn side_holds(&mut self, c: &Clause, side: Side) -> bool {
        let (pair, eq) = match side {
            Side::Eq(k) => (&c.eqs[k], true),
            Side::Neq(k) => (&c.neqs[k], false),
        };
        let (Some(x), Some(y)) = (self.resolve(&pair.0), self.resolve(&pair.1)) else {
            return false;
        };
        if eq {
            return self.same_class(x, y);
        }
        match &mut self.scratch {
            Some(cc) => cc.entails_neq(x, y),
            None => self.d.entails_neq(x, y),
        }
    }

    fn side_conditions(&mut self, c: &Clause) -> bool {
        (0..c.eqs.len()).all(|k| self.side_holds(c, Side::Eq(k)))
            && (0..c.neqs.len()).all(|k| self.side_holds(c, Side::Neq(k)))
    }
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

    /// [`subsumes`] with a raw clause as `C`.
    fn probe(c: &Clause, d: &ClauseCtx) -> bool {
        subsumes(&ClauseCtx::new(c.clone()), d)
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
        assert!(probe(&c, &d));
        assert!(!probe(&d.clause, &ClauseCtx::new(c)));
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
        assert!(probe(&c, &d));

        let d2 = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![STerm::Var(0), STerm::Const(val(1))],
        )]));
        assert!(!probe(&c, &d2));
    }

    #[test]
    fn disequalities_need_entailment() {
        // ∃x y. R(x,y) ∧ x ≠ y subsumes R(u,v) ∧ u ≠ v but not plain R(u,v).
        let mut c = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]);
        c.neqs.push((STerm::Var(0), STerm::Var(1)));
        let mut dk = clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]);
        dk.neqs.push((STerm::Var(0), STerm::Var(1)));
        assert!(probe(&c, &ClauseCtx::new(dk)));
        let plain = ClauseCtx::new(clause(vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])]));
        assert!(!probe(&c, &plain));
        // Distinct constants entail the disequality.
        let consts = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![STerm::Const(val(0)), STerm::Const(val(1))],
        )]));
        assert!(probe(&c, &consts));
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
        assert!(probe(&c, &d));
        // But not R(a, f(b)).
        let d2 = ClauseCtx::new(clause(vec![(
            rel(0),
            vec![
                STerm::Const(val(0)),
                STerm::App(f, vec![STerm::Const(val(1))]),
            ],
        )]));
        assert!(!probe(&c, &d2));
    }

    #[test]
    fn empty_clause_subsumes_everything() {
        let c = clause(vec![]);
        let d = ClauseCtx::new(clause(vec![(rel(0), vec![STerm::Var(0)])]));
        assert!(probe(&c, &d));
    }

    /// The search before the constants prefilter and the early pruning:
    /// it clones `D`'s closure for every probe and checks the side
    /// conditions only at the leaf. With the relation filter in front of
    /// it, it decided every probe of the engine.
    mod reference {
        use crate::clause::{Clause, STerm, SVar};
        use crate::subsume::ClauseCtx;
        use dcds_analysis::cc::{Cc, TermId};
        use std::collections::BTreeMap;

        pub fn subsumes(c: &Clause, d: &ClauseCtx) -> bool {
            let mut cc = d.clause.build_cc();
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
    }

    #[test]
    fn search_matches_the_reference_on_generated_pairs() {
        use crate::gen;
        let mut rng = gen::Rng::new(0x0c1a_55e5);
        let has_app = |c: &Clause| {
            let mut app = false;
            for (a, b) in c.eqs.iter().chain(&c.neqs) {
                app |= matches!(a, STerm::App(..)) || matches!(b, STerm::App(..));
            }
            for (_, ts) in &c.atoms {
                app |= ts.iter().any(|t| matches!(t, STerm::App(..)));
            }
            app
        };
        let (mut pairs, mut held) = (0, 0);
        let (mut missing, mut exempt, mut apps, mut eqs, mut leaf) = (0, 0, 0, 0, 0);
        for _ in 0..6000 {
            let c = gen::clause(&mut rng);
            let from_c = rng.chance(75);
            let d = if from_c {
                gen::specialise(&c, &mut rng)
            } else {
                Some(gen::clause(&mut rng))
            };
            let Some(d) = d else { continue };
            let (c, d) = (ClauseCtx::new(c), ClauseCtx::new(d));
            let want = reference::subsumes(&c.clause, &d);
            assert_eq!(subsumes(&c, &d), want, "{:?} ⊑ {:?}", c.clause, d.clause);
            let filtered = c.rels.is_subset(&d.rels) && want;
            assert_eq!(
                c.may_subsume(&d) && subsumes(&c, &d),
                filtered,
                "{:?} ⊑ {:?}",
                c.clause,
                d.clause
            );
            pairs += 1;
            held += usize::from(want);

            // What the pair exercises.
            let mut all = Vec::new();
            for (a, b) in c.clause.neqs.iter() {
                collect_consts(a, &mut all);
                collect_consts(b, &mut all);
            }
            let lacks = |p: &u64| d.constant(*p).is_none();
            missing += usize::from(c.needs.iter().any(lacks));
            exempt += usize::from(want && all.iter().any(|p| !c.needs.contains(p) && lacks(p)));
            apps += usize::from(want && (has_app(&c.clause) || has_app(&d.clause)));
            eqs += usize::from(want && !c.clause.eqs.is_empty());
            let sides = c.clause.eqs.len() + c.clause.neqs.len();
            leaf += usize::from(from_c && c.checks.len() < sides && !c.clause.atoms.is_empty());
        }
        assert!(
            held >= 500 && missing >= 500 && exempt >= 10 && apps >= 50 && eqs >= 50 && leaf >= 200,
            "{pairs} pairs, {held} subsumptions: {missing} with a constant D lacks, \
             {exempt} through a disequality-only constant D lacks, {apps} with applications, \
             {eqs} with residual equalities; {leaf} with a side condition only the leaf checks"
        );
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
                if subsumes(c, d) {
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
        assert!(ctxs[2].may_subsume(&ctxs[3]) && subsumes(&ctxs[2], &ctxs[3]));
        // The empty clause passes the filter against anything, and nothing
        // with an atom passes it against the empty clause.
        assert!(ctxs.iter().all(|d| ctxs[0].may_subsume(d)));
        assert!(ctxs[1..].iter().all(|c| !c.may_subsume(&ctxs[0])));
        // A relation `D` lacks rejects the pair, whichever word it sits in.
        assert!(!ctxs[5].may_subsume(&ctxs[4]));
        assert!(ctxs[5].may_subsume(&ctxs[6]));
        assert!(!ctxs[7].may_subsume(&ctxs[6]));
        assert!(ctxs[7].may_subsume(&ctxs[8]) && subsumes(&ctxs[7], &ctxs[8]));
        assert!(!ctxs[8].may_subsume(&ctxs[7]));
    }
}

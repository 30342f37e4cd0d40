//! Symbolic clauses: existentially quantified conjunctions over the schema.
//!
//! A [`Clause`] denotes the set of instances
//!
//! ```text
//!     ∃ x̄ .  ⋀ atoms  ∧  ⋀ eqs  ∧  ⋀ neqs
//! ```
//!
//! where every variable is implicitly existentially quantified over the
//! (infinite) value domain and terms may contain *applications* of
//! deterministic service functions ([`STerm::App`]): `f(t)` stands for the
//! value the deterministic service `f` returned (or will return) for `t` —
//! the persistent service-call map of the deterministic semantics makes
//! that a single well-defined value per argument tuple, which is exactly
//! the congruence the [`dcds_analysis::cc`] engine closes over.
//!
//! Quantifying over the full domain rather than the active domain makes a
//! clause an *over-approximation* of the corresponding active-domain
//! formula — the safe direction for the backward-reachability engine: a
//! SAFE verdict (no clause covers the initial instance at the fixpoint) is
//! sound, and purported hits are confirmed concretely before an UNSAFE
//! verdict is reported.
//!
//! # Normal form
//!
//! [`Clause::normalize`] solves variable equalities, drops tautologies and
//! vacuous disequalities, sorts and deduplicates, and rejects clauses whose
//! congruence closure is contradictory. The closure is built only when an
//! equality survives solving: without a merge every class is a single
//! term, syntactically equal terms intern to one id, and `t ≠ t` has
//! already been rejected, so the closure could find no conflict.
//!
//! Variables are then renamed to first-occurrence order over the sorted
//! clause. Sorting can move a first occurrence, so the renaming repeats, in
//! place through a dense `Vec` map, until a round's first-occurrence map is
//! the identity (at most four rounds). Imperfect canonicalisation only
//! weakens duplicate detection, never soundness: subsumption catches what
//! renaming misses.

use dcds_analysis::cc::{Cc, TermId};
use dcds_core::FuncId;
use dcds_reldata::{Instance, RelId, Value};
use std::collections::BTreeMap;

/// A clause-local variable (dense indices, renamed canonically on
/// normalisation).
pub type SVar = u32;

/// A symbolic term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum STerm {
    /// A constant value.
    Const(Value),
    /// An existentially quantified variable.
    Var(SVar),
    /// The result of deterministic service `f` on the argument terms.
    App(FuncId, Vec<STerm>),
}

impl STerm {
    /// Does `v` occur anywhere in the term?
    pub fn contains_var(&self, v: SVar) -> bool {
        match self {
            STerm::Const(_) => false,
            STerm::Var(w) => *w == v,
            STerm::App(_, args) => args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// Replace every occurrence of `v` by `t`.
    pub fn substitute(&self, v: SVar, t: &STerm) -> STerm {
        match self {
            STerm::Const(_) => self.clone(),
            STerm::Var(w) => {
                if *w == v {
                    t.clone()
                } else {
                    self.clone()
                }
            }
            STerm::App(f, args) => {
                STerm::App(*f, args.iter().map(|a| a.substitute(v, t)).collect())
            }
        }
    }

    /// Call `f` on every variable occurrence, left to right.
    pub fn for_each_var(&self, f: &mut impl FnMut(SVar)) {
        match self {
            STerm::Const(_) => {}
            STerm::Var(v) => f(*v),
            STerm::App(_, args) => args.iter().for_each(|a| a.for_each_var(f)),
        }
    }

    fn collect_vars(&self, out: &mut Vec<SVar>) {
        self.for_each_var(&mut |v| out.push(v));
    }

    /// Rename every variable `v` to `map[v]`, in place.
    fn rename(&mut self, map: &[SVar]) {
        match self {
            STerm::Const(_) => {}
            STerm::Var(v) => *v = map[*v as usize],
            STerm::App(_, args) => args.iter_mut().for_each(|a| a.rename(map)),
        }
    }

    /// Intern the term into a congruence closure. Variables key by their
    /// clause-local index, constants by their pool index, applications by
    /// the service function's index.
    pub fn intern(&self, cc: &mut Cc) -> TermId {
        match self {
            STerm::Const(c) => cc.constant(c.index() as u64),
            STerm::Var(v) => cc.variable(*v as u64),
            STerm::App(f, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| a.intern(cc)).collect();
                cc.app(f.index() as u64, &ids)
            }
        }
    }
}

/// An existentially quantified conjunction (see module docs). The order
/// compares atoms, then equalities, then disequalities, then the level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Clause {
    /// Relational atoms that must all hold.
    pub atoms: Vec<(RelId, Vec<STerm>)>,
    /// Residual equalities (normalisation eliminates solvable ones, so
    /// these involve applications on at least one side).
    pub eqs: Vec<(STerm, STerm)>,
    /// Disequalities.
    pub neqs: Vec<(STerm, STerm)>,
    /// Number of regression steps from the bad condition (0 = Bad itself).
    /// A state covered by this clause *may* reach Bad in `level` steps —
    /// "may" because regression over-approximates; the engine confirms
    /// concretely before claiming so.
    pub level: u32,
}

impl Clause {
    /// The smallest variable index not used by the clause.
    pub fn next_var(&self) -> SVar {
        let mut vars = Vec::new();
        self.for_each_term(|t| t.collect_vars(&mut vars));
        vars.iter().copied().max().map_or(0, |m| m + 1)
    }

    fn for_each_term(&self, mut f: impl FnMut(&STerm)) {
        for (_, ts) in &self.atoms {
            for t in ts {
                f(t);
            }
        }
        for (a, b) in self.eqs.iter().chain(self.neqs.iter()) {
            f(a);
            f(b);
        }
    }

    fn terms_mut(&mut self) -> impl Iterator<Item = &mut STerm> {
        let atoms = self.atoms.iter_mut().flat_map(|(_, ts)| ts.iter_mut());
        let pairs = self.eqs.iter_mut().chain(self.neqs.iter_mut());
        atoms.chain(pairs.flat_map(|(a, b)| [a, b]))
    }

    fn map_terms(&mut self, mut f: impl FnMut(&STerm) -> STerm) {
        self.terms_mut().for_each(|t| *t = f(t));
    }

    /// Normalise the clause; `None` means it is unsatisfiable (dropping it
    /// is sound — it covers no state).
    ///
    /// Steps: solve variable equalities by substitution (with occurs
    /// check), drop tautological (dis)equalities, reject contradictory
    /// ones, discharge disequalities on otherwise-unconstrained variables
    /// (satisfiable over the infinite domain), run the congruence closure
    /// over the residue when an equality survives, and rename variables
    /// canonically (see the module docs).
    pub fn normalize(self) -> Option<Clause> {
        let solved = self.solve()?;
        if !solved.eqs.is_empty() && solved.build_cc().conflict().is_some() {
            return None;
        }
        Some(solved.canonical())
    }

    /// The steps of [`Clause::normalize`] before the congruence closure:
    /// the result is sorted, deduplicated and has every pair oriented.
    fn solve(mut self) -> Option<Clause> {
        // Solve var = term equalities.
        loop {
            let mut changed = false;
            let mut i = 0;
            while i < self.eqs.len() {
                let (a, b) = self.eqs[i].clone();
                if a == b {
                    self.eqs.swap_remove(i);
                    changed = true;
                    continue;
                }
                match (&a, &b) {
                    (STerm::Const(_), STerm::Const(_)) => return None, // distinct constants
                    (STerm::Var(v), t) if !t.contains_var(*v) => {
                        self.eqs.swap_remove(i);
                        let (v, t) = (*v, t.clone());
                        self.map_terms(|s| s.substitute(v, &t));
                        changed = true;
                    }
                    (t, STerm::Var(v)) if !t.contains_var(*v) => {
                        self.eqs.swap_remove(i);
                        let (v, t) = (*v, t.clone());
                        self.map_terms(|s| s.substitute(v, &t));
                        changed = true;
                    }
                    _ => i += 1,
                }
            }
            if !changed {
                break;
            }
        }

        // Tautological / contradictory disequalities.
        let mut i = 0;
        while i < self.neqs.len() {
            let (a, b) = &self.neqs[i];
            if a == b {
                return None; // t ≠ t
            }
            if let (STerm::Const(x), STerm::Const(y)) = (a, b) {
                debug_assert_ne!(x, y);
                self.neqs.swap_remove(i); // distinct constants: always true
                continue;
            }
            i += 1;
        }

        // A variable occurring only in disequalities (and not inside the
        // other side of its own disequality) can always pick a value off
        // the finitely many forbidden ones — the disequality is vacuous.
        let mut bound = Vec::new();
        for (_, ts) in &self.atoms {
            for t in ts {
                t.collect_vars(&mut bound);
            }
        }
        for (a, b) in &self.eqs {
            a.collect_vars(&mut bound);
            b.collect_vars(&mut bound);
        }
        self.neqs.retain(|(a, b)| {
            let free = |t: &STerm, other: &STerm| match t {
                STerm::Var(v) => !bound.contains(v) && !other.contains_var(*v),
                _ => false,
            };
            !(free(a, b) || free(b, a))
        });

        // Order pairs canonically and deduplicate.
        self.orient_and_sort();
        self.atoms.dedup();
        self.eqs.dedup();
        self.neqs.dedup();
        Some(self)
    }

    /// Build the congruence closure of the clause: intern every term,
    /// merge the equalities, register the disequalities.
    pub fn build_cc(&self) -> Cc {
        let mut cc = Cc::new();
        for (_, ts) in &self.atoms {
            for t in ts {
                t.intern(&mut cc);
            }
        }
        let eq_ids: Vec<(TermId, TermId)> = self
            .eqs
            .iter()
            .map(|(a, b)| (a.intern(&mut cc), b.intern(&mut cc)))
            .collect();
        let neq_ids: Vec<(TermId, TermId)> = self
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
        cc
    }

    /// Rename variables to first-occurrence order over the sorted clause,
    /// in place, until the first-occurrence map is the identity (at most
    /// four rounds). Renaming by the identity would change nothing, so the
    /// rounds end exactly where repeating them would stop changing the
    /// clause.
    fn canonical(mut self) -> Clause {
        let mut map: Vec<SVar> = Vec::new();
        for _ in 0..4 {
            if self.first_occurrence_map(&mut map) {
                break;
            }
            self.terms_mut().for_each(|t| t.rename(&map));
            self.orient_and_sort();
        }
        self
    }

    /// Fill `map[v]` with the rank of variable `v`'s first occurrence;
    /// true when every variable keeps its index.
    fn first_occurrence_map(&self, map: &mut Vec<SVar>) -> bool {
        const UNSEEN: SVar = SVar::MAX;
        map.clear();
        let mut next: SVar = 0;
        let mut identity = true;
        let mut visit = |v: SVar| {
            let ix = v as usize;
            if ix >= map.len() {
                map.resize(ix + 1, UNSEEN);
            }
            if map[ix] == UNSEEN {
                map[ix] = next;
                identity &= v == next;
                next += 1;
            }
        };
        self.for_each_term(|t| t.for_each_var(&mut visit));
        identity
    }

    /// Put the smaller term first in every pair, then sort the atoms and
    /// both pair lists.
    fn orient_and_sort(&mut self) {
        for (a, b) in self.eqs.iter_mut().chain(self.neqs.iter_mut()) {
            if a > b {
                std::mem::swap(a, b);
            }
        }
        self.atoms.sort();
        self.eqs.sort();
        self.neqs.sort();
    }

    /// The atom permutations induced by the variable transpositions
    /// `(u v)` that map the clause onto itself: its atoms, equalities and
    /// disequalities, each taken as a set. `perm[i]` is the index of the
    /// image of atom `i`; a transposition is an involution, and so is each
    /// permutation. Transpositions that fix every atom are left out, and so
    /// are repeats.
    ///
    /// A transposition maps each atom onto one of the same relation,
    /// position by position, so only variables with the same multiset of
    /// (relation, position) occurrences are tried.
    pub fn transposition_symmetries(&self) -> Vec<Vec<usize>> {
        let n = self.next_var() as usize;
        let mut occurs: Vec<Vec<(RelId, usize)>> = vec![Vec::new(); n];
        for (rel, ts) in &self.atoms {
            for (pos, t) in ts.iter().enumerate() {
                t.for_each_var(&mut |v| occurs[v as usize].push((*rel, pos)));
            }
        }
        occurs.iter_mut().for_each(|o| o.sort_unstable());
        let mut map: Vec<SVar> = (0..n as SVar).collect();
        let mut perms: Vec<Vec<usize>> = Vec::new();
        for u in 0..n {
            // A variable in no atom moves no atom.
            for v in (u + 1..n).filter(|&v| !occurs[u].is_empty() && occurs[u] == occurs[v]) {
                map.swap(u, v);
                let perm = self.renamed_onto_itself(&map);
                map.swap(u, v);
                let moves = |p: &Vec<usize>| p.iter().enumerate().any(|(i, &j)| i != j);
                if let Some(perm) = perm.filter(|p| moves(p) && !perms.contains(p)) {
                    perms.push(perm);
                }
            }
        }
        perms
    }

    /// Where renaming by `map` sends each atom, when the renaming maps the
    /// clause onto itself.
    fn renamed_onto_itself(&self, map: &[SVar]) -> Option<Vec<usize>> {
        let mut perm = Vec::with_capacity(self.atoms.len());
        for (rel, ts) in &self.atoms {
            let mut image = (*rel, ts.clone());
            image.1.iter_mut().for_each(|t| t.rename(map));
            let j = self.atoms.iter().position(|a| *a == image)?;
            if perm.contains(&j) {
                return None;
            }
            perm.push(j);
        }
        let as_set = |pairs: &[(STerm, STerm)], map: Option<&[SVar]>| {
            let mut pairs = pairs.to_vec();
            for (a, b) in &mut pairs {
                if let Some(map) = map {
                    a.rename(map);
                    b.rename(map);
                }
                if a > b {
                    std::mem::swap(a, b);
                }
            }
            pairs.sort();
            pairs
        };
        let fixed = |pairs: &[(STerm, STerm)]| as_set(pairs, Some(map)) == as_set(pairs, None);
        (fixed(&self.eqs) && fixed(&self.neqs)).then_some(perm)
    }

    /// Permissive satisfaction check against a concrete instance: could a
    /// state with exactly these facts satisfy the clause for *some*
    /// interpretation of the service functions?
    ///
    /// Applications are abstracted to per-syntax variables (two
    /// syntactically equal applications stay equal; further congruence is
    /// ignored, which only makes the check more permissive). The check is
    /// **complete** — it never misses a real hit — and may report spurious
    /// ones, which the engine confirms concretely before trusting.
    pub fn may_hold_in(&self, inst: &Instance) -> bool {
        // Abstract applications to fresh variables, hash-consed per syntax.
        let mut next = self.next_var();
        let mut app_vars: BTreeMap<STerm, SVar> = BTreeMap::new();
        let mut flat = self.clone();
        flat.map_terms(|t| flatten_apps(t, &mut app_vars, &mut next));

        let atoms: Vec<(RelId, Vec<FlatTerm>)> = flat
            .atoms
            .iter()
            .map(|(r, ts)| (*r, ts.iter().map(flat_term).collect()))
            .collect();
        let mut env: BTreeMap<SVar, Value> = BTreeMap::new();
        match_atoms(&atoms, 0, inst, &mut env, &flat)
    }
}

/// A term with applications already abstracted away.
#[derive(Clone, Copy)]
enum FlatTerm {
    Const(Value),
    Var(SVar),
}

fn flat_term(t: &STerm) -> FlatTerm {
    match t {
        STerm::Const(c) => FlatTerm::Const(*c),
        STerm::Var(v) => FlatTerm::Var(*v),
        STerm::App(_, _) => unreachable!("applications were flattened"),
    }
}

fn flatten_apps(t: &STerm, app_vars: &mut BTreeMap<STerm, SVar>, next: &mut SVar) -> STerm {
    match t {
        STerm::Const(_) | STerm::Var(_) => t.clone(),
        STerm::App(_, _) => {
            let v = *app_vars.entry(t.clone()).or_insert_with(|| {
                let v = *next;
                *next += 1;
                v
            });
            STerm::Var(v)
        }
    }
}

fn match_atoms(
    atoms: &[(RelId, Vec<FlatTerm>)],
    ix: usize,
    inst: &Instance,
    env: &mut BTreeMap<SVar, Value>,
    flat: &Clause,
) -> bool {
    if ix == atoms.len() {
        return eqs_consistent(flat, env);
    }
    let (rel, terms) = &atoms[ix];
    for tuple in inst.tuples(*rel) {
        let vals = tuple.values();
        if vals.len() != terms.len() {
            continue;
        }
        let mut bound_here = Vec::new();
        let mut ok = true;
        for (t, &v) in terms.iter().zip(vals.iter()) {
            match t {
                FlatTerm::Const(c) => {
                    if *c != v {
                        ok = false;
                        break;
                    }
                }
                FlatTerm::Var(x) => match env.get(x) {
                    Some(&w) => {
                        if w != v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env.insert(*x, v);
                        bound_here.push(*x);
                    }
                },
            }
        }
        if ok && match_atoms(atoms, ix + 1, inst, env, flat) {
            return true;
        }
        for x in bound_here {
            env.remove(&x);
        }
    }
    false
}

/// After the atoms are matched, check the (application-free) equalities
/// and disequalities: variables matched to instance values become
/// constants, unmatched variables stay free (any value of the infinite
/// domain), and a congruence closure decides consistency.
fn eqs_consistent(flat: &Clause, env: &BTreeMap<SVar, Value>) -> bool {
    let mut cc = Cc::new();
    let id = |cc: &mut Cc, t: &STerm| match t {
        STerm::Const(c) => cc.constant(c.index() as u64),
        STerm::Var(v) => match env.get(v) {
            Some(w) => cc.constant(w.index() as u64),
            None => cc.variable(*v as u64),
        },
        STerm::App(_, _) => unreachable!("applications were flattened"),
    };
    let eq_ids: Vec<_> = flat
        .eqs
        .iter()
        .map(|(a, b)| (id(&mut cc, a), id(&mut cc, b)))
        .collect();
    let neq_ids: Vec<_> = flat
        .neqs
        .iter()
        .map(|(a, b)| (id(&mut cc, a), id(&mut cc, b)))
        .collect();
    for (a, b) in eq_ids {
        cc.merge(a, b);
    }
    for (a, b) in neq_ids {
        cc.add_neq(a, b);
    }
    cc.conflict().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ix: usize) -> RelId {
        RelId::from_index(ix)
    }

    fn val(ix: usize) -> Value {
        Value::from_index(ix)
    }

    fn func(ix: usize) -> FuncId {
        FuncId::from_index(ix)
    }

    #[test]
    fn normalize_solves_var_equalities() {
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])],
            eqs: vec![(STerm::Var(1), STerm::Const(val(3)))],
            neqs: vec![],
            level: 0,
        };
        let n = c.normalize().unwrap();
        assert!(n.eqs.is_empty());
        assert_eq!(n.atoms[0].1[1], STerm::Const(val(3)));
    }

    #[test]
    fn normalize_rejects_contradictions() {
        let distinct = Clause {
            atoms: vec![],
            eqs: vec![(STerm::Const(val(0)), STerm::Const(val(1)))],
            neqs: vec![],
            level: 0,
        };
        assert!(distinct.normalize().is_none());
        let self_neq = Clause {
            atoms: vec![],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Var(0))],
            level: 0,
        };
        assert!(self_neq.normalize().is_none());
        // x = a, x != a via closure.
        let closed = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0)])],
            eqs: vec![(STerm::Var(0), STerm::Const(val(0)))],
            neqs: vec![(STerm::Var(0), STerm::Const(val(0)))],
            level: 0,
        };
        assert!(closed.normalize().is_none());
    }

    #[test]
    fn normalize_discharges_vacuous_disequalities() {
        // y occurs only in the disequality: always satisfiable.
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0)])],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Var(1))],
            level: 0,
        };
        let n = c.normalize().unwrap();
        assert!(n.neqs.is_empty());
        // But x != f(x) must stay: the interpretation of f is not ours to
        // choose.
        let c = Clause {
            atoms: vec![],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::App(func(0), vec![STerm::Var(0)]))],
            level: 0,
        };
        let n = c.normalize().unwrap();
        assert_eq!(n.neqs.len(), 1);
    }

    #[test]
    fn canonical_renaming_is_order_insensitive() {
        let a = Clause {
            atoms: vec![
                (rel(0), vec![STerm::Var(7)]),
                (rel(1), vec![STerm::Var(7), STerm::Var(2)]),
            ],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        let b = Clause {
            atoms: vec![
                (rel(1), vec![STerm::Var(5), STerm::Var(9)]),
                (rel(0), vec![STerm::Var(5)]),
            ],
            eqs: vec![],
            neqs: vec![],
            level: 1,
        };
        let (a, b) = (a.normalize().unwrap(), b.normalize().unwrap());
        assert_eq!((a.atoms, a.eqs, a.neqs), (b.atoms, b.eqs, b.neqs));
    }

    /// The renaming before it worked in place: a `BTreeMap` per round over
    /// a cloned clause, stopping after the first round that changes
    /// nothing.
    fn canonical_reference(mut c: Clause) -> Clause {
        fn rename(t: &STerm, map: &BTreeMap<SVar, SVar>) -> STerm {
            match t {
                STerm::Const(_) => t.clone(),
                STerm::Var(v) => STerm::Var(map[v]),
                STerm::App(f, args) => {
                    STerm::App(*f, args.iter().map(|a| rename(a, map)).collect())
                }
            }
        }
        for _ in 0..4 {
            let mut order = Vec::new();
            c.for_each_term(|t| t.collect_vars(&mut order));
            let mut map: BTreeMap<SVar, SVar> = BTreeMap::new();
            for v in order {
                let next = map.len() as SVar;
                map.entry(v).or_insert(next);
            }
            let before = c.clone();
            c.map_terms(|t| rename(t, &map));
            for (a, b) in c.eqs.iter_mut().chain(c.neqs.iter_mut()) {
                if a > b {
                    std::mem::swap(a, b);
                }
            }
            c.atoms.sort();
            c.eqs.sort();
            c.neqs.sort();
            if c == before {
                break;
            }
        }
        c
    }

    /// `normalize` before the closure became conditional and the renaming
    /// in place.
    fn normalize_reference(c: Clause) -> Option<Clause> {
        let solved = c.solve()?;
        if solved.build_cc().conflict().is_some() {
            return None;
        }
        Some(canonical_reference(solved))
    }

    #[test]
    fn normal_form_matches_the_reference_on_generated_clauses() {
        let mut rng = crate::gen::Rng::new(0x5eed_c1a5);
        let (mut unsat, mut residual_eqs, mut renumbered, mut apps) = (0, 0, 0, 0);
        for _ in 0..10_000 {
            let raw = crate::gen::raw_clause(&mut rng);
            let fast = raw.clone().normalize();
            assert_eq!(fast, normalize_reference(raw.clone()), "{raw:?}");
            match fast {
                None => unsat += 1,
                Some(n) => {
                    residual_eqs += usize::from(!n.eqs.is_empty());
                    // Sorting moved a first occurrence after the first
                    // renaming round, so a later round had work to do.
                    let once = {
                        let mut c = raw.solve().unwrap();
                        let mut map = Vec::new();
                        if !c.first_occurrence_map(&mut map) {
                            c.terms_mut().for_each(|t| t.rename(&map));
                            c.orient_and_sort();
                        }
                        c
                    };
                    renumbered += usize::from(once != n);
                    let mut app = false;
                    n.for_each_term(|t| app |= matches!(t, STerm::App(..)));
                    apps += usize::from(app);
                }
            }
        }
        assert!(
            unsat >= 500 && residual_eqs >= 500 && renumbered >= 20 && apps >= 500,
            "unsat {unsat}, residual equalities {residual_eqs}, \
             renamed more than once {renumbered}, with applications {apps}"
        );
    }

    #[test]
    fn transpositions_that_fix_the_clause_permute_its_atoms() {
        let v = STerm::Var;
        let c = |i| STerm::Const(val(i));
        let f = |t: STerm| STerm::App(func(0), vec![t]);
        let clause = |atoms: Vec<(RelId, Vec<STerm>)>, eqs, neqs| {
            let raw = Clause {
                atoms,
                eqs,
                neqs,
                level: 0,
            };
            raw.normalize().unwrap().transposition_symmetries()
        };
        let distinct = |n: SVar| {
            let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (v(a), v(b))));
            pairs.collect::<Vec<_>>()
        };
        // `R(x0) ∧ R(x1) ∧ R(x2)`, pairwise distinct: every transposition.
        let block: Vec<_> = (0..3).map(|i| (rel(0), vec![v(i)])).collect();
        assert_eq!(
            clause(block.clone(), vec![], distinct(3)),
            vec![vec![1, 0, 2], vec![2, 1, 0], vec![0, 2, 1]]
        );
        // `x0 ≠ c` breaks every transposition that moves `x0`.
        let mut neqs = distinct(3);
        neqs.push((v(0), c(0)));
        assert_eq!(clause(block.clone(), vec![], neqs).len(), 1);
        // So does a constant in an atom of `x0` alone.
        let mut pinned = block.clone();
        pinned.push((rel(1), vec![v(0), c(1)]));
        assert_eq!(clause(pinned, vec![], distinct(3)).len(), 1);
        // Variables inside applications and equalities are swapped too.
        let apps: Vec<_> = (0..2).map(|i| (rel(0), vec![f(v(i))])).collect();
        let eqs: Vec<_> = (0..2).map(|i| (f(v(i)), c(0))).collect();
        assert_eq!(clause(apps.clone(), eqs, vec![]), vec![vec![1, 0]]);
        let lopsided = vec![(f(v(0)), c(0))];
        assert!(clause(apps, lopsided, vec![]).is_empty());
        // A variable in no atom moves none.
        let free = vec![(rel(0), vec![v(0)])];
        let eqs = vec![(f(v(1)), c(0)), (f(v(2)), c(0))];
        assert!(clause(free, eqs, vec![]).is_empty());
    }

    #[test]
    fn congruence_closes_over_applications() {
        // f(x) = a, f(y) = b, x = y, a != b is unsatisfiable.
        let f = func(0);
        let c = Clause {
            atoms: vec![],
            eqs: vec![
                (STerm::App(f, vec![STerm::Var(0)]), STerm::Const(val(0))),
                (STerm::App(f, vec![STerm::Var(1)]), STerm::Const(val(1))),
                (STerm::Var(0), STerm::Var(1)),
            ],
            neqs: vec![],
            level: 0,
        };
        assert!(c.normalize().is_none());
    }

    #[test]
    fn may_hold_in_matches_with_bindings() {
        let mut inst = Instance::new();
        inst.insert(rel(0), dcds_reldata::Tuple::from([val(0), val(1)]));
        inst.insert(rel(0), dcds_reldata::Tuple::from([val(2), val(2)]));

        // ∃x. R(x, x) — matched by (2,2).
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0), STerm::Var(0)])],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        assert!(c.may_hold_in(&inst));

        // ∃x y. R(x, y) ∧ x ≠ y — matched by (0,1).
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0), STerm::Var(1)])],
            eqs: vec![],
            neqs: vec![(STerm::Var(0), STerm::Var(1))],
            level: 0,
        };
        assert!(c.may_hold_in(&inst));

        // ∃x. R(x, x) ∧ x = v0 — no such fact.
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::Var(0), STerm::Var(0)])],
            eqs: vec![(STerm::Var(0), STerm::Const(val(0)))],
            neqs: vec![],
            level: 0,
        };
        assert!(!c.may_hold_in(&inst));
    }

    #[test]
    fn may_hold_in_abstracts_applications() {
        let mut inst = Instance::new();
        inst.insert(rel(0), dcds_reldata::Tuple::from([val(0)]));
        // ∃x. R(f(x)) — the service could have returned v0.
        let c = Clause {
            atoms: vec![(rel(0), vec![STerm::App(func(0), vec![STerm::Var(0)])])],
            eqs: vec![],
            neqs: vec![],
            level: 0,
        };
        assert!(c.may_hold_in(&inst));
    }
}

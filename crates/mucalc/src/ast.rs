//! Abstract syntax of the first-order µ-calculus µL.
//!
//! ```text
//! Φ ::= Q | LIVE(x) | ¬Φ | Φ∧Φ | Φ∨Φ | Φ→Φ | ∃x.Φ | ∀x.Φ
//!     | ⟨−⟩Φ | [−]Φ | Z | µZ.Φ | νZ.Φ
//! ```
//!
//! `Q` is an (open) FO query evaluated in the current state's database;
//! `LIVE(x)` asserts membership of `x`'s value in the current active domain
//! (the special predicate of Section 3.1). The fragments µLA / µLP are
//! *shapes* of this one AST, recognised by [`crate::fragments`].

use dcds_folang::{Formula, QTerm, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A second-order predicate variable (arity 0) bound by µ/ν.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredVar(Arc<str>);

impl PredVar {
    /// Make a predicate variable.
    pub fn new(name: &str) -> Self {
        PredVar(Arc::from(name))
    }

    /// Its name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PredVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a µL formula is not one FO query over the current state
/// ([`Mu::state_query`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotQuery {
    /// A `LIVE(t)` that no relational atom conjoined with it mentions.
    Live,
    /// A `⟨−⟩` or `[−]`.
    Modality,
    /// A `µ` or `ν`.
    Fixpoint,
    /// A predicate variable.
    Pvar(PredVar),
}

/// A µL formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mu {
    /// An FO query over the current database (possibly open).
    Query(Formula),
    /// `LIVE(t)`: the value of `t` (a variable, or a constant after
    /// grounding by `PROP`) belongs to the current active domain.
    Live(QTerm),
    /// Negation.
    Not(Box<Mu>),
    /// Conjunction.
    And(Box<Mu>, Box<Mu>),
    /// Disjunction.
    Or(Box<Mu>, Box<Mu>),
    /// Implication.
    Implies(Box<Mu>, Box<Mu>),
    /// First-order existential quantification across states.
    Exists(Var, Box<Mu>),
    /// First-order universal quantification across states.
    Forall(Var, Box<Mu>),
    /// `⟨−⟩Φ`: some successor satisfies Φ.
    Diamond(Box<Mu>),
    /// `[−]Φ`: every successor satisfies Φ.
    Box_(Box<Mu>),
    /// A predicate variable `Z`.
    Pvar(PredVar),
    /// Least fixpoint `µZ.Φ`.
    Lfp(PredVar, Box<Mu>),
    /// Greatest fixpoint `νZ.Φ`.
    Gfp(PredVar, Box<Mu>),
}

impl Mu {
    /// Query leaf.
    pub fn query(f: Formula) -> Mu {
        Mu::Query(f)
    }

    /// `LIVE(x)`.
    pub fn live(name: &str) -> Mu {
        Mu::Live(QTerm::var(name))
    }

    /// `LIVE(c)` for a ground constant.
    pub fn live_const(v: dcds_reldata::Value) -> Mu {
        Mu::Live(QTerm::Const(v))
    }

    /// `LIVE(x₁) ∧ ... ∧ LIVE(xₙ)` (true when empty).
    pub fn live_all(vars: impl IntoIterator<Item = Var>) -> Mu {
        let mut it = vars.into_iter();
        match it.next() {
            None => Mu::Query(Formula::True),
            Some(first) => it.fold(Mu::Live(QTerm::Var(first)), |acc, v| {
                acc.and(Mu::Live(QTerm::Var(v)))
            }),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Mu {
        Mu::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: Mu) -> Mu {
        Mu::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Mu) -> Mu {
        Mu::Or(Box::new(self), Box::new(other))
    }

    /// Implication.
    pub fn implies(self, other: Mu) -> Mu {
        Mu::Implies(Box::new(self), Box::new(other))
    }

    /// Existential quantifier.
    pub fn exists(v: impl Into<Var>, body: Mu) -> Mu {
        Mu::Exists(v.into(), Box::new(body))
    }

    /// Universal quantifier.
    pub fn forall(v: impl Into<Var>, body: Mu) -> Mu {
        Mu::Forall(v.into(), Box::new(body))
    }

    /// `⟨−⟩Φ`.
    pub fn diamond(self) -> Mu {
        Mu::Diamond(Box::new(self))
    }

    /// `[−]Φ`.
    pub fn boxed(self) -> Mu {
        Mu::Box_(Box::new(self))
    }

    /// `µZ.Φ`.
    pub fn lfp(z: &str, body: Mu) -> Mu {
        Mu::Lfp(PredVar::new(z), Box::new(body))
    }

    /// `νZ.Φ`.
    pub fn gfp(z: &str, body: Mu) -> Mu {
        Mu::Gfp(PredVar::new(z), Box::new(body))
    }

    /// Free individual variables (FO variables not bound by ∃/∀; query
    /// leaves contribute their free variables).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.free_vars_rec(&mut BTreeSet::new(), &mut out);
        out
    }

    fn free_vars_rec(&self, bound: &mut BTreeSet<Var>, out: &mut BTreeSet<Var>) {
        match self {
            Mu::Query(f) => {
                for v in f.free_vars() {
                    if !bound.contains(&v) {
                        out.insert(v);
                    }
                }
            }
            Mu::Live(t) => {
                if let QTerm::Var(v) = t {
                    if !bound.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
            Mu::Not(f) | Mu::Diamond(f) | Mu::Box_(f) | Mu::Lfp(_, f) | Mu::Gfp(_, f) => {
                f.free_vars_rec(bound, out)
            }
            Mu::And(f, g) | Mu::Or(f, g) | Mu::Implies(f, g) => {
                f.free_vars_rec(bound, out);
                g.free_vars_rec(bound, out);
            }
            Mu::Exists(v, f) | Mu::Forall(v, f) => {
                let fresh = bound.insert(v.clone());
                f.free_vars_rec(bound, out);
                if fresh {
                    bound.remove(v);
                }
            }
            Mu::Pvar(_) => {}
        }
    }

    /// Every constant the formula mentions, in its query leaves and its
    /// `LIVE` atoms.
    pub fn constants(&self) -> BTreeSet<dcds_reldata::Value> {
        let mut out = BTreeSet::new();
        self.constants_rec(&mut out);
        out
    }

    fn constants_rec(&self, out: &mut BTreeSet<dcds_reldata::Value>) {
        match self {
            Mu::Query(f) => out.extend(f.constants()),
            Mu::Live(QTerm::Const(v)) => {
                out.insert(*v);
            }
            Mu::Live(QTerm::Var(_)) | Mu::Pvar(_) => {}
            Mu::Not(f)
            | Mu::Diamond(f)
            | Mu::Box_(f)
            | Mu::Lfp(_, f)
            | Mu::Gfp(_, f)
            | Mu::Exists(_, f)
            | Mu::Forall(_, f) => f.constants_rec(out),
            Mu::And(f, g) | Mu::Or(f, g) | Mu::Implies(f, g) => {
                f.constants_rec(out);
                g.constants_rec(out);
            }
        }
    }

    /// Free predicate variables.
    pub fn free_pred_vars(&self) -> BTreeSet<PredVar> {
        let mut out = BTreeSet::new();
        self.free_pred_vars_rec(&mut BTreeSet::new(), &mut out);
        out
    }

    fn free_pred_vars_rec(&self, bound: &mut BTreeSet<PredVar>, out: &mut BTreeSet<PredVar>) {
        match self {
            Mu::Query(_) | Mu::Live(_) => {}
            Mu::Pvar(z) => {
                if !bound.contains(z) {
                    out.insert(z.clone());
                }
            }
            Mu::Not(f) | Mu::Diamond(f) | Mu::Box_(f) => f.free_pred_vars_rec(bound, out),
            Mu::And(f, g) | Mu::Or(f, g) | Mu::Implies(f, g) => {
                f.free_pred_vars_rec(bound, out);
                g.free_pred_vars_rec(bound, out);
            }
            Mu::Exists(_, f) | Mu::Forall(_, f) => f.free_pred_vars_rec(bound, out),
            Mu::Lfp(z, f) | Mu::Gfp(z, f) => {
                let fresh = bound.insert(z.clone());
                f.free_pred_vars_rec(bound, out);
                if fresh {
                    bound.remove(z);
                }
            }
        }
    }

    /// True when the formula is closed (no free individual or predicate
    /// variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty() && self.free_pred_vars().is_empty()
    }

    /// Substitute a ground value for a free individual variable (used by
    /// `PROP`).
    pub fn substitute_var(&self, var: &Var, value: dcds_reldata::Value) -> Mu {
        match self {
            Mu::Query(f) => {
                let mut asg = dcds_folang::Assignment::new();
                asg.insert(var.clone(), value);
                Mu::Query(f.apply(&asg))
            }
            Mu::Live(t) => match t {
                QTerm::Var(v) if v == var => Mu::Live(QTerm::Const(value)),
                _ => self.clone(),
            },
            Mu::Not(f) => Mu::Not(Box::new(f.substitute_var(var, value))),
            Mu::And(f, g) => Mu::And(
                Box::new(f.substitute_var(var, value)),
                Box::new(g.substitute_var(var, value)),
            ),
            Mu::Or(f, g) => Mu::Or(
                Box::new(f.substitute_var(var, value)),
                Box::new(g.substitute_var(var, value)),
            ),
            Mu::Implies(f, g) => Mu::Implies(
                Box::new(f.substitute_var(var, value)),
                Box::new(g.substitute_var(var, value)),
            ),
            Mu::Exists(v, f) => {
                if v == var {
                    self.clone()
                } else {
                    Mu::Exists(v.clone(), Box::new(f.substitute_var(var, value)))
                }
            }
            Mu::Forall(v, f) => {
                if v == var {
                    self.clone()
                } else {
                    Mu::Forall(v.clone(), Box::new(f.substitute_var(var, value)))
                }
            }
            Mu::Diamond(f) => Mu::Diamond(Box::new(f.substitute_var(var, value))),
            Mu::Box_(f) => Mu::Box_(Box::new(f.substitute_var(var, value))),
            Mu::Pvar(_) => self.clone(),
            Mu::Lfp(z, f) => Mu::Lfp(z.clone(), Box::new(f.substitute_var(var, value))),
            Mu::Gfp(z, f) => Mu::Gfp(z.clone(), Box::new(f.substitute_var(var, value))),
        }
    }

    /// The FO query over the current state that a formula with no
    /// modality, fixpoint or predicate variable denotes: each connective
    /// and quantifier becomes its FO twin, and a `LIVE(t)` becomes `true`
    /// where a relational atom conjoined with it — through `∧`, through
    /// both sides of an `∨`, not through a binder of `t` — mentions `t`,
    /// since that atom already puts `t`'s value in the state's active
    /// domain. A conjunct so covered is dropped. Any other `LIVE` is the
    /// error.
    pub fn state_query(&self) -> Result<Formula, NotQuery> {
        self.lower(&BTreeSet::new())
    }

    /// [`Mu::state_query`] with the terms in `live` known to be in the
    /// active domain.
    fn lower(&self, live: &BTreeSet<QTerm>) -> Result<Formula, NotQuery> {
        Ok(match self {
            Mu::Query(q) => q.clone(),
            Mu::Live(t) if live.contains(t) => Formula::True,
            Mu::Live(_) => return Err(NotQuery::Live),
            Mu::Not(g) => g.lower(live)?.not(),
            Mu::And(g, h) => {
                let lg = g.lower(&live.union(&h.covered()).cloned().collect())?;
                let lh = h.lower(&live.union(&g.covered()).cloned().collect())?;
                match (g.as_ref(), h.as_ref()) {
                    (Mu::Live(_), _) => lh,
                    (_, Mu::Live(_)) => lg,
                    _ => lg.and(lh),
                }
            }
            Mu::Or(g, h) => g.lower(live)?.or(h.lower(live)?),
            Mu::Implies(g, h) => g.lower(live)?.implies(h.lower(live)?),
            Mu::Exists(v, g) => Formula::exists(v.clone(), g.lower(&without(live.clone(), v))?),
            Mu::Forall(v, g) => Formula::forall(v.clone(), g.lower(&without(live.clone(), v))?),
            Mu::Diamond(_) | Mu::Box_(_) => return Err(NotQuery::Modality),
            Mu::Lfp(..) | Mu::Gfp(..) => return Err(NotQuery::Fixpoint),
            Mu::Pvar(z) => return Err(NotQuery::Pvar(z.clone())),
        })
    }

    /// The terms every state satisfying the formula has in its active
    /// domain because a relational atom mentions them.
    fn covered(&self) -> BTreeSet<QTerm> {
        match self {
            Mu::Query(q) => atom_terms(q),
            Mu::And(g, h) => &g.covered() | &h.covered(),
            Mu::Or(g, h) => &g.covered() & &h.covered(),
            Mu::Exists(v, g) => without(g.covered(), v),
            _ => BTreeSet::new(),
        }
    }

    /// Size (number of AST nodes), counting query leaves as their own size.
    pub fn size(&self) -> usize {
        match self {
            Mu::Query(f) => f.size(),
            Mu::Live(_) | Mu::Pvar(_) => 1,
            Mu::Not(f)
            | Mu::Diamond(f)
            | Mu::Box_(f)
            | Mu::Exists(_, f)
            | Mu::Forall(_, f)
            | Mu::Lfp(_, f)
            | Mu::Gfp(_, f) => 1 + f.size(),
            Mu::And(f, g) | Mu::Or(f, g) | Mu::Implies(f, g) => 1 + f.size() + g.size(),
        }
    }
}

/// [`Mu::covered`] for an FO query.
fn atom_terms(f: &Formula) -> BTreeSet<QTerm> {
    match f {
        Formula::Atom(_, args) => args.iter().cloned().collect(),
        Formula::And(g, h) => &atom_terms(g) | &atom_terms(h),
        Formula::Or(g, h) => &atom_terms(g) & &atom_terms(h),
        Formula::Exists(v, g) => without(atom_terms(g), v),
        _ => BTreeSet::new(),
    }
}

fn without(mut terms: BTreeSet<QTerm>, v: &Var) -> BTreeSet<QTerm> {
    terms.remove(&QTerm::Var(v.clone()));
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_folang::QTerm;
    use dcds_reldata::Schema;

    fn atom(schema: &Schema, rel: &str, var: &str) -> Mu {
        Mu::Query(Formula::Atom(
            schema.rel_id(rel).unwrap(),
            vec![QTerm::var(var)],
        ))
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Stud", 1).unwrap();
        s
    }

    #[test]
    fn free_vars_through_modalities() {
        let s = schema();
        // exists X . live(X) & <> Stud(X): closed.
        let f = Mu::exists("X", Mu::live("X").and(atom(&s, "Stud", "X").diamond()));
        assert!(f.free_vars().is_empty());
        // live(X) & <> Stud(Y): X, Y free.
        let g = Mu::live("X").and(atom(&s, "Stud", "Y").diamond());
        assert_eq!(g.free_vars().len(), 2);
    }

    #[test]
    fn constants_collected_from_leaves_and_live_atoms() {
        let s = schema();
        let mut pool = dcds_reldata::ConstantPool::new();
        let (a, b, c) = (pool.intern("a"), pool.intern("b"), pool.intern("c"));
        let stud = s.rel_id("Stud").unwrap();
        let leaf = |v| Mu::Query(Formula::Atom(stud, vec![QTerm::Const(v)]));
        // nu Z . (Stud(a) | live(b)) & [] <> Stud(c) & Z
        let f = Mu::gfp(
            "Z",
            leaf(a)
                .or(Mu::live_const(b))
                .and(leaf(c).diamond().boxed())
                .and(Mu::Pvar(PredVar::new("Z"))),
        );
        assert_eq!(f.constants(), [a, b, c].into_iter().collect());
        assert!(atom(&s, "Stud", "X").constants().is_empty());
    }

    #[test]
    fn pred_vars_bound_by_fixpoints() {
        let s = schema();
        let f = Mu::lfp(
            "Z",
            atom(&s, "Stud", "X").or(Mu::Pvar(PredVar::new("Z")).diamond()),
        );
        assert!(f.free_pred_vars().is_empty());
        let g = Mu::Pvar(PredVar::new("Z")).diamond();
        assert_eq!(g.free_pred_vars().len(), 1);
    }

    #[test]
    fn substitution_grounds_queries() {
        let s = schema();
        let mut pool = dcds_reldata::ConstantPool::new();
        let a = pool.intern("a");
        let f = atom(&s, "Stud", "X").diamond();
        let g = f.substitute_var(&Var::new("X"), a);
        assert!(g.free_vars().is_empty());
    }

    #[test]
    fn state_query_drops_covered_live_only() {
        let mut s = schema();
        s.add_relation("Grad", 1).unwrap();
        let stud = || atom(&s, "Stud", "X");
        let grad = || atom(&s, "Grad", "X");
        let q = |f: &Mu| f.state_query();
        // Covered through ∧, under ¬, and through both sides of an ∨.
        let f = Mu::exists("X", Mu::live("X").and(stud()));
        assert_eq!(q(&f), q(&Mu::exists("X", stud())));
        let g = stud().and(Mu::live("X").and(grad()).not());
        assert!(q(&g).is_ok());
        let h = Mu::live("X").and(stud().or(grad()));
        assert_eq!(q(&h), q(&stud().or(grad())));
        // Not by one side of an ∨, a negated atom, or an atom whose `X` a
        // binder rebinds.
        let live = Err(NotQuery::Live);
        assert_eq!(
            q(&Mu::live("X").and(stud().or(Mu::query(Formula::True)))),
            live
        );
        assert_eq!(q(&Mu::live("X").and(stud().not())), live);
        assert_eq!(q(&Mu::live("X").and(Mu::exists("X", stud()))), live);
        assert_eq!(q(&stud().and(Mu::exists("X", Mu::live("X")))), live);
        // Modalities, fixpoints and predicate variables are not queries.
        assert_eq!(q(&stud().diamond()), Err(NotQuery::Modality));
        assert_eq!(q(&Mu::gfp("Z", stud())), Err(NotQuery::Fixpoint));
        let z = PredVar::new("Z");
        assert_eq!(q(&Mu::Pvar(z.clone())), Err(NotQuery::Pvar(z)));
    }

    #[test]
    fn live_all_builds_conjunction() {
        let f = Mu::live_all([Var::new("X"), Var::new("Y")]);
        assert_eq!(f.free_vars().len(), 2);
        assert_eq!(Mu::live_all([]), Mu::Query(Formula::True));
    }
}

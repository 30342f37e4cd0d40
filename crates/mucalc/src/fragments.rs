//! Fragment classification: µL ⊃ µLA ⊃ µLP.
//!
//! * **µLA** (Section 3.1): first-order quantification must be guarded —
//!   `∃x.LIVE(x) ∧ Φ` and `∀x.LIVE(x) → Φ`.
//! * **µLP** (Section 3.2): additionally, every modal operator guards the
//!   free variables of its body — `⟨−⟩(LIVE(~x) ∧ Φ)`,
//!   `[−](LIVE(~x) ∧ Φ)`, or the dual abbreviations
//!   `⟨−⟩(LIVE(~x) → Φ)`, `[−](LIVE(~x) → Φ)` — where `~x` is *exactly*
//!   the set of free variables of Φ, after substituting each bound
//!   predicate variable by its bounding fixpoint formula.
//! * A maximal quantifier block that the model checker fuses into one FO
//!   query (modal-free, and domain-independent: its plan needs no ADOM
//!   step) is a query leaf, guarded or not.
//! * A **closed-leaf** formula ([`is_closed_leaf`]) has no modality inside
//!   any quantifier block: its truth depends on states only up to
//!   isomorphism, so RCYCL may keep one state per class for it.
//! * All fragments require **syntactic monotonicity**: a bound predicate
//!   variable occurs only under an even number of negations (with `φ → ψ`
//!   counting as a negation of φ).

use crate::ast::{Mu, PredVar};
use crate::engine::fuse;
use dcds_folang::{QTerm, Var};
use std::collections::{BTreeMap, BTreeSet};

/// The fragment a formula belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fragment {
    /// Persistence-preserving µ-calculus (⊂ µLA).
    MuLP,
    /// History-preserving µ-calculus (⊂ µL).
    MuLA,
    /// Unrestricted first-order µ-calculus.
    MuL,
}

/// Why a formula fails a fragment/monotonicity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// A fixpoint variable occurs under an odd number of negations.
    NonMonotone(String),
    /// A fixpoint rebinds a predicate variable already in scope (we require
    /// unique binder names to keep substitution simple).
    RebindsPredVar(String),
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::NonMonotone(z) => {
                write!(
                    f,
                    "predicate variable {z} occurs under an odd number of negations"
                )
            }
            FragmentError::RebindsPredVar(z) => {
                write!(f, "predicate variable {z} is bound twice")
            }
        }
    }
}

impl std::error::Error for FragmentError {}

/// Check syntactic monotonicity (and binder uniqueness); then classify the
/// formula into the smallest fragment it belongs to. A quantifier block
/// the model checker fuses into one FO query counts as a query leaf: §3
/// reads a domain-independent modal-free block as a query `Q` over one
/// state, whatever guards its quantifiers carry.
pub fn classify(f: &Mu) -> Result<Fragment, FragmentError> {
    check_monotone(f, &mut BTreeMap::new(), true)?;
    let mut binders = BTreeSet::new();
    check_unique_binders(f, &mut binders)?;
    let f = &fuse(f);
    let mut env: BTreeMap<PredVar, Mu> = BTreeMap::new();
    if is_mu_lp(f, &mut env) {
        return Ok(Fragment::MuLP);
    }
    if is_mu_la(f) {
        return Ok(Fragment::MuLA);
    }
    Ok(Fragment::MuL)
}

/// Is the formula syntactically monotone in all its bound predicate
/// variables?
pub fn check_monotone(
    f: &Mu,
    polarity: &mut BTreeMap<PredVar, bool>,
    positive: bool,
) -> Result<(), FragmentError> {
    match f {
        Mu::Query(_) | Mu::Live(_) => Ok(()),
        Mu::Pvar(z) => {
            if let Some(&required) = polarity.get(z) {
                if required != positive {
                    return Err(FragmentError::NonMonotone(z.name().to_owned()));
                }
            }
            Ok(())
        }
        Mu::Not(g) => check_monotone(g, polarity, !positive),
        Mu::And(g, h) | Mu::Or(g, h) => {
            check_monotone(g, polarity, positive)?;
            check_monotone(h, polarity, positive)
        }
        Mu::Implies(g, h) => {
            check_monotone(g, polarity, !positive)?;
            check_monotone(h, polarity, positive)
        }
        Mu::Exists(_, g) | Mu::Forall(_, g) | Mu::Diamond(g) | Mu::Box_(g) => {
            check_monotone(g, polarity, positive)
        }
        Mu::Lfp(z, g) | Mu::Gfp(z, g) => {
            let prev = polarity.insert(z.clone(), positive);
            check_monotone(g, polarity, positive)?;
            match prev {
                Some(p) => {
                    polarity.insert(z.clone(), p);
                }
                None => {
                    polarity.remove(z);
                }
            }
            Ok(())
        }
    }
}

fn check_unique_binders(f: &Mu, seen: &mut BTreeSet<PredVar>) -> Result<(), FragmentError> {
    match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => Ok(()),
        Mu::Not(g) | Mu::Exists(_, g) | Mu::Forall(_, g) | Mu::Diamond(g) | Mu::Box_(g) => {
            check_unique_binders(g, seen)
        }
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => {
            check_unique_binders(g, seen)?;
            check_unique_binders(h, seen)
        }
        Mu::Lfp(z, g) | Mu::Gfp(z, g) => {
            if !seen.insert(z.clone()) {
                return Err(FragmentError::RebindsPredVar(z.name().to_owned()));
            }
            check_unique_binders(g, seen)
        }
    }
}

/// Whether `f` is *closed-leaf*: closed, and no quantifier block holds a
/// modality, so every maximal quantifier block is a closed FO sentence
/// about one state and no variable crosses a `[−]`/`⟨−⟩`. Such a formula
/// reads each state only through isomorphism-invariant labels (its
/// constants fixed), so the quotient of a generic system by the
/// isomorphisms that fix `ADOM(I₀)` and the spec's and formula's
/// constants, which is bisimilar to it, decides the formula. Formulas
/// whose variables cross a modal step (µLP with `LIVE` across `[−]`/`⟨−⟩`)
/// need value identity across steps, which only RCYCL's own pruning keeps
/// (Thm 5.4).
pub fn is_closed_leaf(f: &Mu) -> bool {
    fn modal(f: &Mu) -> bool {
        match f {
            Mu::Diamond(_) | Mu::Box_(_) => true,
            Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => false,
            Mu::Not(g) | Mu::Exists(_, g) | Mu::Forall(_, g) | Mu::Lfp(_, g) | Mu::Gfp(_, g) => {
                modal(g)
            }
            Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => modal(g) || modal(h),
        }
    }
    fn blocks_modal_free(f: &Mu) -> bool {
        match f {
            Mu::Exists(_, g) | Mu::Forall(_, g) => !modal(g),
            Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => true,
            Mu::Not(g) | Mu::Diamond(g) | Mu::Box_(g) | Mu::Lfp(_, g) | Mu::Gfp(_, g) => {
                blocks_modal_free(g)
            }
            Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => {
                blocks_modal_free(g) && blocks_modal_free(h)
            }
        }
    }
    f.is_closed() && blocks_modal_free(f)
}

/// µLA shape: quantifiers are LIVE-guarded.
///
/// Conjunctions are matched modulo flattening: `∃x. LIVE(x) ∧ φ₁ ∧ φ₂`
/// counts as guarded regardless of associativity, as does
/// `∀x. LIVE(x) → φ`.
pub fn is_mu_la(f: &Mu) -> bool {
    match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => true,
        Mu::Not(g) | Mu::Diamond(g) | Mu::Box_(g) | Mu::Lfp(_, g) | Mu::Gfp(_, g) => is_mu_la(g),
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => is_mu_la(g) && is_mu_la(h),
        Mu::Exists(v, g) => {
            let leaves = flatten_and(g);
            leaves.iter().any(|l| is_live_of(l, v)) && leaves.iter().all(|l| is_mu_la(l))
        }
        Mu::Forall(v, g) => match &**g {
            Mu::Implies(lhs, rhs) => {
                flatten_and(lhs).iter().any(|l| is_live_of(l, v)) && is_mu_la(lhs) && is_mu_la(rhs)
            }
            _ => false,
        },
    }
}

/// Flatten a conjunction into its leaves.
fn flatten_and(f: &Mu) -> Vec<&Mu> {
    match f {
        Mu::And(g, h) => {
            let mut out = flatten_and(g);
            out.extend(flatten_and(h));
            out
        }
        other => vec![other],
    }
}

fn is_live_of(f: &Mu, v: &Var) -> bool {
    matches!(f, Mu::Live(QTerm::Var(w)) if w == v)
}

/// µLP shape: µLA plus LIVE(~x)-guarded modalities, where ~x is exactly the
/// set of free variables of the body (with bound predicate variables
/// substituted by their bounding formula, per the paper's proviso).
pub fn is_mu_lp(f: &Mu, env: &mut BTreeMap<PredVar, Mu>) -> bool {
    match f {
        Mu::Query(_) | Mu::Live(_) | Mu::Pvar(_) => true,
        Mu::Not(g) => is_mu_lp(g, env),
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => is_mu_lp(g, env) && is_mu_lp(h, env),
        Mu::Exists(v, g) => {
            let leaves = flatten_and(g);
            leaves.iter().any(|l| is_live_of(l, v)) && leaves.iter().all(|l| is_mu_lp(l, env))
        }
        Mu::Forall(v, g) => match &**g {
            Mu::Implies(lhs, rhs) => {
                flatten_and(lhs).iter().any(|l| is_live_of(l, v))
                    && is_mu_lp(lhs, env)
                    && is_mu_lp(rhs, env)
            }
            _ => false,
        },
        Mu::Diamond(g) | Mu::Box_(g) => {
            // Body must be LIVE(~x) ∧ Φ or LIVE(~x) → Φ with ~x exactly the
            // expanded free variables of Φ. Conjunctions are matched modulo
            // flattening: the LIVE leaves form the guard, the rest form Φ.
            match &**g {
                Mu::Implies(lhs, rhs) => {
                    let Some(guard_vars) = live_conjunction_vars(lhs) else {
                        return false;
                    };
                    guard_vars == expanded_free_vars(rhs, env) && is_mu_lp(rhs, env)
                }
                other => {
                    let leaves = flatten_and(other);
                    let mut guard_vars = BTreeSet::new();
                    let mut body_leaves = Vec::new();
                    for l in leaves {
                        match l {
                            Mu::Live(QTerm::Var(v)) => {
                                guard_vars.insert(v.clone());
                            }
                            _ => body_leaves.push(l),
                        }
                    }
                    let mut free = BTreeSet::new();
                    for l in &body_leaves {
                        free.extend(expanded_free_vars(l, env));
                    }
                    // Guarded LIVE leaves may also appear in Φ; what matters
                    // is that every free variable of Φ is guarded and no
                    // extraneous variable is.
                    free.is_subset(&guard_vars)
                        && guard_vars
                            .iter()
                            .all(|v| free.contains(v) || body_leaves.is_empty())
                        && body_leaves.iter().all(|l| is_mu_lp(l, env))
                }
            }
        }
        Mu::Lfp(z, g) | Mu::Gfp(z, g) => {
            env.insert(z.clone(), f.clone());
            let ok = is_mu_lp(g, env);
            env.remove(z);
            ok
        }
    }
}

/// If `f` is a conjunction of LIVE(x) leaves, return the variable set.
fn live_conjunction_vars(f: &Mu) -> Option<BTreeSet<Var>> {
    match f {
        Mu::Live(QTerm::Var(v)) => Some([v.clone()].into_iter().collect()),
        Mu::And(g, h) => {
            let mut out = live_conjunction_vars(g)?;
            out.extend(live_conjunction_vars(h)?);
            Some(out)
        }
        _ => None,
    }
}

/// Free individual variables of `f`, substituting bound predicate variables
/// by their bounding fixpoint formulas (the µLP proviso). `env` maps each
/// in-scope predicate variable to its binder.
pub fn expanded_free_vars(f: &Mu, env: &BTreeMap<PredVar, Mu>) -> BTreeSet<Var> {
    match f {
        Mu::Pvar(z) => match env.get(z) {
            // The binder's free variables are the variables the recursion
            // "carries" through Z.
            Some(binder) => binder.free_vars(),
            None => BTreeSet::new(),
        },
        Mu::Query(_) | Mu::Live(_) => f.free_vars(),
        Mu::Not(g) | Mu::Diamond(g) | Mu::Box_(g) => expanded_free_vars(g, env),
        Mu::And(g, h) | Mu::Or(g, h) | Mu::Implies(g, h) => {
            let mut out = expanded_free_vars(g, env);
            out.extend(expanded_free_vars(h, env));
            out
        }
        Mu::Exists(v, g) | Mu::Forall(v, g) => {
            let mut out = expanded_free_vars(g, env);
            out.remove(v);
            out
        }
        Mu::Lfp(_, g) | Mu::Gfp(_, g) => expanded_free_vars(g, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_folang::Formula;
    use dcds_reldata::Schema;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Stud", 1).unwrap();
        s.add_relation("Grad", 2).unwrap();
        s
    }

    fn atom1(s: &Schema, rel: &str, v: &str) -> Mu {
        Mu::Query(Formula::Atom(s.rel_id(rel).unwrap(), vec![QTerm::var(v)]))
    }

    fn atom2(s: &Schema, rel: &str, v: &str, w: &str) -> Mu {
        Mu::Query(Formula::Atom(
            s.rel_id(rel).unwrap(),
            vec![QTerm::var(v), QTerm::var(w)],
        ))
    }

    /// The µLA formula of Example 3.2.
    fn example_3_2(s: &Schema) -> Mu {
        Mu::gfp(
            "X",
            Mu::forall(
                "V",
                Mu::live("V").implies(
                    atom1(s, "Stud", "V").implies(Mu::lfp(
                        "Y",
                        Mu::exists("W", Mu::live("W").and(atom2(s, "Grad", "V", "W")))
                            .or(Mu::Pvar(PredVar::new("Y")).diamond()),
                    )),
                ),
            )
            .and(Mu::Pvar(PredVar::new("X")).boxed()),
        )
    }

    /// The µLP variant of Example 3.3 (first formula).
    fn example_3_3(s: &Schema) -> Mu {
        Mu::gfp(
            "X",
            Mu::forall(
                "V",
                Mu::live("V").implies(atom1(s, "Stud", "V").implies(Mu::lfp(
                    "Y",
                    Mu::exists("W", Mu::live("W").and(atom2(s, "Grad", "V", "W"))).or(Mu::Diamond(
                        Box::new(Mu::live("V").and(Mu::Pvar(PredVar::new("Y")))),
                    )),
                ))),
            )
            .and(Mu::Pvar(PredVar::new("X")).boxed()),
        )
    }

    #[test]
    fn example_3_2_is_mu_la_not_mu_lp() {
        let s = schema();
        let f = example_3_2(&s);
        // The inner ⟨−⟩Y is unguarded while Y carries the free variable V:
        // µLA but not µLP.
        assert_eq!(classify(&f).unwrap(), Fragment::MuLA);
    }

    #[test]
    fn example_3_3_is_mu_lp() {
        let s = schema();
        let f = example_3_3(&s);
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
    }

    #[test]
    fn unguarded_quantifier_is_full_mu_l() {
        let s = schema();
        // ∃V. Stud(V) without LIVE guard is a domain-independent query
        // over one state: a query leaf.
        let f = Mu::exists("V", atom1(&s, "Stud", "V"));
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
        // ∃V. ¬Stud(V) needs an ADOM step, and ∃V. ⟨−⟩Stud(V) a modality:
        // unguarded quantifiers of full µL.
        let g = Mu::exists("V", atom1(&s, "Stud", "V").not());
        assert_eq!(classify(&g).unwrap(), Fragment::MuL);
        let h = Mu::exists("V", atom1(&s, "Stud", "V").diamond());
        assert_eq!(classify(&h).unwrap(), Fragment::MuL);
    }

    #[test]
    fn closed_leaf_formulas_keep_variables_inside_one_state() {
        let s = schema();
        let z = || Mu::Pvar(PredVar::new("Z"));
        let block = || Mu::exists("V", Mu::live("V").and(atom1(&s, "Stud", "V")));
        // AG of a closed block, and no quantifier at all.
        assert!(is_closed_leaf(&Mu::gfp("Z", block().and(z().boxed()))));
        assert!(is_closed_leaf(&Mu::Query(Formula::True).diamond()));
        // A block over a fixpoint variable but no modality.
        assert!(is_closed_leaf(&Mu::gfp("Z", block().and(z()))));
        // V crosses a step: Examples 3.2 and 3.3, and ∃V. LIVE(V) ∧ ⟨−⟩….
        assert!(!is_closed_leaf(&example_3_2(&s)));
        assert!(!is_closed_leaf(&example_3_3(&s)));
        let crossing = Mu::exists(
            "V",
            Mu::live("V").and(Mu::live("V").and(atom1(&s, "Stud", "V")).diamond()),
        );
        assert!(!is_closed_leaf(&crossing));
        // Open formulas are not closed-leaf.
        assert!(!is_closed_leaf(&atom1(&s, "Stud", "V")));
        assert!(!is_closed_leaf(&z()));
    }

    #[test]
    fn nonmonotone_rejected() {
        let s = schema();
        let f = Mu::lfp(
            "Z",
            Mu::Pvar(PredVar::new("Z")).not().or(atom1(&s, "Stud", "V")),
        );
        assert!(matches!(classify(&f), Err(FragmentError::NonMonotone(_))));
    }

    #[test]
    fn negation_of_negation_is_monotone() {
        let s = schema();
        let f = Mu::lfp(
            "Z",
            Mu::Pvar(PredVar::new("Z"))
                .not()
                .not()
                .or(atom1(&s, "Stud", "V")),
        );
        assert!(classify(&f).is_ok());
    }

    #[test]
    fn implication_lhs_counts_as_negation() {
        let f = Mu::lfp(
            "Z",
            Mu::Pvar(PredVar::new("Z")).implies(Mu::Query(Formula::True)),
        );
        assert!(matches!(classify(&f), Err(FragmentError::NonMonotone(_))));
    }

    #[test]
    fn duplicate_binders_rejected() {
        let f = Mu::lfp("Z", Mu::lfp("Z", Mu::Pvar(PredVar::new("Z"))));
        assert!(matches!(
            classify(&f),
            Err(FragmentError::RebindsPredVar(_))
        ));
    }

    #[test]
    fn closed_diamond_body_is_mu_lp() {
        let s = schema();
        // AG-style safety: νX. (¬∃x.live(x)∧Stud(x)) ∧ [−]X — bodies carry
        // no free variables, so the unguarded box is fine for µLP.
        let f = Mu::gfp(
            "X",
            Mu::exists("V", Mu::live("V").and(atom1(&s, "Stud", "V")))
                .not()
                .and(Mu::Pvar(PredVar::new("X")).boxed()),
        );
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
    }
}

//! Safety-fragment extraction: recognising µL formulas that are really
//! reachability questions.
//!
//! The symbolic backward-reachability engine (`dcds-symbolic`) decides a
//! single question: *can the system reach a state satisfying `Bad`?* Two
//! µL shapes compile to it:
//!
//! ```text
//! AG φ   =  νZ. φ ∧ [−]Z      holds  ⟺  ¬φ is NOT reachable
//! EF φ   =  µZ. φ ∨ ⟨−⟩Z      holds  ⟺   φ is reachable
//! ```
//!
//! exactly the shapes produced by [`crate::sugar::ag`] / [`crate::sugar::ef`]
//! (and by writing the fixpoints out by hand). `φ` must be a *state
//! property*, one FO query over the current state: [`Mu::state_query`],
//! the lowering the model checker's fusion pass and the fragment
//! classifier share, must accept it. So it has no nested fixpoint,
//! modality or predicate variable, and a `LIVE(x)` only where a relational
//! atom conjoined with it mentions `x` (the lowering drops it; any other
//! `LIVE` needs the persistence machinery of the explicit engines).
//! Everything else is rejected with an error that names the obstruction,
//! so `dcds check --engine symbolic` can explain itself.
//!
//! The extractor returns the *bad* condition — the FO formula whose
//! reachability is being asked — together with the polarity mapping the
//! reachability answer back to the original formula's verdict.

use crate::ast::{Mu, NotQuery, PredVar};
use dcds_folang::Formula;
use std::fmt;

/// How a reachability answer maps back to the original formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafetyMode {
    /// The formula was `AG φ`: it holds iff `bad = ¬φ` is unreachable.
    AlwaysGood,
    /// The formula was `EF φ`: it holds iff `bad = φ` is reachable.
    EventuallyBad,
}

/// A µL formula compiled to a reachability question.
#[derive(Debug, Clone)]
pub struct SafetyProperty {
    /// Polarity of the answer.
    pub mode: SafetyMode,
    /// The condition whose reachability is asked. For `AG φ` this is the
    /// *negation* of the invariant (not yet normalised — the symbolic
    /// engine pushes the negation while building clauses).
    pub bad: Formula,
}

impl SafetyProperty {
    /// Map a (definitive) reachability answer to the formula's verdict.
    pub fn verdict(&self, reachable: bool) -> bool {
        match self.mode {
            SafetyMode::AlwaysGood => !reachable,
            SafetyMode::EventuallyBad => reachable,
        }
    }
}

/// Why a formula is not in the safety fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyError {
    /// The top level is neither `νZ. φ ∧ [−]Z` nor `µZ. φ ∨ ⟨−⟩Z`.
    NotSafetyShape,
    /// The state property mentions the fixpoint variable outside the
    /// single modal recursion slot.
    RecursiveBody(String),
    /// The state property contains a construct FO queries cannot express.
    NonQueryBody(&'static str),
}

impl fmt::Display for SafetyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyError::NotSafetyShape => write!(
                f,
                "not in the safety fragment: expected `nu Z . phi & [] Z` (AG) or \
                 `mu Z . phi | <> Z` (EF) with phi a first-order state property"
            ),
            SafetyError::RecursiveBody(z) => write!(
                f,
                "not in the safety fragment: the fixpoint variable {z} occurs inside \
                 the state property"
            ),
            SafetyError::NonQueryBody(what) => write!(
                f,
                "not in the safety fragment: the state property contains {what}, \
                 which is not a first-order query over the current state"
            ),
        }
    }
}

impl std::error::Error for SafetyError {}

/// Recognise a safety formula and extract the reachability question.
pub fn extract_safety(f: &Mu) -> Result<SafetyProperty, SafetyError> {
    let (mode, z, phi) = split_ag_ef(f).ok_or(SafetyError::NotSafetyShape)?;
    let prop = phi.state_query().map_err(|e| match e {
        NotQuery::Pvar(w) if w == *z => SafetyError::RecursiveBody(w.name().to_owned()),
        NotQuery::Pvar(_) => SafetyError::NonQueryBody("a free predicate variable"),
        NotQuery::Live => {
            SafetyError::NonQueryBody("LIVE(·) without a relational atom over its term conjoined")
        }
        NotQuery::Modality => SafetyError::NonQueryBody("a nested modality"),
        NotQuery::Fixpoint => SafetyError::NonQueryBody("a nested fixpoint"),
    })?;
    let bad = match mode {
        SafetyMode::AlwaysGood => Formula::Not(Box::new(prop)),
        SafetyMode::EventuallyBad => prop,
    };
    Ok(SafetyProperty { mode, bad })
}

/// Match `νZ. φ ∧ [−]Z` (AG) or `µZ. φ ∨ ⟨−⟩Z` (EF), either operand
/// order, returning the mode, `Z` and `φ`. `φ` may still mention `Z`, and
/// may be any µL formula.
pub fn split_ag_ef(f: &Mu) -> Option<(SafetyMode, &PredVar, &Mu)> {
    let (mode, z, l, r) = match f {
        Mu::Gfp(z, body) => match body.as_ref() {
            Mu::And(l, r) => (SafetyMode::AlwaysGood, z, l, r),
            _ => return None,
        },
        Mu::Lfp(z, body) => match body.as_ref() {
            Mu::Or(l, r) => (SafetyMode::EventuallyBad, z, l, r),
            _ => return None,
        },
        _ => return None,
    };
    // The recursion slot: `[−]Z` under ν, `⟨−⟩Z` under µ.
    let is_step = |g: &Mu| match (mode, g) {
        (SafetyMode::AlwaysGood, Mu::Box_(inner))
        | (SafetyMode::EventuallyBad, Mu::Diamond(inner)) => {
            matches!(inner.as_ref(), Mu::Pvar(w) if w == z)
        }
        _ => false,
    };
    if is_step(l) {
        Some((mode, z, r))
    } else if is_step(r) {
        Some((mode, z, l))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sugar::{af, ag, ef};
    use dcds_folang::QTerm;
    use dcds_reldata::RelId;

    fn atom() -> Mu {
        Mu::Query(Formula::Atom(RelId::from_index(0), vec![QTerm::var("X")]))
    }

    #[test]
    fn ag_extracts_negated_invariant() {
        let phi = Mu::exists("X", atom());
        let p = extract_safety(&ag(phi)).unwrap();
        assert_eq!(p.mode, SafetyMode::AlwaysGood);
        assert!(matches!(p.bad, Formula::Not(_)));
        assert!(p.verdict(false));
        assert!(!p.verdict(true));
    }

    #[test]
    fn ef_extracts_goal() {
        let phi = Mu::exists("X", atom());
        let p = extract_safety(&ef(phi)).unwrap();
        assert_eq!(p.mode, SafetyMode::EventuallyBad);
        assert!(p.verdict(true));
        assert!(!p.verdict(false));
    }

    #[test]
    fn commuted_operands_accepted() {
        // νZ. [−]Z ∧ φ and µZ. ⟨−⟩Z ∨ φ are the same formulas.
        let z = PredVar::new("Z");
        let phi = Mu::exists("X", atom());
        let ag2 = Mu::Gfp(
            z.clone(),
            Box::new(Mu::Pvar(z.clone()).boxed().and(phi.clone())),
        );
        assert!(extract_safety(&ag2).is_ok());
        let ef2 = Mu::Lfp(z.clone(), Box::new(Mu::Pvar(z).diamond().or(phi)));
        assert!(extract_safety(&ef2).is_ok());
    }

    #[test]
    fn liveness_and_live_rejected() {
        let phi = Mu::exists("X", atom());
        // AF is not a safety shape.
        assert!(matches!(
            extract_safety(&af(phi.clone())),
            Err(SafetyError::NotSafetyShape)
        ));
        // A LIVE conjoined with an atom over its variable is dropped: the
        // bad condition is the LIVE-free twin's.
        let covered = ag(Mu::exists("X", Mu::live("X").and(atom())));
        assert_eq!(
            extract_safety(&covered).unwrap().bad,
            extract_safety(&ag(phi.clone())).unwrap().bad
        );
        // Any other LIVE in the state property is outside the fragment.
        let uncovered = ag(Mu::exists("X", Mu::live("X")).not());
        assert!(matches!(
            extract_safety(&uncovered),
            Err(SafetyError::NonQueryBody(what)) if what.contains("LIVE")
        ));
        // A plain query is not a safety formula either.
        assert!(matches!(
            extract_safety(&phi),
            Err(SafetyError::NotSafetyShape)
        ));
    }

    #[test]
    fn recursive_body_rejected() {
        // νZ. (φ ∧ Z) ∧ [−]Z — Z occurs inside the state property.
        let z = PredVar::new("Z");
        let phi = Mu::exists("X", atom()).and(Mu::Pvar(z.clone()));
        let f = Mu::Gfp(z.clone(), Box::new(phi.and(Mu::Pvar(z).boxed())));
        assert!(matches!(
            extract_safety(&f),
            Err(SafetyError::RecursiveBody(_))
        ));
    }
}

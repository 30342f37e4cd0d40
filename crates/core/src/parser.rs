//! Textual DCDS specification format.
//!
//! ```text
//! schema   { P 1; Q 2; }
//! services { f 1 det; in_name 0 nondet; }
//! init     { P(a); Q(a, a); }
//! constraint P(X) & Q(Y, Z) -> X = Y;          // equality constraint
//! assert forall X . P(X) -> P(X);              // FO integrity constraint
//! action alpha(X) {
//!     Q(a, a) & P(X) ~> R(X);
//!     P(Y) & !R(Y)   ~> P(Y), Q(f(Y), g(Y));   // heads may call services
//! }
//! rule P(X) => alpha;                          // free vars of the guard
//! ```                                          // are alpha's parameters
//!
//! Effect bodies are formulas whose top-level relation atoms and
//! equalities form `q⁺` and whose remaining conjuncts form the filter `Q⁻`
//! ([`split_body`]; disjunction at the top level is rejected — write one
//! effect per disjunct, which is the UCQ reading the paper gives).

use crate::action::Effect;
use crate::dcds::Dcds;
use crate::term::ETerm;
use dcds_folang::{ConjunctiveQuery, Formula, QTerm, Ucq, Var};
use dcds_reldata::RelId;
use std::collections::BTreeSet;

/// Parse a complete DCDS specification.
///
/// This is the strict entry point: a syntax error, or else the first of
/// [`crate::spec::DcdsSpec::defects`] (the first error `dcds lint`
/// reports), aborts with a `line:col: message` string. For structured
/// errors keep the [`crate::spec::SpecError`]: `parse_spec(src)?.lower()`;
/// for every defect at once, `parse_spec(src)?.defects()`.
pub fn parse_dcds(src: &str) -> Result<Dcds, String> {
    let spec = crate::spec::parse_spec(src)
        .map_err(crate::spec::SpecError::from)
        .map_err(|e| e.to_string())?;
    spec.lower().map_err(|e| e.to_string())
}

/// The conjunctive reading of an effect body `q⁺ ∧ Q⁻`: its top-level
/// relation atoms and equalities form `q⁺`, every other conjunct the
/// filter `Q⁻`.
#[derive(Debug, Clone, Default)]
pub struct BodySplit {
    /// Top-level relation atoms.
    pub atoms: Vec<(RelId, Vec<QTerm>)>,
    /// Top-level equalities.
    pub equalities: Vec<(QTerm, QTerm)>,
    /// Every other conjunct, in order.
    pub filters: Vec<Formula>,
}

/// Split an effect body into its conjuncts; `None` when it is disjunctive
/// at the top level.
pub fn split_body(body: &Formula) -> Option<BodySplit> {
    fn go(f: &Formula, out: &mut BodySplit) -> bool {
        match f {
            Formula::And(g, h) => go(g, out) && go(h, out),
            Formula::Atom(rel, terms) => {
                out.atoms.push((*rel, terms.clone()));
                true
            }
            Formula::Eq(t1, t2) => {
                out.equalities.push((t1.clone(), t2.clone()));
                true
            }
            Formula::True => true,
            Formula::Or(_, _) => false,
            other => {
                out.filters.push(other.clone());
                true
            }
        }
    }
    let mut out = BodySplit::default();
    go(body, &mut out).then_some(out)
}

impl BodySplit {
    /// The variables of the atoms: the ones `q⁺` binds.
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        let terms = self.atoms.iter().flat_map(|(_, terms)| terms);
        terms
            .filter_map(|t| match t {
                QTerm::Var(v) => Some(v.clone()),
                QTerm::Const(_) => None,
            })
            .collect()
    }

    /// The effect `q⁺ ∧ Q⁻ ⇝ head`, for a body whose equality and filter
    /// variables are all atom variables or parameters (the spec checker's
    /// binding rule).
    pub fn into_effect(self, head: Vec<(RelId, Vec<ETerm>)>) -> Effect {
        let qplus = if self.atoms.is_empty() && self.equalities.is_empty() {
            Ucq::truth()
        } else {
            Ucq::single(ConjunctiveQuery {
                head: self.atom_vars().into_iter().collect(),
                atoms: self.atoms,
                equalities: self.equalities,
            })
        };
        Effect {
            qplus,
            qminus: Formula::conj(self.filters),
            head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE_4_1: &str = r"
        schema   { Q 2; P 1; R 1; }
        services { f 1 det; g 1 det; }
        init     { P(a); Q(a, a); }
        action alpha() {
            Q(a, a) & P(X) ~> R(X);
            P(X)           ~> P(X), Q(f(X), g(X));
        }
        rule true => alpha;
    ";

    #[test]
    fn parses_example_4_1() {
        let dcds = parse_dcds(EXAMPLE_4_1).unwrap();
        assert_eq!(dcds.data.schema.len(), 3);
        assert_eq!(dcds.process.services.len(), 2);
        assert_eq!(dcds.process.actions.len(), 1);
        assert_eq!(dcds.process.rules.len(), 1);
        assert_eq!(dcds.data.initial.len(), 2);
        assert!(dcds.is_deterministic());
        let alpha = &dcds.process.actions[0];
        assert_eq!(alpha.effects.len(), 2);
        assert_eq!(alpha.effects[1].called_functions().len(), 2);
    }

    #[test]
    fn parses_constraints() {
        let src = r"
            schema { P 1; Q 2; }
            init   { P(a); Q(a, a); }
            constraint P(X) & Q(Y, Z) -> X = Y;
            action alpha() { P(X) ~> P(X); }
            rule true => alpha;
        ";
        let dcds = parse_dcds(src).unwrap();
        assert_eq!(dcds.data.constraints.len(), 1);
    }

    #[test]
    fn initial_violation_is_rejected() {
        let src = r"
            schema { P 1; Q 2; }
            init   { P(a); Q(b, a); }
            constraint P(X) & Q(Y, Z) -> X = Y;
            action alpha() { P(X) ~> P(X); }
            rule true => alpha;
        ";
        assert!(parse_dcds(src).is_err());
    }

    #[test]
    fn filter_conjuncts_become_qminus() {
        let src = r"
            schema { P 1; R 1; }
            init   { P(a); }
            action alpha() { P(X) & !R(X) ~> R(X); }
            rule true => alpha;
        ";
        let dcds = parse_dcds(src).unwrap();
        let e = &dcds.process.actions[0].effects[0];
        assert_eq!(e.qplus.disjuncts[0].atoms.len(), 1);
        assert_ne!(e.qminus, Formula::True);
    }

    #[test]
    fn top_level_disjunction_rejected() {
        let src = r"
            schema { P 1; R 1; }
            init   { P(a); }
            action alpha() { P(X) | R(X) ~> R(X); }
            rule true => alpha;
        ";
        assert!(parse_dcds(src).is_err());
    }

    #[test]
    fn unknown_action_in_rule_rejected() {
        let src = r"
            schema { P 1; }
            init   { P(a); }
            action alpha() { P(X) ~> P(X); }
            rule true => beta;
        ";
        assert!(parse_dcds(src).is_err());
    }

    #[test]
    fn rule_with_parameters() {
        let src = r"
            schema { P 1; R 1; }
            init   { P(a); }
            action alpha(X) { true ~> R(X); }
            rule P(X) => alpha;
        ";
        let dcds = parse_dcds(src).unwrap();
        assert_eq!(dcds.process.actions[0].params.len(), 1);
    }

    #[test]
    fn rule_param_mismatch_rejected() {
        let src = r"
            schema { P 1; R 1; }
            init   { P(a); }
            action alpha(X, Y) { true ~> R(X); }
            rule P(X) => alpha;
        ";
        assert!(parse_dcds(src).is_err());
    }

    #[test]
    fn quoted_constants_in_init_and_heads() {
        // 'ready To Verify' occurs only in an effect head. The paper assumes
        // w.l.o.g. that such constants appear in I0; we apply the w.l.o.g.
        // automatically by making them rigid (see `Dcds::rigid_constants`).
        let src = r"
            schema { Status 1; }
            init   { Status('ready For Request'); }
            action go() { Status(X) ~> Status('ready To Verify'); }
            rule true => go;
        ";
        let dcds = parse_dcds(src).unwrap();
        let v = dcds.data.pool.get("ready To Verify").unwrap();
        assert!(dcds.rigid_constants().contains(&v));
    }
}

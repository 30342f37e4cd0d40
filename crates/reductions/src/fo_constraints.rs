//! Section 6: arbitrary FO integrity constraints via equality constraints.
//!
//! Given a DCDS and a closed FO sentence `IC`, add a binary auxiliary
//! relation `__aux` initialised with a pair of distinct constants, copy it
//! in every action, and add the equality constraint
//! `¬IC ∧ __aux(x, y) → x = y`. A transition into a state violating `IC`
//! would then equate two distinct constants — impossible — so exactly the
//! `IC`-satisfying successors survive.

use dcds_core::{BaseTerm, Dcds, ETerm, Effect};
use dcds_folang::{ConjunctiveQuery, EqualityConstraint, Formula, QTerm, Ucq, Var};
use dcds_reldata::Tuple;

/// Encode the FO sentence as an equality constraint over an auxiliary
/// relation (instead of a native [`dcds_folang::FoConstraint`]).
pub fn encode_fo_constraint(dcds: &Dcds, ic: &Formula) -> Result<Dcds, String> {
    if let Some(v) = ic.free_vars().into_iter().next() {
        return Err(format!(
            "integrity constraints must be closed; {} is free",
            v.name()
        ));
    }
    let mut out = dcds.clone();
    let aux = out
        .data
        .schema
        .add_relation("__aux", 2)
        .map_err(|e| e.to_string())?;
    let ca = out.data.pool.intern("__auxA");
    let cb = out.data.pool.intern("__auxB");
    out.data.initial.insert(aux, Tuple::from([ca, cb]));
    // Copy __aux in every action.
    let x = Var::new("_AX");
    let y = Var::new("_AY");
    for action in &mut out.process.actions {
        action.effects.push(Effect {
            qplus: Ucq::single(ConjunctiveQuery {
                head: vec![x.clone(), y.clone()],
                atoms: vec![(aux, vec![QTerm::Var(x.clone()), QTerm::Var(y.clone())])],
                equalities: vec![],
            }),
            qminus: Formula::True,
            head: vec![(
                aux,
                vec![
                    ETerm::Base(BaseTerm::Var(x.clone())),
                    ETerm::Base(BaseTerm::Var(y.clone())),
                ],
            )],
        });
    }
    // ec := ¬IC ∧ aux(x, y) → x = y.
    let premise = ic.clone().not().and(Formula::Atom(
        aux,
        vec![QTerm::Var(x.clone()), QTerm::Var(y.clone())],
    ));
    out.data.constraints.push(
        EqualityConstraint::new(premise, vec![(QTerm::Var(x), QTerm::Var(y))])
            .map_err(|e| e.to_string())?,
    );
    out.validate().map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::explore::{explore_nondet, Limits};
    use dcds_core::{DcdsBuilder, ServiceKind};
    use dcds_folang::parse_formula;

    /// A system that may write duplicate-id artifacts: IC forbids two P
    /// facts with the same first column and different second columns.
    fn system() -> Dcds {
        DcdsBuilder::new()
            .relation("P", 2)
            .service("inp", 0, ServiceKind::Nondeterministic)
            .init_fact("P", &["a", "b"])
            .action("alpha", &[], |a| {
                a.effect("P(X, Y)", "P(X, Y)");
                a.effect("P(X, Y)", "P(X, inp())");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn ic(dcds: &mut Dcds) -> Formula {
        parse_formula(
            "forall X, Y, Z . P(X, Y) & P(X, Z) -> Y = Z",
            &mut dcds.data.schema,
            &mut dcds.data.pool,
        )
        .unwrap()
    }

    #[test]
    fn encoding_blocks_exactly_the_violations() {
        let mut base = system();
        let sentence = ic(&mut base);
        // Native FO constraint version.
        let mut native = base.clone();
        native
            .data
            .fo_constraints
            .push(dcds_folang::FoConstraint::new(sentence.clone()).unwrap());
        // Encoded version.
        let encoded = encode_fo_constraint(&base, &sentence).unwrap();

        let limits = Limits {
            max_states: 300,
            max_depth: 2,
        };
        let unconstrained = explore_nondet(&base, limits);
        let nat = explore_nondet(&native, limits);
        let enc = explore_nondet(&encoded, limits);

        // The unconstrained system reaches duplicate-id states; the others
        // do not.
        let p = base.data.schema.rel_id("P").unwrap();
        let has_violation = |ts: &dcds_core::Ts| {
            ts.state_ids().any(|s| {
                let db = ts.db(s);
                let tuples: Vec<_> = db.tuples(p).collect();
                tuples
                    .iter()
                    .any(|t1| tuples.iter().any(|t2| t1[0] == t2[0] && t1[1] != t2[1]))
            })
        };
        assert!(has_violation(&unconstrained.ts));
        assert!(!has_violation(&nat.ts));
        assert!(!has_violation(&enc.ts));

        // And the two constraining mechanisms admit the same original-schema
        // behaviours (modulo the auxiliary relation).
        use dcds_reldata::Facts;
        use std::collections::BTreeSet;
        let orig: BTreeSet<_> = base.data.schema.rel_ids().collect();
        let rigid = base.rigid_constants();
        let keys = |ts: &dcds_core::Ts| -> BTreeSet<dcds_reldata::CanonKey> {
            ts.state_ids()
                .map(|s| Facts::from_instance(&ts.db(s).project(&orig)).canonical_key(&rigid))
                .collect()
        };
        assert_eq!(keys(&nat.ts), keys(&enc.ts));
    }

    #[test]
    fn open_sentence_rejected() {
        let mut base = system();
        let open = parse_formula("P(X, Y)", &mut base.data.schema, &mut base.data.pool).unwrap();
        assert!(encode_fo_constraint(&base, &open).is_err());
    }
}

//! The positive approximate `S⁺` (Section 4.3).
//!
//! `S⁺` over-approximates the data flow of `S`: it drops the equality (and
//! FO) constraints, turns every condition–action rule into `true ↦ α⁺`,
//! strips the parameters from action signatures (the parameter variables of
//! `q⁺` become free variables), and deletes the negative filters `Q⁻`.
//! Lemma 4.1: if `S⁺` is run-bounded, so is `S`.

use dcds_core::{Action, ActionId, CaRule, DataLayer, Dcds, Effect, ProcessLayer};
use dcds_folang::{ConjunctiveQuery, Formula, Ucq, Var};
use std::collections::BTreeSet;

/// Build the positive approximate of a DCDS.
///
/// The result is assembled directly (without re-validation): stripping the
/// parameters can leave a head variable unbound when an action writes a
/// parameter that no positive atom constrains — the approximate is then a
/// purely *analytic* object (its graphs are still well-defined), which is
/// how the paper uses it.
pub fn positive_approximate(dcds: &Dcds) -> Dcds {
    let data = DataLayer {
        pool: dcds.working_pool(),
        schema: dcds.data.schema.clone(),
        constraints: Vec::new(),
        fo_constraints: Vec::new(),
        initial: dcds.data.initial.clone(),
        formula_constants: dcds.data.formula_constants.clone(),
    };
    let mut actions = Vec::new();
    for action in &dcds.process.actions {
        let params: BTreeSet<Var> = action.params.iter().cloned().collect();
        let effects = action
            .effects
            .iter()
            .map(|e| {
                // Parameters used by the effect become head variables of q+
                // where they occur in atoms; head terms keep them as free
                // variables either way.
                let disjuncts = e
                    .qplus
                    .disjuncts
                    .iter()
                    .map(|cq| {
                        let mut head = cq.head.clone();
                        for v in cq.atom_vars() {
                            if params.contains(&v) && !head.contains(&v) {
                                head.push(v);
                            }
                        }
                        ConjunctiveQuery {
                            head,
                            atoms: cq.atoms.clone(),
                            equalities: cq.equalities.clone(),
                        }
                    })
                    .collect();
                Effect {
                    qplus: Ucq { disjuncts },
                    qminus: Formula::True,
                    head: e.head.clone(),
                }
            })
            .collect();
        actions.push(Action::new(
            &format!("{}+", action.name),
            Vec::new(),
            effects,
        ));
    }
    let rules = (0..actions.len())
        .map(|ix| CaRule {
            condition: Formula::True,
            action: ActionId::from_index(ix),
        })
        .collect();
    Dcds::from_parts(
        data,
        ProcessLayer {
            services: dcds.process.services.clone(),
            actions,
            rules,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    #[test]
    fn approximate_strips_filters_and_guards() {
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .constraint("P(X) & R(Y) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("P(X) & !R(X)", "R(X)");
            })
            .rule("P(X) & X = a", "alpha")
            .build();
        // The rule has a free var X but alpha has no params: invalid — use a
        // parameterised variant instead.
        assert!(dcds.is_err());

        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .constraint("P(X) & R(Y) -> X = Y")
            .action("alpha", &["X"], |a| {
                a.effect("P(X) & !R(X)", "R(X)");
            })
            .rule("P(X)", "alpha")
            .build()
            .unwrap();
        let plus = positive_approximate(&dcds);
        assert!(plus.data.constraints.is_empty());
        assert_eq!(plus.process.rules.len(), 1);
        assert_eq!(plus.process.rules[0].condition, Formula::True);
        let e = &plus.process.actions[0].effects[0];
        assert_eq!(e.qminus, Formula::True);
        // X was a parameter occurring in the atom: now a head variable.
        assert!(e.qplus.disjuncts[0].head.contains(&Var::new("X")));
        assert!(plus.process.actions[0].params.is_empty());
    }

    #[test]
    fn approximate_is_executable_on_example_4_3() {
        let dcds = DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let plus = positive_approximate(&dcds);
        // The approximate of a parameterless, filterless DCDS is itself (up
        // to action renaming) and still validates.
        assert!(plus.validate().is_ok());
    }
}

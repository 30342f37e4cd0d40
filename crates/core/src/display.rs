//! Rendering a DCDS back to the textual specification format of
//! [`crate::parser`]. The output re-parses to a system with the same
//! semantics (schema, services, initial instance, constraints, actions and
//! rules), enabling storage, diffing, and golden-file workflows.

use crate::action::Effect;
use crate::dcds::Dcds;
use crate::term::{BaseTerm, ETerm};
use dcds_folang::pretty::FormulaDisplay;
use dcds_folang::Formula;
use dcds_reldata::Value;
use std::fmt;

/// Wraps a [`Dcds`] for display in the specification syntax.
pub struct DcdsDisplay<'a> {
    dcds: &'a Dcds,
}

impl<'a> DcdsDisplay<'a> {
    /// Wrap a system for display.
    pub fn new(dcds: &'a Dcds) -> Self {
        Self { dcds }
    }

    fn constant(&self, v: Value) -> String {
        let name = self.dcds.data.pool.name(v);
        let simple = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if simple {
            name.to_owned()
        } else {
            format!("'{name}'")
        }
    }

    fn base_term(&self, t: &BaseTerm) -> String {
        match t {
            BaseTerm::Var(v) => v.name().to_owned(),
            BaseTerm::Const(c) => self.constant(*c),
        }
    }

    fn eterm(&self, t: &ETerm) -> String {
        match t {
            ETerm::Base(b) => self.base_term(b),
            ETerm::Call(f, args) => {
                let args: Vec<String> = args.iter().map(|a| self.base_term(a)).collect();
                format!(
                    "{}({})",
                    self.dcds.process.services.name(*f),
                    args.join(", ")
                )
            }
        }
    }

    /// The effect body as a formula: `q⁺ ∧ Q⁻` re-assembled. (UCQ bodies
    /// with several disjuncts cannot be expressed as one spec effect; they
    /// are emitted as one effect per disjunct, which has identical
    /// semantics because effect results are unioned.)
    fn effect_lines(&self, e: &Effect, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let schema = &self.dcds.data.schema;
        let pool = &self.dcds.data.pool;
        let heads: Vec<String> = e
            .head
            .iter()
            .map(|(rel, terms)| {
                let terms: Vec<String> = terms.iter().map(|t| self.eterm(t)).collect();
                if terms.is_empty() {
                    format!("{}()", schema.name(*rel))
                } else {
                    format!("{}({})", schema.name(*rel), terms.join(", "))
                }
            })
            .collect();
        for cq in &e.qplus.disjuncts {
            let mut conjuncts: Vec<Formula> = cq
                .atoms
                .iter()
                .map(|(rel, terms)| Formula::Atom(*rel, terms.clone()))
                .collect();
            conjuncts.extend(
                cq.equalities
                    .iter()
                    .map(|(a, b)| Formula::Eq(a.clone(), b.clone())),
            );
            if e.qminus != Formula::True {
                conjuncts.push(e.qminus.clone());
            }
            let body = Formula::conj(conjuncts);
            writeln!(
                out,
                "    {} ~> {};",
                FormulaDisplay::new(&body, schema, pool),
                heads.join(", ")
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for DcdsDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dcds = self.dcds;
        let schema = &dcds.data.schema;
        let pool = &dcds.data.pool;
        writeln!(f, "schema {{")?;
        for (_, rs) in schema.iter() {
            // Skip nothing: every relation is declared.
            writeln!(f, "    {} {};", rs.name(), rs.arity())?;
        }
        writeln!(f, "}}")?;
        if !dcds.process.services.is_empty() {
            writeln!(f, "services {{")?;
            for (_, decl) in dcds.process.services.iter() {
                let kind = match decl.kind() {
                    crate::service::ServiceKind::Deterministic => "det",
                    crate::service::ServiceKind::Nondeterministic => "nondet",
                };
                writeln!(f, "    {} {} {kind};", decl.name(), decl.arity())?;
            }
            writeln!(f, "}}")?;
        }
        writeln!(f, "init {{")?;
        for (rel, t) in dcds.data.initial.facts() {
            let args: Vec<String> = t.iter().map(|v| self.constant(v)).collect();
            if args.is_empty() {
                writeln!(f, "    {}();", schema.name(rel))?;
            } else {
                writeln!(f, "    {}({});", schema.name(rel), args.join(", "))?;
            }
        }
        writeln!(f, "}}")?;
        for ec in &dcds.data.constraints {
            let eqs = Formula::conj(
                ec.equalities()
                    .iter()
                    .map(|(a, b)| Formula::Eq(a.clone(), b.clone())),
            );
            writeln!(
                f,
                "constraint {} -> {};",
                FormulaDisplay::new(ec.query(), schema, pool),
                FormulaDisplay::new(&eqs, schema, pool)
            )?;
        }
        for ic in &dcds.data.fo_constraints {
            writeln!(
                f,
                "assert {};",
                FormulaDisplay::new(ic.sentence(), schema, pool)
            )?;
        }
        for action in &dcds.process.actions {
            let params: Vec<&str> = action.params.iter().map(|p| p.name()).collect();
            writeln!(f, "action {}({}) {{", action.name, params.join(", "))?;
            for e in &action.effects {
                self.effect_lines(e, f)?;
            }
            writeln!(f, "}}")?;
        }
        for rule in &dcds.process.rules {
            writeln!(
                f,
                "rule {} => {};",
                FormulaDisplay::new(&rule.condition, schema, pool),
                dcds.process.actions[rule.action.index()].name
            )?;
        }
        Ok(())
    }
}

/// Render a DCDS to the spec syntax.
pub fn to_spec(dcds: &Dcds) -> String {
    DcdsDisplay::new(dcds).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::parser::parse_dcds;
    use crate::service::ServiceKind;

    fn sample() -> Dcds {
        DcdsBuilder::new()
            .relation("Tru", 0)
            .relation("P", 1)
            .relation("Q", 2)
            .service("f", 1, ServiceKind::Deterministic)
            .service("inp", 0, ServiceKind::Nondeterministic)
            .init_fact("Tru", &[])
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .fo_constraint("forall X . P(X) -> P(X)")
            .action("alpha", &["V"], |a| {
                a.effect("P(X) & !Q(X, X)", "P(X), Q(f(X), inp()), Q(V, a)");
                a.effect("Tru()", "Tru()");
            })
            .rule("P(V)", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn spec_round_trips() {
        let d1 = sample();
        let spec = to_spec(&d1);
        let d2 = parse_dcds(&spec).unwrap_or_else(|e| panic!("reparse failed: {e}\n{spec}"));
        // Semantic equality: same schema names/arities, same services,
        // same number of actions/effects/rules, same initial instance size,
        // same constraints count.
        assert_eq!(d1.data.schema.len(), d2.data.schema.len());
        for (id, rs) in d1.data.schema.iter() {
            let other = d2.data.schema.rel_id(rs.name()).expect("relation kept");
            assert_eq!(d2.data.schema.arity(other), rs.arity());
            let _ = id;
        }
        assert_eq!(d1.process.services.len(), d2.process.services.len());
        assert_eq!(d1.process.actions.len(), d2.process.actions.len());
        assert_eq!(d1.process.rules.len(), d2.process.rules.len());
        assert_eq!(d1.data.initial.len(), d2.data.initial.len());
        assert_eq!(d1.data.constraints.len(), d2.data.constraints.len());
        assert_eq!(d1.data.fo_constraints.len(), d2.data.fo_constraints.len());
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        // The stronger check: the reparsed system's abstraction is
        // bisimilar to the original's.
        let d1 = sample();
        let d2 = parse_dcds(&to_spec(&d1)).unwrap();
        let e1 = crate::explore::explore_det(
            &d1,
            crate::explore::Limits {
                max_states: 100,
                max_depth: 2,
            },
        );
        let e2 = crate::explore::explore_det(
            &d2,
            crate::explore::Limits {
                max_states: 100,
                max_depth: 2,
            },
        );
        assert_eq!(e1.ts.num_states(), e2.ts.num_states());
        assert_eq!(e1.ts.num_edges(), e2.ts.num_edges());
    }

    #[test]
    fn quoted_constants_survive() {
        let d1 = DcdsBuilder::new()
            .relation("Status", 1)
            .init_fact("Status", &["ready For Request"])
            .action("go", &[], |a| {
                a.effect("Status(X)", "Status('ready For Request')");
            })
            .rule("true", "go")
            .build()
            .unwrap();
        let spec = to_spec(&d1);
        assert!(spec.contains("'ready For Request'"));
        assert!(parse_dcds(&spec).is_ok());
    }
}

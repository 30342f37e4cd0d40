//! Programmatic construction of DCDSs.
//!
//! The builder writes its declarations as a specification in the textual
//! format of [`crate::parser`] and parses that with [`parse_dcds`], so
//! built and written systems go through one checker and one lowering.
//! Formulas and effect heads are given as strings in the same syntax:
//!
//! ```
//! use dcds_core::{DcdsBuilder, ServiceKind};
//! let dcds = DcdsBuilder::new()
//!     .relation("P", 1)
//!     .relation("Q", 2)
//!     .service("f", 1, ServiceKind::Deterministic)
//!     .init_fact("P", &["a"])
//!     .action("copy", &[], |a| {
//!         a.effect("P(X)", "P(X), Q(X, f(X))");
//!     })
//!     .rule("true", "copy")
//!     .build()
//!     .unwrap();
//! assert!(dcds.is_deterministic());
//! ```
//!
//! The text lists the init facts (arguments quoted), then each action's
//! effects, then the rules, constraints and asserts: the order in which
//! the parser interns constants, which fixes the system's constant pool.

use crate::dcds::Dcds;
use crate::parser::parse_dcds;
use crate::service::ServiceKind;
use std::fmt::Write;

/// Accumulates the effects of one action during building.
pub struct ActionSpec {
    effects: String,
}

impl ActionSpec {
    /// Add an effect `body ~> head` (both in the surface syntax of
    /// [`crate::parser`]).
    pub fn effect(&mut self, body: &str, head: &str) -> &mut Self {
        let _ = writeln!(self.effects, "    {body} ~> {head};");
        self
    }
}

/// Fluent builder for [`Dcds`]: each call appends to one block of the
/// specification text.
#[derive(Default)]
pub struct DcdsBuilder {
    schema: String,
    services: String,
    init: String,
    actions: String,
    rules: String,
    constraints: String,
    asserts: String,
}

impl DcdsBuilder {
    /// Start a fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a relation.
    pub fn relation(mut self, name: &str, arity: usize) -> Self {
        let _ = writeln!(self.schema, "    {name} {arity};");
        self
    }

    /// Declare a service.
    pub fn service(mut self, name: &str, arity: usize, kind: ServiceKind) -> Self {
        let kind = match kind {
            ServiceKind::Deterministic => "det",
            ServiceKind::Nondeterministic => "nondet",
        };
        let _ = writeln!(self.services, "    {name} {arity} {kind};");
        self
    }

    /// Add an initial fact with constant arguments.
    pub fn init_fact(mut self, rel: &str, args: &[&str]) -> Self {
        let args: Vec<String> = args.iter().map(|a| format!("'{a}'")).collect();
        let _ = writeln!(self.init, "    {rel}({});", args.join(", "));
        self
    }

    /// Add an equality constraint written `premise -> eq & eq & ...`.
    pub fn constraint(mut self, src: &str) -> Self {
        let _ = writeln!(self.constraints, "constraint {src};");
        self
    }

    /// Add an FO integrity constraint (a closed formula).
    pub fn fo_constraint(mut self, src: &str) -> Self {
        let _ = writeln!(self.asserts, "assert {src};");
        self
    }

    /// Declare an action with named parameters; configure its effects in the
    /// closure.
    pub fn action(mut self, name: &str, params: &[&str], f: impl FnOnce(&mut ActionSpec)) -> Self {
        let mut spec = ActionSpec {
            effects: String::new(),
        };
        f(&mut spec);
        let _ = write!(
            self.actions,
            "action {name}({}) {{\n{}}}\n",
            params.join(", "),
            spec.effects
        );
        self
    }

    /// Add a condition–action rule.
    pub fn rule(mut self, condition: &str, action: &str) -> Self {
        let _ = writeln!(self.rules, "rule {condition} => {action};");
        self
    }

    /// Parse, check and lower the specification text; an error is
    /// [`parse_dcds`]'s `line:col: message` for that text.
    pub fn build(self) -> Result<Dcds, String> {
        parse_dcds(&format!(
            "schema {{\n{}}}\nservices {{\n{}}}\ninit {{\n{}}}\n{}{}{}{}",
            self.schema,
            self.services,
            self.init,
            self.actions,
            self.rules,
            self.constraints,
            self.asserts
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_example_4_3() {
        // α : { R(x) ⇝ Q(f(x)),  Q(x) ⇝ R(x) }
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
        assert_eq!(dcds.process.actions[0].effects.len(), 2);
    }

    #[test]
    fn builder_reports_first_error() {
        let r = DcdsBuilder::new().relation("P", 1).relation("P", 2).build();
        assert!(r.is_err());
    }

    #[test]
    fn constraint_strings_are_decomposed() {
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("Q", 2)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("P(X)", "P(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        assert_eq!(dcds.data.constraints.len(), 1);
    }

    #[test]
    fn constants_are_interned_in_block_order() {
        // Declared in reverse, the constants still enter the pool as the
        // text lists them: init facts, effects (body, then head), rules,
        // constraints, asserts.
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .fo_constraint("forall X . P(X) -> X != e")
            .constraint("P(X) & P(Y) & X = d -> X = Y")
            .rule("P(r)", "alpha")
            .action("alpha", &[], |a| {
                a.effect("P(b)", "P(h)");
            })
            .init_fact("P", &["a"])
            .build()
            .unwrap();
        let pool = &dcds.data.pool;
        let names: Vec<&str> = pool.values().map(|v| pool.name(v)).collect();
        assert_eq!(names, ["a", "b", "h", "r", "d", "e"]);
    }

    #[test]
    fn fo_constraint_strings() {
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .init_fact("P", &["a"])
            .fo_constraint("forall X . P(X) -> P(X)")
            .action("alpha", &[], |a| {
                a.effect("P(X)", "P(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        assert_eq!(dcds.data.fo_constraints.len(), 1);
    }

    #[test]
    fn bad_head_rejected() {
        let r = DcdsBuilder::new()
            .relation("P", 1)
            .init_fact("P", &["a"])
            .action("alpha", &[], |a| {
                a.effect("P(X)", "P(X, X)");
            })
            .rule("true", "alpha")
            .build();
        assert!(r.is_err());
    }
}

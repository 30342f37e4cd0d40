//! The data layer `D = ⟨C, R, E, I₀⟩`.

use dcds_folang::{Constraint, EqualityConstraint, FoConstraint};
use dcds_reldata::{ConstantPool, Instance, Schema, Value};
use std::collections::BTreeSet;

/// The data layer of a DCDS (Section 2.1): constants, schema, equality
/// constraints and an initial instance. Arbitrary FO integrity constraints
/// (Section 6) are supported natively alongside equality constraints;
/// `dcds-reductions::fo_constraints` implements the paper's encoding of the
/// former into the latter for cross-validation.
#[derive(Debug, Clone)]
pub struct DataLayer {
    /// The constant domain `C` (finitely materialised, unboundedly mintable).
    pub pool: ConstantPool,
    /// The database schema `R`.
    pub schema: Schema,
    /// Equality constraints `E`.
    pub constraints: Vec<EqualityConstraint>,
    /// FO integrity constraints (active-domain semantics).
    pub fo_constraints: Vec<FoConstraint>,
    /// The initial instance `I₀`.
    pub initial: Instance,
    /// The constants of the formula being checked. Footnote 2 assumes
    /// w.l.o.g. that they appear in `I₀`; they are rigid without being
    /// added to it, so the engines offer them as commitment targets and
    /// every isomorphism fixes them.
    pub formula_constants: BTreeSet<Value>,
}

impl DataLayer {
    /// A data layer with no constraints.
    pub fn new(pool: ConstantPool, schema: Schema, initial: Instance) -> Self {
        DataLayer {
            pool,
            schema,
            constraints: Vec::new(),
            fo_constraints: Vec::new(),
            initial,
            formula_constants: BTreeSet::new(),
        }
    }

    /// `ADOM(I₀)` and the formula's constants — the *rigid* constants
    /// fixed pointwise by every isomorphism/bisimulation in the framework.
    /// Constants mentioned in formulas are assumed (w.l.o.g., footnote 2)
    /// to appear in `I₀`.
    pub fn rigid_constants(&self) -> BTreeSet<Value> {
        let mut rigid = self.initial.active_domain();
        rigid.extend(self.formula_constants.iter().copied());
        rigid
    }

    /// Every constraint of the layer: the equality constraints, then the
    /// FO integrity constraints.
    pub fn all_constraints(&self) -> impl Iterator<Item = &dyn Constraint> {
        let eq = self.constraints.iter().map(|c| c as &dyn Constraint);
        eq.chain(self.fo_constraints.iter().map(|c| c as &dyn Constraint))
    }

    /// Does an instance satisfy every constraint of the layer?
    pub fn satisfies_constraints(&self, inst: &Instance) -> bool {
        self.all_constraints().all(|c| c.satisfied(inst))
    }

    /// Validate the layer itself: `I₀` conforms to the schema and satisfies
    /// the constraints.
    pub fn validate(&self) -> Result<(), String> {
        self.initial
            .check_schema(&self.schema)
            .map_err(|e| e.to_string())?;
        if !self.satisfies_constraints(&self.initial) {
            return Err("initial instance violates the data-layer constraints".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_folang::ast::QTerm;
    use dcds_folang::parse_formula;
    use dcds_reldata::Tuple;

    #[test]
    fn validate_checks_schema_and_constraints() {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let premise = parse_formula("P(X) & Q(Y, Z)", &mut schema, &mut pool).unwrap();
        let ec =
            EqualityConstraint::new(premise, vec![(QTerm::var("X"), QTerm::var("Y"))]).unwrap();

        let good = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([a, a]))]);
        let mut layer = DataLayer::new(pool.clone(), schema.clone(), good);
        layer.constraints.push(ec.clone());
        assert!(layer.validate().is_ok());

        let bad = Instance::from_facts([(p, Tuple::from([a])), (q, Tuple::from([b, a]))]);
        let mut layer2 = DataLayer::new(pool, schema, bad);
        layer2.constraints.push(ec);
        assert!(layer2.validate().is_err());
    }

    #[test]
    fn rigid_constants_are_initial_adom() {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let mut layer = DataLayer::new(pool, schema, Instance::from_facts([(p, Tuple::from([a]))]));
        assert_eq!(layer.rigid_constants(), [a].into_iter().collect());
        // A formula's constants are rigid too, without entering `I₀`.
        layer.formula_constants.insert(b);
        assert_eq!(layer.rigid_constants(), [a, b].into_iter().collect());
        assert_eq!(layer.initial.len(), 1);
    }
}

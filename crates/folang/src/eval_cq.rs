//! Evaluation cases for (unions of) conjunctive queries, test-only.
//!
//! [`crate::plan`] is the one FO evaluator. Each case here runs a small
//! query through a [`CompiledPlan`], checks it against the active-domain
//! [`crate::eval::answers`], and pins the expected rows.

#[cfg(test)]
mod tests {
    use crate::ast::{Assignment, Formula, QTerm, Var};
    use crate::eval::answers;
    use crate::plan::{CompiledPlan, EvalCtx};
    use crate::ucq::{ConjunctiveQuery, Ucq};
    use dcds_reldata::{ConstantPool, Instance, RelId, Schema, Tuple};
    use std::collections::BTreeSet;

    fn setup() -> (ConstantPool, Schema, RelId, RelId, Instance) {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let c = pool.intern("c");
        let inst = Instance::from_facts([
            (p, Tuple::from([a])),
            (p, Tuple::from([b])),
            (q, Tuple::from([a, b])),
            (q, Tuple::from([b, c])),
        ]);
        (pool, schema, p, q, inst)
    }

    /// The plan's answers, after checking that they equal the
    /// active-domain answers.
    fn eval_ucq(ucq: &Ucq, inst: &Instance) -> BTreeSet<Assignment> {
        let plan = CompiledPlan::compile_ucq(ucq, &Formula::True, &BTreeSet::new());
        let scanned = plan.eval(&EvalCtx::scan(inst), &Assignment::new());
        assert_eq!(answers(&ucq.to_formula(), inst), scanned);
        scanned
    }

    fn eval_cq(cq: &ConjunctiveQuery, inst: &Instance) -> BTreeSet<Assignment> {
        eval_ucq(&Ucq::single(cq.clone()), inst)
    }

    #[test]
    fn single_atom_scan() {
        let (_, _, p, _, inst) = setup();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        assert_eq!(eval_cq(&cq, &inst).len(), 2);
    }

    #[test]
    fn join_two_atoms() {
        let (pool, _, p, q, inst) = setup();
        let b = pool.get("b").unwrap();
        // X : P(X), Q(X, Y), P(Y) — only X=a gives Y=b in P.
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![
                (p, vec![QTerm::var("X")]),
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        let only = ans.into_iter().next().unwrap();
        assert_eq!(only.get(&Var::new("Y")), Some(&b));
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let (_, _, _, q, inst) = setup();
        // Q(X, X) — no such tuple.
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("X")])],
            equalities: vec![],
        };
        assert!(eval_cq(&cq, &inst).is_empty());
    }

    #[test]
    fn constants_filter_tuples() {
        let (pool, _, _, q, inst) = setup();
        let a = pool.get("a").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![(q, vec![QTerm::Const(a), QTerm::var("Y")])],
            equalities: vec![],
        };
        assert_eq!(eval_cq(&cq, &inst).len(), 1);
    }

    #[test]
    fn equality_side_conditions() {
        let (pool, _, _, q, inst) = setup();
        let b = pool.get("b").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("Y")])],
            equalities: vec![(QTerm::var("Y"), QTerm::Const(b))],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        assert_eq!(
            ans.into_iter().next().unwrap().get(&Var::new("X")),
            Some(&pool.get("a").unwrap())
        );
    }

    #[test]
    fn projection_deduplicates() {
        let (_, _, _, q, inst) = setup();
        // Head empty: both Q tuples project to the one empty row.
        let cq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("Y")])],
            equalities: vec![],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Assignment::new()));
    }

    #[test]
    fn truth_query_yields_empty_assignment() {
        let inst = Instance::new();
        let ans = eval_cq(&ConjunctiveQuery::truth(), &inst);
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let (_, _, p, q, inst) = setup();
        let cq1 = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        let cq2 = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("Y"), QTerm::var("X")])],
            equalities: vec![],
        };
        let ucq = Ucq {
            disjuncts: vec![cq1, cq2],
        };
        // P gives {a, b}; Q second column gives {b, c}; union {a, b, c}.
        assert_eq!(eval_ucq(&ucq, &inst).len(), 3);
    }
}

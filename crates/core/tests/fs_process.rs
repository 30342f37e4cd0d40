//! End-to-end use of the finite-state process extension: the paper remarks
//! (Section 2.2) that its results generalise to "any process formalism
//! whose control flow is finite-state"; `FsProcess::compile` realises the
//! remark by compiling an automaton into plain condition–action rules over
//! a `__pc` relation. This test runs the compiled system and checks the
//! control flow is respected.

use dcds_core::explore::{explore_nondet, Limits};
use dcds_core::{
    Action, ActionId, DataLayer, Dcds, ETerm, Effect, FsProcess, ProcessLayer, ServiceCatalog,
    ServiceKind,
};
use dcds_folang::{ConjunctiveQuery, Formula, Ucq, Var};
use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

/// Build a two-phase producer/consumer as a finite-state process:
/// q0 --produce--> q1 --consume--> q0.
fn build() -> Dcds {
    let mut pool = ConstantPool::new();
    let mut schema = Schema::new();
    let buf = schema.add_relation("Buf", 1).unwrap();
    let out = schema.add_relation("Out", 1).unwrap();
    let mut services = ServiceCatalog::new();
    let gen = services
        .add("gen", 0, ServiceKind::Nondeterministic)
        .unwrap();

    // produce: true ⇝ Buf(gen()).
    let produce = Action::new(
        "produce",
        vec![],
        vec![Effect {
            qplus: Ucq::truth(),
            qminus: Formula::True,
            head: vec![(buf, vec![ETerm::Call(gen, vec![])])],
        }],
    );
    // consume: Buf(x) ⇝ Out(x).
    let consume = Action::new(
        "consume",
        vec![],
        vec![Effect {
            qplus: Ucq::single(ConjunctiveQuery {
                head: vec![Var::new("X")],
                atoms: vec![(buf, vec![dcds_folang::QTerm::var("X")])],
                equalities: vec![],
            }),
            qminus: Formula::True,
            head: vec![(out, vec![ETerm::var("X")])],
        }],
    );
    let actions = vec![produce, consume];
    let fsp = FsProcess {
        num_states: 2,
        initial: 0,
        transitions: vec![
            (0, Formula::True, ActionId::from_index(0), 1),
            (1, Formula::True, ActionId::from_index(1), 0),
        ],
    };
    let compiled = fsp.compile(&mut schema, &mut pool, &actions).unwrap();
    let mut initial = Instance::new();
    let (pc_rel, pc_args) = compiled.initial_pc_fact.clone();
    initial.insert(pc_rel, Tuple::from(pc_args));
    let data = DataLayer::new(pool, schema, initial);
    let process = ProcessLayer {
        services,
        actions: compiled.actions,
        rules: compiled.rules,
    };
    Dcds::new(data, process).expect("compiled FS process validates")
}

#[test]
fn control_flow_alternates() {
    let dcds = build();
    let pc = dcds.data.schema.rel_id("__pc").unwrap();
    let buf = dcds.data.schema.rel_id("Buf").unwrap();
    let out = dcds.data.schema.rel_id("Out").unwrap();
    let q0 = dcds.data.pool.get("q0").unwrap();
    let q1 = dcds.data.pool.get("q1").unwrap();
    let res = explore_nondet(
        &dcds,
        Limits {
            max_states: 200,
            max_depth: 4,
        },
    );
    assert!(res.ts.num_states() > 1);
    for s in res.ts.state_ids() {
        let db = res.ts.db(s);
        // Exactly one program counter per state.
        assert_eq!(db.cardinality(pc), 1);
        let at_q0 = db.contains(pc, &Tuple::from([q0]));
        let at_q1 = db.contains(pc, &Tuple::from([q1]));
        assert!(at_q0 ^ at_q1);
        // Invariants of the phases: Buf is nonempty exactly in q1 states
        // (just produced), Out nonempty only in q0 states (just consumed) —
        // except the initial state, which is q0 with nothing yet.
        if at_q1 {
            assert_eq!(db.cardinality(buf), 1);
            assert_eq!(db.cardinality(out), 0);
        } else if db.cardinality(out) > 0 {
            assert_eq!(db.cardinality(buf), 0);
        }
    }
}

#[test]
fn compiled_system_is_analyzable() {
    // The compiled system flows through every static analysis untouched.
    let dcds = build();
    let df = dcds_analysis::dataflow_graph(&dcds);
    // Produce feeds fresh values into Buf; consume copies Buf to Out; no
    // relation sustains itself: GR-acyclic.
    assert!(dcds_analysis::gr_acyclicity::is_gr_acyclic(&df));
    let res = dcds_abstraction::rcycl(&dcds, 500);
    assert!(res.complete);
}

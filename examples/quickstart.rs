//! Quickstart: build a DCDS, analyse it statically, construct its finite
//! abstraction, and model-check µ-calculus properties.
//!
//! Run with `cargo run --example quickstart`.

use dcds_verify::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Model: Example 4.3 of the paper, with a nondeterministic service.
    //    One action ping-pongs a value through an external service:
    //        α : { R(x) ⇝ Q(f(x)),  Q(x) ⇝ R(x) }
    // ------------------------------------------------------------------
    let dcds = DcdsBuilder::new()
        .relation("R", 1)
        .relation("Q", 1)
        .service("f", 1, ServiceKind::Nondeterministic)
        .init_fact("R", &["a"])
        .action("alpha", &[], |a| {
            a.effect("R(X)", "Q(f(X))");
            a.effect("Q(X)", "R(X)");
        })
        .rule("true", "alpha")
        .build()
        .expect("well-formed DCDS");
    println!(
        "DCDS built: {} relations, {} actions",
        dcds.data.schema.len(),
        dcds.process.actions.len()
    );

    // ------------------------------------------------------------------
    // 2. Static analysis. The dependency graph has a cycle through a
    //    special edge (not weakly acyclic → run-boundedness not
    //    guaranteed), but the dataflow graph is GR-acyclic, which
    //    guarantees state-boundedness (Theorem 5.6).
    // ------------------------------------------------------------------
    let dg = dependency_graph(&dcds);
    let df = dataflow_graph(&dcds);
    println!("weakly acyclic:  {}", is_weakly_acyclic(&dg));
    println!("GR-acyclic:      {}", is_gr_acyclic(&df));

    // ------------------------------------------------------------------
    // 3. Finite faithful abstraction: Algorithm RCYCL (Theorem 5.4)
    //    terminates because the system is state-bounded, yielding a
    //    pruning persistence-bisimilar to the infinite concrete system.
    // ------------------------------------------------------------------
    let pruning = rcycl(&dcds, 1_000);
    println!(
        "RCYCL: complete = {}, {} states, {} edges, {} values used",
        pruning.complete,
        pruning.ts.num_states(),
        pruning.ts.num_edges(),
        pruning.used_values.len()
    );

    // ------------------------------------------------------------------
    // 4. Model checking µLP properties on the abstraction. The surface
    //    syntax: `live(X)` guards, `<>`/`[]` modalities, `mu`/`nu`
    //    fixpoints.
    // ------------------------------------------------------------------
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    let props = [
        // Invariant: some tuple is always live.
        (
            "always some tuple",
            "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        ),
        // From every state, an R-state is reachable.
        (
            "AG EF R nonempty",
            "nu Z . (mu Y . (exists X . live(X) & R(X)) | <> Y) & [] Z",
        ),
        // R and Q never hold together (the action replaces the whole state).
        (
            "mutual exclusion",
            "nu Z . !(exists X . live(X) & R(X) & Q(X)) & [] Z",
        ),
    ];
    for (name, src) in props {
        let phi = parse_mu(src, &mut schema, &mut pool).expect("parsable");
        println!(
            "fragment {:?}  |  {name}: {}",
            classify(&phi).unwrap(),
            check(&phi, &pruning.ts).unwrap()
        );
    }

    // ------------------------------------------------------------------
    // 5. Sanity: a bounded concrete prefix agrees with the abstraction on
    //    the witnessed state bound.
    // ------------------------------------------------------------------
    let prefix = explore_nondet(
        &dcds,
        Limits {
            max_states: 200,
            max_depth: 4,
        },
    );
    println!(
        "concrete prefix: {} states, max |adom| = {} (abstraction: {})",
        prefix.ts.num_states(),
        prefix.ts.max_state_adom(),
        pruning.ts.max_state_adom()
    );
}

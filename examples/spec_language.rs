//! The textual DCDS specification language: parse a spec, run the static
//! analyses, build the abstraction, and emit Graphviz.
//!
//! Run with `cargo run --example spec_language`.

use dcds_verify::prelude::*;

/// A small order-fulfilment process written in the surface syntax.
const SPEC: &str = r"
    % An order pipeline: orders arrive with external payloads, get picked,
    % then shipped; shipped orders leave the system.
    schema {
        Tru 0;            % the paper's built-in `true` relation
        Queue 1;          % orders waiting
        Picked 1;         % orders being handled
        Shipped 1;        % orders on the truck
    }
    services {
        newOrder 0 nondet;   % the outside world submits order payloads
    }
    init { Tru(); }

    action Receive() {
        Tru() ~> Tru(), Queue(newOrder());
        Picked(X) ~> Picked(X);
        Shipped(X) ~> Shipped(X);
    }
    action Pick() {
        Tru() ~> Tru();
        Queue(X) ~> Picked(X);
        Shipped(X) ~> Shipped(X);
    }
    action Ship() {
        Tru() ~> Tru();
        Picked(X) ~> Shipped(X);
        Queue(X) ~> Queue(X);
    }
    rule true => Receive;
    rule true => Pick;
    rule true => Ship;
";

fn main() {
    let dcds = parse_dcds(SPEC).expect("spec parses and validates");
    println!(
        "parsed: {} relations, {} services, {} actions, {} rules",
        dcds.data.schema.len(),
        dcds.process.services.len(),
        dcds.process.actions.len(),
        dcds.process.rules.len()
    );

    // Static analysis: Receive generates fresh payloads into Queue (special
    // edge from the Tru loop) while Queue/Picked/Shipped values are
    // recalled by OTHER actions — is the accumulation benign?
    let df = dataflow_graph(&dcds);
    println!("GR-acyclic:  {}", is_gr_acyclic(&df));
    println!("GR+-acyclic: {}", is_gr_plus_acyclic(&df));

    // Receive also copies Picked/Shipped, so generation and recall share an
    // action: the system is genuinely state-unbounded (orders accumulate).
    let obs = dcds_verify::abstraction::observe_state_bound(&dcds, 4, 20_000);
    println!(
        "witnessed state bound after 4 steps: {} (growing => unbounded)",
        obs.max_observed
    );

    // RCYCL cannot saturate; budgeted truncation is reported honestly.
    let pruning = rcycl(&dcds, 150);
    println!(
        "RCYCL with 150-state budget: complete = {}, {} states",
        pruning.complete,
        pruning.ts.num_states()
    );

    // A bounded prefix still supports *bounded* model checking: within the
    // horizon, every picked order can be shipped.
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    let phi = parse_mu(
        "nu Z . (forall X . live(X) -> (Picked(X) -> (mu Y . Shipped(X) | <> (live(X) & Y)))) & [] Z",
        &mut schema,
        &mut pool,
    )
    .expect("parses");
    println!(
        "fragment: {:?}; 'every picked order can ship (while it persists)' on the prefix: {}",
        classify(&phi).unwrap(),
        check(&phi, &pruning.ts).unwrap()
    );

    println!(
        "\nGraphviz of the dataflow graph:\n{}",
        dcds_verify::analysis::dataflow_dot(&df, &dcds)
    );
}

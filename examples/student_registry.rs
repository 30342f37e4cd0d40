//! The paper's running motif (Examples 3.1–3.3): students enrol and
//! eventually graduate. This example demonstrates the *semantic gap*
//! between the two decidable logics on one concrete system:
//!
//! * the µLA property "every student eventually graduates (along some
//!   evolution)" refers to the student even while she is out of the
//!   database — history preservation;
//! * the µLP variants additionally demand the student *persists* until
//!   graduation (or allow her to be dropped).
//!
//! Run with `cargo run --release --example student_registry`.

use dcds_verify::mucalc::diagnostics;
use dcds_verify::prelude::*;

fn main() {
    // One student slot: enrol brings in a fresh student id; graduation
    // moves her to Grad with an externally-chosen mark; both enrolment and
    // graduation are decided by the environment.
    let dcds = DcdsBuilder::new()
        .relation("Tru", 0)
        .relation("Stud", 1)
        .relation("Grad", 2)
        .service("newStudent", 0, ServiceKind::Nondeterministic)
        .service("mark", 1, ServiceKind::Nondeterministic)
        .init_fact("Tru", &[])
        .action("enrol", &[], |a| {
            a.effect("Tru()", "Tru(), Stud(newStudent())");
        })
        .action("graduate", &[], |a| {
            a.effect("Tru()", "Tru()");
            a.effect("Stud(X)", "Grad(X, mark(X))");
        })
        .action("drop", &[], |a| {
            a.effect("Tru()", "Tru()");
        })
        .rule("true", "enrol")
        .rule("exists X . Stud(X)", "graduate")
        .rule("exists X . Stud(X)", "drop")
        .build()
        .expect("well-formed");

    let df = dataflow_graph(&dcds);
    println!("GR-acyclic: {}", is_gr_acyclic(&df));
    let pruning = rcycl(&dcds, 2_000);
    println!(
        "RCYCL: complete = {}, {} states, {} edges\n",
        pruning.complete,
        pruning.ts.num_states(),
        pruning.ts.num_edges()
    );

    let mut schema = dcds.data.schema.clone();
    let mut pool = pruning.pool.clone();

    // Example 3.2 (µLA): always, every live student has SOME evolution
    // eventually graduating her — the quantified X may even leave the
    // database in between (history preservation).
    let mu_la = parse_mu(
        "nu Z . (forall S . live(S) -> (Stud(S) -> \
           mu Y . ((exists G . live(G) & Grad(S, G)) | <> Y))) & [] Z",
        &mut schema,
        &mut pool,
    )
    .unwrap();
    // Example 3.3 first variant (µLP): the student must PERSIST until
    // graduation along the witnessing evolution.
    let mu_lp_strong = parse_mu(
        "nu Z . (forall S . live(S) -> (Stud(S) -> \
           mu Y . ((exists G . live(G) & Grad(S, G)) | <> (live(S) & Y)))) & [] Z",
        &mut schema,
        &mut pool,
    )
    .unwrap();
    // Example 3.3 second variant (µLP): either the student is dropped, or
    // she eventually graduates.
    let mu_lp_weak = parse_mu(
        "nu Z . (forall S . live(S) -> (Stud(S) -> \
           mu Y . ((exists G . live(G) & Grad(S, G)) | <> (live(S) -> Y)))) & [] Z",
        &mut schema,
        &mut pool,
    )
    .unwrap();

    for (name, phi) in [
        ("Example 3.2 (muLA: eventual graduation)", &mu_la),
        (
            "Example 3.3a (muLP: persist until graduation)",
            &mu_lp_strong,
        ),
        ("Example 3.3b (muLP: dropped or graduates)", &mu_lp_weak),
    ] {
        println!(
            "{name}\n  fragment: {:?}\n  holds: {}",
            classify(phi).unwrap(),
            check(phi, &pruning.ts).unwrap()
        );
    }

    // Diagnostics: a counterexample path for a property that fails —
    // AG (some student is enrolled) fails immediately after graduation.
    let always_stud = parse_mu("exists S . live(S) & Stud(S)", &mut schema, &mut pool).unwrap();
    let ts = &pruning.ts;
    let path = dcds_verify::mucalc::counterexample_ag(&always_stud, ts).unwrap();
    if let Some(path) = path {
        println!(
            "\ncounterexample to AG(some student enrolled):\n  {}",
            diagnostics::render_path(&path, ts, &schema, &pool)
        );
    }
}

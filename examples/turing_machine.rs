//! The Theorem 4.1 reduction, live: compile Turing machines into DCDSs and
//! watch `G ¬halted` track halting — the executable content of the paper's
//! undecidability results.
//!
//! Run with `cargo run --release --example turing_machine`.

use dcds_verify::mucalc::{check, sugar, Mu};
use dcds_verify::prelude::*;
use dcds_verify::reductions::tm::{busy_beaver_2, halting_machine, looping_machine, TmOutcome};
use dcds_verify::reductions::tm_to_dcds;

fn halted_somewhere(ts: &Ts, dcds: &Dcds) -> bool {
    let halted = dcds.data.schema.rel_id("halted").unwrap();
    ts.state_ids().any(|s| {
        ts.db(s)
            .contains(halted, &dcds_verify::reldata::Tuple::unit())
    })
}

fn main() {
    for (name, tm) in [
        ("halting machine", halting_machine()),
        ("busy beaver 2", busy_beaver_2()),
        ("looping machine", looping_machine()),
    ] {
        println!("== {name} ==");
        let outcome = tm.run(&[], 100);
        match &outcome {
            TmOutcome::Halted { steps, tape } => {
                println!("direct simulation: halts after {steps} steps, tape = {tape:?}")
            }
            TmOutcome::Running => println!("direct simulation: still running after 100 steps"),
        }

        let dcds = tm_to_dcds(&tm, &[]).expect("reduction compiles");
        println!(
            "compiled DCDS: {} relations, {} effects in `step`",
            dcds.data.schema.len(),
            dcds.process.actions[0].effects.len()
        );

        match outcome {
            TmOutcome::Halted { steps, .. } => {
                // Explore one step past the halting depth: `halted` must be
                // raised on the simulating run.
                let prefix = explore_det(
                    &dcds,
                    Limits {
                        max_states: 20_000,
                        max_depth: steps + 1,
                    },
                );
                println!(
                    "bounded exploration (depth {}): {} states, halted reached = {}",
                    steps + 1,
                    prefix.ts.num_states(),
                    halted_somewhere(&prefix.ts, &dcds)
                );
            }
            TmOutcome::Running => {
                // The looping machine is tape-bounded, hence the DCDS is
                // run-bounded: the abstraction saturates and the µLP safety
                // property G ¬halted is *verified*, not just tested.
                let abs = det_abstraction(&dcds, 5_000);
                let halted = dcds.data.schema.rel_id("halted").unwrap();
                let safe = sugar::ag(Mu::Query(Formula::Atom(halted, vec![])).not());
                println!(
                    "abstraction: {:?} with {} states; G !halted verified = {}",
                    abs.outcome,
                    abs.ts.num_states(),
                    check(&safe, &abs.ts).unwrap()
                );
            }
        }
        println!();
    }
    println!(
        "Halting is undecidable, and the runs of the compiled DCDS mirror the machine's \
         runs one-to-one — hence checking even propositional LTL safety on unrestricted \
         DCDSs is undecidable (Theorems 4.1, 5.1)."
    );
}

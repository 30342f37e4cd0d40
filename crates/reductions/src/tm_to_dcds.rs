//! The Theorem 4.1 reduction: compile a Turing machine into a DCDS with
//! deterministic services such that the DCDS simulates the machine
//! step-for-step and `G ¬halted` holds iff the machine does not halt.
//!
//! Encoding (following the proof of Theorem 4.1, with two pragmatic
//! adjustments noted below):
//!
//! * the visited tape segment is a graph `right/2` over cell ids, kept a
//!   linear path by declaring the **second component of `right` a key** and
//!   seeding a guard cell `c0` with a self-loop — any attempt of the
//!   `newCell` service to return an existing cell violates the key and the
//!   transition is filtered out;
//! * `sym/2` holds cell contents, `head/1` the head position, `state/1`
//!   the control state, `halted/0` the halt flag;
//! * one DCDS action `step` carries copy effects (tape structure, symbols
//!   of non-head cells) plus per-δ-entry transition effects.
//!
//! Adjustments w.r.t. the paper's effect listing: (1) instead of the
//! `ext`/`noext` split we extend the tape *eagerly* — whenever the head's
//! right neighbour has no symbol yet, a `newCell` call appends a fresh end
//! cell and the neighbour is initialised to blank; this keeps `sym`
//! functional without a consumable end-marker symbol. (2) Left moves at the
//! left end stay in place (matching the saturating semantics of
//! [`crate::tm::Tm::run`]).

use crate::tm::{Move, Tm};
use dcds_core::{Dcds, DcdsBuilder, ServiceKind};

/// Name of the constant encoding a tape symbol.
fn sym_const(c: char) -> String {
    if c.is_ascii_alphanumeric() {
        format!("sym_{c}")
    } else {
        format!("sym_{}", c as u32)
    }
}

/// Name of the constant encoding a control state.
fn state_const(tm: &Tm, s: usize) -> String {
    format!("q_{}", tm.states[s])
}

/// Compile `tm` (with the given initial tape) into a DCDS.
///
/// The resulting system uses the single deterministic service `newCell/1`
/// and is guarded by `true => step`.
pub fn tm_to_dcds(tm: &Tm, input: &[char]) -> Result<Dcds, String> {
    let mut b = DcdsBuilder::new()
        .relation("right", 2)
        .relation("sym", 2)
        .relation("head", 1)
        .relation("state", 1)
        .relation("halted", 0)
        .service("newCell", 1, ServiceKind::Deterministic);

    // Initial tape: guard cell c0 (self-loop), input cells c1.., and one
    // unsymed end cell.
    let cells: Vec<String> = (0..input.len().max(1) + 2)
        .map(|i| format!("c{i}"))
        .collect();
    b = b.init_fact("right", &[&cells[0], &cells[0]]);
    for i in 0..cells.len() - 1 {
        b = b.init_fact("right", &[&cells[i], &cells[i + 1]]);
    }
    let tape: Vec<char> = if input.is_empty() {
        vec![tm.blank]
    } else {
        input.to_vec()
    };
    for (i, &c) in tape.iter().enumerate() {
        let s = sym_const(c);
        b = b.init_fact("sym", &[&cells[i + 1], &s]);
    }
    b = b.init_fact("head", &[&cells[1]]);
    let q0 = state_const(tm, 0);
    b = b.init_fact("state", &[&q0]);

    // Key: the second component of `right` determines the first.
    b = b.constraint("right(X, Y) & right(Z, Y) -> X = Z");

    let tm_cl = tm.clone();
    b = b.action("step", &[], |a| {
        // Tape structure persists.
        a.effect("right(X, Y)", "right(X, Y)");
        // Symbols of non-head cells persist.
        a.effect("sym(X, S) & !head(X)", "sym(X, S)");
        // Eager extension: the head's right neighbour always gets a symbol
        // and a fresh successor cell.
        a.effect(
            "head(X) & right(X, Y) & !(exists S . sym(Y, S))",
            &format!("sym(Y, {}), right(Y, newCell(Y))", sym_const(tm_cl.blank)),
        );
        // Halting is absorbing: flag raised and state/head/tape preserved.
        let qh = state_const(&tm_cl, tm_cl.halt);
        a.effect(&format!("state({qh})"), &format!("state({qh}), halted()"));
        a.effect(&format!("state({qh}) & head(X)"), "head(X)");
        a.effect(&format!("state({qh}) & head(X) & sym(X, S)"), "sym(X, S)");
        a.effect("halted()", "halted()");
        // One effect (or two for Left) per δ entry.
        for (&(s, read), &(p, write, mv)) in &tm_cl.delta {
            let qs = state_const(&tm_cl, s);
            let qp = state_const(&tm_cl, p);
            let rd = sym_const(read);
            let wr = sym_const(write);
            match mv {
                Move::Stay => {
                    a.effect(
                        &format!("sym(X, {rd}) & head(X) & state({qs})"),
                        &format!("sym(X, {wr}), head(X), state({qp})"),
                    );
                }
                Move::Right => {
                    a.effect(
                        &format!("right(X, Y) & sym(X, {rd}) & head(X) & state({qs})"),
                        &format!("sym(X, {wr}), head(Y), state({qp})"),
                    );
                }
                Move::Left => {
                    // Interior: the left neighbour carries a symbol.
                    a.effect(
                        &format!("right(W, X) & sym(W, SW) & sym(X, {rd}) & head(X) & state({qs})"),
                        &format!("sym(X, {wr}), head(W), state({qp})"),
                    );
                    // Left end: the left neighbour is the unsymed guard —
                    // saturate in place.
                    a.effect(
                        &format!(
                            "right(W, X) & sym(X, {rd}) & head(X) & state({qs}) \
                             & !(exists S . sym(W, S))"
                        ),
                        &format!("sym(X, {wr}), head(X), state({qp})"),
                    );
                }
            }
        }
    });
    b = b.rule("true", "step");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::{busy_beaver_2, halting_machine, looping_machine, TmOutcome};
    use dcds_abstraction::det_abstraction;
    use dcds_core::explore::{explore_det, Limits};
    use dcds_folang::Formula;
    use dcds_mucalc::{check, sugar, Mu};

    fn halted_somewhere(ts: &dcds_core::Ts, dcds: &Dcds) -> bool {
        let halted = dcds.data.schema.rel_id("halted").unwrap();
        ts.state_ids()
            .any(|s| ts.db(s).contains(halted, &dcds_reldata::Tuple::unit()))
    }

    #[test]
    fn halting_machine_raises_halted() {
        let tm = halting_machine();
        let dcds = tm_to_dcds(&tm, &[]).unwrap();
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 500,
                max_depth: 4,
            },
        );
        assert!(halted_somewhere(&res.ts, &dcds));
    }

    #[test]
    fn looping_machine_never_halts_and_is_run_bounded() {
        let tm = looping_machine();
        let dcds = tm_to_dcds(&tm, &[]).unwrap();
        // The looping machine is tape-bounded, so the DCDS is run-bounded:
        // the abstraction saturates, and G ¬halted holds on it.
        let abs = det_abstraction(&dcds, 3000);
        assert_eq!(abs.outcome, dcds_abstraction::AbsOutcome::Complete);
        assert!(!halted_somewhere(&abs.ts, &dcds));
        let halted = dcds.data.schema.rel_id("halted").unwrap();
        let prop = sugar::ag(Mu::Query(Formula::Atom(halted, vec![])).not());
        assert!(check(&prop, &abs.ts).unwrap());
    }

    #[test]
    fn busy_beaver_halts_at_matching_depth() {
        let tm = busy_beaver_2();
        let TmOutcome::Halted { steps, .. } = tm.run(&[], 100) else {
            panic!("BB2 halts");
        };
        let dcds = tm_to_dcds(&tm, &[]).unwrap();
        // Not halted strictly before `steps` transitions...
        let shallow = explore_det(
            &dcds,
            Limits {
                max_states: 4000,
                max_depth: steps,
            },
        );
        assert!(!halted_somewhere(&shallow.ts, &dcds));
        // ... and halted somewhere at depth steps + 1 (the flag is raised
        // one step after entering the halt state).
        let deep = explore_det(
            &dcds,
            Limits {
                max_states: 20_000,
                max_depth: steps + 1,
            },
        );
        assert!(halted_somewhere(&deep.ts, &dcds));
    }

    #[test]
    fn key_constraint_keeps_right_linear() {
        let tm = busy_beaver_2();
        let dcds = tm_to_dcds(&tm, &[]).unwrap();
        let res = explore_det(
            &dcds,
            Limits {
                max_states: 2000,
                max_depth: 4,
            },
        );
        let right = dcds.data.schema.rel_id("right").unwrap();
        for s in res.ts.state_ids() {
            // Every cell has at most one predecessor.
            let mut seen = std::collections::BTreeSet::new();
            for t in res.ts.db(s).tuples(right) {
                assert!(seen.insert(t[1]), "key violated in explored state");
            }
        }
    }

    #[test]
    fn input_is_laid_out_on_the_tape() {
        let tm = halting_machine();
        let dcds = tm_to_dcds(&tm, &['1', '0']).unwrap();
        let sym = dcds.data.schema.rel_id("sym").unwrap();
        assert_eq!(dcds.data.initial.cardinality(sym), 2);
    }
}

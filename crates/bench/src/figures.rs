//! Regeneration of the paper's figures and table.
//!
//! The paper is a theory paper: its "evaluation" artifacts are worked
//! transition systems (Figures 2–4, 6, 7), dataflow/dependency graphs
//! (Figures 5, 8, 9, 10) and the decidability matrix (Table 1). Each
//! function here rebuilds one of them from the implemented machinery and
//! renders a plain-text report; the `fig*`/`table1` binaries print them and
//! EXPERIMENTS.md records the expected-vs-observed shapes.

use crate::examples;
use crate::travel;
use dcds_abstraction::{det_abstraction, observe_run_bound, observe_state_bound, rcycl};
use dcds_analysis::{
    dataflow_dot, dataflow_graph, dependency_graph, depgraph_dot, gr_acyclicity, is_weakly_acyclic,
    position_ranks,
};
use dcds_core::explore::{explore_det, explore_nondet, Limits};
use dcds_core::{Dcds, ServiceKind, Ts};
use dcds_folang::Formula;
use dcds_mucalc::{check, eval, propositionalize, sugar, Mu, Valuation};
use dcds_reldata::InstanceDisplay;
use std::fmt::Write as _;

fn ts_summary(
    ts: &Ts,
    dcds: &Dcds,
    pool: &dcds_reldata::ConstantPool,
    label: &str,
    list_states: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: {} states, {} edges, max |adom(state)| = {}",
        ts.num_states(),
        ts.num_edges(),
        ts.max_state_adom()
    );
    if list_states {
        for s in ts.state_ids() {
            let succ: Vec<String> = ts
                .successors(s)
                .iter()
                .map(|t| format!("s{}", t.index()))
                .collect();
            let _ = writeln!(
                out,
                "  s{}: {{{}}} -> [{}]",
                s.index(),
                InstanceDisplay::new(ts.db(s), &dcds.data.schema, pool),
                succ.join(", ")
            );
        }
    }
    out
}

/// Figure 2: concrete (prefix) and abstract transition systems of Example
/// 4.2 (deterministic services + the equality constraint forcing
/// `f(a) = a`).
pub fn fig2() -> String {
    let dcds = examples::example_4_2();
    let mut out = String::from(
        "Figure 2 — Example 4.2 (deterministic, equality constraint P(x)&Q(y,z) -> x=y)\n\n",
    );
    let concrete = explore_det(
        &dcds,
        Limits {
            max_states: 64,
            max_depth: 2,
        },
    );
    out += &ts_summary(
        &concrete.ts,
        &dcds,
        &concrete.pool,
        "concrete prefix (depth 2, one representative per commitment)",
        false,
    );
    let abs = det_abstraction(&dcds, 100);
    let ts = &abs.ts;
    out += &ts_summary(ts, &dcds, &abs.pool, "abstract transition system", true);
    let _ = writeln!(
        out,
        "\nabstraction outcome: {:?} (paper: finite, f(a) |-> a forced; initial state has 2 successors — ours has {})",
        abs.outcome,
        ts.successors(ts.initial()).len()
    );
    out
}

/// Figure 3: Example 4.1 without the constraint — more commitments survive.
pub fn fig3() -> String {
    let dcds = examples::example_4_1();
    let mut out = String::from("Figure 3 — Example 4.1 (deterministic, no constraints)\n\n");
    let concrete = explore_det(
        &dcds,
        Limits {
            max_states: 64,
            max_depth: 2,
        },
    );
    out += &ts_summary(
        &concrete.ts,
        &dcds,
        &concrete.pool,
        "concrete prefix (depth 2, one representative per commitment)",
        false,
    );
    let abs = det_abstraction(&dcds, 100);
    let ts = &abs.ts;
    out += &ts_summary(ts, &dcds, &abs.pool, "abstract transition system", true);
    let _ = writeln!(
        out,
        "\nabstraction outcome: {:?} (paper: finite; initial state has 5 successors \
         (commitments of f(a), g(a) vs {{a}}) — ours has {})",
        abs.outcome,
        ts.successors(ts.initial()).len()
    );
    out
}

/// Figure 4: Example 4.3 under deterministic services — run-unbounded;
/// the abstraction cannot saturate, and per-run value counts grow with
/// depth.
pub fn fig4() -> String {
    let dcds = examples::example_4_3(ServiceKind::Deterministic);
    let mut out = String::from(
        "Figure 4 — Example 4.3 (deterministic): run-unbounded f-chain a, f(a), f(f(a)), ...\n\n",
    );
    let _ = writeln!(out, "depth  max distinct values on a run");
    for depth in 1..=6 {
        let obs = observe_run_bound(&dcds, depth, 100_000);
        let _ = writeln!(out, "{depth:>5}  {}", obs.max_observed);
    }
    let abs = det_abstraction(&dcds, 80);
    let _ = writeln!(
        out,
        "\nabstraction with budget 80 states: {:?} (paper: no faithful finite abstraction exists)",
        abs.outcome
    );
    out
}

/// Figure 5: dependency graphs and weak-acyclicity verdicts.
pub fn fig5() -> String {
    let mut out = String::from("Figure 5 — dependency graphs (weak acyclicity)\n\n");
    let a = examples::example_4_1();
    let dg_a = dependency_graph(&a);
    let _ = writeln!(
        out,
        "(a) Examples 4.1/4.2 — weakly acyclic: {}\n{}",
        is_weakly_acyclic(&dg_a),
        depgraph_dot(&dg_a, &a)
    );
    let b = examples::example_4_3(ServiceKind::Deterministic);
    let dg_b = dependency_graph(&b);
    let _ = writeln!(
        out,
        "(b) Example 4.3 — weakly acyclic: {}\n{}",
        is_weakly_acyclic(&dg_b),
        depgraph_dot(&dg_b, &b)
    );
    out
}

/// Figure 6: Example 5.2 — state-unbounded accumulation; RCYCL cannot
/// saturate and witnessed state sizes grow with depth.
pub fn fig6() -> String {
    let dcds = examples::example_5_2();
    let mut out =
        String::from("Figure 6 — Example 5.2 (nondeterministic): Q accumulates fresh values\n\n");
    let _ = writeln!(out, "depth  max |adom(state)| witnessed");
    for depth in 1..=4 {
        let obs = observe_state_bound(&dcds, depth, 50_000);
        let _ = writeln!(out, "{depth:>5}  {}", obs.max_observed);
    }
    let res = rcycl(&dcds, 100);
    let _ = writeln!(
        out,
        "\nRCYCL with budget 100 states: complete = {} (paper: state-unbounded, pruning has \
         infinitely many growing states)",
        res.complete
    );
    out
}

/// Figure 7: Example 4.3 under nondeterministic services (Example 5.1) —
/// state-bounded; RCYCL terminates with a small pruning.
pub fn fig7() -> String {
    let dcds = examples::example_5_1();
    let mut out = String::from(
        "Figure 7 — Example 4.3 with nondeterministic f: state-bounded, RCYCL saturates\n\n",
    );
    let concrete = explore_nondet(
        &dcds,
        Limits {
            max_states: 64,
            max_depth: 3,
        },
    );
    out += &ts_summary(
        &concrete.ts,
        &dcds,
        &concrete.pool,
        "concrete prefix (depth 3, one representative per commitment)",
        false,
    );
    let res = rcycl(&dcds, 100);
    out += &ts_summary(&res.ts, &dcds, &res.pool, "RCYCL pruning", true);
    let _ = writeln!(
        out,
        "\nRCYCL complete = {}, used values = {}, triples processed = {} \
         (paper: finite abstraction with 1-tuple states)",
        res.complete,
        res.used_values.len(),
        res.triples_processed
    );
    out
}

/// Figure 8: dataflow graphs and GR-acyclicity verdicts.
pub fn fig8() -> String {
    let mut out = String::from("Figure 8 — dataflow graphs (GR-acyclicity)\n\n");
    let cases: [(&str, Dcds); 3] = [
        ("(a) Example 4.3/5.1", examples::example_5_1()),
        ("(b) Example 5.2", examples::example_5_2()),
        ("(c) Example 5.3", examples::example_5_3()),
    ];
    for (label, dcds) in cases {
        let df = dataflow_graph(&dcds);
        let _ = writeln!(
            out,
            "{label} — GR-acyclic: {}, GR+-acyclic: {}\n{}",
            gr_acyclicity::is_gr_acyclic(&df),
            gr_acyclicity::is_gr_plus_acyclic(&df),
            dataflow_dot(&df, &dcds)
        );
    }
    out
}

/// Figure 9: the travel request system's dataflow graph — not GR-acyclic,
/// GR⁺-acyclic.
pub fn fig9() -> String {
    let dcds = travel::request_system();
    let df = dataflow_graph(&dcds);
    let mut out = String::from("Figure 9 — travel request system dataflow graph\n\n");
    let _ = writeln!(
        out,
        "GR-acyclic: {} (paper: no)\nGR+-acyclic: {} (paper: yes — InitiateRequest's \
         generate edges are disjoint from the Verify/Update recall loops)\n",
        gr_acyclicity::is_gr_acyclic(&df),
        gr_acyclicity::is_gr_plus_acyclic(&df)
    );
    out += &dataflow_dot(&df, &dcds);
    out
}

/// Figure 10: the audit system's dependency graph — weakly acyclic.
pub fn fig10() -> String {
    let dcds = travel::audit_system();
    let dg = dependency_graph(&dcds);
    let mut out = String::from("Figure 10 — audit system dependency graph\n\n");
    let ranks = position_ranks(&dg);
    let _ = writeln!(
        out,
        "weakly acyclic: {} (paper: yes)\nmax position rank: {:?}\n",
        is_weakly_acyclic(&dg),
        ranks.as_ref().map(|r| r.iter().copied().max().unwrap_or(0))
    );
    out += &depgraph_dot(&dg, &dcds);
    out
}

/// One row of Table 1 evidence.
fn cell(out: &mut String, setting: &str, logic: &str, verdict: &str, evidence: &str) {
    let _ = writeln!(out, "{setting:<28} {logic:<5} {verdict:<28} {evidence}");
}

/// Table 1: the (un)decidability matrix, each cell demonstrated by running
/// the corresponding construction.
pub fn table1() -> String {
    let mut out =
        String::from("Table 1 — (un)decidability of verification (U undecidable, D decidable)\n\n");
    cell(
        &mut out,
        "SETTING",
        "LOGIC",
        "VERDICT",
        "EVIDENCE (this run)",
    );

    // --- Deterministic, unrestricted: U (even propositional LTL). ---
    // Evidence: the Theorem 4.1 reduction executes — G !halted tracks TM
    // halting on concrete machines.
    {
        use dcds_reductions::tm::{halting_machine, looping_machine};
        use dcds_reductions::tm_to_dcds;
        let halting = tm_to_dcds(&halting_machine(), &[]).unwrap();
        let exp = explore_det(
            &halting,
            Limits {
                max_states: 400,
                max_depth: 4,
            },
        );
        let halted_rel = halting.data.schema.rel_id("halted").unwrap();
        let reached = exp.ts.state_ids().any(|s| {
            exp.ts
                .db(s)
                .contains(halted_rel, &dcds_reldata::Tuple::unit())
        });
        let looping = tm_to_dcds(&looping_machine(), &[]).unwrap();
        let abs = det_abstraction(&looping, 3000);
        let halted_rel2 = looping.data.schema.rel_id("halted").unwrap();
        let safe = check(
            &sugar::ag(Mu::Query(Formula::Atom(halted_rel2, vec![])).not()),
            &abs.ts,
        )
        .unwrap();
        cell(
            &mut out,
            "deterministic, unrestricted",
            "muL/muLA/muLP",
            "U (Thm 4.1, even prop. LTL)",
            &format!(
                "TM reduction runs: halting machine raises `halted` ({reached}); looping machine satisfies G!halted on its saturated abstraction ({safe})"
            ),
        );
    }

    // --- Deterministic, run-bounded, muLA: D (Thms 4.2-4.4). ---
    {
        let dcds = examples::example_4_1();
        let abs = det_abstraction(&dcds, 200);
        // "Along every path, always: some P value is live."
        let p = dcds.data.schema.rel_id("P").unwrap();
        let phi = sugar::ag(Mu::exists(
            "X",
            Mu::live("X").and(Mu::Query(Formula::Atom(
                p,
                vec![dcds_folang::QTerm::var("X")],
            ))),
        ));
        let direct = check(&phi, &abs.ts).unwrap();
        // PROP(Φ) over ADOM(Θ), checked by the naive Kleene iteration
        // the paper cites after Thm 4.4.
        let prop = propositionalize(&phi, &abs.ts.adom_union()).unwrap();
        let via_prop = eval(&prop, &abs.ts, &mut Valuation::default())
            .unwrap()
            .contains(&abs.ts.initial());
        cell(
            &mut out,
            "deterministic, run-bounded",
            "muLA",
            "D (Thms 4.2-4.4)",
            &format!(
                "Ex 4.1 abstraction saturated ({:?}, {} states); AG exists-live-P: direct={direct}, PROP+prop-mc={via_prop}",
                abs.outcome,
                abs.ts.num_states()
            ),
        );
    }

    // --- Deterministic, run-bounded, muL: ? / no finite abstraction (Thm 4.5). ---
    {
        let dcds = examples::theorem_4_5_system();
        let prefix = explore_det(
            &dcds,
            Limits {
                max_states: 500,
                max_depth: 1,
            },
        );
        // Phi_n: exist n pairwise distinct values each eventually in Q.
        let q = dcds.data.schema.rel_id("Q").unwrap();
        let phi_n = |n: usize| -> Mu {
            let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
            let mut body = Mu::Query(Formula::True);
            for i in 0..n {
                for j in 0..i {
                    body = body.and(Mu::Query(Formula::neq(
                        dcds_folang::QTerm::var(&vars[i]),
                        dcds_folang::QTerm::var(&vars[j]),
                    )));
                }
            }
            for v in &vars {
                body = body
                    .and(Mu::Query(Formula::Atom(q, vec![dcds_folang::QTerm::var(v)])).diamond());
            }
            for v in vars.iter().rev() {
                body = Mu::exists(v.as_str(), body);
            }
            body
        };
        let k = prefix.ts.successors(prefix.ts.initial()).len();
        let holds_k = check(&phi_n(k.min(3)), &prefix.ts).unwrap();
        let fails_over = !check(&phi_n(k + 1), &prefix.ts).unwrap();
        cell(
            &mut out,
            "deterministic, run-bounded",
            "muL",
            "? (no finite abstraction, Thm 4.5)",
            &format!(
                "Phi_n family: prefix with {k} successors satisfies Phi_{} ({holds_k}) but not Phi_{} ({fails_over}) — every finite system is defeated by some Phi_n",
                k.min(3),
                k + 1
            ),
        );
    }

    // --- Nondeterministic, unrestricted: U (Thm 5.1). ---
    cell(
        &mut out,
        "nondeterministic, unrestricted",
        "muL/muLA/muLP",
        "U (Thm 5.1, even prop. LTL)",
        "same Theorem 4.1 reduction (newCell is called with distinct arguments, so service semantics is immaterial)",
    );

    // --- Nondeterministic, state-bounded, muLA: U (Thm 5.2). ---
    {
        let dcds = examples::theorem_5_2_system(&["a", "b"]);
        let obs = observe_state_bound(&dcds, 3, 1000);
        cell(
            &mut out,
            "nondeterministic, state-bounded",
            "muLA",
            "U (Thm 5.2, freeze-LTL)",
            &format!(
                "infinite-data-word system built; state bound witnessed = {} (muLA can refer back to dead data values, encoding freeze registers)",
                obs.max_observed
            ),
        );
    }

    // --- Nondeterministic, state-bounded, muLP: D (Thms 5.3-5.4). ---
    {
        let dcds = examples::example_5_1();
        let res = rcycl(&dcds, 100);
        let r = dcds.data.schema.rel_id("R").unwrap();
        // AG (exists live x: R(x) or Q(x)) — some tuple always present.
        let q = dcds.data.schema.rel_id("Q").unwrap();
        let phi = sugar::ag(Mu::exists(
            "X",
            Mu::live("X").and(
                Mu::Query(Formula::Atom(r, vec![dcds_folang::QTerm::var("X")])).or(Mu::Query(
                    Formula::Atom(q, vec![dcds_folang::QTerm::var("X")]),
                )),
            ),
        ));
        let verdict = check(&phi, &res.ts).unwrap();
        cell(
            &mut out,
            "nondeterministic, state-bounded",
            "muLP",
            "D (Thms 5.3-5.4, RCYCL)",
            &format!(
                "Ex 5.1: RCYCL saturated (complete={}, {} states); AG exists-live-tuple = {verdict}",
                res.complete,
                res.ts.num_states()
            ),
        );
    }

    out
}

/// Appendix E verification: µLP properties of the (small) request system on
/// its RCYCL abstraction, and the µLA property of the audit system on its
/// deterministic abstraction.
pub fn travel_verify() -> String {
    let mut out = String::from("Appendix E — travel reimbursement verification\n\n");

    // Request system (nondeterministic) — RCYCL + muLP.
    eprintln!("[travel_verify] building request system + RCYCL ...");
    let req = travel::request_system_small();
    let res = rcycl(&req, 5000);
    eprintln!(
        "[travel_verify] RCYCL done: complete={}, {} states",
        res.complete,
        res.ts.num_states()
    );
    let _ = writeln!(
        out,
        "request system (small): RCYCL complete = {}, {} states, {} edges",
        res.complete,
        res.ts.num_states(),
        res.ts.num_edges()
    );
    let status = req.data.schema.rel_id("Status").unwrap();
    let travel_rel = req.data.schema.rel_id("Travel").unwrap();
    let upd = req.data.pool.get("readyToUpdate").unwrap();
    let conf = req.data.pool.get("requestConfirmed").unwrap();
    // Liveness: AG (forall live n: Travel(n) -> A[Travel(n)-live U decided])
    // — the paper's first property, with the Travel(n) guard keeping the
    // binding live (muLP-compatible).
    let decided = Mu::Query(Formula::Atom(status, vec![dcds_folang::QTerm::Const(upd)])).or(
        Mu::Query(Formula::Atom(status, vec![dcds_folang::QTerm::Const(conf)])),
    );
    let traveln = Mu::Query(Formula::Atom(
        travel_rel,
        vec![dcds_folang::QTerm::var("N")],
    ));
    let liveness = sugar::ag(Mu::forall(
        "N",
        Mu::live("N").implies(traveln.clone().implies(sugar::au_live(
            &[dcds_folang::Var::new("N")],
            traveln.clone(),
            decided,
        ))),
    ));
    eprintln!("[travel_verify] checking property 1 ...");
    let _ = writeln!(
        out,
        "property 1 (liveness: every filed request is eventually decided): {}",
        check(&liveness, &res.ts).unwrap()
    );
    eprintln!("[travel_verify] property 1 done");
    // Safety: G not(confirmed and no Travel tuple).
    let some_travel = Mu::exists("N", Mu::live("N").and(traveln));
    let confirmed = Mu::Query(Formula::Atom(status, vec![dcds_folang::QTerm::Const(conf)]));
    let safety = sugar::ag(confirmed.and(some_travel.not()).not());
    eprintln!("[travel_verify] checking property 2 ...");
    let _ = writeln!(
        out,
        "property 2 (safety: no confirmation without travel data): {}",
        check(&safety, &res.ts).unwrap()
    );

    // Audit system (deterministic) — abstraction + muLA. (The reduced
    // model: naive quantifier enumeration over the 7-ary faithful model is
    // prohibitive; the property and verdicts are identical.)
    eprintln!("[travel_verify] building audit system abstraction ...");
    let audit = travel::audit_system_small();
    let abs = det_abstraction(&audit, 5000);
    eprintln!(
        "[travel_verify] audit abstraction: {} states",
        abs.ts.num_states()
    );
    let _ = writeln!(
        out,
        "\naudit system: abstraction {:?}, {} states, {} edges",
        abs.outcome,
        abs.ts.num_states(),
        abs.ts.num_edges()
    );
    // muLA: AG(forall i,n: travel with a failed hotel or flight check
    // eventually has passed = fail).
    let tr = audit.data.schema.rel_id("Travel").unwrap();
    let hotel = audit.data.schema.rel_id("Hotel").unwrap();
    let flight = audit.data.schema.rel_id("Flight").unwrap();
    let fail = audit.data.pool.get("fail").unwrap();
    let var = dcds_folang::QTerm::var;
    let hotel_failed = Formula::exists(
        "H",
        Formula::Atom(
            hotel,
            vec![var("I"), var("H"), dcds_folang::QTerm::Const(fail)],
        ),
    );
    let flight_failed = Formula::exists(
        "F",
        Formula::Atom(
            flight,
            vec![var("I"), var("F"), dcds_folang::QTerm::Const(fail)],
        ),
    );
    let premise = Mu::exists(
        "V",
        Mu::live("V").and(Mu::Query(Formula::Atom(
            tr,
            vec![var("I"), var("N"), var("V")],
        ))),
    )
    .and(Mu::Query(hotel_failed.or(flight_failed)));
    let eventually_fail = sugar::ef(Mu::Query(Formula::Atom(
        tr,
        vec![var("I"), var("N"), dcds_folang::QTerm::Const(fail)],
    )));
    let audit_prop = sugar::ag(Mu::forall(
        "I",
        Mu::live("I").implies(Mu::forall(
            "N",
            Mu::live("N").implies(premise.implies(eventually_fail)),
        )),
    ));
    eprintln!("[travel_verify] checking property 3 ...");
    let _ = writeln!(
        out,
        "property 3 (muLA audit: failed component check implies eventual request failure): {}",
        check(&audit_prop, &abs.ts).unwrap()
    );
    eprintln!("[travel_verify] all properties checked");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reports_saturation_and_two_successors() {
        let r = fig2();
        assert!(r.contains("ours has 2"));
        assert!(r.contains("Complete"));
    }

    #[test]
    fn fig3_reports_five_successors() {
        let r = fig3();
        assert!(r.contains("ours has 5"));
    }

    #[test]
    fn fig4_shows_growth_and_truncation() {
        let r = fig4();
        assert!(r.contains("Truncated"));
    }

    #[test]
    fn fig5_verdicts() {
        let r = fig5();
        assert!(r.contains("(a) Examples 4.1/4.2 — weakly acyclic: true"));
        assert!(r.contains("(b) Example 4.3 — weakly acyclic: false"));
    }

    #[test]
    fn fig6_and_fig7_contrast() {
        assert!(fig6().contains("complete = false"));
        assert!(fig7().contains("RCYCL complete = true"));
    }

    #[test]
    fn fig8_fig9_fig10_verdicts() {
        let r8 = fig8();
        assert!(r8.contains("(a) Example 4.3/5.1 — GR-acyclic: true"));
        assert!(r8.contains("(b) Example 5.2 — GR-acyclic: false"));
        assert!(r8.contains("(c) Example 5.3 — GR-acyclic: false"));
        let r9 = fig9();
        assert!(r9.contains("GR-acyclic: false"));
        assert!(r9.contains("GR+-acyclic: true"));
        let r10 = fig10();
        assert!(r10.contains("weakly acyclic: true"));
    }

    #[test]
    fn table1_has_all_cells() {
        let t = table1();
        assert!(t.contains("U (Thm 4.1"));
        assert!(t.contains("D (Thms 4.2-4.4)"));
        assert!(t.contains("? (no finite abstraction"));
        assert!(t.contains("U (Thm 5.2"));
        assert!(t.contains("D (Thms 5.3-5.4"));
    }

    #[test]
    fn travel_verification_properties_hold() {
        let r = travel_verify();
        assert!(r.contains("RCYCL complete = true"));
        assert!(
            r.contains("property 1 (liveness: every filed request is eventually decided): true")
        );
        assert!(r.contains("property 2 (safety: no confirmation without travel data): true"));
        assert!(r.contains("property 3 (muLA audit: failed component check implies eventual request failure): true"));
    }
}

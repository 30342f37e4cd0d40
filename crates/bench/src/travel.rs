//! The Appendix E travel-reimbursement DCDSs.
//!
//! Two subsystems, exactly as in the paper:
//!
//! * the **request system** — an employee files a travel reimbursement
//!   request (name, hotel and flight cost information filled in by
//!   nondeterministic input services); a monitor verifies it, looping
//!   through updates until acceptance. Not GR-acyclic but **GR⁺-acyclic**
//!   (Figure 9), hence state-bounded and µLP-verifiable.
//! * the **audit system** — accepted requests are re-checked by calling a
//!   **deterministic** currency-conversion service. **Weakly acyclic**
//!   (Figure 10), hence run-bounded and µLA-verifiable.
//!
//! The faithful request model issues eleven input calls per initiation;
//! that is fine for static analysis, but the `EVALS` enumeration of
//! Algorithm RCYCL is exponential in the per-step call count, so for
//! end-to-end model checking we also provide [`request_system_small`] — the
//! same process shape with hotel/flight information reduced to one column
//! each, preserving every verdict (GR⁺ but not GR; same µLP properties).

use dcds_core::{Dcds, DcdsBuilder, ServiceKind};

const STATUSES: [&str; 4] = [
    "readyForRequest",
    "readyToVerify",
    "readyToUpdate",
    "requestConfirmed",
];

/// Status-domain FO constraint: `makeDecision` (a nondeterministic call)
/// may only produce genuine statuses, as the paper's prose stipulates.
fn status_constraint() -> String {
    let disj: Vec<String> = STATUSES.iter().map(|s| format!("S = '{s}'")).collect();
    format!("forall S . Status(S) -> {}", disj.join(" | "))
}

/// After a `VerifyRequest` step (marked by the transient `Verified` flag),
/// the status must be a genuine *decision* — the paper's `MAKEDECISION`
/// "returns 'requestConfirmed' ... and returns 'readyToUpdate' ..." made
/// into a constraint.
fn decision_constraint() -> &'static str {
    "Verified() -> (forall S . Status(S) -> S = 'readyToUpdate' | S = 'requestConfirmed')"
}

/// The faithful request system (Appendix E).
pub fn request_system() -> Dcds {
    DcdsBuilder::new()
        .relation("Tru", 0)
        .relation("Status", 1)
        .relation("Travel", 1)
        .relation("Hotel", 5)
        .relation("Flight", 5)
        .relation("Verified", 0)
        .service("inEName", 0, ServiceKind::Nondeterministic)
        .service("inHName", 0, ServiceKind::Nondeterministic)
        .service("inHDate", 0, ServiceKind::Nondeterministic)
        .service("inHPrice", 0, ServiceKind::Nondeterministic)
        .service("inHCurrency", 0, ServiceKind::Nondeterministic)
        .service("inHPinUSD", 0, ServiceKind::Nondeterministic)
        .service("inFDate", 0, ServiceKind::Nondeterministic)
        .service("inFNum", 0, ServiceKind::Nondeterministic)
        .service("inFPrice", 0, ServiceKind::Nondeterministic)
        .service("inFCurrency", 0, ServiceKind::Nondeterministic)
        .service("inFPUSD", 0, ServiceKind::Nondeterministic)
        .service("makeDecision", 0, ServiceKind::Nondeterministic)
        .init_fact("Tru", &[])
        .init_fact("Status", &["readyForRequest"])
        .fo_constraint(&status_constraint())
        .fo_constraint(decision_constraint())
        .action("InitiateRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status('readyToVerify')");
            a.effect("Tru()", "Travel(inEName())");
            a.effect(
                "Tru()",
                "Hotel(inHName(), inHDate(), inHPrice(), inHCurrency(), inHPinUSD())",
            );
            a.effect(
                "Tru()",
                "Flight(inFDate(), inFNum(), inFPrice(), inFCurrency(), inFPUSD())",
            );
        })
        .action("VerifyRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status(makeDecision()), Verified()");
            a.effect("Travel(N)", "Travel(N)");
            a.effect("Hotel(X1, X2, X3, X4, X5)", "Hotel(X1, X2, X3, X4, X5)");
            a.effect("Flight(X1, X2, X3, X4, X5)", "Flight(X1, X2, X3, X4, X5)");
        })
        .action("UpdateRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status('readyToVerify')");
            a.effect("Travel(N)", "Travel(N)");
            a.effect(
                "Tru()",
                "Hotel(inHName(), inHDate(), inHPrice(), inHCurrency(), inHPinUSD())",
            );
            a.effect(
                "Tru()",
                "Flight(inFDate(), inFNum(), inFPrice(), inFCurrency(), inFPUSD())",
            );
        })
        .action("AcceptRequest", &[], |a| {
            a.effect("Tru()", "Tru()");
            a.effect("Status('requestConfirmed')", "Status('readyForRequest')");
        })
        .rule("Status('readyForRequest')", "InitiateRequest")
        .rule("Status('readyToVerify')", "VerifyRequest")
        .rule("Status('readyToUpdate')", "UpdateRequest")
        .rule("Status('requestConfirmed')", "AcceptRequest")
        .build()
        .expect("request system is well-formed")
}

/// The reduced request system: hotel information collapsed to one column,
/// flight information dropped (every analysis verdict and property is
/// preserved; the per-step call count falls from eleven to two, keeping
/// the `EVALS` enumeration of Algorithm RCYCL small).
pub fn request_system_small() -> Dcds {
    DcdsBuilder::new()
        .relation("Tru", 0)
        .relation("Status", 1)
        .relation("Travel", 1)
        .relation("Hotel", 1)
        .relation("Verified", 0)
        .service("inEName", 0, ServiceKind::Nondeterministic)
        .service("inHPrice", 0, ServiceKind::Nondeterministic)
        .service("makeDecision", 0, ServiceKind::Nondeterministic)
        .init_fact("Tru", &[])
        .init_fact("Status", &["readyForRequest"])
        .fo_constraint(&status_constraint())
        .fo_constraint(decision_constraint())
        .action("InitiateRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status('readyToVerify')");
            a.effect("Tru()", "Travel(inEName())");
            a.effect("Tru()", "Hotel(inHPrice())");
        })
        .action("VerifyRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status(makeDecision()), Verified()");
            a.effect("Travel(N)", "Travel(N)");
            a.effect("Hotel(X)", "Hotel(X)");
        })
        .action("UpdateRequest", &[], |a| {
            a.effect("Tru()", "Tru(), Status('readyToVerify')");
            a.effect("Travel(N)", "Travel(N)");
            a.effect("Tru()", "Hotel(inHPrice())");
        })
        .action("AcceptRequest", &[], |a| {
            a.effect("Tru()", "Tru()");
            a.effect("Status('requestConfirmed')", "Status('readyForRequest')");
        })
        .rule("Status('readyForRequest')", "InitiateRequest")
        .rule("Status('readyToVerify')", "VerifyRequest")
        .rule("Status('readyToUpdate')", "UpdateRequest")
        .rule("Status('requestConfirmed')", "AcceptRequest")
        .build()
        .expect("small request system is well-formed")
}

/// The audit system (Appendix E), deterministic `convertAndCheck/4`.
///
/// Relations follow the paper with a `passed` column on `Travel`, `Hotel`,
/// `Flight`; check outcomes are the constants `ok`/`fail` (`pending`
/// initially).
pub fn audit_system() -> Dcds {
    DcdsBuilder::new()
        .relation("Tru", 0)
        .relation("Status", 1)
        .relation("Travel", 3)
        .relation("Hotel", 7)
        .relation("Flight", 7)
        .service("convertAndCheck", 4, ServiceKind::Deterministic)
        .init_fact("Tru", &[])
        .init_fact("Status", &["checkPrice"])
        // One logged request: id t1 by emp1, with hotel and flight rows.
        .init_fact("Travel", &["t1", "emp1", "pending"])
        .init_fact(
            "Hotel",
            &["t1", "hname", "d1", "p1", "cur1", "usd1", "pending"],
        )
        .init_fact(
            "Flight",
            &["t1", "fnum", "d2", "p2", "cur2", "usd2", "pending"],
        )
        .fo_constraint(
            "forall T, N, P . Travel(T, N, P) -> P = 'pending' | P = 'ok' | P = 'fail'",
        )
        .fo_constraint(
            "forall X1, X2, X3, X4, X5, X6, P . Hotel(X1, X2, X3, X4, X5, X6, P)              -> P = 'pending' | P = 'ok' | P = 'fail'",
        )
        .fo_constraint(
            "forall X1, X2, X3, X4, X5, X6, P . Flight(X1, X2, X3, X4, X5, X6, P)              -> P = 'pending' | P = 'ok' | P = 'fail'",
        )
        .action("CheckPrice", &[], |a| {
            a.effect("Tru()", "Tru(), Status('checkTravel')");
            a.effect("Travel(I, N, V)", "Travel(I, N, V)");
            a.effect(
                "Hotel(X1, X2, D, P, C, U, X7)",
                "Hotel(X1, X2, D, P, C, U, convertAndCheck(D, P, C, U))",
            );
            a.effect(
                "Flight(X1, X2, D, P, C, U, X7)",
                "Flight(X1, X2, D, P, C, U, convertAndCheck(D, P, C, U))",
            );
        })
        .action("CheckTravel", &[], |a| {
            a.effect("Tru()", "Tru(), Status('checkPrice')");
            a.effect(
                "Travel(X1, X2, X3) & Hotel(X1, H2, H3, H4, H5, H6, PH) \
                 & Flight(X1, F2, F3, F4, F5, F6, PF) & !(PH = ok & PF = ok)",
                "Travel(X1, X2, fail)",
            );
            a.effect(
                "Travel(X1, X2, X3) & Hotel(X1, H2, H3, H4, H5, H6, ok) \
                 & Flight(X1, F2, F3, F4, F5, F6, ok)",
                "Travel(X1, X2, ok)",
            );
            a.effect(
                "Hotel(X1, X2, X3, X4, X5, X6, X7)",
                "Hotel(X1, X2, X3, X4, X5, X6, X7)",
            );
            a.effect(
                "Flight(X1, X2, X3, X4, X5, X6, X7)",
                "Flight(X1, X2, X3, X4, X5, X6, X7)",
            );
        })
        .rule("Status('checkPrice')", "CheckPrice")
        .rule("Status('checkTravel')", "CheckTravel")
        .build()
        .expect("audit system is well-formed")
}

/// The reduced audit system used for end-to-end µLA verification: hotel and
/// flight rows collapsed to `(trId, data, passed)` and the conversion
/// service to `convertAndCheck/1` — the dependency-graph verdict and the
/// audit property are unchanged, but quantifier enumeration stays small.
pub fn audit_system_small() -> Dcds {
    DcdsBuilder::new()
        .relation("Tru", 0)
        .relation("Status", 1)
        .relation("Travel", 3)
        .relation("Hotel", 3)
        .relation("Flight", 3)
        .service("convertAndCheck", 1, ServiceKind::Deterministic)
        .init_fact("Tru", &[])
        .init_fact("Status", &["checkPrice"])
        .init_fact("Travel", &["t1", "emp1", "pending"])
        .init_fact("Hotel", &["t1", "p1", "pending"])
        .init_fact("Flight", &["t1", "p2", "pending"])
        .fo_constraint(
            "forall T, N, P . Travel(T, N, P) -> P = 'pending' | P = 'ok' | P = 'fail'",
        )
        .fo_constraint("forall T, D, P . Hotel(T, D, P) -> P = 'pending' | P = 'ok' | P = 'fail'")
        .fo_constraint("forall T, D, P . Flight(T, D, P) -> P = 'pending' | P = 'ok' | P = 'fail'")
        .action("CheckPrice", &[], |a| {
            a.effect("Tru()", "Tru(), Status('checkTravel')");
            a.effect("Travel(I, N, V)", "Travel(I, N, V)");
            a.effect("Hotel(X1, D, X3)", "Hotel(X1, D, convertAndCheck(D))");
            a.effect("Flight(X1, D, X3)", "Flight(X1, D, convertAndCheck(D))");
        })
        .action("CheckTravel", &[], |a| {
            a.effect("Tru()", "Tru(), Status('checkPrice')");
            a.effect(
                "Travel(X1, X2, X3) & Hotel(X1, H2, PH) & Flight(X1, F2, PF)                  & !(PH = ok & PF = ok)",
                "Travel(X1, X2, fail)",
            );
            a.effect(
                "Travel(X1, X2, X3) & Hotel(X1, H2, ok) & Flight(X1, F2, ok)",
                "Travel(X1, X2, ok)",
            );
            a.effect("Hotel(X1, X2, X3)", "Hotel(X1, X2, X3)");
            a.effect("Flight(X1, X2, X3)", "Flight(X1, X2, X3)");
        })
        .rule("Status('checkPrice')", "CheckPrice")
        .rule("Status('checkTravel')", "CheckTravel")
        .build()
        .expect("small audit system is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_analysis::{dataflow_graph, dependency_graph, gr_acyclicity, is_weakly_acyclic};

    #[test]
    fn request_system_is_gr_plus_but_not_gr_acyclic() {
        for dcds in [request_system(), request_system_small()] {
            let df = dataflow_graph(&dcds);
            assert!(!gr_acyclicity::is_gr_acyclic(&df), "Figure 9: not GR");
            assert!(
                gr_acyclicity::is_gr_plus_acyclic(&df),
                "Figure 9: GR+ via action disjointness"
            );
        }
    }

    #[test]
    fn audit_system_is_weakly_acyclic() {
        for dcds in [audit_system(), audit_system_small()] {
            let dg = dependency_graph(&dcds);
            assert!(is_weakly_acyclic(&dg), "Figure 10");
        }
    }

    #[test]
    fn audit_abstraction_saturates() {
        let dcds = audit_system_small();
        let abs = dcds_abstraction::det_abstraction(&dcds, 5000);
        assert_eq!(abs.outcome, dcds_abstraction::AbsOutcome::Complete);
        assert!(abs.ts.num_states() >= 3);
    }

    #[test]
    fn small_request_rcycl_saturates() {
        let dcds = request_system_small();
        let res = dcds_abstraction::rcycl(&dcds, 5000);
        assert!(res.complete, "GR+-acyclic ⇒ state-bounded ⇒ RCYCL halts");
        // Each state holds at most one Status, Travel, and Hotel value.
        assert!(res.ts.max_state_adom() <= 3);
    }
}

//! End-to-end pipeline over the textual surface syntax: parse a DCDS spec,
//! statically analyse it, build its abstraction, and verify parsed
//! µ-calculus properties — everything a downstream user does, in one test.

use dcds_verify::prelude::*;

const SPEC: &str = r"
    % A tiny ticketing flow: tickets are opened with external payloads,
    % triaged, then closed; closing forgets the ticket.
    schema {
        Tru 0;
        Open 1;
        Triaged 1;
        Phase 1;
    }
    services { payload 0 nondet; }
    init { Tru(); Phase('open'); }

    action OpenTicket() {
        Tru() ~> Tru(), Phase('triage'), Open(payload());
    }
    action Triage() {
        Tru() ~> Tru(), Phase('close');
        Open(X) ~> Triaged(X);
    }
    action Close() {
        Tru() ~> Tru(), Phase('open');
    }
    rule Phase('open')   => OpenTicket;
    rule Phase('triage') => Triage;
    rule Phase('close')  => Close;
";

#[test]
fn parse_analyse_abstract_verify() {
    let dcds = parse_dcds(SPEC).expect("spec parses");
    assert_eq!(dcds.process.actions.len(), 3);
    assert!(dcds.is_nondeterministic());

    // Static verdicts: values never accumulate (each phase forgets the
    // previous payload): GR-acyclic.
    let df = dataflow_graph(&dcds);
    assert!(is_gr_acyclic(&df));

    // RCYCL terminates.
    let pruning = rcycl(&dcds, 2_000);
    assert!(pruning.complete);
    assert!(pruning.ts.max_state_adom() <= 2); // phase + one payload

    // Parsed µLP properties.
    let mut schema = dcds.data.schema.clone();
    let mut pool = pruning.pool.clone();
    let cases = [
        // Every triaged payload came from somewhere: in triage phase an
        // Open ticket exists.
        (
            "nu Z . (Phase('triage') -> exists X . live(X) & Open(X)) & [] Z",
            true,
        ),
        // The phase cycle always returns to 'open'.
        ("nu Z . (mu Y . Phase('open') | <> Y) & [] Z", true),
        // Tickets do not survive closing: AG (Phase('open') -> no Triaged).
        (
            "nu Z . (Phase('open') -> !(exists X . live(X) & Triaged(X))) & [] Z",
            true,
        ),
        // A ticket payload persists from open into triage on some path —
        // true: Triage copies Open into Triaged.
        (
            "nu Z . (forall X . live(X) -> (Open(X) -> <> (live(X) & Triaged(X)))) & [] Z",
            true,
        ),
        // Sanity negative: AG Open nonempty is false (close phases drop it).
        ("nu Z . (exists X . live(X) & Open(X)) & [] Z", false),
    ];
    for (src, expected) in cases {
        let phi = parse_mu(src, &mut schema, &mut pool).expect("property parses");
        assert!(
            classify(&phi).is_ok(),
            "monotonicity check must pass for {src}"
        );
        assert_eq!(check(&phi, &pruning.ts).unwrap(), expected, "{src}");
    }
}

#[test]
fn spec_errors_are_reported_with_positions() {
    // Unknown relation in an effect head.
    let bad = r"
        schema { P 1; }
        init { P(a); }
        action a1() { P(X) ~> Nope(X); }
        rule true => a1;
    ";
    let err = parse_dcds(bad).unwrap_err();
    assert!(
        err.starts_with("4:31: ") && err.contains("`Nope`"),
        "error should name the relation and its position: {err}"
    );

    // Rule whose guard variables mismatch the action parameters.
    let bad2 = r"
        schema { P 1; }
        init { P(a); }
        action a1(X, Y) { true ~> P(X), P(Y); }
        rule P(X) => a1;
    ";
    let err2 = parse_dcds(bad2).unwrap_err();
    assert!(
        err2.starts_with("5:9: ") && err2.contains("parameter Y of action `a1`"),
        "got: {err2}"
    );

    // Constraint violated by the initial instance.
    let bad3 = r"
        schema { P 1; Q 1; }
        init { P(a); Q(b); }
        constraint P(X) & Q(Y) -> X = Y;
        action a1() { P(X) ~> P(X); }
        rule true => a1;
    ";
    let err3 = parse_dcds(bad3).unwrap_err();
    assert!(err3.contains("initial instance"), "got: {err3}");
}

#[test]
fn round_trip_between_builder_and_spec() {
    // The same system expressed both ways yields the same analyses and
    // the same abstraction size.
    let via_spec = parse_dcds(
        r"
        schema { R 1; Q 1; }
        services { f 1 nondet; }
        init { R(a); }
        action alpha() { R(X) ~> Q(f(X)); Q(X) ~> R(X); }
        rule true => alpha;
        ",
    )
    .unwrap();
    let via_builder = DcdsBuilder::new()
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
        .unwrap();
    let p1 = rcycl(&via_spec, 100);
    let p2 = rcycl(&via_builder, 100);
    assert_eq!(p1.ts.num_states(), p2.ts.num_states());
    assert_eq!(p1.ts.num_edges(), p2.ts.num_edges());
    let rigid = via_spec.rigid_constants();
    assert!(dcds_verify::bisim::persistence_bisimilar(
        &p1.ts, &p2.ts, &rigid
    ));
}

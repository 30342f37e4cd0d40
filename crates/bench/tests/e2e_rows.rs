//! `perf_report`'s e2e rows measure the same workloads as the library
//! calls on the synthetic `Dcds` values: every system a row writes with
//! `to_spec` parses back to one whose abstraction has the same states and
//! edges, and whose verdict is the same, as the library call on the
//! original; and that answer is the one the row pins. The shipped travel
//! spec is checked against its library twin the same way.

use dcds_abstraction::{det_abs, rcycl, AbsOptions, AbsOutcome, Owned};
use dcds_bench::e2e::{rows, Row, Spec};
use dcds_bench::travel;
use dcds_core::{parse_dcds, to_spec, Dcds};
use dcds_mucalc::{check_traced, parse_mu, McOptions};
use dcds_obs::Obs;
use dcds_symbolic::{check_safety, SymOptions, SymVerdict};

/// The library calls `dcds check` makes for `row`, on `dcds`: the verdict
/// (`None` when the run decides nothing) and the abstraction's states and
/// edges, or every symbolic counter.
fn library_answer(row: &Row, dcds: &Dcds) -> (Option<bool>, Vec<(&'static str, u64)>) {
    let (mut schema, mut pool) = (dcds.data.schema.clone(), dcds.data.pool.clone());
    let phi = parse_mu(&row.formula, &mut schema, &mut pool).expect("row formula parses");
    let obs = Obs::disabled();
    if row.args.iter().any(|a| a == "symbolic") {
        let run = check_safety(dcds, &phi, &SymOptions::default()).expect("symbolic run");
        let verdict = match run.verdict {
            SymVerdict::Holds(_) => Some(true),
            SymVerdict::Violated(_) => Some(false),
            SymVerdict::Inconclusive(_) => None,
        };
        return (verdict, run.counters.entries());
    }
    let budget = row
        .args
        .iter()
        .position(|a| a == "--max-states")
        .map_or(10_000, |i| row.args[i + 1].parse().expect("budget"));
    let (ts, complete) = if dcds.is_deterministic() {
        let opts = AbsOptions {
            threads: 1,
            ..AbsOptions::default()
        };
        let abs = det_abs::build::<Owned>(dcds, budget, opts, &obs);
        (abs.ts, abs.outcome == AbsOutcome::Complete)
    } else {
        let res = rcycl::build::<Owned>(dcds, budget, 1, &obs);
        (res.ts, !res.state_budget_hit && res.eval_budget_skips == 0)
    };
    let run = check_traced(&phi, &ts, McOptions { threads: 1 }, &obs).expect("mc run");
    let size = vec![
        ("states", ts.num_states() as u64),
        ("edges", ts.num_edges() as u64),
    ];
    (complete.then_some(run.holds), size)
}

#[test]
fn written_specs_measure_the_library_workloads() {
    let mut checked = 0;
    for row in rows() {
        let (original, text) = match &row.spec {
            Spec::Family(dcds) => ((**dcds).clone(), to_spec(dcds)),
            Spec::Shipped(name @ "travel_request.dcds") => {
                let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
                let text = std::fs::read_to_string(path).expect("shipped spec");
                (travel::request_system_small(), text)
            }
            Spec::Shipped(_) => continue,
        };
        let reparsed = parse_dcds(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", row.name));
        let want = library_answer(&row, &original);
        assert_eq!(library_answer(&row, &reparsed), want, "{}", row.name);
        assert_eq!(want.0, row.expect.verdict, "{}", row.name);
        if let Some(states) = row.expect.states {
            assert_eq!(want.1[0], ("states", states), "{}", row.name);
        }
        checked += 1;
    }
    assert_eq!(checked, 10, "every row but the shipped symbolic spec");
}

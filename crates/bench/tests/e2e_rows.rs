//! `perf_report`'s e2e rows measure the same workloads as the library
//! calls on the synthetic `Dcds` values: every system a row writes with
//! `to_spec` parses back to one whose abstraction has the same states and
//! edges, and whose verdict is the same, as the library call on the
//! original; and that answer is the one the row pins. The shipped travel
//! spec is checked against its library twin the same way. The model
//! checker's work on each explicit row — the extension size and every
//! `McCounters` value — is pinned too, so an engine rewrite is held to the
//! same work, not only to the same verdicts.

use dcds_abstraction::{det_abstraction_traced, rcycl_traced, AbsOptions, AbsOutcome, StateKeys};
use dcds_bench::e2e::{rows, Row, Spec};
use dcds_bench::travel;
use dcds_core::{parse_dcds, to_spec, Dcds};
use dcds_mucalc::{check_traced, is_closed_leaf, parse_mu, McOptions};
use dcds_obs::Obs;
use dcds_symbolic::{check_safety, SymOptions, SymVerdict};

/// The engines' answer for `row`, on `dcds`: the verdict (`None` when the
/// run decides nothing) and the abstraction's states and edges followed by
/// the model checker's extension size and counters, or every symbolic
/// counter. This pins the engines, not the CLI: the model checker runs
/// here on truncated abstractions too, where `dcds check` skips it
/// because it reports no verdict. As in `dcds check`, the formula's
/// constants are rigid, and RCYCL keys states up to isomorphism when the
/// formula is closed-leaf.
fn library_answer(row: &Row, dcds: &Dcds) -> (Option<bool>, Vec<(&'static str, u64)>) {
    let mut dcds = dcds.clone();
    let mut schema = dcds.data.schema.clone();
    let phi = parse_mu(&row.formula, &mut schema, &mut dcds.data.pool).expect("row formula parses");
    dcds.data.formula_constants.extend(phi.constants());
    let dcds = &dcds;
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
        let abs = det_abstraction_traced(dcds, budget, opts, &obs);
        (abs.ts, abs.outcome == AbsOutcome::Complete)
    } else {
        let keys = match is_closed_leaf(&phi) {
            true => StateKeys::UpToIsomorphism,
            false => StateKeys::Exact,
        };
        let res = rcycl_traced(dcds, budget, 1, keys, &obs);
        (res.ts, !res.state_budget_hit && res.eval_budget_skips == 0)
    };
    let run = check_traced(&phi, &ts, McOptions { threads: 1 }, &obs).expect("mc run");
    let mut size = vec![
        ("states", ts.num_states() as u64),
        ("edges", ts.num_edges() as u64),
        ("extension", run.extension.len() as u64),
    ];
    size.extend(run.counters.entries());
    (complete.then_some(run.holds), size)
}

/// The model checker's extension size and counters on each explicit row,
/// in the order `extension`, then `McCounters::entries`.
const MC_PINS: &[(&str, [u64; 6])] = &[
    ("parallel_rings(3)@2000", [2000, 2000, 0, 1, 0, 2000]),
    ("service_chain(10)@1200", [1200, 1200, 0, 1, 0, 1200]),
    ("service_cycle(6)@5000", [5000, 5000, 0, 1, 0, 5000]),
    ("flush_ladder@8000", [17, 17, 0, 1, 0, 17]),
    ("accumulator(3)@300", [300, 300, 0, 1, 0, 300]),
    ("example_5_1", [4, 4, 0, 2, 1, 20]),
    ("service_cycle(6)@1500", [1296, 1500, 6, 2, 7, 34500]),
    ("collision_pairs(7)", [352, 352, 0, 3, 1, 2112]),
    ("collision_pairs(8)", [1116, 1116, 0, 3, 1, 6696]),
    ("travel_request", [79, 158, 0, 6, 1, 711]),
];

#[test]
fn written_specs_measure_the_library_workloads() {
    let (mut checked, mut pinned) = (0, 0);
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
        let pin = MC_PINS.iter().find(|(name, _)| *name == row.name);
        let explicit = row.expect.states.is_some();
        assert_eq!(pin.is_some(), explicit, "{}: pinned iff explicit", row.name);
        if let Some((_, pin)) = pin {
            let work: Vec<u64> = want.1[2..].iter().map(|&(_, v)| v).collect();
            assert_eq!(
                work,
                pin,
                "{}: model-checker work {:?}",
                row.name,
                &want.1[2..]
            );
            pinned += 1;
        }
        checked += 1;
    }
    assert_eq!(checked, 12, "every row but the shipped symbolic spec");
    assert_eq!(pinned, MC_PINS.len(), "every explicit row is pinned");
}

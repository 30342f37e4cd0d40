//! The rows of `perf_report`'s end-to-end stage: each one a real
//! spec-file → verdict run of `dcds check`, the way a user runs the
//! verifier.
//!
//! A row is a spec, a formula and the CLI arguments that pick the budget
//! or engine. Synthetic families are written to a spec file with
//! [`dcds_core::to_spec`]; the others are read from `specs/`. Each row
//! pins the exit code, verdict and state count the run must report, so a
//! timing is never taken of a wrong answer. [`split_layers`] divides a
//! run's `--profile` output into parse, driver, search and verdict time.

use crate::report::{self, Value};
use crate::{examples, synthetic};
use dcds_core::Dcds;
use std::path::{Path, PathBuf};

/// Where a row's spec comes from.
pub enum Spec {
    /// A synthetic system, written out with [`dcds_core::to_spec`].
    Family(Box<Dcds>),
    /// A spec file shipped in `specs/`.
    Shipped(&'static str),
}

impl Spec {
    /// The spec file to run: a family is written into `dir` as
    /// `<stem>.dcds`, a shipped spec is used where it lies.
    pub fn file(&self, dir: &Path, stem: &str) -> PathBuf {
        match self {
            Spec::Family(dcds) => {
                let path = dir.join(format!("{stem}.dcds"));
                std::fs::write(&path, dcds_core::to_spec(dcds)).expect("write the spec file");
                path
            }
            Spec::Shipped(name) => Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../specs")
                .join(name),
        }
    }
}

/// What a row's run must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// `dcds check` exit code: 0 holds, 1 violated, 2 inconclusive.
    pub code: Option<i32>,
    /// The JSON `verdict` (`None` for `null`, an inconclusive run).
    pub verdict: Option<bool>,
    /// Abstraction states (`None` for the symbolic engine, which has none).
    pub states: Option<u64>,
}

/// A complete run that ends in `verdict` over `states` states.
fn decided(verdict: bool, states: u64) -> Expect {
    Expect {
        code: Some(if verdict { 0 } else { 1 }),
        verdict: Some(verdict),
        states: Some(states),
    }
}

/// A run cut short by its state budget: no verdict.
fn truncated(states: u64) -> Expect {
    Expect {
        code: Some(2),
        verdict: None,
        states: Some(states),
    }
}

/// One end-to-end workload: `dcds check <spec> <formula> <args>`.
pub struct Row {
    /// Key of the row in `BENCH_e2e.json` and the regression gate.
    pub name: &'static str,
    pub spec: Spec,
    /// µ-calculus property, in the CLI's surface syntax.
    pub formula: String,
    /// Budget or engine arguments (`--threads 1 --format json` are added).
    pub args: Vec<String>,
    pub expect: Expect,
}

impl Row {
    /// Check one run's exit code and JSON answer against [`Row::expect`].
    pub fn verify(&self, code: Option<i32>, answer: &str) -> Result<(), String> {
        let doc = report::parse(answer).map_err(|e| format!("answer is not JSON: {e}"))?;
        let got = Expect {
            code,
            verdict: match doc.get("verdict") {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            },
            states: (doc.get("abstraction").and_then(|a| a.get("states")))
                .and_then(Value::as_f64)
                .map(|n| n as u64),
        };
        match got == self.expect {
            true => Ok(()),
            false => Err(format!("got {got:?}, expected {:?}", self.expect)),
        }
    }
}

/// A row of the explicit engine at a state budget.
fn explicit(name: &'static str, spec: Spec, formula: &str, budget: u64, expect: Expect) -> Row {
    Row {
        name,
        spec,
        formula: formula.to_owned(),
        args: vec!["--max-states".into(), budget.to_string()],
        expect,
    }
}

/// An abstraction row that fills its state budget: formula `true`, so
/// the search is the cost.
fn search(name: &'static str, dcds: Dcds, budget: u64) -> Row {
    explicit(
        name,
        Spec::Family(dcds.into()),
        "true",
        budget,
        truncated(budget),
    )
}

/// A row of the symbolic engine, which must prove its property.
fn symbolic(name: &'static str, spec: Spec, formula: &str) -> Row {
    Row {
        name,
        spec,
        formula: formula.to_owned(),
        args: vec!["--engine".into(), "symbolic".into()],
        expect: Expect {
            code: Some(0),
            verdict: Some(true),
            states: None,
        },
    }
}

/// Every row of the e2e stage: the abstraction families at their budgets,
/// the µ-calculus (system, property) pairs, and the symbolic engine's two
/// workloads.
pub fn rows() -> Vec<Row> {
    use Spec::{Family, Shipped};
    vec![
        search("parallel_rings(3)@2000", synthetic::parallel_rings(3), 2000),
        search("service_chain(10)@1200", synthetic::service_chain(10), 1200),
        search("service_cycle(6)@5000", synthetic::service_cycle(6), 5000),
        // Complete far below its budget.
        explicit(
            "flush_ladder@8000",
            Family(synthetic::flush_ladder().into()),
            "true",
            8000,
            decided(true, 22),
        ),
        search("accumulator(3)@300", synthetic::accumulator(3), 300),
        explicit(
            "example_5_1",
            Family(examples::example_5_1().into()),
            "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
            100,
            decided(true, 6),
        ),
        explicit(
            "service_cycle(6)@1500",
            Family(synthetic::service_cycle(6).into()),
            "mu Z . (exists X . live(X) & R5(X)) | <> Z",
            1500,
            truncated(1500),
        ),
        explicit(
            "collision_pairs(7)",
            Family(synthetic::collision_pairs(7).into()),
            "nu Z . (forall V . !(E(a0, V) & E(a1, V) & E(a2, V))) & [] Z",
            1000,
            decided(true, 352),
        ),
        explicit(
            "travel_request",
            Shipped("travel_request.dcds"),
            "nu Z . !(Status('requestConfirmed') & !(exists N . live(N) & Travel(N))) & [] Z",
            5000,
            decided(true, 115),
        ),
        symbolic(
            "unbounded_safe",
            Shipped("unbounded_safe.dcds"),
            "nu Z . (forall Y . Flag(Y) -> Y = 'ok') & [] Z",
        ),
        symbolic(
            "bad_free_shuffle(8,4)",
            Family(synthetic::bad_free_shuffle(8).into()),
            &synthetic::bad_free_shuffle_property(4),
        ),
    ]
}

/// The self time of one profiled run, split by layer (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// Spec parsing (`run;parse_spec`).
    pub parse: u64,
    /// The CLI driver itself (`run`'s own self time): formula parsing,
    /// output.
    pub driver: u64,
    /// Everything else under `run`: the abstraction or the symbolic
    /// iterations.
    pub search: u64,
    /// The µ-calculus fixpoint (`run;mc_eval…`) or the symbolic engine's
    /// own bookkeeping (`run;symbolic.check`).
    pub verdict: u64,
}

/// Split a folded-stack profile (`path weight` lines, self time in µs) by
/// layer, with the rule `perfbench` uses: whatever under `run` is not
/// parsing, the driver or the verdict is search, so spans added inside
/// the engines later still land in a layer.
pub fn split_layers(folded: &str) -> Layers {
    let mut layers = Layers::default();
    let weighted = folded.lines().filter_map(|line| {
        let (path, weight) = line.rsplit_once(' ')?;
        Some((path, weight.parse::<u64>().ok()?))
    });
    for (path, w) in weighted {
        match path {
            "run" => layers.driver += w,
            "run;parse_spec" => layers.parse += w,
            "run;symbolic.check" | "run;mc_eval" => layers.verdict += w,
            p if p.starts_with("run;mc_eval;") => layers.verdict += w,
            p if p.starts_with("run;") => layers.search += w,
            _ => {}
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_profile_splits_by_layer() {
        let folded = "\
run 40
run;parse_spec 100
run;rcycl 700
run;rcycl;theta 50
run;mc_eval 30
run;mc_eval;query 5
run;symbolic.check 7
run;symbolic.check;symbolic.iter 11
run;parse_spec_extra 3
workers;rcycl.step 999
not a weight
";
        assert_eq!(
            split_layers(folded),
            Layers {
                parse: 100,
                driver: 40,
                // rcycl, theta, the symbolic iterations and the
                // look-alike path; worker stacks are not under `run`.
                search: 700 + 50 + 11 + 3,
                verdict: 30 + 5 + 7,
            }
        );
        assert_eq!(split_layers(""), Layers::default());
    }

    #[test]
    fn answers_are_checked_against_the_pin() {
        let row = explicit("r", Spec::Shipped("x"), "true", 10, decided(true, 22));
        let answer = |states, verdict| {
            format!("{{\"abstraction\":{{\"states\":{states}}},\"verdict\":{verdict}}}")
        };
        assert_eq!(row.verify(Some(0), &answer(22, "true")), Ok(()));
        assert!(row.verify(Some(1), &answer(22, "true")).is_err());
        assert!(row.verify(Some(0), &answer(21, "true")).is_err());
        assert!(row.verify(Some(0), &answer(22, "null")).is_err());
        assert!(row.verify(Some(0), "verdict: true").is_err());
    }
}

//! Std-only perf ledger for the DCDS verifier (no criterion).
//!
//! **e2e stage.** Runs the `dcds` binary built next to this one (`cargo
//! build --release --bin dcds`) as `dcds check … --threads 1 --format
//! json` on every spec-file → verdict row of [`dcds_bench::e2e::rows`].
//! The wall time is the best of `--reps` untraced runs; each layer —
//! parse, search, verdict, driver ([`dcds_bench::e2e::split_layers`]) —
//! is its least self time over `--reps` `--profile` runs. Every run must
//! report the row's pinned exit code, verdict and state count.
//!
//! **scale stage.** Drives the engines to 500k/1M-state budgets on one
//! thread, recording states/sec, the dedup counters, and the states/s
//! ratio between two budgets, and asserting that the det workloads keep
//! at least half their throughput from the lower budget to the higher.
//! No CLI run reaches these budgets, so this stage calls the library.
//!
//! Writes `BENCH_e2e.json` and `BENCH_scale.json` into the current
//! directory and prints the same numbers as tables. Usage: see [`USAGE`];
//! an unknown flag or a malformed value exits 2.
//!
//! `--baseline DIR` turns the run into a **regression gate**: after
//! benchmarking, the current numbers are compared against the committed
//! `BENCH_*.json` in `DIR`, the per-metric deltas are written to
//! `BENCH_diff.json`, and the process exits nonzero when any timing or
//! throughput degrades past `--max-slowdown` (default 1.75x). Only keys
//! present on both sides are compared, and sub-10ms timings never gate (scheduler
//! noise). `--inject-slowdown F` is a self-test hook that degrades every
//! current timing/throughput by `F` before the comparison — CI uses it to
//! prove the gate actually trips. `--smoke` shrinks the run for CI: the
//! heavyweight scale stage skipped, and no `BENCH_*.json` rewritten (only
//! `BENCH_diff.json` is produced). The e2e stage keeps its best of
//! `--reps` (default 3), like the committed baseline: a best-of-1 wall
//! time of a 20 ms row strays past 1.75x on a shared machine.
//! `--e2e-only` skips the scale stage too but rewrites `BENCH_e2e.json`
//! (not `BENCH_scale.json`): the way to regenerate the e2e ledger alone.

use dcds_abstraction::{det_abstraction_traced, rcycl_traced, AbsOptions, StateKeys};
use dcds_bench::e2e::{self, Row};
use dcds_bench::report::{self, Kind, Thresholds};
use dcds_bench::synthetic;
use dcds_core::{Dcds, EngineCounters, Ts};
use dcds_obs::export::json_escape;
use dcds_obs::Obs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "usage: perf_report [--reps N] [--smoke | --e2e-only] [--baseline DIR] \
                     [--max-slowdown F] [--inject-slowdown F]";

/// The command line.
#[derive(Debug)]
struct Args {
    reps: usize,
    smoke: bool,
    /// Run the e2e stage alone and write its ledger.
    e2e_only: bool,
    baseline: Option<String>,
    thresholds: Thresholds,
    inject: Option<f64>,
}

/// Parse the command line; an unknown flag, a missing value or a value
/// that is not a positive number is an error naming the flag.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        reps: 3,
        smoke: false,
        e2e_only: false,
        baseline: None,
        thresholds: Thresholds::default(),
        inject: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        if flag == "--e2e-only" {
            out.e2e_only = true;
            continue;
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag.as_str() {
            "--reps" => out.reps = positive(flag, value()?)?,
            "--baseline" => out.baseline = Some(value()?.to_owned()),
            "--max-slowdown" => out.thresholds.max_slowdown = positive(flag, value()?)?,
            "--inject-slowdown" => out.inject = Some(positive(flag, value()?)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if out.smoke && out.e2e_only {
        return Err("`--smoke` writes no ledger and `--e2e-only` does: pick one".into());
    }
    Ok(out)
}

/// A flag value that must be a number above zero.
fn positive<T: FromStr + PartialOrd + Default>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("flag `{flag}` needs a positive number, not `{v}`"))
}

/// The `dcds` binary built next to this one.
fn dcds_binary() -> PathBuf {
    let name = format!("dcds{}", std::env::consts::EXE_SUFFIX);
    let path = std::env::current_exe()
        .map(|exe| exe.with_file_name(name))
        .unwrap_or_default();
    if !path.is_file() {
        eprintln!(
            "perf_report: no `dcds` binary at {} — build it first with \
             `cargo build --release --bin dcds`",
            path.display()
        );
        std::process::exit(2);
    }
    path
}

/// Run `dcds check` on a row (plus `extra` flags); panics unless the run
/// reports the row's pinned answer. Returns the wall seconds and the JSON
/// answer line.
fn run_check(dcds: &Path, row: &Row, spec: &Path, extra: &[&str]) -> (f64, String) {
    let t0 = Instant::now();
    let out = Command::new(dcds)
        .arg("check")
        .arg(spec)
        .arg(&row.formula)
        .args(&row.args)
        .args(["--threads", "1", "--format", "json"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("{}: cannot run {}: {e}", row.name, dcds.display()));
    let secs = t0.elapsed().as_secs_f64();
    let answer = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    if let Err(why) = row.verify(out.status.code(), &answer) {
        panic!(
            "{}: {why}\nstdout: {answer}\nstderr: {}",
            row.name,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    (secs, answer)
}

/// A directory removed when dropped, also when a row's check panics.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The e2e stage: every row's best-of-`reps` wall time over untraced
/// runs and, as `perfbench` takes them, each layer's least self time over
/// `reps` profiled runs. Each rep runs every row once, so a row's samples
/// spread over the whole stage rather than one slow second of a shared
/// machine. Returns the `BENCH_e2e.json` text.
fn e2e_stage(dcds: &Path, reps: usize, hardware_threads: usize) -> String {
    let scratch = ScratchDir(std::env::temp_dir().join(format!("dcds-e2e-{}", std::process::id())));
    let dir = &scratch.0;
    std::fs::create_dir_all(dir).expect("create the e2e spec directory");
    let rows = e2e::rows();
    let specs: Vec<PathBuf> = (rows.iter().enumerate())
        .map(|(i, row)| row.spec.file(dir, &format!("row{i}")))
        .collect();
    let folded = dir.join("run.folded");
    let profile = folded.to_str().expect("temporary paths are UTF-8");
    // Per row: least wall seconds, least µs per layer, the JSON answer.
    let mut best = vec![(f64::INFINITY, [u64::MAX; 4], String::new()); rows.len()];
    for _ in 0..reps {
        for ((row, spec), (wall, least, answer)) in rows.iter().zip(&specs).zip(&mut best) {
            *wall = wall.min(run_check(dcds, row, spec, &[]).0);
            *answer = run_check(dcds, row, spec, &["--profile", profile]).1;
            let l = e2e::split_layers(&std::fs::read_to_string(&folded).unwrap_or_default());
            for (least, us) in least
                .iter_mut()
                .zip([l.parse, l.search, l.verdict, l.driver])
            {
                *least = (*least).min(us);
            }
        }
    }
    drop(scratch);

    println!(
        "e2e perf report  (dcds check --threads 1, best of {reps}; layers from --profile runs)"
    );
    println!(
        "  {:<24} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "row", "wall s", "parse s", "search s", "verdict s", "driver s"
    );
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"e2e\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, (row, (wall, least, answer))) in rows.iter().zip(&best).enumerate() {
        let [parse, search, verdict, driver] = least.map(|us| us as f64 / 1e6);
        println!(
            "  {:<24} {wall:>9.4} {parse:>9.4} {search:>9.4} {verdict:>9.4} {driver:>9.4}",
            row.name
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"formula\": \"{}\", \"args\": \"{}\", \
             \"wall_secs\": {}, \"parse_secs\": {}, \"search_secs\": {}, \"verdict_secs\": {}, \
             \"driver_secs\": {}, \"answer\": {answer}}}{}",
            json_escape(row.name),
            json_escape(&row.formula),
            json_escape(&row.args.join(" ")),
            json_f64(*wall),
            json_f64(parse),
            json_f64(search),
            json_f64(verdict),
            json_f64(driver),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    json
}

/// One engine run at a fixed state budget.
struct ScaleRun {
    budget: usize,
    secs: f64,
    states: usize,
    edges: usize,
    complete: bool,
    /// Dedup probe work and canonical-key search effort.
    counters: EngineCounters,
}

impl ScaleRun {
    fn states_per_sec(&self) -> f64 {
        self.states as f64 / self.secs
    }
}

struct ScaleWorkload {
    name: String,
    engine: &'static str,
    runs: Vec<ScaleRun>,
    /// Budget pair `(lo, hi)` the regression gate compares.
    gate_budgets: (usize, usize),
    /// states/s at the `hi` budget over states/s at the `lo` budget — the
    /// dedup-throughput check (det engines must stay at or above 0.5; a
    /// linear class-index scan collapses this towards `lo / hi`).
    throughput_ratio: f64,
}

fn scale_run(
    budget: usize,
    secs: f64,
    ts: &Ts,
    complete: bool,
    counters: EngineCounters,
) -> ScaleRun {
    ScaleRun {
        budget,
        secs,
        states: ts.num_states(),
        edges: ts.num_edges(),
        complete,
        counters,
    }
}

fn scale_run_det(dcds: &Dcds, budget: usize) -> ScaleRun {
    let t0 = Instant::now();
    let opts = AbsOptions {
        threads: 1,
        ..AbsOptions::default()
    };
    let abs = det_abstraction_traced(dcds, budget, opts, &Obs::disabled());
    let secs = t0.elapsed().as_secs_f64();
    let complete = abs.outcome == dcds_abstraction::AbsOutcome::Complete;
    scale_run(budget, secs, &abs.ts, complete, abs.counters)
}

fn scale_run_rcycl(dcds: &Dcds, budget: usize) -> ScaleRun {
    let t0 = Instant::now();
    let res = rcycl_traced(dcds, budget, 1, StateKeys::Exact, &Obs::disabled());
    let secs = t0.elapsed().as_secs_f64();
    scale_run(budget, secs, &res.ts, res.complete, res.counters)
}

/// states/s at the workload's `hi` gate budget over states/s at its `lo`
/// one; the throughput check compares it against 0.5.
fn gate_ratio(runs: &[ScaleRun], (lo, hi): (usize, usize)) -> f64 {
    let at = |budget: usize| {
        runs.iter()
            .find(|r| r.budget == budget)
            .map(ScaleRun::states_per_sec)
            .expect("scale stage must include both gate budgets")
    };
    at(hi) / at(lo)
}

fn scale_workloads() -> Vec<ScaleWorkload> {
    // Both families hold the state *size* flat no matter how far
    // exploration runs (bounded instances, bounded service-call maps), so
    // states/s across budgets isolates the per-state cost of dedup.
    let chain = synthetic::service_chain(16);
    let det = ScaleWorkload {
        name: "service_chain(16)".into(),
        engine: "det_abstraction",
        runs: vec![
            scale_run_det(&chain, 100_000),
            scale_run_det(&chain, 500_000),
            // Stretch budget: one million det states.
            scale_run_det(&chain, 1_000_000),
        ],
        gate_budgets: (100_000, 500_000),
        throughput_ratio: 0.0,
    };

    // Collision-heavy det family: whole levels share one signature, so a
    // linear signature-bucket scan is quadratic here; the keyed class
    // index keeps it linear. Budgets used to stop at 12k because the
    // quantified triple-collision constraint was evaluated by |adom|^4
    // enumeration (~19 states/s, 700 s per rep); with the constraint
    // checked as a compiled plan that joins its guard atoms, and the
    // pruned canonical search, the family runs around 1000 states/s, so
    // the stage now drives enough states for the throughput gate to
    // measure the dedup indexes rather than successor generation.
    let coll = synthetic::collision_pairs(12);
    let collisions = ScaleWorkload {
        name: "collision_pairs(12)".into(),
        engine: "det_abstraction",
        runs: vec![scale_run_det(&coll, 30_000), scale_run_det(&coll, 60_000)],
        gate_budgets: (30_000, 60_000),
        throughput_ratio: 0.0,
    };

    let rings = synthetic::phased_rings(5);
    let rcycl = ScaleWorkload {
        name: "phased_rings(5)".into(),
        engine: "rcycl",
        runs: vec![
            scale_run_rcycl(&rings, 100_000),
            scale_run_rcycl(&rings, 500_000),
            // Stretch budget: one million states.
            scale_run_rcycl(&rings, 1_000_000),
        ],
        gate_budgets: (100_000, 500_000),
        throughput_ratio: 0.0,
    };

    let mut out = vec![det, collisions, rcycl];
    for w in &mut out {
        let (lo, hi) = w.gate_budgets;
        w.throughput_ratio = gate_ratio(&w.runs, w.gate_budgets);
        // Dedup-throughput regression gate: with the exact-match class
        // index, det states/s must not collapse as the pool grows.
        if w.engine.starts_with("det") {
            assert!(
                w.throughput_ratio >= 0.5,
                "{}: det throughput fell to {:.2}x from {lo} to {hi} states — \
                 dedup is super-linear again",
                w.name,
                w.throughput_ratio
            );
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}
/// Absolute states/s floor for `collision_pairs` in the scale stage — the
/// workload the keyed dedup + compiled constraint plans exist to fix.
/// The enumerate-all-orders kernel over |adom|^4 constraint checks managed
/// ~19 states/s; the current engine runs around 1000 states/s on one core.
/// The floor sits far under the healthy figure to absorb slow runners, but
/// any structural regression toward the old quadratic behaviour lands well
/// below it regardless of what the baseline artifact recorded.
const COLLISION_FLOOR_STATES_PER_SEC: f64 = 200.0;

/// Compare the current artifacts against the baselines in `dir`, write
/// `BENCH_diff.json`, and exit nonzero on a gated regression.
fn gate_against_baseline(
    dir: &str,
    artifacts: &[(&str, String)],
    thresholds: Thresholds,
    inject: Option<f64>,
) {
    let mut base_metrics = std::collections::BTreeMap::new();
    let mut cur_metrics = std::collections::BTreeMap::new();
    for (name, current_json) in artifacts {
        let path = format!("{dir}/{name}");
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("perf gate: baseline {path} unreadable ({e}) — skipped");
                continue;
            }
        };
        match report::parse(&src) {
            Ok(doc) => base_metrics.extend(report::extract(&doc)),
            Err(e) => {
                eprintln!("perf gate: baseline {path} is not valid JSON: {e}");
                std::process::exit(2);
            }
        }
        let doc = report::parse(current_json).expect("generated artifact is valid JSON");
        cur_metrics.extend(report::extract(&doc));
    }
    if let Some(f) = inject {
        for m in cur_metrics.values_mut() {
            match m.kind {
                Kind::Time => m.value *= f,
                Kind::Throughput => m.value /= f,
            }
        }
        eprintln!("perf gate: injected a {f:.2}x slowdown into every current timing/throughput");
    }
    let deltas = report::diff(&base_metrics, &cur_metrics, thresholds);
    let diff_json = report::diff_json(&deltas, thresholds, inject);
    std::fs::write("BENCH_diff.json", &diff_json).expect("write BENCH_diff.json");

    println!(
        "\nperf gate vs {dir}  (slowdown <= {:.2}x; sub-10ms timings ungated)",
        thresholds.max_slowdown
    );
    let mut regressions = 0usize;
    for d in &deltas {
        let verdict = if d.regressed {
            regressions += 1;
            "REGRESSED"
        } else if !d.gated {
            "noise"
        } else {
            "ok"
        };
        println!(
            "  {:<60}  base {:>12.4}  now {:>12.4}  x{:<6.2} {}",
            d.key, d.baseline, d.current, d.factor, verdict
        );
    }
    println!(
        "  {} metrics compared, {} regression(s); wrote BENCH_diff.json",
        deltas.len(),
        regressions
    );
    // Baseline-independent floor: collision_pairs throughput must clear an
    // absolute minimum even if the baseline artifact predates the keyed
    // kernel (a relative gate against a 19 states/s baseline passes
    // anything).
    for (key, m) in &cur_metrics {
        if key.starts_with("scale/collision_pairs") && key.ends_with("/states_per_sec") {
            let ok = m.value >= COLLISION_FLOOR_STATES_PER_SEC;
            println!(
                "  {:<60}  floor {:>12.4}  now {:>12.4}         {}",
                key,
                COLLISION_FLOOR_STATES_PER_SEC,
                m.value,
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                regressions += 1;
            }
        }
    }
    if regressions > 0 {
        eprintln!("perf gate: FAILED with {regressions} regression(s)");
        std::process::exit(1);
    }
}
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        reps,
        smoke,
        e2e_only,
        baseline: baseline_dir,
        thresholds,
        inject,
    } = parse_args(&argv).unwrap_or_else(|msg| {
        eprintln!("perf_report: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let dcds = dcds_binary();
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut artifacts: Vec<(&str, String)> = Vec::new();

    let json = e2e_stage(&dcds, reps, hardware_threads);
    if !smoke {
        std::fs::write("BENCH_e2e.json", &json).expect("write BENCH_e2e.json");
        println!("\nwrote BENCH_e2e.json");
    }
    artifacts.push(("BENCH_e2e.json", json));

    // ---- engines at scale ----
    // The scale stage drives half-million-state budgets; in smoke and
    // e2e-only mode it is skipped outright (its keys simply drop out of
    // the comparison).
    if smoke || e2e_only {
        println!("\nscale stage skipped");
        if let Some(dir) = &baseline_dir {
            gate_against_baseline(dir, &artifacts, thresholds, inject);
        }
        return;
    }
    let scale_loads = scale_workloads();
    println!("\nscale report  (1 thread)");
    for w in &scale_loads {
        println!("\n{} — {}", w.engine, w.name);
        println!(
            "  {:>9}  {:>9}  {:>10}  {:>9}  {:>8}",
            "budget", "secs", "states/s", "edges", "complete"
        );
        for r in &w.runs {
            println!(
                "  {:>9}  {:>9.1}  {:>10.0}  {:>9}  {:>8}",
                r.budget,
                r.secs,
                r.states_per_sec(),
                r.edges,
                r.complete
            );
        }
        if let Some(r) = w.runs.last() {
            println!(
                "  canon at {} states: {} keys ({} orders, {} cutoffs), \
                 {} sig-bucket skips",
                r.states,
                r.counters.canon_keys_computed,
                r.counters.canon_orders_enumerated,
                r.counters.canon_prune_cutoffs,
                r.counters.sig_filter_skips
            );
        }
        println!(
            "  {}k -> {}k: states/s x{:.2}{}",
            w.gate_budgets.0 / 1000,
            w.gate_budgets.1 / 1000,
            w.throughput_ratio,
            if w.engine.starts_with("det") {
                " (must stay >= 0.5x)"
            } else {
                ""
            },
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"scale\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"workloads\": [");
    for (wi, w) in scale_loads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"engine\": \"{}\",", w.engine);
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, r) in w.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"budget\": {}, \"secs\": {}, \"states\": {}, \"edges\": {}, \
                 \"states_per_sec\": {}, \"complete\": {}, \
                 \"canon_keys_computed\": {}, \"canon_orders_enumerated\": {}, \
                 \"canon_prune_cutoffs\": {}, \"sig_filter_skips\": {}}}{}",
                r.budget,
                json_f64(r.secs),
                r.states,
                r.edges,
                json_f64(r.states_per_sec()),
                r.complete,
                r.counters.canon_keys_computed,
                r.counters.canon_orders_enumerated,
                r.counters.canon_prune_cutoffs,
                r.counters.sig_filter_skips,
                if ri + 1 < w.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(
            json,
            "      \"gate_budgets\": [{}, {}],",
            w.gate_budgets.0, w.gate_budgets.1
        );
        let _ = writeln!(
            json,
            "      \"throughput_ratio\": {}",
            json_f64(w.throughput_ratio)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < scale_loads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
    artifacts.push(("BENCH_scale.json", json));

    if let Some(dir) = &baseline_dir {
        gate_against_baseline(dir, &artifacts, thresholds, inject);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_bad_ones_are_named() {
        let args = parse(&[
            "--baseline",
            ".",
            "--max-slowdown",
            "6",
            "--inject-slowdown",
            "10",
        ])
        .unwrap();
        assert_eq!(args.baseline.as_deref(), Some("."));
        assert_eq!(args.thresholds.max_slowdown, 6.0);
        assert_eq!(args.inject, Some(10.0));
        assert_eq!(args.reps, 3);
        let smoke = parse(&["--reps", "5", "--smoke"]).unwrap();
        assert!(smoke.smoke && smoke.reps == 5 && !smoke.e2e_only);
        let e2e = parse(&["--e2e-only"]).unwrap();
        assert!(e2e.e2e_only && !e2e.smoke);

        for (bad, named) in [
            (&["--baselne", "."][..], "`--baselne`"),
            (&["--max-slowdown", "abc"], "`--max-slowdown`"),
            (&["--max-slowdown", "-2"], "`--max-slowdown`"),
            (&["--reps", "0"], "`--reps`"),
            (&["--baseline"], "`--baseline`"),
            (&["--scale", "2"], "`--scale`"),
            (&["--smoke", "--e2e-only"], "pick one"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }
}

//! Smoke tests for the `dcds` command-line interface, driving the real
//! binary over the spec files in `specs/`.

use std::process::Command;

/// Run the binary; returns (exit code, combined stdout+stderr).
fn dcds_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("not killed by signal"), text)
}

fn dcds(args: &[&str]) -> (bool, String) {
    let (code, text) = dcds_code(args);
    (code == 0, text)
}

/// Run the binary; returns (exit code, stdout, stderr) separately, for the
/// tests that pin the stdout/stderr routing contract.
fn dcds_streams(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("not killed by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_ping_pong() {
    let (ok, text) = dcds(&["analyze", &spec("ping_pong.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("weakly acyclic: false"));
    assert!(text.contains("GR-acyclic: true"));
    assert!(text.contains("state-bounded"));
}

#[test]
fn analyze_accumulator_renders_witness() {
    let (ok, text) = dcds(&["analyze", &spec("accumulator.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("GR+-acyclic: false"));
    assert!(text.contains("recall cycle pi3"));
}

#[test]
fn analyze_travel_request() {
    let (ok, text) = dcds(&["analyze", &spec("travel_request.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("GR-acyclic: false"));
    assert!(text.contains("GR+-acyclic: true"));
}

#[test]
fn check_verdicts_witnesses_and_exit_codes() {
    // Exit 0: property holds on a complete abstraction.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "--witness",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("fragment: MuLP"));
    assert!(text.contains("verdict: true"));
    assert!(text.contains("mc engine"), "{text}");

    // Exit 1: property violated, with a counterexample path.
    let (code2, text2) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & R(X)) & [] Z",
        "--witness",
    ]);
    assert_eq!(code2, 1, "{text2}");
    assert!(text2.contains("verdict: false"));
    // The path runs from s0 (which has an R fact) to a state without one.
    let ag_path = path_after(&text2, "shortest path to a violating state:");
    assert!(ag_path.len() >= 2, "{text2}");
    assert!(ag_path[0].starts_with("s0:"), "{text2}");
    assert!(!ag_path.last().unwrap().contains("R("), "{text2}");

    // An EF witness ends in a state satisfying the goal.
    let (code3, text3) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "mu Z . (exists X . live(X) & Q(X)) | <> Z",
        "--witness",
    ]);
    assert_eq!(code3, 0, "{text3}");
    let ef_path = path_after(&text3, "a satisfying state (shortest path):");
    assert!(ef_path.last().unwrap().contains("Q("), "{text3}");

    // Other shapes get a note instead of a misleading path.
    let (code4, text4) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "exists X . live(X) & R(X)",
        "--witness",
    ]);
    assert_eq!(code4, 0, "{text4}");
    assert!(text4.contains("AG"), "{text4}");
    assert!(!text4.contains("shortest path"), "{text4}");
}

/// The states of the rendered path printed on the line after `header`.
fn path_after(text: &str, header: &str) -> Vec<String> {
    let mut lines = text.lines().skip_while(|l| !l.contains(header));
    assert!(lines.next().is_some(), "no `{header}` in {text}");
    let path = lines.next().unwrap_or_else(|| panic!("no path in {text}"));
    path.trim().split("  ->  ").map(str::to_owned).collect()
}

#[test]
fn check_truncated_abstraction_is_inconclusive() {
    // Exit 2: the state budget cuts the abstraction short.
    let (code, text) = dcds_code(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "3",
    ]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("truncated"), "{text}");
    assert!(
        text.contains("verdict: inconclusive (state budget of 3 states hit)"),
        "{text}"
    );
    assert!(!text.contains("verdict: true"), "{text}");

    // The JSON report carries no verdict either, only the reason.
    let (code, stdout, _stderr) = dcds_streams(&[
        "check",
        &spec("unbounded_safe.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "50",
        "--format",
        "json",
    ]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("\"complete\":false"), "{stdout}");
    assert!(
        stdout.contains("\"verdict\":null,\"reason\":\"state budget of 50 states hit\"}"),
        "{stdout}"
    );
}

#[test]
fn check_keys_rcycl_states_up_to_isomorphism_for_closed_leaf_formulas() {
    let ping_pong = spec("ping_pong.dcds");
    // Closed-leaf: one state per isomorphism class, the 4 of Fig. 7b
    // (exact RCYCL keeps 6).
    let phi = "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z";
    let (code, stdout, _) = dcds_streams(&["check", &ping_pong, phi, "--format", "json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains(
            "{\"how\":\"RCYCL up to isomorphism (closed-leaf formula)\",\"states\":4,\"edges\":6,"
        ),
        "{stdout}"
    );
    // `X` crosses a step: the exact pruning, unchanged, and no canonical
    // key computed.
    let phi = "exists X . live(X) & R(X) & <> (live(X) & Q(X))";
    let (code, stdout, _) = dcds_streams(&["check", &ping_pong, phi, "--format", "json"]);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(
        stdout,
        "{\"fragment\":\"MuLP\",\"abstraction\":{\"how\":\"RCYCL pruning (Thm 5.4)\",\"states\":6,\
         \"edges\":11,\"complete\":true},\"engine_counters\":{\"states_expanded\":6,\
         \"successors_generated\":11,\"canon_keys_computed\":0,\"sig_filter_skips\":0,\
         \"canon_orders_enumerated\":0,\"canon_prune_cutoffs\":0},\"mc_counters\":\
         {\"query_state_evals\":72,\"cache_hits\":0,\"cache_misses\":25,\"fixpoint_iterations\":0,\
         \"state_subformula_visits\":150},\"verdict\":true}\n"
    );
    // `dcds abstract` keeps the exact pruning.
    let (code, text) = dcds_code(&["abstract", &ping_pong]);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.starts_with("RCYCL pruning (Thm 5.4): 6 states, 11 edges,"),
        "{text}"
    );
    // A truncated run up to isomorphism ends at its state budget: exit 2,
    // and the budget is named.
    let (code, text) = dcds_code(&[
        "check",
        &spec("accumulator.dcds"),
        "true",
        "--max-states",
        "50",
    ]);
    assert_eq!(code, 2, "{text}");
    assert!(
        text.contains("abstraction: RCYCL up to isomorphism (closed-leaf formula), 50 states, complete = false"),
        "{text}"
    );
    assert!(
        text.contains("verdict: inconclusive (state budget of 50 states hit)"),
        "{text}"
    );
}

#[test]
fn check_runs_no_fixpoint_on_a_truncated_abstraction() {
    // The parity property does not fuse (`!(X = Y)` is evaluated per
    // binding over ADOM(Θ)²): its fixpoint over this truncated abstraction
    // costs millions of query evaluations, and a truncated run reports no
    // verdict, so none runs and the model checker's counters stay zero.
    let (code, stdout, _stderr) = dcds_streams(&[
        "check",
        &spec("accumulator.dcds"),
        "mu Z . (exists X, Y . Q(X) & Q(Y) & !(X = Y)) | <> Z",
        "--max-states",
        "300",
        "--format",
        "json",
    ]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("\"verdict\":null"), "{stdout}");
    assert!(
        stdout.contains(
            "\"mc_counters\":{\"query_state_evals\":0,\"cache_hits\":0,\"cache_misses\":0,\
             \"fixpoint_iterations\":0,\"state_subformula_visits\":0}"
        ),
        "{stdout}"
    );

    // `--witness` still searches the truncated abstraction: a violating
    // state it reaches is a real counterexample.
    let (code, text) = dcds_code(&[
        "check",
        &spec("bad/nonacyclic.dcds"),
        "nu Z . (forall X . !Q(X)) & [] Z",
        "--max-states",
        "5",
        "--witness",
    ]);
    assert_eq!(code, 2, "{text}");
    assert_eq!(
        path_after(&text, "shortest path to a violating state"),
        ["s0:{R(a)}", "s1:{R(a) Q(a)}"],
        "{text}"
    );
}

#[test]
fn check_names_the_evaluation_budget_when_rcycl_skips_steps() {
    // Every step doubles R, so the calls per step grow until `EVALS_F`
    // exceeds the per-step evaluation budget; the state budget is never
    // reached at the default, and the report must not claim it was. The
    // closed-leaf formula keys states up to isomorphism (88 classes; exact
    // RCYCL keeps 98 states).
    let path = std::env::temp_dir().join(format!("dcds_cli_doubler_{}.dcds", std::process::id()));
    std::fs::write(
        &path,
        "schema { R 1; } services { f 1 nondet; g 1 nondet; } init { R('a'); }\n\
         action alpha() { R(X) ~> R(f(X)), R(g(X)); } rule true => alpha;\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let phi = "nu Z . true & [] Z";

    let (code, stdout, _stderr) = dcds_streams(&["check", path, phi, "--format", "json"]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("\"states\":88,"), "{stdout}");
    assert!(
        stdout.contains(
            "\"verdict\":null,\"reason\":\"evaluation budget of 20000 evaluations per step hit \
             (70 steps skipped)\"}"
        ),
        "{stdout}"
    );

    let (code, text) = dcds_code(&["check", path, phi]);
    assert_eq!(code, 2, "{text}");
    assert!(
        text.contains(
            "WARNING: the abstraction is truncated: evaluation budget of 20000 evaluations \
             per step hit (70 steps skipped)"
        ),
        "{text}"
    );
    assert!(!text.contains("--max-states"), "{text}");
    assert!(!text.contains("state budget"), "{text}");

    // A run up to isomorphism ends at the first state its budget drops,
    // so at 50 states only the state budget trips.
    let (code, stdout, _stderr) =
        dcds_streams(&["check", path, phi, "--max-states", "50", "--format", "json"]);
    assert_eq!(code, 2, "{stdout}");
    assert!(
        stdout.contains("\"states\":50,")
            && stdout.ends_with("\"verdict\":null,\"reason\":\"state budget of 50 states hit\"}\n"),
        "{stdout}"
    );

    // Exact RCYCL (`X` crosses a step) runs on past the state budget:
    // with both budgets tripped, the reason names both.
    let phi = "exists X . live(X) & R(X) & <> (live(X) & R(X))";
    let (code, stdout, _stderr) =
        dcds_streams(&["check", path, phi, "--max-states", "50", "--format", "json"]);
    assert_eq!(code, 2, "{stdout}");
    assert!(
        stdout.contains(
            "\"reason\":\"state budget of 50 states hit; evaluation budget of 20000 \
             evaluations per step hit (32 steps skipped)\"}"
        ),
        "{stdout}"
    );
    let (code, text) = dcds_code(&["check", path, phi, "--max-states", "50"]);
    assert_eq!(code, 2, "{text}");
    assert!(
        text.contains(
            "verdict: inconclusive (state budget of 50 states hit; evaluation budget of 20000 \
             evaluations per step hit (32 steps skipped))"
        ),
        "{text}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_rejects_open_formulas_by_name() {
    let (code, text) = dcds_code(&["check", &spec("ping_pong.dcds"), "live(X) & R(X)"]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("not closed"), "{text}");
    assert!(text.contains('X'), "{text}");
}

#[test]
fn symbolic_engine_rejects_open_formulas_by_name() {
    let (code, text) = dcds_code(&[
        "check",
        &spec("unbounded_safe.dcds"),
        "nu Z . !Flag(Y) & [] Z",
        "--engine",
        "symbolic",
    ]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("not closed"), "{text}");
    assert!(text.contains('Y'), "{text}");
}

#[test]
fn check_threads_agree_and_zero_is_rejected() {
    let phi = "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z";
    let (c1, t1) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "1"]);
    let (c2, t2) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "2"]);
    assert_eq!(c1, 0, "{t1}");
    assert_eq!(c2, 0, "{t2}");
    // Identical counters and verdict at every thread count: compare the
    // thread-independent report lines.
    let strip = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with("mc engine"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&t1), strip(&t2));
    // The counters line differs only in its thread-count prefix.
    let tail = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("mc engine"))
            .map(|l| l.split(':').nth(1).unwrap().to_owned())
    };
    assert_eq!(tail(&t1), tail(&t2), "counters must not depend on threads");

    let (c0, t0) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "0"]);
    assert_ne!(c0, 0);
    assert!(t0.contains("--threads must be at least 1"), "{t0}");

    let (ca, ta) = dcds_code(&["abstract", &spec("ping_pong.dcds"), "--threads", "0"]);
    assert_ne!(ca, 0);
    assert!(ta.contains("--threads must be at least 1"), "{ta}");

    // The symbolic engine is serial but range-checks `--threads` too.
    let symbolic = |threads| {
        dcds_code(&[
            "check",
            &spec("unbounded_safe.dcds"),
            "nu Z . true & [] Z",
            "--engine",
            "symbolic",
            "--threads",
            threads,
        ])
    };
    let (cs0, ts0) = symbolic("0");
    assert_ne!(cs0, 0);
    assert!(ts0.contains("--threads must be at least 1"), "{ts0}");
    let (cs1, ts1) = symbolic("1");
    assert_eq!(cs1, 0, "{ts1}");
}

#[test]
fn threads_above_the_cap_are_a_usage_error() {
    // Each worker is an OS thread: a count past the cap is refused before
    // any pool starts, on both engines' commands.
    let phi = "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z";
    for args in [
        vec!["check", &spec("ping_pong.dcds"), phi, "--threads", "257"],
        vec!["abstract", &spec("ping_pong.dcds"), "--threads", "257"],
        vec![
            "check",
            &spec("ping_pong.dcds"),
            phi,
            "--threads",
            "4000000000",
        ],
    ] {
        let (code, text) = dcds_code(&args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.contains("--threads must be at most 256"), "{text}");
    }
    let (code, text) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "2"]);
    assert_eq!(code, 0, "{text}");
}

#[test]
fn check_format_json_is_one_object_on_stdout() {
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let line = stdout.trim();
    assert_eq!(line.lines().count(), 1, "one JSON object: {stdout}");
    assert!(line.starts_with("{\"fragment\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"abstraction\":{\"how\":"), "{line}");
    assert!(
        line.contains("\"engine_counters\":{\"states_expanded\":"),
        "{line}"
    );
    assert!(
        line.contains("\"mc_counters\":{\"query_state_evals\":"),
        "{line}"
    );
    assert!(line.contains("\"verdict\":true"), "{line}");
    // Human commentary must not contaminate the machine stream.
    assert!(!stdout.contains("mc engine"), "{stdout}");
}

#[test]
fn check_large_budget_gives_the_default_budget_answer() {
    // A budget above the default (10000 states) changes nothing the CLI
    // reports: stdout stays exactly one JSON object, with the same RCYCL
    // pruning and verdict as the default.
    let args = [
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--format",
        "json",
    ];
    let (code, default, err) = dcds_streams(&args);
    assert_eq!(code, 0, "{err}");
    let mut large_args = args.to_vec();
    large_args.extend(["--max-states", "20000"]);
    let (code, large, err) = dcds_streams(&large_args);
    assert_eq!(code, 0, "{err}");
    let line = large.trim();
    assert_eq!(line.lines().count(), 1, "one JSON object: {large}");
    assert!(line.starts_with("{\"fragment\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"complete\":true"), "{line}");
    assert_eq!(default, large);
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for args in [
        vec![
            "check",
            &spec("ping_pong.dcds"),
            "nu Z . true & [] Z",
            "--compact",
        ],
        vec!["abstract", &spec("ping_pong.dcds"), "--max-state", "5"],
        vec!["run", &spec("ping_pong.dcds"), "--stats"],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let (code, stdout, stderr) = dcds_streams(&args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{stdout}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    // A repeated flag would silently resolve to its first occurrence; it
    // takes the same path.
    let spec = spec("unbounded_safe.dcds");
    let safe = "nu Z . true & [] Z";
    for (args, flag) in [
        (
            vec!["abstract", &spec, "--max-states", "5", "--max-states", "7"],
            "--max-states",
        ),
        (
            vec![
                "check", &spec, safe, "--engine", "symbolic", "--engine", "explicit",
            ],
            "--engine",
        ),
        (
            vec![
                "check",
                &spec,
                safe,
                "--threads",
                "1",
                "--stats",
                "--threads",
                "1",
            ],
            "--threads",
        ),
    ] {
        let (code, stdout, stderr) = dcds_streams(&args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{stdout}");
        assert!(
            stderr.contains(&format!("flag `{flag}` given twice")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    // `check` takes both engines' flags, but a flag the chosen engine would
    // ignore is a usage error naming it.
    for (args, message) in [
        (
            vec!["check", &spec, safe, "--max-iters", "4"],
            "flag `--max-iters` needs `--engine symbolic`",
        ),
        (
            vec![
                "check",
                &spec,
                safe,
                "--engine",
                "explicit",
                "--max-clauses",
                "1",
            ],
            "flag `--max-clauses` needs `--engine symbolic`",
        ),
        (
            vec!["check", &spec, safe, "--confirm-nodes", "9"],
            "flag `--confirm-nodes` needs `--engine symbolic`",
        ),
        (
            vec![
                "check",
                &spec,
                safe,
                "--engine",
                "symbolic",
                "--max-states",
                "5",
            ],
            "flag `--max-states` does not apply to `--engine symbolic`",
        ),
        // A malformed value takes the same path: exit 1 would read as
        // "violated" for `check`.
        (
            vec!["check", &spec, safe, "--max-states", "abc"],
            "--max-states needs a number",
        ),
        (
            vec!["check", &spec, safe, "--threads", "x"],
            "--threads needs a number",
        ),
        (
            vec!["abstract", &spec, "--threads", "x"],
            "--threads needs a number",
        ),
        (vec!["run", &spec, "--steps", "x"], "--steps needs a number"),
        (
            vec![
                "check",
                &spec,
                safe,
                "--engine",
                "symbolic",
                "--max-iters",
                "many",
            ],
            "--max-iters needs a number",
        ),
    ] {
        let (code, stdout, stderr) = dcds_streams(&args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{stdout}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn benchmark_flags_are_accepted() {
    // Every flag the spec-to-verdict benchmark passes must keep working.
    let dir = std::env::temp_dir();
    let out = dir.join(format!("dcds_cli_bench_{}", std::process::id()));
    let profile = format!("{}.folded", out.display());
    let metrics = format!("{}.metrics", out.display());
    for engine in ["explicit", "symbolic"] {
        let (code, stdout, stderr) = dcds_streams(&[
            "check",
            &spec("ping_pong.dcds"),
            "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
            "--threads",
            "1",
            "--format",
            "json",
            "--engine",
            engine,
            "--profile",
            &profile,
            "--profile-alloc",
            "--metrics-json",
            &metrics,
        ]);
        assert_eq!(code, 0, "{engine}: {stdout}{stderr}");
        assert!(stdout.trim().ends_with("\"verdict\":true}"), "{stdout}");
        assert!(std::fs::metadata(&profile).is_ok());
        assert!(std::fs::metadata(format!("{profile}.alloc")).is_ok());
        assert!(std::fs::metadata(&metrics).is_ok());
    }
    let (code, stdout, stderr) =
        dcds_streams(&["lint", &spec("ping_pong.dcds"), "--format", "json"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    for path in [profile.clone(), format!("{profile}.alloc"), metrics] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn check_obs_flags_write_trace_and_metrics() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("dcds_cli_trace_{}.json", std::process::id()));
    let metrics = dir.join(format!("dcds_cli_metrics_{}.json", std::process::id()));
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "200",
        "--trace",
        trace.to_str().unwrap(),
        "--stats",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    // stdout: the machine-readable report only.
    assert!(stdout.contains("verdict: true"), "{stdout}");
    assert!(!stdout.contains("span summary"), "{stdout}");
    // stderr: the --stats summary and the trace-written note.
    assert!(stderr.contains("== span summary"), "{stderr}");
    assert!(stderr.contains("== counters =="), "{stderr}");
    assert!(stderr.contains("trace:"), "{stderr}");

    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.starts_with("{\"displayTimeUnit\""), "{t}");
    assert!(t.contains("\"ph\":\"X\""));
    assert!(!t.contains("\"ph\":\"B\""), "complete events only");
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.starts_with("{\"counters\":{"), "{m}");
    assert!(m.contains("rcycl.triples_processed"), "{m}");
    assert!(m.contains("mc.query_state_evals"), "{m}");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// Run the binary with extra environment variables set.
fn dcds_streams_env(args: &[&str], envs: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcds"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().expect("not killed by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn abstract_profile_writes_folded_stacks_covering_the_run() {
    let dir = std::env::temp_dir();
    let profile = dir.join(format!("dcds_cli_profile_{}.folded", std::process::id()));
    let events = dir.join(format!("dcds_cli_profile_ev_{}.jsonl", std::process::id()));
    let (code, _stdout, stderr) = dcds_streams(&[
        "abstract",
        &spec("travel_request.dcds"),
        "--max-states",
        "200",
        "--profile",
        profile.to_str().unwrap(),
        "--profile-alloc",
        "--events",
        events.to_str().unwrap(),
        "--stats",
    ]);
    assert_eq!(code, 0, "{stderr}");
    // The --stats table gains allocation columns under --profile-alloc.
    assert!(stderr.contains("== top spans (self time) =="), "{stderr}");
    assert!(stderr.contains("alloc"), "{stderr}");

    // Every folded line is `path;seg;... weight`; the driver paths (the
    // non-`workers` trees) partition the root's inclusive time, so their
    // self-time sum is the root's folded total.
    let folded = std::fs::read_to_string(&profile).unwrap();
    let mut driver_self_us = 0u64;
    for line in folded.lines() {
        let (path, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line without weight: {line}"));
        let w: u64 = weight
            .parse()
            .unwrap_or_else(|_| panic!("bad weight: {line}"));
        assert!(!path.is_empty());
        if !path.starts_with("workers") {
            driver_self_us += w;
        }
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("run ") || l.starts_with("run;")),
        "root `run` span missing: {folded}"
    );

    // The allocation-weighted companion exists and attributes real bytes.
    let alloc = std::fs::read_to_string(format!("{}.alloc", profile.display())).unwrap();
    let alloc_total: u64 = alloc
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(alloc_total > 0, "no bytes attributed: {alloc}");

    // The folded root total accounts for the run's wall clock (within 5%,
    // plus a small absolute slack for sub-millisecond runs).
    let ev = std::fs::read_to_string(&events).unwrap();
    let last = ev.lines().last().unwrap();
    assert!(last.contains("\"type\":\"run_end\""), "{ev}");
    let wall_us: u64 = last
        .split("\"wall_us\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("run_end without wall_us: {last}"));
    let slack = (wall_us / 20).max(2_000);
    assert!(
        driver_self_us + slack >= wall_us && driver_self_us <= wall_us + slack,
        "folded root {driver_self_us}µs vs wall {wall_us}µs"
    );
    let _ = std::fs::remove_file(&profile);
    let _ = std::fs::remove_file(format!("{}.alloc", profile.display()));
    let _ = std::fs::remove_file(&events);
}

#[test]
fn check_events_stream_has_lifecycle_and_monotonic_seq() {
    let dir = std::env::temp_dir();
    let events = dir.join(format!("dcds_cli_events_{}.jsonl", std::process::id()));
    let (code, _stdout, stderr) = dcds_streams(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "200",
        "--events",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let text = std::fs::read_to_string(&events).unwrap();
    let first = text.lines().next().unwrap();
    assert!(first.contains("\"type\":\"run_start\""), "{first}");
    assert!(first.contains("\"command\":\"check\""), "{first}");
    assert!(first.contains("travel_request.dcds"), "{first}");
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"type\":\"run_end\""), "{last}");
    // Engine progress and model-checker fixpoint iterations are on the
    // stream, with strictly increasing sequence numbers.
    assert!(text.contains("\"type\":\"progress\""), "{text}");
    assert!(text.contains("\"type\":\"fixpoint\""), "{text}");
    let mut last_seq = None;
    for line in text.lines() {
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("event line without seq: {line}"));
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq went {prev} -> {seq}");
        }
        last_seq = Some(seq);
    }
    let _ = std::fs::remove_file(&events);
}

#[test]
fn progress_always_flushes_a_final_line_on_short_runs() {
    // The interval is an hour, so the rate limiter never fires mid-run —
    // but the final flush still reports the outcome, so a short run under
    // DCDS_PROGRESS is never silent.
    let (code, _stdout, stderr) = dcds_streams_env(
        &[
            "abstract",
            &spec("travel_request.dcds"),
            "--max-states",
            "200",
        ],
        &[("DCDS_PROGRESS", "3600s")],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("[dcds +"), "{stderr}");
    assert!(stderr.contains("rcycl done:"), "{stderr}");
    assert!(stderr.contains("run finished in"), "{stderr}");
}

#[test]
fn abstract_metrics_json_dash_goes_to_stdout() {
    let (code, stdout, stderr) =
        dcds_streams(&["abstract", &spec("ping_pong.dcds"), "--metrics-json", "-"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("{\"counters\":{"), "{stdout}");
    assert!(stdout.contains("\"gauges\":{"), "{stdout}");
}

#[test]
fn analyze_stats_summary_lands_on_stderr() {
    let (code, stdout, stderr) = dcds_streams(&["analyze", &spec("ping_pong.dcds"), "--stats"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stderr.contains("analyze.relations"), "{stderr}");
    assert!(stdout.contains("weakly acyclic"), "{stdout}");
    assert!(!stdout.contains("analyze.relations"), "{stdout}");
}

#[test]
fn run_accepts_full_u64_seeds() {
    // u64::MAX used to be rejected (or truncated) by the usize round trip.
    let (ok, text) = dcds(&[
        "run",
        &spec("ping_pong.dcds"),
        "--steps",
        "2",
        "--seed",
        "18446744073709551615",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("s2:"), "{text}");
}

#[test]
fn deeply_nested_formula_is_a_parse_error_not_a_crash() {
    let bomb = format!("{}true{}", "(".repeat(50_000), ")".repeat(50_000));
    let (code, text) = dcds_code(&["check", &spec("ping_pong.dcds"), &bomb]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("nesting"), "{text}");
}

#[test]
fn abstract_and_run_and_dot_and_fmt() {
    let (ok, text) = dcds(&[
        "abstract",
        &spec("travel_request.dcds"),
        "--max-states",
        "5000",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("complete = true"));

    let (ok2, text2) = dcds(&[
        "run",
        &spec("ping_pong.dcds"),
        "--steps",
        "4",
        "--seed",
        "7",
    ]);
    assert!(ok2, "{text2}");
    assert!(text2.contains("s4:"));

    let (ok3, text3) = dcds(&["dot", &spec("ping_pong.dcds"), "--graph", "dataflow"]);
    assert!(ok3, "{text3}");
    assert!(text3.contains("digraph dataflow"));

    // fmt output re-parses (write it to a temp file and analyze it).
    let (ok4, text4) = dcds(&["fmt", &spec("travel_request.dcds")]);
    assert!(ok4, "{text4}");
    let tmp = std::env::temp_dir().join("dcds_fmt_roundtrip.dcds");
    std::fs::write(&tmp, &text4).unwrap();
    let (ok5, text5) = dcds(&["analyze", tmp.to_str().unwrap()]);
    assert!(ok5, "fmt output must reparse: {text5}\n---\n{text4}");
}

#[test]
fn symbolic_engine_exit_codes() {
    // Exit 0: AG property proved by fixpoint, no boundedness involved.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
        "--engine",
        "symbolic",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("mode = AG"), "{text}");
    assert!(text.contains("verdict: true"), "{text}");

    // Exit 0: EF property confirmed with a concrete witness trace.
    let (code2, stdout2, stderr2) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "mu Z . (exists X . Q(X)) | <> Z",
        "--engine",
        "symbolic",
        "--witness",
    ]);
    assert_eq!(code2, 0, "{stdout2}{stderr2}");
    assert!(stdout2.contains("verdict: true"), "{stdout2}");
    assert!(stderr2.contains("witness trace"), "{stderr2}");
    assert!(stderr2.contains("state 0 (initial)"), "{stderr2}");

    // Exit 1: AG property refuted, with a counterexample trace.
    let (code3, stdout3, stderr3) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . Q(X))) & [] Z",
        "--engine",
        "symbolic",
        "--witness",
    ]);
    assert_eq!(code3, 1, "{stdout3}{stderr3}");
    assert!(stdout3.contains("verdict: false"), "{stdout3}");
    assert!(stderr3.contains("counterexample trace"), "{stderr3}");

    // Exit 2: the iteration budget cuts the regression short.
    let (code4, text4) = dcds_code(&[
        "check",
        &spec("accumulator.dcds"),
        "mu Z . (exists X . exists Y . Q(X) & Q(Y) & ! X = Y) | <> Z",
        "--engine",
        "symbolic",
        "--max-iters",
        "1",
    ]);
    assert_eq!(code4, 2, "{text4}");
    assert!(text4.contains("inconclusive"), "{text4}");
}

#[test]
fn symbolic_format_json_is_one_object_on_stdout() {
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
        "--engine",
        "symbolic",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let line = stdout.trim();
    assert_eq!(line.lines().count(), 1, "one JSON object: {stdout}");
    assert!(line.starts_with("{\"fragment\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"engine\":\"symbolic\""), "{line}");
    assert!(line.contains("\"mode\":\"AG\""), "{line}");
    assert!(line.contains("\"sym_counters\":{\"iterations\":"), "{line}");
    assert!(line.contains("\"verdict\":true"), "{line}");
    // Counters commentary stays off the machine stream.
    assert!(!stdout.contains("symbolic engine:"), "{stdout}");
    assert!(stderr.contains("symbolic engine:"), "{stderr}");

    // Inconclusive verdicts surface as null with a reason.
    let (code2, stdout2, _) = dcds_streams(&[
        "check",
        &spec("accumulator.dcds"),
        "mu Z . (exists X . exists Y . Q(X) & Q(Y) & ! X = Y) | <> Z",
        "--engine",
        "symbolic",
        "--max-iters",
        "1",
        "--format",
        "json",
    ]);
    assert_eq!(code2, 2, "{stdout2}");
    let line2 = stdout2.trim();
    assert!(line2.contains("\"verdict\":null"), "{line2}");
    assert!(line2.contains("\"reason\":"), "{line2}");
}

#[test]
fn symbolic_engine_decides_what_the_explicit_engines_cannot() {
    // `unbounded_safe.dcds` chases a deterministic service forever: the
    // static analysis refuses the run-boundedness certificate and the
    // explicit abstraction hits any budget (exit 2) — but the symbolic
    // engine proves the AG property outright (exit 0).
    let (ok, text) = dcds(&["analyze", &spec("unbounded_safe.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("weakly acyclic: false"), "{text}");

    let phi = "nu Z . (forall Y . Flag(Y) -> Y = 'ok') & [] Z";
    let (explicit, etext) = dcds_code(&[
        "check",
        &spec("unbounded_safe.dcds"),
        phi,
        "--max-states",
        "50",
    ]);
    assert_eq!(explicit, 2, "{etext}");
    assert!(etext.contains("truncated"), "{etext}");

    let (symbolic, stext) = dcds_code(&[
        "check",
        &spec("unbounded_safe.dcds"),
        phi,
        "--engine",
        "symbolic",
    ]);
    assert_eq!(symbolic, 0, "{stext}");
    assert!(stext.contains("verdict: true"), "{stext}");
}

#[test]
fn symbolic_engine_rejects_non_safety_formulas() {
    // Outside the AG/EF fragment: a run-time error, not a verdict. A
    // `live(X)` no relational atom over `X` is conjoined with is no FO
    // query over the state.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (!(exists X . live(X))) & [] Z",
        "--engine",
        "symbolic",
    ]);
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("LIVE"), "{text}");

    let (code2, text2) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . true & [] Z",
        "--engine",
        "bogus",
    ]);
    // A malformed flag value is a usage error.
    assert_eq!(code2, 2, "{text2}");
    assert!(text2.contains("unknown engine"), "{text2}");
}

/// Run-time errors exit 3 on every command, apart from usage errors (2)
/// and verdicts (0/1), and print no usage text.
#[test]
fn run_time_errors_exit_3_without_the_usage() {
    let bad = std::env::temp_dir().join(format!("dcds-bad-services-{}.dcds", std::process::id()));
    std::fs::write(&bad, "services { f 0; }\n").unwrap();
    let bad = bad.to_str().unwrap();
    let unparsable =
        std::env::temp_dir().join(format!("dcds-unparsable-{}.dcds", std::process::id()));
    std::fs::write(&unparsable, "schema { R 1 ").unwrap();
    let unparsable = unparsable.to_str().unwrap();
    let missing = "/nonexistent/spec.dcds";
    for args in [
        &["check", bad, "true"][..],
        &["check", bad, "true", "--engine", "symbolic"],
        &["abstract", bad],
        &["analyze", bad],
        &["run", bad],
        &["dot", bad],
        &["fmt", bad],
        &["check", missing, "true"],
        &["abstract", missing],
        &["lint", missing],
        &["lint", unparsable],
        &["check", unparsable, "true"],
    ] {
        let (code, stdout, stderr) = dcds_streams(args);
        assert_eq!(code, 3, "{args:?}: {stdout}{stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let (_, _, stderr) = dcds_streams(&["check", bad, "true"]);
    assert!(stderr.contains("expected `det` or `nondet`"), "{stderr}");
    // An unknown `--graph` is a malformed flag value: a usage error.
    let (code, _, stderr) = dcds_streams(&["dot", &spec("ping_pong.dcds"), "--graph", "x"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(unparsable);
}

#[test]
fn errors_are_reported() {
    let (ok, text) = dcds(&["analyze", "/nonexistent.dcds"]);
    assert!(!ok);
    assert!(text.contains("cannot read"));
    let (ok2, text2) = dcds(&["frobnicate"]);
    assert!(!ok2);
    assert!(text2.contains("unknown command"));
    let (ok3, text3) = dcds(&["check", &spec("ping_pong.dcds"), "nu Z . Nope(X) & [] Z"]);
    assert!(!ok3);
    assert!(text3.contains("unknown relation"), "{text3}");
}

#[test]
fn flags_may_come_before_the_positional_arguments() {
    let (code, stdout, stderr) = dcds_streams(&["abstract", "--dot", &spec("ping_pong.dcds")]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("digraph"), "{stdout}");
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        "--format",
        "json",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.trim().starts_with("{\"fragment\":"), "{stdout}");
    assert!(stdout.contains("\"verdict\":true"), "{stdout}");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // About 200 KB of dot output, more than a pipe buffers, so the run is
    // still writing when the reader goes away after one line (as
    // `| head -1` does).
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args([
            "abstract",
            &spec("accumulator.dcds"),
            "--dot",
            "--max-states",
            "300",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("states"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}

#[test]
fn a_closed_stdout_still_writes_the_metrics_file() {
    use std::process::Stdio;
    // A stale file from an earlier run must not survive: the run writes
    // its metrics although nothing reads its stdout.
    let dir = std::env::temp_dir().join(format!("dcds-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    std::fs::write(&metrics, "stale").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args([
            "abstract",
            &spec("accumulator.dcds"),
            "--dot",
            "--max-states",
            "300",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0 | 141)),
        "{:?} {stderr}",
        out.status
    );
    let written = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(written.starts_with('{'), "{written}");
    assert!(written.contains("\"rcycl.triples_processed\""), "{written}");
}

/// Write `src` to a spec file in the temp directory.
fn temp_spec(tag: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dcds_cli_{tag}_{}.dcds", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path
}

/// `dcds check <spec> <formula> --format json`: exit code, stdout, and the
/// value of every `query.*` counter of its `--metrics-json`.
fn check_with_query_counters(
    spec: &std::path::Path,
    formula: &str,
) -> (i32, String, Vec<(String, u64)>) {
    let metrics = spec.with_extension("metrics.json");
    let (code, stdout, _) = dcds_streams(&[
        "check",
        spec.to_str().unwrap(),
        formula,
        "--format",
        "json",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    let m = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let counters = m
        .split("\"query.")
        .skip(1)
        .map(|rest| {
            let (name, value) = rest.split_once("\":").unwrap();
            let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
            (name.to_owned(), digits.parse().unwrap())
        })
        .collect();
    (code, stdout, counters)
}

#[test]
fn negated_rule_condition_answers_like_its_positive_twin() {
    // 25 values and a 5-variable rule: `!S(A)` filters the join's one row
    // instead of enumerating ADOM^5 assignments.
    let facts: String = (0..20).map(|i| format!("V(v{i}); ")).collect();
    let twin = |condition: &str| {
        format!(
            "schema {{ V 1; P 5; S 1; }}\n\
             init {{ {facts}P(a, b, c, d, e); }}\n\
             action go(A, B, C, D, E) {{ P(X1, X2, X3, X4, X5) ~> P(X1, X2, X3, X4, X5); V(X) ~> V(X); }}\n\
             rule {condition} => go;\n"
        )
    };
    let negated = temp_spec("negated_rule", &twin("P(A, B, C, D, E) & !S(A)"));
    let positive = temp_spec("positive_rule", &twin("P(A, B, C, D, E)"));
    let formula = "nu Z . true & [] Z";
    let (code, out, counters) = check_with_query_counters(&negated, formula);
    let (twin_code, twin_out, twin_counters) = check_with_query_counters(&positive, formula);
    assert_eq!((code, &out), (twin_code, &twin_out));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"states\":1,\"edges\":1"), "{out}");
    // The same plan work, and no ADOM step: A is bound by the P atom.
    assert_eq!(counters, twin_counters);
    assert!(
        counters.contains(&("adom_steps".to_owned(), 0)),
        "{counters:?}"
    );
    let _ = std::fs::remove_file(&negated);
    let _ = std::fs::remove_file(&positive);
}

#[test]
fn full_fo_rules_filters_and_asserts_compile() {
    // A rule whose variable no atom binds (an ADOM step), a `Q⁻` filter,
    // and an assert with a quantified consequent.
    let path = temp_spec(
        "full_fo",
        "schema { P 1; Q 2; S 1; }  init { P(a); P(b); Q(a, a); Q(b, a); }\n\
         assert forall X . P(X) -> exists Y . Q(X, Y) | S(X);\n\
         action go(A) { P(X) & !S(X) ~> P(X), S(A); Q(X, Y) ~> Q(X, Y); S(X) ~> S(X); }\n\
         rule !S(A) & !Q(A, A) => go;\n",
    );
    let (code, out, counters) =
        check_with_query_counters(&path, "nu Z . (forall X . !(S(X) & Q(X, X))) & [] Z");
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains("\"states\":2,\"edges\":1,\"complete\":true"),
        "{out}"
    );
    assert!(out.contains("\"verdict\":true"), "{out}");
    let adom_steps = counters
        .iter()
        .find(|(name, _)| name == "adom_steps")
        .map(|(_, v)| *v);
    assert!(adom_steps.is_some_and(|n| n > 0), "{counters:?}");
    let (code, out, _) =
        check_with_query_counters(&path, "nu Z . (forall X . !(S(X) & P(X))) & [] Z");
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("\"verdict\":false"), "{out}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn symbolic_engine_drops_a_covered_live() {
    // `live(X0)` conjoined with `H(X0)` adds nothing a state query can
    // tell: the bad condition, and so every counter, is the LIVE-free
    // twin's.
    let dcds = dcds_verify::bench::synthetic::bad_free_shuffle(8);
    let path = std::env::temp_dir().join(format!("dcds_cli_shuffle_{}.dcds", std::process::id()));
    std::fs::write(&path, dcds_verify::core::to_spec(&dcds)).unwrap();
    let path = path.to_str().unwrap();
    let plain = dcds_verify::bench::synthetic::bad_free_shuffle_property(4);
    let live = plain.replacen(". H(X0)", ". live(X0) & H(X0)", 1);
    assert_ne!(live, plain);
    let run = |phi: &str| {
        dcds_streams(&[
            "check", path, phi, "--engine", "symbolic", "--format", "json",
        ])
    };
    let (code, stdout, stderr) = run(&plain);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("\"verdict\":true"), "{stdout}");
    assert!(stdout.contains("\"sym_counters\":{"), "{stdout}");
    assert_eq!(run(&live), (code, stdout, stderr));
}

#[test]
fn fragment_of_unguarded_blocks() {
    // The ROADMAP item 1 repro: the unguarded quantifiers reach across
    // modalities, so the formula stays full µL. So does a block that needs
    // an ADOM step; a domain-independent modal-free block is a query leaf.
    let path = std::env::temp_dir().join(format!("dcds_cli_repro_{}.dcds", std::process::id()));
    std::fs::write(
        &path,
        "schema { R 1; S 1; } services { f 0 det; } init { S(a); }\n\
         action go() { S(X) ~> R(f()); } rule true => go;\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    for (phi, fragment) in [
        (
            "exists X . exists Y . exists Z . X != Y & X != Z & Y != Z \
             & <> R(X) & <> R(Y) & <> R(Z)",
            "MuL",
        ),
        ("exists X . !R(X)", "MuL"),
        ("nu Z . (forall X . S(X) -> !R(X)) & [] Z", "MuLP"),
    ] {
        let (_, stdout, stderr) = dcds_streams(&["check", path, phi]);
        assert!(
            stdout.starts_with(&format!("fragment: {fragment}\n")),
            "{phi}: {stdout}{stderr}"
        );
    }
}

/// The item-1 spec (det `f`) and its `f 0 nondet` twin.
fn item_1_specs() -> [(&'static str, std::path::PathBuf); 2] {
    let det = "schema { R 1; S 1; } services { f 0 det; } init { S(a); }\n\
               action go() { S(X) ~> R(f()); } rule true => go;\n";
    [
        ("det", temp_spec("item1_det", det)),
        (
            "nondet",
            temp_spec("item1_nondet", &det.replace("f 0 det", "f 0 nondet")),
        ),
    ]
}

#[test]
fn only_a_licensed_fragment_gets_a_verdict() {
    // No finite abstraction preserves full µL (Thm 4.5): the three-values
    // formula holds concretely, but both explicit engines would read
    // `false` off their 5- and 4-state abstractions. The det abstraction
    // licenses µLA (Thm 4.2–4.4) and RCYCL µLP (Thm 5.3–5.4), so outside
    // them the run ends inconclusive, naming the fragment and the theorem.
    let mul = "exists X . exists Y . exists Z . X != Y & X != Z & Y != Z \
               & <> R(X) & <> R(Y) & <> R(Z)";
    let mula = "exists X . live(X) & S(X) & <> R(X)";
    for (kind, path) in item_1_specs() {
        let path = path.to_str().unwrap();
        let theorem = if kind == "det" {
            "the deterministic abstraction preserves µLA only (Thm 4.2–4.4)"
        } else {
            "RCYCL preserves µLP only (Thm 5.3–5.4)"
        };
        let (code, stdout, stderr) = dcds_streams(&["check", path, mul]);
        assert_eq!(code, 2, "{kind}: {stdout}{stderr}");
        assert!(stdout.starts_with("fragment: MuL\n"), "{stdout}");
        assert!(
            stdout.contains(&format!(
                "verdict: inconclusive (formula in MuL: {theorem})"
            )),
            "{kind}: {stdout}"
        );
        assert!(!stderr.contains("truncated"), "{stderr}");
        let (code, stdout, _) = dcds_streams(&["check", path, mul, "--format", "json"]);
        assert_eq!(code, 2);
        assert!(
            stdout.contains("\"complete\":true")
                && stdout.ends_with(&format!(
                    "\"verdict\":null,\"reason\":\"formula in MuL: {theorem}\"}}\n"
                )),
            "{kind}: {stdout}"
        );
        // A µLA formula that is not µLP: licensed for det services only.
        let (code, stdout, stderr) = dcds_streams(&["check", path, mula]);
        assert!(stdout.starts_with("fragment: MuLA\n"), "{stdout}");
        let want = if kind == "det" { 0 } else { 2 };
        assert_eq!(code, want, "{kind}: {stdout}{stderr}");
    }
}

#[test]
fn formula_constants_are_rigid() {
    // `'yy'` is mentioned by the formula only. It must be a value of its
    // own (not the first minted one) and a commitment target, as if it were
    // in I₀ (footnote 2): `f()` may return `yy`, `a` or anything else.
    let cases = [
        ("<> (exists X . R(X) & X != 'yy' & X != 'a')", 0),
        ("nu Z . (forall X . R(X) -> X = 'yy' | X = 'a') & [] Z", 1),
        ("<> R('yy')", 0),
        ("nu Z . !R('yy') & [] Z", 1),
    ];
    for (kind, path) in item_1_specs() {
        let path = path.to_str().unwrap();
        for (phi, want) in cases {
            let (code, stdout, stderr) = dcds_streams(&["check", path, phi]);
            assert_eq!(code, want, "{kind}: {phi}: {stdout}{stderr}");
            assert!(stdout.starts_with("fragment: MuLP\n"), "{stdout}");
            let verdict = if want == 0 { "true" } else { "false" };
            assert!(
                stdout.contains(&format!("verdict: {verdict}\n")),
                "{stdout}"
            );
        }
        // The symbolic engine reads the formula constants the same way.
        let symbolic = [
            ("mu Z . (exists X . R(X) & X != 'yy' & X != 'a') | <> Z", 0),
            ("nu Z . (forall X . R(X) -> X = 'yy' | X = 'a') & [] Z", 1),
            ("mu Z . R('yy') | <> Z", 0),
            ("nu Z . !R('yy') & [] Z", 1),
        ];
        for (phi, want) in symbolic {
            let (code, stdout, stderr) =
                dcds_streams(&["check", path, phi, "--engine", "symbolic"]);
            assert_eq!(code, want, "{kind}: symbolic: {phi}: {stdout}{stderr}");
        }
        // The witness shows the state that returned `yy` by that name.
        for phi in ["mu Z . R('yy') | <> Z", "nu Z . !R('yy') & [] Z"] {
            let (_, _, stderr) = dcds_streams(&["check", path, phi, "--witness"]);
            assert!(stderr.contains("s0:{S(a)}  ->  "), "{kind}: {stderr}");
            assert!(stderr.contains(":{R(yy)}"), "{kind}: {stderr}");
        }
    }
}

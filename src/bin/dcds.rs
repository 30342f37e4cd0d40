//! `dcds` — command-line front end for the DCDS verification stack.
//!
//! ```text
//! dcds analyze  <spec.dcds> [obs flags]          static analysis verdicts
//! dcds abstract <spec.dcds> [--max-states N] [--threads N] [--dot] [obs flags]
//!                                                build the finite abstraction
//!                                                (threads default to DCDS_THREADS
//!                                                or the machine's parallelism;
//!                                                at most 256)
//! dcds check    <spec.dcds> <formula> [--engine explicit|symbolic]
//!               [--max-states N] [--threads N] [--witness]
//!               [--max-iters N] [--max-clauses N]
//!               [--format text|json] [obs flags]
//!                                                model-check a µ-calculus property
//! dcds run      <spec.dcds> [--steps N] [--seed S]
//!                                                simulate the system
//! dcds dot      <spec.dcds> [--graph dataflow|depgraph]
//!                                                emit Graphviz
//! dcds fmt      <spec.dcds>                      parse and pretty-print back
//! dcds lint     <spec.dcds> [--deny warnings] [--format text|json] [obs flags]
//!                                                multi-pass spec diagnostics
//! ```
//!
//! The observability flags (`abstract`, `check`, `analyze`, `lint`):
//! `--trace <file>` writes a Chrome `trace_event` JSON openable in Perfetto
//! or `chrome://tracing`; `--stats` prints a span/metric summary plus a
//! top-spans (self-time) table to stderr; `--metrics-json <file|->` writes
//! the metrics snapshot as JSON (`-` = stdout); `--profile <file>` writes a
//! collapsed-stack profile (self-time weights, `inferno`/speedscope
//! format); `--profile-alloc` additionally attributes allocated bytes per
//! span path (and writes `<file>.alloc` next to the `--profile` output);
//! `--events <file|->` streams typed line-JSON run events (`run_start`,
//! per-level `level`/`progress`, `fixpoint`, `sym_iter`, `heartbeat`,
//! `run_end`) with monotonic sequence numbers. `DCDS_PROGRESS=<interval>`
//! (e.g. `1s`, `500ms`) additionally enables rate-limited live heartbeats
//! on stderr, with a final flush line at run end.
//!
//! Specs are in the textual format of `dcds_core::parser`; formulas in the
//! µ-calculus surface syntax of `dcds_mucalc::parser`.
//!
//! ## Output streams
//!
//! Machine-consumable results (verdicts, abstractions, JSON) go to stdout;
//! human-only diagnostics — witnesses, engine statistics, truncation
//! warnings, heartbeats — go to stderr, so `dcds ... > out.txt` captures
//! the result without the commentary. A closed stdout (`dcds ... | head`)
//! drops the rest of stdout quietly; the run still writes its files
//! (`--metrics-json`, `--profile`, `--trace`) and exits with status 141
//! (128 + `SIGPIPE`).
//!
//! Flags may come before, between or after the positional arguments: a
//! positional argument is one that is neither a flag nor a flag's value.
//!
//! ## Exit codes (every command)
//!
//! **2** — a usage error, printed with the usage: a missing argument, or a
//! flag that is unknown, repeated, malformed (`--max-states abc`) or meant
//! for the other `check` engine (`--max-iters` without `--engine
//! symbolic`). **3** — a run-time error, printed without the usage: an
//! unreadable or invalid spec, a formula that does not parse or that the
//! chosen engine cannot check, an unwritable output file. Both print an
//! `error:` line on stderr.
//!
//! ## Exit codes (`dcds check`)
//!
//! Scripting/CI contract: **0** — the property holds on a complete
//! abstraction; **1** — the property is violated on a complete abstraction;
//! **2** — inconclusive (the state budget was hit, or RCYCL skipped a step
//! over its per-step evaluation budget, so the abstraction is truncated
//! and no verdict is drawn: `verdict: inconclusive (…)` in text,
//! `"verdict":null` with a `"reason"` in JSON). Errors exit 2 (usage) or
//! 3 (run time), never 1, so a script can tell them from a violation.
//!
//! `--engine symbolic` keeps the same contract but decides AG/EF safety
//! properties by regression-based backward reachability, with no
//! boundedness requirement on the system: **0** — the property holds
//! definitively (fixpoint reached, initial instance not covered, or a
//! confirmed witness for EF); **1** — violated with a concrete
//! counterexample trace; **2** — inconclusive (`--max-iters` /
//! `--max-clauses` budget hit, or an over-approximate hit that the bounded
//! concrete search could not confirm).
//!
//! ## Exit codes (`dcds lint`)
//!
//! **0** — no error-severity findings (warnings/notes allowed, unless
//! `--deny warnings`); **1** — errors found (or warnings under
//! `--deny warnings`); **3** — the spec could not be parsed at all (the
//! syntax error itself is reported as a `DCDS000` diagnostic in the
//! selected format), or could not be read: a run-time error, as for every
//! other command.

use dcds_verify::abstraction::{det_abs, rcycl, AbsOptions, AbsOutcome, Owned, MAX_EVALS_PER_STEP};
use dcds_verify::analysis::{
    dataflow_dot, dataflow_graph, dependency_graph, depgraph_dot, gr_acyclicity, is_weakly_acyclic,
    position_ranks, render_dep_cycle, run_bound_estimate, state_bound_estimate, weak_cycle_witness,
};
use dcds_verify::cli::{
    stdout_closed, write_stdout, Flags, ObsCli, UsageError, EXIT_CLOSED_STDOUT,
};
use dcds_verify::core::{configured_threads, EngineCounters};
use dcds_verify::core::{parse_dcds, to_spec, AnswerPolicy, Dcds, Runner, Ts};
use dcds_verify::lint::{codes, lint_spec, render_json, render_text, Diagnostic};
use dcds_verify::mucalc::{
    check_traced, classify, diagnostics, ensure_closed, parse_mu, McCounters, McOptions, SafetyMode,
};
use dcds_verify::obs::{export::json_escape, span, Obs};
use dcds_verify::reldata::{ConstantPool, InstanceDisplay};
use dcds_verify::symbolic::{check_safety_traced, render_trace, SymOptions, SymVerdict};
use std::process::ExitCode;

/// `print!` through [`write_stdout`], which turns into a no-op once stdout
/// is a closed pipe.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Counting allocator so `--profile-alloc` can attribute bytes per span
/// path; a transparent passthrough to the system allocator (one relaxed
/// atomic load per call) unless that flag enables counting.
#[global_allocator]
static ALLOC: dcds_verify::obs::alloc::CountingAlloc = dcds_verify::obs::alloc::CountingAlloc;

/// `dcds check`: property holds (complete abstraction).
const EXIT_HOLDS: u8 = 0;
/// `dcds check`: property violated (complete abstraction).
const EXIT_VIOLATED: u8 = 1;
/// `dcds check`: inconclusive — the abstraction hit a budget.
const EXIT_INCONCLUSIVE: u8 = 2;

/// Any `dcds` command: a [`UsageError`].
const EXIT_USAGE: u8 = 2;
/// Any `dcds` command: a run-time error ([`Failure::Run`]).
const EXIT_ERROR: u8 = 3;

/// Why a command stopped without an exit code of its own.
enum Failure {
    /// The command line is malformed: exit 2, with the usage.
    Usage(UsageError),
    /// The command failed while running: exit 3.
    Run(String),
}

impl From<UsageError> for Failure {
    fn from(e: UsageError) -> Self {
        Failure::Usage(e)
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        // The run wrote everything else it was asked for; report the
        // closed stdout as a shell reports a SIGPIPE death.
        Ok(_) if stdout_closed() => ExitCode::from(EXIT_CLOSED_STDOUT),
        Ok(code) => code,
        Err(Failure::Usage(UsageError(msg))) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

const USAGE: &str = "usage:
  dcds analyze  <spec.dcds> [obs flags]
  dcds abstract <spec.dcds> [--max-states N] [--threads N] [--dot] [obs flags]
  dcds check    <spec.dcds> <formula> [--engine explicit|symbolic]
                [--max-states N] [--threads N] [--witness]
                [--max-iters N] [--max-clauses N]
                [--format text|json] [obs flags]
  dcds run      <spec.dcds> [--steps N] [--seed S]
  dcds dot      <spec.dcds> [--graph dataflow|depgraph]
  dcds fmt      <spec.dcds>
  dcds lint     <spec.dcds> [--deny warnings] [--format text|json] [obs flags]

obs flags (analyze, abstract, check, lint):
  --trace FILE          Chrome trace_event JSON (Perfetto, chrome://tracing)
  --stats               span/metric summary + top-spans table on stderr
  --metrics-json FILE|- metrics snapshot as JSON (- = stdout)
  --profile FILE        collapsed-stack profile, self-time-weighted
                        (inferno / speedscope / flamegraph.pl)
  --profile-alloc       also attribute allocated bytes per span path
                        (writes FILE.alloc next to --profile output)
  --events FILE|-       live line-JSON event stream (- = stdout)

`dcds check` exits 0 when the property holds, 1 when it is violated, and
2 when the verdict is inconclusive (state or evaluation budget hit).
`--engine symbolic` decides AG/EF safety properties by backward
reachability without requiring boundedness; budgets are `--max-iters`
(regression depth) and `--max-clauses` (clause set size); `--max-states`
belongs to the explicit engine only.
`--threads N` takes 1 to 256 workers; DCDS_THREADS is clamped to 256.
Any command exits 2 on a missing argument or a flag that it does not take,
that is given twice, malformed, or meant for the other `check` engine, and
3 on a run-time error (unreadable or invalid spec, bad formula).
`dcds lint` exits 0 when the spec is clean, 1 on errors (or warnings under
--deny warnings), and 3 when the spec cannot be read or parsed.
Set DCDS_PROGRESS=1s (or 500ms, ...) for live heartbeats on stderr.";

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let cmd = args
        .first()
        .ok_or_else(|| UsageError("missing command".into()))?;
    // The flags each subcommand takes, and whether it takes the
    // observability bundle; the dispatch below reads flags only through
    // the `Flags` checked against this.
    let (takes, obs): (&[&str], bool) = match cmd.as_str() {
        "analyze" => (&[], true),
        "abstract" => (&["--max-states", "--threads", "--dot"], true),
        "check" => (
            &[
                "--engine",
                "--max-states",
                "--threads",
                "--witness",
                "--format",
                "--max-iters",
                "--max-clauses",
                "--confirm-nodes",
            ],
            true,
        ),
        "run" => (&["--steps", "--seed"], false),
        "dot" => (&["--graph"], false),
        "fmt" => (&[], false),
        "lint" => (&["--deny", "--format"], true),
        other => return Err(UsageError(format!("unknown command `{other}`")).into()),
    };
    let flags = Flags::new(args, takes, obs)?;
    let spec = "spec path";
    match cmd.as_str() {
        "analyze" => analyze(flags.arg(1, spec)?, &flags.obs()?),
        "abstract" => do_abstract(
            flags.arg(1, spec)?,
            flags.value("--max-states")?.unwrap_or(10_000),
            flags.threads()?.unwrap_or_else(configured_threads),
            flags.has("--dot"),
            &flags.obs()?,
        ),
        "check" => {
            let path = flags.arg(1, spec)?;
            let formula = flags.arg(2, "formula")?;
            let engine = parse_engine(&flags)?;
            reject_other_engine_flags(&flags, engine)?;
            return Ok(match engine {
                Engine::Explicit => do_check(
                    path,
                    formula,
                    flags.value("--max-states")?.unwrap_or(10_000),
                    flags.threads()?.unwrap_or_else(configured_threads),
                    flags.has("--witness"),
                    parse_format(&flags)?,
                    &flags.obs()?,
                ),
                Engine::Symbolic => {
                    // The symbolic engine is serial, but `--threads` is
                    // range-checked exactly as for the explicit engine.
                    flags.threads()?;
                    let defaults = SymOptions::default();
                    do_check_symbolic(
                        path,
                        formula,
                        SymOptions {
                            max_iters: flags.value("--max-iters")?.unwrap_or(defaults.max_iters),
                            max_clauses: flags
                                .value("--max-clauses")?
                                .unwrap_or(defaults.max_clauses),
                            confirm_nodes: flags
                                .value("--confirm-nodes")?
                                .unwrap_or(defaults.confirm_nodes),
                        },
                        flags.has("--witness"),
                        parse_format(&flags)?,
                        &flags.obs()?,
                    )
                }
            }?);
        }
        "run" => do_run(
            flags.arg(1, spec)?,
            flags.value("--steps")?.unwrap_or(10),
            flags.value::<u64>("--seed")?.unwrap_or(42),
        ),
        "dot" => match flags.word("--graph").unwrap_or("dataflow") {
            graph @ ("dataflow" | "depgraph") => do_dot(flags.arg(1, spec)?, graph),
            other => {
                let msg = format!("unknown graph `{other}` (dataflow|depgraph)");
                return Err(UsageError(msg).into());
            }
        },
        "fmt" => do_fmt(flags.arg(1, spec)?),
        "lint" => {
            let deny_warnings = flags.has("--deny");
            if deny_warnings && flags.word("--deny") != Some("warnings") {
                return Err(UsageError("--deny takes `warnings`".into()).into());
            }
            return Ok(do_lint(
                flags.arg(1, spec)?,
                deny_warnings,
                match parse_format(&flags)? {
                    OutputFormat::Text => LintFormat::Text,
                    OutputFormat::Json => LintFormat::Json,
                },
                &flags.obs()?,
            )?);
        }
        _ => unreachable!("every command is in the flag table"),
    }?;
    Ok(ExitCode::SUCCESS)
}

/// Output format of `dcds check` (and, mapped onto [`LintFormat`], `lint`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// Verification engine of `dcds check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Build the explicit finite abstraction, then model-check on it.
    Explicit,
    /// Regression-based backward reachability (AG/EF safety fragment only,
    /// no boundedness requirement).
    Symbolic,
}

fn parse_engine(flags: &Flags) -> Result<Engine, UsageError> {
    match flags.word("--engine") {
        None | Some("explicit") => Ok(Engine::Explicit),
        Some("symbolic") => Ok(Engine::Symbolic),
        Some(other) => Err(UsageError(format!(
            "unknown engine `{other}` (explicit|symbolic)"
        ))),
    }
}

/// `check`'s flags that only the explicit engine reads.
const EXPLICIT_ONLY: [&str; 1] = ["--max-states"];
/// `check`'s flags that only the symbolic engine reads.
const SYMBOLIC_ONLY: [&str; 3] = ["--max-iters", "--max-clauses", "--confirm-nodes"];

/// `check` takes the flags of both engines; one that the chosen engine
/// would ignore is a usage error naming it.
fn reject_other_engine_flags(flags: &Flags, engine: Engine) -> Result<(), UsageError> {
    let (other, why) = match engine {
        Engine::Explicit => (&SYMBOLIC_ONLY[..], "needs `--engine symbolic`"),
        Engine::Symbolic => (&EXPLICIT_ONLY[..], "does not apply to `--engine symbolic`"),
    };
    match other.iter().find(|flag| flags.has(flag)) {
        Some(flag) => Err(UsageError(format!("flag `{flag}` {why}"))),
        None => Ok(()),
    }
}

fn parse_format(flags: &Flags) -> Result<OutputFormat, UsageError> {
    match flags.word("--format") {
        None | Some("text") => Ok(OutputFormat::Text),
        Some("json") => Ok(OutputFormat::Json),
        Some(other) => Err(UsageError(format!("unknown format `{other}` (text|json)"))),
    }
}

fn load(path: &str) -> Result<Dcds, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_dcds(&src).map_err(|e| format!("{path}: {e}"))
}

fn analyze(path: &str, obs_cli: &ObsCli) -> Result<(), String> {
    let obs = obs_cli.session("analyze", path)?;
    let run_span = span!(obs, "run", command = "analyze");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    outln!(
        "{}: {} relations, {} services ({}), {} actions, {} rules, |I0| = {}",
        path,
        dcds.data.schema.len(),
        dcds.process.services.len(),
        if dcds.is_deterministic() {
            "all deterministic"
        } else if dcds.is_nondeterministic() {
            "all nondeterministic"
        } else {
            "mixed"
        },
        dcds.process.actions.len(),
        dcds.process.rules.len(),
        dcds.data.initial.len(),
    );
    let (dg, wa) = {
        let _s = span!(obs, "weak_acyclicity");
        let dg = dependency_graph(&dcds);
        let wa = is_weakly_acyclic(&dg);
        (dg, wa)
    };
    outln!("weakly acyclic: {wa}");
    if !wa {
        if let Some(cycle) = weak_cycle_witness(&dg) {
            // Witness rendering is a human diagnostic: stderr.
            eprintln!(
                "  cycle through a special edge: {}",
                render_dep_cycle(&cycle, &dg, &dcds.data.schema)
            );
        }
    }
    if wa {
        if let Some(ranks) = position_ranks(&dg) {
            outln!(
                "  max position rank: {}",
                ranks.iter().copied().max().unwrap_or(0)
            );
        }
        if dcds.is_deterministic() {
            outln!("  ⇒ run-bounded (Thm 4.7); µLA decidable (Thm 4.8)");
            if let Some(bound) = run_bound_estimate(&dcds, &dg) {
                outln!("  Thm 4.7 run bound (proof artifact): {bound:.3e}");
            }
        } else {
            eprintln!(
                "  (weak acyclicity implies run-boundedness only for deterministic \
                 services — this system has nondeterministic ones; see the GR verdicts)"
            );
        }
    }
    let (df, gr, grp) = {
        let _s = span!(obs, "gr_acyclicity");
        let df = dataflow_graph(&dcds);
        let gr = gr_acyclicity::is_gr_acyclic(&df);
        let grp = gr_acyclicity::is_gr_plus_acyclic(&df);
        (df, gr, grp)
    };
    outln!("GR-acyclic: {gr}");
    outln!("GR+-acyclic: {grp}");
    if gr {
        if let Some(bound) = state_bound_estimate(&dcds, &df) {
            outln!("  Thm 5.6 state bound (proof artifact): {bound:.3e}");
        }
    }
    if grp {
        outln!("  ⇒ state-bounded (Thm 5.6); µLP decidable via RCYCL (Thm 5.7)");
    } else if let Some(w) = gr_acyclicity::gr_plus_witness(&df) {
        eprintln!("  unexcused generate→recall pattern:");
        for line in gr_acyclicity::render_witness(&w, &df, &dcds).lines() {
            eprintln!("    {line}");
        }
    }
    obs.counter_add("analyze.relations", dcds.data.schema.len() as u64);
    obs.counter_add("analyze.actions", dcds.process.actions.len() as u64);
    drop(run_span);
    obs_cli.finish(&obs)
}

/// What cut an abstraction short, if anything.
#[derive(Debug, Clone, Copy)]
struct Truncation {
    /// The state budget dropped a new state.
    states: bool,
    /// RCYCL steps skipped over the per-step evaluation budget.
    eval_skips: usize,
}

impl Truncation {
    fn complete(self) -> bool {
        !self.states && self.eval_skips == 0
    }

    /// Why the abstraction decides nothing, naming every budget that
    /// tripped; `None` when it is complete.
    fn reason(self, max_states: usize) -> Option<String> {
        let mut hit = Vec::new();
        if self.states {
            hit.push(format!("state budget of {max_states} states hit"));
        }
        if self.eval_skips > 0 {
            hit.push(format!(
                "evaluation budget of {MAX_EVALS_PER_STEP} evaluations per step hit ({} steps skipped)",
                self.eval_skips
            ));
        }
        (!hit.is_empty()).then(|| hit.join("; "))
    }
}

/// Build the finite abstraction the spec's services call for, in
/// [`Owned`] storage at every budget: the model checker and the dot output
/// take an owned [`Ts`], and converting the compact store into one costs
/// time and leaves no memory saved at the peak (see
/// [`OWNED_MAX_STATES`](dcds_verify::abstraction::OWNED_MAX_STATES)).
fn build_abstraction(
    dcds: &Dcds,
    max_states: usize,
    threads: usize,
    obs: &Obs,
) -> (Ts, ConstantPool, Truncation, &'static str, EngineCounters) {
    if dcds.is_deterministic() {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let abs = det_abs::build::<Owned>(dcds, max_states, opts, obs);
        let cut = Truncation {
            states: abs.outcome == AbsOutcome::Truncated,
            eval_skips: 0,
        };
        let how = "deterministic abstraction (Thm 4.3)";
        (abs.ts, abs.pool, cut, how, abs.counters)
    } else {
        let res = rcycl::build::<Owned>(dcds, max_states, threads, obs);
        let cut = Truncation {
            states: res.state_budget_hit,
            eval_skips: res.eval_budget_skips,
        };
        let how = "RCYCL pruning (Thm 5.4)";
        (res.ts, res.pool, cut, how, res.counters)
    }
}

fn do_abstract(
    path: &str,
    max_states: usize,
    threads: usize,
    dot: bool,
    obs_cli: &ObsCli,
) -> Result<(), String> {
    let obs = obs_cli.session("abstract", path)?;
    let run_span = span!(obs, "run", command = "abstract");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let (ts, pool, cut, how, counters) = build_abstraction(&dcds, max_states, threads, &obs);
    let complete = cut.complete();
    outln!(
        "{how}: {} states, {} edges, max |adom(state)| = {}, complete = {complete}",
        ts.num_states(),
        ts.num_edges(),
        ts.max_state_adom()
    );
    outln!(
        "engine ({threads} thread{}): {counters}",
        if threads == 1 { "" } else { "s" }
    );
    if let Some(rate) = counters.sig_hit_rate() {
        eprintln!(
            "signature fast path resolved {:.1}% of dedup probes",
            rate * 100.0
        );
    }
    if let Some(reason) = cut.reason(max_states) {
        eprintln!(
            "note: {reason} — the system may be run-/state-unbounded; \
             see `dcds analyze` for the static verdicts"
        );
    }
    if dot {
        outln!("{}", ts.to_dot(&dcds.data.schema, &pool));
    }
    drop(run_span);
    obs_cli.finish(&obs)
}

fn do_check(
    path: &str,
    formula: &str,
    max_states: usize,
    threads: usize,
    witness: bool,
    format: OutputFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("check", path)?;
    let run_span = span!(obs, "run", command = "check");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let mut schema = dcds.data.schema.clone();
    let mut pool_for_parse = dcds.data.pool.clone();
    let phi = parse_mu(formula, &mut schema, &mut pool_for_parse).map_err(|e| e.to_string())?;
    let fragment = classify(&phi).map_err(|e| e.to_string())?;
    ensure_closed(&phi).map_err(|e| e.to_string())?;
    let (ts, pool, cut, how, counters) = build_abstraction(&dcds, max_states, threads, &obs);
    let complete = cut.complete();
    // A truncated abstraction decides nothing, so the fixpoint is not run
    // and no verdict is reported — the same output contract as the
    // symbolic engine's inconclusive runs — and the model checker's
    // counters stay at zero.
    let (verdict, mc_counters) = match cut.reason(max_states) {
        None => {
            let run =
                check_traced(&phi, &ts, McOptions { threads }, &obs).map_err(|e| e.to_string())?;
            (Ok(run.holds), run.counters)
        }
        Some(reason) => (Err(reason), McCounters::default()),
    };
    match format {
        OutputFormat::Json => {
            // One JSON object: the machine-readable counterpart of the
            // text report, counters included (serde-free `to_json`).
            let (verdict, reason) = match &verdict {
                Ok(holds) => (holds.to_string(), String::new()),
                Err(r) => (
                    "null".to_string(),
                    format!(",\"reason\":\"{}\"", json_escape(r)),
                ),
            };
            outln!(
                "{{\"fragment\":\"{}\",\"abstraction\":{{\"how\":\"{}\",\"states\":{},\
                 \"edges\":{},\"complete\":{}}},\"engine_counters\":{},\"mc_counters\":{},\
                 \"verdict\":{verdict}{reason}}}",
                json_escape(&format!("{fragment:?}")),
                json_escape(how),
                ts.num_states(),
                ts.num_edges(),
                complete,
                counters.to_json(),
                mc_counters.to_json(),
            );
        }
        OutputFormat::Text => {
            outln!("fragment: {fragment:?}");
            outln!(
                "abstraction: {how}, {} states, complete = {complete}",
                ts.num_states()
            );
            match &verdict {
                Ok(_) => {}
                Err(_) if cut.eval_skips == 0 => eprintln!(
                    "WARNING: the abstraction is truncated; raise --max-states for a verdict"
                ),
                Err(reason) => eprintln!("WARNING: the abstraction is truncated: {reason}"),
            }
            eprintln!(
                "mc engine ({threads} thread{}): {mc_counters}",
                if threads == 1 { "" } else { "s" },
            );
            if let Some(rate) = mc_counters.cache_hit_rate() {
                eprintln!(
                    "query-extension cache resolved {:.1}% of extension requests",
                    rate * 100.0
                );
            }
            match &verdict {
                Ok(holds) => outln!("verdict: {holds}"),
                Err(r) => outln!("verdict: inconclusive ({r})"),
            }
        }
    }
    if witness {
        // A path explains an AG violation or an EF success; the state
        // property's own extension picks the path's last state. Without a
        // verdict the path search itself decides: it finds no path exactly
        // when the fixpoint would have suppressed it.
        let render = |p: &[_]| diagnostics::render_path(p, &ts, &dcds.data.schema, &pool);
        match diagnostics::ag_ef_property(&phi) {
            Some((SafetyMode::AlwaysGood, good)) if verdict != Ok(true) => {
                if let Some(p) = diagnostics::counterexample_ag(good, &ts) {
                    eprintln!("shortest path to a violating state:\n  {}", render(&p));
                }
            }
            Some((SafetyMode::EventuallyBad, goal)) if verdict != Ok(false) => {
                if let Some(p) = diagnostics::witness_ef(goal, &ts) {
                    eprintln!("a satisfying state (shortest path):\n  {}", render(&p));
                }
            }
            Some(_) => {}
            None => eprintln!(
                "note: --witness covers AG (`nu Z . phi & [] Z`) and EF \
                 (`mu Z . phi | <> Z`) properties only"
            ),
        }
    }
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(match verdict {
        Err(_) => EXIT_INCONCLUSIVE,
        Ok(true) => EXIT_HOLDS,
        Ok(false) => EXIT_VIOLATED,
    }))
}

/// `dcds check --engine symbolic`: decide an AG/EF safety property by
/// regression-based backward reachability. Same exit-code and output-stream
/// contract as the explicit engine; no boundedness requirement on the spec.
fn do_check_symbolic(
    path: &str,
    formula: &str,
    opts: SymOptions,
    witness: bool,
    format: OutputFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("check", path)?;
    let run_span = span!(obs, "run", command = "check");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let mut schema = dcds.data.schema.clone();
    let mut pool_for_parse = dcds.data.pool.clone();
    let phi = parse_mu(formula, &mut schema, &mut pool_for_parse).map_err(|e| e.to_string())?;
    let fragment = classify(&phi).map_err(|e| e.to_string())?;
    let run = check_safety_traced(&dcds, &phi, &opts, &obs).map_err(|e| e.to_string())?;
    let mode = match run.mode {
        SafetyMode::AlwaysGood => "AG",
        SafetyMode::EventuallyBad => "EF",
    };
    // Counters are commentary, not a result: stderr.
    let counters_line: Vec<String> = run
        .counters
        .entries()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("symbolic engine: {}", counters_line.join(" "));
    let (code, trace) = match &run.verdict {
        SymVerdict::Holds(tr) => (EXIT_HOLDS, tr.as_ref()),
        SymVerdict::Violated(tr) => (EXIT_VIOLATED, tr.as_ref()),
        SymVerdict::Inconclusive(_) => (EXIT_INCONCLUSIVE, None),
    };
    match format {
        OutputFormat::Json => {
            let (verdict, reason) = match &run.verdict {
                SymVerdict::Holds(_) => ("true".to_string(), String::new()),
                SymVerdict::Violated(_) => ("false".to_string(), String::new()),
                SymVerdict::Inconclusive(r) => (
                    "null".to_string(),
                    format!(",\"reason\":\"{}\"", json_escape(r)),
                ),
            };
            outln!(
                "{{\"fragment\":\"{}\",\"engine\":\"symbolic\",\"mode\":\"{mode}\",\
                 \"sym_counters\":{},\"verdict\":{verdict}{reason}}}",
                json_escape(&format!("{fragment:?}")),
                run.counters.to_json(),
            );
        }
        OutputFormat::Text => {
            outln!("fragment: {fragment:?}");
            outln!("engine: symbolic backward reachability, mode = {mode}");
            match &run.verdict {
                SymVerdict::Holds(_) => outln!("verdict: true"),
                SymVerdict::Violated(_) => outln!("verdict: false"),
                SymVerdict::Inconclusive(r) => outln!("verdict: inconclusive ({r})"),
            }
        }
    }
    if witness {
        if let Some(tr) = trace {
            let what = match run.mode {
                SafetyMode::AlwaysGood => "counterexample trace",
                SafetyMode::EventuallyBad => "witness trace",
            };
            eprint!("{what}:\n{}", render_trace(tr, &dcds));
        }
    }
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(code))
}

fn do_run(path: &str, steps: usize, seed: u64) -> Result<(), String> {
    let dcds = load(path)?;
    let schema = dcds.data.schema.clone();
    let mut runner = Runner::new(dcds, AnswerPolicy::Random { seed });
    outln!(
        "s0: {}",
        InstanceDisplay::new(runner.current(), &schema, runner.pool())
    );
    for i in 1..=steps {
        let stepped = runner.step_any().map(|r| r.action).map_err(|e| e.clone());
        match stepped {
            Ok(action) => {
                let name = runner.dcds().process.actions[action.index()].name.clone();
                outln!(
                    "s{i}: --{name}--> {}",
                    InstanceDisplay::new(runner.current(), &schema, runner.pool())
                );
            }
            Err(e) => {
                outln!("s{i}: {e}");
                break;
            }
        }
    }
    Ok(())
}

fn do_dot(path: &str, which: &str) -> Result<(), String> {
    let dcds = load(path)?;
    if which == "depgraph" {
        outln!("{}", depgraph_dot(&dependency_graph(&dcds), &dcds));
    } else {
        outln!("{}", dataflow_dot(&dataflow_graph(&dcds), &dcds));
    }
    Ok(())
}

fn do_fmt(path: &str) -> Result<(), String> {
    let dcds = load(path)?;
    out!("{}", to_spec(&dcds));
    Ok(())
}

/// Output format of `dcds lint`.
enum LintFormat {
    /// rustc-style text with source snippets.
    Text,
    /// One JSON object per line.
    Json,
}

/// `dcds lint`: exit 0 clean, 1 on errors (or warnings under `--deny
/// warnings`); a spec that does not even parse is rendered as a `DCDS000`
/// diagnostic and then fails as a run-time error (exit 3), as it does on
/// every other command.
fn do_lint(
    path: &str,
    deny_warnings: bool,
    format: LintFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("lint", path)?;
    let run_span = span!(obs, "run", command = "lint");
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let emit = |d: &Diagnostic| match format {
        LintFormat::Text => out!("{}", render_text(d, path, &src)),
        LintFormat::Json => outln!("{}", render_json(d, path)),
    };
    let report = {
        let _s = span!(obs, "lint", bytes = src.len());
        match dcds_verify::core::parse_spec(&src) {
            Ok(spec) => lint_spec(&spec),
            Err(e) => {
                let d = Diagnostic::error(codes::PARSE_ERROR, e.message.clone())
                    .at(dcds_verify::folang::Span::new(e.line, e.col));
                emit(&d);
                drop(run_span);
                obs_cli.finish(&obs)?;
                return Err(format!("{path}:{}:{}: {}", e.line, e.col, e.message));
            }
        }
    };
    for d in &report.diagnostics {
        emit(d);
    }
    obs.counter_add("lint.errors", report.errors() as u64);
    obs.counter_add("lint.warnings", report.warnings() as u64);
    obs.counter_add("lint.notes", report.notes() as u64);
    if matches!(format, LintFormat::Text) {
        let (e, w, n) = (report.errors(), report.warnings(), report.notes());
        outln!("{path}: {e} error(s), {w} warning(s), {n} note(s)");
    }
    let failed = report.has_errors() || (deny_warnings && report.warnings() > 0);
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(if failed { 1 } else { 0 }))
}

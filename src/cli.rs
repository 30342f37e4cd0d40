//! Shared command-line helpers for the `dcds` binary.
//!
//! Flag parsing here is deliberately tiny (no external crates): positional
//! scan, `--flag value` pairs, and the observability flag bundle
//! ([`ObsCli`]) shared by `abstract`, `check`, `analyze`, and `lint`.

use dcds_core::MAX_THREADS;
use dcds_obs::{alloc, event, export, profile, EventSink, Obs, ObsConfig};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parse `--flag <value>` anywhere in `args`. `Ok(None)` when absent.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs a number")),
    }
}

/// Parse `--flag <string>` anywhere in `args`. `Ok(None)` when absent.
pub fn string_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Exit status when stdout is a closed pipe (`dcds … | head`): the status
/// a shell reports for a process that `SIGPIPE` ended (128 + 13).
pub const EXIT_CLOSED_STDOUT: u8 = 141;

/// Set once a write found stdout closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write to stdout, like `print!`. When the reader has gone (a closed
/// pipe), where `print!` would panic, this write and every later one do
/// nothing: the run goes on to write its other outputs (`--metrics-json
/// F`, `--profile F`, `--trace F`), and the binary then exits with
/// [`EXIT_CLOSED_STDOUT`] (see [`stdout_closed`]). Any other write error
/// ends the process with a message and exit 3, the exit code of every
/// run-time error.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(3);
    }
}

/// Did a [`write_stdout`] find stdout closed?
pub fn stdout_closed() -> bool {
    STDOUT_CLOSED.load(Ordering::Relaxed)
}

/// A command line a subcommand cannot run: a missing argument, or a flag
/// that is unknown, repeated, malformed or meant for another mode. `dcds`
/// prints it with the usage and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

/// Is the bare `--flag` present?
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The flags that stand alone; every other flag takes the argument after
/// it as its value (unless that argument is a flag too).
const BARE_FLAGS: [&str; 4] = ["--dot", "--witness", "--stats", "--profile-alloc"];

/// The observability flags of the recording commands (see [`ObsCli`]).
const OBS_FLAGS: [&str; 6] = [
    "--trace",
    "--stats",
    "--metrics-json",
    "--profile",
    "--profile-alloc",
    "--events",
];

/// A subcommand's command line (`args[0]` is the subcommand), checked
/// against the flags the subcommand takes so that a misspelt flag is not
/// silently ignored. Flags are read through it; reading one that was not
/// declared is a bug, caught in debug builds. Positional arguments are
/// the ones that are neither flags nor flag values, so flags may come
/// before, between or after them.
#[derive(Debug)]
pub struct Flags<'a> {
    args: &'a [String],
    takes: &'a [&'a str],
    obs: bool,
    /// The positional arguments, the subcommand first.
    positional: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Check `args` against `takes`, plus the observability bundle when
    /// `obs`. `Err` names the first `--flag` the subcommand does not take,
    /// or that is given twice (the readers would silently keep the first).
    pub fn new(args: &'a [String], takes: &'a [&'a str], obs: bool) -> Result<Self, UsageError> {
        let mut positional = Vec::new();
        let mut rest = args.iter().map(String::as_str).peekable();
        while let Some(a) = rest.next() {
            if !a.starts_with("--") {
                positional.push(a);
            } else if !BARE_FLAGS.contains(&a) {
                rest.next_if(|v| !v.starts_with("--"));
            }
        }
        let flags = Flags {
            args,
            takes,
            obs,
            positional,
        };
        let given: Vec<&str> = args
            .iter()
            .skip(1)
            .map(String::as_str)
            .filter(|a| a.starts_with("--"))
            .collect();
        for (i, flag) in given.iter().enumerate() {
            if !flags.takes(flag) {
                return Err(UsageError(format!("unknown flag `{flag}`")));
            }
            if given[..i].contains(flag) {
                return Err(UsageError(format!("flag `{flag}` given twice")));
            }
        }
        Ok(flags)
    }

    fn takes(&self, flag: &str) -> bool {
        self.takes.contains(&flag) || self.obs && OBS_FLAGS.contains(&flag)
    }

    fn read(&self, flag: &str) -> &'a [String] {
        debug_assert!(self.takes(flag), "`{flag}` is read but not declared");
        self.args
    }

    /// The `i`-th positional argument (the subcommand is the 0th), named
    /// `what` when it is missing.
    pub fn arg(&self, i: usize, what: &str) -> Result<&'a str, UsageError> {
        self.positional
            .get(i)
            .copied()
            .ok_or_else(|| UsageError(format!("missing {what}")))
    }

    /// `--flag <value>`, parsed; see [`flag_value`].
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        flag_value(self.read(flag), flag).map_err(UsageError)
    }

    /// Is the bare `--flag` present?
    pub fn has(&self, flag: &str) -> bool {
        has_flag(self.read(flag), flag)
    }

    /// The word after `--flag`, if the flag is present and followed by one.
    pub fn word(&self, flag: &str) -> Option<&'a str> {
        let args = self.read(flag);
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    }

    /// `--threads`; see [`threads_flag`].
    pub fn threads(&self) -> Result<Option<usize>, UsageError> {
        threads_flag(self.read("--threads")).map_err(UsageError)
    }

    /// The observability bundle; see [`ObsCli::parse`].
    pub fn obs(&self) -> Result<ObsCli, UsageError> {
        debug_assert!(self.obs, "observability flags read but not declared");
        ObsCli::parse(self.args).map_err(UsageError)
    }
}

/// `--threads`, shared by `abstract` and `check` and range-checked once:
/// the engines treat the count as a divisor of the work, so 0 is a usage
/// error, not a silent serial fallback; and each worker is an OS thread,
/// so a count above [`MAX_THREADS`] is one too, not a request to spawn a
/// thread per state.
pub fn threads_flag(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value::<u32>(args, "--threads")? {
        Some(0) => Err("--threads must be at least 1".into()),
        Some(n) if n as usize > MAX_THREADS => {
            Err(format!("--threads must be at most {MAX_THREADS}"))
        }
        other => Ok(other.map(|n| n as usize)),
    }
}

/// The observability flag bundle shared by the recording commands:
///
/// * `--trace <file>` — Chrome `trace_event` JSON;
/// * `--stats` — human span/metric summary (plus the top-spans table) on
///   stderr;
/// * `--metrics-json <file|->` — metrics snapshot as JSON (`-` = stdout);
/// * `--profile <file>` — collapsed-stack (folded) profile weighted by
///   span self time, consumable by `inferno`/speedscope/`flamegraph.pl`;
/// * `--profile-alloc` — additionally attribute allocated bytes per span
///   path (writes `<file>.alloc` next to the `--profile` output);
/// * `--events <file|->` — live line-JSON event stream (`-` = stdout).
#[derive(Debug, Default)]
pub struct ObsCli {
    /// Chrome-trace output path, if requested.
    pub trace: Option<String>,
    /// Print the text summary to stderr at exit.
    pub stats: bool,
    /// Metrics-snapshot JSON output path (`-` = stdout), if requested.
    pub metrics_json: Option<String>,
    /// Folded-stack profile output path, if requested.
    pub profile: Option<String>,
    /// Attribute allocation bytes/counts per span.
    pub profile_alloc: bool,
    /// Live event-stream output path (`-` = stdout), if requested.
    pub events: Option<String>,
}

impl ObsCli {
    /// Parse the bundle from `args`.
    pub fn parse(args: &[String]) -> Result<ObsCli, String> {
        Ok(ObsCli {
            trace: string_flag(args, "--trace")?,
            stats: has_flag(args, "--stats"),
            metrics_json: string_flag(args, "--metrics-json")?,
            profile: string_flag(args, "--profile")?,
            profile_alloc: has_flag(args, "--profile-alloc"),
            events: string_flag(args, "--events")?,
        })
    }

    /// Does any flag ask for recording?
    pub fn wants_recording(&self) -> bool {
        self.trace.is_some()
            || self.stats
            || self.metrics_json.is_some()
            || self.profile.is_some()
            || self.profile_alloc
            || self.events.is_some()
    }

    /// Build the handle: enabled when any output was requested or when
    /// `DCDS_PROGRESS` asks for heartbeats; the zero-cost disabled handle
    /// otherwise. When an event stream is attached, a `run_start` event
    /// with the command and spec carries the session metadata.
    pub fn session(&self, command: &str, spec: &str) -> Result<Obs, String> {
        let mut config = ObsConfig::from_env();
        if !self.wants_recording() && config.progress.is_none() {
            return Ok(Obs::disabled());
        }
        config.track_alloc = self.profile_alloc;
        if let Some(path) = &self.events {
            let out: Box<dyn std::io::Write + Send> = if path == "-" {
                Box::new(std::io::stdout())
            } else {
                Box::new(
                    std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?,
                )
            };
            config.events = Some(EventSink::new(out));
        }
        let obs = Obs::enabled(config);
        event!(
            obs,
            "run_start",
            command = command.to_string(),
            spec = spec.to_string(),
        );
        Ok(obs)
    }

    /// Drain the handle and write whatever was requested: a `run_end`
    /// event and final progress flush first, then the Chrome trace,
    /// folded-stack profile(s), metrics JSON, and the text summary (with
    /// the top-spans table) to their sinks.
    pub fn finish(&self, obs: &Obs) -> Result<(), String> {
        event!(obs, "run_end", wall_us = obs.elapsed_us());
        obs.progress_flush(|| format!("run finished in {:.1}s", obs.elapsed_us() as f64 / 1e6));
        let Some(report) = obs.finish() else {
            return Ok(());
        };
        if let Some(path) = &self.trace {
            let trace = export::chrome_trace(&report.events);
            std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "trace: {} events written to {path} (open in Perfetto or chrome://tracing)",
                report.events.len()
            );
        }
        if self.profile.is_some() || self.stats {
            let stats = profile::aggregate(&report.events);
            if let Some(path) = &self.profile {
                let folded = profile::folded(&stats, profile::Weight::SelfTimeUs);
                std::fs::write(path, folded).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "profile: folded stacks ({} span paths, µs weights) written to {path}",
                    stats.len()
                );
                if self.profile_alloc {
                    let alloc_path = format!("{path}.alloc");
                    let folded = profile::folded(&stats, profile::Weight::SelfAllocBytes);
                    std::fs::write(&alloc_path, folded)
                        .map_err(|e| format!("cannot write {alloc_path}: {e}"))?;
                    eprintln!("profile: allocation-weighted stacks written to {alloc_path}");
                }
            }
            if self.stats {
                eprint!("{}", profile::top_spans(&stats, 15));
            }
        }
        if let Some(path) = &self.metrics_json {
            let json = report.metrics.to_json();
            if path == "-" {
                write_stdout(format_args!("{json}\n"));
            } else {
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            }
        }
        if self.stats {
            eprint!("{}", export::text_summary(&report));
        }
        // Belt and braces: `Obs::finish` already clears the gate when the
        // session tracked allocations, but a failed session setup must not
        // leave counting on either.
        if self.profile_alloc {
            alloc::set_counting(false);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn threads_flag_validates() {
        assert_eq!(threads_flag(&argv(&["--threads", "4"])).unwrap(), Some(4));
        assert_eq!(threads_flag(&argv(&["x"])).unwrap(), None);
        assert!(threads_flag(&argv(&["--threads", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(threads_flag(&argv(&["--threads", "many"])).is_err());
        let cap = MAX_THREADS.to_string();
        assert_eq!(
            threads_flag(&argv(&["--threads", &cap])).unwrap(),
            Some(MAX_THREADS)
        );
        for over in [MAX_THREADS + 1, 4_000_000_000] {
            let err = threads_flag(&argv(&["--threads", &over.to_string()])).unwrap_err();
            assert!(err.contains("--threads") && err.contains(&cap), "{err}");
        }
        // u32 overflow is a parse error, not a wrap-around.
        assert!(threads_flag(&argv(&["--threads", "99999999999"])).is_err());
    }

    #[test]
    fn positionals_skip_flags_and_their_values() {
        let args = argv(&[
            "check",
            "--format",
            "json",
            "--witness",
            "s.dcds",
            "--metrics-json",
            "-",
            "phi",
            "--stats",
        ]);
        let takes = ["--format", "--witness"];
        let flags = Flags::new(&args, &takes, true).unwrap();
        assert_eq!(flags.arg(1, "spec").unwrap(), "s.dcds");
        assert_eq!(flags.arg(2, "formula").unwrap(), "phi");
        assert_eq!(flags.arg(3, "more").unwrap_err().0, "missing more");
        // A bare flag leaves the next argument positional; a flag whose
        // value is missing does not swallow the flag after it.
        let args = argv(&["abstract", "--dot", "s.dcds", "--trace", "--stats"]);
        let flags = Flags::new(&args, &["--dot"], true).unwrap();
        assert_eq!(flags.arg(1, "spec").unwrap(), "s.dcds");
        assert!(flags.arg(2, "more").is_err());
    }

    #[test]
    fn unknown_flags_are_named() {
        let args = argv(&["abstract", "s.dcds", "--max-state", "5"]);
        assert_eq!(
            Flags::new(&args, &["--max-states"], true).unwrap_err().0,
            "unknown flag `--max-state`"
        );
        // Observability flags only where the subcommand records.
        let args = argv(&["run", "s.dcds", "--stats"]);
        assert_eq!(
            Flags::new(&args, &["--steps"], false).unwrap_err().0,
            "unknown flag `--stats`"
        );
        // A repeated flag is rejected, observability flags included.
        let args = argv(&[
            "abstract",
            "s.dcds",
            "--max-states",
            "5",
            "--max-states",
            "7",
        ]);
        assert_eq!(
            Flags::new(&args, &["--max-states"], true).unwrap_err().0,
            "flag `--max-states` given twice"
        );
        let args = argv(&["abstract", "s.dcds", "--stats", "--stats"]);
        assert!(Flags::new(&args, &[], true).is_err());
        let args = argv(&["lint", "s.dcds", "--stats", "--format", "json"]);
        let flags = Flags::new(&args, &["--format"], true).unwrap();
        assert_eq!(flags.word("--format"), Some("json"));
        assert!(flags.obs().unwrap().stats);
    }

    #[test]
    fn obs_cli_parses_bundle() {
        let cli = ObsCli::parse(&argv(&["--trace", "t.json", "--stats"])).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("t.json"));
        assert!(cli.stats);
        assert!(cli.metrics_json.is_none());
        assert!(cli.wants_recording());

        let none = ObsCli::parse(&argv(&["--max-states", "7"])).unwrap();
        assert!(!none.wants_recording());

        // `--trace` directly followed by another flag is a missing value,
        // not a file named like a flag.
        assert!(ObsCli::parse(&argv(&["--trace", "--stats"])).is_err());
    }

    #[test]
    fn obs_cli_parses_profiling_flags() {
        let cli = ObsCli::parse(&argv(&[
            "--profile",
            "p.folded",
            "--profile-alloc",
            "--events",
            "-",
        ]))
        .unwrap();
        assert_eq!(cli.profile.as_deref(), Some("p.folded"));
        assert!(cli.profile_alloc);
        assert_eq!(cli.events.as_deref(), Some("-"));
        assert!(cli.wants_recording());

        // `--profile-alloc` alone still turns recording on (the spans are
        // where the attribution lands).
        let alloc_only = ObsCli::parse(&argv(&["--profile-alloc"])).unwrap();
        assert!(alloc_only.wants_recording());
        assert!(ObsCli::parse(&argv(&["--profile", "--stats"])).is_err());
        assert!(ObsCli::parse(&argv(&["--events", "--stats"])).is_err());
    }
}

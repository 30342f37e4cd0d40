//! Memory-regression smoke for the compact state store.
//!
//! Runs one deterministic and one RCYCL workload at a fixed 50k-state
//! budget — far enough above `OWNED_MAX_STATES` that the engines keep
//! their states in the compact store — and fails (exit 1) if the store's
//! deterministic bytes-per-state estimate exceeds a pinned ceiling. The
//! estimate (`StoreStats::bytes`) is derived from element counts and
//! `size_of`, not allocator introspection, so it is stable across runs
//! and thread counts — a real regression (e.g. deltas silently falling
//! back to roots, the arena duplicating facts) moves it far more than
//! platform `size_of` drift does, which is what the ceiling's headroom
//! absorbs.
//!
//! Wired into `scripts/check.sh` and CI; keep it fast (seconds, not
//! minutes).

use dcds_abstraction::{det_abstraction_traced, rcycl_traced, AbsOptions, OWNED_MAX_STATES};
use dcds_bench::synthetic;
use dcds_core::StateSpace;
use dcds_obs::Obs;
use std::process::ExitCode;

/// Fixed workload size: big enough that per-state overheads dominate
/// constant setup costs, small enough for a CI smoke.
const BUDGET: usize = 50_000;

/// Pinned bytes-per-state ceilings (measured 182 and 124 B/state at the
/// seed of the compact store, plus ~50% headroom). Raise these only with
/// a justification in the commit that does so.
const DET_CEILING: f64 = 280.0;
const RCYCL_CEILING: f64 = 190.0;

fn report(name: &str, ts: &StateSpace, ceiling: f64) -> bool {
    let states = ts.num_states();
    let stats = ts
        .store_stats()
        .expect("budgets above OWNED_MAX_STATES use the store");
    let per_state = stats.bytes as f64 / states.max(1) as f64;
    let ok = per_state <= ceiling;
    println!(
        "{name}: {states} states, {} bytes ({per_state:.1} B/state, ceiling {ceiling:.0}), \
         {} facts interned, delta share {:.1}% — {}",
        stats.bytes,
        stats.facts_interned,
        stats.delta_share() * 100.0,
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

fn main() -> ExitCode {
    // One worker: the store's byte estimate is thread-independent (the
    // differential suites cover thread counts), and per-call scoped-thread
    // spawns would dominate the smoke's runtime on small CI boxes.
    const { assert!(BUDGET > OWNED_MAX_STATES) };
    let opts = AbsOptions {
        threads: 1,
        ..AbsOptions::default()
    };
    let det = det_abstraction_traced(
        &synthetic::service_chain(16),
        BUDGET,
        opts,
        &Obs::disabled(),
    );
    let det_ok = report("det_abstraction(service_chain(16))", &det.ts, DET_CEILING);

    let rc = rcycl_traced(&synthetic::phased_rings(4), BUDGET, 1, &Obs::disabled());
    let rc_ok = report("rcycl(phased_rings(4))", &rc.ts, RCYCL_CEILING);

    if det_ok && rc_ok {
        println!("memory smoke passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("memory smoke FAILED: bytes/state ceiling exceeded");
        ExitCode::FAILURE
    }
}

#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo test"
cargo test -q

# `cargo test` at the root runs every workspace crate (`default-members`),
# so the differential suites below already ran; the named reruns keep the
# gate loud if a target is ever renamed or feature-gated away.
echo "== differential suites"
# Query plans against the reference evaluator, sorted-prefix probes
# against filtered scans row for row, the guided multi-atom joins, and
# compiled constraint checks against both evaluators (with the path each
# constraint took).
cargo test -q -p dcds-folang --test plan_differential --test guided_differential
# The constraints' delta check (the guard rows of `base ∪ Δ` that use a
# `Δ` fact) against the full check of the union, on random satisfying
# bases, for every screened shape; and which shapes have no delta check.
cargo test -q -p dcds-folang --test delta_differential
# The det abstraction's screened step against the definitional
# `det_step_with_pre`, commitment by commitment, on every reachable state
# of systems that cover each path of the screen.
cargo test -q -p dcds-bench --test det_screen
# The compiled `DO` programs and σ rows vs the reference on every reachable state.
cargo test -q -p dcds-bench --test do_program
# Engines: both state storages against the reference constructions at
# 1/2/4/8 threads (the audit systems' non-prefix joins included), DO and
# the legal assignments against their definitions on every reachable
# state, and thread-count invariance; the e2e rows' written specs against
# their library twins, with the model checker's extension size and
# counters pinned on every explicit row.
cargo test -q -p dcds-bench --test engine_differential --test plan_paths --test e2e_rows
# Compact store vs owned facts at the materialisation level.
cargo test -q -p dcds-reldata --test store_differential
# Symbolic engine vs the naive Kleene evaluator and the staged checker.
cargo test -q --test symbolic_differential
# Symbolic normal form and subsumption search vs their pre-optimisation
# references on seeded clause pairs (unit tests of `dcds-symbolic`).
cargo test -q -p dcds-symbolic
# Staged model checker (fused quantifier blocks, bitset extensions) vs
# the naive Kleene evaluator on seeded random formulas, the fusion edge
# shapes, and a 120-state system whose query leaves scan on non-prefix
# columns and whose violated AGs take several iterations, at 1/2/4
# threads with identical counters;
# closed µLA formulas also through PROP(Φ).
cargo test -q --test mc_engine_differential

echo "== compact-store memory smoke"
# Fixed 50k-state workloads, kept in the compact store by the budget rule;
# fails if the deterministic bytes-per-state estimate exceeds the pinned
# ceilings.
cargo run --release -q -p dcds-bench --bin memsmoke

echo "== perf regression smoke gate"
# The e2e stage — the `dcds check` binary, built here in release, on
# every spec-file → verdict row, best of 3 (the heavyweight scale stage
# is skipped) — compared against the committed BENCH_*.json baselines;
# writes BENCH_diff.json and fails on a gross regression.
# Thresholds are deliberately loose — smoke runs on a shared machine — so
# only order-of-magnitude collapses trip here; `perf_report --smoke
# --baseline .` at the default thresholds is the tight gate.
cargo build --release -q --bin dcds
cargo run --release -q -p dcds-bench --bin perf_report -- \
    --smoke --baseline . --max-slowdown 6 --max-growth 2

echo "== cargo doc --no-deps (rustdoc warnings)"
# Intra-doc link breakage and malformed doc fences surface only here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "All checks passed."

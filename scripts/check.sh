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
# Query plans: reference / nested-loop / plan-scan / plan+index, the
# guided multi-atom joins, and compiled constraint checks against both
# evaluators (with the path each constraint took).
cargo test -q -p dcds-folang --test plan_differential --test guided_differential
# Engines: both state storages against the reference constructions at
# 1/2/4/8 threads, plus thread-count invariance with plans and indexes.
cargo test -q -p dcds-bench --test engine_differential --test plan_paths
# Compact store vs owned facts at the materialisation level.
cargo test -q -p dcds-reldata --test store_differential
# Symbolic engine vs the naive Kleene evaluator and the staged checker.
cargo test -q --test symbolic_differential
# Symbolic normal form and subsumption search vs their pre-optimisation
# references on seeded clause pairs (unit tests of `dcds-symbolic`).
cargo test -q -p dcds-symbolic
# Staged model checker (fused quantifier blocks) vs the naive Kleene
# evaluator on seeded random formulas and the fusion edge shapes, at
# 1/2/4 threads; closed µLA formulas also through PROP(Φ).
cargo test -q --test mc_engine_differential

echo "== compact-store memory smoke"
# Fixed 50k-state workloads, kept in the compact store by the budget rule;
# fails if the deterministic bytes-per-state estimate exceeds the pinned
# ceilings.
cargo run --release -q -p dcds-bench --bin memsmoke

echo "== perf regression smoke gate"
# One-rep run of the abstraction/mucalc/query stages (the heavyweight
# scale stage is skipped) compared against the committed BENCH_*.json
# baselines; writes BENCH_diff.json and fails on a gross regression.
# Thresholds are deliberately loose — smoke is best-of-1 on a shared
# machine — so only order-of-magnitude collapses trip here; the tight
# gates run with the full `perf_report --baseline` on dedicated hardware.
cargo run --release -q -p dcds-bench --bin perf_report -- \
    --smoke --baseline . --max-slowdown 6 --max-growth 2

echo "== cargo doc --no-deps (rustdoc warnings)"
# Intra-doc link breakage and malformed doc fences surface only here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "All checks passed."

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
# Query plans against the reference evaluator on generated UCQs (the
# parameterised plan also rejecting every non-answer head row) and
# full-FO formulas (negation, universal quantifiers, ADOM steps, shadowing,
# the empty instance), sorted-prefix probes against filtered scans row for
# row, and compiled constraint checks, full and delta, against the
# active-domain definition (`eval::equality_satisfied`,
# `eval::fo_satisfied`) on generated guard-shaped, existential and
# disjunctive sentences, keys and equality constraints.
cargo test -q -p dcds-folang --test plan_differential --test constraint_differential
# The constraints' delta check (the guard rows of `base ∪ Δ` that use a
# `Δ` fact) against the full check of the union, on random satisfying
# bases, for every screened shape; and which shapes have no delta check
# (a filter that reads a relation, or an ADOM step).
cargo test -q -p dcds-folang --test delta_differential
# The det abstraction's screened step against the definitional
# `det_step_with_pre`, commitment by commitment, on every reachable state
# of systems that cover each path of the screen; every constraint verdict
# on each commitment's resolved `DO(I, ασ)`, kept or rejected, against
# the definition.
cargo test -q -p dcds-bench --test det_screen
# The compiled `DO` programs and σ rows vs the reference on every reachable state.
cargo test -q -p dcds-bench --test do_program
# Engines: every thread count (1/2/4/8) against the 1-thread run, and
# that run against the reference constructions (the audit systems'
# non-prefix joins included); DO and the legal assignments against their
# definitions on every reachable state, and every constraint verdict on
# each θ-successor of the travel-request RCYCL pruning against the
# definition; the e2e rows' written specs against their library twins,
# with the model checker's extension size and counters pinned on every
# explicit row.
cargo test -q -p dcds-bench --test engine_differential --test plan_paths --test e2e_rows
# RCYCL up to isomorphism against exact RCYCL: the quotient's states are
# the isomorphism classes of the exact pruning's states, counted with the
# definitional `Facts::isomorphic`, its edges the class graph, and every
# generated closed-leaf formula (formula-only constants included) gets the
# same verdict, on `phased_rings(2/3)`, the shipped nondet specs,
# `flush_ladder` and 120 seeded random nondet systems.
cargo test -q -p dcds-bench --test rcycl_quotient
# `Instance` and `Facts`, each one sorted fact vector, against a B-tree
# reference model on seeded operation sequences: every read after each
# insert/remove, the bulk builders, union/extend/rename/project, and
# Eq/Hash/Ord (an `Instance` orders relation by relation, as a map of
# sets does).
cargo test -q -p dcds-reldata --test instance_model
# Symbolic engine vs the naive Kleene evaluator and the staged checker.
cargo test -q --test symbolic_differential
# Symbolic normal form and subsumption search vs their pre-optimisation
# references on seeded clause pairs, and the regression oracle: the
# slot-template candidates and the orbit enumeration vs the name-map
# builder over every option vector, on generated systems and symmetric
# targets (unit tests of `dcds-symbolic`).
cargo test -q -p dcds-symbolic
# The µL→FO lowering (`Mu::state_query`), the fusion pass, the fragment
# classifier and the safety extraction that share it (unit tests of
# `dcds-mucalc`).
cargo test -q -p dcds-mucalc
# Staged model checker (fused quantifier blocks, bitset extensions) vs
# the naive Kleene evaluator on seeded random formulas, the fusion edge
# shapes, and a 120-state system whose query leaves scan on non-prefix
# columns and whose violated AGs take several iterations, at 1/2/4
# threads with identical counters. The shapes include the blocks that
# fuse only through the lowering: `∀X. A(X) → ¬B(X)` (same extension and
# counters as `∀X. ¬(A(X) ∧ B(X))`), `∃X. R(X) ∧ ¬S(X)`, a `∀` over a
# `¬∃` block, `live` covered under `∨` and `¬`, uncovered, and rebound by
# a shadowing binder; and open blocks, which both evaluators reject
# until the valuation assigns their free variable and then agree on.
# On closed µLA formulas the staged engine on PROP(Φ) (Theorem 4.4:
# quantifiers expanded over ADOM(Θ)) is held to the definition, the naive
# evaluator on the formula itself; the seeded formulas must give at least
# 346 such comparisons.
cargo test -q --test mc_engine_differential
# The isomorphism oracle: `Facts::for_each_isomorphism`, a plain
# backtracking search over the active domain that reads no signature or
# refinement colour. `canon_tests` holds the canonical key to it (equal
# keys iff isomorphic) and the signature to its guarantee (isomorphic ⇒
# equal signatures); `dcds-bisim` enumerates the isomorphisms extending a
# partial bijection through it and checks both bisimulations with them;
# `bisimulation_theorems` checks that the abstractions of Theorems 4.3
# and 5.4 are history- / persistence-preserving bisimilar to their
# systems, and the µLA / µLP invariance of Theorems 3.1 and 3.2.
cargo test -q -p dcds-reldata --lib canon_tests
cargo test -q -p dcds-bisim
cargo test -q --test bisimulation_theorems
# One front end for specs: on every shipped and `specs/bad/` spec and on
# a few hundred seeded single-edit mutants of them, parsing, linting and
# lowering never panic, `parse_dcds` fails exactly when `dcds lint`
# reports an error, and its `line:col: message` is lint's first error;
# the lint fixtures pin every DCDS code and the CLI exit codes.
cargo test -q --test lint --test spec_pipeline --test spec_mutants

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
    --smoke --baseline . --max-slowdown 6

echo "== cargo doc --no-deps (rustdoc warnings)"
# Intra-doc link breakage and malformed doc fences surface only here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "All checks passed."

//! # dcds-bench
//!
//! Experiment harness for the DCDS verification stack:
//!
//! * [`examples`] — the paper's running examples (4.1, 4.2, 4.3, 5.2, 5.3,
//!   and the nondeterministic variant 5.1) as reusable constructors;
//! * [`travel`] — the Appendix E travel-reimbursement systems: the
//!   faithful request/audit models used for static analysis and figure
//!   regeneration, plus a reduced request model small enough for RCYCL and
//!   µLP model checking end-to-end;
//! * [`synthetic`] — parametric workload families (copy chains, service
//!   chains/cycles, accumulators, flush ladders, random systems) used by
//!   `perf_report`, `memsmoke` and the differential suites to measure
//!   scaling;
//! * [`figures`] — regeneration of every figure and table of the paper's
//!   narrative (Figures 2–10, Table 1), each returning a plain-text report
//!   printed by the corresponding `fig*`/`table1` binary;
//! * [`e2e`] — the spec-file → verdict rows `perf_report` times through
//!   the `dcds` binary, and the layer split of their profiles;
//! * [`report`] — the perf-regression side of `perf_report`: a std-only
//!   JSON reader for the committed `BENCH_*.json` baselines, metric
//!   extraction, and threshold gating (`--baseline`).

pub mod e2e;
pub mod examples;
pub mod figures;
pub mod parity;
pub mod report;
pub mod rng;
pub mod synthetic;
pub mod travel;

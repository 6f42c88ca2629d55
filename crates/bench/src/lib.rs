//! # eve-bench
//!
//! The experiment harness reproducing every figure, table and worked
//! example of the CVS paper, plus the quantitative sweeps its claims
//! imply (the paper's own evaluation is qualitative — see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record).
//!
//! Each experiment is a pure function returning a rendered report (and,
//! where meaningful, structured rows), shared by:
//!
//! * the `experiments` binary (`cargo run -p eve-bench --bin experiments
//!   -- <id>`) — regenerates any single artifact or `all` of them;
//! * golden tests in the root crate's `tests/`.
//!
//! Performance is not measured here: `cvsbench/` (declared by
//! `BENCHMARK.json`) is the repository's only benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_rank;
pub mod examples;
pub mod figures;
pub mod history;
pub mod support;
pub mod sweeps;
pub mod table;

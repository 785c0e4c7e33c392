//! # fmbs-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation, each returning
//! an [`report::Experiment`] with the same series the paper plots. The
//! `repro` binary prints/serialises them. perfbench (`BENCHMARK.json`)
//! times every figure, and `scripts/bench_pairs.py` judges a change
//! against its base with paired runs. [`perf`] keeps the metro
//! acceptance geometry that perfbench's `metro_trace` workload and the
//! metro memory guard share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod experiments;
pub mod manifest;
pub mod perf;
pub mod report;

//! # fmbs-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation, each returning
//! an [`report::Experiment`] with the same series the paper plots. The
//! `repro` binary prints/serialises them. perfbench (`BENCHMARK.json`)
//! times every figure, and `scripts/bench_pairs.py` judges a change
//! against its base with paired runs; the Criterion benches in
//! `benches/` time the DSP kernels, the sweep engine and the network
//! engine. [`perf`] keeps the metro acceptance geometry they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod experiments;
pub mod manifest;
pub mod perf;
pub mod report;

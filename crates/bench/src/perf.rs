//! The metro acceptance geometry, shared by the benchmark's
//! `metro_trace` workload and the metro memory guard.
//!
//! Speed is measured by perfbench (`BENCHMARK.json`), and a change is
//! judged against its base by `scripts/bench_pairs.py`.

use fmbs_net::prelude::{Deployment, Receiver, Station};

/// The metro acceptance-bar geometry: tags sharded across a 4×4
/// receiver grid with capture on, one 67 dBm station 10,000 ft away. Its
/// 10⁶ × 10⁴ tag-slots are past the default work budget, so it opts in
/// to them.
pub fn metro_acceptance_deployment(n_tags: usize, n_slots: u64) -> Deployment {
    Deployment::city(n_tags)
        .slots(n_slots)
        .work_budget(10_000_000_000)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
}

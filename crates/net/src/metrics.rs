//! Network-level [`Metric`] implementations.
//!
//! Each metric wraps a [`Deployment`] — the calibrated link table
//! (`.link(table)`) plus the harvest, framing, fault and ARQ knobs a
//! [`Scenario`] does not carry — and measures one aspect of the
//! one-cell deployment [`Deployment::at`] places at each grid point.
//! Because they implement the ordinary [`Metric`] trait, the existing
//! [`fmbs_core::sim::sweep::SweepBuilder`] engine sweeps network axes
//! (`n_tags`, `mac_slot_counts`, `f_backs_hz`, power, radius) exactly
//! like physics axes, with the same parallel == serial bit-identity.
//!
//! The `sim: &dyn Simulator` argument every metric receives is unused
//! here by design: the per-packet physics was pre-sampled into the
//! [`crate::link::BerTable`] at calibration time — that substitution
//! *is* the link abstraction.

use crate::engine::NetStats;
use crate::topology::Deployment;
use fmbs_core::sim::metric::Metric;
use fmbs_core::sim::scenario::Scenario;
use fmbs_core::sim::Simulator;

/// The statistics of `deployment` run at the `scenario` grid point.
fn stats_at(deployment: &Deployment, scenario: &Scenario) -> NetStats {
    deployment.at(scenario).run_point().stats
}

/// Aggregate network goodput in bits per second.
#[derive(Debug, Clone)]
pub struct NetGoodput(pub Deployment);

impl Metric for NetGoodput {
    fn name(&self) -> &'static str {
        "net_goodput"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        stats_at(&self.0, scenario).goodput_bps()
    }
}

/// Fraction of transmission attempts lost to collisions.
#[derive(Debug, Clone)]
pub struct NetCollisionRate(pub Deployment);

impl Metric for NetCollisionRate {
    fn name(&self) -> &'static str {
        "net_collision_rate"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        stats_at(&self.0, scenario).collision_rate()
    }
}

/// Jain's fairness index over per-tag delivered packets.
#[derive(Debug, Clone)]
pub struct NetFairness(pub Deployment);

impl Metric for NetFairness {
    fn name(&self) -> &'static str {
        "net_fairness"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        stats_at(&self.0, scenario).jain_fairness()
    }
}

/// A packet-latency percentile in seconds (contention delay from a
/// packet's first attempt to its delivery).
#[derive(Debug, Clone)]
pub struct NetLatency {
    /// The deployment under measurement.
    pub deployment: Deployment,
    /// Percentile in [0, 1] (e.g. 0.95).
    pub percentile: f64,
}

impl NetLatency {
    /// The 95th-percentile latency metric.
    pub fn p95(deployment: Deployment) -> Self {
        NetLatency {
            deployment,
            percentile: 0.95,
        }
    }
}

impl Metric for NetLatency {
    fn name(&self) -> &'static str {
        "net_latency"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        stats_at(&self.deployment, scenario).latency_percentile_secs(self.percentile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::BerTable;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::fast::FastSim;
    use fmbs_core::sim::scenario::Workload;
    use std::sync::Arc;

    fn spec() -> Deployment {
        Deployment::city(1).link(Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![1e-4, 5e-4, 2e-4, 1e-3],
        )))
    }

    fn net_scenario(n_tags: u32, mac_slots: u32) -> Scenario {
        let mut s = Scenario::bench(-40.0, 14.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
        s.n_tags = n_tags;
        s.mac_slots = mac_slots;
        s
    }

    #[test]
    fn goodput_and_collisions_respond_to_density() {
        let sparse = net_scenario(4, 300);
        let dense = net_scenario(600, 300);
        let g = NetGoodput(spec());
        let c = NetCollisionRate(spec());
        assert!(g.evaluate(&FastSim, &dense) > g.evaluate(&FastSim, &sparse));
        assert!(c.evaluate(&FastSim, &dense) > c.evaluate(&FastSim, &sparse));
    }

    #[test]
    fn fairness_and_latency_are_sane() {
        let s = net_scenario(60, 400);
        let f = NetFairness(spec()).evaluate(&FastSim, &s);
        assert!(f > 0.3 && f <= 1.0, "fairness {f}");
        let l = NetLatency::p95(spec()).evaluate(&FastSim, &s);
        assert!(l >= 0.0);
    }
}

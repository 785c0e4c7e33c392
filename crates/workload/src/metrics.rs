//! SLO metrics over trace-driven runs.
//!
//! A [`WorkloadSpec`] bundles the network tier's [`Deployment`] with an
//! admission [`Policy`]; `run` generates the scenario's arrival trace,
//! applies the policy, replays the trace through the one-cell
//! deployment [`Deployment::at`] places at the grid point and returns
//! combined statistics. The metric wrappers implement the
//! ordinary [`Metric`] trait, so `offered_load`, `arrival_model` and
//! `app_profile` sweep exactly like physics axes — same point seeds,
//! same parallel == serial bit-identity.
//!
//! Quantiles use [`fmbs_dsp::stats::quantile_nearest_rank_counted`];
//! note its small-sample caveat — a p999 over fewer than 1000 delivered
//! packets degrades to the max. [`WorkloadStats::sojourn_quantile`]
//! surfaces the support count so callers can tell.

use crate::arrivals::TraceSpec;
use crate::policy::{Admitted, Policy};
use fmbs_core::sim::metric::Metric;
use fmbs_core::sim::scenario::{ArrivalModel, Scenario};
use fmbs_core::sim::Simulator;
use fmbs_dsp::stats::quantile_nearest_rank_counted;
use fmbs_net::engine::{EventTrace, NetStats, Traffic};
use fmbs_net::topology::Deployment;
use std::sync::Arc;

/// Shared setup for the SLO metrics: the deployment plus the admission
/// policy traffic is filtered through.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Link table (`.link(table)`), harvest, framing, faults and ARQ.
    pub net: Deployment,
    /// Admission policy applied to every generated trace.
    pub policy: Policy,
}

/// One trace-driven run's combined statistics.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// The engine's statistics (delivered, sojourns, queue accounting).
    pub net: NetStats,
    /// Packets the generator offered before admission control — the
    /// SLO denominator.
    pub offered_raw: u64,
    /// Packets the policy shed at admission.
    pub admission_shed: u64,
}

impl WorkloadStats {
    /// A sojourn-time quantile in seconds plus its support (delivered
    /// packets) — see the module notes on small samples.
    pub fn sojourn_quantile(&self, q: f64) -> (f64, usize) {
        quantile_nearest_rank_counted(&self.net.sojourn_secs(), q)
    }

    /// Fraction of *raw* offered packets that failed their deadline:
    /// late deliveries, admission sheds, expired sheds and packets
    /// still queued at the horizon all miss. 0 when nothing was
    /// offered.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.offered_raw == 0 {
            return 0.0;
        }
        1.0 - self.net.on_time as f64 / self.offered_raw as f64
    }

    /// Delivered bits over raw offered bits — goodput as a fraction of
    /// demand (1 means the deployment absorbed the whole load).
    pub fn offered_vs_goodput(&self) -> f64 {
        if self.offered_raw == 0 {
            return 0.0;
        }
        self.net.delivered as f64 / self.offered_raw as f64
    }

    /// End-to-end conservation: raw arrivals == admission sheds +
    /// delivered + expired sheds + still queued.
    pub fn conserved(&self) -> bool {
        self.net.queue_conserved() && self.offered_raw == self.admission_shed + self.net.offered
    }
}

impl WorkloadSpec {
    /// Admit-all over `net`.
    pub fn new(net: Deployment) -> Self {
        WorkloadSpec {
            net,
            policy: Policy::AdmitAll,
        }
    }

    /// Replaces the admission policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the scenario's traffic through policy and engine.
    ///
    /// [`ArrivalModel::Saturated`] scenarios run the engine's
    /// full-buffer mode: no queues exist, so the SLO numerators and
    /// denominators are all zero and the network statistics carry the
    /// result.
    pub fn run(&self, scenario: &Scenario) -> WorkloadStats {
        self.run_traced(scenario, false).0
    }

    /// Like [`WorkloadSpec::run`] but optionally records and returns
    /// the engine's slot-level event trace — the resilience metrics
    /// need it to measure goodput recovery around a fault window. `run`
    /// is this with recording off (an empty trace costs nothing).
    pub fn run_traced(
        &self,
        scenario: &Scenario,
        record_trace: bool,
    ) -> (WorkloadStats, EventTrace) {
        let point = self.net.at(scenario).record_trace(record_trace);
        if scenario.arrival_model == ArrivalModel::Saturated {
            let run = point.run_point();
            return (
                WorkloadStats {
                    net: run.stats,
                    offered_raw: 0,
                    admission_shed: 0,
                },
                run.trace,
            );
        }
        let slot_secs = point.network_config().slot_secs();
        let trace = TraceSpec::from_scenario(scenario, slot_secs).generate();
        let Admitted {
            trace,
            offered_raw,
            admission_shed,
            drop_expired,
        } = self.policy.apply(trace);
        let run = point
            .traffic(Traffic::Trace(Arc::new(trace)))
            .drop_expired(drop_expired)
            .run_point();
        (
            WorkloadStats {
                net: run.stats,
                offered_raw,
                admission_shed,
            },
            run.trace,
        )
    }
}

/// 99th-percentile sojourn time (arrival → delivery, queueing included)
/// in seconds.
#[derive(Debug, Clone)]
pub struct SloLatencyP99(pub WorkloadSpec);

impl Metric for SloLatencyP99 {
    fn name(&self) -> &'static str {
        "slo_latency_p99"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).sojourn_quantile(0.99).0
    }
}

/// 99.9th-percentile sojourn time in seconds. Degrades to the max
/// sojourn below 1000 delivered packets (see
/// [`fmbs_dsp::stats::quantile_nearest_rank_counted`]).
#[derive(Debug, Clone)]
pub struct SloLatencyP999(pub WorkloadSpec);

impl Metric for SloLatencyP999 {
    fn name(&self) -> &'static str {
        "slo_latency_p999"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).sojourn_quantile(0.999).0
    }
}

/// Fraction of raw offered packets missing their deadline.
#[derive(Debug, Clone)]
pub struct DeadlineMissRate(pub WorkloadSpec);

impl Metric for DeadlineMissRate {
    fn name(&self) -> &'static str {
        "deadline_miss_rate"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).deadline_miss_rate()
    }
}

/// Delivered packets over raw offered packets.
#[derive(Debug, Clone)]
pub struct OfferedVsGoodput(pub WorkloadSpec);

impl Metric for OfferedVsGoodput {
    fn name(&self) -> &'static str {
        "offered_vs_goodput"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).offered_vs_goodput()
    }
}

/// Jain's fairness index over per-domain goodput of a metro run — 1
/// when every receiver cell carries the same traffic, 1/n when one cell
/// hogs the city. The multi-cell analogue of
/// [`NetStats::jain_fairness`], which stays per-tag within a cell.
pub fn domain_fairness(per_domain: &[NetStats]) -> f64 {
    let goodputs: Vec<f64> = per_domain
        .iter()
        .filter(|s| s.n_tags > 0)
        .map(NetStats::goodput_bps)
        .collect();
    if goodputs.is_empty() {
        return 1.0;
    }
    let sum: f64 = goodputs.iter().sum();
    let sq_sum: f64 = goodputs.iter().map(|g| g * g).sum();
    if sq_sum <= 0.0 {
        return 1.0;
    }
    sum * sum / (goodputs.len() as f64 * sq_sum)
}

/// Aggregate deadline-aware SLO accounting over per-domain metro stats:
/// `(total offered, total on-time)`. Domains report independently; the
/// city-wide miss rate is `1 − on_time / offered` when anything was
/// offered.
pub fn domain_slo_totals(per_domain: &[NetStats]) -> (u64, u64) {
    per_domain
        .iter()
        .fold((0, 0), |(o, t), s| (o + s.offered, t + s.on_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::fast::FastSim;
    use fmbs_core::sim::scenario::{AppProfile, Workload};
    use fmbs_net::link::BerTable;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(Deployment::city(1).link(Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![1e-4, 5e-4, 2e-4, 1e-3],
        ))))
    }

    fn scenario(n_tags: u32, load: f64) -> Scenario {
        let mut s = Scenario::bench(-40.0, 14.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
            .with_traffic(ArrivalModel::Poisson, load, AppProfile::SensorBeacon);
        s.n_tags = n_tags;
        s.mac_slots = 600;
        s
    }

    #[test]
    fn light_load_meets_slo_heavy_load_breaks_it() {
        let light = spec().run(&scenario(20, 0.005));
        assert!(light.conserved(), "{light:?}");
        assert!(light.net.offered > 0);
        assert!(
            light.deadline_miss_rate() < 0.35,
            "light: {}",
            light.deadline_miss_rate()
        );
        let heavy = spec().run(&scenario(800, 0.5));
        assert!(heavy.conserved(), "{:?}", heavy.net.n_tags);
        assert!(
            heavy.deadline_miss_rate() > light.deadline_miss_rate(),
            "heavy {} vs light {}",
            heavy.deadline_miss_rate(),
            light.deadline_miss_rate()
        );
        assert!(heavy.offered_vs_goodput() < 1.0);
    }

    #[test]
    fn saturated_scenarios_fall_back_to_full_buffer() {
        let mut s = scenario(20, 0.01);
        s.arrival_model = ArrivalModel::Saturated;
        let stats = spec().run(&s);
        assert_eq!(stats.offered_raw, 0);
        assert!(stats.net.delivered > 0, "full-buffer still delivers");
        assert_eq!(stats.deadline_miss_rate(), 0.0);
        assert_eq!(stats.sojourn_quantile(0.99), (0.0, 0));
    }

    #[test]
    fn metrics_expose_the_run() {
        let s = scenario(40, 0.01);
        let p99 = SloLatencyP99(spec()).evaluate(&FastSim, &s);
        let p999 = SloLatencyP999(spec()).evaluate(&FastSim, &s);
        assert!(p99 > 0.0 && p999 >= p99, "p99 {p99} p999 {p999}");
        let miss = DeadlineMissRate(spec()).evaluate(&FastSim, &s);
        assert!((0.0..=1.0).contains(&miss));
        let ratio = OfferedVsGoodput(spec()).evaluate(&FastSim, &s);
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
    }

    #[test]
    fn domain_helpers_aggregate_metro_stats() {
        let run = |n_tags: u32, load: f64| spec().run(&scenario(n_tags, load)).net;
        let even = vec![run(40, 0.01), run(40, 0.01)];
        assert!(
            (domain_fairness(&even) - 1.0).abs() < 1e-12,
            "identical cells are fair"
        );
        let skewed = vec![run(10, 0.002), run(700, 0.4)];
        assert!(domain_fairness(&skewed) < domain_fairness(&even));
        let (offered, on_time) = domain_slo_totals(&skewed);
        assert_eq!(offered, skewed[0].offered + skewed[1].offered);
        assert!(on_time <= offered);
        assert_eq!(domain_fairness(&[]), 1.0);
    }

    #[test]
    fn policies_trade_lateness_for_sheds() {
        let s = scenario(400, 0.2);
        let admit = spec().run(&s);
        let aware = spec().with_policy(Policy::DeadlineAware).run(&s);
        let capped = spec()
            .with_policy(Policy::RateCap { max_load: 0.02 })
            .run(&s);
        for w in [&admit, &aware, &capped] {
            assert!(w.conserved());
        }
        assert!(aware.net.expired_dropped > 0);
        assert!(capped.admission_shed > 0);
        // The rate cap thins contention, so what it does admit arrives
        // faster than admit-all's congested queues.
        assert!(capped.sojourn_quantile(0.99).0 <= admit.sojourn_quantile(0.99).0);
    }
}

//! SLO readings over trace-driven runs.
//!
//! A [`WorkloadSpec`] bundles the network tier's [`Deployment`] with an
//! admission [`Policy`]; `run` generates the scenario's arrival trace,
//! applies the policy, replays the trace through the one-cell
//! deployment [`Deployment::at`] places at the grid point and returns
//! combined [`WorkloadStats`]. A sweep evaluates `run` once per point
//! ([`fmbs_core::sim::sweep::SweepBuilder::evaluate`]), so
//! `offered_load`, `arrival_model` and `app_profile` sweep exactly like
//! physics axes — same point seeds, same parallel == serial
//! bit-identity — and every series of a figure reads the one run: the
//! sojourn quantiles, [`WorkloadStats::deadline_miss_rate`],
//! [`WorkloadStats::offered_vs_goodput`] and the resilience readings of
//! [`crate::resilience`].
//!
//! Quantiles use [`fmbs_dsp::stats::quantile_nearest_rank_counted`];
//! note its small-sample caveat — a p999 over fewer than 1000 delivered
//! packets degrades to the max. [`WorkloadStats::sojourn_quantile`]
//! surfaces the support count so callers can tell.

use crate::arrivals::TraceSpec;
use crate::policy::{Admitted, Policy};
use fmbs_core::sim::scenario::{ArrivalModel, Scenario};
use fmbs_dsp::stats::{jain_index, quantile_nearest_rank_counted};
use fmbs_net::engine::{EventTrace, NetStats, Traffic};
use fmbs_net::topology::Deployment;
use std::sync::Arc;

/// Shared setup for a trace-driven run: the deployment plus the
/// admission policy traffic is filtered through.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Link table (`.link(table)`), harvest, framing, faults and ARQ.
    pub net: Deployment,
    /// Admission policy applied to every generated trace.
    pub policy: Policy,
}

/// One trace-driven run's combined statistics.
#[derive(Debug, Clone, PartialEq)]
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

    /// Fraction of raw offered packets eventually delivered — the
    /// resilience headline. With ARQ on, delivered packets are exactly
    /// the acknowledged ones; admission sheds, expired sheds, abandons
    /// and still-queued packets all count against the ratio. 1 when
    /// nothing was offered (no demand, no loss).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_raw == 0 {
            return 1.0;
        }
        self.net.delivered as f64 / self.offered_raw as f64
    }

    /// Fraction of transmission attempts that were ARQ retransmissions
    /// — the airtime price of reliability. 0 without ARQ (nothing is
    /// ever retransmitted) and 0 when no attempt was made.
    pub fn retx_overhead(&self) -> f64 {
        if self.net.attempts == 0 {
            return 0.0;
        }
        self.net.retransmissions as f64 / self.net.attempts as f64
    }

    /// End-to-end conservation: raw arrivals == admission sheds +
    /// delivered + expired sheds + abandoned + still queued.
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
    ///
    /// # Panics
    /// When the run breaks end-to-end conservation
    /// ([`WorkloadStats::conserved`]); the message names the point's
    /// tag count, seed and counts.
    pub fn run(&self, scenario: &Scenario) -> WorkloadStats {
        self.run_traced(scenario, false).0
    }

    /// Like [`WorkloadSpec::run`] but optionally records and returns
    /// the engine's slot-level event trace — the recovery reading needs
    /// it to measure goodput around a fault window. `run` is this with
    /// recording off (an empty trace costs nothing); recording never
    /// changes a count.
    pub fn run_traced(
        &self,
        scenario: &Scenario,
        record_trace: bool,
    ) -> (WorkloadStats, EventTrace) {
        let point = self.net.at(scenario).record_trace(record_trace);
        let (run, offered_raw, admission_shed) =
            if scenario.arrival_model == ArrivalModel::Saturated {
                (point.run_point(), 0, 0)
            } else {
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
                (run, offered_raw, admission_shed)
            };
        let stats = WorkloadStats {
            net: run.stats,
            offered_raw,
            admission_shed,
        };
        let net = &stats.net;
        assert!(
            stats.conserved(),
            "conservation violated at n_tags {} seed {:#x}: offered_raw {offered_raw} vs \
             admission_shed {admission_shed} + offered {}, offered vs delivered {} + expired {} \
             + abandoned {} + still queued {}",
            scenario.n_tags,
            scenario.seed,
            net.offered,
            net.delivered,
            net.expired_dropped,
            net.abandoned,
            net.still_queued,
        );
        (stats, run.trace)
    }
}

/// Jain's fairness index over per-domain goodput of a metro run — 1
/// when every receiver cell carries the same traffic, 1/n when one cell
/// hogs the city. The multi-cell analogue of
/// [`NetStats::jain_fairness`], which stays per-tag within a cell.
pub fn domain_fairness(per_domain: &[NetStats]) -> f64 {
    jain_index(
        per_domain
            .iter()
            .filter(|s| s.n_tags > 0)
            .map(NetStats::goodput_bps),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
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

    /// A saturated (full-buffer) point: the flat network figures' run.
    fn net_scenario(n_tags: u32, mac_slots: u32) -> Scenario {
        let mut s = Scenario::bench(-40.0, 14.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
        s.n_tags = n_tags;
        s.mac_slots = mac_slots;
        s
    }

    #[test]
    fn goodput_and_collisions_respond_to_density() {
        let sparse = spec().run(&net_scenario(4, 300)).net;
        let dense = spec().run(&net_scenario(600, 300)).net;
        assert!(dense.goodput_bps() > sparse.goodput_bps());
        assert!(dense.collision_rate() > sparse.collision_rate());
    }

    #[test]
    fn fairness_and_latency_are_sane() {
        let run = spec().run(&net_scenario(60, 400)).net;
        let f = run.jain_fairness();
        assert!(f > 0.3 && f <= 1.0, "fairness {f}");
        let l = run.latency_percentile_secs(0.95);
        assert!(l >= 0.0);
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
        let run = spec().run(&s);
        let p99 = run.sojourn_quantile(0.99).0;
        let p999 = run.sojourn_quantile(0.999).0;
        assert!(p99 > 0.0 && p999 >= p99, "p99 {p99} p999 {p999}");
        let miss = run.deadline_miss_rate();
        assert!((0.0..=1.0).contains(&miss));
        let ratio = run.offered_vs_goodput();
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

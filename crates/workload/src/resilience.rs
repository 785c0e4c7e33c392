//! Resilience readings: how a deployment degrades and recovers.
//!
//! The SLO readings of [`crate::metrics`] measure latency under nominal
//! conditions; these measure what the fault layer of
//! [`fmbs_net::faults`] costs and what the engine's link-layer ARQ
//! ([`fmbs_net::engine::ArqConfig`]) buys back, over a [`WorkloadSpec`]
//! whose [`fmbs_net::topology::Deployment`] carries the fault plan and
//! ARQ parameters. Fault axes sweep with the usual parallel == serial
//! bit-identity.
//!
//! * [`WorkloadStats::delivery_ratio`] — offered packets eventually
//!   delivered (ACKed, when ARQ is on): the resilience headline.
//! * [`WorkloadStats::retx_overhead`] — the fraction of transmission
//!   attempts that were retransmissions: what reliability costs in
//!   airtime.
//! * [`WorkloadSpec::run_recovery`] — the same run, traced, plus the
//!   slots after the fault window until goodput returns to within 10%
//!   of its pre-fault level ([`fmbs_net::faults::recovery_time_slots`]
//!   over the engine trace).

use crate::metrics::{WorkloadSpec, WorkloadStats};
use fmbs_core::sim::scenario::Scenario;
use fmbs_net::faults::recovery_time_slots;

/// Trailing goodput window, in slots, the recovery reading averages
/// deliveries over.
pub const RECOVERY_WINDOW_SLOTS: u64 = 50;

/// Recovery threshold as a fraction of the pre-fault goodput.
pub const RECOVERY_FRAC: f64 = 0.9;

impl WorkloadSpec {
    /// Runs `scenario` and reads its goodput recovery: the slots after
    /// the fault window until goodput returns to within
    /// [`RECOVERY_FRAC`] of its pre-fault level (deliveries per slot
    /// over a trailing [`RECOVERY_WINDOW_SLOTS`]), capped at the
    /// horizon — finite by construction.
    ///
    /// The fault window is the hull of every *windowed* fault in the
    /// spec's generated schedule (outages, brownouts, bursts). The run
    /// is traced only when there is one; a spec without one has nothing
    /// to recover from and reports 0. Tracing changes no count, so the
    /// statistics equal [`WorkloadSpec::run`]'s.
    pub fn run_recovery(&self, scenario: &Scenario) -> (WorkloadStats, f64) {
        let point = self.net.at(scenario);
        let cfg = point.network_config();
        let Some(span) = cfg.faults.schedule(cfg.n_slots, cfg.n_tags).span() else {
            return (self.run(scenario), 0.0);
        };
        let (stats, trace) = self.run_traced(scenario, true);
        let slots = recovery_time_slots(
            &trace.events,
            span.start,
            span.end,
            RECOVERY_WINDOW_SLOTS,
            cfg.n_slots,
            RECOVERY_FRAC,
        );
        (stats, slots as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Workload};
    use fmbs_net::engine::ArqConfig;
    use fmbs_net::faults::FaultSpec;
    use fmbs_net::link::BerTable;
    use fmbs_net::topology::Deployment;
    use std::sync::Arc;

    fn spec(ber: f64) -> WorkloadSpec {
        WorkloadSpec::new(Deployment::city(1).link(Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![ber; 4],
        ))))
    }

    fn scenario(n_tags: u32, load: f64) -> Scenario {
        let mut s = Scenario::bench(-40.0, 14.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
            .with_traffic(ArrivalModel::Poisson, load, AppProfile::SensorBeacon);
        s.n_tags = n_tags;
        s.mac_slots = 900;
        s
    }

    #[test]
    fn outage_degrades_the_delivery_ratio() {
        let s = scenario(24, 0.02);
        let clean = spec(1e-4).run(&s).delivery_ratio();
        let mut faulted = spec(1e-4);
        faulted.net = faulted
            .net
            .faults(FaultSpec::none().with_outages(1, 300))
            .arq(ArqConfig::default());
        let hit = faulted.run(&s).delivery_ratio();
        assert!((0.0..=1.0).contains(&clean) && (0.0..=1.0).contains(&hit));
        assert!(hit <= clean, "outage {hit} vs clean {clean}");
    }

    #[test]
    fn retransmissions_cost_airtime_on_lossy_links() {
        let s = scenario(16, 0.01);
        // Without ARQ nothing is ever retransmitted.
        assert_eq!(spec(8e-2).run(&s).retx_overhead(), 0.0);
        let mut arq = spec(8e-2);
        arq.net = arq.net.arq(ArqConfig::default());
        let overhead = arq.run(&s).retx_overhead();
        assert!(overhead > 0.0 && overhead < 1.0, "overhead {overhead}");
    }

    #[test]
    fn recovery_time_is_zero_without_windowed_faults_and_finite_with() {
        let s = scenario(24, 0.03);
        assert_eq!(spec(1e-4).run_recovery(&s).1, 0.0);
        let mut faulted = spec(1e-4);
        faulted.net = faulted
            .net
            .faults(FaultSpec::none().with_outages(1, 200))
            .arq(ArqConfig::default());
        let t = faulted.run_recovery(&s).1;
        assert!(t.is_finite() && t >= 0.0, "recovery {t}");
        assert!(t <= 900.0, "capped at the horizon");
    }
}

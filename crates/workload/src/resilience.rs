//! Resilience metrics: how a deployment degrades and recovers.
//!
//! The SLO metrics of [`crate::metrics`] measure latency under nominal
//! conditions; these measure what the fault layer of
//! [`fmbs_net::faults`] costs and what the engine's link-layer ARQ
//! ([`fmbs_net::engine::ArqConfig`]) buys back. All three are ordinary
//! [`Metric`] impls over a [`WorkloadSpec`] whose
//! [`fmbs_net::topology::Deployment`] carries the fault plan and ARQ
//! parameters, so fault axes sweep with
//! the usual parallel == serial bit-identity.
//!
//! * [`DeliveryRatio`] — offered packets eventually delivered (ACKed,
//!   when ARQ is on): the resilience headline.
//! * [`RetxOverhead`] — the fraction of transmission attempts that were
//!   retransmissions: what reliability costs in airtime.
//! * [`RecoveryTimeSlots`] — slots after the fault window until goodput
//!   returns to within 10% of its pre-fault level
//!   ([`fmbs_net::faults::recovery_time_slots`] over the engine trace).

use crate::metrics::WorkloadSpec;
use fmbs_core::sim::metric::Metric;
use fmbs_core::sim::scenario::Scenario;
use fmbs_core::sim::Simulator;
use fmbs_net::faults::recovery_time_slots;

/// Fraction of raw offered packets eventually delivered. With ARQ on,
/// delivered packets are exactly the acknowledged ones; admission
/// sheds, expired sheds, abandons and still-queued packets all count
/// against the ratio. 1 when nothing was offered (no demand, no loss).
#[derive(Debug, Clone)]
pub struct DeliveryRatio(pub WorkloadSpec);

impl Metric for DeliveryRatio {
    fn name(&self) -> &'static str {
        "delivery_ratio"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let stats = self.0.run(scenario);
        debug_assert!(stats.conserved(), "queue conservation violated");
        if stats.offered_raw == 0 {
            return 1.0;
        }
        stats.net.delivered as f64 / stats.offered_raw as f64
    }
}

/// Fraction of transmission attempts that were ARQ retransmissions —
/// the airtime price of reliability. 0 without ARQ (nothing is ever
/// retransmitted) and 0 when no attempt was made.
#[derive(Debug, Clone)]
pub struct RetxOverhead(pub WorkloadSpec);

impl Metric for RetxOverhead {
    fn name(&self) -> &'static str {
        "retx_overhead"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let stats = self.0.run(scenario);
        debug_assert!(stats.conserved(), "queue conservation violated");
        if stats.net.attempts == 0 {
            return 0.0;
        }
        stats.net.retransmissions as f64 / stats.net.attempts as f64
    }
}

/// Slots after the spec's fault window until goodput returns to within
/// `frac` of its pre-fault level (deliveries per slot over a trailing
/// `window_slots`), capped at the horizon — finite by construction.
///
/// The fault window is the hull of every *windowed* fault in the spec's
/// generated schedule (outages, brownouts, bursts); a spec with no
/// windowed fault has nothing to recover from and reports 0.
#[derive(Debug, Clone)]
pub struct RecoveryTimeSlots {
    /// The deployment, fault plan and ARQ under measurement.
    pub spec: WorkloadSpec,
    /// Trailing goodput window in slots.
    pub window_slots: u64,
    /// Recovery threshold as a fraction of the pre-fault goodput.
    pub frac: f64,
}

impl RecoveryTimeSlots {
    /// The paper-facing default: recovery to within 10% of the
    /// pre-fault goodput, measured over a 50-slot trailing window.
    pub fn new(spec: WorkloadSpec) -> Self {
        RecoveryTimeSlots {
            spec,
            window_slots: 50,
            frac: 0.9,
        }
    }
}

impl Metric for RecoveryTimeSlots {
    fn name(&self) -> &'static str {
        "recovery_time_slots"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let point = self.spec.net.at(scenario);
        let cfg = point.network_config();
        let sched = cfg.faults.schedule(cfg.n_slots, cfg.n_tags);
        let Some(span) = sched.span() else {
            return 0.0;
        };
        let horizon = cfg.n_slots;
        let (stats, trace) = self.spec.run_traced(scenario, true);
        debug_assert!(stats.conserved(), "queue conservation violated");
        recovery_time_slots(
            &trace.events,
            span.start,
            span.end,
            self.window_slots,
            horizon,
            self.frac,
        ) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::fast::FastSim;
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
        let clean = DeliveryRatio(spec(1e-4)).evaluate(&FastSim, &s);
        let mut faulted = spec(1e-4);
        faulted.net = faulted
            .net
            .faults(FaultSpec::none().with_outages(1, 300))
            .arq(ArqConfig::default());
        let hit = DeliveryRatio(faulted).evaluate(&FastSim, &s);
        assert!((0.0..=1.0).contains(&clean) && (0.0..=1.0).contains(&hit));
        assert!(hit <= clean, "outage {hit} vs clean {clean}");
    }

    #[test]
    fn retransmissions_cost_airtime_on_lossy_links() {
        let s = scenario(16, 0.01);
        // Without ARQ nothing is ever retransmitted.
        assert_eq!(RetxOverhead(spec(8e-2)).evaluate(&FastSim, &s), 0.0);
        let mut arq = spec(8e-2);
        arq.net = arq.net.arq(ArqConfig::default());
        let overhead = RetxOverhead(arq).evaluate(&FastSim, &s);
        assert!(overhead > 0.0 && overhead < 1.0, "overhead {overhead}");
    }

    #[test]
    fn recovery_time_is_zero_without_windowed_faults_and_finite_with() {
        let s = scenario(24, 0.03);
        assert_eq!(
            RecoveryTimeSlots::new(spec(1e-4)).evaluate(&FastSim, &s),
            0.0
        );
        let mut faulted = spec(1e-4);
        faulted.net = faulted
            .net
            .faults(FaultSpec::none().with_outages(1, 200))
            .arq(ArqConfig::default());
        let t = RecoveryTimeSlots::new(faulted).evaluate(&FastSim, &s);
        assert!(t.is_finite() && t >= 0.0, "recovery {t}");
        assert!(t <= 900.0, "capped at the horizon");
    }
}

//! # fmbs-workload — the traffic tier
//!
//! Trace-driven workloads over the `fmbs-net` deployment engine,
//! turning the figure-reproducer into a capacity-planning tool: instead
//! of asking "how much can a saturated deployment push?" it asks "how
//! many tags per city block before the p99 deadline breaks?" — the
//! ROADMAP's millions-of-users question.
//!
//! * [`arrivals`] — seeded, deterministic arrival processes (Poisson,
//!   diurnal thinning, bursty MMPP) generating per-tag packet traces
//!   from a scenario's `arrival_model` / `offered_load` / `app_profile`
//!   axes.
//! * [`profile`] — application presets (sensor-beacon, talking-poster,
//!   fabric-telemetry) mapping a message arrival to a packet count and
//!   a deadline.
//! * [`policy`] — admission policies (admit-all, rate-cap token bucket,
//!   deadline-aware shedding) applied between generator and engine.
//! * [`metrics`] — [`metrics::WorkloadSpec::run`], one trace-driven
//!   run per sweep point, and its [`metrics::WorkloadStats`]: sojourn
//!   quantiles, deadline-miss rate and delivered/offered. A sweep
//!   evaluates `run` like any other per-point function, so the traffic
//!   axes sweep with parallel == serial bit-identity, and every series
//!   of a figure reads one run per point.
//! * [`resilience`] — fault-facing readings of the same runs: delivery
//!   ratio, retransmission overhead and goodput recovery time
//!   ([`metrics::WorkloadSpec::run_recovery`]) under the fault plans
//!   of [`fmbs_net::faults`] with the engine's link-layer ARQ.
//!
//! ```
//! use fmbs_audio::program::ProgramKind;
//! use fmbs_core::modem::Bitrate;
//! use fmbs_core::sim::fast::FastSim;
//! use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
//! use fmbs_core::sim::sweep::SweepBuilder;
//! use fmbs_net::prelude::*;
//! use fmbs_workload::prelude::*;
//! use std::sync::Arc;
//!
//! let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
//! let base = Scenario::bench(-40.0, 12.0, ProgramKind::News)
//!     .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
//!     .with_traffic(ArrivalModel::Poisson, 0.02, AppProfile::SensorBeacon);
//! let spec = WorkloadSpec::new(Deployment::city(1).link(table));
//! // One run per point; every reading comes from its stats.
//! let runs = SweepBuilder::new(base)
//!     .n_tags([8, 256])
//!     .evaluate(|s| spec.run(s));
//! let miss = runs.project(WorkloadStats::deadline_miss_rate);
//! assert_eq!(miss.points.len(), 2);
//! assert!(miss.points.iter().all(|p| (0.0..=1.0).contains(&p.value)));
//! assert!(runs.points.iter().all(|p| p.value.offered_vs_goodput() <= 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod resilience;

/// Convenience re-exports covering the main API surface.
pub mod prelude {
    pub use crate::arrivals::{diurnal_factor, TraceSpec};
    pub use crate::metrics::{domain_fairness, WorkloadSpec, WorkloadStats};
    pub use crate::policy::{Admitted, Policy};
    pub use crate::profile::{shape_of, MessageShape};
}

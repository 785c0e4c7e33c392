//! # fmbs-net — the network tier
//!
//! A deterministic discrete-event simulator for whole FM-backscatter
//! *deployments*: many tags, one receiver per cell, real channel plans
//! over the city's band occupancy, contention, and harvesting-driven
//! duty cycling. It sits above the physics tiers of `fmbs-core` the way
//! §8 of the paper sits above its §3–§6: the per-link physics is
//! pre-sampled into a BER table, and the network layer then scales to
//! tens of thousands of tags in seconds.
//!
//! * [`link`] — the BER-calibrated link abstraction: [`link::BerTable`]
//!   samples single-link BER from a physics tier over a (power,
//!   distance, rate) grid and interpolates per packet; a calibration
//!   test pins it against direct simulation on held-out points.
//! * [`deploy`] — per-tag sites: frequency-division channel plans via
//!   [`fmbs_core::mac::assign_f_back`] and per-tag harvest budgets, for
//!   the tags [`topology::Deployment`] places in its receiver cells.
//! * [`engine`] — the event engine: a calendar queue of per-slot FIFO
//!   buckets (slot order, then push order) drives per-tag state
//!   machines (slotted Aloha with binary-exponential backoff, energy
//!   accrual, link-table packet trials). Same-seed runs are
//!   trace-identical. Tags either run saturated (full-buffer capacity
//!   figures) or serve per-tag FIFO arrival queues
//!   ([`engine::Traffic::Trace`], fed by the `fmbs-workload` crate)
//!   with sojourn and deadline accounting.
//! * [`faults`] — deterministic fault injection: seeded schedules of
//!   station outages, harvest brownouts, interference bursts and tag
//!   resets ([`faults::FaultSpec`]); paired with the engine's
//!   link-layer ARQ ([`engine::ArqConfig`]) for resilience studies.
//!   A zero-count spec is bit-identical to no spec at all.
//! * [`corpus`] — the city-scenario corpus: data-file deployments
//!   (band occupancy, stations, receiver grids, harvest, placement)
//!   loaded and validated into [`topology::Deployment`]s, the input to
//!   `repro --campaign`.
//!
//! A sweep point runs the one-cell deployment [`topology::Deployment::at`]
//! places there, once, and every reading — goodput, collision rate,
//! Jain fairness, latency percentiles — comes from its
//! [`engine::NetStats`]. [`fmbs_core::sim::sweep::SweepBuilder::evaluate`]
//! makes `n_tags` and `mac_slot_counts` sweepable axes with the
//! engine's usual parallel == serial bit-identity.
//!
//! ```
//! use fmbs_audio::program::ProgramKind;
//! use fmbs_core::modem::Bitrate;
//! use fmbs_core::sim::fast::FastSim;
//! use fmbs_core::sim::scenario::{Scenario, Workload};
//! use fmbs_core::sim::sweep::SweepBuilder;
//! use fmbs_net::prelude::*;
//! use std::sync::Arc;
//!
//! // Calibrate the link abstraction from the fast physics tier once...
//! let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
//! // ...then sweep a deployment axis through the ordinary engine: each
//! // grid point runs the one-cell deployment `Deployment::at` places.
//! let base = Scenario::bench(-40.0, 12.0, ProgramKind::News)
//!     .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
//! let deployment = Deployment::city(1).link(table);
//! let runs = SweepBuilder::new(base)
//!     .n_tags([8, 64])
//!     .evaluate(|s| deployment.at(s).run_point().stats);
//! assert_eq!(runs.points.len(), 2);
//! assert!(runs.points.iter().all(|p| p.value.goodput_bps() > 0.0));
//! let collisions = runs.project(NetStats::collision_rate);
//! assert!(collisions.points.iter().all(|p| (0.0..=1.0).contains(&p.value)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod deploy;
pub mod engine;
pub mod faults;
pub mod link;
#[cfg(test)]
mod oracle;
pub mod topology;

/// Convenience re-exports covering the main API surface.
pub mod prelude {
    pub use crate::corpus::{load_corpus, CityScenario, CorpusError, ReceiverGrid};
    pub use crate::deploy::{city_occupancy, HarvestProfile, TagSite};
    pub use crate::engine::{
        ArqConfig, Arrival, ArrivalTrace, EventQueue, EventTrace, NetRun, NetStats, NetworkConfig,
        Outcome, TraceEvent, TraceKind, Traffic,
    };
    pub use crate::faults::{recovery_time_slots, FaultKind, FaultSchedule, FaultSpec, Window};
    pub use crate::link::{BerTable, BerTableSpec, TableDelta, TableDeltaCell};
    pub use crate::topology::{
        capture_winner, CityPlan, CitySim, CollisionDomain, Deployment, DeploymentError, MetroRun,
        Placement, Receiver, Station, MAX_RECEIVERS,
    };
}

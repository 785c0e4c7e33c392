//! # fmbs-survey — FM spectrum survey models
//!
//! §3.1 of the paper surveys Seattle's FM band from a car-mounted SDR and
//! public licensing databases; those measurements become Figs. 2, 4 and 5.
//! This crate regenerates each survey from first-principles models:
//!
//! * [`stations`] — per-city station tables for the five cities of
//!   Fig. 4a (licensed vs detectable counts) with realistic
//!   adjacent-channel spacing.
//! * [`occupancy`] — the minimum frequency shift from each station to a
//!   free channel (Fig. 4b) and free-channel statistics.
//! * [`drive`] — a city drive survey: tower layout + log-distance
//!   propagation + shadowing → per-grid-cell strongest-station power
//!   (Fig. 2a).
//! * [`temporal`] — 24 h fixed-location power stability (Fig. 2b).
//! * [`stereo_util`] — per-genre stereo-band utilisation measured from
//!   synthesised multiplex signals (Fig. 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod occupancy;
pub mod stations;
pub mod stereo_util;
pub mod temporal;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::drive::DriveSurvey;
    pub use crate::occupancy::min_shift_cdf;
    pub use crate::stations::{City, CityStations};
    pub use crate::stereo_util::stereo_utilisation_cdfs;
    pub use crate::temporal::TemporalSurvey;
}

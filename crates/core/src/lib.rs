//! # fmbs-core — the FM backscatter system
//!
//! This crate implements the contribution of *"FM Backscatter: Enabling
//! Connected Cities and Smart Fabrics"* (NSDI 2017): a backscatter tag
//! whose switch is driven by a square-wave FM subcarrier (Eq. 2), so that
//! the RF *multiplication* performed by backscatter becomes an *addition*
//! on the audio emitted by any unmodified FM receiver (§3.3), plus the
//! three system capabilities built on that primitive and the low-power
//! data layer:
//!
//! * [`tag`] — the backscatter device: baseband synthesis (audio, data,
//!   pilot injection), the square-wave DCO, and the switch model.
//! * [`modem`] — §3.4's data layer: 2-FSK at 100 bps and FDM-4FSK at
//!   1.6 / 3.2 kbps, non-coherent Goertzel detection, frame + CRC-16
//!   packetisation, and maximal-ratio combining.
//! * [`overlay`] — overlay backscatter: audio/data added on top of the
//!   ambient programme.
//! * [`stereo_bs`] — stereo backscatter: payload in the 23–53 kHz L−R
//!   band, with pilot injection to flip mono stations into stereo mode.
//! * [`coop`] — cooperative backscatter: two phones (one on the host
//!   channel, one on the backscatter channel) forming a 2×1 MIMO
//!   canceller with 10× resampling, cross-correlation sync and 13 kHz
//!   pilot amplitude calibration.
//! * [`sim`] — the simulation stack: an honest RF-rate physical simulator
//!   (validates the multiplication→addition identity) and a calibrated
//!   audio-domain fast simulator, both behind the [`sim::Simulator`]
//!   trait; composable [`sim::metric`] measurements (BER, MRC BER,
//!   PESQ-like, tone SNR, pilot detection); and the declarative
//!   [`sim::sweep::SweepBuilder`] engine that expands typed axes
//!   (power × distance × rate × genre × motion × device, plus `repeats`
//!   seed fan-out) into a scenario grid and executes it on parallel
//!   workers with deterministic per-point seeding:
//!
//! ```
//! use fmbs_core::prelude::*;
//! use fmbs_audio::program::ProgramKind;
//!
//! let base = Scenario::bench(-30.0, 4.0, ProgramKind::News)
//!     .with_workload(Workload::data(Bitrate::Bps100, 60));
//! let results = SweepBuilder::new(base)
//!     .powers_dbm([-20.0, -40.0])
//!     .distances_ft([2.0, 6.0])
//!     .repeats(2)
//!     .run(&FastSim, &Ber::default());
//! let per_power = results.series_by(
//!     |v| v.scenario.ambient_at_tag.0,
//!     |v| v.scenario.distance_ft,
//! );
//! assert_eq!(per_power.len(), 2);
//! ```
//! * [`power`] — the §4 IC power model (1.0 µW baseband + 9.94 µW DCO +
//!   0.13 µW switch = 11.07 µW) and the §2 battery-life comparisons.
//! * [`mac`] — §8's multi-device sharing: f_back channelisation (with
//!   least-loaded sharing once tags outnumber free channels) and
//!   slotted-Aloha simulation. The `fmbs-net` crate builds whole
//!   deployments on these primitives.
//! * [`harvest`] — §8's energy-harvesting feasibility: RF rectification,
//!   solar cells and duty cycling against the 11.07 µW budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coop;
pub mod harvest;
pub mod mac;
pub mod modem;
pub mod overlay;
pub mod power;
pub mod sim;
pub mod stereo_bs;
pub mod tag;

/// Convenience re-exports covering the main API surface.
pub mod prelude {
    pub use crate::coop::{CoopSession, CooperativeDecoder};
    pub use crate::harvest::{rf_harvest_uw, sustainability, SolarCell, Sustainability};
    pub use crate::mac::{assign_f_back, SlottedAloha};
    pub use crate::modem::decoder::DataDecoder;
    pub use crate::modem::encoder::DataEncoder;
    pub use crate::modem::Bitrate;
    pub use crate::overlay::{OverlayAudio, OverlayData};
    pub use crate::power::{IcPowerModel, PowerBreakdown};
    pub use crate::sim::fast::{FastSim, FAST_AUDIO_RATE};
    pub use crate::sim::metric::{
        AudioSnr, Ber, BerMrc, CoopPesq, Metric, Pesq, PilotDetect, ToneSnr,
    };
    pub use crate::sim::physical::{PhysicalSim, PhysicalSimConfig};
    pub use crate::sim::scenario::{ReceiverKind, Scenario, TagKind, Workload};
    pub use crate::sim::sweep::{SweepBuilder, SweepResults, SweepValue};
    pub use crate::sim::{SimOutput, Simulator, Tier};
    pub use crate::stereo_bs::{StereoBackscatter, StereoHost, StereoOutcome};
    pub use crate::tag::{Tag, TagConfig};
}

/// The paper's default backscatter frequency shift: 600 kHz (three FM
/// channels), moving 91.5 MHz → 92.1 MHz in the evaluation.
pub const DEFAULT_F_BACK_HZ: f64 = 600_000.0;

/// The 13 kHz calibration pilot used by cooperative backscatter (§3.3:
/// "we transmit a low power pilot tone at 13 kHz as a preamble").
pub const COOP_PILOT_HZ: f64 = 13_000.0;

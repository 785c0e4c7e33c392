//! # fmbs-channel — RF channel and propagation models
//!
//! The paper's evaluation sweeps two physical knobs: the ambient FM power
//! arriving at the backscatter device (−20 … −60 dBm) and the distance
//! between the device and the receiver (feet). This crate turns those knobs
//! into signal scaling and noise for the simulators in `fmbs-core`:
//!
//! * [`units`] — `Dbm`/`Db` newtypes so link budgets cannot silently mix
//!   dB and linear quantities.
//! * [`pathloss`] — Friis free-space and log-distance models with
//!   log-normal shadowing (the drive-survey substrate for Fig. 2).
//! * [`noise`] — thermal noise floors, seeded AWGN and the block normal
//!   sampler (`fill_gaussian`) every hot noise process draws from.
//! * [`fading`] — a Jakes-style sum-of-sinusoids fader for body motion
//!   (standing / walking / running — Fig. 17b).
//! * [`antenna`] — gains and efficiencies of the paper's antennas: poster
//!   dipole and bowtie, conductive-thread meander dipole on a shirt, car
//!   whip, headphone-wire antenna.
//! * [`backscatter_link`] — the two-hop backscatter budget: ambient power
//!   at the tag → modulation/conversion loss → tag-to-receiver path →
//!   receiver SNR.
//! * [`car`] — the §5.4 car chain: better antenna, but audio re-recorded
//!   from the cabin speakers with engine noise.
//! * [`rf`] — helpers that apply gains/noise to IQ sample streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod backscatter_link;
pub mod car;
pub mod fading;
pub mod noise;
pub mod pathloss;
pub mod rf;
pub mod units;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::antenna::Antenna;
    pub use crate::backscatter_link::{BackscatterLink, LinkBudget};
    pub use crate::fading::{JakesFader, MotionProfile};
    pub use crate::noise::AwgnSource;
    pub use crate::pathloss::{free_space_path_loss_db, LogDistanceModel};
    pub use crate::units::{Db, Dbm};
}

/// Speed of light (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Feet → metres (the paper reports distances in feet).
pub const FEET_TO_METERS: f64 = 0.3048;

/// Converts feet to metres.
pub fn feet_to_m(feet: f64) -> f64 {
    feet * FEET_TO_METERS
}

/// Wavelength in metres at frequency `hz`.
pub fn wavelength_m(hz: f64) -> f64 {
    SPEED_OF_LIGHT / hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_wavelength_is_about_three_meters() {
        let lambda = wavelength_m(100e6);
        assert!((lambda - 3.0).abs() < 0.01);
    }

    #[test]
    fn feet_conversion() {
        assert!((feet_to_m(10.0) - 3.048).abs() < 1e-12);
    }
}

//! Path-loss and shadowing models.
//!
//! Two models cover the paper's geometry:
//!
//! * [`free_space_path_loss_db`] (Friis) — the short tag→receiver hop
//!   (5–60 ft, mostly line of sight).
//! * [`LogDistanceModel`] — the city-scale tower→street propagation behind
//!   Fig. 2a, with a configurable exponent and log-normal shadowing to
//!   reproduce the −10 … −55 dBm spread the survey measured.

use crate::units::{Db, Dbm};
use crate::{wavelength_m, SPEED_OF_LIGHT};
use rand::Rng;

/// Friis free-space path loss in dB at distance `d_m` metres and frequency
/// `f_hz`. Clamped below half a wavelength to avoid the near-field
/// singularity (the paper's closest geometry, ~4 ft ≈ 0.4 λ, sits right at
/// this boundary).
pub fn free_space_path_loss_db(d_m: f64, f_hz: f64) -> Db {
    let lambda = wavelength_m(f_hz);
    let d_eff = d_m.max(lambda / 2.0);
    Db(20.0 * (4.0 * std::f64::consts::PI * d_eff / lambda).log10())
}

/// Friis received power: `P_tx + G_tx + G_rx − FSPL`.
pub fn friis_received_power(p_tx: Dbm, g_tx_db: Db, g_rx_db: Db, d_m: f64, f_hz: f64) -> Dbm {
    p_tx + g_tx_db + g_rx_db - free_space_path_loss_db(d_m, f_hz)
}

/// Log-distance path-loss model with optional log-normal shadowing:
/// `PL(d) = PL(d0) + 10·n·log10(d/d0) + X_σ`.
#[derive(Debug, Clone)]
pub struct LogDistanceModel {
    /// Reference distance in metres.
    pub d0_m: f64,
    /// Path-loss exponent (2 = free space; 2.7–4 = urban).
    pub exponent: f64,
    /// Shadowing standard deviation in dB (0 = deterministic).
    pub shadowing_sigma_db: f64,
    /// Carrier frequency in Hz (sets the reference loss).
    pub f_hz: f64,
}

impl LogDistanceModel {
    /// An urban macro-cell profile for ~100 MHz, matching the spread of the
    /// paper's Seattle survey.
    pub fn urban_fm() -> Self {
        LogDistanceModel {
            d0_m: 100.0,
            exponent: 3.0,
            shadowing_sigma_db: 6.0,
            f_hz: 98e6,
        }
    }

    /// Deterministic path loss at `d_m` (no shadowing).
    pub fn path_loss_db(&self, d_m: f64) -> Db {
        self.path_loss_from_db(self.reference_loss_db(), d_m)
    }

    /// The loss at the reference distance, `PL(d0)` (free space).
    pub fn reference_loss_db(&self) -> Db {
        free_space_path_loss_db(self.d0_m, self.f_hz)
    }

    /// [`LogDistanceModel::path_loss_db`] over a reference loss `pl0`
    /// already computed by [`LogDistanceModel::reference_loss_db`], for
    /// callers evaluating many distances: the same bits, without
    /// recomputing `PL(d0)` per call.
    pub fn path_loss_from_db(&self, pl0: Db, d_m: f64) -> Db {
        let d = d_m.max(self.d0_m);
        Db(pl0.0 + 10.0 * self.exponent * (d / self.d0_m).log10())
    }

    /// Path loss with a shadowing draw from `rng`.
    pub fn path_loss_shadowed_db<R: Rng>(&self, d_m: f64, rng: &mut R) -> Db {
        let x = gaussian(rng) * self.shadowing_sigma_db;
        Db(self.path_loss_db(d_m).0 + x)
    }

    /// Received power with shadowing.
    pub fn received_power<R: Rng>(&self, p_tx: Dbm, d_m: f64, rng: &mut R) -> Dbm {
        p_tx - self.path_loss_shadowed_db(d_m, rng)
    }
}

/// One standard-normal draw via Box–Muller (rand's distribution crates are
/// outside the offline allow-list).
///
/// The hot noise processes draw through [`crate::noise::fill_gaussian`]
/// instead, five to seven times cheaper per draw. This one stays for the
/// cold draws: shadowing here, and the survey's cell shadowing and
/// temporal fading (fig. 2a/2b, under 1 ms). Their goldens and the
/// survey's median-power test are calibrated against this stream, and
/// that test sits 0.54 dB inside its window at its seed, so moving these
/// draws belongs to a re-bless of the survey calibration itself.
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Doppler frequency in Hz for a relative speed `v_mps` at `f_hz`.
pub fn doppler_hz(v_mps: f64, f_hz: f64) -> f64 {
    v_mps * f_hz / SPEED_OF_LIGHT
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fspl_at_one_wavelength_is_about_22db() {
        // FSPL(λ) = 20·log10(4π) ≈ 21.98 dB.
        let lambda = wavelength_m(100e6);
        let pl = free_space_path_loss_db(lambda, 100e6);
        assert!((pl.0 - 21.98).abs() < 0.05, "{pl}");
    }

    #[test]
    fn fspl_grows_6db_per_distance_doubling() {
        let pl1 = free_space_path_loss_db(10.0, 100e6);
        let pl2 = free_space_path_loss_db(20.0, 100e6);
        assert!(((pl2 - pl1).0 - 6.02).abs() < 0.01);
    }

    #[test]
    fn near_field_clamp_prevents_gain() {
        let pl = free_space_path_loss_db(0.01, 100e6);
        assert!(pl.0 > 15.0, "near-field loss {pl}");
    }

    #[test]
    fn friis_symmetry_in_gains() {
        let a = friis_received_power(Dbm(0.0), Db(2.0), Db(3.0), 100.0, 100e6);
        let b = friis_received_power(Dbm(0.0), Db(3.0), Db(2.0), 100.0, 100e6);
        assert!((a.0 - b.0).abs() < 1e-12);
    }

    #[test]
    fn log_distance_exceeds_free_space_beyond_reference() {
        let m = LogDistanceModel {
            d0_m: 100.0,
            exponent: 3.0,
            shadowing_sigma_db: 0.0,
            f_hz: 98e6,
        };
        let pl_ld = m.path_loss_db(5_000.0);
        let pl_fs = free_space_path_loss_db(5_000.0, 98e6);
        assert!(pl_ld.0 > pl_fs.0, "{pl_ld} vs {pl_fs}");
    }

    #[test]
    fn shadowing_spreads_received_power() {
        let m = LogDistanceModel::urban_fm();
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..2_000)
            .map(|_| m.received_power(Dbm(50.0), 3_000.0, &mut rng).0)
            .collect();
        let sd = fmbs_dsp::stats::std_dev(&samples);
        assert!((sd - 6.0).abs() < 0.5, "shadowing σ {sd}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        assert!(fmbs_dsp::stats::mean(&xs).abs() < 0.02);
        assert!((fmbs_dsp::stats::std_dev(&xs) - 1.0).abs() < 0.02);
    }

    #[test]
    fn doppler_for_running_speed() {
        // 2.2 m/s (the paper's running speed) at 100 MHz ≈ 0.73 Hz.
        let fd = doppler_hz(2.2, 100e6);
        assert!((fd - 0.7338).abs() < 0.01, "{fd}");
    }
}

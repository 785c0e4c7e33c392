//! Numerically-controlled oscillators.
//!
//! Two oscillators matter to the system:
//!
//! * [`Nco`] — a sine/cosine phase accumulator used by FM modulators,
//!   receiver mixers and pilot regeneration.
//! * [`SquareFmOscillator`] — the backscatter tag's digitally-controlled
//!   oscillator. The paper approximates the cosine subcarrier of Eq. 2 with
//!   a ±1 square wave, because a backscatter switch has exactly two states
//!   (reflect / absorb). The square wave's fundamental carries
//!   `4/π ≈ 2.1 dB` more amplitude than a unit cosine but splits energy into
//!   odd harmonics; the fundamental-relative conversion loss and harmonic
//!   structure follow directly from this model.

use crate::complex::Complex;
use crate::TAU;

/// A sine/cosine numerically-controlled oscillator with a phase
/// accumulator. Frequency can be retuned between samples without phase
/// discontinuity.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    phase_inc: f64,
    sample_rate: f64,
}

impl Nco {
    /// Creates an NCO at `freq` Hz for `sample_rate` Hz.
    pub fn new(sample_rate: f64, freq: f64) -> Self {
        Nco {
            phase: 0.0,
            phase_inc: TAU * freq / sample_rate,
            sample_rate,
        }
    }

    /// Retunes the oscillator (takes effect on the next sample).
    pub fn set_frequency(&mut self, freq: f64) {
        self.phase_inc = TAU * freq / self.sample_rate;
    }

    /// Current phase in radians, wrapped to `[0, 2π)`.
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Explicitly sets the phase (used by PLL-driven regeneration).
    pub fn set_phase(&mut self, phase: f64) {
        self.phase = phase.rem_euclid(TAU);
    }

    /// Advances one sample and returns `e^{iφ}` (cos + i·sin).
    #[inline]
    pub fn next_iq(&mut self) -> Complex {
        let out = Complex::from_angle(self.phase);
        self.advance();
        out
    }

    /// Advances one sample and returns `cos(φ)`.
    #[inline]
    pub fn next_cos(&mut self) -> f64 {
        let out = self.phase.cos();
        self.advance();
        out
    }

    /// Advances one sample and returns `sin(φ)`.
    #[inline]
    pub fn next_sin(&mut self) -> f64 {
        let out = self.phase.sin();
        self.advance();
        out
    }

    /// Advances with an extra per-sample frequency offset `df` Hz — this is
    /// how FM modulation is produced: `df` is `Δf · m(t)`.
    #[inline]
    pub fn next_iq_fm(&mut self, df: f64) -> Complex {
        let out = Complex::from_angle(self.phase);
        self.phase += self.phase_inc + TAU * df / self.sample_rate;
        self.wrap();
        out
    }

    /// Advances one sample without evaluating the oscillator.
    #[inline]
    pub fn advance(&mut self) {
        self.phase += self.phase_inc;
        self.wrap();
    }

    #[inline]
    fn wrap(&mut self) {
        if self.phase >= TAU {
            self.phase -= TAU;
        } else if self.phase < 0.0 {
            self.phase += TAU;
        }
    }
}

/// The tag's square-wave FM subcarrier oscillator (Eq. 2 of the paper,
/// square-wave approximated).
///
/// Each output sample is `sign(cos φ)` where
/// `φ(t) = 2π·f_back·t + 2π·Δf·∫ m(τ) dτ`. Driving the backscatter switch
/// with this waveform multiplies the ambient FM signal by ±1, shifting a
/// copy of it to `fc ± f_back` (plus odd harmonics at `±3·f_back`, …).
#[derive(Debug, Clone)]
pub struct SquareFmOscillator {
    phase: f64,
    f_back: f64,
    deviation: f64,
    sample_rate: f64,
}

impl SquareFmOscillator {
    /// Creates the oscillator.
    ///
    /// * `sample_rate` — simulation rate (must be ≥ 2·(f_back + deviation)
    ///   to honour Nyquist for the fundamental; harmonics alias, exactly as
    ///   they would fold in a real sampled model).
    /// * `f_back` — subcarrier centre frequency, e.g. 600 kHz in the paper.
    /// * `deviation` — peak FM deviation Δf, 75 kHz in the paper.
    pub fn new(sample_rate: f64, f_back: f64, deviation: f64) -> Self {
        assert!(
            sample_rate >= 2.0 * (f_back + deviation),
            "sample rate {sample_rate} too low for f_back {f_back} + deviation {deviation}"
        );
        SquareFmOscillator {
            phase: 0.0,
            f_back,
            deviation,
            sample_rate,
        }
    }

    /// The subcarrier centre frequency in Hz.
    pub fn f_back(&self) -> f64 {
        self.f_back
    }

    /// Peak deviation in Hz.
    pub fn deviation(&self) -> f64 {
        self.deviation
    }

    /// Advances one sample with modulating baseband value `m` (normalised
    /// to [-1, 1]) and returns the switch state, +1.0 or −1.0.
    #[inline]
    pub fn next_switch(&mut self, m: f64) -> f64 {
        let out = if self.phase.cos() >= 0.0 { 1.0 } else { -1.0 };
        let inst_freq = self.f_back + self.deviation * m;
        self.phase += TAU * inst_freq / self.sample_rate;
        if self.phase >= TAU {
            self.phase -= TAU;
        }
        out
    }

    /// Advances one sample returning the *ideal cosine* subcarrier instead
    /// of the square wave. Used to quantify the square-wave approximation
    /// (the `ablation` figure compares the two).
    #[inline]
    pub fn next_cosine(&mut self, m: f64) -> f64 {
        let out = self.phase.cos();
        let inst_freq = self.f_back + self.deviation * m;
        self.phase += TAU * inst_freq / self.sample_rate;
        if self.phase >= TAU {
            self.phase -= TAU;
        }
        out
    }

    /// Retards the oscillator phase by a quarter cycle, turning `sign(cos φ)` into `sign(sin φ)` — the quadrature
    /// arm of a single-sideband (four-state) backscatter switch.
    pub fn quadrature_shift(&mut self) {
        self.phase -= std::f64::consts::FRAC_PI_2;
        if self.phase < 0.0 {
            self.phase += TAU;
        }
    }

    /// Amplitude of the square wave's fundamental relative to a unit
    /// cosine: `4/π`.
    pub const FUNDAMENTAL_GAIN: f64 = 4.0 / std::f64::consts::PI;

    /// Conversion loss of single-sideband backscatter through the
    /// fundamental in dB: the ±1 square splits into two sidebands
    /// (±f_back), each carrying `(4/π · 1/2)²` ≈ −3.9 dB of the incident
    /// power.
    pub fn ssb_conversion_loss_db() -> f64 {
        let amp = Self::FUNDAMENTAL_GAIN / 2.0;
        -20.0 * amp.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nco_produces_requested_frequency() {
        let fs = 48_000.0;
        let f = 1_000.0;
        let mut nco = Nco::new(fs, f);
        let n = 48_000;
        let sig: Vec<f64> = (0..n).map(|_| nco.next_cos()).collect();
        // Count zero crossings: 2 per cycle.
        let crossings = sig.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0;
        assert!((measured - f).abs() < 2.0, "measured {measured}");
    }

    #[test]
    fn nco_iq_is_unit_magnitude() {
        let mut nco = Nco::new(10_000.0, 123.0);
        for _ in 0..1000 {
            let z = nco.next_iq();
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nco_phase_stays_wrapped() {
        let mut nco = Nco::new(1_000.0, 999.0);
        for _ in 0..100_000 {
            nco.next_cos();
            assert!(nco.phase() >= 0.0 && nco.phase() < TAU);
        }
    }

    #[test]
    fn fm_modulated_nco_shifts_frequency() {
        let fs = 1_000_000.0;
        let mut nco = Nco::new(fs, 100_000.0);
        // Constant m = +1 with df = 50 kHz => instantaneous 150 kHz.
        let n = 100_000;
        let sig: Vec<f64> = (0..n).map(|_| nco.next_iq_fm(50_000.0).re).collect();
        let crossings = sig.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * fs / n as f64;
        assert!((measured - 150_000.0).abs() < 100.0, "measured {measured}");
    }

    #[test]
    fn square_oscillator_outputs_only_plus_minus_one() {
        let mut osc = SquareFmOscillator::new(2_400_000.0, 600_000.0, 75_000.0);
        for i in 0..10_000 {
            let s = osc.next_switch((i as f64 * 0.001).sin());
            assert!(s == 1.0 || s == -1.0);
        }
    }

    #[test]
    fn square_fundamental_frequency_is_f_back() {
        let fs = 2_400_000.0;
        let f_back = 600_000.0;
        let mut osc = SquareFmOscillator::new(fs, f_back, 75_000.0);
        let n = 240_000;
        let sig: Vec<f64> = (0..n).map(|_| osc.next_switch(0.0)).collect();
        let crossings = sig.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * fs / n as f64;
        assert!(
            (measured - f_back).abs() < 1_000.0,
            "measured {measured} Hz"
        );
    }

    #[test]
    fn square_deviation_moves_frequency() {
        let fs = 2_400_000.0;
        let mut osc = SquareFmOscillator::new(fs, 600_000.0, 75_000.0);
        let n = 240_000;
        // m = +1 constantly => 675 kHz.
        let sig: Vec<f64> = (0..n).map(|_| osc.next_switch(1.0)).collect();
        let crossings = sig.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * fs / n as f64;
        assert!(
            (measured - 675_000.0).abs() < 1_000.0,
            "measured {measured}"
        );
    }

    #[test]
    fn conversion_loss_is_about_3_9_db() {
        let loss = SquareFmOscillator::ssb_conversion_loss_db();
        assert!((loss - 3.92).abs() < 0.05, "loss {loss}");
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn nyquist_violation_panics() {
        let _ = SquareFmOscillator::new(1_000_000.0, 600_000.0, 75_000.0);
    }

    #[test]
    fn cosine_mode_tracks_square_sign() {
        let mut a = SquareFmOscillator::new(2_400_000.0, 600_000.0, 75_000.0);
        let mut b = a.clone();
        for i in 0..5_000 {
            let m = (i as f64 * 0.01).sin();
            let sq = a.next_switch(m);
            let cs = b.next_cosine(m);
            if cs.abs() > 1e-9 {
                assert_eq!(sq, cs.signum());
            }
        }
    }
}

//! The car listening chain of §5.4.
//!
//! "Because the radio built into the car does not provide a direct audio
//! output, we use a microphone to record the sound played by the car's
//! speakers … with the car's engines running and the windows closed."
//! Two effects follow, both visible in Fig. 14:
//!
//! * the acoustic chain band-limits the audio (speaker + cabin + phone
//!   microphone ≈ 150 Hz – 10 kHz) and adds engine/cabin noise, which caps
//!   the PESQ ceiling around 2.5 even at high SNR;
//! * the car's antenna/ground-plane advantage extends RF range to 60 ft
//!   (modelled in [`crate::backscatter_link`], not here).

use crate::noise::fill_gaussian;
use fmbs_dsp::fir::FirDesign;
use fmbs_dsp::iir::Biquad;
use fmbs_dsp::windows::Window;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the cabin acoustic re-recording chain.
#[derive(Debug, Clone, Copy)]
pub struct CabinChain {
    /// Audio sample rate.
    pub sample_rate: f64,
    /// Lower band edge of the speaker→microphone path (Hz).
    pub low_cut_hz: f64,
    /// Upper band edge (Hz).
    pub high_cut_hz: f64,
    /// Engine/road noise RMS relative to full-scale audio.
    pub engine_noise_rms: f64,
    /// Early-reflection level (one cabin bounce) relative to direct sound.
    pub reflection_level: f64,
    /// Reflection delay in milliseconds.
    pub reflection_delay_ms: f64,
}

impl CabinChain {
    /// A 2010-compact-SUV-like default (engine running, windows closed).
    pub fn default_at(sample_rate: f64) -> Self {
        CabinChain {
            sample_rate,
            low_cut_hz: 150.0,
            high_cut_hz: 10_000.0,
            engine_noise_rms: 0.02,
            reflection_level: 0.25,
            reflection_delay_ms: 8.0,
        }
    }

    /// Applies the chain to decoded radio audio, returning what the
    /// microphone records.
    pub fn apply(&self, audio: &[f64], seed: u64) -> Vec<f64> {
        // Speaker/microphone band-pass.
        let mut hp = Biquad::highpass(self.sample_rate, self.low_cut_hz, 0.707);
        let mut lp = if self.high_cut_hz < self.sample_rate / 2.0 {
            Some(
                FirDesign {
                    taps: 129,
                    window: Window::Hamming,
                }
                .lowpass(self.sample_rate, self.high_cut_hz),
            )
        } else {
            None
        };
        let mut direct = hp.process(audio);
        if let Some(f) = lp.as_mut() {
            direct = f.filter_aligned(&direct);
        }

        // One early cabin reflection.
        let delay = (self.reflection_delay_ms / 1_000.0 * self.sample_rate) as usize;
        let mut out = vec![0.0; direct.len()];
        for i in 0..direct.len() {
            let refl = if i >= delay {
                direct[i - delay] * self.reflection_level
            } else {
                0.0
            };
            out[i] = direct[i] + refl;
        }

        // Engine noise: low-frequency-weighted Gaussian noise. The white
        // block is drawn into `direct`'s buffer, which the reflection
        // pass has finished with.
        let mut white = direct;
        {
            fmbs_obs::span!(fmbs_obs::stages::NOISE_DRAWS);
            fill_gaussian(&mut StdRng::seed_from_u64(seed), &mut white);
        }
        let mut rumble_filter = Biquad::lowpass(self.sample_rate, 400.0, 0.707);
        for (v, &w) in out.iter_mut().zip(&white) {
            // Mix of low-passed rumble and a little broadband hiss.
            let rumble = rumble_filter.push(w);
            *v += self.engine_noise_rms * (3.0 * rumble + 0.3 * w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::goertzel::goertzel_power;
    use fmbs_dsp::stats::rms;
    use fmbs_dsp::TAU;

    const FS: f64 = 48_000.0;

    fn tone(f: f64, secs: f64) -> Vec<f64> {
        (0..(FS * secs) as usize)
            .map(|i| 0.5 * (TAU * f * i as f64 / FS).sin())
            .collect()
    }

    #[test]
    fn midband_tone_passes() {
        let chain = CabinChain::default_at(FS);
        let out = chain.apply(&tone(1_000.0, 0.5), 1);
        let p = goertzel_power(&out[4_000..], FS, 1_000.0);
        assert!(p > 0.02, "midband power {p}");
    }

    #[test]
    fn high_tone_is_cut() {
        let chain = CabinChain::default_at(FS);
        let out_mid = chain.apply(&tone(1_000.0, 0.5), 1);
        let out_hi = chain.apply(&tone(13_000.0, 0.5), 1);
        let p_mid = goertzel_power(&out_mid[4_000..], FS, 1_000.0);
        let p_hi = goertzel_power(&out_hi[4_000..], FS, 13_000.0);
        assert!(p_mid > 30.0 * p_hi, "mid {p_mid} vs hi {p_hi}");
    }

    #[test]
    fn low_rumble_is_cut() {
        let chain = CabinChain::default_at(FS);
        let out = chain.apply(&tone(60.0, 0.5), 1);
        let p = goertzel_power(&out[4_000..], FS, 60.0);
        assert!(p < 0.02, "60 Hz leakage {p}");
    }

    #[test]
    fn engine_noise_floor_exists_in_silence() {
        let chain = CabinChain::default_at(FS);
        let out = chain.apply(&vec![0.0; 48_000], 7);
        let level = rms(&out[4_000..]);
        assert!(level > 0.01 && level < 0.2, "noise floor {level}");
    }

    #[test]
    fn deterministic_per_seed() {
        let chain = CabinChain::default_at(FS);
        let a = chain.apply(&tone(500.0, 0.1), 42);
        let b = chain.apply(&tone(500.0, 0.1), 42);
        assert_eq!(a, b);
    }
}

//! Synthetic speech.
//!
//! A formant synthesiser that produces speech-*like* audio — the right
//! spectral envelope (energy concentrated below ~4 kHz), syllabic
//! amplitude modulation around 4 Hz, alternating voiced/unvoiced segments
//! and inter-phrase pauses — without any recorded material. Used for the
//! news programme genre and as the "arbitrary audio" payload the tag
//! backscatters in the PESQ experiments.

use fmbs_dsp::iir::Biquad;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the speech synthesiser.
#[derive(Debug, Clone, Copy)]
pub struct SpeechConfig {
    /// Sample rate in Hz.
    pub sample_rate: f64,
    /// Fundamental (pitch) frequency in Hz.
    pub pitch_hz: f64,
    /// Syllable rate in Hz (typical conversational speech ≈ 4).
    pub syllable_rate_hz: f64,
    /// Fraction of time paused between phrases (news reading ≈ 0.15).
    pub pause_fraction: f64,
}

impl SpeechConfig {
    /// A news-announcer-like default.
    pub fn announcer(sample_rate: f64) -> Self {
        SpeechConfig {
            sample_rate,
            pitch_hz: 120.0,
            syllable_rate_hz: 4.0,
            pause_fraction: 0.15,
        }
    }
}

/// Generates `n` samples of speech-like audio, normalised to ≈ ±1 peak.
///
/// Deterministic for a given `(config, seed)` pair.
pub fn generate_speech(cfg: SpeechConfig, n: usize, seed: u64) -> Vec<f64> {
    let fs = cfg.sample_rate;
    let mut rng = StdRng::seed_from_u64(seed);

    // Three formant resonators; centres wander per syllable to mimic
    // changing vowels.
    let mut out = Vec::with_capacity(n);
    let syllable_len = (fs / cfg.syllable_rate_hz) as usize;
    let mut glottal_phase = 0.0f64;
    // Syllabic envelope: a raised cosine over the syllable, tabulated
    // once for the full syllable length (only a last, cut-short
    // syllable builds its own).
    let envelope = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|k| 0.5 - 0.5 * (std::f64::consts::TAU * k as f64 / len as f64).cos())
            .collect()
    };
    let full_envelope = envelope(syllable_len.min(n));

    let mut i = 0;
    while i < n {
        // Per-syllable parameters.
        let voiced = rng.gen::<f64>() > 0.25;
        let paused = rng.gen::<f64>() < cfg.pause_fraction;
        let f1 = 300.0 + rng.gen::<f64>() * 500.0; // 300–800 Hz
        let f2 = 900.0 + rng.gen::<f64>() * 1300.0; // 0.9–2.2 kHz
        let f3 = 2_300.0 + rng.gen::<f64>() * 900.0; // 2.3–3.2 kHz
        let mut r1 = Biquad::resonator(fs, f1, 80.0);
        let mut r2 = Biquad::resonator(fs, f2, 120.0);
        let mut r3 = Biquad::resonator(fs, f3, 180.0);
        let pitch = cfg.pitch_hz * (0.9 + 0.2 * rng.gen::<f64>());
        let this_len = syllable_len.min(n - i);
        let cut_short;
        let syllable_envelope = if this_len == full_envelope.len() {
            &full_envelope
        } else {
            cut_short = envelope(this_len);
            &cut_short
        };
        for &env in syllable_envelope {
            if paused {
                out.push(0.0);
                continue;
            }
            // Excitation: glottal pulse train (voiced) or white noise
            // (unvoiced fricative).
            let excitation = if voiced {
                glottal_phase += pitch / fs;
                if glottal_phase >= 1.0 {
                    glottal_phase -= 1.0;
                    1.0
                } else {
                    // Decaying ramp approximates a glottal pulse.
                    -0.15 * (1.0 - glottal_phase)
                }
            } else {
                rng.gen::<f64>() * 2.0 - 1.0
            };
            let v = r1.push(excitation) + 0.6 * r2.push(excitation) + 0.3 * r3.push(excitation);
            out.push(v * env);
        }
        i += this_len;
    }

    normalise_peak(&mut out, 0.9);
    out
}

/// Scales a buffer so its peak magnitude equals `peak` (no-op for silence).
pub fn normalise_peak(xs: &mut [f64], peak: f64) {
    let max = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if max > 0.0 {
        let k = peak / max;
        for x in xs.iter_mut() {
            *x *= k;
        }
    }
}

/// Scales a buffer to a target RMS and hard-limits at ±`clip` — the
/// loudness processing every broadcast chain (and the tag's baseband
/// scaling) applies so programme audio uses the available FM deviation.
/// No-op for silence.
pub fn normalise_rms(xs: &mut [f64], target_rms: f64, clip: f64) {
    let rms = (xs.iter().map(|x| x * x).sum::<f64>() / xs.len().max(1) as f64).sqrt();
    if rms > 0.0 {
        let k = target_rms / rms;
        for x in xs.iter_mut() {
            *x = (*x * k).clamp(-clip, clip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::fft::{band_power, welch_psd};
    use fmbs_dsp::stats::rms;

    const FS: f64 = 48_000.0;

    #[test]
    fn deterministic_per_seed() {
        let cfg = SpeechConfig::announcer(FS);
        let a = generate_speech(cfg, 10_000, 5);
        let b = generate_speech(cfg, 10_000, 5);
        assert_eq!(a, b);
        let c = generate_speech(cfg, 10_000, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn peak_is_bounded() {
        let cfg = SpeechConfig::announcer(FS);
        let s = generate_speech(cfg, 48_000, 1);
        assert!(s.iter().all(|x| x.abs() <= 0.9 + 1e-12));
        assert!(rms(&s) > 0.02, "not silent");
    }

    #[test]
    fn energy_concentrated_below_4khz() {
        let cfg = SpeechConfig::announcer(FS);
        let s = generate_speech(cfg, 8 * 48_000, 2);
        let psd = welch_psd(&s, 4096);
        let low = band_power(&psd, FS, 100.0, 4_000.0);
        let high = band_power(&psd, FS, 8_000.0, 15_000.0);
        assert!(low > 20.0 * high, "low {low} vs high {high}");
    }

    #[test]
    fn has_pauses() {
        let cfg = SpeechConfig::announcer(FS);
        let s = generate_speech(cfg, 8 * 48_000, 3);
        // Count syllable-length windows that are almost silent.
        let win = (FS / 4.0) as usize;
        let silent = s.chunks(win).filter(|c| rms(c) < 1e-4).count();
        assert!(silent >= 2, "only {silent} silent syllables");
    }

    #[test]
    fn length_is_exact() {
        let cfg = SpeechConfig::announcer(FS);
        for n in [1, 100, 12_345] {
            assert_eq!(generate_speech(cfg, n, 1).len(), n);
        }
    }

    #[test]
    fn normalise_peak_handles_silence() {
        let mut z = vec![0.0; 10];
        normalise_peak(&mut z, 0.9);
        assert!(z.iter().all(|&x| x == 0.0));
    }
}

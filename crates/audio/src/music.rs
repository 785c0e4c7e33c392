//! Synthetic music.
//!
//! Produces music-*like* stereo audio for the pop/rock/mixed programme
//! genres: chord progressions of detuned harmonics, percussive transients,
//! and a genre-dependent amount of broadband energy and stereo width. What
//! matters for the paper's experiments is (a) the spectral occupancy of the
//! mono band (interference to overlay backscatter, Figs. 8 and 11) and
//! (b) the stereo-band utilisation (Fig. 5), both of which these
//! generators control explicitly.

use fmbs_dsp::iir::Biquad;
use fmbs_dsp::TAU;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Music style parameters.
#[derive(Debug, Clone, Copy)]
pub struct MusicConfig {
    /// Sample rate.
    pub sample_rate: f64,
    /// Beats per minute.
    pub bpm: f64,
    /// Broadband (percussion/distortion) level 0–1: rock ≈ 0.8, pop ≈ 0.4.
    pub broadband: f64,
    /// Stereo width 0–1: how decorrelated L and R are.
    pub stereo_width: f64,
}

impl MusicConfig {
    /// Pop-music defaults.
    pub fn pop(sample_rate: f64) -> Self {
        MusicConfig {
            sample_rate,
            bpm: 110.0,
            broadband: 0.4,
            stereo_width: 0.5,
        }
    }

    /// Rock-music defaults: denser spectrum, wider stereo.
    pub fn rock(sample_rate: f64) -> Self {
        MusicConfig {
            sample_rate,
            bpm: 140.0,
            broadband: 0.8,
            stereo_width: 0.7,
        }
    }
}

/// Generates `n` samples of stereo music; returns `(left, right)`.
///
/// Deterministic for a given `(config, seed)`.
pub fn generate_music(cfg: MusicConfig, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let fs = cfg.sample_rate;
    let mut rng = StdRng::seed_from_u64(seed);
    let beat_len = (fs * 60.0 / cfg.bpm) as usize;

    // A I–V–vi–IV-ish progression over A = 220 Hz.
    let chords: [&[f64]; 4] = [
        &[220.0, 277.18, 329.63],
        &[329.63, 415.30, 493.88],
        &[246.94, 293.66, 369.99],
        &[293.66, 369.99, 440.0],
    ];

    let mut left = Vec::with_capacity(n);
    let mut right = Vec::with_capacity(n);
    let mut hat_filter = Biquad::highpass(fs, 6_000.0, 0.707);
    let mut envelopes = BeatEnvelopes::default();
    let mut beat_idx = 0usize;
    let mut i = 0;
    while i < n {
        let chord = chords[(beat_idx / 2) % chords.len()];
        let this_len = beat_len.min(n - i);
        envelopes.fill(this_len, fs);
        // Per-beat random pan offsets for the harmonics.
        let pans: Vec<f64> = chord
            .iter()
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * cfg.stereo_width)
            .collect();
        let kick_on = beat_idx.is_multiple_of(2);
        for k in 0..this_len {
            let t = (i + k) as f64 / fs;
            let mut l = 0.0;
            let mut r = 0.0;
            // Harmonic content: each chord note + one octave, slightly
            // detuned between channels for width.
            for (ni, &f0) in chord.iter().enumerate() {
                let detune = 1.0 + 0.001 * cfg.stereo_width;
                let tone_l = (TAU * f0 * t).sin() + 0.5 * (TAU * 2.0 * f0 * t).sin();
                let tone_r =
                    (TAU * f0 * detune * t).sin() + 0.5 * (TAU * 2.0 * f0 * detune * t).sin();
                let pan = pans[ni];
                l += tone_l * (1.0 - pan.max(0.0)) * 0.25;
                r += tone_r * (1.0 + pan.min(0.0)) * 0.25;
            }
            let beat_env = envelopes.beat[k];
            let kick = if kick_on { envelopes.kick[k] } else { 0.0 };
            let noise = rng.gen::<f64>() * 2.0 - 1.0;
            let hat = hat_filter.push(noise) * envelopes.hat[k];
            let perc = 0.5 * kick + cfg.broadband * 0.6 * hat;
            // Hat panned opposite ways in L/R for stereo content.
            l = l * (0.6 + 0.4 * beat_env) + perc + cfg.stereo_width * 0.3 * hat;
            r = r * (0.6 + 0.4 * beat_env) + perc - cfg.stereo_width * 0.3 * hat;
            left.push(l);
            right.push(r);
        }
        beat_idx += 1;
        i += this_len;
    }
    crate::speech::normalise_peak(&mut left, 0.9);
    crate::speech::normalise_peak(&mut right, 0.9);
    (left, right)
}

/// The per-sample envelopes of one beat. They depend only on the
/// sample's offset `k` into the beat and the beat's length, so they are
/// tabulated once per beat length (every beat but a truncated last one
/// shares a table).
#[derive(Debug, Default)]
struct BeatEnvelopes {
    len: usize,
    /// Beat envelope on the harmonics.
    beat: Vec<f64>,
    /// Kick drum: a decaying 60 Hz tone.
    kick: Vec<f64>,
    /// Hat (high-passed noise) decay.
    hat: Vec<f64>,
}

impl BeatEnvelopes {
    fn fill(&mut self, this_len: usize, fs: f64) {
        if self.len == this_len {
            return;
        }
        self.len = this_len;
        let ks = 0..this_len;
        self.beat = ks
            .clone()
            .map(|k| (-(k as f64) / (0.3 * this_len as f64)).exp())
            .collect();
        self.kick = ks
            .clone()
            .map(|k| {
                (TAU * 60.0 * (k as f64 / fs)).sin() * (-(k as f64) / (0.1 * this_len as f64)).exp()
            })
            .collect();
        self.hat = ks
            .map(|k| (-(k as f64) / (0.05 * this_len as f64)).exp())
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::corr::correlation_coefficient;
    use fmbs_dsp::fft::{band_power, welch_psd};
    use fmbs_dsp::stats::rms;

    const FS: f64 = 48_000.0;

    #[test]
    fn deterministic_and_correct_length() {
        let (l1, r1) = generate_music(MusicConfig::pop(FS), 20_000, 9);
        let (l2, r2) = generate_music(MusicConfig::pop(FS), 20_000, 9);
        assert_eq!(l1, l2);
        assert_eq!(r1, r2);
        assert_eq!(l1.len(), 20_000);
        assert_eq!(r1.len(), 20_000);
    }

    #[test]
    fn rock_has_more_high_frequency_energy_than_pop() {
        let n = 6 * 48_000;
        let (pop_l, _) = generate_music(MusicConfig::pop(FS), n, 4);
        let (rock_l, _) = generate_music(MusicConfig::rock(FS), n, 4);
        let hf = |x: &[f64]| {
            let psd = welch_psd(x, 4096);
            band_power(&psd, FS, 6_000.0, 15_000.0) / band_power(&psd, FS, 100.0, 15_000.0)
        };
        assert!(
            hf(&rock_l) > 1.5 * hf(&pop_l),
            "rock {} vs pop {}",
            hf(&rock_l),
            hf(&pop_l)
        );
    }

    #[test]
    fn stereo_channels_are_decorrelated_with_shared_content() {
        let n = 4 * 48_000;
        let (l, r) = generate_music(MusicConfig::rock(FS), n, 5);
        // Wide stereo: low sample correlation (detuned harmonics spin the
        // phase relationship), but real shared content — the difference
        // channel carries substantial but not dominant power.
        let c = correlation_coefficient(&l, &r);
        assert!(c.abs() < 0.95, "stereo correlation {c}");
        let diff: Vec<f64> = l.iter().zip(&r).map(|(a, b)| (a - b) / 2.0).collect();
        let sum: Vec<f64> = l.iter().zip(&r).map(|(a, b)| (a + b) / 2.0).collect();
        let ratio = fmbs_dsp::stats::power(&diff) / fmbs_dsp::stats::power(&sum);
        assert!(ratio > 0.05 && ratio < 20.0, "L−R/L+R power ratio {ratio}");
    }

    #[test]
    fn not_silent_and_bounded() {
        let (l, r) = generate_music(MusicConfig::pop(FS), 48_000, 6);
        assert!(rms(&l) > 0.05 && rms(&r) > 0.05);
        assert!(l.iter().chain(r.iter()).all(|x| x.abs() <= 0.9 + 1e-12));
    }
}

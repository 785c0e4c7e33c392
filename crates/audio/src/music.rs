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
use std::ops::Range;

/// Music style parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Samples per beat.
    fn beat_len(&self) -> usize {
        (self.sample_rate * 60.0 / self.bpm) as usize
    }
}

/// A I–V–vi–IV-ish progression over A = 220 Hz; every chord lasts two
/// beats.
const CHORDS: [[f64; 3]; 4] = [
    [220.0, 277.18, 329.63],
    [329.63, 415.30, 493.88],
    [246.94, 293.66, 369.99],
    [293.66, 369.99, 440.0],
];

/// Generates `n` samples of stereo music; returns `(left, right)`.
///
/// Deterministic for a given `(config, seed)`. Builds the seed-free
/// [`MusicBed`] and renders `seed` on it.
pub fn generate_music(cfg: MusicConfig, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    MusicBed::new(cfg, n).render(seed)
}

/// The seed-independent part of [`generate_music`]: every chord note's
/// left and right tone at every sample.
///
/// A note's tone at sample `j` depends only on the sample rate, tempo
/// and stereo width (the chord is `CHORDS[(j / beat_len / 2) % 4]`, the
/// time `j / fs`); the seed only drives the per-beat pans and the hat
/// noise. One bed therefore serves any number of seeds, and
/// [`MusicBed::render`] of a seed equals `generate_music` of it bit for
/// bit — `generate_music` is that render. A bed holds six `f64` per
/// sample (38 MB for 4 s at 200 kHz), one vector per note and channel:
/// no allocation is larger than a rendered channel's. (A larger block
/// would, once freed, raise the allocator's mmap threshold and keep
/// later buffers resident.)
///
/// For the same reason a bed can be tabulated in contiguous runs of
/// samples ([`MusicBed::run`]), for example on different threads, and
/// joined in order ([`MusicBed::from_runs`]): the result is the same
/// however the samples are split.
#[derive(Debug, Clone)]
pub struct MusicBed {
    cfg: MusicConfig,
    runs: Vec<BedRun>,
    len: usize,
}

/// One contiguous run of a [`MusicBed`]'s samples.
#[derive(Debug, Clone)]
pub struct BedRun {
    cfg: MusicConfig,
    start: usize,
    /// Per chord note, its left tone at each sample.
    left: [Vec<f64>; 3],
    /// Per chord note, its right (detuned) tone at each sample.
    right: [Vec<f64>; 3],
}

impl BedRun {
    fn len(&self) -> usize {
        self.left[0].len()
    }

    /// The three notes' left and right tones at offset `k`.
    fn tones(&self, k: usize) -> [[f64; 3]; 2] {
        [
            std::array::from_fn(|note| self.left[note][k]),
            std::array::from_fn(|note| self.right[note][k]),
        ]
    }
}

impl MusicBed {
    /// Tabulates `n` samples of tones for `cfg`.
    pub fn new(cfg: MusicConfig, n: usize) -> Self {
        MusicBed::from_runs(cfg, vec![MusicBed::run(cfg, 0..n)])
    }

    /// Tabulates the tones of samples `samples` of a `cfg` bed.
    pub fn run(cfg: MusicConfig, samples: Range<usize>) -> BedRun {
        let fs = cfg.sample_rate;
        let beat_len = cfg.beat_len();
        // Each chord note + one octave, slightly detuned between
        // channels for width.
        let detune = 1.0 + 0.001 * cfg.stereo_width;
        let mut left: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(samples.len()));
        let mut right: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(samples.len()));
        for j in samples.clone() {
            let chord = CHORDS[(j / beat_len / 2) % CHORDS.len()];
            let t = j as f64 / fs;
            for (note, f0) in chord.into_iter().enumerate() {
                left[note].push((TAU * f0 * t).sin() + 0.5 * (TAU * 2.0 * f0 * t).sin());
                right[note].push(
                    (TAU * f0 * detune * t).sin() + 0.5 * (TAU * 2.0 * f0 * detune * t).sin(),
                );
            }
        }
        BedRun {
            cfg,
            start: samples.start,
            left,
            right,
        }
    }

    /// Joins runs into a bed.
    ///
    /// # Panics
    ///
    /// Unless every run is of `cfg` and the runs cover `0..len`
    /// contiguously, in order.
    pub fn from_runs(cfg: MusicConfig, runs: Vec<BedRun>) -> Self {
        let mut len = 0;
        for run in &runs {
            assert_eq!(run.cfg, cfg, "bed run of another music style");
            assert_eq!(run.start, len, "bed runs must be contiguous and in order");
            len += run.len();
        }
        MusicBed { cfg, runs, len }
    }

    /// The style the bed was tabulated for.
    pub fn config(&self) -> MusicConfig {
        self.cfg
    }

    /// Samples in the bed (and in each render of it).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bed holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Renders the bed's `len()` samples of stereo music for `seed`;
    /// returns `(left, right)`.
    pub fn render(&self, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        let fs = cfg.sample_rate;
        let n = self.len();
        let mut tones = self
            .runs
            .iter()
            .flat_map(|run| (0..run.len()).map(|k| run.tones(k)));
        let mut rng = StdRng::seed_from_u64(seed);
        let beat_len = cfg.beat_len();

        let mut left = Vec::with_capacity(n);
        let mut right = Vec::with_capacity(n);
        let mut hat_filter = Biquad::highpass(fs, 6_000.0, 0.707);
        let mut envelopes = BeatEnvelopes::default();
        let mut beat_idx = 0usize;
        let mut i = 0;
        while i < n {
            let this_len = beat_len.min(n - i);
            envelopes.fill(this_len, fs);
            // Per-beat random pan offsets for the harmonics.
            let pans: [f64; 3] =
                std::array::from_fn(|_| (rng.gen::<f64>() * 2.0 - 1.0) * cfg.stereo_width);
            let kick_on = beat_idx.is_multiple_of(2);
            for k in 0..this_len {
                let [tones_l, tones_r] = tones.next().expect("one tone pair per sample");
                let mut l = 0.0;
                let mut r = 0.0;
                for (ni, &pan) in pans.iter().enumerate() {
                    l += tones_l[ni] * (1.0 - pan.max(0.0)) * 0.25;
                    r += tones_r[ni] * (1.0 + pan.min(0.0)) * 0.25;
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
    fn shared_bed_renders_equal_independent_generation() {
        for fs in [48_000.0, 200_000.0] {
            for cfg in [MusicConfig::pop(fs), MusicConfig::rock(fs)] {
                // Three and a bit beats: the last one is truncated.
                let n = 3 * cfg.beat_len() + cfg.beat_len() / 3;
                let bed = MusicBed::new(cfg, n);
                for seed in [4, u64::MAX] {
                    let (l, r) = bed.render(seed);
                    let (want_l, want_r) = generate_music(cfg, n, seed);
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&l), bits(&want_l), "{cfg:?} seed {seed}");
                    assert_eq!(bits(&r), bits(&want_r), "{cfg:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn bed_from_runs_renders_like_one_run() {
        let cfg = MusicConfig::rock(FS);
        let n = 2 * cfg.beat_len() + 123;
        // Uneven runs, one of them empty, one crossing a beat boundary.
        let cuts = [0, 7, 7, cfg.beat_len() + 5, n];
        let runs = cuts
            .windows(2)
            .map(|w| MusicBed::run(cfg, w[0]..w[1]))
            .collect();
        let split = MusicBed::from_runs(cfg, runs);
        assert_eq!(split.len(), n);
        let (l, r) = split.render(9);
        let (want_l, want_r) = generate_music(cfg, n, 9);
        assert!(l
            .iter()
            .zip(&want_l)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(r
            .iter()
            .zip(&want_r)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn bed_runs_with_a_gap_are_rejected() {
        let cfg = MusicConfig::pop(FS);
        let runs = vec![MusicBed::run(cfg, 0..10), MusicBed::run(cfg, 11..20)];
        let _ = MusicBed::from_runs(cfg, runs);
    }

    #[test]
    fn not_silent_and_bounded() {
        let (l, r) = generate_music(MusicConfig::pop(FS), 48_000, 6);
        assert!(rms(&l) > 0.05 && rms(&r) > 0.05);
        assert!(l.iter().chain(r.iter()).all(|x| x.abs() <= 0.9 + 1e-12));
    }
}

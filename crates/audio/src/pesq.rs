//! A PESQ-like perceptual quality score.
//!
//! The paper scores received audio with ITU-T P.862 PESQ (§5.3), which is
//! a licensed, closed reference implementation. This module provides a
//! *PESQ-like* estimator with the same interface and scale:
//!
//! 1. **Level alignment** — the degraded signal is gain-matched to the
//!    reference over speech-active frames (the paper's receivers apply
//!    automatic gain control).
//! 2. **Time alignment** — cross-correlation over a bounded lag window
//!    (receiver chains delay the audio by filter group delays).
//! 3. **Bark-spectral disturbance** — both signals are analysed in 32 ms
//!    Hann frames mapped onto a Bark-spaced filterbank; per-band log-power
//!    differences form a disturbance density, with added energy (noise)
//!    weighted more heavily than removed energy, as in P.862.
//! 4. **MOS mapping** — the mean disturbance maps through a logistic onto
//!    the 0–5 MOS scale, anchored so that an identical signal scores ≈ 4.6
//!    and speech at 0 dB SNR against programme-audio interference scores
//!    ≈ 2 — the paper's "composite signal … sounds good at a PESQ value of
//!    two" operating point.
//!
//! The absolute calibration is documented in `DESIGN.md`; every figure
//! that uses it (Figs. 11–14) only relies on the score being monotone in
//! interference level, which holds by construction.

use fmbs_dsp::corr::find_lag;
use fmbs_dsp::fft::Fft;
use fmbs_dsp::stats::rms;
use fmbs_dsp::windows::Window;
use fmbs_dsp::Complex;

/// Number of Bark-spaced bands in the filterbank.
const N_BANDS: usize = 18;
/// Analysis frame length in seconds.
const FRAME_S: f64 = 0.032;
/// Power floor relative to full scale (bounds silent-frame log ratios).
const POWER_FLOOR: f64 = 1e-8;
/// Extra weight on added (noise) energy versus removed energy.
const ASYMMETRY: f64 = 1.6;

/// Converts frequency (Hz) to the Bark scale.
fn bark(f: f64) -> f64 {
    13.0 * (0.00076 * f).atan() + 3.5 * ((f / 7_500.0) * (f / 7_500.0)).atan()
}

/// Computes the PESQ-like MOS of `degraded` against `reference`.
///
/// Both signals are at `sample_rate`; the degraded signal may lead or lag
/// by up to 100 ms and differ in level. Returns a score in `[0, 5]`.
pub fn pesq_like(reference: &[f64], degraded: &[f64], sample_rate: f64) -> f64 {
    let d = disturbance(reference, degraded, sample_rate);
    mos_from_disturbance(d)
}

/// The logistic disturbance→MOS mapping (exposed for calibration tests).
pub fn mos_from_disturbance(d: f64) -> f64 {
    // Exponential decay calibrated on programme-audio interference:
    //   d = 0    → 4.64 (identical signal)
    //   d ≈ 1    → ≈ 4.0 (cooperative backscatter residual — Fig. 12)
    //   d ≈ 6    → ≈ 2.0 (overlay: interferer at equal level — Fig. 11)
    //   d ≈ 14   → ≈ 0.8 (0 dB white noise)
    const TAU_D: f64 = 6.4;
    0.3 + 4.34 * (-d / TAU_D).exp()
}

/// Mean Bark-spectral disturbance between the signals (the internal
/// quantity behind the MOS).
pub fn disturbance(reference: &[f64], degraded: &[f64], sample_rate: f64) -> f64 {
    if reference.is_empty() || degraded.is_empty() {
        return f64::INFINITY;
    }
    // --- 1. time alignment ---------------------------------------------
    let max_lag = ((sample_rate * 0.1) as usize).min(reference.len() / 2);
    let lag = find_lag(reference, degraded, max_lag);
    let (r_off, d_off) = if lag >= 0 {
        (0usize, lag as usize)
    } else {
        ((-lag) as usize, 0usize)
    };
    let n = (reference.len() - r_off).min(degraded.len() - d_off);
    if n < 256 {
        return f64::INFINITY;
    }
    let reference = &reference[r_off..r_off + n];
    let degraded = &degraded[d_off..d_off + n];

    // --- 2. level alignment ---------------------------------------------
    let r_rms = rms(reference);
    let d_rms = rms(degraded);
    if r_rms < 1e-9 {
        return f64::INFINITY;
    }
    let gain = if d_rms > 1e-9 { r_rms / d_rms } else { 1.0 };

    // --- 3. Bark-spectral disturbance ------------------------------------
    let frame = ((sample_rate * FRAME_S) as usize).next_power_of_two();
    let hop = (frame / 2).max(1);
    let window = Window::Hann.coefficients(frame);
    // Precompute bin→band mapping.
    let n_bins = frame / 2 + 1;
    let max_bark = bark(sample_rate.min(30_000.0) / 2.0);
    let band_of: Vec<usize> = (0..n_bins)
        .map(|k| {
            let f = k as f64 * sample_rate / frame as f64;
            (((bark(f) / max_bark) * N_BANDS as f64) as usize).min(N_BANDS - 1)
        })
        .collect();

    // One plan and one buffer for every frame: the windowed, scaled
    // power spectrum of `fmbs_dsp::fft::power_spectrum`, binned into bands.
    let fft = Fft::new(frame);
    let spec_scale = 1.0 / (frame as f64 * frame as f64);
    let mut buf = vec![Complex::ZERO; frame];
    let mut band_powers = |seg: &[f64], scale: f64| -> [f64; N_BANDS] {
        for ((b, &x), &w) in buf.iter_mut().zip(seg).zip(&window) {
            *b = Complex::new(x * scale * w, 0.0);
        }
        fft.forward(&mut buf);
        let mut bands = [0.0; N_BANDS];
        for (z, &band) in buf.iter().zip(&band_of) {
            bands[band] += z.norm_sqr() * spec_scale;
        }
        bands
    };

    let norm = 1.0 / r_rms; // analyse at a common nominal level

    // Activity gate: P.862 weights disturbances by the loudness of the
    // reference frame; we approximate by scoring only frames where the
    // reference carries real signal (pauses otherwise dominate the score
    // with whatever noise fills them).
    let activity_floor = 0.02; // of the normalised (unit-RMS) power
    let mut total = 0.0;
    let mut frames = 0usize;
    let mut start = 0usize;
    while start + frame <= n {
        let rseg = &reference[start..start + frame];
        let frame_power = rseg.iter().map(|x| x * norm * x * norm).sum::<f64>() / frame as f64;
        if frame_power < activity_floor {
            start += hop;
            continue;
        }
        let rb = band_powers(rseg, norm);
        let db = band_powers(&degraded[start..start + frame], gain * norm);
        let mut frame_dist = 0.0;
        for b in 0..N_BANDS {
            let lr = 10.0 * (rb[b] + POWER_FLOOR).log10();
            let ld = 10.0 * (db[b] + POWER_FLOOR).log10();
            let diff = ld - lr;
            // Added energy (noise) is more annoying than removed energy.
            frame_dist += if diff > 0.0 { ASYMMETRY * diff } else { -diff };
        }
        total += frame_dist / N_BANDS as f64;
        frames += 1;
        start += hop;
    }
    if frames == 0 {
        f64::INFINITY
    } else {
        total / frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speech::{generate_speech, SpeechConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn speech(secs: f64, seed: u64) -> Vec<f64> {
        generate_speech(SpeechConfig::announcer(FS), (FS * secs) as usize, seed)
    }

    fn add_noise(sig: &[f64], snr_db: f64, seed: u64) -> Vec<f64> {
        let p_sig = fmbs_dsp::stats::power(sig);
        let p_noise = p_sig / 10f64.powf(snr_db / 10.0);
        let sigma = p_noise.sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        sig.iter()
            .map(|x| {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                x + sigma * g
            })
            .collect()
    }

    #[test]
    fn identical_signal_scores_excellent() {
        let s = speech(3.0, 1);
        let score = pesq_like(&s, &s, FS);
        assert!(score > 4.3, "clean score {score}");
    }

    #[test]
    fn score_is_monotone_in_snr() {
        let s = speech(3.0, 2);
        let mut prev = 5.1;
        for snr in [30.0, 20.0, 10.0, 0.0, -10.0] {
            let deg = add_noise(&s, snr, 7);
            let score = pesq_like(&s, &deg, FS);
            assert!(
                score < prev + 0.05,
                "score {score} at {snr} dB not below {prev}"
            );
            prev = score;
        }
    }

    #[test]
    fn equal_level_programme_interference_scores_near_two() {
        // The paper's operating anchor (§5.3): overlay backscatter leaves
        // the host programme at a level comparable to the payload, and
        // "what we hear is a composite signal … sounds good at a PESQ
        // value of two".
        let s = speech(4.0, 3);
        let interferer = speech(4.0, 99);
        let deg: Vec<f64> = s.iter().zip(&interferer).map(|(a, b)| a + b).collect();
        let score = pesq_like(&s, &deg, FS);
        assert!((score - 2.0).abs() < 0.6, "composite score {score}");
    }

    #[test]
    fn heavy_noise_scores_poor() {
        let s = speech(3.0, 4);
        let deg = add_noise(&s, -15.0, 13);
        let score = pesq_like(&s, &deg, FS);
        assert!(score < 1.3, "very noisy score {score}");
    }

    #[test]
    fn alignment_tolerates_delay_and_gain() {
        let s = speech(3.0, 5);
        // Delay by 480 samples (10 ms) and halve the level.
        let mut deg = vec![0.0; 480];
        deg.extend(s.iter().map(|x| 0.5 * x));
        let score = pesq_like(&s, &deg, FS);
        assert!(score > 4.0, "delayed+scaled clean score {score}");
    }

    #[test]
    fn interfering_speech_is_a_disturbance() {
        // Overlay backscatter's situation: wanted speech + background
        // programme at comparable level.
        let want = speech(3.0, 6);
        let interf = speech(3.0, 99);
        let deg: Vec<f64> = want
            .iter()
            .zip(interf.iter())
            .map(|(a, b)| a + 0.8 * b)
            .collect();
        let score = pesq_like(&want, &deg, FS);
        assert!(score > 1.0 && score < 3.5, "composite score {score}");
    }

    #[test]
    fn empty_inputs_score_zero_ish() {
        let s = speech(1.0, 7);
        assert!(pesq_like(&[], &s, FS) < 0.5);
        assert!(pesq_like(&s, &[], FS) < 0.5);
    }

    #[test]
    fn mapping_is_bounded() {
        assert!(mos_from_disturbance(0.0) <= 5.0);
        assert!(mos_from_disturbance(1e9) >= 0.0);
        assert!(mos_from_disturbance(0.0) > mos_from_disturbance(50.0));
    }
}

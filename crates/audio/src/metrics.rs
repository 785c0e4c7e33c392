//! Audio measurement utilities.
//!
//! [`tone_snr_db`] is the measurement of §5.1: "we compute SNR by comparing
//! the power at the frequency corresponding to the transmitted tone and the
//! average power of the other audio frequencies … `P_5kHz / (Σ_f P_f −
//! P_5kHz)`". It backs Figs. 6, 7 and 14a.

use fmbs_dsp::stats::power;

/// Single-tone SNR in dB: tone power at `f_tone` versus all other audio
/// power, over the analysis segment.
///
/// Implemented by least-squares projection onto `sin`/`cos` at the tone
/// frequency: the residual after subtracting the fitted tone *is* the
/// non-tone power, exactly, with none of the spectral-leakage bias a
/// Goertzel-minus-total estimate suffers on nearly-clean signals.
pub fn tone_snr_db(audio: &[f64], sample_rate: f64, f_tone: f64) -> f64 {
    if audio.is_empty() {
        return f64::NEG_INFINITY;
    }
    let n = audio.len() as f64;
    let w = std::f64::consts::TAU * f_tone / sample_rate;
    // The basis is evaluated once and read by both passes.
    let basis: Vec<(f64, f64)> = (0..audio.len()).map(|i| (w * i as f64).sin_cos()).collect();
    let mut ss = 0.0;
    let mut sc = 0.0;
    for (&x, &(s, c)) in audio.iter().zip(&basis) {
        ss += x * s;
        sc += x * c;
    }
    // For large n the basis is orthogonal with norm n/2.
    let a = 2.0 * ss / n;
    let b = 2.0 * sc / n;
    let mut p_resid = 0.0;
    for (&x, &(s, c)) in audio.iter().zip(&basis) {
        let r = x - a * s - b * c;
        p_resid += r * r;
    }
    p_resid /= n;
    let p_tone = (a * a + b * b) / 2.0;
    10.0 * (p_tone.max(1e-300) / p_resid.max(1e-15)).log10()
}

/// Tone SNR skipping a leading transient (filters settling, PLL lock).
pub fn tone_snr_db_settled(audio: &[f64], sample_rate: f64, f_tone: f64, skip: usize) -> f64 {
    if skip >= audio.len() {
        return f64::NEG_INFINITY;
    }
    tone_snr_db(&audio[skip..], sample_rate, f_tone)
}

/// Segmental SNR between a clean reference and a degraded signal, in dB —
/// averaged over 32 ms frames, each clamped to [−10, 35] dB as in speech-
/// quality practice. Inputs must be time-aligned and equal-length.
pub fn segmental_snr_db(reference: &[f64], degraded: &[f64], sample_rate: f64) -> f64 {
    let n = reference.len().min(degraded.len());
    if n == 0 {
        return f64::NEG_INFINITY;
    }
    let frame = ((sample_rate * 0.032) as usize).max(16);
    let mut acc = 0.0;
    let mut frames = 0usize;
    let mut i = 0;
    while i + frame <= n {
        let r = &reference[i..i + frame];
        let d = &degraded[i..i + frame];
        let p_sig = power(r);
        if p_sig > 1e-10 {
            let p_err = r
                .iter()
                .zip(d.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / frame as f64;
            let snr = 10.0 * (p_sig / p_err.max(1e-15)).log10();
            acc += snr.clamp(-10.0, 35.0);
            frames += 1;
        }
        i += frame;
    }
    if frames == 0 {
        f64::NEG_INFINITY
    } else {
        acc / frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::TAU;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn tone(f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / FS).sin())
            .collect()
    }

    fn noise(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Uniform noise with the requested RMS (±√3·rms).
                (rng.gen::<f64>() * 2.0 - 1.0) * rms * 3f64.sqrt()
            })
            .collect()
    }

    #[test]
    fn clean_tone_has_high_snr() {
        let sig = tone(1_000.0, 48_000, 0.8);
        assert!(tone_snr_db(&sig, FS, 1_000.0) > 40.0);
    }

    #[test]
    fn known_snr_is_recovered() {
        // Tone power 0.5·0.8² = 0.32; noise power 0.0032 ⇒ 20 dB.
        let n = 480_000;
        let sig = tone(1_000.0, n, 0.8);
        let nz = noise(n, 0.0032f64.sqrt(), 1);
        let mixed: Vec<f64> = sig.iter().zip(&nz).map(|(a, b)| a + b).collect();
        let snr = tone_snr_db(&mixed, FS, 1_000.0);
        assert!((snr - 20.0).abs() < 1.0, "measured {snr}");
    }

    #[test]
    fn snr_is_monotone_in_noise() {
        let n = 96_000;
        let sig = tone(5_000.0, n, 0.5);
        let mut prev = f64::INFINITY;
        for (i, rms) in [0.001, 0.01, 0.1, 0.3].iter().enumerate() {
            let nz = noise(n, *rms, i as u64);
            let mixed: Vec<f64> = sig.iter().zip(&nz).map(|(a, b)| a + b).collect();
            let snr = tone_snr_db(&mixed, FS, 5_000.0);
            assert!(snr < prev);
            prev = snr;
        }
    }

    #[test]
    fn empty_input_is_neg_infinity() {
        assert_eq!(tone_snr_db(&[], FS, 1_000.0), f64::NEG_INFINITY);
        assert_eq!(
            tone_snr_db_settled(&[1.0; 4], FS, 1_000.0, 10),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn segmental_snr_of_identical_signals_is_max() {
        let sig = tone(700.0, 48_000, 0.5);
        let s = segmental_snr_db(&sig, &sig, FS);
        assert!((s - 35.0).abs() < 1e-9, "clamped max {s}");
    }

    #[test]
    fn segmental_snr_decreases_with_noise() {
        let n = 96_000;
        let sig = tone(700.0, n, 0.5);
        let mk = |rms: f64, seed: u64| {
            let nz = noise(n, rms, seed);
            let deg: Vec<f64> = sig.iter().zip(&nz).map(|(a, b)| a + b).collect();
            segmental_snr_db(&sig, &deg, FS)
        };
        assert!(mk(0.01, 1) > mk(0.1, 2));
        assert!(mk(0.1, 2) > mk(0.5, 3));
    }
}

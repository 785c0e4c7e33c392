//! Stereo-band utilisation by programme genre (Fig. 5).
//!
//! The paper captures 24 h from four stations and plots the CDF of
//! `P_stereo / P_noise`, where P_noise is the power in the empty
//! 16–18 kHz guard region. News stations sit low (same speech on L and
//! R), music stations high — the observation that motivates stereo
//! backscatter. We regenerate the measurement by synthesising each
//! genre's multiplex and analysing it exactly as the paper does.

use fmbs_audio::program::{ProgramGenerator, ProgramKind};
use fmbs_dsp::stats::Cdf;
use fmbs_fm::baseband::{measure_band_powers, MpxComposer, MpxLevels};
use std::sync::atomic::{AtomicUsize, Ordering};

/// MPX analysis rate.
const MPX_RATE: f64 = 200_000.0;

/// Measures `P_stereo / P_guard` in dB over `windows` independent
/// programme segments of `window_s` seconds each — the sample set behind
/// one genre's CDF line in Fig. 5.
///
/// The windows run in parallel on scoped threads (one per available
/// core), claiming window indices from a shared cursor. Each window's
/// programme is seeded by its index alone and its result is stored at
/// that index, so the output is identical to evaluating the windows one
/// at a time, however the threads are scheduled.
pub fn stereo_utilisation_samples(
    kind: ProgramKind,
    windows: usize,
    window_s: f64,
    seed: u64,
) -> Vec<f64> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(windows);
    let cursor = AtomicUsize::new(0);
    let mut out = vec![0.0; windows];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let w = cursor.fetch_add(1, Ordering::Relaxed);
                        if w >= windows {
                            break done;
                        }
                        done.push((w, window_utilisation_db(kind, window_s, seed, w)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (w, db) in handle.join().expect("stereo-utilisation worker panicked") {
                out[w] = db;
            }
        }
    });
    out
}

/// `P_stereo / P_guard` in dB of window `w`: its own seeded programme,
/// composed into MPX and measured.
fn window_utilisation_db(kind: ProgramKind, window_s: f64, seed: u64, w: usize) -> f64 {
    let gen = ProgramGenerator::new(MPX_RATE, seed.wrapping_add(w as u64 * 131));
    let prog = gen.generate(kind, window_s);
    let mut composer = MpxComposer::new(MPX_RATE, MpxLevels::default());
    let mpx = composer.compose_buffer(&prog.left, &prog.right, &[]);
    let p = measure_band_powers(&mpx, MPX_RATE);
    // Guard region power is tiny but nonzero (window leakage);
    // floor it so ratios stay finite, as a real noise floor would.
    10.0 * (p.stereo / p.guard.max(1e-12)).log10()
}

/// The Fig. 5 CDF for one genre.
///
/// Windows are 4 s so that the Mixed genre (2 s speech / 2 s music
/// alternation) always contains both kinds of content.
pub fn stereo_utilisation_cdf(kind: ProgramKind, windows: usize, seed: u64) -> Cdf {
    Cdf::from_samples(&stereo_utilisation_samples(kind, windows, 4.0, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn news_underutilises_stereo() {
        // The Fig. 5 headline: news/talk stations put almost nothing in
        // the stereo stream.
        let news = stereo_utilisation_samples(ProgramKind::News, 6, 4.0, 1);
        let rock = stereo_utilisation_samples(ProgramKind::RockMusic, 6, 4.0, 1);
        let news_median = fmbs_dsp::stats::percentile(&news, 50.0);
        let rock_median = fmbs_dsp::stats::percentile(&rock, 50.0);
        assert!(
            rock_median > news_median + 10.0,
            "news {news_median} dB vs rock {rock_median} dB"
        );
    }

    #[test]
    fn genre_ordering_matches_figure() {
        // News < Mixed < music genres.
        let median = |k| {
            let s = stereo_utilisation_samples(k, 5, 4.0, 3);
            fmbs_dsp::stats::percentile(&s, 50.0)
        };
        let news = median(ProgramKind::News);
        let mixed = median(ProgramKind::Mixed);
        let pop = median(ProgramKind::PopMusic);
        assert!(news < mixed, "news {news} mixed {mixed}");
        assert!(mixed < pop, "mixed {mixed} pop {pop}");
    }

    #[test]
    fn parallel_windows_equal_one_at_a_time() {
        for kind in [ProgramKind::Mixed, ProgramKind::RockMusic] {
            let got: Vec<u64> = stereo_utilisation_samples(kind, 5, 0.5, 11)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = (0..5)
                .map(|w| window_utilisation_db(kind, 0.5, 11, w).to_bits())
                .collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn cdf_is_usable() {
        let cdf = stereo_utilisation_cdf(ProgramKind::PopMusic, 5, 7);
        assert_eq!(cdf.len(), 5);
        assert!(cdf.max() > cdf.min());
    }
}

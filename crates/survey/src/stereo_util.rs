//! Stereo-band utilisation by programme genre (Fig. 5).
//!
//! The paper captures 24 h from four stations and plots the CDF of
//! `P_stereo / P_noise`, where P_noise is the power in the empty
//! 16–18 kHz guard region. News stations sit low (same speech on L and
//! R), music stations high — the observation that motivates stereo
//! backscatter. We regenerate the measurement by synthesising each
//! genre's multiplex and analysing it exactly as the paper does.
//!
//! # Shared signals
//!
//! Every window is its own seeded programme, but two of its signals do
//! not depend on the seed, so they are computed once per call and shared
//! by every window that needs them:
//!
//! * the **music bed** ([`MusicBed`]): each chord note's left and right
//!   tone per sample, a function of sample rate, tempo and stereo width
//!   only, tabulated in one run of samples per worker. The pop bed
//!   serves Mixed and Pop and is dropped before the rock bed is built,
//!   so at most one bed is alive at a time;
//! * the **MPX carriers** ([`MpxCarriers`](fmbs_fm::baseband::MpxCarriers)):
//!   pilot, 38 kHz and 57 kHz subcarrier per sample, a function of the
//!   oscillator phase, which starts at 0 in every window.
//!
//! Each window renders from these with the same per-sample expressions
//! that [`ProgramGenerator::generate`] and
//! [`MpxComposer::compose_buffer`] evaluate (those functions are the
//! same render over a bed and table of their own), so the samples are
//! bit-identical to synthesising every window from scratch.

use fmbs_audio::music::{MusicBed, MusicConfig};
use fmbs_audio::program::{ProgramGenerator, ProgramKind};
use fmbs_dsp::stats::Cdf;
use fmbs_fm::baseband::{measure_band_powers, MpxComposer, MpxLevels};
use fmbs_obs::stages;
use std::sync::atomic::{AtomicUsize, Ordering};

/// MPX analysis rate.
const MPX_RATE: f64 = 200_000.0;

/// Measures `P_stereo / P_guard` in dB over `windows` independent
/// programme segments of `window_s` seconds each, for each genre of
/// `kinds` — per genre, the sample set behind its CDF line in Fig. 5.
///
/// The genres run in order, the windows of consecutive genres that
/// share a music bed in one pass on scoped threads (one per available
/// core) that claim windows from a shared cursor. Each window's
/// programme is seeded by its index alone and its result is stored at
/// that index, so the output is identical to evaluating the windows one
/// at a time, however the threads are scheduled. With a profiling collector installed, each worker records
/// into its own child collector, absorbed in worker order.
pub fn stereo_utilisation_samples(
    kinds: &[ProgramKind],
    windows: usize,
    window_s: f64,
    seed: u64,
) -> Vec<Vec<f64>> {
    let n = (MPX_RATE * window_s).round() as usize;
    let carriers = {
        fmbs_obs::span!(stages::MPX_COMPOSE);
        MpxComposer::new(MPX_RATE, MpxLevels::default()).carriers(n)
    };
    let mut bed: Option<MusicBed> = None;
    let mut out = Vec::with_capacity(kinds.len());
    // One parallel pass per run of genres that share a music bed.
    for group in kinds.chunk_by(|a, b| a.music(MPX_RATE) == b.music(MPX_RATE)) {
        let music = group[0].music(MPX_RATE);
        if bed.as_ref().map(MusicBed::config) != music {
            drop(bed.take()); // free the old bed before building the next
            bed = music.map(|cfg| build_bed(cfg, n));
        }
        let bed = bed.as_ref();
        // Task `t` is window `t % windows` of genre `group[t / windows]`:
        // its own seeded programme, composed into MPX and measured.
        let db = parallel_map(group.len() * windows, |t| {
            let (kind, w) = (group[t / windows], t % windows);
            let gen = ProgramGenerator::new(MPX_RATE, seed.wrapping_add(w as u64 * 131));
            let prog = {
                fmbs_obs::span!(stages::PROGRAM_SYNTH);
                gen.render(kind, n, bed)
            };
            let mpx = {
                fmbs_obs::span!(stages::MPX_COMPOSE);
                carriers.compose(&prog.left, &prog.right, &[])
            };
            drop(prog);
            let p = {
                fmbs_obs::span!(stages::BAND_POWERS);
                measure_band_powers(&mpx, MPX_RATE)
            };
            // Guard region power is tiny but nonzero (window leakage);
            // floor it so ratios stay finite, as a real noise floor
            // would.
            10.0 * (p.stereo / p.guard.max(1e-12)).log10()
        });
        out.extend((0..group.len()).map(|g| db[g * windows..(g + 1) * windows].to_vec()));
    }
    out
}

/// The Fig. 5 CDF for each genre of `kinds`.
///
/// Windows are 4 s so that the Mixed genre (2 s speech / 2 s music
/// alternation) always contains both kinds of content.
pub fn stereo_utilisation_cdfs(kinds: &[ProgramKind], windows: usize, seed: u64) -> Vec<Cdf> {
    stereo_utilisation_samples(kinds, windows, 4.0, seed)
        .iter()
        .map(|samples| Cdf::from_samples(samples))
        .collect()
}

/// Tabulates an `n`-sample music bed in one run per worker, in
/// parallel.
fn build_bed(cfg: MusicConfig, n: usize) -> MusicBed {
    let per_run = n.div_ceil(workers(n).max(1)).max(1);
    let runs = parallel_map(n.div_ceil(per_run), |r| {
        fmbs_obs::span!(stages::PROGRAM_SYNTH);
        MusicBed::run(cfg, r * per_run..n.min((r + 1) * per_run))
    });
    MusicBed::from_runs(cfg, runs)
}

/// Worker threads for `tasks` tasks: one per available core, at most
/// one per task.
fn workers(tasks: usize) -> usize {
    fmbs_obs::cores().min(tasks)
}

/// Evaluates `f` at `0..tasks` on scoped worker threads that claim task
/// indices from a shared cursor; result `t` is `f(t)` whatever the
/// schedule.
fn parallel_map<T: Send>(tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let done = fmbs_obs::scoped_workers(workers(tasks), |_| {
        let mut done = Vec::new();
        loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            if t >= tasks {
                break done;
            }
            done.push((t, f(t)));
        }
    });
    for (t, v) in done.into_iter().flatten() {
        out[t] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every task evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::stats::percentile;

    /// Window `w` of `kind` synthesised from scratch: its own music bed
    /// and its own composer, as a lone window would be.
    fn window_db_from_scratch(kind: ProgramKind, window_s: f64, seed: u64, w: usize) -> f64 {
        let prog = ProgramGenerator::new(MPX_RATE, seed.wrapping_add(w as u64 * 131))
            .generate(kind, window_s);
        let mut composer = MpxComposer::new(MPX_RATE, MpxLevels::default());
        let mpx = composer.compose_buffer(&prog.left, &prog.right, &[]);
        let p = measure_band_powers(&mpx, MPX_RATE);
        10.0 * (p.stereo / p.guard.max(1e-12)).log10()
    }

    #[test]
    fn news_underutilises_stereo() {
        // The Fig. 5 headline: news/talk stations put almost nothing in
        // the stereo stream.
        let s = stereo_utilisation_samples(&[ProgramKind::News, ProgramKind::RockMusic], 6, 4.0, 1);
        let news_median = percentile(&s[0], 50.0);
        let rock_median = percentile(&s[1], 50.0);
        assert!(
            rock_median > news_median + 10.0,
            "news {news_median} dB vs rock {rock_median} dB"
        );
    }

    #[test]
    fn genre_ordering_matches_figure() {
        // News < Mixed < music genres.
        let kinds = [ProgramKind::News, ProgramKind::Mixed, ProgramKind::PopMusic];
        let medians: Vec<f64> = stereo_utilisation_samples(&kinds, 5, 4.0, 3)
            .iter()
            .map(|s| percentile(s, 50.0))
            .collect();
        let [news, mixed, pop] = medians[..] else {
            panic!("one sample set per genre")
        };
        assert!(news < mixed, "news {news} mixed {mixed}");
        assert!(mixed < pop, "mixed {mixed} pop {pop}");
    }

    #[test]
    fn parallel_windows_equal_one_at_a_time() {
        // Shared beds and carrier table, windows in parallel, versus
        // every window synthesised alone. Mixed and Pop share one pass
        // over the pop bed; Rock replaces it; the last Mixed rebuilds it.
        let kinds = [
            ProgramKind::News,
            ProgramKind::Mixed,
            ProgramKind::PopMusic,
            ProgramKind::RockMusic,
            ProgramKind::Mixed,
        ];
        let got = stereo_utilisation_samples(&kinds, 3, 0.5, 11);
        assert_eq!(got.len(), kinds.len());
        for (kind, samples) in kinds.into_iter().zip(got) {
            let got: Vec<u64> = samples.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = (0..3)
                .map(|w| window_db_from_scratch(kind, 0.5, 11, w).to_bits())
                .collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn cdf_is_usable() {
        let cdfs = stereo_utilisation_cdfs(&[ProgramKind::PopMusic], 5, 7);
        assert_eq!(cdfs.len(), 1);
        assert_eq!(cdfs[0].len(), 5);
        assert!(cdfs[0].max() > cdfs[0].min());
    }

    #[test]
    fn profiled_run_records_fig5_stages_in_worker_children() {
        let collector = fmbs_obs::Collector::new();
        {
            let _guard = fmbs_obs::install(Some(collector.clone()));
            stereo_utilisation_samples(&[ProgramKind::News, ProgramKind::PopMusic], 3, 0.1, 2);
        }
        let calls = |name: &str| {
            collector
                .stage_stats()
                .iter()
                .find(|(s, _)| *s == name)
                .map_or(0, |(_, st)| st.calls)
        };
        // 6 window renders + one pop bed run per worker; 6 window
        // composes + the carrier table.
        let runs = workers(20_000) as u64;
        assert_eq!(calls(stages::PROGRAM_SYNTH), 6 + runs);
        assert_eq!(calls(stages::MPX_COMPOSE), 7);
        assert_eq!(calls(stages::BAND_POWERS), 6);
    }
}

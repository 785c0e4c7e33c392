//! Cross-correlation and time-alignment.
//!
//! Cooperative backscatter (§3.3) time-synchronises two unsynchronised FM
//! receivers by cross-correlating their (10×-resampled) audio outputs. The
//! functions here implement that in two tools:
//!
//! - [`find_lag`] searches a whole lag window, through the FFT when that
//!   is cheaper than the direct sums;
//! - [`find_lag_in`] scores a short run of lags with exact direct sums.
//!
//! Every direct sum runs through one kernel, which scores several lags
//! per pass over the signals.
//!
//! The cooperative decoder uses them coarse to fine: [`find_lag`] on the
//! phones' base-rate audio, then [`find_lag_in`] on the ×10 audio over
//! the few lags the coarse peak leaves open (see `fmbs_core::coop`).

use crate::complex::Complex;
use crate::fft::Fft;
use std::ops::{Range, RangeInclusive};

/// Cross-correlates `a` against `b` for lags in `[-max_lag, +max_lag]`.
///
/// Returns a vector of `2·max_lag + 1` values where index `i` corresponds
/// to lag `i as isize - max_lag` (a positive lag means `b` is delayed
/// relative to `a`). Uses the FFT when the signals are long enough for it
/// to win, otherwise the direct sums.
pub fn cross_correlate(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
    fmbs_obs::span!(fmbs_obs::stages::XCORR);
    if a.is_empty() || b.is_empty() {
        return vec![0.0; 2 * max_lag + 1];
    }
    let work = a.len().min(b.len());
    // Direct method costs work · (2·max_lag+1); the FFT path runs two
    // transforms of `fft_size` points, ~2·N·log N. Pick whichever is
    // cheaper.
    let direct_cost = work as f64 * (2 * max_lag + 1) as f64;
    let n_fft = fft_size(a.len(), b.len(), max_lag);
    let fft_cost = 2.0 * n_fft as f64 * (n_fft as f64).log2();
    if direct_cost <= fft_cost {
        let max_lag = max_lag as isize;
        cross_correlate_lags(a, b, -max_lag..=max_lag)
    } else {
        cross_correlate_fft(a, b, max_lag)
    }
}

/// The smallest power-of-two transform at which no lag in `±max_lag`
/// wraps around: circular index `-lag mod n` picks up only zero padding
/// outside the linear overlap once `n ≥ max(len) + max_lag`.
fn fft_size(a_len: usize, b_len: usize, max_lag: usize) -> usize {
    (a_len.max(b_len) + max_lag).next_power_of_two()
}

/// FFT-accelerated cross-correlation, mathematically identical to the
/// direct sums up to floating-point rounding.
///
/// Both real inputs share one complex transform (`a` in the real part,
/// `b` in the imaginary part), so the whole correlation is one forward
/// and one inverse FFT in one buffer, sized to the smallest power of two
/// at which no lag in `±max_lag` wraps around.
pub fn cross_correlate_fft(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
    let n = fft_size(a.len(), b.len(), max_lag);
    let fft = Fft::new(n);
    let mut z = vec![Complex::ZERO; n];
    for (zi, &x) in z.iter_mut().zip(a) {
        zi.re = x;
    }
    for (zi, &y) in z.iter_mut().zip(b) {
        zi.im = y;
    }
    fft.forward(&mut z);
    // Z = A + iB with A, B Hermitian, so with X = Z[k], Y = conj Z[n−k]:
    // A[k] = (X + Y)/2 and conj B[k] = i·conj(X − Y)/2. The product
    // P = A·conj(B) is Hermitian too, so P[n−k] = conj P[k].
    for k in 0..=n / 2 {
        let m = (n - k) % n;
        let (x, y) = (z[k], z[m].conj());
        // i·(X + Y)·conj(X − Y)/4; multiplying by i maps (re, im) to
        // (−im, re).
        let sd = (x + y) * (x - y).conj();
        let p = Complex::new(-sd.im, sd.re).scale(0.25);
        z[m] = p.conj();
        z[k] = p;
    }
    fft.inverse(&mut z);
    // With F(a)·conj(F(b)), the inverse at circular index k equals
    // Σ_i a[i]·b[i-k]. Our convention is corr(lag) = Σ_i a[i]·b[i+lag],
    // which is circular index (-lag) mod n.
    (-(max_lag as isize)..=(max_lag as isize))
        .map(|lag| z[(-lag).rem_euclid(n as isize) as usize].re)
        .collect()
}

/// Finds the lag (in samples) that best aligns `b` to `a`, searching
/// `[-max_lag, +max_lag]`. A positive result means `b` lags `a` by that
/// many samples. NaN correlation values are skipped (the last maximum
/// wins a tie); if every value is NaN the result is lag 0.
pub fn find_lag(a: &[f64], b: &[f64], max_lag: usize) -> isize {
    let corr = cross_correlate(a, b, max_lag);
    peak_index(&corr).map_or(0, |idx| idx as isize - max_lag as isize)
}

/// Finds the lag in `lags` that best aligns `b` to `a`, scoring each by
/// its exact direct sum (`cross_correlate_lags`) and picking as
/// [`find_lag`] does: NaN values are skipped and the last maximum wins a
/// tie. `None` when every value is NaN or `lags` is empty.
pub fn find_lag_in(a: &[f64], b: &[f64], lags: RangeInclusive<isize>) -> Option<isize> {
    fmbs_obs::span!(fmbs_obs::stages::XCORR);
    let first = *lags.start();
    let corr = cross_correlate_lags(a, b, lags);
    peak_index(&corr).map(|idx| first + idx as isize)
}

/// Lags scored per pass over the signals by [`cross_correlate_lags`].
const LAG_LANES: usize = 8;

/// Direct-sum cross-correlation at each lag of `lags`:
/// `corr(lag) = Σ_i a[i]·b[i + lag]`, which peaks at `+d` when `b` is a
/// copy of `a` delayed by `d` samples. Every lag's products are summed
/// in ascending index order from `0.0`, as the one-lag loop in the tests
/// (`cross_correlate_direct`) does, bit for bit.
///
/// The sums run `LAG_LANES` consecutive lags in lockstep, one
/// accumulator each, so a pass over `a` keeps eight independent add
/// chains in flight instead of one.
fn cross_correlate_lags(a: &[f64], b: &[f64], lags: RangeInclusive<isize>) -> Vec<f64> {
    let (first, last) = (*lags.start(), *lags.end());
    let mut out = Vec::with_capacity(lags.size_hint().0);
    let mut lag = first;
    while lag <= last {
        let acc = correlate_lanes(a, b, lag);
        let wanted = ((last - lag) as usize + 1).min(LAG_LANES);
        out.extend_from_slice(&acc[..wanted]);
        lag += LAG_LANES as isize;
    }
    out
}

/// The indices `i` where both `a[i]` and `b[i + lag]` exist.
fn overlap(a_len: usize, b_len: usize, lag: isize) -> Range<usize> {
    let start = (-lag).max(0) as usize;
    let end = (b_len as isize)
        .saturating_sub(lag)
        .clamp(0, a_len as isize) as usize;
    start..end.max(start)
}

/// Direct sums at lags `first..first + LAG_LANES`. Each lane sums its
/// own leading indices, then every lane steps through the indices all
/// of them share, then each sums its own trailing ones: ascending index
/// order per lane, as the one-lag loop adds them.
fn correlate_lanes(a: &[f64], b: &[f64], first: isize) -> [f64; LAG_LANES] {
    let lane_lag = |l: usize| first + l as isize;
    let mut acc = [0.0; LAG_LANES];
    let sum = |acc: &mut f64, lag: isize, range: Range<usize>| {
        for i in range {
            *acc += a[i] * b[(i as isize + lag) as usize];
        }
    };
    // The start of the overlap falls and its end falls as the lag grows:
    // the first lane starts last and the last lane ends first.
    let shared = overlap(a.len(), b.len(), first).start
        ..overlap(a.len(), b.len(), lane_lag(LAG_LANES - 1)).end;
    if shared.is_empty() {
        for (l, acc) in acc.iter_mut().enumerate() {
            sum(acc, lane_lag(l), overlap(a.len(), b.len(), lane_lag(l)));
        }
        return acc;
    }
    for (l, acc) in acc.iter_mut().enumerate() {
        sum(
            acc,
            lane_lag(l),
            overlap(a.len(), b.len(), lane_lag(l)).start..shared.start,
        );
    }
    let b_shared = &b[(shared.start as isize + first) as usize..];
    for (&x, window) in a[shared.clone()].iter().zip(b_shared.windows(LAG_LANES)) {
        let window: &[f64; LAG_LANES] = window.try_into().expect("windows of LAG_LANES");
        for (acc, &y) in acc.iter_mut().zip(window) {
            *acc += x * y;
        }
    }
    for (l, acc) in acc.iter_mut().enumerate() {
        sum(
            acc,
            lane_lag(l),
            shared.end..overlap(a.len(), b.len(), lane_lag(l)).end,
        );
    }
    acc
}

/// Index of the largest non-NaN value, the last one on a tie; `None`
/// when there is none.
fn peak_index(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if !v.is_nan() && best.is_none_or(|(_, b)| v >= b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Normalised correlation coefficient at zero lag, in [-1, 1].
pub fn correlation_coefficient(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let ma = a[..n].iter().sum::<f64>() / n as f64;
    let mb = b[..n].iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = a[i] - ma;
        let xb = b[i] - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{bits, edge_value};
    use crate::TAU;
    use proptest::prelude::*;

    /// The one-lag direct sums: the exact reference the lockstep kernel
    /// and the FFT path are pinned against.
    fn cross_correlate_direct(a: &[f64], b: &[f64], max_lag: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(2 * max_lag + 1);
        for lag in -(max_lag as isize)..=(max_lag as isize) {
            let mut acc = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                let j = i as isize + lag;
                if j >= 0 && (j as usize) < b.len() {
                    acc += ai * b[j as usize];
                }
            }
            out.push(acc);
        }
        out
    }

    fn noise_like(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-noise via a simple LCG — enough decorrelation
        // for alignment tests without pulling rand into the dsp crate.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn finds_known_integer_delay() {
        let a = noise_like(4_000, 7);
        let delay = 137usize;
        let mut b = vec![0.0; delay];
        b.extend_from_slice(&a);
        let lag = find_lag(&a, &b, 300);
        assert_eq!(lag, delay as isize);
    }

    #[test]
    fn finds_negative_delay() {
        let b = noise_like(4_000, 9);
        let delay = 55usize;
        let mut a = vec![0.0; delay];
        a.extend_from_slice(&b);
        // a is b delayed => b leads => negative lag.
        let lag = find_lag(&a, &b, 200);
        assert_eq!(lag, -(delay as isize));
    }

    #[test]
    fn zero_lag_autocorrelation_is_energy() {
        let a = noise_like(1_000, 3);
        let corr = cross_correlate(&a, &a, 10);
        let energy: f64 = a.iter().map(|x| x * x).sum();
        assert!((corr[10] - energy).abs() < 1e-8);
        // And it is the maximum.
        assert!(corr.iter().all(|&c| c <= corr[10] + 1e-12));
    }

    #[test]
    fn alignment_survives_noise_and_scaling() {
        // The cooperative decoder's real situation: one receiver hears the
        // same audio delayed, scaled by AGC, plus extra content.
        let base = noise_like(8_000, 11);
        let delay = 42;
        let extra = noise_like(8_000 + delay, 13);
        let b: Vec<f64> = (0..8_000 + delay)
            .map(|i| {
                let host = if i >= delay { base[i - delay] } else { 0.0 };
                0.6 * host + 0.1 * extra[i]
            })
            .collect();
        let lag = find_lag(&base, &b, 100);
        assert_eq!(lag, delay as isize);
    }

    #[test]
    fn correlation_coefficient_bounds() {
        let a = noise_like(2_000, 21);
        let neg: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((correlation_coefficient(&a, &a) - 1.0).abs() < 1e-12);
        assert!((correlation_coefficient(&a, &neg) + 1.0).abs() < 1e-12);
        let b = noise_like(2_000, 22);
        let c = correlation_coefficient(&a, &b);
        assert!(c.abs() < 0.1, "independent noise corr {c}");
    }

    #[test]
    fn tone_correlation_peaks_periodically() {
        let fs = 8_000.0;
        let a: Vec<f64> = (0..800)
            .map(|i| (TAU * 400.0 * i as f64 / fs).sin())
            .collect();
        let corr = cross_correlate(&a, &a, 40);
        // Period = fs/400 = 20 samples; lag 20 should also be a local peak.
        assert!(corr[40 + 20] > corr[40 + 10]);
    }

    fn assert_fft_matches_direct(a: &[f64], b: &[f64], max_lag: usize) {
        let d = cross_correlate_direct(a, b, max_lag);
        let f = cross_correlate_fft(a, b, max_lag);
        assert_eq!(d.len(), f.len());
        for (i, (x, y)) in d.iter().zip(&f).enumerate() {
            assert!(
                (x - y).abs() < 1e-8,
                "lens ({}, {}), max_lag {max_lag}, lag {}: {x} vs {y}",
                a.len(),
                b.len(),
                i as isize - max_lag as isize
            );
        }
    }

    #[test]
    fn direct_and_fft_agree() {
        // Past the first case, each puts max(len) + max_lag at or just
        // past a power of two, the tightest transform that must not wrap.
        let cases: [(usize, usize, usize); 9] = [
            (700, 700, 50),
            (200, 56, 56), // a longer than b
            (56, 200, 56), // b longer than a
            (100, 29, 29), // one past a power of two: n doubles
            (40, 88, 40),  // max_lag ≥ min(len)
            (88, 40, 40),  // ... with the lengths swapped
            (5, 7, 25),    // max_lag past both lengths
            (256, 200, 0), // max_lag = 0
            (1, 1, 0),     // one-point transform
        ];
        for (i, &(la, lb, max_lag)) in cases.iter().enumerate() {
            let a = noise_like(la, 100 + i as u64);
            let b = noise_like(lb, 200 + i as u64);
            assert_fft_matches_direct(&a, &b, max_lag);
        }
    }

    #[test]
    fn fft_finds_a_delay_of_exactly_max_lag() {
        let max_lag = 64;
        let base = noise_like(192, 31);
        let mut delayed = vec![0.0; max_lag];
        delayed.extend_from_slice(&base);
        for (a, b, want) in [
            (&base, &delayed, max_lag as isize),
            (&delayed, &base, -(max_lag as isize)),
        ] {
            assert_fft_matches_direct(a, b, max_lag);
            let f = cross_correlate_fft(a, b, max_lag);
            assert_eq!(peak_index(&f).unwrap() as isize - max_lag as isize, want);
        }
    }

    #[test]
    fn find_lag_matches_the_direct_argmax_on_noise() {
        for seed in 0..6u64 {
            let len = 1_500 + 211 * seed as usize;
            let delay = (seed as isize * 37) - 90;
            let max_lag = 120 + 13 * seed as usize;
            let src = noise_like(len + 200, 40 + seed);
            let extra = noise_like(len, 60 + seed);
            let a: Vec<f64> = src[100..100 + len].to_vec();
            let b: Vec<f64> = (0..len)
                .map(|i| 0.7 * src[(100 + i as isize - delay) as usize] + 0.3 * extra[i])
                .collect();
            let direct = peak_index(&cross_correlate_direct(&a, &b, max_lag)).unwrap();
            let lag = find_lag(&a, &b, max_lag);
            assert_eq!(lag, direct as isize - max_lag as isize, "seed {seed}");
            assert_eq!(lag, delay, "seed {seed}");
        }
    }

    #[test]
    fn find_lag_matches_the_direct_argmax_in_coop_geometry() {
        // The cooperative decoder's search, scaled down: a speech-like
        // signal (low-passed noise under a syllabic envelope) upsampled
        // ×10, a delay of a few hundred samples, max_lag ≈ 1 000.
        use crate::resample::Upsampler;
        let fs = 2_400.0;
        let raw = noise_like(2_600, 5);
        let speech: Vec<f64> = raw
            .windows(4)
            .enumerate()
            .map(|(i, w)| {
                let env = 0.5 + 0.5 * (TAU * 4.0 * i as f64 / fs).sin().abs();
                env * w.iter().sum::<f64>() / 4.0
            })
            .collect();
        let host = Upsampler::new(10, 8).process(&speech);
        let delay = 317;
        let len = 24_000;
        let hiss = noise_like(len, 6);
        let a = &host[delay..delay + len];
        let b: Vec<f64> = (0..len).map(|i| 0.6 * host[i] + 0.02 * hiss[i]).collect();
        let max_lag = 1_000;
        let direct = peak_index(&cross_correlate_direct(a, &b, max_lag)).unwrap();
        let lag = find_lag(a, &b, max_lag);
        assert_eq!(lag, direct as isize - max_lag as isize);
        // `b` repeats `a` `delay` samples later.
        assert_eq!(lag, delay as isize);
    }

    #[test]
    fn peak_index_skips_nan_and_keeps_the_last_maximum() {
        assert_eq!(
            peak_index(&[1.0, f64::NAN, 3.0, f64::NAN, 3.0, 2.0]),
            Some(4)
        );
        assert_eq!(peak_index(&[f64::NAN, -1.0]), Some(1));
        assert_eq!(peak_index(&[f64::NAN, f64::NAN]), None);
    }

    #[test]
    fn find_lag_on_nan_input_returns_instead_of_panicking() {
        let mut a = noise_like(2_000, 71);
        a[500] = f64::NAN;
        let b = noise_like(2_000, 72);
        // The FFT path spreads one NaN to every lag: no peak, lag 0.
        assert_eq!(find_lag(&a, &b, 300), 0);
        // The direct path (a short search) keeps finite lags clear of
        // the NaN sample and still finds the delay.
        let base = noise_like(40, 73);
        let mut delayed = vec![0.0; 3];
        delayed.extend_from_slice(&base);
        delayed.push(f64::NAN);
        assert_eq!(find_lag(&base, &delayed, 4), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The lockstep sums equal the one-lag direct sums bit for bit
        /// at any run of lags — past either end, longer than a lane
        /// group or not, over empty and unequal signals — with signed
        /// zeros, subnormals, NaN and infinities in the input.
        #[test]
        fn lockstep_lags_equal_direct_sums(
            raw_a in prop::collection::vec(any::<u64>(), 0..90),
            raw_b in prop::collection::vec(any::<u64>(), 0..90),
            first in -100isize..100,
            count in 0usize..30,
            mode in 0u8..3,
        ) {
            let a: Vec<f64> = raw_a.iter().map(|&x| edge_value(x, mode)).collect();
            let b: Vec<f64> = raw_b.iter().map(|&x| edge_value(x, mode)).collect();
            let max_lag = 130;
            let direct = cross_correlate_direct(&a, &b, max_lag);
            let last = first + count as isize - 1;
            let at = |lag: isize| direct[(lag + max_lag as isize) as usize];
            let want: Vec<f64> = (first..=last).map(at).collect();
            let got = cross_correlate_lags(&a, &b, first..=last);
            prop_assert_eq!(bits(got), bits(want.iter().copied()));
            let best = peak_index(&want).map(|i| first + i as isize);
            prop_assert_eq!(find_lag_in(&a, &b, first..=last), best);
        }
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(cross_correlate(&[], &[1.0], 3).len(), 7);
        assert_eq!(correlation_coefficient(&[], &[]), 0.0);
    }
}

//! Iterative radix-2 FFT with pre-computed twiddle factors.
//!
//! The simulator uses the FFT for spectrum measurements (audio SNR, survey
//! occupancy, the Bark-band analysis in the PESQ-like metric), overlap-save
//! filtering and FFT-based cross-correlation. Sizes are always powers of
//! two; [`Fft::new`] panics otherwise so misuse fails loudly at
//! construction rather than silently corrupting spectra.
//!
//! The kernel is the textbook decimation-in-time radix-2 transform, run
//! two stages per pass over memory (radix-2²) with a table-driven bit
//! reversal; see [`Fft`]. It computes every butterfly exactly as the
//! stage-by-stage loop does, so each output bit is the same — tests pin
//! it against that loop with `to_bits`.

use crate::complex::Complex;
use crate::TAU;
use std::sync::{Arc, Mutex};

/// The process-wide forward twiddle table, stage by stage: the stage
/// whose butterflies span `2h` points reads entries `h − 1..2h − 1`,
/// entry `k` being `e^{-2πik/2h}`. No entry depends on the transform
/// size, so the table for size `n` is the first `n − 1` entries of the
/// table for any larger size; it only ever grows.
static TWIDDLES: Mutex<Option<Arc<[Complex]>>> = Mutex::new(None);

/// Returns the shared twiddle table, grown to at least `n − 1` entries.
fn shared_twiddles(n: usize) -> Arc<[Complex]> {
    // The table is replaced whole, never mutated in place, so a
    // poisoned lock still guards a consistent value.
    let mut shared = TWIDDLES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(table) = shared.as_ref().filter(|t| t.len() + 1 >= n) {
        return table.clone();
    }
    let have = shared.as_ref().map_or(&[][..], |t| &t[..]);
    let mut table = Vec::with_capacity(n - 1);
    table.extend_from_slice(have);
    let mut half = have.len() + 1;
    while half < n {
        // `-TAU·k / 2h` rounds exactly as the per-size formula
        // `-TAU·(k·n/2h) / n` did: both scale one rounded product by a
        // power of two.
        table.extend((0..half).map(|k| Complex::from_angle(-TAU * k as f64 / (2 * half) as f64)));
        half *= 2;
    }
    let table: Arc<[Complex]> = table.into();
    *shared = Some(table.clone());
    table
}

/// The process-wide bit-reversal permutations, one per `log2 n`, built
/// on first use of a size and shared by every plan of that size.
static BIT_REVERSALS: Mutex<Vec<Option<Arc<BitReversal>>>> = Mutex::new(Vec::new());

/// The swap list visits indices in tiles of `2^TILE_BITS × 2^TILE_BITS`:
/// a tile's indices share their middle bits, so its partners share
/// theirs too, and both sides of every swap in a tile fall in the same
/// few cache lines (8 points are 128 bytes).
const TILE_BITS: u32 = 3;

/// The bit-reversal permutation of one transform size.
#[derive(Debug)]
struct BitReversal {
    /// `rev[i]` is `i` with its `log2 n` low bits reversed.
    rev: Box<[u32]>,
    /// Every pair `(i, rev[i])` with `i < rev[i]`, in cache tiles: the
    /// swaps that permute a buffer in place, with no compare per index.
    swaps: Box<[(u32, u32)]>,
}

impl BitReversal {
    fn new(bits: u32) -> Self {
        let n = 1u32 << bits;
        let rev: Box<[u32]> = (0..n)
            .map(|i| i.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
            .collect();
        // Index `i = (hi, mid, lo)` with `TILE_BITS`-bit `hi` and `lo`
        // swaps with `(rev lo, rev mid, rev hi)`; walking `hi` and `lo`
        // inside one `mid` keeps both ends in tile-sized runs. Too few
        // bits for a tile: one tile of everything.
        let tile = if bits >= 2 * TILE_BITS { TILE_BITS } else { 0 };
        let side = 1u32 << tile;
        let mut swaps = Vec::with_capacity(n as usize / 2);
        for mid in 0..n >> (2 * tile) {
            for hi in 0..side {
                for lo in 0..side {
                    let i = (hi << (bits - tile)) | (mid << tile) | lo;
                    let j = rev[i as usize];
                    if i < j {
                        swaps.push((i, j));
                    }
                }
            }
        }
        BitReversal {
            rev,
            swaps: swaps.into(),
        }
    }
}

/// Returns the shared bit-reversal permutation of size `n = 2^bits`.
fn shared_bit_reversal(bits: u32) -> Arc<BitReversal> {
    // Entries are inserted whole and never mutated, so a poisoned lock
    // still guards consistent values.
    let mut shared = BIT_REVERSALS.lock().unwrap_or_else(|e| e.into_inner());
    let slot = bits as usize;
    if shared.len() <= slot {
        shared.resize(slot + 1, None);
    }
    shared[slot]
        .get_or_insert_with(|| Arc::new(BitReversal::new(bits)))
        .clone()
}

/// A planned FFT of a fixed power-of-two size.
///
/// Construction takes handles on two process-wide tables, each built
/// once per process: the forward twiddles (grown on first use of a
/// larger size) and this size's bit-reversal permutation. The twiddles
/// are stored stage by stage so each butterfly stage reads one
/// contiguous run of them.
///
/// The kernel runs the radix-2 stages two per pass over the buffer
/// (radix-2²), with one plain stage last when the stage count is odd.
/// Each pass loads four points, runs on them the four butterflies the
/// two stages would, and stores four points. Every butterfly is the
/// radix-2 one, `x ± b·w` with the same complex multiply and operand
/// order, so the output is bit-for-bit that of running the stages one
/// at a time; only the memory traffic halves. The bit reversal is a
/// precomputed, cache-tiled list of swaps, or, through
/// [`Fft::forward_real`], a gather on load.
///
/// # Example
/// ```
/// use fmbs_dsp::fft::Fft;
/// use fmbs_dsp::Complex;
///
/// let fft = Fft::new(8);
/// let mut buf: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
/// fft.forward(&mut buf);
/// fft.inverse(&mut buf);
/// assert!((buf[3].re - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    // The shared forward twiddles (see `TWIDDLES`); this plan reads its
    // first `n − 1` entries.
    twiddles: Arc<[Complex]>,
    bit_reversal: Arc<BitReversal>,
}

impl Fft {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        Fft {
            n,
            twiddles: shared_twiddles(n),
            bit_reversal: shared_bit_reversal(n.trailing_zeros()),
        }
    }

    /// The planned transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned size is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X[k] = Σ x[n]·e^{-2πikn/N}`.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.permute(buf);
        self.butterflies(buf, |w| w);
    }

    /// Forward DFT of the real sequence `input`, zero-padded to the
    /// planned size, into `buf`: bit-for-bit [`Fft::forward`] of
    /// `Complex::new(input[i], 0.0)`. The input is read in bit-reversed
    /// order instead of permuted afterwards.
    ///
    /// # Panics
    /// Panics if `buf` is not the planned size or `input` is longer.
    pub fn forward_real(&self, input: &[f64], buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must match planned size");
        assert!(input.len() <= self.n, "input longer than the planned size");
        for (b, &r) in buf.iter_mut().zip(self.bit_reversal.rev.iter()) {
            *b = Complex::new(input.get(r as usize).copied().unwrap_or(0.0), 0.0);
        }
        self.butterflies(buf, |w| w);
    }

    /// In-place inverse DFT, normalised by `1/N` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.permute(buf);
        self.butterflies(buf, Complex::conj);
        let scale = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn permute(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must match planned size");
        for &(i, j) in self.bit_reversal.swaps.iter() {
            buf.swap(i as usize, j as usize);
        }
    }

    /// Runs the butterfly stages over a bit-reversed `buf`, each twiddle
    /// mapped through `twiddle` (identity forward, conjugate inverse —
    /// one monomorphised kernel each).
    fn butterflies(&self, buf: &mut [Complex], twiddle: impl Fn(Complex) -> Complex + Copy) {
        let n = self.n;
        let tw = &self.twiddles;
        let mut half = 1;
        if n >= 4 {
            // Stages 1 and 2: every quad reads the same three twiddles.
            let (w1, w2, w3) = (twiddle(tw[0]), twiddle(tw[1]), twiddle(tw[2]));
            for quad in buf.chunks_exact_mut(4) {
                let [x0, x1, x2, x3] = quad else {
                    unreachable!("chunks of four")
                };
                radix4(x0, x1, x2, x3, w1, w2, w3);
            }
            half = 4;
        }
        while 4 * half <= n {
            let tw1 = &tw[half - 1..2 * half - 1];
            let (tw2_lo, tw2_hi) = tw[2 * half - 1..4 * half - 1].split_at(half);
            for block in buf.chunks_exact_mut(4 * half) {
                let (q01, q23) = block.split_at_mut(2 * half);
                let (q0, q1) = q01.split_at_mut(half);
                let (q2, q3) = q23.split_at_mut(half);
                radix4_pass([q0, q1, q2, q3], [tw1, tw2_lo, tw2_hi], twiddle);
            }
            half *= 4;
        }
        if half < n {
            // An odd stage count: the last stage runs alone.
            let (lo, hi) = buf.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi).zip(&tw[half - 1..2 * half - 1]) {
                let x = *a;
                let y = *b * twiddle(w);
                *a = x + y;
                *b = x - y;
            }
        }
    }
}

/// Two radix-2 stages on the quad `x0..x3` (points `half` apart): the
/// stage spanning `2·half` pairs `(x0, x1)` and `(x2, x3)` under `w1`,
/// then the stage spanning `4·half` pairs `(x0, x2)` under `w2` and
/// `(x1, x3)` under `w3`. Each butterfly is `x ± b·w` exactly as a
/// one-stage loop computes it.
#[inline(always)]
fn radix4(
    x0: &mut Complex,
    x1: &mut Complex,
    x2: &mut Complex,
    x3: &mut Complex,
    w1: Complex,
    w2: Complex,
    w3: Complex,
) {
    let y1 = *x1 * w1;
    let (a0, a1) = (*x0 + y1, *x0 - y1);
    let y3 = *x3 * w1;
    let (a2, a3) = (*x2 + y3, *x2 - y3);
    let y2 = a2 * w2;
    *x0 = a0 + y2;
    *x2 = a0 - y2;
    let y3 = a3 * w3;
    *x1 = a1 + y3;
    *x3 = a1 - y3;
}

/// One block of a fused pass: quad `k` is the `k`-th point of each
/// quarter, under the `k`-th twiddle of each table. Kept out of line
/// so the four quarters arrive as distinct `&mut` arguments, which
/// lets the compiler vectorise across `k` without run-time alias
/// checks; each lane still performs the scalar butterfly's operations
/// in its order.
#[inline(never)]
fn radix4_pass(
    [q0, q1, q2, q3]: [&mut [Complex]; 4],
    [tw1, tw2_lo, tw2_hi]: [&[Complex]; 3],
    twiddle: impl Fn(Complex) -> Complex,
) {
    let quads = q0.iter_mut().zip(q1).zip(q2.iter_mut().zip(q3));
    let twiddles = tw1.iter().zip(tw2_lo.iter().zip(tw2_hi));
    for (((x0, x1), (x2, x3)), (&w1, (&w2, &w3))) in quads.zip(twiddles) {
        radix4(x0, x1, x2, x3, twiddle(w1), twiddle(w2), twiddle(w3));
    }
}

/// Computes the one-sided power spectrum of a real signal.
///
/// The input is zero-padded (or truncated) to `n` points (`n` a power of
/// two), windowed with `window`, and transformed. The output has `n/2 + 1`
/// bins; bin `k` corresponds to frequency `k · sample_rate / n`. Power is
/// linear (not dB) and normalised so that a full-scale sine at a bin centre
/// measures ~0.25·(window gain)² regardless of `n`.
pub fn power_spectrum(signal: &[f64], window: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two(), "spectrum size must be a power of two");
    assert_eq!(
        window.len(),
        n.min(window.len()),
        "window shorter than n is allowed"
    );
    let fft = Fft::new(n);
    let windowed: Vec<f64> = (0..n.min(signal.len()))
        .map(|i| signal[i] * window.get(i).copied().unwrap_or(0.0))
        .collect();
    let mut buf = vec![Complex::ZERO; n];
    fft.forward_real(&windowed, &mut buf);
    let scale = 1.0 / (n as f64 * n as f64);
    (0..=n / 2).map(|k| buf[k].norm_sqr() * scale).collect()
}

/// Averaged periodogram (Welch's method) with 50 % overlap and a Hann
/// window. Returns `n/2 + 1` one-sided power bins.
///
/// This is what the survey crate uses to measure band power over long
/// captures without the variance of a single FFT.
pub fn welch_psd(signal: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two(), "segment size must be a power of two");
    let window = crate::windows::Window::Hann.coefficients(n);
    if signal.len() < n {
        // Too short for even one segment: fall back to a single padded FFT.
        return power_spectrum(signal, &window, n);
    }
    // One plan and one buffer for every segment; each segment's bins are
    // scaled and accumulated exactly as `power_spectrum` computes them.
    let fft = Fft::new(n);
    let scale = 1.0 / (n as f64 * n as f64);
    let mut windowed = vec![0.0; n];
    let mut buf = vec![Complex::ZERO; n];
    let mut acc = vec![0.0; n / 2 + 1];
    let mut count = 0usize;
    for seg in signal.windows(n).step_by((n / 2).max(1)) {
        for ((v, &x), &w) in windowed.iter_mut().zip(seg).zip(&window) {
            *v = x * w;
        }
        fft.forward_real(&windowed, &mut buf);
        for (a, z) in acc.iter_mut().zip(&buf) {
            *a += z.norm_sqr() * scale;
        }
        count += 1;
    }
    for a in acc.iter_mut() {
        *a /= count as f64;
    }
    acc
}

/// Sums the power of `psd` bins whose centre frequency falls in
/// `[f_lo, f_hi)` (Hz), given the sample rate the PSD was computed at.
pub fn band_power(psd: &[f64], sample_rate: f64, f_lo: f64, f_hi: f64) -> f64 {
    let n = (psd.len() - 1) * 2;
    let bin_hz = sample_rate / n as f64;
    psd.iter()
        .enumerate()
        .filter(|(k, _)| {
            let f = *k as f64 * bin_hz;
            f >= f_lo && f < f_hi
        })
        .map(|(_, p)| *p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::Window;
    use proptest::prelude::*;

    /// The original strided radix-2 loop: one half-size twiddle table
    /// walked with stride `n / len`, a per-butterfly `inverse` branch.
    fn reference_transform(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        if n == 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::from_angle(-TAU * k as f64 / n as f64))
            .collect();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for v in buf.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }

    fn bits(buf: &[Complex]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn stage_contiguous_loop_matches_reference_bit_for_bit() {
        // Plan a larger size first, so every size below reads a prefix of
        // a table grown past it: bit-identity must not depend on planning
        // order.
        assert_eq!(Fft::new(1 << 16).len(), 1 << 16);
        for log_n in 0..=14 {
            let n = 1usize << log_n;
            let fft = Fft::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.731).sin(), (i as f64 * 0.173).cos() - 0.2))
                .collect();
            for inverse in [false, true] {
                let mut want = input.clone();
                reference_transform(&mut want, inverse);
                let mut got = input.clone();
                if inverse {
                    fft.inverse(&mut got);
                } else {
                    fft.forward(&mut got);
                }
                assert_eq!(bits(&got), bits(&want), "n = {n}, inverse = {inverse}");
            }
        }
    }

    /// Bit patterns of IQ values, NaN canonical (see `testing::bits`).
    fn iq_bits(buf: &[Complex]) -> Vec<u64> {
        crate::testing::bits(buf.iter().flat_map(|z| [z.re, z.im]))
    }

    /// `n` kernel inputs drawn from `seed` by `testing::edge_value`.
    fn edge_values(n: usize, seed: u64, mode: u8) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                crate::testing::edge_value(state, mode)
            })
            .collect()
    }

    /// `forward_real` against the reference transform of the same real
    /// input zero-padded to `n`.
    fn check_forward_real(fft: &Fft, input: &[f64]) -> Result<(), String> {
        let mut want = vec![Complex::ZERO; fft.len()];
        for (w, &x) in want.iter_mut().zip(input) {
            *w = Complex::new(x, 0.0);
        }
        reference_transform(&mut want, false);
        // Stale contents must not leak into the result.
        let mut got = vec![Complex::new(f64::NAN, 7.0); fft.len()];
        fft.forward_real(input, &mut got);
        if iq_bits(&got) == iq_bits(&want) {
            Ok(())
        } else {
            Err(format!("n = {}, input length {}", fft.len(), input.len()))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused kernel, forward and inverse, and the gathering
        /// `forward_real` at every zero-padded length, equal the
        /// reference loop bit for bit at sizes 2^0..2^17, with signed
        /// zeros, subnormals, NaN and infinities in the input.
        #[test]
        fn fused_kernel_matches_reference_bit_for_bit(
            log_n in 0u32..=17,
            seed in any::<u64>(),
            pad in any::<u64>(),
            mode in 0u8..3,
        ) {
            let n = 1usize << log_n;
            let fft = Fft::new(n);
            let values = edge_values(2 * n, seed, mode);
            let input: Vec<Complex> =
                values.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect();
            for inverse in [false, true] {
                let mut want = input.clone();
                reference_transform(&mut want, inverse);
                let mut got = input.clone();
                if inverse {
                    fft.inverse(&mut got);
                } else {
                    fft.forward(&mut got);
                }
                prop_assert!(iq_bits(&got) == iq_bits(&want), "n = {}, inverse = {}", n, inverse);
            }
            let len = (pad % (n as u64 + 1)) as usize;
            prop_assert_eq!(check_forward_real(&fft, &values[..len]), Ok(()));
        }
    }

    #[test]
    fn bit_reversal_swaps_cover_every_pair_once() {
        for bits in 0..=12 {
            let table = BitReversal::new(bits);
            let mut want: Vec<(u32, u32)> = (0..1u32 << bits)
                .filter_map(|i| (i < table.rev[i as usize]).then_some((i, table.rev[i as usize])))
                .collect();
            let mut got = table.swaps.to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "bits = {bits}");
        }
        // Plans of one size share one table.
        assert!(Arc::ptr_eq(
            &Fft::new(64).bit_reversal,
            &Fft::new(64).bit_reversal
        ));
    }

    #[test]
    fn welch_equals_mean_of_per_segment_spectra() {
        let signal: Vec<f64> = (0..5_000)
            .map(|i| (i as f64 * 0.05).sin() + 0.3 * (i as f64 * 1.7).cos())
            .collect();
        for n in [64, 256, 1024] {
            let window = Window::Hann.coefficients(n);
            let mut acc = vec![0.0; n / 2 + 1];
            let mut count = 0usize;
            let mut start = 0;
            while start + n <= signal.len() {
                let seg = power_spectrum(&signal[start..start + n], &window, n);
                for (a, s) in acc.iter_mut().zip(&seg) {
                    *a += s;
                }
                count += 1;
                start += n / 2;
            }
            let want: Vec<u64> = acc.iter().map(|a| (a / count as f64).to_bits()).collect();
            let got: Vec<u64> = welch_psd(&signal, n).iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn welch_with_one_point_segments_terminates() {
        // n = 1 gives a zero half-segment hop; the hop must still advance.
        assert_eq!(welch_psd(&[1.0], 1).len(), 1);
        assert_eq!(welch_psd(&[1.0, -2.0, 0.5], 1).len(), 1);
    }

    #[test]
    fn forward_of_impulse_is_flat() {
        let fft = Fft::new(16);
        let mut buf = vec![Complex::ZERO; 16];
        buf[0] = Complex::ONE;
        fft.forward(&mut buf);
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let fft = Fft::new(64);
        let orig: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut buf = orig.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_correct_bin() {
        let n = 128;
        let fft = Fft::new(n);
        let k0 = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(TAU * k0 as f64 * i as f64 / n as f64))
            .collect();
        fft.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 256;
        let fft = Fft::new(n);
        let time: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let e_time: f64 = time.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = time.clone();
        fft.forward(&mut freq);
        let e_freq: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() / e_time < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let fft = Fft::new(n);
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft.forward(&mut fa);
        fft.forward(&mut fb);
        fft.forward(&mut fab);
        for i in 0..n {
            assert!((fab[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Fft::new(12);
    }

    #[test]
    fn size_one_is_identity() {
        let fft = Fft::new(1);
        let mut buf = vec![Complex::new(2.5, -1.0)];
        fft.forward(&mut buf);
        assert_eq!(buf[0], Complex::new(2.5, -1.0));
    }

    #[test]
    fn power_spectrum_finds_tone() {
        let n = 1024;
        let fs = 48_000.0;
        let f0 = 3_000.0;
        let signal: Vec<f64> = (0..n).map(|i| (TAU * f0 * i as f64 / fs).sin()).collect();
        let window = Window::Hann.coefficients(n);
        let psd = power_spectrum(&signal, &window, n);
        let peak_bin = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_freq = peak_bin as f64 * fs / n as f64;
        assert!((peak_freq - f0).abs() < fs / n as f64 * 1.5);
    }

    #[test]
    fn band_power_splits_two_tones() {
        let n = 4096;
        let fs = 48_000.0;
        let signal: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (TAU * 1_000.0 * t).sin() + 0.1 * (TAU * 10_000.0 * t).sin()
            })
            .collect();
        let psd = welch_psd(&signal, 1024);
        let low = band_power(&psd, fs, 500.0, 1_500.0);
        let high = band_power(&psd, fs, 9_500.0, 10_500.0);
        let ratio = low / high;
        // Amplitude ratio 10 => power ratio 100.
        assert!(ratio > 50.0 && ratio < 200.0, "ratio {ratio}");
    }

    #[test]
    fn welch_on_short_signal_falls_back() {
        let psd = welch_psd(&[1.0, 0.0, -1.0], 8);
        assert_eq!(psd.len(), 5);
    }
}

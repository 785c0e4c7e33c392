//! Iterative radix-2 FFT with pre-computed twiddle factors.
//!
//! The simulator uses the FFT for spectrum measurements (audio SNR, survey
//! occupancy, the Bark-band analysis in the PESQ-like metric) and for
//! FFT-based cross-correlation in the cooperative decoder. Sizes are always
//! powers of two; [`Fft::new`] panics otherwise so misuse fails loudly at
//! construction rather than silently corrupting spectra.

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

/// A planned FFT of a fixed power-of-two size.
///
/// Construction builds the bit-reversal permutation and takes a handle
/// on the process-wide twiddle table (grown on first use of a larger
/// size, so planning runs no `sin_cos` for a size already seen). The
/// twiddles are stored stage by stage so each butterfly stage reads one
/// contiguous run of them; [`Fft::forward`] and [`Fft::inverse`] then
/// run without allocating or bounds-checking per butterfly.
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
    bitrev: Vec<u32>,
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
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        Fft {
            n,
            twiddles: shared_twiddles(n),
            bitrev,
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

    fn permute(&self, buf: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
    }

    /// Bit-reverses `buf`, then runs the radix-2 butterfly stages with
    /// each twiddle mapped through `twiddle` (identity forward, conjugate
    /// inverse — one monomorphised loop each).
    fn butterflies(&self, buf: &mut [Complex], twiddle: impl Fn(Complex) -> Complex) {
        assert_eq!(buf.len(), self.n, "buffer length must match planned size");
        self.permute(buf);
        let mut half = 1;
        while half < self.n {
            let tw = &self.twiddles[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let x = *a;
                    let y = *b * twiddle(w);
                    *a = x + y;
                    *b = x - y;
                }
            }
            half *= 2;
        }
    }

    /// In-place forward DFT: `X[k] = Σ x[n]·e^{-2πikn/N}`.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.butterflies(buf, |w| w);
    }

    /// In-place inverse DFT, normalised by `1/N` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.butterflies(buf, Complex::conj);
        let scale = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
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
    let mut buf = vec![Complex::ZERO; n];
    for i in 0..n.min(signal.len()) {
        let w = if i < window.len() { window[i] } else { 0.0 };
        buf[i] = Complex::new(signal[i] * w, 0.0);
    }
    fft.forward(&mut buf);
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
    let mut buf = vec![Complex::ZERO; n];
    let mut acc = vec![0.0; n / 2 + 1];
    let mut count = 0usize;
    for seg in signal.windows(n).step_by((n / 2).max(1)) {
        for ((b, &x), &w) in buf.iter_mut().zip(seg).zip(&window) {
            *b = Complex::new(x * w, 0.0);
        }
        fft.forward(&mut buf);
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

//! FFT convolution via overlap-save.
//!
//! Long FIR filters applied to long signals are the simulator's hottest
//! loops: the fast tier's 301-tap capture filter runs over every sweep
//! point, and the physical tier drags a 127-tap channel filter across
//! megasamples of IQ. Direct-form cost is `O(taps × len)`; overlap-save
//! block convolution does the same linear convolution in
//! `O(len · log taps)` by multiplying spectra block by block.
//!
//! [`OverlapSave`] (real) and [`OverlapSaveComplex`] (IQ) are *streaming*
//! engines: like [`crate::fir::Fir::process`], state persists across
//! calls, so chunked input produces bit-identical output to one large
//! call, and output `y[i]` equals the direct form's
//! `Σ taps[j]·x[i−j]` to within floating-point rounding (≲ 1e-12 of the
//! signal scale; property tests in this crate pin 1e-9).
//!
//! [`fft_convolution_wins`] is the direct-vs-FFT crossover heuristic the
//! rest of the workspace routes through (see
//! [`crate::fir::Fir::filter_aligned`]).

use crate::complex::Complex;
use crate::fft::Fft;

/// Picks FFT (overlap-save) convolution over the direct form.
///
/// The direct form costs ≈ `taps` multiply-accumulates per sample; the
/// FFT form costs ≈ `2·(N/L)·log₂N` butterfly operations per sample with
/// `N ≈ 4·taps` and `L = N − taps + 1`, i.e. roughly `10·log₂(taps)`.
/// The crossover therefore sits near a few dozen taps; below it, and for
/// signals too short to amortise planning the transform (an `N`-entry
/// bit-reversal table; the twiddles come from the shared table in
/// [`crate::fft`], so planning runs no `sin_cos` for a size seen
/// before), the direct form stays faster. The thresholds predate the
/// shared table and stay as they are: moving them would switch filters
/// between the two forms and change output bytes.
pub fn fft_convolution_wins(taps: usize, len: usize) -> bool {
    taps >= 48 && len >= 256 && len >= 2 * taps
}

/// The planned FFT size for a tap count: the smallest power of two with
/// a block length (`N − taps + 1`) of at least `3·taps`, so each
/// transform carries at least three taps' worth of fresh samples.
pub fn default_fft_size(taps: usize) -> usize {
    (4 * taps.max(1)).next_power_of_two()
}

/// Streaming overlap-save convolution of a real signal with a fixed FIR.
///
/// # Example
/// ```
/// use fmbs_dsp::fftconv::OverlapSave;
/// use fmbs_dsp::fir::{Fir, FirDesign};
///
/// let design = FirDesign { taps: 101, ..Default::default() }.lowpass(48_000.0, 4_000.0);
/// let mut direct = design.clone();
/// let mut fast = OverlapSave::new(design.taps());
/// let x: Vec<f64> = (0..2_000).map(|i| (i as f64 * 0.05).sin()).collect();
/// let yd = direct.process(&x);
/// let yf = fast.process(&x);
/// for (a, b) in yd.iter().zip(&yf) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct OverlapSave {
    m: usize, // tap count
    l: usize, // new samples per block = n - m + 1
    fft: Fft,
    spectrum: Vec<Complex>, // FFT of the zero-padded taps
    history: Vec<f64>,      // last m-1 input samples (zeros initially)
    scratch: Vec<Complex>,
}

impl OverlapSave {
    /// Plans an engine for `taps` with the default FFT size.
    pub fn new(taps: &[f64]) -> Self {
        Self::with_fft_size(taps, default_fft_size(taps.len()))
    }

    /// Plans an engine with an explicit FFT size (power of two, larger
    /// than the tap count).
    ///
    /// # Panics
    /// Panics when `taps` is empty or `fft_size` cannot hold one tap
    /// span plus at least one new sample.
    pub fn with_fft_size(taps: &[f64], fft_size: usize) -> Self {
        assert!(!taps.is_empty(), "overlap-save needs at least one tap");
        assert!(
            fft_size > taps.len(),
            "FFT size {fft_size} too small for {} taps",
            taps.len()
        );
        let fft = Fft::new(fft_size);
        let mut spectrum = vec![Complex::ZERO; fft_size];
        for (s, &t) in spectrum.iter_mut().zip(taps.iter()) {
            *s = Complex::new(t, 0.0);
        }
        fft.forward(&mut spectrum);
        OverlapSave {
            m: taps.len(),
            l: fft_size - taps.len() + 1,
            fft,
            spectrum,
            history: vec![0.0; taps.len() - 1],
            scratch: vec![Complex::ZERO; fft_size],
        }
    }

    /// The planned FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft.len()
    }

    /// Filters a buffer; streaming state persists across calls so the
    /// output continues the previous call's convolution exactly like
    /// [`crate::fir::Fir::process`].
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(input.len());
        self.process_into(input, 0, &mut out);
        out
    }

    /// [`Self::process`], appending to `out` every output after this
    /// call's first `skip` — how an aligned filter drops its group delay
    /// without moving the rest.
    pub fn process_into(&mut self, input: &[f64], skip: usize, out: &mut Vec<f64>) {
        fmbs_obs::span!(fmbs_obs::stages::FFT_CONV);
        let mut pos = 0usize;
        while pos < input.len() {
            let take = self.l.min(input.len() - pos);
            let chunk = &input[pos..pos + take];
            // Block layout: [m-1 history samples | take new samples | 0s].
            // Circular convolution with the taps is then free of
            // wrap-around at indices m-1 .. m-1+take, where it equals the
            // linear (streaming FIR) output.
            let h = self.m - 1;
            for (s, &x) in self.scratch.iter_mut().zip(self.history.iter()) {
                *s = Complex::new(x, 0.0);
            }
            for (s, &x) in self.scratch[h..].iter_mut().zip(chunk.iter()) {
                *s = Complex::new(x, 0.0);
            }
            for s in self.scratch[h + take..].iter_mut() {
                *s = Complex::ZERO;
            }
            self.fft.forward(&mut self.scratch);
            for (s, w) in self.scratch.iter_mut().zip(self.spectrum.iter()) {
                *s *= *w;
            }
            self.fft.inverse(&mut self.scratch);
            let kept = h + skip.saturating_sub(pos).min(take);
            out.extend(self.scratch[kept..h + take].iter().map(|z| z.re));
            update_history(&mut self.history, chunk);
            pos += take;
        }
    }

    /// Clears the streaming state.
    pub fn reset(&mut self) {
        self.history.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// Streaming overlap-save convolution of a complex (IQ) signal with real
/// FIR taps — the channel-selection workhorse of the physical tier.
#[derive(Debug, Clone)]
pub struct OverlapSaveComplex {
    m: usize,
    l: usize,
    fft: Fft,
    spectrum: Vec<Complex>,
    history: Vec<Complex>,
    scratch: Vec<Complex>,
}

impl OverlapSaveComplex {
    /// Plans an engine for `taps` with the default FFT size.
    pub fn new(taps: &[f64]) -> Self {
        Self::with_fft_size(taps, default_fft_size(taps.len()))
    }

    /// Plans an engine with an explicit FFT size.
    ///
    /// # Panics
    /// Same conditions as [`OverlapSave::with_fft_size`].
    pub fn with_fft_size(taps: &[f64], fft_size: usize) -> Self {
        assert!(!taps.is_empty(), "overlap-save needs at least one tap");
        assert!(
            fft_size > taps.len(),
            "FFT size {fft_size} too small for {} taps",
            taps.len()
        );
        let fft = Fft::new(fft_size);
        let mut spectrum = vec![Complex::ZERO; fft_size];
        for (s, &t) in spectrum.iter_mut().zip(taps.iter()) {
            *s = Complex::new(t, 0.0);
        }
        fft.forward(&mut spectrum);
        OverlapSaveComplex {
            m: taps.len(),
            l: fft_size - taps.len() + 1,
            fft,
            spectrum,
            history: vec![Complex::ZERO; taps.len() - 1],
            scratch: vec![Complex::ZERO; fft_size],
        }
    }

    /// Filters an IQ buffer (streaming, like
    /// [`crate::fir::ComplexFir::process`]).
    pub fn process(&mut self, input: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(input.len());
        self.process_into(input, &mut out);
        out
    }

    /// Filters an IQ buffer, appending to `out` (lets callers decimate or
    /// reuse allocations).
    pub fn process_into(&mut self, input: &[Complex], out: &mut Vec<Complex>) {
        fmbs_obs::span!(fmbs_obs::stages::FFT_CONV);
        out.reserve(input.len());
        let mut pos = 0usize;
        while pos < input.len() {
            let take = self.l.min(input.len() - pos);
            let chunk = &input[pos..pos + take];
            let h = self.m - 1;
            self.scratch[..h].copy_from_slice(&self.history);
            self.scratch[h..h + take].copy_from_slice(chunk);
            for s in self.scratch[h + take..].iter_mut() {
                *s = Complex::ZERO;
            }
            self.fft.forward(&mut self.scratch);
            for (s, w) in self.scratch.iter_mut().zip(self.spectrum.iter()) {
                *s *= *w;
            }
            self.fft.inverse(&mut self.scratch);
            out.extend_from_slice(&self.scratch[h..h + take]);
            update_history(&mut self.history, chunk);
            pos += take;
        }
    }

    /// Clears the streaming state.
    pub fn reset(&mut self) {
        self.history.iter_mut().for_each(|z| *z = Complex::ZERO);
    }
}

/// Rolls the streaming history forward: after this, `history` holds the
/// last `history.len()` samples of the concatenation `history ++ chunk`.
pub(crate) fn update_history<T: Copy>(history: &mut [T], chunk: &[T]) {
    let h = history.len();
    if h == 0 {
        return;
    }
    if chunk.len() >= h {
        history.copy_from_slice(&chunk[chunk.len() - h..]);
    } else {
        history.rotate_left(chunk.len());
        history[h - chunk.len()..].copy_from_slice(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::{ComplexFir, Fir, FirDesign};
    use crate::windows::Window;
    use crate::TAU;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn matches_direct_fir_whole_buffer() {
        let design = FirDesign {
            taps: 301,
            window: Window::Blackman,
        }
        .lowpass(48_000.0, 13_500.0);
        let sig = tone(48_000.0, 2_000.0, 6_000);
        let mut direct = design.clone();
        let mut fast = OverlapSave::new(design.taps());
        let yd = direct.process(&sig);
        let yf = fast.process(&sig);
        assert_eq!(yd.len(), yf.len());
        for (a, b) in yd.iter().zip(&yf) {
            assert!((a - b).abs() < 1e-10, "direct {a} vs fft {b}");
        }
    }

    #[test]
    fn streaming_chunks_match_one_shot() {
        let design = FirDesign::default().lowpass(48_000.0, 6_000.0);
        let sig = tone(48_000.0, 1_500.0, 3_000);
        let mut one = OverlapSave::new(design.taps());
        let mut chunked = OverlapSave::new(design.taps());
        let y1 = one.process(&sig);
        let mut y2 = Vec::new();
        // Chunk sizes below, at, and above the block length.
        for chunk in sig.chunks(97) {
            y2.extend(chunked.process(chunk));
        }
        assert_eq!(y1.len(), y2.len());
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn reset_restarts_the_stream() {
        let design = FirDesign::default().lowpass(48_000.0, 6_000.0);
        let sig = tone(48_000.0, 900.0, 500);
        let mut eng = OverlapSave::new(design.taps());
        let first = eng.process(&sig);
        eng.reset();
        let second = eng.process(&sig);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tap_is_gain() {
        let mut eng = OverlapSave::new(&[0.5]);
        let y = eng.process(&[1.0, -2.0, 3.0]);
        assert!((y[0] - 0.5).abs() < 1e-12);
        assert!((y[1] + 1.0).abs() < 1e-12);
        assert!((y[2] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn complex_matches_direct_complex_fir() {
        let design = FirDesign {
            taps: 127,
            window: Window::Blackman,
        }
        .lowpass(1_000_000.0, 130_000.0);
        let sig: Vec<Complex> = (0..5_000)
            .map(|i| Complex::from_angle(TAU * 0.07 * i as f64).scale(1.0 + 0.1 * (i % 7) as f64))
            .collect();
        let mut direct = ComplexFir::from_fir(&design);
        let mut fast = OverlapSaveComplex::new(design.taps());
        let yd = direct.process(&sig);
        let yf = fast.process(&sig);
        for (a, b) in yd.iter().zip(&yf) {
            assert!((*a - *b).abs() < 1e-9, "direct {a:?} vs fft {b:?}");
        }
    }

    #[test]
    fn heuristic_prefers_direct_for_short_work() {
        assert!(!fft_convolution_wins(31, 100_000));
        assert!(!fft_convolution_wins(301, 100));
        assert!(fft_convolution_wins(301, 6_000));
        assert!(fft_convolution_wins(127, 100_000));
    }

    #[test]
    fn default_fft_size_is_a_power_of_two_above_taps() {
        for taps in [1usize, 2, 63, 64, 127, 301, 1024] {
            let n = default_fft_size(taps);
            assert!(n.is_power_of_two());
            assert!(n > taps);
        }
        let _ = Fir::new(vec![1.0]); // silence unused-import lints in cfg(test)
    }
}

//! FIR filtering and windowed-sinc design.
//!
//! The FM receiver chain uses FIR low-pass filters for channel selection
//! (≈100 kHz at the IQ rate) and audio band-limiting (15 kHz at the audio
//! rate); the stereo decoder band-passes the 23–53 kHz L−R region. All of
//! them are designed here with the windowed-sinc method, which is simple,
//! numerically robust and linear-phase — matching the smoltcp guidance of
//! preferring simplicity over cleverness.
//!
//! Invariant: the direct forms — per sample ([`ComplexFir::push`]) and
//! the streaming lockstep decimator ([`DecimatingFir`], of which
//! [`ComplexFir::process_decimated`] is the one-block case) — sum each
//! output's terms in one order (taps in order, newest sample first,
//! zeros before the first sample), so they agree bit for bit however a
//! stream is split into blocks. The FFT form, where
//! [`fft_convolution_wins`] routes [`Fir::filter_aligned`], agrees to
//! rounding.

use crate::complex::Complex;
use crate::fftconv::{fft_convolution_wins, update_history, OverlapSave};
use crate::windows::Window;

/// Specification for a windowed-sinc FIR design.
#[derive(Debug, Clone, Copy)]
pub struct FirDesign {
    /// Number of taps (made odd internally so the filter has a symmetric
    /// centre tap and an integral group delay).
    pub taps: usize,
    /// Window applied to the ideal impulse response.
    pub window: Window,
}

impl Default for FirDesign {
    fn default() -> Self {
        FirDesign {
            taps: 129,
            window: Window::Hamming,
        }
    }
}

impl FirDesign {
    fn odd_taps(&self) -> usize {
        if self.taps.is_multiple_of(2) {
            self.taps + 1
        } else {
            self.taps
        }
    }

    /// Designs a low-pass filter with cut-off `fc` Hz at `fs` Hz sampling.
    pub fn lowpass(&self, fs: f64, fc: f64) -> Fir {
        let n = self.odd_taps();
        let m = (n - 1) as f64 / 2.0;
        let w = self.window.coefficients(n);
        let fc_n = fc / fs; // normalised cutoff in cycles/sample
        let mut h: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - m;
                let sinc = if x == 0.0 {
                    2.0 * fc_n
                } else {
                    (std::f64::consts::TAU * fc_n * x).sin() / (std::f64::consts::PI * x)
                };
                sinc * w[i]
            })
            .collect();
        // Normalise to unity DC gain.
        let sum: f64 = h.iter().sum();
        for v in h.iter_mut() {
            *v /= sum;
        }
        Fir::new(h)
    }

    /// Designs a high-pass filter with cut-off `fc` Hz via spectral
    /// inversion of the complementary low-pass.
    pub fn highpass(&self, fs: f64, fc: f64) -> Fir {
        let lp = self.lowpass(fs, fc);
        let n = lp.taps.len();
        let mid = (n - 1) / 2;
        let mut h: Vec<f64> = lp.taps.iter().map(|&t| -t).collect();
        h[mid] += 1.0;
        Fir::new(h)
    }

    /// Designs a band-pass filter passing `[f_lo, f_hi]` Hz as the
    /// difference of two low-pass designs.
    pub fn bandpass(&self, fs: f64, f_lo: f64, f_hi: f64) -> Fir {
        assert!(f_lo < f_hi, "bandpass requires f_lo < f_hi");
        let lp_hi = self.lowpass(fs, f_hi);
        let lp_lo = self.lowpass(fs, f_lo);
        let h: Vec<f64> = lp_hi
            .taps
            .iter()
            .zip(lp_lo.taps.iter())
            .map(|(a, b)| a - b)
            .collect();
        Fir::new(h)
    }
}

/// A direct-form FIR filter over real samples, with streaming state.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
    // Circular delay line.
    state: Vec<f64>,
    pos: usize,
    // Lazily planned overlap-save engine (taps are immutable, so the
    // plan — twiddles + taps spectrum — is reusable across calls).
    fft_engine: Option<OverlapSave>,
}

impl Fir {
    /// Creates a filter from raw tap coefficients.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            state: vec![0.0; n],
            pos: 0,
            fft_engine: None,
        }
    }

    /// The tap coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (taps are symmetric by construction).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Processes one sample, returning the filtered output.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let n = self.taps.len();
        self.state[self.pos] = x;
        let mut acc = 0.0;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += t * self.state[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a whole buffer (streaming: state persists across calls).
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Filters a buffer and compensates the group delay by discarding the
    /// first `group_delay()` outputs and flushing with zeros, so the output
    /// aligns with the input. Resets state first: this is a whole-signal
    /// (non-streaming) operation.
    ///
    /// Long filters over long buffers are computed by overlap-save FFT
    /// convolution (see [`crate::fftconv`]) when
    /// [`fft_convolution_wins`] says the transform is cheaper; the two
    /// forms agree to within floating-point rounding (≲ 1e-12), far
    /// inside every consumer's tolerances.
    pub fn filter_aligned(&mut self, input: &[f64]) -> Vec<f64> {
        if fft_convolution_wins(self.taps.len(), input.len()) {
            self.reset();
            return self.filter_aligned_fft(input);
        }
        self.filter_aligned_direct(input)
    }

    /// The direct-form path of [`Self::filter_aligned`], kept callable so
    /// property tests can pin the FFT path against it.
    pub fn filter_aligned_direct(&mut self, input: &[f64]) -> Vec<f64> {
        self.reset();
        let d = self.group_delay();
        let mut out = Vec::with_capacity(input.len());
        for (i, &x) in input.iter().enumerate() {
            let y = self.push(x);
            if i >= d {
                out.push(y);
            }
        }
        for _ in 0..d {
            out.push(self.push(0.0));
        }
        out
    }

    fn filter_aligned_fft(&mut self, input: &[f64]) -> Vec<f64> {
        let d = (self.taps.len() - 1) / 2;
        let taps = &self.taps;
        let eng = self
            .fft_engine
            .get_or_insert_with(|| OverlapSave::new(taps));
        eng.reset();
        // The streaming convolution of the input, then `d` zeros that
        // flush the group delay; leaving out its first `d` outputs
        // aligns the result with the input exactly like the direct path.
        let mut y = Vec::with_capacity(input.len());
        eng.process_into(input, d, &mut y);
        eng.process_into(&vec![0.0; d], d.saturating_sub(input.len()), &mut y);
        y
    }

    /// Clears the delay line.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|v| *v = 0.0);
        self.pos = 0;
    }

    /// Magnitude response at frequency `f` Hz for sample rate `fs`.
    pub fn magnitude_at(&self, fs: f64, f: f64) -> f64 {
        let omega = std::f64::consts::TAU * f / fs;
        let z: Complex = self
            .taps
            .iter()
            .enumerate()
            .map(|(k, &t)| Complex::from_angle(-omega * k as f64).scale(t))
            .sum();
        z.abs()
    }
}

/// A direct-form FIR filter over complex (IQ) samples.
///
/// Shares tap designs with [`Fir`]; used for channel selection on the
/// complex-baseband RF stream.
#[derive(Debug, Clone)]
pub struct ComplexFir {
    taps: Vec<f64>,
    state: Vec<Complex>,
    pos: usize,
}

impl ComplexFir {
    /// Creates a complex-input filter from real tap coefficients.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        ComplexFir {
            taps,
            state: vec![Complex::ZERO; n],
            pos: 0,
        }
    }

    /// Builds from an existing real design.
    pub fn from_fir(fir: &Fir) -> Self {
        ComplexFir::new(fir.taps().to_vec())
    }

    /// Processes one IQ sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let n = self.taps.len();
        self.state[self.pos] = x;
        let mut acc = Complex::ZERO;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += self.state[idx].scale(t);
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a whole IQ buffer (streaming).
    pub fn process(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Filters a buffer keeping only every `decim`-th output (the first
    /// sample's output included) — the channel-select-and-decimate step
    /// of the FM receiver, as one block of a [`DecimatingFir`] stream.
    /// Equal, bit for bit, to filtering everything with
    /// [`ComplexFir::push`] and taking `output[k·decim]`, but skips the
    /// discarded multiply-accumulates.
    ///
    /// Resets state first: whole-signal operation. Afterwards the delay
    /// line holds the input's tail, as if every sample had been pushed.
    pub fn process_decimated(&mut self, input: &[Complex], decim: usize) -> Vec<Complex> {
        let mut stream = DecimatingFir::new(self.taps.clone(), decim);
        let mut out = Vec::with_capacity(input.len().div_ceil(decim));
        stream.push(input, &mut out);
        self.load_history(input);
        out
    }

    /// Sets the delay line to what pushing all of `input` into a reset
    /// filter leaves behind.
    fn load_history(&mut self, input: &[Complex]) {
        let n = self.taps.len();
        self.reset();
        let tail = input.len().saturating_sub(n);
        for (i, &z) in input.iter().enumerate().skip(tail) {
            self.state[i % n] = z;
        }
        self.pos = input.len() % n;
    }

    /// Clears the delay line.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|v| *v = Complex::ZERO);
        self.pos = 0;
    }
}

/// A decimating FIR over an IQ stream that arrives in blocks: output `k`
/// is the filter output at stream index `k·decim`, whatever the block
/// split — the FM receiver's channel selector, fed 10 ms at a time so no
/// whole capture is ever held.
///
/// Between blocks it carries the stream's last `taps − 1` samples
/// (`Complex::ZERO` before the start, what a reset delay line holds).
/// Outputs whose window lies inside a block read the block in place;
/// the few whose window reaches back into the history read a short seam
/// of `[history | block head]`. Both run one kernel that advances four
/// kept outputs per sweep over the taps, one accumulator each, so the
/// adds of different outputs overlap instead of waiting on one another.
/// Every output still sums the same terms in the same order (taps in
/// order, newest sample first), so the result is bit-identical to
/// [`ComplexFir::push`].
#[derive(Debug, Clone)]
pub struct DecimatingFir {
    taps: Vec<f64>,
    decim: usize,
    history: Vec<Complex>,
    // Scratch for the outputs whose window straddles the block start.
    seam: Vec<Complex>,
    // Stream samples still to come before the next kept output.
    skip: usize,
}

impl DecimatingFir {
    /// A filter keeping every `decim`-th output of `taps`, from the
    /// stream's first sample on.
    ///
    /// # Panics
    /// Panics when `taps` is empty or `decim` is zero.
    pub fn new(taps: Vec<f64>, decim: usize) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        assert!(decim >= 1, "decimation factor must be at least 1");
        let h = taps.len() - 1;
        DecimatingFir {
            taps,
            decim,
            history: vec![Complex::ZERO; h],
            seam: Vec::with_capacity(2 * h),
            skip: 0,
        }
    }

    /// Filters the stream's next block, appending its kept outputs to
    /// `out`.
    pub fn push(&mut self, block: &[Complex], out: &mut Vec<Complex>) {
        let n = self.taps.len();
        let h = n - 1;
        let d = self.decim;
        let len = block.len();
        if self.skip < len {
            // Kept outputs at block indices skip, skip + d, … < len.
            // Those before index h reach back into the history.
            let head = len.min(h);
            if self.skip < head {
                self.seam.clear();
                self.seam.extend_from_slice(&self.history);
                self.seam.extend_from_slice(&block[..head]);
                let count = (head - self.skip).div_ceil(d);
                decimate_lockstep(&self.taps, &self.seam, self.skip + n, d, count, out);
            }
            let first = if self.skip >= h {
                self.skip
            } else {
                self.skip + (h - self.skip).div_ceil(d) * d
            };
            if first < len {
                let count = (len - first).div_ceil(d);
                decimate_lockstep(&self.taps, block, first + 1, d, count, out);
            }
        }
        update_history(&mut self.history, block);
        self.skip = if self.skip >= len {
            self.skip - len
        } else {
            (d - (len - self.skip) % d) % d
        };
    }
}

/// Kept outputs the decimating filter computes per tap sweep.
const DECIM_LANES: usize = 4;

/// Appends `count` filter outputs over `x`: output `m` is the window
/// ending (exclusively) at `first_end + m·step`, summed taps in order,
/// newest sample first.
fn decimate_lockstep(
    taps: &[f64],
    x: &[Complex],
    first_end: usize,
    step: usize,
    count: usize,
    out: &mut Vec<Complex>,
) {
    let n = taps.len();
    let window = |m: usize| {
        let end = first_end + m * step;
        &x[end - n..end]
    };
    let mut m = 0;
    while m + DECIM_LANES <= count {
        let windows: [&[Complex]; DECIM_LANES] = std::array::from_fn(|l| window(m + l));
        let mut acc = [Complex::ZERO; DECIM_LANES];
        for (j, &t) in taps.iter().enumerate() {
            let r = n - 1 - j;
            for (a, w) in acc.iter_mut().zip(&windows) {
                *a += w[r].scale(t);
            }
        }
        out.extend(acc);
        m += DECIM_LANES;
    }
    for m in m..count {
        let w = window(m);
        let mut acc = Complex::ZERO;
        for (j, &t) in taps.iter().enumerate() {
            acc += w[n - 1 - j].scale(t);
        }
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{bits, edge_value};
    use crate::TAU;
    use proptest::prelude::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn lowpass_passes_passband_and_stops_stopband() {
        let fs = 48_000.0;
        let mut lp = FirDesign {
            taps: 127,
            window: Window::Hamming,
        }
        .lowpass(fs, 4_000.0);
        let pass = lp.filter_aligned(&tone(fs, 1_000.0, 4_800));
        lp.reset();
        let stop = lp.filter_aligned(&tone(fs, 12_000.0, 4_800));
        // Skip edges to avoid transients.
        let p = rms(&pass[1000..3800]);
        let s = rms(&stop[1000..3800]);
        assert!(p > 0.65, "passband rms {p}");
        assert!(s < 0.01, "stopband rms {s}");
    }

    #[test]
    fn lowpass_dc_gain_is_unity() {
        let lp = FirDesign::default().lowpass(48_000.0, 5_000.0);
        let sum: f64 = lp.taps().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((lp.magnitude_at(48_000.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn highpass_blocks_dc() {
        let mut hp = FirDesign {
            taps: 201,
            window: Window::Hamming,
        }
        .highpass(48_000.0, 2_000.0);
        let dc = vec![1.0; 4_800];
        let out = hp.filter_aligned(&dc);
        assert!(rms(&out[1000..3800]) < 0.01);
        hp.reset();
        let high = hp.filter_aligned(&tone(48_000.0, 10_000.0, 4_800));
        assert!(rms(&high[1000..3800]) > 0.6);
    }

    #[test]
    fn bandpass_selects_band() {
        let fs = 200_000.0;
        // The stereo L-R band of the FM multiplex: 23–53 kHz.
        let mut bp = FirDesign {
            taps: 255,
            window: Window::Hamming,
        }
        .bandpass(fs, 23_000.0, 53_000.0);
        let inside = bp.filter_aligned(&tone(fs, 38_000.0, 20_000));
        bp.reset();
        let below = bp.filter_aligned(&tone(fs, 10_000.0, 20_000));
        bp.reset();
        let above = bp.filter_aligned(&tone(fs, 70_000.0, 20_000));
        assert!(rms(&inside[4000..16_000]) > 0.6);
        assert!(rms(&below[4000..16_000]) < 0.02);
        assert!(rms(&above[4000..16_000]) < 0.02);
    }

    #[test]
    fn even_tap_request_is_made_odd() {
        let lp = FirDesign {
            taps: 64,
            window: Window::Hamming,
        }
        .lowpass(48_000.0, 1_000.0);
        assert_eq!(lp.taps().len(), 65);
    }

    #[test]
    fn impulse_response_equals_taps() {
        let taps = vec![0.25, 0.5, 0.25];
        let mut fir = Fir::new(taps.clone());
        let mut impulse = vec![0.0; 5];
        impulse[0] = 1.0;
        let out = fir.process(&impulse);
        assert!((out[0] - 0.25).abs() < 1e-15);
        assert!((out[1] - 0.5).abs() < 1e-15);
        assert!((out[2] - 0.25).abs() < 1e-15);
        assert!(out[3].abs() < 1e-15);
    }

    #[test]
    fn linearity_of_filtering() {
        let mut f1 = FirDesign::default().lowpass(48_000.0, 8_000.0);
        let a = tone(48_000.0, 2_000.0, 1000);
        let b = tone(48_000.0, 5_000.0, 1000);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ya = f1.filter_aligned(&a);
        let yb = f1.filter_aligned(&b);
        let ysum = f1.filter_aligned(&sum);
        for i in 0..1000 {
            assert!((ysum[i] - (ya[i] + yb[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_fir_matches_real_on_real_input() {
        let design = FirDesign::default().lowpass(48_000.0, 6_000.0);
        let mut re_fir = design.clone();
        let mut cx_fir = ComplexFir::from_fir(&design);
        let sig = tone(48_000.0, 3_000.0, 500);
        let re_out = re_fir.process(&sig);
        let cx_out: Vec<Complex> = sig
            .iter()
            .map(|&x| cx_fir.push(Complex::new(x, 0.0)))
            .collect();
        for (r, c) in re_out.iter().zip(cx_out.iter()) {
            assert!((r - c.re).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn decimated_process_matches_full_then_stride() {
        let design = FirDesign {
            taps: 127,
            window: Window::Hamming,
        }
        .lowpass(1_000_000.0, 130_000.0);
        let sig: Vec<Complex> = (0..4_000)
            .map(|i| Complex::from_angle(TAU * 0.03 * i as f64).scale(0.7))
            .collect();
        for decim in [1usize, 4, 10] {
            let mut full = ComplexFir::from_fir(&design);
            let reference: Vec<Complex> = full.process(&sig).into_iter().step_by(decim).collect();
            let mut dec = ComplexFir::from_fir(&design);
            let got = dec.process_decimated(&sig, decim);
            assert_eq!(reference.len(), got.len());
            for (a, b) in reference.iter().zip(&got) {
                assert!((*a - *b).abs() < 1e-9, "decim {decim}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn aligned_fft_path_matches_direct_path() {
        // 301 taps × 6000 samples crosses the FFT heuristic; the two
        // forms must agree well inside 1e-9.
        let mut fir = FirDesign {
            taps: 301,
            window: Window::Blackman,
        }
        .lowpass(48_000.0, 13_500.0);
        let sig = tone(48_000.0, 3_000.0, 6_000);
        let fft = fir.filter_aligned(&sig);
        let direct = fir.filter_aligned_direct(&sig);
        assert_eq!(fft.len(), direct.len());
        for (a, b) in fft.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    /// The aligned FFT path writes the bits the streaming convolution
    /// plus a zero flush gives once its first `group_delay()` outputs
    /// are dropped — inputs shorter than the delay included.
    #[test]
    fn aligned_fft_drops_the_group_delay_in_place() {
        for (taps, len) in [
            (301, 6_000),
            (301, 100),
            (301, 150),
            (301, 151),
            (63, 40_000),
        ] {
            let mut fir = FirDesign {
                taps,
                window: Window::Blackman,
            }
            .lowpass(48_000.0, 13_500.0);
            let sig = tone(48_000.0, 3_000.0, len);
            let d = fir.group_delay();
            let mut eng = OverlapSave::new(fir.taps());
            let mut want = eng.process(&sig);
            want.extend(eng.process(&vec![0.0; d]));
            want.drain(..d);
            let got = fir.filter_aligned_fft(&sig);
            assert_eq!(bits(got), bits(want), "{taps} taps, {len} samples");
        }
    }

    #[test]
    fn streaming_equals_batch() {
        let mut f1 = FirDesign::default().lowpass(48_000.0, 8_000.0);
        let mut f2 = f1.clone();
        let sig = tone(48_000.0, 2_000.0, 300);
        let batch = f1.process(&sig);
        let mut streamed = Vec::new();
        for chunk in sig.chunks(7) {
            streamed.extend(f2.process(chunk));
        }
        for (a, b) in batch.iter().zip(streamed.iter()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    /// The per-sample decimating loop the lockstep kernel replaced: push
    /// every sample into the reset delay line, compute an output at
    /// every `decim`-th.
    fn reference_decimated(fir: &mut ComplexFir, input: &[Complex], decim: usize) -> Vec<Complex> {
        fir.reset();
        let mut out = Vec::new();
        for (i, &z) in input.iter().enumerate() {
            push_silent(fir, z);
            if i % decim == 0 {
                out.push(output_at_pos(fir));
            }
        }
        out
    }

    fn push_silent(fir: &mut ComplexFir, x: Complex) {
        fir.state[fir.pos] = x;
        fir.pos = (fir.pos + 1) % fir.taps.len();
    }

    fn output_at_pos(fir: &ComplexFir) -> Complex {
        let n = fir.taps.len();
        let mut acc = Complex::ZERO;
        let mut idx = if fir.pos == 0 { n - 1 } else { fir.pos - 1 };
        for &t in &fir.taps {
            acc += fir.state[idx].scale(t);
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        acc
    }

    fn iq_bits(v: &[Complex]) -> Vec<u64> {
        bits(v.iter().flat_map(|z| [z.re, z.im]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The lockstep decimating filter equals the per-sample one bit
        /// for bit — lengths shorter than the filter, decimation 1–12,
        /// signed zeros, subnormals, NaN and infinities included — and
        /// leaves a delay line that streams on exactly like it.
        #[test]
        fn decimated_lockstep_is_bit_identical(
            raw_taps in prop::collection::vec(any::<u64>(), 1..48),
            raw_input in prop::collection::vec(any::<u64>(), 0..320),
            decim in 1usize..=12,
            mode in 0u8..3,
        ) {
            let taps: Vec<f64> = raw_taps.iter().map(|&b| edge_value(b, mode.min(1))).collect();
            let iq = |raw: &[u64], mode| -> Vec<Complex> {
                raw.chunks_exact(2)
                    .map(|p| Complex::new(edge_value(p[0], mode), edge_value(p[1], mode)))
                    .collect()
            };
            let input = iq(&raw_input, mode);
            let mut reference = ComplexFir::new(taps.clone());
            let want = reference_decimated(&mut reference, &input, decim);
            let mut lockstep = ComplexFir::new(taps);
            let got = lockstep.process_decimated(&input, decim);
            prop_assert_eq!(iq_bits(&got), iq_bits(&want));
            prop_assert_eq!(lockstep.pos, reference.pos);
            // Streaming on from both delay lines, with ordinary samples.
            let more = iq(&raw_taps.repeat(2), 0);
            let next_want: Vec<Complex> = more.iter().map(|&z| reference.push(z)).collect();
            let next_got: Vec<Complex> = more.iter().map(|&z| lockstep.push(z)).collect();
            prop_assert_eq!(iq_bits(&next_got), iq_bits(&next_want));
        }

        /// A stream split into blocks at random points — empty blocks,
        /// one-sample blocks, blocks shorter than the filter, splits off
        /// the decimation phase — filters to the same bits as one block.
        #[test]
        fn streamed_blocks_equal_one_block(
            raw_taps in prop::collection::vec(any::<u64>(), 1..40),
            raw_input in prop::collection::vec(any::<u64>(), 0..400),
            cuts in prop::collection::vec(0usize..24, 0..40),
            decim in 1usize..=12,
            mode in 0u8..3,
        ) {
            let taps: Vec<f64> = raw_taps.iter().map(|&b| edge_value(b, mode.min(1))).collect();
            let input: Vec<Complex> = raw_input
                .chunks_exact(2)
                .map(|p| Complex::new(edge_value(p[0], mode), edge_value(p[1], mode)))
                .collect();
            let want = ComplexFir::new(taps.clone()).process_decimated(&input, decim);
            let mut stream = DecimatingFir::new(taps, decim);
            let mut got = Vec::new();
            let mut rest = &input[..];
            for &c in &cuts {
                let (block, tail) = rest.split_at(c.min(rest.len()));
                stream.push(block, &mut got);
                rest = tail;
            }
            stream.push(rest, &mut got);
            prop_assert_eq!(iq_bits(&got), iq_bits(&want));
        }
    }
}

//! Resampling.
//!
//! The cooperative decoder of §3.3 resamples both phones' audio "in
//! software, by a factor of ten" before cross-correlating, so that the time
//! alignment resolves to a tenth of an audio sample. [`Upsampler`] provides
//! that integer-factor interpolation (zero-stuff + polyphase low-pass);
//! [`resample_linear`] serves rate conversions where sub-sample fidelity is
//! not critical (e.g. converting between simulator rates for metrics).
//!
//! Invariant: [`Upsampler::process`] and [`Upsampler::push`] sum every
//! polyphase branch in the same order (taps in order, newest sample
//! first, zeros before the first sample), so batch and streaming output
//! agree bit for bit.

use crate::fir::FirDesign;
use crate::windows::Window;

/// Linear-interpolation resampler from `rate_in` to `rate_out` Hz.
///
/// Output length is `ceil(len · rate_out / rate_in)`.
pub fn resample_linear(input: &[f64], rate_in: f64, rate_out: f64) -> Vec<f64> {
    assert!(rate_in > 0.0 && rate_out > 0.0);
    if input.is_empty() {
        return Vec::new();
    }
    let ratio = rate_in / rate_out;
    let out_len = ((input.len() as f64) / ratio).ceil() as usize;
    (0..out_len)
        .map(|i| {
            let src = i as f64 * ratio;
            let i0 = src.floor() as usize;
            let frac = src - i0 as f64;
            if i0 + 1 < input.len() {
                input[i0] * (1.0 - frac) + input[i0 + 1] * frac
            } else {
                input[input.len() - 1]
            }
        })
        .collect()
}

/// Integer-factor polyphase upsampler.
///
/// Zero-stuffs by `factor` and low-passes at the original Nyquist with a
/// windowed-sinc anti-imaging filter whose gain compensates the stuffing
/// loss.
///
/// All `factor` polyphase branches of one input sample advance in
/// lockstep over a transposed tap table, one accumulator per branch, so
/// their adds overlap instead of waiting on one another. Each branch
/// still sums its taps in order, newest sample first, so the output is
/// bit-identical to evaluating the branches one after another.
#[derive(Debug, Clone)]
pub struct Upsampler {
    factor: usize,
    // Transposed polyphase table: row `k` holds tap `k` of every branch,
    // `rows[k·stride + phase]`, applied to the k-th newest sample of the
    // original-rate delay line. Rows are zero-padded to `stride`, a
    // whole number of `BRANCH_LANES`.
    rows: Vec<f64>,
    stride: usize,
    delay: Vec<f64>,
    pos: usize,
}

/// Polyphase branches summed together, one accumulator each; a fixed
/// count lets the accumulators live in registers.
const BRANCH_LANES: usize = 16;

impl Upsampler {
    /// Creates an upsampler by `factor` with a `taps_per_branch·factor`-tap
    /// prototype filter.
    pub fn new(factor: usize, taps_per_branch: usize) -> Self {
        assert!(factor >= 1);
        let proto_len = (taps_per_branch * factor) | 1; // odd
        let proto = FirDesign {
            taps: proto_len,
            window: Window::Hamming,
        }
        // Cut-off at the *input* Nyquist expressed at the output rate:
        // fs_out = factor, input Nyquist = 0.5 (normalised) => fc = 0.5/factor
        // of the output rate. Using fs = 1.0, fc = 0.5 / factor.
        .lowpass(1.0, 0.5 / factor as f64);
        // Gain compensation: zero-stuffing divides energy by factor.
        let taps: Vec<f64> = proto.taps().iter().map(|t| t * factor as f64).collect();
        let branch_len = taps.len().div_ceil(factor);
        let stride = factor.next_multiple_of(BRANCH_LANES);
        let mut rows = vec![0.0; branch_len * stride];
        for (i, &t) in taps.iter().enumerate() {
            rows[(i / factor) * stride + i % factor] = t;
        }
        Upsampler {
            factor,
            delay: vec![0.0; branch_len],
            rows,
            stride,
            pos: 0,
        }
    }

    /// The upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Pushes one input sample and returns `factor` output samples.
    pub fn push(&mut self, x: f64) -> Vec<f64> {
        self.delay[self.pos] = x;
        // Newest sample first, wrapping round the circular delay line:
        // `delay[pos], …, delay[0], delay[n−1], …, delay[pos+1]`.
        let (newer, older) = self.delay.split_at(self.pos + 1);
        let newest_first = newer.iter().rev().chain(older.iter().rev()).copied();
        let mut out = vec![0.0; self.factor];
        accumulate_branches(&self.rows, self.stride, newest_first, &mut out);
        self.pos = (self.pos + 1) % self.delay.len();
        out
    }

    /// Upsamples an entire buffer, returning `input.len() · factor`
    /// samples, bit-identical to pushing them one at a time into a reset
    /// upsampler. Reads the input in place: samples before its start are
    /// the reset delay line's zeros. Afterwards the delay line holds the
    /// input's tail, as if every sample had been pushed.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        let n = self.delay.len();
        let mut out = vec![0.0; input.len() * self.factor];
        for (i, branches) in out.chunks_exact_mut(self.factor).enumerate() {
            if i + 1 >= n {
                let newest_first = input[i + 1 - n..=i].iter().rev().copied();
                accumulate_branches(&self.rows, self.stride, newest_first, branches);
            } else {
                let newest_first = input[..=i]
                    .iter()
                    .rev()
                    .copied()
                    .chain(std::iter::repeat(0.0));
                accumulate_branches(&self.rows, self.stride, newest_first, branches);
            }
        }
        self.reset();
        let tail = input.len().saturating_sub(n);
        for (i, &x) in input.iter().enumerate().skip(tail) {
            self.delay[i % n] = x;
        }
        self.pos = input.len() % n;
        out
    }

    /// Clears the delay line.
    pub fn reset(&mut self) {
        self.delay.iter_mut().for_each(|v| *v = 0.0);
        self.pos = 0;
    }
}

/// Sums every branch's taps times the delay line's samples, given newest
/// first, into `out` — one accumulator per branch, all advancing one row
/// of the transposed table at a time.
#[inline]
fn accumulate_branches(
    rows: &[f64],
    stride: usize,
    newest_first: impl Iterator<Item = f64> + Clone,
    out: &mut [f64],
) {
    for (lanes, out) in out.chunks_mut(BRANCH_LANES).enumerate() {
        let first = lanes * BRANCH_LANES;
        let mut acc = [0.0; BRANCH_LANES];
        for (row, x) in rows.chunks_exact(stride).zip(newest_first.clone()) {
            let taps: &[f64; BRANCH_LANES] = row[first..]
                .first_chunk()
                .expect("rows are padded to whole lanes");
            for (a, &t) in acc.iter_mut().zip(taps) {
                *a += t * x;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// Integer-factor decimator: low-pass at the output Nyquist then keep every
/// `factor`-th sample.
#[derive(Debug, Clone)]
pub struct Decimator {
    factor: usize,
    filter: crate::fir::Fir,
    phase: usize,
}

impl Decimator {
    /// Creates a decimator by `factor` with a `taps`-tap anti-alias filter.
    pub fn new(factor: usize, taps: usize) -> Self {
        assert!(factor >= 1);
        let filter = FirDesign {
            taps,
            window: Window::Hamming,
        }
        .lowpass(1.0, 0.45 / factor as f64);
        Decimator {
            factor,
            filter,
            phase: 0,
        }
    }

    /// The decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Pushes one sample; returns `Some(output)` every `factor` samples.
    #[inline]
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let y = self.filter.push(x);
        self.phase += 1;
        if self.phase == self.factor {
            self.phase = 0;
            Some(y)
        } else {
            None
        }
    }

    /// Decimates an entire buffer (streaming).
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().filter_map(|&x| self.push(x)).collect()
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

    fn steady_rms(x: &[f64]) -> f64 {
        let a = x.len() / 4;
        let b = 3 * x.len() / 4;
        (x[a..b].iter().map(|v| v * v).sum::<f64>() / (b - a) as f64).sqrt()
    }

    #[test]
    fn linear_resample_preserves_length_ratio() {
        let out = resample_linear(&vec![0.0; 1000], 48_000.0, 44_100.0);
        assert_eq!(out.len(), 919); // ceil(1000 * 44100/48000)
    }

    #[test]
    fn linear_resample_identity_when_rates_equal() {
        let input: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resample_linear(&input, 8_000.0, 8_000.0);
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_resample_preserves_tone_frequency() {
        let fs_in = 48_000.0;
        let fs_out = 32_000.0;
        let sig = tone(fs_in, 1_000.0, 48_000);
        let out = resample_linear(&sig, fs_in, fs_out);
        let crossings = out.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * fs_out / out.len() as f64;
        assert!((measured - 1_000.0).abs() < 5.0, "measured {measured}");
    }

    #[test]
    fn upsampler_by_ten_preserves_tone() {
        // The cooperative decoder's 10x resample (§3.3).
        let fs = 48_000.0;
        let sig = tone(fs, 1_000.0, 4_800);
        let mut up = Upsampler::new(10, 8);
        let out = up.process(&sig);
        assert_eq!(out.len(), sig.len() * 10);
        let crossings = out.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * (fs * 10.0) / out.len() as f64;
        // Zero-crossing counting picks up a couple of spurious crossings in
        // the filter's start-up transient, hence the ~2 % tolerance.
        assert!((measured - 1_000.0).abs() < 25.0, "measured {measured}");
        // Amplitude preserved (within filter ripple).
        assert!((steady_rms(&out) - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
    }

    /// The original per-sample loop: one branch at a time, one index
    /// walking the delay line backwards with a wrap branch.
    fn reference_push(up: &mut Upsampler, x: f64) -> Vec<f64> {
        let n = up.delay.len();
        up.delay[up.pos] = x;
        let mut out = Vec::new();
        for phase in 0..up.factor {
            let mut acc = 0.0;
            let mut idx = up.pos;
            for t in up.rows.iter().skip(phase).step_by(up.stride) {
                acc += t * up.delay[idx];
                idx = if idx == 0 { n - 1 } else { idx - 1 };
            }
            out.push(acc);
        }
        up.pos = (up.pos + 1) % n;
        out
    }

    #[test]
    fn process_equals_concatenated_pushes() {
        let sig: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.21).sin() + 0.01 * i as f64)
            .collect();
        for (factor, taps) in [(10, 8), (3, 5), (1, 16)] {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let mut reference = Upsampler::new(factor, taps);
            let want = bits(
                sig.iter()
                    .flat_map(|&x| reference_push(&mut reference, x))
                    .collect(),
            );
            let mut pushed = Upsampler::new(factor, taps);
            let got_push = bits(sig.iter().flat_map(|&x| pushed.push(x)).collect());
            let got_process = bits(Upsampler::new(factor, taps).process(&sig));
            assert_eq!(got_push, want, "push, factor {factor}");
            assert_eq!(got_process, want, "process, factor {factor}");
        }
    }

    #[test]
    fn upsampler_factor_one_is_near_identity() {
        let sig = tone(8_000.0, 500.0, 800);
        let mut up = Upsampler::new(1, 16);
        let out = up.process(&sig);
        assert_eq!(out.len(), sig.len());
        assert!((steady_rms(&out) - steady_rms(&sig)).abs() < 0.03);
    }

    #[test]
    fn decimator_preserves_low_tone() {
        let fs = 480_000.0;
        let sig = tone(fs, 1_000.0, 480_000);
        let mut dec = Decimator::new(10, 127);
        let out = dec.process(&sig);
        assert_eq!(out.len(), 48_000);
        let crossings = out.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let measured = crossings as f64 / 2.0 * (fs / 10.0) / out.len() as f64;
        assert!((measured - 1_000.0).abs() < 5.0);
        assert!((steady_rms(&out) - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
    }

    #[test]
    fn decimator_rejects_aliasing_tone() {
        let fs = 480_000.0;
        // 100 kHz would alias to 4 kHz after /10 without filtering.
        let sig = tone(fs, 100_000.0, 480_000);
        let mut dec = Decimator::new(10, 255);
        let out = dec.process(&sig);
        assert!(steady_rms(&out) < 0.01, "alias rms {}", steady_rms(&out));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(resample_linear(&[], 1.0, 2.0).is_empty());
        let mut up = Upsampler::new(4, 8);
        assert!(up.process(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `process` equals the per-branch, per-sample loop bit for bit —
        /// factors 1–12, inputs shorter than a branch, signed zeros,
        /// subnormals, NaN and infinities included — and leaves a delay
        /// line that streams on exactly like it.
        #[test]
        fn lockstep_branches_are_bit_identical(
            raw in prop::collection::vec(any::<u64>(), 0..40),
            factor in 1usize..=12,
            taps_per_branch in 1usize..10,
            mode in 0u8..3,
        ) {
            let input: Vec<f64> = raw.iter().map(|&b| edge_value(b, mode)).collect();
            let mut reference = Upsampler::new(factor, taps_per_branch);
            let want = bits(input.iter().flat_map(|&x| reference_push(&mut reference, x)));
            let mut lockstep = Upsampler::new(factor, taps_per_branch);
            prop_assert_eq!(bits(lockstep.process(&input)), want);
            prop_assert_eq!(lockstep.pos, reference.pos);
            let more: Vec<f64> = raw.iter().rev().map(|&b| edge_value(b, 0)).collect();
            let next_want = bits(more.iter().flat_map(|&x| reference_push(&mut reference, x)));
            prop_assert_eq!(bits(more.iter().flat_map(|&x| lockstep.push(x))), next_want);
        }
    }
}

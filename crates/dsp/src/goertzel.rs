//! Goertzel single-bin DFT.
//!
//! The paper's data receiver is a *non-coherent FSK detector*: for each
//! symbol window it "compares the received power on the two frequencies and
//! outputs the frequency that has the higher power" (§3.4). The Goertzel
//! algorithm computes exactly that per-tone power at `O(N)` per tone without
//! a full FFT, which is also how a low-power smartphone implementation would
//! do it.
//!
//! Invariant: [`GoertzelBank`], [`goertzel_bank`], [`goertzel_power`] and
//! [`StreamingGoertzel`] run the same recurrence over the same samples in
//! the same order, so a tone's power is bit-identical whichever computes
//! it.

use crate::TAU;

/// Computes the power of `signal` at frequency `freq` (Hz) for a signal
/// sampled at `sample_rate` (Hz).
///
/// The returned value is `|X(f)|²` normalised by `N²` so that a unit-
/// amplitude sinusoid at exactly `freq` yields ~0.25 independent of window
/// length.
pub fn goertzel_power(signal: &[f64], sample_rate: f64, freq: f64) -> f64 {
    let coeff = coefficient(sample_rate, freq);
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    normalised_power(coeff, s_prev, s_prev2, signal.len())
}

/// Computes Goertzel power for a set of frequencies over the same window.
///
/// Used by the FDM-4FSK receiver which monitors 16 candidate tones.
pub fn goertzel_bank(signal: &[f64], sample_rate: f64, freqs: &[f64]) -> Vec<f64> {
    GoertzelBank::new(sample_rate, freqs).powers(signal)
}

/// Tones detected together in one pass over the window.
const BANK_LANES: usize = 16;

/// Goertzel detectors for a fixed set of tones at one sample rate: the
/// coefficients are computed once, and every tone's recurrence advances
/// in lockstep over one pass through the window, so the recurrences of
/// different tones overlap instead of waiting on one another. Each tone
/// still runs its own recurrence over the same samples in the same
/// order, so every power is bit-identical to [`goertzel_power`].
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    coeffs: Vec<f64>,
}

impl GoertzelBank {
    /// Creates a bank for `freqs` (Hz) at `sample_rate` (Hz).
    pub fn new(sample_rate: f64, freqs: &[f64]) -> Self {
        GoertzelBank {
            coeffs: freqs.iter().map(|&f| coefficient(sample_rate, f)).collect(),
        }
    }

    /// Each tone's normalised power over `signal`, in the order the
    /// frequencies were given.
    pub fn powers(&self, signal: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.coeffs.len());
        for coeffs in self.coeffs.chunks(BANK_LANES) {
            // Unused lanes run a zero coefficient and are dropped.
            let mut c = [0.0; BANK_LANES];
            c[..coeffs.len()].copy_from_slice(coeffs);
            let mut s_prev = [0.0; BANK_LANES];
            let mut s_prev2 = [0.0; BANK_LANES];
            for &x in signal {
                for l in 0..BANK_LANES {
                    let s = x + c[l] * s_prev[l] - s_prev2[l];
                    s_prev2[l] = s_prev[l];
                    s_prev[l] = s;
                }
            }
            out.extend(
                (0..coeffs.len())
                    .map(|l| normalised_power(c[l], s_prev[l], s_prev2[l], signal.len())),
            );
        }
        out
    }
}

/// The recurrence coefficient `2·cos(2π·freq/sample_rate)`.
fn coefficient(sample_rate: f64, freq: f64) -> f64 {
    let omega = TAU * freq / sample_rate;
    2.0 * omega.cos()
}

/// `|X(f)|² / N²` from the recurrence's last two states; 0 for an empty
/// window.
fn normalised_power(coeff: f64, s_prev: f64, s_prev2: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    power / (n as f64 * n as f64)
}

/// A streaming Goertzel detector that can be fed sample-by-sample and
/// queried at symbol boundaries. Equivalent to [`goertzel_power`] over the
/// samples seen since the last [`StreamingGoertzel::reset`].
#[derive(Debug, Clone)]
pub struct StreamingGoertzel {
    coeff: f64,
    s_prev: f64,
    s_prev2: f64,
    count: usize,
}

impl StreamingGoertzel {
    /// Creates a detector for `freq` Hz at `sample_rate` Hz.
    pub fn new(sample_rate: f64, freq: f64) -> Self {
        StreamingGoertzel {
            coeff: coefficient(sample_rate, freq),
            s_prev: 0.0,
            s_prev2: 0.0,
            count: 0,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        let s = x + self.coeff * self.s_prev - self.s_prev2;
        self.s_prev2 = self.s_prev;
        self.s_prev = s;
        self.count += 1;
    }

    /// Normalised power accumulated so far.
    pub fn power(&self) -> f64 {
        normalised_power(self.coeff, self.s_prev, self.s_prev2, self.count)
    }

    /// Clears accumulated state for the next symbol window.
    pub fn reset(&mut self) {
        self.s_prev = 0.0;
        self.s_prev2 = 0.0;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{bits, edge_value};
    use proptest::prelude::*;

    fn tone(fs: f64, f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn detects_matching_tone() {
        let fs = 48_000.0;
        let sig = tone(fs, 8_000.0, 480, 1.0);
        let p = goertzel_power(&sig, fs, 8_000.0);
        assert!((p - 0.25).abs() < 0.01, "power {p}");
    }

    #[test]
    fn rejects_mismatched_tone() {
        let fs = 48_000.0;
        // 100 sym/s windows are 480 samples; 8 kHz vs 12 kHz (paper's 2-FSK
        // frequencies) must separate cleanly.
        let sig = tone(fs, 12_000.0, 480, 1.0);
        let p_right = goertzel_power(&sig, fs, 12_000.0);
        let p_wrong = goertzel_power(&sig, fs, 8_000.0);
        assert!(p_right > 100.0 * p_wrong, "{p_right} vs {p_wrong}");
    }

    #[test]
    fn amplitude_scaling_is_quadratic() {
        let fs = 48_000.0;
        let p1 = goertzel_power(&tone(fs, 1_000.0, 4_800, 1.0), fs, 1_000.0);
        let p2 = goertzel_power(&tone(fs, 1_000.0, 4_800, 2.0), fs, 1_000.0);
        assert!((p2 / p1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn empty_signal_is_zero() {
        assert_eq!(goertzel_power(&[], 48_000.0, 1_000.0), 0.0);
    }

    #[test]
    fn streaming_matches_batch() {
        let fs = 44_100.0;
        let sig = tone(fs, 5_000.0, 441, 0.7);
        let batch = goertzel_power(&sig, fs, 5_000.0);
        let mut det = StreamingGoertzel::new(fs, 5_000.0);
        for &x in &sig {
            det.push(x);
        }
        assert!((det.power() - batch).abs() < 1e-12);
        det.reset();
        assert_eq!(det.power(), 0.0);
    }

    #[test]
    fn bank_orders_tones_correctly() {
        let fs = 48_000.0;
        // Paper's FDM-4FSK grid: 16 tones, 800 Hz spacing, 800..12800 Hz.
        let freqs: Vec<f64> = (1..=16).map(|k| 800.0 * k as f64).collect();
        let sig = tone(fs, 4_000.0, 240, 1.0); // 200 sym/s window
        let bank = goertzel_bank(&sig, fs, &freqs);
        let argmax = bank
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(freqs[argmax], 4_000.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every tone of a bank equals its own `goertzel_power` bit for
        /// bit — banks wider than one pass's lanes, empty windows, signed
        /// zeros, subnormals, NaN and infinities included.
        #[test]
        fn bank_is_bit_identical_to_per_tone_power(
            raw in prop::collection::vec(any::<u64>(), 0..300),
            freqs in prop::collection::vec(0.0f64..24_000.0, 0..40),
            sample_rate in 8_000.0f64..96_000.0,
            mode in 0u8..3,
        ) {
            let signal: Vec<f64> = raw.iter().map(|&b| edge_value(b, mode)).collect();
            let want = bits(freqs.iter().map(|&f| goertzel_power(&signal, sample_rate, f)));
            prop_assert_eq!(bits(goertzel_bank(&signal, sample_rate, &freqs)), want);
        }
    }
}

//! Helpers that apply channel effects to whole IQ sample streams: scale a
//! unit-power transmitter stream to an absolute power, sum several
//! emitters, delay, measure. The physical simulator in `fmbs-core`
//! applies the same per-sample operations (`Dbm::amplitude_vs_0dbm`
//! scaling, sums, [`crate::noise::AwgnSource`] noise) one 10 ms block at
//! a time, so it never holds a whole scaled capture.

use crate::units::Dbm;
use fmbs_dsp::complex::Complex;

/// Scales a unit-power IQ stream so its average power corresponds to
/// `power` on the simulator's absolute scale (0 dBm ↔ unit power).
pub fn scale_to_power(iq: &mut [Complex], power: Dbm) {
    let a = power.amplitude_vs_0dbm();
    for z in iq.iter_mut() {
        *z = z.scale(a);
    }
}

/// Sums several IQ streams of equal length into a new buffer.
///
/// # Panics
/// Panics if lengths differ (misaligned simulations are bugs, not data).
pub fn sum_streams(streams: &[&[Complex]]) -> Vec<Complex> {
    assert!(!streams.is_empty());
    let n = streams[0].len();
    for s in streams {
        assert_eq!(s.len(), n, "IQ streams must be equal length");
    }
    (0..n).map(|i| streams.iter().map(|s| s[i]).sum()).collect()
}

/// Applies an integer sample delay (zero-filled head).
pub fn delay_stream(iq: &[Complex], samples: usize) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; iq.len()];
    if samples < iq.len() {
        out[samples..].copy_from_slice(&iq[..iq.len() - samples]);
    }
    out
}

/// Measures the average power of an IQ stream on the absolute scale.
pub fn measure_power(iq: &[Complex]) -> Dbm {
    let p = iq.iter().map(|z| z.norm_sqr()).sum::<f64>() / iq.len().max(1) as f64;
    Dbm::from_milliwatts(p.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tone(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_angle(0.01 * i as f64))
            .collect()
    }

    #[test]
    fn scaling_sets_measured_power() {
        let mut iq = unit_tone(10_000);
        scale_to_power(&mut iq, Dbm(-30.0));
        let p = measure_power(&iq);
        assert!((p.0 + 30.0).abs() < 0.01, "{p}");
    }

    #[test]
    fn sum_is_elementwise() {
        let a = unit_tone(100);
        let b: Vec<Complex> = a.iter().map(|z| z.scale(2.0)).collect();
        let s = sum_streams(&[&a, &b]);
        for i in 0..100 {
            assert!((s[i] - a[i].scale(3.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn delay_shifts_and_zero_fills() {
        let a = unit_tone(50);
        let d = delay_stream(&a, 10);
        assert_eq!(d[5], Complex::ZERO);
        assert_eq!(d[10], a[0]);
        assert_eq!(d[49], a[39]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let a = unit_tone(10);
        let b = unit_tone(11);
        let _ = sum_streams(&[&a, &b]);
    }

    #[test]
    fn measure_power_of_silence_is_floor() {
        let z = vec![Complex::ZERO; 16];
        assert!(measure_power(&z).0 < -1000.0);
    }
}

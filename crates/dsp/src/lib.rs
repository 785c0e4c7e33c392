//! # fmbs-dsp — DSP primitives for the FM backscatter simulator
//!
//! This crate provides the signal-processing building blocks that every other
//! crate in the `fm-backscatter-rs` workspace is built on:
//!
//! * [`Complex`] — a minimal `f64` complex number (the workspace keeps its
//!   dependency surface to the offline allow-list, so we implement our own).
//! * [`fft`] — an iterative radix-2 FFT/IFFT with pre-computed twiddles,
//!   plus power-spectrum helpers.
//! * [`goertzel`] — single-bin tone power detection, the workhorse of the
//!   non-coherent FSK receivers in `fmbs-core`.
//! * [`fir`] / [`iir`] — windowed-sinc FIR design and RBJ biquads, plus the
//!   FM de-emphasis network.
//! * [`fftconv`] — streaming overlap-save FFT convolution; long FIRs route
//!   through it automatically via [`fir::Fir::filter_aligned`]'s
//!   direct-vs-FFT crossover heuristic.
//! * [`osc`] — numerically-controlled oscillators, including the square-wave
//!   FM subcarrier oscillator that models the backscatter tag's DCO.
//! * [`resample`] — linear and integer-factor polyphase resamplers (the
//!   cooperative decoder resamples receiver audio by 10× before alignment).
//! * [`corr`] — cross-correlation and lag estimation.
//! * [`pll`] — a second-order phase-locked loop used by the stereo decoder
//!   to track the 19 kHz pilot.
//! * [`stats`] — dB conversions, percentiles and empirical CDFs used by the
//!   survey crate and the benchmark harness.
//!
//! ## Design notes
//!
//! Following the smoltcp-style guidance for production networking Rust, the
//! crate avoids clever type-level tricks, performs no allocation in
//! steady-state processing paths (filters and FFTs use pre-allocated
//! scratch), and forbids `unsafe` entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod corr;
pub mod fft;
pub mod fftconv;
pub mod fir;
pub mod goertzel;
pub mod iir;
pub mod osc;
pub mod pll;
pub mod resample;
pub mod stats;
pub mod windows;

pub use complex::Complex;

/// Inputs for the kernels' bit-identity property tests.
#[cfg(test)]
pub(crate) mod testing {
    /// Maps random bits to a kernel input. `mode` 0 draws ordinary values
    /// in (−2, 2); mode 1 mixes in signed zeros and subnormals; mode 2
    /// also NaN and infinities.
    pub fn edge_value(bits: u64, mode: u8) -> f64 {
        let special = (bits % 16) as u8;
        let subnormal = f64::from_bits((bits >> 8) & 0x000F_FFFF_FFFF_FFFF);
        match special {
            0 if mode >= 1 => 0.0,
            1 if mode >= 1 => -0.0,
            2 if mode >= 1 => subnormal,
            3 if mode >= 1 => -subnormal,
            4 if mode >= 2 => f64::NAN,
            5 if mode >= 2 => f64::INFINITY,
            6 if mode >= 2 => f64::NEG_INFINITY,
            _ => (bits >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
        }
    }

    /// The bit patterns of a sequence of values, every NaN read as one
    /// canonical NaN: Rust leaves the sign and payload of a NaN result
    /// unspecified (the compiler may commute an add's operands), so only
    /// NaN-ness is a property of the arithmetic.
    pub fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter()
            .map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
            .collect()
    }
}

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::complex::Complex;
    pub use crate::corr::{cross_correlate, find_lag};
    pub use crate::fft::Fft;
    pub use crate::fftconv::{OverlapSave, OverlapSaveComplex};
    pub use crate::fir::{Fir, FirDesign};
    pub use crate::goertzel::goertzel_power;
    pub use crate::iir::Biquad;
    pub use crate::osc::{Nco, SquareFmOscillator};
    pub use crate::resample::{resample_linear, Upsampler};
    pub use crate::stats::{db_to_linear, linear_to_db, Cdf};
    pub use crate::windows::Window;
}

/// The circle constant `τ = 2π`, used pervasively in phase arithmetic.
pub const TAU: f64 = std::f64::consts::TAU;

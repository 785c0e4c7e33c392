//! The FM stereo multiplex (MPX) baseband of Fig. 3.
//!
//! A broadcast FM station frequency-modulates a composite baseband signal:
//!
//! ```text
//!   0……15 kHz   mono (L+R)
//!   19 kHz      pilot tone (presence ⇒ receiver decodes stereo)
//!   23……53 kHz  stereo (L−R), DSB-SC about 38 kHz
//!   56……58 kHz  RDS, BPSK about 57 kHz
//! ```
//!
//! [`MpxComposer`] builds that composite from left/right audio at an
//! arbitrary sample rate; the tag in `fmbs-core` reuses it to synthesise
//! *backscatter* basebands with the same structure (which is the paper's
//! central trick — the backscattered signal must look like an FM baseband
//! so any FM receiver can decode it).

use crate::PILOT_HZ;
use fmbs_dsp::osc::Nco;
use serde::{Deserialize, Serialize};

/// Injection levels for the MPX components, as fractions of full-scale
/// deviation. US practice: L+R and L−R each up to 45 %, pilot 8–10 %, RDS a
/// few percent.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MpxLevels {
    /// Mono (L+R)/2 injection.
    pub mono: f64,
    /// Pilot injection (paper's stereo backscatter uses 0.1).
    pub pilot: f64,
    /// Stereo (L−R)/2 injection.
    pub stereo: f64,
    /// RDS injection.
    pub rds: f64,
}

impl Default for MpxLevels {
    fn default() -> Self {
        MpxLevels {
            mono: 0.45,
            pilot: 0.1,
            stereo: 0.45,
            rds: 0.04,
        }
    }
}

impl MpxLevels {
    /// Levels for a mono-only station (no pilot, no stereo, no RDS).
    pub fn mono_only() -> Self {
        MpxLevels {
            mono: 0.9,
            pilot: 0.0,
            stereo: 0.0,
            rds: 0.0,
        }
    }

    /// The paper's stereo-backscatter mix (§3.3.1): 90 % payload in the
    /// stereo band, 10 % pilot.
    pub fn stereo_backscatter() -> Self {
        MpxLevels {
            mono: 0.0,
            pilot: 0.1,
            stereo: 0.9,
            rds: 0.0,
        }
    }
}

/// Streaming composer of the FM multiplex.
///
/// Feed per-sample left/right audio (already band-limited to 15 kHz and
/// normalised to [-1, 1]); receive the composite MPX sample, normalised so
/// that |MPX| ≤ mono + pilot + stereo + rds.
#[derive(Debug, Clone)]
pub struct MpxComposer {
    levels: MpxLevels,
    pilot_nco: Nco,
    sample_rate: f64,
}

impl MpxComposer {
    /// Creates a composer at `sample_rate` Hz (must exceed twice the
    /// highest multiplex frequency, 58 kHz, to be representable).
    pub fn new(sample_rate: f64, levels: MpxLevels) -> Self {
        assert!(
            sample_rate > 2.0 * 58_000.0,
            "MPX sample rate {sample_rate} too low for the 58 kHz multiplex"
        );
        MpxComposer {
            levels,
            pilot_nco: Nco::new(sample_rate, PILOT_HZ),
            sample_rate,
        }
    }

    /// The configured sample rate.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The configured levels.
    pub fn levels(&self) -> MpxLevels {
        self.levels
    }

    /// Composes one MPX sample from left/right audio and an optional RDS
    /// baseband value (±1 BPSK shaped; 0 when RDS is off).
    ///
    /// The stereo subcarrier is derived from the pilot phase (38 kHz =
    /// 2 × 19 kHz, phase-locked) exactly as a real exciter does, so a
    /// receiver regenerating the carrier from the pilot demodulates L−R
    /// coherently.
    #[inline]
    pub fn compose(&mut self, left: f64, right: f64, rds: f64) -> f64 {
        mix(self.levels, left, right, rds, self.next_carriers())
    }

    /// Composes a whole buffer of stereo audio into MPX samples: the
    /// carriers of the next `min(left.len(), right.len())` samples are
    /// tabulated ([`MpxComposer::carriers`]), then combined with the
    /// audio. Equal, bit for bit, to calling [`MpxComposer::compose`]
    /// per sample.
    ///
    /// A mono-only mix (pilot, stereo and RDS levels all zero) multiplies
    /// every carrier by zero, so it is mixed without them: the oscillator
    /// only steps its phase, and a later call continues exactly where a
    /// per-sample composer would.
    pub fn compose_buffer(&mut self, left: &[f64], right: &[f64], rds: &[f64]) -> Vec<f64> {
        let n = left.len().min(right.len());
        let levels = self.levels;
        if levels.pilot == 0.0 && levels.stereo == 0.0 && levels.rds == 0.0 {
            return (0..n)
                .map(|i| {
                    let r = rds.get(i).copied().unwrap_or(0.0);
                    let phase = self.pilot_nco.phase();
                    self.pilot_nco.advance();
                    mix_mono_only(levels, left[i], right[i], r)
                        .unwrap_or_else(|| mix(levels, left[i], right[i], r, carriers_at(phase)))
                })
                .collect();
        }
        self.carriers(n).compose(left, right, rds)
    }

    /// Tabulates the pilot, 38 kHz and 57 kHz carriers of the next `n`
    /// samples, advancing the oscillator past them. The table depends
    /// only on the sample rate, the levels and the oscillator phase, so
    /// composers that start at the same phase (every fresh one) can share
    /// it: [`MpxCarriers::compose`] of any audio equals what this
    /// composer's `compose_buffer` would have produced.
    pub fn carriers(&mut self, n: usize) -> MpxCarriers {
        let mut c = MpxCarriers {
            levels: self.levels,
            pilot: Vec::with_capacity(n),
            sub38: Vec::with_capacity(n),
            sub57: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let [pilot, sub38, sub57] = self.next_carriers();
            c.pilot.push(pilot);
            c.sub38.push(sub38);
            c.sub57.push(sub57);
        }
        c
    }

    /// `[pilot, sub38, sub57]` at the current phase; advances one sample.
    #[inline]
    fn next_carriers(&mut self) -> [f64; 3] {
        let carriers = carriers_at(self.pilot_nco.phase());
        self.pilot_nco.advance();
        carriers
    }

    /// Resets oscillator phases.
    pub fn reset(&mut self) {
        self.pilot_nco.set_phase(0.0);
    }
}

/// `[pilot, sub38, sub57]` at pilot phase `phase`: the 38 and 57 kHz
/// subcarriers are locked to the pilot's second and third harmonics.
#[inline]
fn carriers_at(phase: f64) -> [f64; 3] {
    [phase.sin(), (2.0 * phase).sin(), (3.0 * phase).cos()]
}

/// [`mix`] for zero pilot, stereo and RDS levels, without the carriers.
/// `None` where a zero-level term could still change the result's bits —
/// a zero or non-finite mono term, or a non-finite stereo or RDS input —
/// so the caller mixes that sample with its carriers.
#[inline]
fn mix_mono_only(levels: MpxLevels, left: f64, right: f64, rds: f64) -> Option<f64> {
    let mono = levels.mono * ((left + right) / 2.0);
    let zero_terms_vanish = mono != 0.0
        && mono.is_finite()
        && (levels.stereo * ((left - right) / 2.0)).is_finite()
        && (levels.rds * rds).is_finite();
    zero_terms_vanish.then_some(mono)
}

/// The MPX expression for one sample, given its `[pilot, sub38, sub57]`
/// carriers.
#[inline]
fn mix(levels: MpxLevels, left: f64, right: f64, rds: f64, carriers: [f64; 3]) -> f64 {
    let [pilot, sub38, sub57] = carriers;
    let mono = (left + right) / 2.0;
    let diff = (left - right) / 2.0;
    levels.mono * mono
        + levels.pilot * pilot
        + levels.stereo * diff * sub38
        + levels.rds * rds * sub57
}

/// A tabulated run of MPX carriers and the levels to combine them at
/// (see [`MpxComposer::carriers`]). One vector per carrier, so no
/// allocation is larger than the composed signal's.
#[derive(Debug, Clone)]
pub struct MpxCarriers {
    levels: MpxLevels,
    pilot: Vec<f64>,
    sub38: Vec<f64>,
    sub57: Vec<f64>,
}

impl MpxCarriers {
    /// Composes `min(left.len(), right.len())` MPX samples from the
    /// table; `rds` is zero past its end.
    ///
    /// # Panics
    ///
    /// If the audio is longer than the table.
    pub fn compose(&self, left: &[f64], right: &[f64], rds: &[f64]) -> Vec<f64> {
        let n = left.len().min(right.len());
        assert!(
            n <= self.pilot.len(),
            "{n} audio samples past a {}-sample carrier table",
            self.pilot.len()
        );
        (0..n)
            .map(|i| {
                let r = rds.get(i).copied().unwrap_or(0.0);
                let carriers = [self.pilot[i], self.sub38[i], self.sub57[i]];
                mix(self.levels, left[i], right[i], r, carriers)
            })
            .collect()
    }
}

/// Measures the power of each MPX region of a composite baseband — the
/// measurement behind Fig. 5 (stereo-band utilisation) and the receiver's
/// mode decisions. All values are linear power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpxBandPowers {
    /// 30 Hz–15 kHz (mono programme).
    pub mono: f64,
    /// 18.8–19.2 kHz (pilot).
    pub pilot: f64,
    /// 23–53 kHz (stereo programme).
    pub stereo: f64,
    /// 16–18 kHz — the guard region the paper uses as its noise reference
    /// in Fig. 5 ("the empty frequencies in Fig. 3").
    pub guard: f64,
    /// 56–58 kHz (RDS).
    pub rds: f64,
}

/// Computes [`MpxBandPowers`] from an MPX capture via Welch PSD.
pub fn measure_band_powers(mpx: &[f64], sample_rate: f64) -> MpxBandPowers {
    let psd = fmbs_dsp::fft::welch_psd(mpx, 4096.min(mpx.len().next_power_of_two()));
    let bp = |lo: f64, hi: f64| fmbs_dsp::fft::band_power(&psd, sample_rate, lo, hi);
    MpxBandPowers {
        mono: bp(30.0, 15_000.0),
        pilot: bp(18_800.0, 19_200.0),
        stereo: bp(23_000.0, 53_000.0),
        guard: bp(16_000.0, 18_000.0),
        rds: bp(56_000.0, 58_000.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::TAU;

    const FS: f64 = 200_000.0;

    fn tone(f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (TAU * f * i as f64 / FS).sin()).collect()
    }

    #[test]
    fn identical_lr_puts_no_power_in_stereo_band() {
        // News stations: same speech on both channels ⇒ empty L−R (Fig. 5).
        let n = 100_000;
        let l = tone(1_000.0, n);
        let mut comp = MpxComposer::new(FS, MpxLevels::default());
        let mpx = comp.compose_buffer(&l, &l, &[]);
        let p = measure_band_powers(&mpx, FS);
        assert!(
            p.mono > 100.0 * p.stereo,
            "mono {} stereo {}",
            p.mono,
            p.stereo
        );
        assert!(p.pilot > 10.0 * p.guard);
    }

    #[test]
    fn opposite_lr_fills_stereo_band() {
        let n = 100_000;
        let l = tone(1_000.0, n);
        let r: Vec<f64> = l.iter().map(|x| -x).collect();
        let mut comp = MpxComposer::new(FS, MpxLevels::default());
        let mpx = comp.compose_buffer(&l, &r, &[]);
        let p = measure_band_powers(&mpx, FS);
        assert!(
            p.stereo > 100.0 * p.mono,
            "mono {} stereo {}",
            p.mono,
            p.stereo
        );
    }

    #[test]
    fn mono_only_levels_have_no_pilot() {
        let n = 50_000;
        let l = tone(2_000.0, n);
        let mut comp = MpxComposer::new(FS, MpxLevels::mono_only());
        let mpx = comp.compose_buffer(&l, &l, &[]);
        let p = measure_band_powers(&mpx, FS);
        assert!(p.pilot < p.mono / 1_000.0);
    }

    #[test]
    fn pilot_is_at_19_khz() {
        let mut comp = MpxComposer::new(FS, MpxLevels::default());
        let n = 100_000;
        let silence = vec![0.0; n];
        let mpx = comp.compose_buffer(&silence, &silence, &[]);
        let p_pilot = fmbs_dsp::goertzel::goertzel_power(&mpx, FS, 19_000.0);
        let p_off = fmbs_dsp::goertzel::goertzel_power(&mpx, FS, 17_000.0);
        assert!(p_pilot > 1_000.0 * p_off.max(1e-18));
        // Pilot amplitude is levels.pilot = 0.1 ⇒ power 0.1²/4 = 0.0025.
        assert!((p_pilot - 0.0025).abs() < 3e-4, "pilot power {p_pilot}");
    }

    #[test]
    fn stereo_subcarrier_is_dsb_suppressed_carrier() {
        // With L−R a 1 kHz tone, energy appears at 37 and 39 kHz but NOT at
        // the 38 kHz carrier itself.
        let n = 200_000;
        let l = tone(1_000.0, n);
        let r: Vec<f64> = l.iter().map(|x| -x).collect();
        let mut comp = MpxComposer::new(
            FS,
            MpxLevels {
                mono: 0.0,
                pilot: 0.0,
                stereo: 0.9,
                rds: 0.0,
            },
        );
        let mpx = comp.compose_buffer(&l, &r, &[]);
        let at = |f: f64| fmbs_dsp::goertzel::goertzel_power(&mpx, FS, f);
        assert!(at(37_000.0) > 100.0 * at(38_000.0).max(1e-18));
        assert!(at(39_000.0) > 100.0 * at(38_000.0).max(1e-18));
    }

    #[test]
    fn composite_respects_total_injection_bound() {
        let n = 50_000;
        let l = tone(800.0, n);
        let r = tone(1_300.0, n);
        let mut comp = MpxComposer::new(FS, MpxLevels::default());
        let mpx = comp.compose_buffer(&l, &r, &vec![1.0; n]);
        let bound = 0.45 + 0.1 + 0.45 + 0.04 + 1e-9;
        assert!(mpx.iter().all(|x| x.abs() <= bound));
    }

    /// A value's bits, any NaN read as one canonical NaN (Rust leaves a
    /// NaN result's sign and payload unspecified).
    fn nan_canonical_bits(x: f64) -> u64 {
        if x.is_nan() { f64::NAN } else { x }.to_bits()
    }

    #[test]
    fn carrier_table_composes_like_per_sample_compose() {
        let n = 30_001;
        let mut l = tone(800.0, n);
        let mut r = tone(1_300.0, n);
        // Degenerate samples, where a zero-level carrier term can still
        // decide the bits: signed zeros, a sum rounding to −0, NaN,
        // infinities and a difference that overflows.
        let odd = [
            (-0.0, -0.0),
            (0.0, -0.0),
            (5e-324, -1e-323),
            (f64::NAN, 0.5),
            (f64::INFINITY, 0.1),
            (f64::MAX, -f64::MAX),
            (1e308, -9e307),
        ];
        for (k, &(a, b)) in odd.iter().enumerate() {
            (l[3 + 5 * k], r[3 + 5 * k]) = (a, b);
        }
        let rds: Vec<f64> = (0..n / 2)
            .map(|i| if i % 7 < 3 { 1.0 } else { -1.0 })
            .collect();
        // The mono-only mix skips the table; both must match `compose`.
        for levels in [MpxLevels::default(), MpxLevels::mono_only()] {
            let mut reference = MpxComposer::new(FS, levels);
            let mut table = reference.clone();
            // Twice over, so the second buffer starts at a nonzero phase.
            for _ in 0..2 {
                let want: Vec<u64> = (0..n)
                    .map(|i| {
                        let x = reference.compose(l[i], r[i], rds.get(i).copied().unwrap_or(0.0));
                        nan_canonical_bits(x)
                    })
                    .collect();
                let got: Vec<u64> = table
                    .compose_buffer(&l, &r, &rds)
                    .into_iter()
                    .map(nan_canonical_bits)
                    .collect();
                assert_eq!(got, want);
                let phase = |c: &MpxComposer| c.pilot_nco.phase().to_bits();
                assert_eq!(phase(&table), phase(&reference));
            }
        }
    }

    #[test]
    fn one_carrier_table_serves_many_fresh_composers() {
        let n = 20_000;
        let carriers = MpxComposer::new(FS, MpxLevels::default()).carriers(n);
        for f in [500.0, 2_500.0] {
            let (l, r) = (tone(f, n), tone(1.5 * f, n));
            let want = MpxComposer::new(FS, MpxLevels::default()).compose_buffer(&l, &r, &[]);
            assert_eq!(carriers.compose(&l, &r, &[]), want);
            // A shorter window reads a prefix of the table.
            assert_eq!(carriers.compose(&l[..99], &r, &[]), want[..99]);
        }
    }

    #[test]
    #[should_panic(expected = "carrier table")]
    fn carrier_table_rejects_longer_audio() {
        let carriers = MpxComposer::new(FS, MpxLevels::default()).carriers(10);
        let _ = carriers.compose(&[0.0; 11], &[0.0; 11], &[]);
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn low_sample_rate_panics() {
        let _ = MpxComposer::new(100_000.0, MpxLevels::default());
    }
}

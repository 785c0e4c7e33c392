//! The backscatter tag (§3.3 + §4).
//!
//! The tag is three blocks, mirroring the paper's IC: a baseband processor
//! that produces `FM_back(τ)` (see [`baseband`]), an FM-modulating
//! square-wave oscillator (Eq. 2, approximated by a two-state switch
//! drive), and the RF switch that toggles the antenna between reflect and
//! absorb — which multiplies the incident FM signal by ±1.

pub mod baseband;

use fmbs_dsp::complex::Complex;
use fmbs_dsp::osc::SquareFmOscillator;
use serde::{Deserialize, Serialize};

/// Tag configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TagConfig {
    /// Subcarrier frequency `f_back` in Hz — chosen so `fc + f_back` is
    /// the centre of an unoccupied FM channel (§3.3; 600 kHz in the
    /// evaluation).
    pub f_back_hz: f64,
    /// Peak FM deviation of the synthesised subcarrier ("we set this
    /// parameter to the maximum allowable value", i.e. 75 kHz).
    pub deviation_hz: f64,
    /// Simulation sample rate the switch waveform is produced at.
    pub sample_rate: f64,
}

impl TagConfig {
    /// The paper's evaluation configuration: 600 kHz shift, 75 kHz
    /// deviation.
    pub fn paper_default(sample_rate: f64) -> Self {
        TagConfig {
            f_back_hz: crate::DEFAULT_F_BACK_HZ,
            deviation_hz: 75_000.0,
            sample_rate,
        }
    }
}

/// The backscatter tag.
#[derive(Debug, Clone)]
pub struct Tag {
    cfg: TagConfig,
    osc: SquareFmOscillator,
}

impl Tag {
    /// Creates a tag.
    pub fn new(cfg: TagConfig) -> Self {
        let osc = SquareFmOscillator::new(cfg.sample_rate, cfg.f_back_hz, cfg.deviation_hz);
        Tag { cfg, osc }
    }

    /// The configuration.
    pub fn config(&self) -> &TagConfig {
        &self.cfg
    }

    /// Produces the ±1 switch-drive waveform for a baseband stream
    /// `fm_back` (values in [-1, 1], one per output sample).
    pub fn switch_waveform(&mut self, fm_back: &[f64]) -> Vec<f64> {
        fm_back.iter().map(|&m| self.osc.next_switch(m)).collect()
    }

    /// Backscatters: multiplies the incident IQ stream by the switch
    /// waveform driven by `fm_back`. This is the physical backscatter
    /// operation — multiplication in the RF domain.
    ///
    /// # Panics
    /// Panics if the streams differ in length (they share a sample clock).
    pub fn backscatter(&mut self, incident: &[Complex], fm_back: &[f64]) -> Vec<Complex> {
        assert_eq!(
            incident.len(),
            fm_back.len(),
            "incident IQ and baseband must share the sample clock"
        );
        incident
            .iter()
            .zip(fm_back.iter())
            .map(|(&z, &m)| z.scale(self.osc.next_switch(m)))
            .collect()
    }

    /// The switch states a [`Self::backscatter`] over `fm_back` applies,
    /// one bit per sample. Since every state is exactly ±1.0, the
    /// product is rebuilt bit for bit as
    /// `incident[i].scale(signs.sign(i))` — an eighth of a byte per
    /// sample instead of a second IQ vector.
    pub fn switch_signs(&mut self, fm_back: &[f64]) -> SwitchSigns {
        let mut words = vec![0u64; fm_back.len().div_ceil(64)];
        for (i, &m) in fm_back.iter().enumerate() {
            if self.osc.next_switch(m) < 0.0 {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        SwitchSigns {
            words,
            len: fm_back.len(),
        }
    }

    /// Backscatters with an idealised cosine (not square) subcarrier —
    /// the ablation reference quantifying the square-wave approximation.
    pub fn backscatter_cosine(&mut self, incident: &[Complex], fm_back: &[f64]) -> Vec<Complex> {
        assert_eq!(incident.len(), fm_back.len());
        incident
            .iter()
            .zip(fm_back.iter())
            .map(|(&z, &m)| z.scale(self.osc.next_cosine(m)))
            .collect()
    }

    /// Single-sideband backscatter (footnote 2 of §3.3: "the cos(A−B)
    /// term can be removed using single-sideband modulation as described
    /// in [36]"). A four-state switch network (Interscatter-style)
    /// approximates a complex exponential: the quadrature square pair
    /// `sign(cos φ) + i·sign(sin φ)` concentrates energy in the *upper*
    /// sideband at `fc + f_back`, suppressing the image at `fc − f_back`
    /// that would otherwise waste power and interfere with a station
    /// below the host.
    pub fn backscatter_ssb(&mut self, incident: &[Complex], fm_back: &[f64]) -> Vec<Complex> {
        assert_eq!(
            incident.len(),
            fm_back.len(),
            "incident IQ and baseband must share the sample clock"
        );
        let mut quad = self.osc.clone();
        // Offset the quadrature oscillator by 90° of the subcarrier.
        quad.quadrature_shift();
        incident
            .iter()
            .zip(fm_back.iter())
            .map(|(&z, &m)| {
                let i_arm = self.osc.next_switch(m);
                let q_arm = quad.next_switch(m);
                // (±1 ± i)/√2 keeps per-state reflected power at unity.
                z * Complex::new(i_arm, q_arm).scale(std::f64::consts::FRAC_1_SQRT_2)
            })
            .collect()
    }

    /// Duty-cycles a switch waveform: outside the active window the switch
    /// rests (no modulation ⇒ constant reflection). Models the §8
    /// motion-triggered poster ("transmit only when a person approaches").
    pub fn gate(waveform: &mut [f64], active: impl Fn(usize) -> bool) {
        for (i, w) in waveform.iter_mut().enumerate() {
            if !active(i) {
                *w = 1.0;
            }
        }
    }
}

/// A ±1 switch waveform packed one bit per sample, set for −1 (see
/// [`Tag::switch_signs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSigns {
    words: Vec<u64>,
    len: usize,
}

impl SwitchSigns {
    /// Samples in the waveform.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The switch state at sample `i`: exactly 1.0 or −1.0.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[inline]
    pub fn sign(&self, i: usize) -> f64 {
        assert!(i < self.len, "switch sample {i} out of range {}", self.len);
        if self.words[i / 64] >> (i % 64) & 1 == 1 {
            -1.0
        } else {
            1.0
        }
    }

    /// Heap bytes the packed waveform holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::fft::Fft;
    use proptest::prelude::*;

    const FS: f64 = 2_400_000.0;

    #[test]
    fn switch_is_binary() {
        let mut tag = Tag::new(TagConfig::paper_default(FS));
        let baseband: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let w = tag.switch_waveform(&baseband);
        assert!(w.iter().all(|&x| x == 1.0 || x == -1.0));
    }

    #[test]
    fn backscatter_shifts_carrier_by_f_back() {
        // Single-tone incident carrier at 0 Hz; the backscattered spectrum
        // must peak at ±600 kHz (the square subcarrier's fundamental).
        let n = 1 << 18;
        let incident = vec![Complex::ONE; n];
        let silence = vec![0.0; n];
        let mut tag = Tag::new(TagConfig::paper_default(FS));
        let out = tag.backscatter(&incident, &silence);
        let fft = Fft::new(n);
        let mut buf = out.clone();
        fft.forward(&mut buf);
        let bin_hz = FS / n as f64;
        let power_at = |f: f64| {
            let k = ((f / bin_hz).round() as isize).rem_euclid(n as isize) as usize;
            // Sum a few bins around the target.
            (k.saturating_sub(2)..(k + 3).min(n))
                .map(|i| buf[i].norm_sqr())
                .sum::<f64>()
        };
        let p_plus = power_at(600_000.0);
        let p_minus = power_at(-600_000.0);
        let p_dc = power_at(0.0);
        let p_off = power_at(300_000.0);
        assert!(p_plus > 100.0 * p_off, "no sideband at +f_back");
        assert!(p_minus > 100.0 * p_off, "no sideband at -f_back");
        assert!(p_dc < p_plus / 10.0, "carrier leak {p_dc} vs {p_plus}");
    }

    #[test]
    fn sideband_carries_conversion_loss() {
        // Each fundamental sideband should hold (2/π)² ≈ −3.92 dB of the
        // incident power. Run at 2.56 MHz: at 2.4 MHz the ∓3rd/5th
        // harmonics alias exactly onto ±600 kHz and corrupt the
        // measurement. 600 kHz is an exact bin (61440) of a 2¹⁸ FFT here.
        let fs = 2_560_000.0;
        let n = 1 << 18;
        let incident = vec![Complex::ONE; n];
        let silence = vec![0.0; n];
        let mut tag = Tag::new(TagConfig {
            f_back_hz: 600_000.0,
            deviation_hz: 75_000.0,
            sample_rate: fs,
        });
        let out = tag.backscatter(&incident, &silence);
        let fft = Fft::new(n);
        let mut buf = out;
        fft.forward(&mut buf);
        let bin_hz = fs / n as f64;
        let k = (600_000.0 / bin_hz).round() as usize;
        let p_sideband: f64 =
            (k - 3..=k + 3).map(|i| buf[i].norm_sqr()).sum::<f64>() / (n as f64 * n as f64);
        let loss_db = -10.0 * p_sideband.log10();
        assert!((loss_db - 3.92).abs() < 0.4, "conversion loss {loss_db} dB");
    }

    #[test]
    fn cosine_subcarrier_has_less_harmonic_energy() {
        // Third harmonic at 1.8 MHz: present for the square wave, absent
        // for the cosine. (At FS = 4.8 MHz both are unaliased.)
        let fs = 4_800_000.0;
        let n = 1 << 18;
        let incident = vec![Complex::ONE; n];
        let silence = vec![0.0; n];
        let cfg = TagConfig {
            f_back_hz: 600_000.0,
            deviation_hz: 75_000.0,
            sample_rate: fs,
        };
        let mut tag_sq = Tag::new(cfg);
        let mut tag_cos = Tag::new(cfg);
        let sq = tag_sq.backscatter(&incident, &silence);
        let cos = tag_cos.backscatter_cosine(&incident, &silence);
        let fft = Fft::new(n);
        let h3 = |sig: &[Complex]| {
            let mut buf = sig.to_vec();
            fft.forward(&mut buf);
            let bin_hz = fs / n as f64;
            let k = (1_800_000.0 / bin_hz).round() as usize;
            (k - 3..=k + 3).map(|i| buf[i].norm_sqr()).sum::<f64>()
        };
        assert!(
            h3(&sq) > 50.0 * h3(&cos),
            "square {} cosine {}",
            h3(&sq),
            h3(&cos)
        );
    }

    #[test]
    fn ssb_suppresses_the_image_sideband() {
        // Footnote 2: single-sideband modulation removes the cos(A−B)
        // term. The quadrature square pair must put far more power at
        // +f_back than at −f_back.
        let fs = 2_560_000.0;
        let n = 1 << 17;
        let incident = vec![Complex::ONE; n];
        let silence = vec![0.0; n];
        let mut tag = Tag::new(TagConfig {
            f_back_hz: 600_000.0,
            deviation_hz: 75_000.0,
            sample_rate: fs,
        });
        let out = tag.backscatter_ssb(&incident, &silence);
        let fft = Fft::new(n);
        let mut buf = out;
        fft.forward(&mut buf);
        let bin_hz = fs / n as f64;
        let power_at = |f: f64| {
            let k = ((f / bin_hz).round() as isize).rem_euclid(n as isize) as usize;
            (k.saturating_sub(2)..(k + 3).min(n))
                .map(|i| buf[i].norm_sqr())
                .sum::<f64>()
        };
        let upper = power_at(600_000.0);
        let image = power_at(-600_000.0);
        assert!(
            upper > 50.0 * image,
            "upper {upper} vs image {image}: SSB not suppressing"
        );
    }

    #[test]
    fn gating_freezes_switch() {
        let mut tag = Tag::new(TagConfig::paper_default(FS));
        let baseband = vec![0.0; 1_000];
        let mut w = tag.switch_waveform(&baseband);
        Tag::gate(&mut w, |i| i < 500);
        assert!(w[500..].iter().all(|&x| x == 1.0));
        // Active region still modulates.
        assert!(w[..500].iter().any(|&x| x == -1.0));
    }

    #[test]
    #[should_panic(expected = "sample clock")]
    fn mismatched_lengths_panic() {
        let mut tag = Tag::new(TagConfig::paper_default(FS));
        let _ = tag.backscatter(&[Complex::ONE; 10], &[0.0; 5]);
    }

    /// Ordinary values in (−2, 2), with signed zeros, subnormals, NaN and
    /// infinities mixed in.
    fn edge_value(bits: u64) -> f64 {
        match bits % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits((bits >> 8) & 0x000F_FFFF_FFFF_FFFF),
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => (bits >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
        }
    }

    /// Bit patterns, every NaN read as one canonical NaN (Rust leaves a
    /// NaN result's sign and payload unspecified).
    fn iq_bits(v: impl IntoIterator<Item = Complex>) -> Vec<u64> {
        v.into_iter()
            .flat_map(|z| [z.re, z.im])
            .map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed switch states rebuild the backscatter product bit
        /// for bit — signed zeros and non-finite IQ and baseband
        /// included — and leave the oscillator where backscatter does.
        #[test]
        fn switch_signs_rebuild_backscatter(
            raw_iq in prop::collection::vec(any::<u64>(), 0..600),
            raw_bb in prop::collection::vec(any::<u64>(), 300..301),
        ) {
            let incident: Vec<Complex> = raw_iq
                .chunks_exact(2)
                .map(|p| Complex::new(edge_value(p[0]), edge_value(p[1])))
                .collect();
            let fm_back: Vec<f64> = raw_bb[..incident.len()]
                .iter()
                .map(|&b| {
                    if b % 7 == 0 {
                        edge_value(b)
                    } else {
                        (b >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                    }
                })
                .collect();
            let mut product_tag = Tag::new(TagConfig::paper_default(FS));
            let want = product_tag.backscatter(&incident, &fm_back);
            let mut signs_tag = Tag::new(TagConfig::paper_default(FS));
            let signs = signs_tag.switch_signs(&fm_back);
            prop_assert_eq!(signs.len(), incident.len());
            let got = incident.iter().enumerate().map(|(i, z)| z.scale(signs.sign(i)));
            prop_assert_eq!(iq_bits(got), iq_bits(want));
            let next = [0.25; 70];
            prop_assert_eq!(
                signs_tag.switch_waveform(&next),
                product_tag.switch_waveform(&next)
            );
        }
    }
}

//! Cooperative backscatter (§3.3): two phones as a 2×1 MIMO canceller.
//!
//! Phone 1 tunes to the backscatter channel (`fc + f_back`) and hears
//! `FM_audio + FM_back`; phone 2 tunes to the host channel (`fc`) and
//! hears `FM_audio` alone:
//!
//! ```text
//!   S_phone1 = FM_audio(t) + FM_back(t)
//!   S_phone2 = FM_audio(t)
//! ```
//!
//! Two equations, two unknowns — subtract to recover `FM_back` with *no*
//! programme interference. Two practical obstacles, both from the paper
//! and both implemented here:
//!
//! 1. the receivers are not time-synchronised → "we resample the signals
//!    on the two phones, in software, by a factor of ten" and
//!    cross-correlate. The search runs coarse to fine: the base-rate
//!    audio is correlated over the whole lag window first (a tenth of
//!    the samples and lags), and the ×10 audio only at the ±10
//!    upsampled lags around that peak, by exact direct sums;
//! 2. hardware gain control scales the audio differently → a 13 kHz
//!    preamble pilot (and a least-squares projection) calibrates the
//!    amplitude before subtraction.

use crate::sim::fast::FastSim;
use crate::sim::metric::{CoopPesq, Metric};
use crate::sim::scenario::{Scenario, Workload};
use crate::COOP_PILOT_HZ;
use fmbs_dsp::corr::{find_lag, find_lag_in};
use fmbs_dsp::goertzel::goertzel_power;
use fmbs_dsp::resample::Upsampler;

/// The §3.3 resampling factor.
pub const RESAMPLE_FACTOR: usize = 10;

/// Result of cooperative decoding.
#[derive(Debug, Clone)]
pub struct CoopResult {
    /// The recovered backscatter audio (at the original audio rate).
    pub payload: Vec<f64>,
    /// Estimated phone-2 delay in tenths of a sample (upsampled lag).
    pub lag_tenths: isize,
    /// Estimated amplitude of the host audio inside phone 1's signal
    /// relative to phone 2's copy (the AGC correction).
    pub gain: f64,
}

/// The cooperative decoder.
#[derive(Debug, Clone, Copy)]
pub struct CooperativeDecoder {
    /// Audio sample rate of both phones.
    pub sample_rate: f64,
    /// Maximum inter-phone misalignment searched, in seconds.
    pub max_lag_s: f64,
}

impl CooperativeDecoder {
    /// Creates a decoder with the paper's defaults.
    pub fn new(sample_rate: f64) -> Self {
        CooperativeDecoder {
            sample_rate,
            max_lag_s: 0.05,
        }
    }

    /// Decodes the backscatter payload from the two phones' audio.
    pub fn decode(&self, phone1: &[f64], phone2: &[f64]) -> CoopResult {
        // 1. Resample both by 10 (§3.3).
        let (s1, s2) = (upsample(phone1), upsample(phone2));

        // 2. Time-align via cross-correlation on a bounded window.
        let lag = self.align([phone1, phone2], [&s1, &s2]);

        // 3. Overlap the aligned region: s2 delayed by `lag` relative to s1
        //    means s2[i + lag] lines up with s1[i].
        let (start1, start2) = if lag >= 0 {
            (0usize, lag as usize)
        } else {
            ((-lag) as usize, 0usize)
        };
        let n = s1
            .len()
            .saturating_sub(start1)
            .min(s2.len().saturating_sub(start2));
        let a = &s1[start1.min(s1.len())..][..n];
        let b = &s2[start2.min(s2.len())..][..n];

        // 4. Amplitude calibration: least-squares projection of the host
        //    copy onto phone 1's composite (the 13 kHz pilot refines the
        //    payload scale afterwards; see `pilot_scale`).
        let dot_ab: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        let dot_bb: f64 = b.iter().map(|y| y * y).sum();
        let gain = if dot_bb > 0.0 { dot_ab / dot_bb } else { 0.0 };

        // 5. Subtract and decimate back to the original rate.
        let payload: Vec<f64> = (0..n / RESAMPLE_FACTOR)
            .map(|i| {
                let k = i * RESAMPLE_FACTOR;
                a[k] - gain * b[k]
            })
            .collect();
        CoopResult {
            payload,
            lag_tenths: lag,
            gain,
        }
    }

    /// The search window over the upsampled audio `s1`, `s2`: the
    /// largest lag (at most `max_lag_s`, and at most half of `s1`) and
    /// the prefix length searched (at most 1 s of upsampled audio, to
    /// bound cost).
    fn search_window(&self, s1: &[f64], s2: &[f64]) -> (usize, usize) {
        let max_lag = ((self.max_lag_s * self.sample_rate) as usize * RESAMPLE_FACTOR)
            .min(s1.len().saturating_sub(1) / 2);
        let search_len = (s1.len().min(s2.len())).min(
            (self.sample_rate as usize) * RESAMPLE_FACTOR, // 1 s of upsampled audio
        );
        (max_lag, search_len)
    }

    /// The lag of `s2` behind `s1`, in upsampled samples, where `s1`
    /// and `s2` are the phones' audio passed through [`upsample`]; found
    /// coarse to fine.
    ///
    /// Upsampling is linear and time-invariant, so a delay of `L`
    /// base-rate samples is a delay of exactly `10·L` upsampled ones.
    /// The coarse pass runs [`find_lag`] on the base-rate audio over a
    /// tenth of the window, `±max_lag/10` lags; the fine pass scores
    /// the upsampled lags `10·L ± 10` (clamped to `±max_lag`) by exact
    /// direct sums over the full window, picking as the full search
    /// over every upsampled lag does: the last maximum on a tie, lag 0
    /// when a sample in the window is NaN or infinite (the full
    /// search's transform turns every lag into NaN then).
    ///
    /// The result is the full search's when its peak lies within one
    /// base-rate sample of the coarse peak. That holds on broadband
    /// audio such as speech and programme material, at whole and
    /// fractional delays alike; tests pin it with a tone at the 13 kHz
    /// pilot's share of the rate carrying up to about the broadband
    /// power. Audio dominated by one tone is outside that: its
    /// base-rate correlation has a near-equal peak every period of the
    /// tone, and the coarse pass can pick one a period or more from the
    /// full search's.
    pub fn align(&self, [phone1, phone2]: [&[f64]; 2], [s1, s2]: [&[f64]; 2]) -> isize {
        let (max_lag, search_len) = self.search_window(s1, s2);
        let (s1, s2) = (&s1[..search_len], &s2[..search_len]);
        if !s1.iter().chain(s2).all(|x| x.is_finite()) {
            return 0;
        }
        let f = RESAMPLE_FACTOR;
        let coarse_len = (search_len / f).min(phone1.len()).min(phone2.len());
        let coarse = find_lag(&phone1[..coarse_len], &phone2[..coarse_len], max_lag / f);
        let (max_lag, center) = (max_lag as isize, coarse * f as isize);
        let fine = (center - f as isize).max(-max_lag)..=(center + f as isize).min(max_lag);
        find_lag_in(s1, s2, fine).unwrap_or(0)
    }

    /// Measures the 13 kHz pilot amplitude over a segment — the paper's
    /// AGC reference. Comparing the preamble pilot with the in-payload
    /// pilot gives the scale factor to undo receiver gain changes.
    pub fn pilot_amplitude(&self, audio: &[f64]) -> f64 {
        (goertzel_power(audio, self.sample_rate, COOP_PILOT_HZ) * 4.0).sqrt()
    }
}

/// The §3.3 software resampling of one phone's audio, ×10.
pub fn upsample(audio: &[f64]) -> Vec<f64> {
    Upsampler::new(RESAMPLE_FACTOR, 8).process(audio)
}

/// Full cooperative experiment harness (Fig. 12).
#[derive(Debug, Clone)]
pub struct CoopSession {
    /// The scenario (power, distance).
    pub scenario: Scenario,
    /// Payload duration in seconds.
    pub duration_s: f64,
    /// Simulated inter-phone delay in seconds (receivers start at
    /// different times).
    pub phone2_delay_s: f64,
    /// Simulated phone-2 AGC gain relative to phone 1.
    pub phone2_gain: f64,
}

impl CoopSession {
    /// Creates a session with representative phone mismatches.
    pub fn new(scenario: Scenario, duration_s: f64) -> Self {
        CoopSession {
            scenario,
            duration_s,
            phone2_delay_s: 0.0013,
            phone2_gain: 0.62,
        }
    }

    /// The fully specified scenario this session runs: payload speech
    /// preceded by the low-power 13 kHz calibration pilot (§3.3: "a low
    /// power pilot tone").
    pub fn scenario(&self) -> Scenario {
        self.scenario.with_workload(
            Workload::coop_audio(self.duration_s).with_payload_seed(self.scenario.seed ^ 0xC0),
        )
    }

    /// Runs the experiment: returns the recovered payload's PESQ-like
    /// score against the clean payload.
    pub fn run_pesq(&self) -> f64 {
        CoopPesq {
            phone2_delay_s: self.phone2_delay_s,
            phone2_gain: self.phone2_gain,
        }
        .evaluate(&FastSim, &self.scenario())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fast::FAST_AUDIO_RATE;
    use fmbs_audio::program::ProgramKind;
    use fmbs_dsp::TAU;

    #[test]
    fn decoder_cancels_shared_host_audio() {
        // Synthetic check: phone1 = host + payload, phone2 = 0.6·host
        // delayed; decoding must recover the payload and kill the host.
        let fs = FAST_AUDIO_RATE;
        let n = 48_000;
        let host: Vec<f64> = (0..n)
            .map(|i| {
                0.8 * (TAU * 700.0 * i as f64 / fs).sin()
                    + 0.3 * (TAU * 2_900.0 * i as f64 / fs).sin()
            })
            .collect();
        let payload: Vec<f64> = (0..n)
            .map(|i| 0.5 * (TAU * 5_000.0 * i as f64 / fs).sin())
            .collect();
        let phone1: Vec<f64> = host.iter().zip(&payload).map(|(h, p)| h + p).collect();
        let delay = 37;
        let mut phone2 = vec![0.0; n];
        for i in delay..n {
            phone2[i] = 0.6 * host[i - delay];
        }
        let dec = CooperativeDecoder::new(fs);
        let res = dec.decode(&phone1, &phone2);
        // Lag should be −delay·10 (phone2 content *lags* phone1 by delay
        // samples, so aligning requires shifting): accept either sign
        // convention as long as cancellation worked.
        let out = &res.payload[2_000..res.payload.len() - 2_000];
        let p_host = goertzel_power(out, fs, 700.0);
        let p_payload = goertzel_power(out, fs, 5_000.0);
        assert!(
            p_payload > 30.0 * p_host.max(1e-15),
            "payload {p_payload} vs residual host {p_host} (lag {})",
            res.lag_tenths
        );
    }

    /// The lag the full search over every upsampled lag finds: what
    /// the coarse-to-fine search must reproduce.
    fn full_search_lag(dec: &CooperativeDecoder, phone1: &[f64], phone2: &[f64]) -> isize {
        let (s1, s2) = (upsample(phone1), upsample(phone2));
        let (max_lag, search_len) = dec.search_window(&s1, &s2);
        find_lag(&s1[..search_len], &s2[..search_len], max_lag)
    }

    fn coarse_to_fine_lag(dec: &CooperativeDecoder, phone1: &[f64], phone2: &[f64]) -> isize {
        let (s1, s2) = (upsample(phone1), upsample(phone2));
        dec.align([phone1, phone2], [&s1, &s2])
    }

    /// Uniform pseudo-noise in (−1, 1).
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Coarse to fine finds the full search's lag on host-like audio
        /// (low-passed noise under a syllabic envelope, rms about 0.2,
        /// plus a tone at the 13 kHz pilot's share of the sample rate
        /// with up to about the same power) at any delay within the
        /// window, drawn at the ×10 rate so most fall between base-rate
        /// samples, either sign, with AGC gain and hiss. A stronger tone
        /// is outside `align`'s contract (see its doc).
        #[test]
        fn coarse_to_fine_lag_equals_the_full_search(
            seed in 0u64..1_000_000,
            len in 400usize..1_600,
            delay_frac in -1.0f64..1.0,
            gain in 0.2f64..1.5,
            hiss in 0.0f64..0.3,
            tone in 0.0f64..0.3,
        ) {
            let fs = 8_000.0;
            let dec = CooperativeDecoder { sample_rate: fs, max_lag_s: 0.02 };
            let f = RESAMPLE_FACTOR;
            let max_delay = (0.02 * fs) as usize;
            let delay = (delay_frac * (max_delay * f) as f64).round() as isize;
            let raw = noise(len + 2 * max_delay + 4, seed);
            let pilot = TAU * COOP_PILOT_HZ / 48_000.0;
            let host: Vec<f64> = raw
                .windows(4)
                .enumerate()
                .map(|(i, w)| {
                    let env = 0.4 + 0.6 * (TAU * 3.0 * i as f64 / fs).sin().abs();
                    env * w.iter().sum::<f64>() / 4.0 + tone * (pilot * i as f64).sin()
                })
                .collect();
            // Phone 2 hears the ×10 host `delay` upsampled samples late,
            // then keeps every tenth sample.
            let host_up = upsample(&host);
            let at = |i: usize, d: isize| host_up[(((max_delay + i) * f) as isize - d) as usize];
            let extra = noise(2 * len, seed ^ 0xA5);
            let phone1: Vec<f64> = (0..len).map(|i| at(i, 0) + hiss * extra[i]).collect();
            let phone2: Vec<f64> = (0..len)
                .map(|i| gain * at(i, delay) + hiss * extra[len + i])
                .collect();
            proptest::prop_assert_eq!(
                coarse_to_fine_lag(&dec, &phone1, &phone2),
                full_search_lag(&dec, &phone1, &phone2)
            );
        }
    }

    #[test]
    fn coarse_to_fine_lag_equals_the_full_search_on_degenerate_input() {
        let dec = CooperativeDecoder::new(FAST_AUDIO_RATE);
        let check = |phone1: &[f64], phone2: &[f64]| {
            assert_eq!(
                coarse_to_fine_lag(&dec, phone1, phone2),
                full_search_lag(&dec, phone1, phone2),
                "lengths {} and {}",
                phone1.len(),
                phone2.len()
            );
        };
        // All zero: every lag ties, so both take the last, `+max_lag`.
        check(&[0.0; 4_000], &[0.0; 4_000]);
        // Shorter than one coarse lag: the fine window is the whole search.
        for len in 0..=2 {
            check(&noise(len, 1), &noise(len, 2));
        }
        // One phone empty.
        check(&noise(300, 3), &[]);
        // A NaN or infinity anywhere in either phone, the last sample
        // included, poisons every lag of the full search's transform:
        // lag 0.
        let (clean1, clean2) = (noise(4_000, 4), noise(4_000, 5));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 2_000, 3_999] {
                for phone in 0..2 {
                    let mut pair = [clean1.clone(), clean2.clone()];
                    pair[phone][at] = bad;
                    check(&pair[0], &pair[1]);
                    assert_eq!(coarse_to_fine_lag(&dec, &pair[0], &pair[1]), 0);
                }
            }
        }
    }

    #[test]
    fn decode_of_degenerate_input_returns_instead_of_panicking() {
        let dec = CooperativeDecoder::new(FAST_AUDIO_RATE);
        for (phone1, phone2) in [
            (vec![], vec![]),
            (noise(300, 6), vec![]),
            (vec![], noise(300, 7)),
            (vec![0.0; 500], vec![0.0; 500]),
        ] {
            let res = dec.decode(&phone1, &phone2);
            assert!(res.payload.len() <= phone1.len().min(phone2.len()));
        }
    }

    #[test]
    fn coop_pesq_near_four_at_good_power() {
        // Fig. 12: "cooperative backscatter has high PESQ values of around
        // 4 for different power values between −20 and −50 dBm."
        let session = CoopSession::new(Scenario::bench(-30.0, 8.0, ProgramKind::News), 3.0);
        let score = session.run_pesq();
        assert!(score > 3.2, "coop PESQ {score}");
    }

    #[test]
    fn coop_works_at_minus_50_dbm() {
        // The power where stereo backscatter already fails (§5.3).
        let session = CoopSession::new(Scenario::bench(-50.0, 6.0, ProgramKind::News), 3.0);
        let score = session.run_pesq();
        assert!(score > 2.5, "coop PESQ at −50 dBm: {score}");
    }

    #[test]
    fn coop_beats_overlay() {
        let scenario = Scenario::bench(-30.0, 8.0, ProgramKind::RockMusic);
        let coop = CoopSession::new(scenario, 3.0).run_pesq();
        let overlay = crate::overlay::OverlayAudio::new(scenario, 3.0).run_pesq();
        assert!(coop > overlay + 0.7, "coop {coop} vs overlay {overlay}");
    }

    #[test]
    fn pilot_amplitude_measurement() {
        let fs = FAST_AUDIO_RATE;
        let sig: Vec<f64> = (0..48_000)
            .map(|i| 0.08 * (TAU * COOP_PILOT_HZ * i as f64 / fs).sin())
            .collect();
        let dec = CooperativeDecoder::new(fs);
        let amp = dec.pilot_amplitude(&sig);
        assert!((amp - 0.08).abs() < 0.005, "measured pilot amplitude {amp}");
    }
}

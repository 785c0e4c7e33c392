//! The fast audio-domain simulator.
//!
//! §3.3's central identity says an FM receiver tuned to `fc + f_back`
//! outputs `FM_audio(t) + FM_back(t)`. The fast simulator works directly in
//! that audio domain:
//!
//! ```text
//!   audio_rx(t) = h(t)·[FM_audio(t) + FM_back(t)]  ⊕  n(t)  → receiver chain
//! ```
//!
//! where `n(t)` is FM post-detection noise whose level comes from the link
//! budget's CNR (including the threshold collapse), `h(t)` is the motion
//! fading process (scaling CNR, not the audio — both programme and payload
//! ride the same backscattered carrier), and the receiver chain applies the
//! capture roll-off (phone) or cabin acoustics (car). The physical
//! simulator validates this identity; integration tests in `tests/` assert
//! the two tiers agree.
//!
//! The engine is block-processed for sweep throughput: noise, FM clicks
//! and fading gains are generated into contiguous per-block buffers from
//! purpose-salted RNG streams (one per process), the combining loops are
//! branch-free slice walks, and the capture filter runs as overlap-save
//! FFT convolution — see the [`super`] module docs for how this keeps
//! parallel sweeps bit-identical to serial ones. Only the channel the
//! payload rides (mono, or L−R for stereo-band payloads) is synthesised.
//! Its post-detection noise is one [`fill_gaussian`] (a ziggurat, no
//! transcendental on ~99% of draws) per block; a profile reports a run's
//! draws as one `noise_draws` call.

use super::metric::STEREO_PAYLOAD_GAIN;
use super::scenario::{ReceiverKind, Scenario};
use super::{SimOutput, Simulator};
use crate::modem::decoder::DataDecoder;
use crate::modem::encoder::DataEncoder;
use crate::modem::{bit_error_rate, Bitrate};
use fmbs_channel::backscatter_link::audio_snr_from_cnr;
use fmbs_channel::car::CabinChain;
use fmbs_channel::noise::fill_gaussian;
use fmbs_dsp::fir::{Fir, FirDesign};
use fmbs_dsp::windows::Window;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Audio sample rate of the fast simulator.
pub const FAST_AUDIO_RATE: f64 = 48_000.0;

/// Backscatter RSSI (dBm) below which the receiver blends to mono and
/// never engages stereo decoding — consumer FM chips gate stereo on
/// signal strength, which is why stereo backscatter needs ≳ −40 dBm
/// ambient power (§5.3) while overlay data still decodes at −60 dBm.
pub const PILOT_DETECT_RSSI_DBM: f64 = -78.0;

/// Extra post-detection noise in the stereo (L−R) channel relative to the
/// mono channel (stereo FM's classic noise penalty).
pub const STEREO_NOISE_PENALTY_DB: f64 = 6.0;

/// RMS level tag payloads are loudness-processed to (relative to
/// full-scale deviation). The tag uses the maximum allowable deviation
/// (§3.2), so its payload is fully modulated.
pub const BROADCAST_RMS: f64 = 0.25;

/// RMS level of the *host programme* audio. Broadcast processing is loud
/// but keeps modulation headroom, so the programme sits a few dB below
/// the tag's fully-modulated payload — the mixture that lands overlay
/// backscatter at its PESQ ≈ 2 operating point (Fig. 11).
pub const HOST_RMS: f64 = 0.2;

/// Peak FM-click rate scale (clicks/s) and its CNR decay constant: below
/// ~20 dB CNR the discriminator starts producing impulsive clicks whose
/// rate grows exponentially as the carrier weakens — the mechanism that
/// breaks the short-symbol 3.2 kbps mode first (§3.4's 400 sym/s limit).
pub const CLICK_RATE_SCALE: f64 = 2_500.0;
/// E-folding of the click rate in dB of CNR.
pub const CLICK_RATE_DECAY_DB: f64 = 2.8;
/// CNR at which the click rate reaches its scale value.
pub const CLICK_RATE_KNEE_DB: f64 = 4.0;

/// The fast simulator: a stateless audio-domain engine. Every run is
/// fully described by the [`Scenario`] it receives, so one instance can
/// serve any number of sweep workers concurrently.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastSim;

impl FastSim {
    /// Creates the simulator.
    pub fn new() -> Self {
        FastSim
    }

    /// Runs the overlay pipeline: the receiver (tuned to the backscatter
    /// channel) hears host programme + `payload` + noise.
    ///
    /// `payload` is the tag's baseband (audio or FSK waveform) at
    /// [`FAST_AUDIO_RATE`], peak ≤ 1. `payload_in_stereo_band` selects
    /// whether the payload rides the L−R band (stereo backscatter)
    /// instead of the mono band. Only that channel is synthesised: the
    /// other of [`SimOutput::mono`] and [`SimOutput::difference`] is
    /// all-zero (length `payload.len()`), as is `difference` when the
    /// pilot is not detected; `pilot_detected` and `host` are always
    /// filled. The returned [`SimOutput`] has an empty `payload` — it
    /// describes *synthesised* workloads and is filled by the
    /// [`Simulator`] entry point.
    pub fn run_payload(
        &self,
        s: &Scenario,
        payload: &[f64],
        payload_in_stereo_band: bool,
    ) -> SimOutput {
        let budget = s.link().budget_at_feet(s.distance_ft);
        let n = payload.len();

        // Host programme as decoded audio, loudness-processed to the
        // broadcast RMS (shared scenario derivation — the physical tier
        // hears the same programme). Silence genre ⇒ zero interference,
        // the §5.1 bench case.
        let host = s.host_audio(FAST_AUDIO_RATE, n);

        // Motion fading: per-block CNR scaling, from the scenario's
        // shared fading process.
        let mut fader = s.fader(FAST_AUDIO_RATE);
        let block = (FAST_AUDIO_RATE * 0.01) as usize; // 10 ms blocks

        // One purpose-salted RNG stream per noise process. Keeping the
        // streams independent is what lets each buffer be filled a block
        // at a time without perturbing the other processes' draw
        // sequences — the per-point stream layout depends only on the
        // scenario seed, never on scheduling, so parallel == serial
        // bit-identity is preserved.
        let mut rng_click = StdRng::seed_from_u64(s.seed.wrapping_mul(0x9E37).wrapping_add(7));
        let mut rng_mono = StdRng::seed_from_u64(s.seed.wrapping_mul(0x9E37).wrapping_add(0x6D0));
        let mut rng_stereo = StdRng::seed_from_u64(s.seed.wrapping_mul(0x9E37).wrapping_add(0x57E));

        let pilot_detected = budget.backscatter_at_rx.0 > PILOT_DETECT_RSSI_DBM;
        // Only the channel the payload rides is synthesised: the metrics
        // read no other (see "Throughput design" in `sim`). The
        // difference channel stays all-zero without a pilot: the
        // receiver never leaves mono mode.
        let synthesised = !payload_in_stereo_band || pilot_detected;

        // Contiguous per-block output/scratch buffers: the combining
        // loops below are branch-free slice walks the compiler can
        // autovectorise; no per-sample push or bounds-checked get.
        let mut channel = vec![0.0f64; n];
        let mut clicks = vec![0.0f64; n];
        let mut gauss = vec![0.0f64; block.max(1)];
        let mut draws = fmbs_obs::Tally::one_call(fmbs_obs::stages::NOISE_DRAWS);
        // Click state: a decaying impulse excited at Poisson arrivals.
        let mut click_level = 0.0f64;
        let mut i = 0usize;
        while i < n {
            let len = block.min(n - i);
            // One fading draw per block (gain applied to carrier power).
            let h = fader.next_gain().abs();
            let cnr_block = budget.cnr.0 + 20.0 * h.log10();
            // Below the FM threshold the weak carrier loses the capture
            // battle: the *signal* is suppressed (not just buried), which
            // is what audio_snr_from_cnr's quadratic collapse models.
            let deficit =
                (fmbs_channel::backscatter_link::FM_THRESHOLD_CNR_DB - cnr_block).max(0.0);
            let sig_gain = 10f64.powf(-1.5 * deficit * deficit / 20.0);
            let linear_snr = audio_snr_from_cnr(
                cnr_block.max(fmbs_channel::backscatter_link::FM_THRESHOLD_CNR_DB),
            );
            let noise_rms = 10f64.powf(-linear_snr / 20.0);
            let stereo_noise_rms = 10f64.powf(-(linear_snr - STEREO_NOISE_PENALTY_DB) / 20.0);
            // FM click process for this block.
            let click_rate =
                CLICK_RATE_SCALE * (-(cnr_block - CLICK_RATE_KNEE_DB) / CLICK_RATE_DECAY_DB).exp();
            let p_click = (click_rate / FAST_AUDIO_RATE).min(0.5);

            // 1. Click impulse train (sequential decay recurrence, but
            //    one multiply-add per sample).
            fill_clicks(
                &mut rng_click,
                p_click,
                &mut click_level,
                &mut clicks[i..i + len],
            );

            // 2. The payload's channel: a gaussian block from that
            //    channel's own stream, then a branch-free combine — mono
            //    (host + payload) or L−R (host difference + payload at
            //    the stereo gain, under the stereo noise penalty).
            if synthesised {
                let (rng, host, gain, rms) = if payload_in_stereo_band {
                    (
                        &mut rng_stereo,
                        &host.difference,
                        STEREO_PAYLOAD_GAIN,
                        stereo_noise_rms,
                    )
                } else {
                    (&mut rng_mono, &host.mono, 1.0, noise_rms)
                };
                {
                    let _draws = draws.enter();
                    fill_gaussian(rng, &mut gauss[..len]);
                }
                let out = &mut channel[i..i + len];
                let hc = &host[i..i + len];
                let p = &payload[i..i + len];
                let cl = &clicks[i..i + len];
                let gs = &gauss[..len];
                for k in 0..len {
                    out[k] = sig_gain * (hc[k] + gain * p[k]) + rms * gs[k] + cl[k];
                }
            }
            i += len;
        }

        // Receiver audio chain: the phone's capture low-pass (routed
        // through FFT convolution when the tap-count × length heuristic
        // favours it), or the car's cabin acoustics on the mono channel.
        // An all-zero channel stays all-zero.
        let channel = match s.receiver {
            ReceiverKind::Smartphone if synthesised => {
                phone_capture_filter().filter_aligned(&channel)
            }
            ReceiverKind::Car if !payload_in_stereo_band => {
                CabinChain::default_at(FAST_AUDIO_RATE).apply(&channel, s.seed ^ 0xCA7)
            }
            _ => channel,
        };
        let (mono, difference) = if payload_in_stereo_band {
            (vec![0.0; n], channel)
        } else {
            (channel, vec![0.0; n])
        };

        SimOutput {
            mono,
            difference,
            pilot_detected,
            budget,
            sample_rate: FAST_AUDIO_RATE,
            host,
            payload: Default::default(),
        }
    }

    /// Convenience: full overlay-data run — encode `bits`, simulate,
    /// decode, return the BER.
    pub fn overlay_data_ber(&self, s: &Scenario, bits: &[bool], bitrate: Bitrate) -> f64 {
        let enc = DataEncoder::new(FAST_AUDIO_RATE, bitrate);
        let wave = enc.encode(bits);
        let out = self.run_payload(s, &wave, false);
        let dec = DataDecoder::new(FAST_AUDIO_RATE, bitrate);
        let rx = dec.decode(&out.mono, 0, bits.len());
        bit_error_rate(bits, &rx)
    }

    /// Convenience: stereo-backscatter data run (payload decoded from the
    /// L−R channel). Returns `None` when the pilot was not detected (the
    /// receiver stayed in mono mode — no stereo stream at all).
    pub fn stereo_data_ber(&self, s: &Scenario, bits: &[bool], bitrate: Bitrate) -> Option<f64> {
        let enc = DataEncoder::new(FAST_AUDIO_RATE, bitrate);
        let wave = enc.encode(bits);
        let out = self.run_payload(s, &wave, true);
        if !out.pilot_detected {
            return None;
        }
        let dec = DataDecoder::new(FAST_AUDIO_RATE, bitrate);
        let rx = dec.decode(&out.difference, 0, bits.len());
        Some(bit_error_rate(bits, &rx))
    }
}

impl Simulator for FastSim {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn run(&self, scenario: &Scenario) -> SimOutput {
        let synth = scenario.workload.synthesise(FAST_AUDIO_RATE);
        let mut out = self.run_payload(scenario, &synth.wave, scenario.workload.stereo_band());
        out.payload = synth;
        out
    }
}

/// Fills `out` with the FM click impulse train: at each sample a click
/// arrives with probability `p_click` and kicks `level` by a random-signed
/// impulse; the level then decays (~12 samples). A level below the
/// smallest normal `f64` is flushed to zero — left alone, `0.82 × 5e-324`
/// rounds back to `5e-324`, and every later sample would multiply a
/// subnormal. The flush changes no output: a subnormal adds nothing to a
/// channel sample (never that small) nor to the next click's level.
fn fill_clicks(rng: &mut StdRng, p_click: f64, level: &mut f64, out: &mut [f64]) {
    let mut click_level = *level;
    for c in out.iter_mut() {
        if rng.gen::<f64>() < p_click {
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            click_level += sign * (2.0 + 1.2 * rng.gen::<f64>());
        }
        click_level *= 0.82; // ~12-sample decay
        if click_level.abs() < f64::MIN_POSITIVE {
            click_level = 0.0;
        }
        *c = click_level;
    }
    *level = click_level;
}

/// The phone capture chain's ~13 kHz low-pass (Fig. 6's cliff), at the
/// fast simulator's audio rate.
pub fn phone_capture_filter() -> Fir {
    FirDesign {
        taps: 301,
        window: Window::Blackman,
    }
    .lowpass(FAST_AUDIO_RATE, 13_500.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::encoder::test_bits;
    use fmbs_audio::program::ProgramKind;
    use fmbs_channel::fading::MotionProfile;
    use fmbs_channel::pathloss::gaussian;
    use proptest::prelude::*;

    fn tone(f: f64, secs: f64, amp: f64) -> Vec<f64> {
        (0..(FAST_AUDIO_RATE * secs) as usize)
            .map(|i| amp * (fmbs_dsp::TAU * f * i as f64 / FAST_AUDIO_RATE).sin())
            .collect()
    }

    #[test]
    fn strong_link_passes_payload_tone() {
        let s = Scenario::bench(-20.0, 4.0, ProgramKind::Silence);
        let out = FastSim.run_payload(&s, &tone(1_000.0, 0.5, 0.9), false);
        let snr = fmbs_audio::metrics::tone_snr_db(&out.mono[4_800..], FAST_AUDIO_RATE, 1_000.0);
        assert!(snr > 35.0, "strong-link tone SNR {snr}");
    }

    #[test]
    fn a_profiled_point_records_its_noise_draws_once() {
        // A 0.5 s payload walks 50 blocks; the draws of each noise
        // process are one call. The car adds the cabin's engine noise.
        let payload = tone(1_000.0, 0.5, 0.9);
        let draws = |s: &Scenario| {
            let c = fmbs_obs::Collector::new();
            let plain = FastSim.run_payload(s, &payload, false);
            let profiled = {
                let _g = fmbs_obs::install(Some(c.clone()));
                FastSim.run_payload(s, &payload, false)
            };
            assert_eq!(plain.mono, profiled.mono, "profiling moved the bits");
            let stats: std::collections::BTreeMap<_, _> = c.stage_stats().into_iter().collect();
            stats[fmbs_obs::stages::NOISE_DRAWS].calls
        };
        assert_eq!(draws(&Scenario::bench(-40.0, 4.0, ProgramKind::News)), 1);
        assert_eq!(draws(&Scenario::car(-40.0, 4.0, ProgramKind::News)), 2);
    }

    #[test]
    fn weak_link_buries_payload() {
        let s = Scenario::bench(-60.0, 20.0, ProgramKind::Silence);
        let out = FastSim.run_payload(&s, &tone(1_000.0, 0.5, 0.9), false);
        let snr = fmbs_audio::metrics::tone_snr_db(&out.mono[4_800..], FAST_AUDIO_RATE, 1_000.0);
        assert!(snr < 10.0, "weak-link tone SNR {snr}");
    }

    #[test]
    fn overlay_ber_increases_with_rate() {
        // Fig. 8's headline shape at a mid-strength operating point.
        let scenario = Scenario::bench(-50.0, 8.0, ProgramKind::News);
        let bits = test_bits(400, 3);
        let ber100 = FastSim.overlay_data_ber(&scenario, &bits, Bitrate::Bps100);
        let ber3200 = FastSim.overlay_data_ber(&scenario, &bits, Bitrate::Kbps3_2);
        assert!(
            ber100 <= ber3200,
            "100 bps BER {ber100} should not exceed 3.2 kbps BER {ber3200}"
        );
        assert!(ber100 < 0.05, "100 bps should be reliable here: {ber100}");
    }

    #[test]
    fn pilot_detection_gates_stereo_mode() {
        let strong = Scenario::bench(-30.0, 4.0, ProgramKind::News);
        let weak = Scenario::bench(-60.0, 4.0, ProgramKind::News);
        let payload = tone(2_000.0, 0.3, 0.9);
        assert!(FastSim.run_payload(&strong, &payload, true).pilot_detected);
        assert!(!FastSim.run_payload(&weak, &payload, true).pilot_detected);
    }

    #[test]
    fn stereo_band_payload_avoids_news_interference() {
        // Fig. 10: at −30 dBm, stereo backscatter beats overlay because
        // the news host leaves L−R almost empty.
        let scenario = Scenario::bench(-30.0, 4.0, ProgramKind::News);
        let bits = test_bits(800, 5);
        let overlay = FastSim.overlay_data_ber(&scenario, &bits, Bitrate::Kbps3_2);
        let stereo = FastSim
            .stereo_data_ber(&scenario, &bits, Bitrate::Kbps3_2)
            .expect("pilot must be detected at -30 dBm");
        assert!(
            stereo <= overlay,
            "stereo BER {stereo} should not exceed overlay BER {overlay}"
        );
    }

    #[test]
    fn motion_degrades_ber() {
        let bits = test_bits(1600, 7);
        // Operate near the margin so fading has something to break.
        let standing = Scenario::fabric(MotionProfile::Standing);
        let running = Scenario::fabric(MotionProfile::Running);
        let ber_stand = FastSim.overlay_data_ber(&standing, &bits, Bitrate::Kbps1_6);
        let ber_run = FastSim.overlay_data_ber(&running, &bits, Bitrate::Kbps1_6);
        assert!(
            ber_run >= ber_stand,
            "running BER {ber_run} below standing BER {ber_stand}"
        );
    }

    #[test]
    fn car_output_carries_cabin_noise() {
        let s = Scenario::car(-30.0, 30.0, ProgramKind::Silence);
        let out = FastSim.run_payload(&s, &vec![0.0; 24_000], false);
        // Engine noise present even with silent programme and payload.
        assert!(fmbs_dsp::stats::rms(&out.mono[4_800..]) > 0.005);
    }

    #[test]
    fn simulator_trait_fills_references() {
        use crate::sim::scenario::Workload;
        use crate::sim::Simulator;
        let s = Scenario::bench(-30.0, 4.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Bps100, 50));
        let out = Simulator::run(&FastSim, &s);
        assert_eq!(out.payload.bits.len(), 50);
        assert_eq!(out.mono.len(), out.payload.reference.len());
        assert_eq!(FastSim.name(), "fast");
    }

    #[test]
    fn only_the_payload_channel_is_synthesised() {
        let payload = tone(1_000.0, 0.25, 0.9);
        let n = payload.len();
        for s in [
            Scenario::bench(-30.0, 4.0, ProgramKind::RockMusic),
            Scenario::car(-30.0, 30.0, ProgramKind::RockMusic),
        ] {
            // Mono-band payload with the pilot detected: L−R is not read,
            // so it stays all-zero.
            let mono = FastSim.run_payload(&s, &payload, false);
            assert!(mono.pilot_detected);
            assert_eq!(mono.difference, vec![0.0; n]);
            assert!(fmbs_dsp::stats::rms(&mono.mono) > 0.01);
            // Stereo-band payload: the mono channel is not read.
            let stereo = FastSim.run_payload(&s, &payload, true);
            assert!(stereo.pilot_detected);
            assert_eq!(stereo.mono, vec![0.0; n]);
            assert!(fmbs_dsp::stats::rms(&stereo.difference) > 0.01);
            assert_eq!(stereo.host.mono, mono.host.mono);
        }
    }

    #[test]
    fn output_length_matches_payload() {
        let s = Scenario::bench(-30.0, 4.0, ProgramKind::News);
        let out = FastSim.run_payload(&s, &vec![0.0; 12_345], false);
        assert_eq!(out.mono.len(), 12_345);
        assert_eq!(out.difference.len(), 12_345);
    }

    /// The click recurrence without the subnormal flush.
    fn unflushed_clicks(rng: &mut StdRng, p_click: f64, level: &mut f64, out: &mut [f64]) {
        for c in out.iter_mut() {
            if rng.gen::<f64>() < p_click {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                *level += sign * (2.0 + 1.2 * rng.gen::<f64>());
            }
            *level *= 0.82;
            *c = *level;
        }
    }

    /// Both recurrences over the same draws, 480-sample blocks as in
    /// `run_payload`: `(flushed, unflushed)`.
    fn click_trains(seed: u64, p_click: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut flushed, mut unflushed) = (vec![0.0; n], vec![0.0; n]);
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (mut level_a, mut level_b) = (0.0, 0.0);
        for (a, b) in flushed.chunks_mut(480).zip(unflushed.chunks_mut(480)) {
            fill_clicks(&mut rng_a, p_click, &mut level_a, a);
            unflushed_clicks(&mut rng_b, p_click, &mut level_b, b);
        }
        (flushed, unflushed)
    }

    #[test]
    fn unflushed_click_tail_sticks_on_a_subnormal() {
        // The defect the flush removes: after a click the decay reaches
        // 5e-324, where `× 0.82` rounds back to itself.
        let (flushed, unflushed) = click_trains(11, 1e-4, 20_000);
        assert!(unflushed.iter().any(|c| c.is_subnormal()));
        assert!(!flushed.iter().any(|c| c.is_subnormal()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The flushed click train holds no subnormal, and a channel
        /// built on it equals, bit for bit, one built on the unflushed
        /// recurrence.
        #[test]
        fn click_flush_leaves_the_channel_unchanged(
            seed in any::<u64>(),
            log_p in -5.0f64..-1.0,
            log_rms in -6.0f64..0.0,
        ) {
            let n = 20_000;
            let (flushed, unflushed) = click_trains(seed, 10f64.powf(log_p), n);
            prop_assert!(flushed.iter().all(|c| *c == 0.0 || c.is_normal()));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
            let rms = 10f64.powf(log_rms);
            for (a, b) in flushed.iter().zip(&unflushed) {
                let base = rms * gaussian(&mut rng);
                prop_assert_eq!((base + a).to_bits(), (base + b).to_bits());
            }
        }
    }
}

//! A complete FM receiver: tune → channel-filter → discriminate → MPX
//! decode → de-emphasis → audio.
//!
//! This is the software model of the paper's receive devices: the Moto G1
//! with headphone-wire antenna and the Motorola FM app (whose ~13 kHz
//! recording roll-off shows in Fig. 6), and the car stereo of §5.4. The
//! receiver consumes complex-baseband IQ (centred on the simulation centre
//! frequency) and emits decoded audio — exactly the interface the paper
//! exploits: "FM radios provide access to the raw audio decoded by the
//! receiver" (§1).

use crate::demodulator::Discriminator;
use crate::stereo::{StereoDecoder, StereoDecoderConfig};
use crate::{BROADCAST_DEVIATION_HZ, DEEMPHASIS_TAU_US};
use fmbs_dsp::complex::Complex;
use fmbs_dsp::fir::{DecimatingFir, Fir, FirDesign};
use fmbs_dsp::iir::FirstOrder;
use fmbs_dsp::osc::Nco;
use fmbs_dsp::windows::Window;
use serde::{Deserialize, Serialize};

/// Receiver configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReceiverConfig {
    /// Input IQ sample rate in Hz.
    pub iq_rate: f64,
    /// Offset of the tuned channel from the simulation centre frequency,
    /// in Hz (e.g. +600 kHz to listen to the backscatter channel).
    pub tune_offset_hz: f64,
    /// Expected peak deviation (sets discriminator gain).
    pub deviation_hz: f64,
    /// Apply 75 µs de-emphasis (all consumer receivers do).
    pub deemphasis: bool,
    /// Decode stereo when a pilot is detected. Mono-only receivers set
    /// this false.
    pub stereo_enabled: bool,
    /// Pilot lock threshold (see [`StereoDecoderConfig`]).
    pub pilot_threshold: f64,
    /// Audio-chain low-pass modelling the capture path. The Moto G1 +
    /// recording-app chain of Fig. 6 rolls off sharply above ~13 kHz; use
    /// `None` for an ideal receiver.
    pub capture_lpf_hz: Option<f64>,
    /// Target audio output rate (actual rate is the nearest integer
    /// decimation of the internal MPX rate; see [`StereoAudio::sample_rate`]).
    pub target_audio_rate: f64,
}

impl ReceiverConfig {
    /// A smartphone receiver (the paper's Moto G1): stereo-capable,
    /// de-emphasis on, ~13 kHz capture roll-off.
    pub fn smartphone(iq_rate: f64, tune_offset_hz: f64) -> Self {
        ReceiverConfig {
            iq_rate,
            tune_offset_hz,
            deviation_hz: BROADCAST_DEVIATION_HZ,
            deemphasis: true,
            stereo_enabled: true,
            pilot_threshold: 0.012,
            capture_lpf_hz: Some(13_500.0),
            target_audio_rate: 48_000.0,
        }
    }

    /// A car stereo (§5.4): better RF chain, but audio reaches the
    /// experimenter through speakers + microphone, modelled in
    /// `fmbs-channel::car`. The receiver itself has no capture roll-off.
    pub fn car(iq_rate: f64, tune_offset_hz: f64) -> Self {
        ReceiverConfig {
            iq_rate,
            tune_offset_hz,
            deviation_hz: BROADCAST_DEVIATION_HZ,
            deemphasis: true,
            stereo_enabled: true,
            pilot_threshold: 0.012,
            capture_lpf_hz: None,
            target_audio_rate: 48_000.0,
        }
    }
}

/// Decoded audio from one receive pass.
#[derive(Debug, Clone)]
pub struct StereoAudio {
    /// Left channel.
    pub left: Vec<f64>,
    /// Right channel.
    pub right: Vec<f64>,
    /// Mono (L+R) path.
    pub mono: Vec<f64>,
    /// Stereo difference (L−R) path; zeros when mono mode was used.
    pub difference: Vec<f64>,
    /// Actual audio sample rate in Hz.
    pub sample_rate: f64,
    /// Whether the pilot was detected and stereo decoding engaged.
    pub stereo_detected: bool,
    /// Pilot PLL lock metric (≈ pilot amplitude ÷ 2).
    pub pilot_level: f64,
}

/// The FM receiver.
#[derive(Debug)]
pub struct FmReceiver {
    cfg: ReceiverConfig,
    mpx_decim: usize,
    mpx_rate: f64,
    audio_decim: usize,
    audio_rate: f64,
}

impl FmReceiver {
    /// Creates a receiver.
    pub fn new(cfg: ReceiverConfig) -> Self {
        assert!(cfg.iq_rate > 0.0);
        // Internal MPX rate: decimate IQ down to ≥ 240 kHz (enough for the
        // 58 kHz multiplex plus discriminator noise shaping).
        let mpx_decim = (cfg.iq_rate / 240_000.0).floor().max(1.0) as usize;
        let mpx_rate = cfg.iq_rate / mpx_decim as f64;
        let audio_decim = (mpx_rate / cfg.target_audio_rate).round().max(1.0) as usize;
        let audio_rate = mpx_rate / audio_decim as f64;
        FmReceiver {
            cfg,
            mpx_decim,
            mpx_rate,
            audio_decim,
            audio_rate,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReceiverConfig {
        &self.cfg
    }

    /// The actual audio output rate.
    pub fn audio_rate(&self) -> f64 {
        self.audio_rate
    }

    /// The internal MPX processing rate.
    pub fn mpx_rate(&self) -> f64 {
        self.mpx_rate
    }

    /// Receives a block of IQ and decodes it to audio: the whole block
    /// through one [`ChannelStage`], then [`Self::demodulate`].
    pub fn receive(&self, iq: &[Complex]) -> StereoAudio {
        let mut channel = self.channel_stage();
        channel.push(iq);
        self.demodulate(channel.baseband())
    }

    /// A fresh streaming channel stage for this receiver: tuner plus
    /// decimating channel filter, fed IQ one block at a time.
    pub fn channel_stage(&self) -> ChannelStage {
        // Channel selection: low-pass to ±130 kHz (Carson bandwidth of a
        // full multiplex is 266 kHz) and decimate to the MPX rate.
        let chan_fir = FirDesign {
            taps: 127,
            window: Window::Blackman,
        }
        .lowpass(self.cfg.iq_rate, 130_000.0);
        ChannelStage {
            lo: Nco::new(self.cfg.iq_rate, -self.cfg.tune_offset_hz),
            filter: DecimatingFir::new(chan_fir.taps().to_vec(), self.mpx_decim),
            mixed: Vec::new(),
            baseband: Vec::new(),
        }
    }

    /// Decodes channel-selected baseband IQ at [`Self::mpx_rate`] (what
    /// a [`ChannelStage`] produces) to audio: discriminator onward.
    pub fn demodulate(&self, baseband_iq: &[Complex]) -> StereoAudio {
        // 3. Limiter + discriminator → MPX.
        let mut disc = Discriminator::new(self.mpx_rate, self.cfg.deviation_hz);
        let mpx = disc.process(baseband_iq);

        // 4. MPX → mono/stereo audio at the MPX rate.
        let mut sd_cfg = StereoDecoderConfig::new(self.mpx_rate);
        sd_cfg.pilot_threshold = if self.cfg.stereo_enabled {
            self.cfg.pilot_threshold
        } else {
            f64::INFINITY // never detect stereo
        };
        let decoded = StereoDecoder::new(sd_cfg).decode(&mpx);

        // 5. De-emphasis, decimation to audio rate, capture roll-off.
        let post = |x: &[f64]| -> Vec<f64> {
            let mut v = x.to_vec();
            if self.cfg.deemphasis {
                let mut de = FirstOrder::deemphasis(self.mpx_rate, DEEMPHASIS_TAU_US);
                v = de.process(&v);
            }
            let mut audio: Vec<f64> = v.iter().step_by(self.audio_decim).copied().collect();
            if let Some(fc) = self.cfg.capture_lpf_hz {
                if fc < self.audio_rate / 2.0 {
                    let mut lpf = self.capture_filter(fc);
                    audio = lpf.filter_aligned(&audio);
                }
            }
            audio
        };

        StereoAudio {
            left: post(&decoded.left),
            right: post(&decoded.right),
            mono: post(&decoded.mono),
            difference: post(&decoded.difference),
            sample_rate: self.audio_rate,
            stereo_detected: decoded.stereo_detected,
            pilot_level: decoded.pilot_level,
        }
    }

    fn capture_filter(&self, fc: f64) -> Fir {
        FirDesign {
            taps: 301,
            window: Window::Blackman,
        }
        .lowpass(self.audio_rate, fc)
    }
}

/// The streaming front half of an [`FmReceiver`]: mixes the tuned
/// channel down to 0 Hz and low-pass-decimates it to the MPX rate, one
/// IQ block at a time. The tuner's phase and the filter's `taps − 1`
/// history carry across blocks, so any split of a capture yields the
/// same baseband bits as one [`FmReceiver::receive`] call.
#[derive(Debug, Clone)]
pub struct ChannelStage {
    lo: Nco,
    filter: DecimatingFir,
    // The tuned block, reused across pushes.
    mixed: Vec<Complex>,
    baseband: Vec<Complex>,
}

impl ChannelStage {
    /// Tunes and channel-selects the capture's next block.
    pub fn push(&mut self, iq: &[Complex]) {
        let lo = &mut self.lo;
        self.mixed.clear();
        self.mixed.extend(iq.iter().map(|&z| z * lo.next_iq()));
        self.filter.push(&self.mixed, &mut self.baseband);
    }

    /// The baseband IQ at the MPX rate so far.
    pub fn baseband(&self) -> &[Complex] {
        &self.baseband
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transmitter::{FmTransmitter, StationConfig};
    use fmbs_dsp::goertzel::goertzel_power;
    use fmbs_dsp::stats::rms;
    use fmbs_dsp::TAU;
    use proptest::prelude::*;

    const IQ_RATE: f64 = 1_000_000.0;
    const AUDIO_RATE: f64 = 48_000.0;

    fn tone(f: f64, secs: f64, amp: f64) -> Vec<f64> {
        let n = (AUDIO_RATE * secs) as usize;
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / AUDIO_RATE).sin())
            .collect()
    }

    fn snr_at(audio: &[f64], fs: f64, f: f64) -> f64 {
        let skip = audio.len() / 4;
        let seg = &audio[skip..];
        // Goertzel reports (A/2)² for a sine of amplitude A, whose actual
        // power is A²/2 — scale by 2 before comparing with total power.
        let p_tone = 2.0 * goertzel_power(seg, fs, f);
        let p_total = fmbs_dsp::stats::power(seg);
        10.0 * (p_tone / (p_total - p_tone).max(1e-15)).log10()
    }

    #[test]
    fn end_to_end_mono_tone_recovery() {
        let tx = FmTransmitter::new(StationConfig::mono(), IQ_RATE, 0.0);
        let audio = tone(1_000.0, 0.4, 0.6);
        let iq = tx.modulate_mono(&audio, AUDIO_RATE);
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
        let out = rx.receive(&iq);
        assert!(!out.stereo_detected);
        let snr = snr_at(&out.mono, out.sample_rate, 1_000.0);
        assert!(snr > 30.0, "mono tone SNR {snr} dB");
    }

    #[test]
    fn end_to_end_stereo_separation() {
        let tx = FmTransmitter::new(StationConfig::stereo(), IQ_RATE, 0.0);
        let l = tone(1_000.0, 0.6, 0.5);
        let r = tone(3_000.0, 0.6, 0.5);
        let iq = tx.modulate(&l, &r, AUDIO_RATE);
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
        let out = rx.receive(&iq);
        assert!(out.stereo_detected, "pilot level {}", out.pilot_level);
        let skip = out.left.len() / 2;
        let fs = out.sample_rate;
        let l1k = goertzel_power(&out.left[skip..], fs, 1_000.0);
        let l3k = goertzel_power(&out.left[skip..], fs, 3_000.0);
        let r3k = goertzel_power(&out.right[skip..], fs, 3_000.0);
        let r1k = goertzel_power(&out.right[skip..], fs, 1_000.0);
        assert!(l1k > 10.0 * l3k, "left: {l1k} vs {l3k}");
        assert!(r3k > 10.0 * r1k, "right: {r3k} vs {r1k}");
    }

    #[test]
    fn tuned_offset_receives_offset_station() {
        // Station at +300 kHz; receiver tuned there must recover audio.
        let tx = FmTransmitter::new(StationConfig::mono(), IQ_RATE, 300_000.0);
        let audio = tone(2_000.0, 0.4, 0.6);
        let iq = tx.modulate_mono(&audio, AUDIO_RATE);
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 300_000.0));
        let out = rx.receive(&iq);
        let snr = snr_at(&out.mono, out.sample_rate, 2_000.0);
        assert!(snr > 25.0, "offset tone SNR {snr} dB");
    }

    #[test]
    fn untuned_receiver_hears_little() {
        // Station at +300 kHz; receiver tuned to centre. With no in-channel
        // signal an FM limiter amplifies *anything* to full scale (the FM
        // capture effect), so the physically meaningful test includes a
        // noise floor well above the filtered adjacent-channel leak: the
        // station's tone must then stay buried.
        let tx = FmTransmitter::new(StationConfig::mono(), IQ_RATE, 300_000.0);
        let audio = tone(2_000.0, 0.3, 0.6);
        let iq = tx.modulate_mono(&audio, AUDIO_RATE);
        let mut state = 17u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let noisy: Vec<_> = iq
            .iter()
            .map(|z| *z + fmbs_dsp::Complex::new(0.02 * noise(), 0.02 * noise()))
            .collect();
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
        let out = rx.receive(&noisy);
        let skip = out.mono.len() / 4;
        let seg = &out.mono[skip..];
        let p_tone = 2.0 * goertzel_power(seg, out.sample_rate, 2_000.0);
        let p_total = fmbs_dsp::stats::power(seg);
        assert!(
            p_tone < 0.05 * p_total,
            "adjacent-channel tone {p_tone} vs total {p_total}"
        );
    }

    #[test]
    fn capture_lpf_rolls_off_above_13khz() {
        // Fig. 6's cliff: a 14 kHz backscatter tone is strongly attenuated
        // relative to a 5 kHz tone on the same receiver.
        let mut cfg = StationConfig::mono();
        cfg.preemphasis = false; // isolate the capture filter's effect
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
        let mut rx_cfg_ideal = ReceiverConfig::smartphone(IQ_RATE, 0.0);
        rx_cfg_ideal.capture_lpf_hz = None;
        rx_cfg_ideal.deemphasis = false;
        let rx_ideal = FmReceiver::new(rx_cfg_ideal);

        let tx = FmTransmitter::new(cfg, IQ_RATE, 0.0);
        let hi = tone(14_000.0, 0.4, 0.6);
        let iq = tx.modulate_mono(&hi, AUDIO_RATE);
        let out_phone = rx.receive(&iq);
        let out_ideal = rx_ideal.receive(&iq);
        let skip = out_phone.mono.len() / 4;
        let p_phone = goertzel_power(&out_phone.mono[skip..], out_phone.sample_rate, 14_000.0);
        let p_ideal = goertzel_power(&out_ideal.mono[skip..], out_ideal.sample_rate, 14_000.0);
        assert!(
            p_ideal > 30.0 * p_phone.max(1e-18),
            "phone {p_phone} vs ideal {p_ideal}"
        );
    }

    #[test]
    fn mono_only_receiver_never_decodes_stereo() {
        let tx = FmTransmitter::new(StationConfig::stereo(), IQ_RATE, 0.0);
        let l = tone(1_000.0, 0.3, 0.5);
        let r = tone(3_000.0, 0.3, 0.5);
        let iq = tx.modulate(&l, &r, AUDIO_RATE);
        let mut cfg = ReceiverConfig::smartphone(IQ_RATE, 0.0);
        cfg.stereo_enabled = false;
        let out = FmReceiver::new(cfg).receive(&iq);
        assert!(!out.stereo_detected);
        assert!(rms(&out.difference) == 0.0);
    }

    fn audio_bits(a: &StereoAudio) -> Vec<u64> {
        [&a.left, &a.right, &a.mono, &a.difference]
            .into_iter()
            .flatten()
            .chain([&a.sample_rate, &a.pilot_level])
            .map(|&x| if x.is_nan() { f64::NAN } else { x }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pushing a capture through the channel stage in blocks — empty,
        /// one-sample, shorter than the filter, off the decimation phase —
        /// and then demodulating decodes the bits one `receive` call does.
        #[test]
        fn blockwise_channel_stage_then_demodulate_equals_receive(
            cuts in prop::collection::vec(0usize..700, 0..12),
            offset_khz in -300i32..300,
            stereo in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let station = if stereo { StationConfig::stereo() } else { StationConfig::mono() };
            let tx = FmTransmitter::new(station, IQ_RATE, 0.0);
            let mut state = seed;
            let mut noise = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let l = tone(1_000.0, 0.03, 0.5);
            let r = tone(3_000.0, 0.03, 0.4);
            let iq: Vec<Complex> = tx
                .modulate(&l, &r, AUDIO_RATE)
                .into_iter()
                .map(|z| z + Complex::new(0.1 * noise(), 0.1 * noise()))
                .collect();
            let rx = FmReceiver::new(ReceiverConfig::smartphone(
                IQ_RATE,
                f64::from(offset_khz) * 1e3,
            ));
            let want = rx.receive(&iq);
            let mut channel = rx.channel_stage();
            let mut rest = &iq[..];
            for &c in &cuts {
                let (block, tail) = rest.split_at(c.min(rest.len()));
                channel.push(block);
                rest = tail;
            }
            channel.push(rest);
            let got = rx.demodulate(channel.baseband());
            prop_assert_eq!(got.stereo_detected, want.stereo_detected);
            prop_assert_eq!(audio_bits(&got), audio_bits(&want));
        }
    }

    #[test]
    fn audio_rate_is_integer_decimation() {
        let rx = FmReceiver::new(ReceiverConfig::smartphone(IQ_RATE, 0.0));
        // 1 MHz / 4 = 250 kHz MPX; 250 kHz / 5 = 50 kHz audio.
        assert_eq!(rx.mpx_rate(), 250_000.0);
        assert_eq!(rx.audio_rate(), 50_000.0);
    }
}

//! Experiment scenario descriptions shared by both simulators and the
//! benchmark harness.
//!
//! A [`Scenario`] is a *complete* experiment point: geometry, devices,
//! programme, motion, RNG seed **and** the tag's [`Workload`]. Any
//! [`Simulator`](super::Simulator) can therefore regenerate the whole
//! experiment — payload synthesis included — from the scenario alone,
//! which is what makes the sweep engine's deterministic per-point
//! seeding possible.

use crate::modem::encoder::{test_bits, DataEncoder};
use crate::modem::Bitrate;
use fmbs_audio::program::ProgramKind;
use fmbs_audio::speech::{generate_speech, normalise_rms, SpeechConfig};
use fmbs_channel::backscatter_link::BackscatterLink;
use fmbs_channel::fading::{JakesFader, MotionProfile};
use fmbs_channel::units::Dbm;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which receiver the experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiverKind {
    /// Moto G1-class smartphone with headphone-wire antenna and ~13 kHz
    /// capture roll-off.
    Smartphone,
    /// 2010 Honda CRV-class car stereo: whip antenna, cabin acoustic
    /// re-recording (§5.4).
    Car,
}

/// Which side carries the tag antenna.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TagKind {
    /// Poster dipole (the default §5 prototype).
    Poster,
    /// Conductive-thread shirt antenna (§6.2).
    SmartFabric,
}

/// How messages arrive at a tag in the workload tier (`fmbs-workload`).
///
/// `Saturated` is the pre-workload network-tier behaviour: every awake
/// tag always has a frame to send. The other models generate per-tag
/// message arrival traces at the scenario's [`Scenario::offered_load`];
/// a tag with an empty queue then stays idle instead of contending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Full-buffer traffic: every tag always has a frame queued.
    Saturated,
    /// Homogeneous Poisson arrivals (exponential inter-arrival times).
    Poisson,
    /// A diurnal rate curve: the offered load is modulated by a
    /// day-shaped profile compressed onto the simulated horizon.
    Diurnal,
    /// Bursty two-state Markov-modulated Poisson process (quiet/burst).
    Mmpp,
}

/// Application preset mapping a message arrival to a size and deadline
/// (the workload tier's message-size and deadline distributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppProfile {
    /// Single-packet sensor readings with a relaxed multi-second
    /// deadline (§8's city sensing).
    SensorBeacon,
    /// Multi-packet audio snippets with an interactive ~1–2 s deadline
    /// (the talking-poster application).
    TalkingPoster,
    /// Small smart-fabric telemetry frames with a tight sub-second
    /// deadline (§6.2's fitness workloads).
    FabricTelemetry,
}

/// What the tag backscatters during the experiment.
///
/// The workload carries its own `payload_seed` (where applicable) so
/// that repetitions of a scenario can refresh the channel noise — by
/// changing [`Scenario::seed`] — while the transmitted payload stays
/// identical, which is what MRC combining requires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// No payload: `secs` of silence (noise-floor baselines).
    Silence {
        /// Duration in seconds.
        secs: f64,
    },
    /// A pure test tone (SNR measurements, Figs. 6/7/14a).
    Tone {
        /// Tone frequency in Hz.
        freq_hz: f64,
        /// Duration in seconds.
        secs: f64,
        /// Peak amplitude (≤ 1).
        amp: f64,
        /// Whether the tone rides the stereo (L−R) band.
        stereo_band: bool,
    },
    /// Framed FSK/FDM data (BER experiments, Figs. 8–10/17).
    Data {
        /// Bit rate under test.
        bitrate: Bitrate,
        /// Number of payload bits.
        n_bits: u32,
        /// Whether the payload rides the stereo (L−R) band.
        stereo_band: bool,
        /// Seed generating the payload bits.
        payload_seed: u64,
    },
    /// Announcer speech for audio-quality scoring (Figs. 11/13/14b).
    Speech {
        /// Duration in seconds.
        secs: f64,
        /// Whether the payload rides the stereo (L−R) band.
        stereo_band: bool,
        /// Seed generating the speech.
        payload_seed: u64,
    },
    /// Announcer speech preceded by the 13 kHz calibration pilot, for
    /// cooperative (two-phone) decoding (Fig. 12).
    CoopAudio {
        /// Duration in seconds.
        secs: f64,
        /// Seed generating the speech.
        payload_seed: u64,
    },
}

/// A scenario's host programme as both tiers hear it (see
/// [`Scenario::host_audio`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostAudio {
    /// The mono (L+R) programme, loudness-processed to the broadcast RMS.
    pub mono: Vec<f64>,
    /// The L−R difference, scaled with the mono loudness gain.
    pub difference: Vec<f64>,
}

/// A synthesised workload: the waveform the tag backscatters plus the
/// clean references a metric scores against.
#[derive(Debug, Clone, Default)]
pub struct SynthesisedPayload {
    /// The tag baseband waveform (what gets backscattered).
    pub wave: Vec<f64>,
    /// The clean payload reference (pre-channel; for PESQ-like scoring).
    /// Equal to `wave` except for [`Workload::CoopAudio`], where `wave`
    /// additionally carries the calibration pilot.
    pub reference: Vec<f64>,
    /// The transmitted bits ([`Workload::Data`] only).
    pub bits: Vec<bool>,
}

impl Workload {
    /// Default duration used by scenario constructors.
    pub const DEFAULT_SECS: f64 = 0.5;

    /// `secs` of silence.
    pub fn silence(secs: f64) -> Self {
        Workload::Silence { secs }
    }

    /// A mono-band test tone at 0.9 amplitude.
    pub fn tone(freq_hz: f64, secs: f64) -> Self {
        Workload::Tone {
            freq_hz,
            secs,
            amp: 0.9,
            stereo_band: false,
        }
    }

    /// Mono-band (overlay) data.
    pub fn data(bitrate: Bitrate, n_bits: usize) -> Self {
        Workload::Data {
            bitrate,
            n_bits: n_bits as u32,
            stereo_band: false,
            payload_seed: 0xDA7A,
        }
    }

    /// Stereo-band data.
    pub fn stereo_data(bitrate: Bitrate, n_bits: usize) -> Self {
        Workload::Data {
            bitrate,
            n_bits: n_bits as u32,
            stereo_band: true,
            payload_seed: 0x57E0,
        }
    }

    /// Mono-band (overlay) speech.
    pub fn speech(secs: f64) -> Self {
        Workload::Speech {
            secs,
            stereo_band: false,
            payload_seed: 0xBEEF,
        }
    }

    /// Stereo-band speech.
    pub fn stereo_speech(secs: f64) -> Self {
        Workload::Speech {
            secs,
            stereo_band: true,
            payload_seed: 0x5A5A,
        }
    }

    /// Speech with the cooperative 13 kHz calibration pilot.
    pub fn coop_audio(secs: f64) -> Self {
        Workload::CoopAudio {
            secs,
            payload_seed: 0xC0,
        }
    }

    /// This workload with a specific payload seed.
    pub fn with_payload_seed(mut self, seed: u64) -> Self {
        match &mut self {
            Workload::Data { payload_seed, .. }
            | Workload::Speech { payload_seed, .. }
            | Workload::CoopAudio { payload_seed, .. } => *payload_seed = seed,
            Workload::Silence { .. } | Workload::Tone { .. } => {}
        }
        self
    }

    /// Rotates the payload seed for repetition `k` (no-op for payloads
    /// without random content). Used by the sweep engine's `repeats`
    /// fan-out so repeats average over payload realisations too.
    pub fn reseed(self, k: u64) -> Self {
        match self {
            Workload::Data { payload_seed, .. }
            | Workload::Speech { payload_seed, .. }
            | Workload::CoopAudio { payload_seed, .. } => {
                self.with_payload_seed(payload_seed.wrapping_add(k.wrapping_mul(0x9E37)))
            }
            other => other,
        }
    }

    /// Whether the payload rides the stereo (L−R) band.
    pub fn stereo_band(&self) -> bool {
        match *self {
            Workload::Tone { stereo_band, .. }
            | Workload::Data { stereo_band, .. }
            | Workload::Speech { stereo_band, .. } => stereo_band,
            Workload::Silence { .. } | Workload::CoopAudio { .. } => false,
        }
    }

    /// Synthesises the tag baseband at `sample_rate`.
    ///
    /// When a sweep's content-addressed cache is active on this thread
    /// (see [`super::cache`]), the waveform is looked up by the
    /// workload's own derivation inputs — e.g. `(bitrate, payload_seed,
    /// n_bits)` for data — before being synthesised; a hit shares the
    /// cached value.
    pub fn synthesise(&self, sample_rate: f64) -> Arc<SynthesisedPayload> {
        match super::cache::active() {
            Some(cache) => cache.payload(self, sample_rate),
            None => Arc::new(self.synthesise_uncached(sample_rate)),
        }
    }

    /// The cache-bypassing synthesis behind [`Self::synthesise`].
    pub fn synthesise_uncached(&self, sample_rate: f64) -> SynthesisedPayload {
        fmbs_obs::span!(fmbs_obs::stages::PAYLOAD_SYNTH);
        match *self {
            Workload::Silence { secs } => {
                let wave = vec![0.0; (sample_rate * secs) as usize];
                SynthesisedPayload {
                    reference: wave.clone(),
                    wave,
                    bits: Vec::new(),
                }
            }
            Workload::Tone {
                freq_hz, secs, amp, ..
            } => {
                let n = (sample_rate * secs) as usize;
                let wave: Vec<f64> = (0..n)
                    .map(|i| amp * (fmbs_dsp::TAU * freq_hz * i as f64 / sample_rate).sin())
                    .collect();
                SynthesisedPayload {
                    reference: wave.clone(),
                    wave,
                    bits: Vec::new(),
                }
            }
            Workload::Data {
                bitrate,
                n_bits,
                payload_seed,
                ..
            } => {
                let bits = test_bits(n_bits as usize, payload_seed);
                let wave = DataEncoder::new(sample_rate, bitrate).encode(&bits);
                SynthesisedPayload {
                    reference: wave.clone(),
                    wave,
                    bits,
                }
            }
            Workload::Speech {
                secs, payload_seed, ..
            } => {
                let mut wave = generate_speech(
                    SpeechConfig::announcer(sample_rate),
                    (sample_rate * secs) as usize,
                    payload_seed,
                );
                normalise_rms(&mut wave, super::fast::BROADCAST_RMS, 1.0);
                SynthesisedPayload {
                    reference: wave.clone(),
                    wave,
                    bits: Vec::new(),
                }
            }
            Workload::CoopAudio { secs, payload_seed } => {
                let mut speech = generate_speech(
                    SpeechConfig::announcer(sample_rate),
                    (sample_rate * secs) as usize,
                    payload_seed,
                );
                normalise_rms(&mut speech, super::fast::BROADCAST_RMS, 1.0);
                let wave = crate::tag::baseband::BasebandBuilder::new(sample_rate)
                    .with_coop_pilot(&speech, 0.2, 0.02);
                SynthesisedPayload {
                    wave,
                    reference: speech,
                    bits: Vec::new(),
                }
            }
        }
    }
}

/// A complete experiment point: the knobs every figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Ambient FM power at the tag (−20 … −60 dBm in the paper).
    pub ambient_at_tag: Dbm,
    /// Tag→receiver distance in feet.
    pub distance_ft: f64,
    /// Receiver device.
    pub receiver: ReceiverKind,
    /// Tag device.
    pub tag: TagKind,
    /// Host programme genre.
    pub program: ProgramKind,
    /// Wearer motion (fabric experiments; `Standing` ≈ static poster).
    pub motion: MotionProfile,
    /// RNG seed (noise, motion fading).
    pub seed: u64,
    /// Seed of the host programme realisation. Constructors (and
    /// [`Scenario::with_seed`]) tie it to `seed`; the sweep engine sets
    /// one shared programme seed per repetition across a whole grid —
    /// the station broadcasts one programme no matter where the receiver
    /// stands — which is what makes the sweep cache's host-audio entries
    /// shareable across grid points.
    pub program_seed: u64,
    /// Backscatter subcarrier frequency `f_back` in Hz (§3.3). Sets the
    /// tag's DCO power draw (`fmbs-core::power`) and, in the network
    /// tier, the base of the multi-tag channel plan. Sweepable via
    /// [`super::sweep::SweepBuilder::f_backs_hz`].
    pub f_back_hz: f64,
    /// MRC combining depth consumed by metrics built with
    /// [`super::metric::BerMrc::from_scenario`] (1 = no combining).
    /// Sweepable via [`super::sweep::SweepBuilder::mrc_depths`].
    pub mrc_depth: u32,
    /// MAC frame length in slots simulated by the network tier.
    /// Sweepable via [`super::sweep::SweepBuilder::mac_slot_counts`].
    pub mac_slots: u32,
    /// Number of contending tags in the network tier (1 = the
    /// single-tag physics figures). Sweepable via
    /// [`super::sweep::SweepBuilder::n_tags`].
    pub n_tags: u32,
    /// How messages arrive at each tag in the workload tier
    /// (`Saturated` = the pre-workload full-buffer network tier).
    /// Sweepable via [`super::sweep::SweepBuilder::arrival_models`].
    pub arrival_model: ArrivalModel,
    /// Mean offered load per tag in messages per second (consumed by
    /// the non-saturated arrival models; ignored under `Saturated`).
    /// Sweepable via [`super::sweep::SweepBuilder::offered_loads`].
    pub offered_load: f64,
    /// Application preset: message-size and deadline distributions.
    /// Sweepable via [`super::sweep::SweepBuilder::app_profiles`].
    pub app_profile: AppProfile,
    /// What the tag backscatters.
    pub workload: Workload,
}

impl Scenario {
    /// A §5 bench scenario: poster tag, smartphone receiver, standing.
    pub fn bench(ambient_dbm: f64, distance_ft: f64, program: ProgramKind) -> Self {
        Scenario {
            ambient_at_tag: Dbm(ambient_dbm),
            distance_ft,
            receiver: ReceiverKind::Smartphone,
            tag: TagKind::Poster,
            program,
            motion: MotionProfile::Standing,
            seed: 0x5EED,
            program_seed: 0x5EED,
            f_back_hz: crate::DEFAULT_F_BACK_HZ,
            mrc_depth: 1,
            mac_slots: 1_000,
            n_tags: 1,
            arrival_model: ArrivalModel::Saturated,
            offered_load: 1.0,
            app_profile: AppProfile::SensorBeacon,
            workload: Workload::silence(Workload::DEFAULT_SECS),
        }
    }

    /// With a non-saturated traffic model: arrival process, offered
    /// load (messages per tag per second) and application preset.
    pub fn with_traffic(mut self, model: ArrivalModel, load: f64, profile: AppProfile) -> Self {
        self.arrival_model = model;
        self.offered_load = load;
        self.app_profile = profile;
        self
    }

    /// With a different seed (for repetition averaging). Re-ties the
    /// programme seed to `seed`, so a reseeded repetition hears fresh
    /// noise, fading *and* host audio.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.program_seed = seed;
        self
    }

    /// With a different workload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// The §5.4 car scenario.
    pub fn car(ambient_dbm: f64, distance_ft: f64, program: ProgramKind) -> Self {
        Scenario {
            receiver: ReceiverKind::Car,
            ..Scenario::bench(ambient_dbm, distance_ft, program)
        }
    }

    /// The §6.2 smart-fabric scenario (outdoor ambient −35 … −40 dBm).
    pub fn fabric(motion: MotionProfile) -> Self {
        Scenario {
            tag: TagKind::SmartFabric,
            motion,
            distance_ft: 2.0, // phone in hand/pocket near the shirt
            ..Scenario::bench(-37.0, 2.0, ProgramKind::News)
        }
    }

    /// The host programme audio both simulation tiers derive from this
    /// scenario: generated from the programme seed, loudness-processed to
    /// the broadcast level, `n` samples long. Centralised here so the
    /// tiers cannot drift apart.
    ///
    /// When a sweep's content-addressed cache is active on this thread
    /// (see [`super::cache`]), the derivation is looked up by
    /// `(program_seed, programme, duration)` first and a hit shares the
    /// cached value — semantically invisible, because it is exactly what
    /// [`Self::host_audio_uncached`] would compute.
    pub fn host_audio(&self, rate: f64, n: usize) -> Arc<HostAudio> {
        match super::cache::active() {
            Some(cache) => cache.host_audio(self, rate, n),
            None => Arc::new(self.host_audio_uncached(rate, n)),
        }
    }

    /// The cache-bypassing derivation behind [`Self::host_audio`].
    pub fn host_audio_uncached(&self, rate: f64, n: usize) -> HostAudio {
        fmbs_obs::span!(fmbs_obs::stages::HOST_AUDIO);
        let host = fmbs_audio::program::ProgramGenerator::new(rate, self.program_seed ^ 0xA5)
            .generate(self.program, n.max(1) as f64 / rate);
        let mut mono = host.mono();
        let mut diff = host.difference();
        // Scale L−R with the same gain class as the mono loudness
        // normalisation (its own RMS is genre-dependent).
        let mono_raw_rms = fmbs_dsp::stats::rms(&mono);
        normalise_rms(&mut mono, super::fast::HOST_RMS, 1.0);
        let diff_rms = fmbs_dsp::stats::rms(&diff);
        if mono_raw_rms > 0.0 && diff_rms > 0.0 {
            let k = super::fast::HOST_RMS / mono_raw_rms;
            for x in diff.iter_mut() {
                *x = (*x * k).clamp(-1.0, 1.0);
            }
        }
        mono.resize(n, 0.0);
        diff.resize(n, 0.0);
        HostAudio {
            mono,
            difference: diff,
        }
    }

    /// The motion-fading process both tiers apply to the backscatter
    /// path. A *static* scenario's channel realisation is a property of
    /// the geometry, not of the run seed — back-to-back repetitions
    /// (MRC) see the same standing channel but fresh noise; moving
    /// wearers re-randomise per run seed.
    pub fn fader(&self, rate: f64) -> JakesFader {
        let fader_seed = match self.motion {
            MotionProfile::Standing => {
                (self.distance_ft * 1_000.0) as u64 ^ ((self.ambient_at_tag.0.abs() * 10.0) as u64)
            }
            _ => self.seed,
        };
        JakesFader::for_motion(rate, self.link().f_hz, self.motion, fader_seed)
    }

    /// Builds the matching link-budget model.
    pub fn link(&self) -> BackscatterLink {
        let mut link = match (self.receiver, self.tag) {
            (ReceiverKind::Smartphone, TagKind::Poster) => {
                BackscatterLink::smartphone(self.ambient_at_tag)
            }
            (ReceiverKind::Car, TagKind::Poster) => BackscatterLink::car(self.ambient_at_tag),
            (ReceiverKind::Smartphone, TagKind::SmartFabric) => {
                BackscatterLink::smart_fabric(self.ambient_at_tag)
            }
            (ReceiverKind::Car, TagKind::SmartFabric) => BackscatterLink {
                rx_antenna: fmbs_channel::antenna::Antenna::CarWhip,
                ..BackscatterLink::smart_fabric(self.ambient_at_tag)
            },
        };
        link.host_at_rx = self.ambient_at_tag;
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scenario_defaults() {
        let s = Scenario::bench(-30.0, 10.0, ProgramKind::News);
        assert_eq!(s.receiver, ReceiverKind::Smartphone);
        assert_eq!(s.tag, TagKind::Poster);
        assert_eq!(s.ambient_at_tag, Dbm(-30.0));
    }

    #[test]
    fn car_scenario_outranges_phone() {
        let phone = Scenario::bench(-30.0, 40.0, ProgramKind::News);
        let car = Scenario::car(-30.0, 40.0, ProgramKind::News);
        let b_phone = phone.link().budget_at_feet(40.0);
        let b_car = car.link().budget_at_feet(40.0);
        assert!(b_car.audio_snr.0 > b_phone.audio_snr.0 + 5.0);
    }

    #[test]
    fn fabric_uses_shirt_antenna() {
        let s = Scenario::fabric(MotionProfile::Running);
        assert_eq!(s.tag, TagKind::SmartFabric);
        assert_eq!(s.motion, MotionProfile::Running);
        let poster = Scenario::bench(-37.0, 2.0, ProgramKind::News);
        assert!(
            s.link().budget_at_feet(2.0).audio_snr.0
                < poster.link().budget_at_feet(2.0).audio_snr.0
        );
    }

    #[test]
    fn seed_override() {
        let s = Scenario::bench(-30.0, 5.0, ProgramKind::News).with_seed(99);
        assert_eq!(s.seed, 99);
    }
}

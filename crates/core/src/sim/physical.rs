//! The RF-rate physical simulator.
//!
//! Everything is done the way the hardware does it: the host station
//! FM-modulates a real multiplex to IQ (Eq. 1); the tag multiplies that IQ
//! stream by its ±1 switch waveform (Eq. 2 approximated by a square wave);
//! the channel scales the backscatter to the link-budget power, adds the
//! direct (adjacent-channel) host signal and thermal noise; and a full FM
//! receiver tuned to `fc + f_back` decodes audio. No audio-domain
//! shortcuts — this tier exists to *prove* the §3.3 identity and to
//! validate the fast tier against.

use super::fast::FAST_AUDIO_RATE;
use super::scenario::Scenario;
use super::{SimOutput, Simulator};
use crate::tag::{Tag, TagConfig};
use fmbs_channel::backscatter_link::{BackscatterLink, CONVERSION_LOSS_DB};
use fmbs_channel::car::CabinChain;
use fmbs_channel::fading::JakesFader;
use fmbs_channel::noise::{thermal_noise_floor, AwgnSource};
use fmbs_channel::rf::scale_to_power;
use fmbs_channel::units::Db;
use fmbs_dsp::complex::Complex;
use fmbs_dsp::resample::resample_linear;
use fmbs_fm::receiver::{FmReceiver, ReceiverConfig, StereoAudio};
use fmbs_fm::transmitter::{FmTransmitter, StationConfig};

/// Physical simulation configuration.
#[derive(Debug, Clone)]
pub struct PhysicalSimConfig {
    /// IQ sample rate (must cover `f_back` + Carson bandwidth; the
    /// default 2.4 MHz covers the paper's 600 kHz shift comfortably).
    pub iq_rate: f64,
    /// Tag subcarrier shift.
    pub f_back_hz: f64,
    /// Link budget (powers, antennas, noise).
    pub link: BackscatterLink,
    /// Tag→receiver distance in feet.
    pub distance_ft: f64,
    /// Noise seed.
    pub seed: u64,
}

impl PhysicalSimConfig {
    /// The paper's bench configuration at a given ambient power and
    /// distance.
    pub fn bench(ambient_dbm: f64, distance_ft: f64) -> Self {
        // 2.56 MHz (not 2.4 MHz): with f_back = 600 kHz, a 2.4 MHz rate
        // aliases the square wave's ±3rd/5th harmonics exactly onto the
        // wanted sideband, capping audio SNR independent of geometry. At
        // 2.56 MHz every odd harmonic folds well outside the 600 ±130 kHz
        // channel.
        PhysicalSimConfig {
            iq_rate: 2_560_000.0,
            f_back_hz: crate::DEFAULT_F_BACK_HZ,
            link: BackscatterLink::smartphone(fmbs_channel::units::Dbm(ambient_dbm)),
            distance_ft,
            seed: 0xF00D,
        }
    }
}

/// Output of a physical run: what each receiver decoded.
#[derive(Debug)]
pub struct PhysicalOutput {
    /// Audio from the receiver tuned to the backscatter channel
    /// (`fc + f_back`).
    pub backscatter_rx: StereoAudio,
    /// Audio from a second receiver tuned to the host channel (`fc`) —
    /// cooperative backscatter's second phone. `None` unless requested.
    pub host_rx: Option<StereoAudio>,
}

/// The physical simulator.
#[derive(Debug)]
pub struct PhysicalSim {
    cfg: PhysicalSimConfig,
}

impl PhysicalSim {
    /// Creates a simulator.
    pub fn new(cfg: PhysicalSimConfig) -> Self {
        assert!(
            cfg.iq_rate > 2.0 * (cfg.f_back_hz + 150_000.0),
            "IQ rate too low for f_back + FM bandwidth"
        );
        PhysicalSim { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PhysicalSimConfig {
        &self.cfg
    }

    /// Runs the full chain at the RF level.
    ///
    /// * `station` — host station configuration.
    /// * `host_left`/`host_right` — programme audio at `audio_rate`.
    /// * `tag_baseband` — the tag's `FM_back` stream at `audio_rate`
    ///   (it is resampled to the IQ rate internally).
    /// * `decode_host_channel` — also run the second (host-channel)
    ///   receiver, for cooperative experiments.
    ///
    /// This is the low-level entry point; scenario-driven experiments go
    /// through the [`Simulator`] impl instead.
    pub fn run_rf(
        &self,
        station: StationConfig,
        host_left: &[f64],
        host_right: &[f64],
        audio_rate: f64,
        tag_baseband: &[f64],
        decode_host_channel: bool,
    ) -> PhysicalOutput {
        self.run_chain(
            station,
            host_left,
            host_right,
            audio_rate,
            tag_baseband,
            decode_host_channel,
            false,
            None,
        )
    }

    /// The scenario-invariant RF **front end**: the host station's
    /// unit-amplitude IQ multiplex and the tag's un-scaled backscatter
    /// product. Everything downstream (power scaling, fading, noise, the
    /// receivers) depends on the point's geometry and seed; the front
    /// end depends only on the host audio, the tag baseband and the
    /// `iq_rate`/`f_back` configuration — which is what lets the sweep
    /// cache share it across a whole power×distance grid
    /// ([`super::cache::SweepCache::physical_front_end`]).
    fn front_end(
        &self,
        station: StationConfig,
        host_left: &[f64],
        host_right: &[f64],
        audio_rate: f64,
        tag_baseband: &[f64],
    ) -> (Vec<Complex>, Vec<Complex>) {
        fmbs_obs::span!(fmbs_obs::stages::RF_FRONT_END);
        let iq_rate = self.cfg.iq_rate;
        // 1. Host station: unit-amplitude IQ at offset 0.
        let tx = FmTransmitter::new(station, iq_rate, 0.0);
        let host_iq = tx.modulate(host_left, host_right, audio_rate);
        let n = host_iq.len();

        // 2. Tag: switch waveform from its baseband, multiplied into the
        //    incident signal. (The incident amplitude at the tag is
        //    irrelevant to the *shape*; absolute powers are applied at the
        //    receiver below, on a 0 dBm ↔ unit-power scale.)
        let mut tag_bb = fmbs_dsp::resample::resample_linear(tag_baseband, audio_rate, iq_rate);
        tag_bb.resize(n, 0.0);
        let mut tag = Tag::new(TagConfig {
            f_back_hz: self.cfg.f_back_hz,
            deviation_hz: 75_000.0,
            sample_rate: iq_rate,
        });
        let bs_iq = tag.backscatter(&host_iq, &tag_bb);
        (host_iq, bs_iq)
    }

    /// The full chain with channel/receiver options: `car_receiver`
    /// selects the car stereo's RF chain; `fader` applies per-block
    /// motion fading to the backscatter path (same 10 ms block process
    /// the fast tier uses, so the tiers see the same gain sequence).
    #[allow(clippy::too_many_arguments)] // internal seam behind run_rf/Simulator
    fn run_chain(
        &self,
        station: StationConfig,
        host_left: &[f64],
        host_right: &[f64],
        audio_rate: f64,
        tag_baseband: &[f64],
        decode_host_channel: bool,
        car_receiver: bool,
        fader: Option<JakesFader>,
    ) -> PhysicalOutput {
        let (host_iq, bs_iq) =
            self.front_end(station, host_left, host_right, audio_rate, tag_baseband);
        self.run_back_end(host_iq, bs_iq, decode_host_channel, car_receiver, fader)
    }

    /// The per-point **back end**: scales the front end to the link
    /// budget, applies motion fading and thermal noise, and runs the
    /// receiver(s). Takes the buffers by value so a freshly computed
    /// (uncached) front end is consumed in place — only a cache hit
    /// pays a copy out of the shared entry. Results are bit-identical
    /// either way.
    fn run_back_end(
        &self,
        host_iq: Vec<Complex>,
        mut bs_iq: Vec<Complex>,
        decode_host_channel: bool,
        car_receiver: bool,
        mut fader: Option<JakesFader>,
    ) -> PhysicalOutput {
        fmbs_obs::span!(fmbs_obs::stages::RF_BACK_END);
        let iq_rate = self.cfg.iq_rate;

        // 3. Powers. The budget's backscatter_at_rx already includes the
        //    square-wave conversion loss; the switch multiplication in the
        //    front end applies that loss physically, so the stream is
        //    scaled to the *pre-conversion* level.
        let budget = self.cfg.link.budget_at_feet(self.cfg.distance_ft);
        scale_to_power(
            &mut bs_iq,
            budget.backscatter_at_rx + Db(CONVERSION_LOSS_DB),
        );
        let mut direct_iq = host_iq;
        scale_to_power(&mut direct_iq, self.cfg.link.host_at_rx);

        // 3b. Motion fading on the backscatter path: one complex gain per
        //     10 ms block, drawn from the same Jakes process (and seed
        //     rule) as the fast tier.
        if let Some(f) = fader.as_mut() {
            let block = (iq_rate * 0.01) as usize;
            let mut i = 0usize;
            while i < bs_iq.len() {
                let h = f.next_gain();
                let end = (i + block).min(bs_iq.len());
                for s in bs_iq[i..end].iter_mut() {
                    *s *= h;
                }
                i = end;
            }
        }

        // 4. Receiver input: backscatter + direct host + thermal noise over
        //    the whole simulated bandwidth (the channel filter narrows it).
        let floor = thermal_noise_floor(iq_rate, 290.0, self.cfg.link.noise_figure);
        let mut rx_input: Vec<Complex> = bs_iq
            .iter()
            .zip(direct_iq.iter())
            .map(|(a, b)| *a + *b)
            .collect();
        let mut awgn = AwgnSource::new(floor.to_milliwatts(), self.cfg.seed);
        awgn.corrupt(&mut rx_input);

        // 5. Receivers.
        let rx_cfg = if car_receiver {
            ReceiverConfig::car(iq_rate, self.cfg.f_back_hz)
        } else {
            ReceiverConfig::smartphone(iq_rate, self.cfg.f_back_hz)
        };
        let receive = |cfg: ReceiverConfig| {
            fmbs_obs::span!(fmbs_obs::stages::FM_RECEIVE);
            FmReceiver::new(cfg).receive(&rx_input)
        };
        let backscatter_rx = receive(rx_cfg);
        let host_rx =
            decode_host_channel.then(|| receive(ReceiverConfig::smartphone(iq_rate, 0.0)));
        PhysicalOutput {
            backscatter_rx,
            host_rx,
        }
    }
}

/// Multiplex rate used when a stereo-band workload has to be placed in
/// the 23–53 kHz L−R region of the tag's baseband.
const STEREO_MUX_RATE: f64 = 192_000.0;

impl Simulator for PhysicalSim {
    fn name(&self) -> &'static str {
        "physical"
    }

    /// Runs the scenario through the full RF chain.
    ///
    /// The configuration's `iq_rate` is kept; the link budget, distance,
    /// `f_back` and seed are taken from the scenario, so one
    /// `PhysicalSim` serves a whole sweep (including `f_backs_hz` axes). The host station is modelled
    /// as a mono transmitter carrying the scenario's programme (no
    /// pre-emphasis, matching the fast tier's audio-domain model);
    /// stereo-band workloads are placed in a proper 19 kHz-pilot + 38 kHz
    /// DSB-SC multiplex so the receiver's own pilot detector decides
    /// stereo mode. All audio is resampled to [`FAST_AUDIO_RATE`] so
    /// metrics are tier-agnostic.
    fn run(&self, scenario: &Scenario) -> SimOutput {
        let synth = scenario.workload.synthesise(FAST_AUDIO_RATE);

        // Host programme: the same scenario-derived audio the fast tier
        // hears (mono path only — the host station is modelled mono).
        let (host_mono, _) = scenario.host_audio(FAST_AUDIO_RATE, synth.wave.len());

        // Tag baseband: mono-band workloads backscatter the payload
        // directly; stereo-band workloads ride the standard FM multiplex
        // (19 kHz pilot + pilot-locked 38 kHz DSB-SC) via the tag's own
        // baseband builder, so the receiver's coherent stereo demod sees
        // an in-phase subcarrier.
        let (tag_bb, tag_rate) =
            if scenario.workload.stereo_band() {
                let bb = crate::tag::baseband::BasebandBuilder::new(STEREO_MUX_RATE)
                    .stereo_payload(&synth.wave, FAST_AUDIO_RATE, true);
                (bb, STEREO_MUX_RATE)
            } else {
                (synth.wave.clone(), FAST_AUDIO_RATE)
            };

        let rf = PhysicalSim::new(PhysicalSimConfig {
            link: scenario.link(),
            distance_ft: scenario.distance_ft,
            seed: scenario.seed,
            // The scenario owns `f_back` (it is a sweep axis); only the
            // IQ rate comes from the construction-time configuration.
            f_back_hz: scenario.f_back_hz,
            ..self.cfg.clone()
        });
        let mut station = StationConfig::mono();
        station.preemphasis = false;
        // Motion fading: the scenario's shared per-block Jakes process —
        // identical gain sequence to the fast tier's.
        let fader = scenario.fader(FAST_AUDIO_RATE);
        let car = scenario.receiver == super::scenario::ReceiverKind::Car;
        // The chain takes host audio and tag baseband at one shared rate:
        // the stereo multiplex needs its 192 kHz rate (38 kHz subcarrier),
        // so lift the host audio to match in that case.
        let host = if (tag_rate - FAST_AUDIO_RATE).abs() < f64::EPSILON {
            host_mono.clone()
        } else {
            resample_linear(&host_mono, FAST_AUDIO_RATE, tag_rate)
        };
        // The expensive scenario-invariant front end (host modulator IQ,
        // tag switch product) reads through the sweep cache when one is
        // installed; fresh computation otherwise. Either way the back end
        // applies this point's powers, fading and noise — bit-identical
        // results (property-tested in `tests/tests/properties.rs`).
        let (host_iq, bs_iq) = match super::cache::active() {
            Some(cache) => {
                let fe = cache.physical_front_end(
                    scenario,
                    synth.wave.len(),
                    tag_rate,
                    rf.cfg.iq_rate,
                    || rf.front_end(station, &host, &host, tag_rate, &tag_bb),
                );
                // Copy out of the shared entry: the back end scales and
                // fades in place, per point.
                (fe.0.clone(), fe.1.clone())
            }
            None => rf.front_end(station, &host, &host, tag_rate, &tag_bb),
        };
        let out = rf.run_back_end(host_iq, bs_iq, false, car, Some(fader));
        let rx = out.backscatter_rx;

        // Resample receiver audio to the tier-agnostic rate and trim to
        // the payload length.
        let n = synth.wave.len();
        let mut mono = resample_linear(&rx.mono, rx.sample_rate, FAST_AUDIO_RATE);
        let mut difference = resample_linear(&rx.difference, rx.sample_rate, FAST_AUDIO_RATE);
        mono.resize(n, 0.0);
        difference.resize(n, 0.0);
        if car {
            // Car audio reaches the listener through the cabin (§5.4) —
            // same acoustic chain and seed rule as the fast tier.
            mono = CabinChain::default_at(FAST_AUDIO_RATE).apply(&mono, scenario.seed ^ 0xCA7);
        }

        SimOutput {
            mono,
            difference,
            pilot_detected: rx.stereo_detected,
            budget: scenario.link().budget_at_feet(scenario.distance_ft),
            sample_rate: FAST_AUDIO_RATE,
            host_mono,
            payload_ref: synth.reference,
            tx_bits: synth.bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::metrics::tone_snr_db;
    use fmbs_dsp::goertzel::goertzel_power;
    use fmbs_dsp::TAU;

    const AUDIO_RATE: f64 = 48_000.0;

    fn tone(f: f64, secs: f64, amp: f64) -> Vec<f64> {
        (0..(AUDIO_RATE * secs) as usize)
            .map(|i| amp * (TAU * f * i as f64 / AUDIO_RATE).sin())
            .collect()
    }

    /// The §3.3 identity: multiplication in RF becomes addition in audio.
    /// Host plays 1 kHz; tag overlays 3 kHz; the backscatter-channel
    /// receiver must hear BOTH.
    #[test]
    fn multiplication_becomes_addition() {
        let sim = PhysicalSim::new(PhysicalSimConfig::bench(-20.0, 4.0));
        let host = tone(1_000.0, 0.35, 0.8);
        let tag_audio = tone(3_000.0, 0.35, 0.8);
        let mut station = StationConfig::mono();
        station.preemphasis = false;
        let out = sim.run_rf(station, &host, &host, AUDIO_RATE, &tag_audio, false);
        let audio = &out.backscatter_rx.mono;
        let fs = out.backscatter_rx.sample_rate;
        let skip = audio.len() / 3;
        let p_host = goertzel_power(&audio[skip..], fs, 1_000.0);
        let p_tag = goertzel_power(&audio[skip..], fs, 3_000.0);
        let p_bg = goertzel_power(&audio[skip..], fs, 5_000.0);
        assert!(
            p_host > 30.0 * p_bg,
            "host tone missing: {p_host} vs bg {p_bg}"
        );
        assert!(
            p_tag > 30.0 * p_bg,
            "tag tone missing: {p_tag} vs bg {p_bg}"
        );
    }

    /// The host-channel receiver hears only the host programme.
    #[test]
    fn host_channel_hears_only_host() {
        let sim = PhysicalSim::new(PhysicalSimConfig::bench(-20.0, 4.0));
        let host = tone(1_000.0, 0.3, 0.8);
        let tag_audio = tone(3_000.0, 0.3, 0.8);
        let mut station = StationConfig::mono();
        station.preemphasis = false;
        let out = sim.run_rf(station, &host, &host, AUDIO_RATE, &tag_audio, true);
        let host_rx = out.host_rx.expect("host receiver requested");
        let fs = host_rx.sample_rate;
        let skip = host_rx.mono.len() / 3;
        let p_host = goertzel_power(&host_rx.mono[skip..], fs, 1_000.0);
        let p_tag = goertzel_power(&host_rx.mono[skip..], fs, 3_000.0);
        assert!(
            p_host > 100.0 * p_tag.max(1e-15),
            "tag leaked into host channel: host {p_host} tag {p_tag}"
        );
    }

    /// Backscatter SNR falls with distance (physical-tier Fig. 7 sanity).
    ///
    /// Run at −60 dBm so the link is noise-limited: at high CNR the
    /// simulation's audio SNR saturates near ~48 dB because the sampled
    /// square wave (≈ 4.3 samples per 600 kHz period at 2.56 MS/s) carries
    /// edge-quantisation phase jitter proportional to the signal — an
    /// artifact a real analog switch does not have.
    #[test]
    fn snr_falls_with_distance() {
        let run_at = |ft: f64| {
            let sim = PhysicalSim::new(PhysicalSimConfig::bench(-60.0, ft));
            let tag_audio = tone(1_000.0, 0.3, 0.9);
            let silence = vec![0.0; tag_audio.len()];
            let mut station = StationConfig::mono();
            station.preemphasis = false;
            let out = sim.run_rf(station, &silence, &silence, AUDIO_RATE, &tag_audio, false);
            let fs = out.backscatter_rx.sample_rate;
            let skip = out.backscatter_rx.mono.len() / 3;
            tone_snr_db(&out.backscatter_rx.mono[skip..], fs, 1_000.0)
        };
        let near = run_at(6.0);
        let far = run_at(18.0);
        assert!(near > far + 3.0, "near {near} dB vs far {far} dB");
    }

    #[test]
    #[should_panic(expected = "IQ rate too low")]
    fn low_iq_rate_panics() {
        let mut cfg = PhysicalSimConfig::bench(-30.0, 4.0);
        cfg.iq_rate = 1_000_000.0;
        let _ = PhysicalSim::new(cfg);
    }

    /// The `Simulator` entry point: a scenario-driven tone run through
    /// the full RF chain hears the tone, and link budget/geometry come
    /// from the scenario (not the construction-time config).
    #[test]
    fn simulator_trait_runs_scenario() {
        use crate::sim::scenario::{Scenario, Workload};
        use crate::sim::Simulator;
        use fmbs_audio::program::ProgramKind;

        let sim = PhysicalSim::new(PhysicalSimConfig::bench(-60.0, 99.0));
        let scenario = Scenario::bench(-20.0, 4.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.3));
        let out = sim.run(&scenario);
        assert_eq!(out.mono.len(), out.payload_ref.len());
        assert_eq!(out.sample_rate, crate::sim::fast::FAST_AUDIO_RATE);
        let skip = out.mono.len() / 3;
        let snr = tone_snr_db(&out.mono[skip..], out.sample_rate, 1_000.0);
        assert!(snr > 25.0, "trait-run tone SNR {snr} dB");
        // The budget reflects the *scenario* geometry (strong, close),
        // not the weak far-out config the simulator was built with.
        assert!(out.budget.audio_snr.0 > 30.0);
    }

    /// Motion and receiver kind are honoured by the trait path: a moving
    /// scenario sees a different fading realisation than a static one,
    /// and a car scenario picks up cabin noise even with a silent
    /// programme and payload.
    #[test]
    fn simulator_trait_honours_motion_and_receiver() {
        use crate::sim::scenario::{Scenario, Workload};
        use crate::sim::Simulator;
        use fmbs_audio::program::ProgramKind;
        use fmbs_channel::fading::MotionProfile;

        let sim = PhysicalSim::new(PhysicalSimConfig::bench(-30.0, 4.0));
        let base = Scenario::bench(-30.0, 4.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.2));
        let standing = sim.run(&base);
        let mut running = base;
        running.motion = MotionProfile::Running;
        let moving = sim.run(&running);
        assert!(
            standing
                .mono
                .iter()
                .zip(&moving.mono)
                .any(|(a, b)| (a - b).abs() > 1e-9),
            "running scenario must see a different fading realisation"
        );

        let car =
            Scenario::car(-30.0, 4.0, ProgramKind::Silence).with_workload(Workload::silence(0.3));
        let out = sim.run(&car);
        let skip = out.mono.len() / 3;
        assert!(
            fmbs_dsp::stats::rms(&out.mono[skip..]) > 0.005,
            "car scenario must carry cabin noise"
        );
    }

    /// Stereo-band workloads ride a real 19 kHz pilot + 38 kHz DSB-SC
    /// multiplex, and the receiver's own pilot detector engages stereo.
    #[test]
    fn simulator_trait_stereo_band_engages_pilot() {
        use crate::sim::scenario::{Scenario, Workload};
        use crate::sim::Simulator;
        use fmbs_audio::program::ProgramKind;

        let sim = PhysicalSim::new(PhysicalSimConfig::bench(-20.0, 4.0));
        let scenario =
            Scenario::bench(-20.0, 4.0, ProgramKind::Silence).with_workload(Workload::Tone {
                freq_hz: 2_000.0,
                secs: 0.3,
                amp: 0.9,
                stereo_band: true,
            });
        let out = sim.run(&scenario);
        assert!(out.pilot_detected, "19 kHz pilot must engage stereo mode");
        let skip = out.difference.len() / 3;
        let p_tone =
            fmbs_dsp::goertzel::goertzel_power(&out.difference[skip..], out.sample_rate, 2_000.0);
        let p_bg =
            fmbs_dsp::goertzel::goertzel_power(&out.difference[skip..], out.sample_rate, 5_000.0);
        // The multiplex is pilot-locked, so coherent stereo demod
        // recovers the payload in phase — expect a strong margin over
        // the background bin, not a quadrature-leak residue.
        assert!(
            p_tone > 100.0 * p_bg.max(1e-15),
            "stereo-band tone missing from L−R: {p_tone} vs bg {p_bg}"
        );
    }
}

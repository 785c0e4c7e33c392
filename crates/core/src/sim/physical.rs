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
use crate::tag::{SwitchSigns, Tag, TagConfig};
use fmbs_channel::backscatter_link::{BackscatterLink, CONVERSION_LOSS_DB};
use fmbs_channel::car::CabinChain;
use fmbs_channel::fading::JakesFader;
use fmbs_channel::noise::{thermal_noise_floor, AwgnSource};
use fmbs_channel::units::Db;
use fmbs_dsp::complex::Complex;
use fmbs_dsp::resample::resample_linear;
use fmbs_fm::receiver::{ChannelStage, FmReceiver, ReceiverConfig, StereoAudio};
use fmbs_fm::transmitter::{FmTransmitter, StationConfig};
use std::sync::Arc;

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
    /// unit-amplitude IQ multiplex and the tag's switch states.
    /// Everything downstream (power scaling, fading, noise, the
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
    ) -> RfFrontEnd {
        fmbs_obs::span!(fmbs_obs::stages::RF_FRONT_END);
        let iq_rate = self.cfg.iq_rate;
        // 1. Host station: unit-amplitude IQ at offset 0.
        let tx = FmTransmitter::new(station, iq_rate, 0.0);
        let host = tx.modulate(host_left, host_right, audio_rate);

        // 2. Tag: switch waveform from its baseband, which multiplies the
        //    incident signal. (The incident amplitude at the tag is
        //    irrelevant to the *shape*; absolute powers are applied at the
        //    receiver, on a 0 dBm ↔ unit-power scale.)
        let mut tag_bb = fmbs_dsp::resample::resample_linear(tag_baseband, audio_rate, iq_rate);
        tag_bb.resize(host.len(), 0.0);
        let mut tag = Tag::new(TagConfig {
            f_back_hz: self.cfg.f_back_hz,
            deviation_hz: 75_000.0,
            sample_rate: iq_rate,
        });
        let switch = tag.switch_signs(&tag_bb);
        RfFrontEnd { host, switch }
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
        let fe = self.front_end(station, host_left, host_right, audio_rate, tag_baseband);
        self.run_back_end(&fe, decode_host_channel, car_receiver, fader)
    }

    /// The per-point **back end**: scales the front end to the link
    /// budget, applies motion fading and thermal noise, and runs the
    /// receiver(s). It walks the front end in place, one 10 ms block
    /// (the fading block) at a time, and feeds each receiver's
    /// [`ChannelStage`] from one reused block buffer, so its memory does
    /// not grow with the capture: only the receivers' baseband, at a
    /// tenth of the IQ rate, spans the whole run. Every sample sees the
    /// operations of a whole-capture pass in the same order, so results
    /// are bit-identical to one.
    fn run_back_end(
        &self,
        fe: &RfFrontEnd,
        decode_host_channel: bool,
        car_receiver: bool,
        mut fader: Option<JakesFader>,
    ) -> PhysicalOutput {
        fmbs_obs::span!(fmbs_obs::stages::RF_BACK_END);
        let iq_rate = self.cfg.iq_rate;

        // 3. Powers. The budget's backscatter_at_rx already includes the
        //    square-wave conversion loss; the switch multiplication
        //    applies that loss physically, so the backscatter is scaled
        //    to the *pre-conversion* level.
        let budget = self.cfg.link.budget_at_feet(self.cfg.distance_ft);
        let a_bs = (budget.backscatter_at_rx + Db(CONVERSION_LOSS_DB)).amplitude_vs_0dbm();
        let a_host = self.cfg.link.host_at_rx.amplitude_vs_0dbm();

        // 4. Thermal noise over the whole simulated bandwidth (the
        //    channel filter narrows it).
        let floor = thermal_noise_floor(iq_rate, 290.0, self.cfg.link.noise_figure);
        let mut awgn = AwgnSource::new(floor.to_milliwatts(), self.cfg.seed);

        // 5. Receivers: each gets every block through its own tuner and
        //    channel filter, then demodulates the whole baseband.
        let rx_cfg = if car_receiver {
            ReceiverConfig::car(iq_rate, self.cfg.f_back_hz)
        } else {
            ReceiverConfig::smartphone(iq_rate, self.cfg.f_back_hz)
        };
        let mut receivers: Vec<(FmReceiver, ChannelStage)> = std::iter::once(rx_cfg)
            .chain(decode_host_channel.then(|| ReceiverConfig::smartphone(iq_rate, 0.0)))
            .map(|cfg| {
                let rx = FmReceiver::new(cfg);
                let stage = rx.channel_stage();
                (rx, stage)
            })
            .collect();

        // One motion-fading gain per 10 ms block, drawn from the same
        // Jakes process (and seed rule) as the fast tier.
        let block = (iq_rate * 0.01) as usize;
        let mut rx_input: Vec<Complex> = Vec::with_capacity(block);
        let mut draws = fmbs_obs::Tally::one_call(fmbs_obs::stages::NOISE_DRAWS);
        for start in (0..fe.host.len()).step_by(block) {
            let end = (start + block).min(fe.host.len());
            let h = fader.as_mut().map(|f| f.next_gain());
            // The block's thermal noise first, then the scaled signals
            // added onto it (`n + s` and `s + n` are the same bits).
            rx_input.resize(end - start, Complex::ZERO);
            {
                let _draws = draws.enter();
                awgn.fill(&mut rx_input);
            }
            for (z, i) in rx_input.iter_mut().zip(start..end) {
                let mut bs = fe.backscatter(i).scale(a_bs);
                if let Some(h) = h {
                    bs *= h;
                }
                *z += bs + fe.host[i].scale(a_host);
            }
            for (_, stage) in receivers.iter_mut() {
                fmbs_obs::span!(fmbs_obs::stages::FM_RECEIVE);
                stage.push(&rx_input);
            }
        }

        let mut decoded = receivers.into_iter().map(|(rx, stage)| {
            fmbs_obs::span!(fmbs_obs::stages::FM_RECEIVE);
            rx.demodulate(stage.baseband())
        });
        let backscatter_rx = decoded.next().expect("the backscatter receiver runs");
        PhysicalOutput {
            backscatter_rx,
            host_rx: decoded.next(),
        }
    }
}

/// The scenario-invariant RF front end of a physical run (see
/// [`PhysicalSim`]): the host station's unit-amplitude IQ and the tag's
/// switch state per sample. The switch is exactly ±1, so the tag's
/// backscatter product `host[i]·(±1)` is rebuilt bit for bit on the fly
/// — the front end holds one IQ vector plus one bit per sample, not two
/// IQ vectors.
#[derive(Debug)]
pub struct RfFrontEnd {
    host: Vec<Complex>,
    switch: SwitchSigns,
}

impl RfFrontEnd {
    /// The tag's backscatter product at sample `i`, before power
    /// scaling: [`Tag::backscatter`]'s output, bit for bit.
    #[inline]
    pub(crate) fn backscatter(&self, i: usize) -> Complex {
        self.host[i].scale(self.switch.sign(i))
    }

    /// Heap bytes the front end holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.host.as_slice()) + self.switch.heap_bytes()
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
    /// `PhysicalSim` serves a whole sweep. The host station is modelled
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
        let host = scenario.host_audio(FAST_AUDIO_RATE, synth.wave.len());

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

        // Tag baseband: mono-band workloads backscatter the payload
        // directly; stereo-band workloads ride the standard FM multiplex
        // (19 kHz pilot + pilot-locked 38 kHz DSB-SC) via the tag's own
        // baseband builder, so the receiver's coherent stereo demod sees
        // an in-phase subcarrier. The chain takes host audio and tag
        // baseband at one shared rate, so the stereo case lifts the host
        // audio to the multiplex's 192 kHz (38 kHz subcarrier).
        let stereo_band = scenario.workload.stereo_band();
        let tag_rate = if stereo_band {
            STEREO_MUX_RATE
        } else {
            FAST_AUDIO_RATE
        };
        let compute = || {
            if stereo_band {
                let bb = crate::tag::baseband::BasebandBuilder::new(STEREO_MUX_RATE)
                    .stereo_payload(&synth.wave, FAST_AUDIO_RATE, true);
                let lifted = resample_linear(&host.mono, FAST_AUDIO_RATE, STEREO_MUX_RATE);
                rf.front_end(station, &lifted, &lifted, STEREO_MUX_RATE, &bb)
            } else {
                rf.front_end(
                    station,
                    &host.mono,
                    &host.mono,
                    FAST_AUDIO_RATE,
                    &synth.wave,
                )
            }
        };
        // The expensive scenario-invariant front end (host modulator IQ,
        // tag switch states) reads through the sweep cache when one is
        // installed; fresh computation otherwise. Either way the back end
        // reads it in place and applies this point's powers, fading and
        // noise — bit-identical results (property-tested in
        // `tests/tests/properties.rs`).
        let fe = match super::cache::active() {
            Some(cache) => cache.physical_front_end(
                scenario,
                synth.wave.len(),
                tag_rate,
                rf.cfg.iq_rate,
                compute,
            ),
            None => Arc::new(compute()),
        };
        let out = rf.run_back_end(&fe, false, car, Some(fader));
        drop(fe);
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
            host,
            payload: synth,
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
        assert_eq!(out.mono.len(), out.payload.reference.len());
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

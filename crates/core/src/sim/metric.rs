//! Composable measurements over [`Simulator`] runs.
//!
//! Every figure of the paper's evaluation is some measurement of a
//! simulated scenario: a bit-error rate, a PESQ-like audio score, a tone
//! SNR, a pilot-detection flag. A [`Metric`] packages one such
//! measurement as a reusable value — the sweep engine evaluates a metric
//! over a scenario grid, and the mode harnesses in [`crate::overlay`],
//! [`crate::stereo_bs`] and [`crate::coop`] are thin adapters over the
//! same implementations, so figure code and unit tests exercise one code
//! path.

use super::scenario::{Scenario, SynthesisedPayload, Workload};
use super::{SimOutput, Simulator};
use crate::modem::decoder::DataDecoder;
use crate::modem::{bit_error_rate, mrc};
use fmbs_audio::pesq::pesq_like;
use fmbs_channel::pathloss::gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Gain applied to tag payloads riding the stereo (L−R) band (the fast
/// tier injects them at 0.9; receivers undo it before scoring).
pub const STEREO_PAYLOAD_GAIN: f64 = 0.9;

/// One measurement of one scenario, evaluated against any simulator.
///
/// `Sync` is a supertrait so sweep workers can share a metric across
/// threads.
pub trait Metric: Sync {
    /// A short name for reports ("ber", "pesq", ...).
    fn name(&self) -> &'static str;

    /// Runs the scenario through `sim` and measures it.
    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64;
}

fn payload_channel(out: &SimOutput, stereo: bool) -> &[f64] {
    if stereo {
        &out.difference
    } else {
        &out.mono
    }
}

fn expect_data(scenario: &Scenario, metric: &str) -> (crate::modem::Bitrate, bool) {
    match scenario.workload {
        Workload::Data {
            bitrate,
            stereo_band,
            ..
        } => (bitrate, stereo_band),
        ref other => panic!("{metric} metric needs a Data workload, got {other:?}"),
    }
}

/// Single-transmission bit-error rate of a [`Workload::Data`] scenario.
#[derive(Debug, Clone, Copy)]
pub struct Ber {
    /// BER reported when a stereo-band payload's pilot is not detected
    /// (no stereo stream at all ⇒ coin-flip decoding).
    pub pilot_lost_ber: f64,
}

impl Default for Ber {
    fn default() -> Self {
        Ber {
            pilot_lost_ber: 0.5,
        }
    }
}

impl Ber {
    /// Scores an already-computed simulation output (single-run path for
    /// callers that also need the raw output, e.g. pilot-loss checks).
    pub fn score_output(
        &self,
        out: &SimOutput,
        bitrate: crate::modem::Bitrate,
        stereo: bool,
    ) -> f64 {
        if stereo && !out.pilot_detected {
            return self.pilot_lost_ber;
        }
        let dec = DataDecoder::new(out.sample_rate, bitrate);
        let rx = dec.decode(payload_channel(out, stereo), 0, out.payload.bits.len());
        bit_error_rate(&out.payload.bits, &rx)
    }
}

impl Metric for Ber {
    fn name(&self) -> &'static str {
        "ber"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let (bitrate, stereo) = expect_data(scenario, "ber");
        self.score_output(&sim.run(scenario), bitrate, stereo)
    }
}

/// BER with `n`-fold maximal-ratio combining (§3.4): the tag repeats the
/// transmission; the receiver sums the raw recordings. Repetitions share
/// the payload (fixed `payload_seed`) but see fresh noise, fading and
/// host audio via shifted scenario seeds.
#[derive(Debug, Clone, Copy)]
pub struct BerMrc {
    /// Fixed combining depth; `None` reads the depth from
    /// [`Scenario::mrc_depth`], which is what makes MRC depth a sweep
    /// axis ([`crate::sim::sweep::SweepBuilder::mrc_depths`]).
    pub n: Option<usize>,
    /// BER reported on pilot loss (stereo-band payloads).
    pub pilot_lost_ber: f64,
}

impl BerMrc {
    /// `n`-fold combining at a fixed depth.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        BerMrc {
            n: Some(n),
            pilot_lost_ber: 0.5,
        }
    }

    /// Combining depth taken from each scenario's `mrc_depth` field —
    /// the form the `mrc_depths` sweep axis needs.
    pub fn from_scenario() -> Self {
        BerMrc {
            n: None,
            pilot_lost_ber: 0.5,
        }
    }

    fn depth(&self, scenario: &Scenario) -> usize {
        self.n.unwrap_or(scenario.mrc_depth.max(1) as usize)
    }
}

impl Metric for BerMrc {
    fn name(&self) -> &'static str {
        "ber_mrc"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let (bitrate, stereo) = expect_data(scenario, "ber_mrc");
        let depth = self.depth(scenario);
        let mut recordings = Vec::with_capacity(depth);
        let mut payload = Arc::<SynthesisedPayload>::default();
        let mut sample_rate = 0.0;
        for i in 0..depth {
            // Shift seed *and* programme seed per repetition (the tag
            // retransmits at a later time, so the receiver hears fresh
            // noise, fading and host audio) — but preserve the incoming
            // `program_seed` for repetition 0, so MRC-of-one matches a
            // plain run exactly and a sweep's shared programme (and its
            // cache entries) survive intact.
            let mut rep = *scenario;
            rep.seed = scenario.seed.wrapping_add(i as u64 * 7919);
            rep.program_seed = scenario.program_seed.wrapping_add(i as u64 * 7919);
            let out = sim.run(&rep);
            if stereo && !out.pilot_detected {
                return self.pilot_lost_ber;
            }
            if i == 0 {
                payload = out.payload.clone();
                sample_rate = out.sample_rate;
            }
            recordings.push(match stereo {
                true => out.difference,
                false => out.mono,
            });
        }
        let combined = mrc::combine(&recordings);
        let dec = DataDecoder::new(sample_rate, bitrate);
        let rx = dec.decode(&combined, 0, payload.bits.len());
        bit_error_rate(&payload.bits, &rx)
    }
}

/// PESQ-like audio quality of a speech workload, scored against the
/// clean payload reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pesq {
    /// Score reported when a stereo-band payload's pilot is not detected
    /// (receiver stays mono: no payload audio at all).
    pub pilot_lost_score: f64,
}

impl Pesq {
    /// Scores an already-computed simulation output.
    pub fn score_output(&self, out: &SimOutput, stereo: bool) -> f64 {
        if stereo && !out.pilot_detected {
            return self.pilot_lost_score;
        }
        if stereo {
            // Receiver recovers payload as (L−R)/STEREO_PAYLOAD_GAIN.
            let recovered: Vec<f64> = out
                .difference
                .iter()
                .map(|x| x / STEREO_PAYLOAD_GAIN)
                .collect();
            pesq_like(&out.payload.reference, &recovered, out.sample_rate)
        } else {
            pesq_like(&out.payload.reference, &out.mono, out.sample_rate)
        }
    }
}

impl Metric for Pesq {
    fn name(&self) -> &'static str {
        "pesq"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.score_output(&sim.run(scenario), scenario.workload.stereo_band())
    }
}

/// PESQ of cooperative (two-phone) decoding: phone 1 on the backscatter
/// channel, phone 2 on the host channel; subtract to cancel the
/// programme (§3.3). Needs a [`Workload::CoopAudio`] scenario so the
/// payload carries the 13 kHz calibration pilot.
#[derive(Debug, Clone, Copy)]
pub struct CoopPesq {
    /// Simulated inter-phone start delay in seconds.
    pub phone2_delay_s: f64,
    /// Simulated phone-2 AGC gain relative to phone 1.
    pub phone2_gain: f64,
}

impl Default for CoopPesq {
    fn default() -> Self {
        CoopPesq {
            phone2_delay_s: 0.0013,
            phone2_gain: 0.62,
        }
    }
}

impl Metric for CoopPesq {
    fn name(&self) -> &'static str {
        "coop_pesq"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        assert!(
            matches!(scenario.workload, Workload::CoopAudio { .. }),
            "coop_pesq metric needs a CoopAudio workload, got {:?}",
            scenario.workload
        );
        let out = sim.run(scenario);
        let rate = out.sample_rate;

        // Phone 2: host channel — the host programme nearly clean,
        // delayed and AGC-scaled, with a small independent noise floor.
        let delay = (self.phone2_delay_s * rate) as usize;
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x2222);
        let mut phone2 = vec![0.0; out.host.mono.len()];
        for (i, p2) in phone2.iter_mut().enumerate().skip(delay) {
            *p2 = self.phone2_gain * out.host.mono[i - delay] + 0.003 * gaussian(&mut rng);
        }

        let dec = crate::coop::CooperativeDecoder::new(rate);
        let result = dec.decode(&out.mono, &phone2);
        // Skip the pilot preamble region before scoring.
        let skip = (0.2 * rate) as usize;
        if result.payload.len() <= skip {
            return 0.0;
        }
        // The receiver knows the calibration pilot's frequency and
        // notches it out of the played-back audio.
        let mut notch = fmbs_dsp::iir::Biquad::notch(rate, crate::COOP_PILOT_HZ, 4.0);
        let cleaned = notch.process(&result.payload[skip..]);
        pesq_like(&out.payload.reference, &cleaned, rate)
    }
}

/// SNR (dB) of a [`Workload::Tone`] payload at the receiver, measured
/// after a settling prefix.
#[derive(Debug, Clone, Copy)]
pub struct ToneSnr {
    /// Fraction of the output skipped before measuring (filter settling).
    pub skip_fraction: f64,
    /// SNR (dB) reported when a stereo-band tone's pilot is not detected
    /// (the difference channel is all zeros — there is no tone to
    /// measure, and the raw estimator would return ≈ −2800 dB garbage
    /// that poisons averages).
    pub pilot_lost_snr_db: f64,
}

impl Default for ToneSnr {
    fn default() -> Self {
        ToneSnr {
            skip_fraction: 0.25,
            pilot_lost_snr_db: 0.0,
        }
    }
}

impl Metric for ToneSnr {
    fn name(&self) -> &'static str {
        "tone_snr"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let Workload::Tone {
            freq_hz,
            stereo_band,
            ..
        } = scenario.workload
        else {
            panic!(
                "tone_snr metric needs a Tone workload, got {:?}",
                scenario.workload
            )
        };
        let out = sim.run(scenario);
        if stereo_band && !out.pilot_detected {
            return self.pilot_lost_snr_db;
        }
        let audio = payload_channel(&out, stereo_band);
        let skip = (audio.len() as f64 * self.skip_fraction) as usize;
        fmbs_audio::metrics::tone_snr_db(&audio[skip..], out.sample_rate, freq_hz)
    }
}

/// Whether the receiver engaged stereo decoding: 1.0 when the pilot was
/// detected, else 0.0. Averaged over a sweep's repeats this is the
/// pilot-detection *rate*.
#[derive(Debug, Clone, Copy, Default)]
pub struct PilotDetect;

impl Metric for PilotDetect {
    fn name(&self) -> &'static str {
        "pilot_detect"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        if sim.run(scenario).pilot_detected {
            1.0
        } else {
            0.0
        }
    }
}

/// Audio SNR (dB) of an arbitrary payload against its clean reference,
/// estimated by least-squares projection (for non-tonal payloads where
/// [`ToneSnr`] does not apply).
#[derive(Debug, Clone, Copy, Default)]
pub struct AudioSnr;

impl Metric for AudioSnr {
    fn name(&self) -> &'static str {
        "audio_snr"
    }

    fn evaluate(&self, sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        let stereo = scenario.workload.stereo_band();
        let out = sim.run(scenario);
        if stereo && !out.pilot_detected {
            return 0.0;
        }
        let audio = payload_channel(&out, stereo);
        let n = audio.len().min(out.payload.reference.len());
        if n == 0 {
            return 0.0;
        }
        let (a, r) = (&audio[..n], &out.payload.reference[..n]);
        // Project the received audio onto the reference; the residual is
        // noise + interference.
        let dot_ar: f64 = a.iter().zip(r.iter()).map(|(x, y)| x * y).sum();
        let dot_rr: f64 = r.iter().map(|y| y * y).sum();
        if dot_rr <= 0.0 {
            return 0.0;
        }
        let g = dot_ar / dot_rr;
        let resid: f64 = a
            .iter()
            .zip(r.iter())
            .map(|(x, y)| (x - g * y) * (x - g * y))
            .sum();
        let sig = g * g * dot_rr;
        10.0 * (sig / resid.max(1e-30)).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::Bitrate;
    use crate::sim::fast::FastSim;
    use fmbs_audio::program::ProgramKind;

    fn data_scenario(p: f64, d: f64) -> Scenario {
        Scenario::bench(p, d, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 200))
    }

    #[test]
    fn ber_clean_at_strong_link() {
        let ber = Ber::default().evaluate(&FastSim, &data_scenario(-30.0, 4.0));
        assert!(ber < 0.01, "ber {ber}");
    }

    #[test]
    fn ber_orders_with_link_quality() {
        let good = Ber::default().evaluate(&FastSim, &data_scenario(-30.0, 4.0));
        let bad = Ber::default().evaluate(&FastSim, &data_scenario(-60.0, 16.0));
        assert!(bad > good, "bad {bad} vs good {good}");
    }

    #[test]
    fn stereo_ber_reports_pilot_loss() {
        let s = Scenario::bench(-60.0, 10.0, ProgramKind::News)
            .with_workload(Workload::stereo_data(Bitrate::Kbps1_6, 100));
        let ber = Ber::default().evaluate(&FastSim, &s);
        assert_eq!(ber, 0.5);
        assert_eq!(PilotDetect.evaluate(&FastSim, &s), 0.0);
    }

    #[test]
    fn mrc_does_not_hurt() {
        let s = Scenario::bench(-60.0, 12.0, ProgramKind::RockMusic)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 800));
        let one = BerMrc::new(1).evaluate(&FastSim, &s);
        let four = BerMrc::new(4).evaluate(&FastSim, &s);
        assert!(four <= one, "4x MRC {four} vs single {one}");
    }

    #[test]
    fn mrc_of_one_matches_plain_ber() {
        let s = data_scenario(-50.0, 10.0);
        let plain = Ber::default().evaluate(&FastSim, &s);
        let mrc1 = BerMrc::new(1).evaluate(&FastSim, &s);
        assert!((plain - mrc1).abs() < 1e-12);
    }

    #[test]
    fn mrc_of_one_matches_plain_ber_under_sweep_seeding() {
        // Inside a sweep, program_seed is decoupled from seed (one shared
        // programme per repetition); MRC's repetition 0 must preserve it
        // so MRC-of-one stays exactly a plain run.
        let mut s = data_scenario(-50.0, 10.0);
        s.program_seed = 0x0BAD_CAFE; // ≠ s.seed, as the sweep engine sets it
        let plain = Ber::default().evaluate(&FastSim, &s);
        let mrc1 = BerMrc::new(1).evaluate(&FastSim, &s);
        assert!((plain - mrc1).abs() < 1e-12);
    }

    #[test]
    fn pesq_degrades_with_distance() {
        let near =
            Scenario::bench(-30.0, 4.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let far =
            Scenario::bench(-60.0, 18.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let p_near = Pesq::default().evaluate(&FastSim, &near);
        let p_far = Pesq::default().evaluate(&FastSim, &far);
        assert!(p_near > p_far, "near {p_near} far {p_far}");
    }

    #[test]
    fn coop_beats_overlay_audio() {
        let overlay =
            Scenario::bench(-30.0, 6.0, ProgramKind::News).with_workload(Workload::speech(2.0));
        let coop = overlay.with_workload(Workload::coop_audio(2.0));
        let p_overlay = Pesq::default().evaluate(&FastSim, &overlay);
        let p_coop = CoopPesq::default().evaluate(&FastSim, &coop);
        assert!(
            p_coop > p_overlay,
            "coop {p_coop} must beat overlay {p_overlay}"
        );
    }

    #[test]
    fn tone_snr_tracks_link() {
        let s = Scenario::bench(-20.0, 4.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.5));
        let strong = ToneSnr::default().evaluate(&FastSim, &s);
        let weak = ToneSnr::default().evaluate(
            &FastSim,
            &Scenario::bench(-60.0, 20.0, ProgramKind::Silence)
                .with_workload(Workload::tone(1_000.0, 0.5)),
        );
        assert!(strong > 30.0, "strong {strong}");
        assert!(strong > weak + 15.0, "strong {strong} weak {weak}");
    }

    #[test]
    fn audio_snr_orders_with_link() {
        let near =
            Scenario::bench(-30.0, 4.0, ProgramKind::Silence).with_workload(Workload::speech(1.0));
        let far =
            Scenario::bench(-60.0, 18.0, ProgramKind::Silence).with_workload(Workload::speech(1.0));
        let s_near = AudioSnr.evaluate(&FastSim, &near);
        let s_far = AudioSnr.evaluate(&FastSim, &far);
        assert!(s_near > s_far, "near {s_near} far {s_far}");
    }
}

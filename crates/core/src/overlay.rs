//! Overlay backscatter (§3.3): payload added on top of the ambient
//! programme.
//!
//! The mode every FM receiver supports (including non-programmable car
//! stereos — §5.4): the tag's audio or data rides in the mono band, and
//! the listener hears host + payload as a composite. These harnesses are
//! thin adapters over the [`Simulator`]/[`Metric`]
//! API — the same code path the sweep engine drives for Figs. 7, 8, 11
//! and 14.

use crate::modem::Bitrate;
use crate::sim::fast::{FastSim, FAST_AUDIO_RATE};
use crate::sim::metric::{Ber, BerMrc, Metric, Pesq};
use crate::sim::scenario::{Scenario, Workload};
use crate::sim::{SimOutput, Simulator};

/// Overlay *audio* experiment: backscatter speech over the host programme
/// and score it with the PESQ-like metric (Fig. 11 / Fig. 13 / Fig. 14b).
#[derive(Debug, Clone)]
pub struct OverlayAudio {
    /// The scenario under test.
    pub scenario: Scenario,
    /// Payload duration in seconds (the paper uses 8 s clips).
    pub duration_s: f64,
}

impl OverlayAudio {
    /// Creates the experiment.
    pub fn new(scenario: Scenario, duration_s: f64) -> Self {
        OverlayAudio {
            scenario,
            duration_s,
        }
    }

    /// The fully specified scenario this experiment runs: the input
    /// scenario with a speech workload seeded from its RNG seed.
    pub fn scenario(&self) -> Scenario {
        self.scenario.with_workload(
            Workload::speech(self.duration_s).with_payload_seed(self.scenario.seed ^ 0xBEEF),
        )
    }

    /// Generates the payload speech the tag backscatters, loudness-
    /// processed to the broadcast level (the tag uses the full deviation,
    /// §3.2: "we set this parameter to the maximum allowable value").
    pub fn payload(&self) -> Vec<f64> {
        self.scenario()
            .workload
            .synthesise(FAST_AUDIO_RATE)
            .reference
            .clone()
    }

    /// Runs the experiment, returning the PESQ-like score of the received
    /// composite against the clean payload.
    pub fn run_pesq(&self) -> f64 {
        Pesq::default().evaluate(&FastSim, &self.scenario())
    }

    /// Runs and returns both the received audio and the score.
    pub fn run_full(&self) -> (SimOutput, f64) {
        let out = FastSim.run(&self.scenario());
        let score = Pesq::default().score_output(&out, false);
        (out, score)
    }
}

/// Overlay *data* experiment: BER of the FSK/FDM layer in the mono band
/// (Fig. 8), with optional MRC (Fig. 9).
#[derive(Debug, Clone)]
pub struct OverlayData {
    /// The scenario under test.
    pub scenario: Scenario,
    /// Bit rate under test.
    pub bitrate: Bitrate,
    /// Number of payload bits per run.
    pub n_bits: usize,
}

impl OverlayData {
    /// Creates the experiment.
    pub fn new(scenario: Scenario, bitrate: Bitrate, n_bits: usize) -> Self {
        OverlayData {
            scenario,
            bitrate,
            n_bits,
        }
    }

    /// The fully specified scenario this experiment runs.
    pub fn scenario(&self) -> Scenario {
        self.scenario.with_workload(
            Workload::data(self.bitrate, self.n_bits)
                .with_payload_seed(self.scenario.seed ^ 0xDA7A),
        )
    }

    /// Single-transmission BER.
    pub fn run_ber(&self) -> f64 {
        Ber::default().evaluate(&FastSim, &self.scenario())
    }

    /// BER with rate-1/2 convolutional coding + burst interleaving (§8's
    /// "we can use coding to improve the FM backscatter range"). The
    /// *information* BER is measured over `n_bits` message bits, which
    /// cost `2·(n_bits+2)` channel bits at the same symbol rate — i.e.
    /// half the throughput bought back as range.
    pub fn run_ber_coded(&self) -> f64 {
        use crate::modem::encoder::test_bits;
        use crate::modem::fec;
        let bits = test_bits(self.n_bits, self.scenario.seed ^ 0xDA7A);
        let coded = fec::encode_for_tx(&bits, 8, 16);
        let enc = crate::modem::encoder::DataEncoder::new(FAST_AUDIO_RATE, self.bitrate);
        let wave = enc.encode(&coded);
        let out = FastSim.run_payload(&self.scenario, &wave, false);
        let dec = crate::modem::decoder::DataDecoder::new(FAST_AUDIO_RATE, self.bitrate);
        let rx_coded = dec.decode(&out.mono, 0, coded.len());
        let rx = fec::decode_from_rx(&rx_coded, self.n_bits, 8, 16);
        crate::modem::bit_error_rate(&bits, &rx)
    }

    /// BER with `n`-fold maximal-ratio combining: the tag repeats the
    /// transmission `n` times; the receiver sums the raw recordings
    /// (§3.4). Each repetition sees fresh noise and host audio.
    pub fn run_ber_mrc(&self, n: usize) -> f64 {
        BerMrc::new(n).evaluate(&FastSim, &self.scenario())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_audio::program::ProgramKind;

    #[test]
    fn overlay_pesq_near_two_at_good_power() {
        // Fig. 11: "PESQ is consistently close to 2 for all power numbers
        // between −20 and −40 dBm at distances up to 20 feet."
        let exp = OverlayAudio::new(Scenario::bench(-30.0, 10.0, ProgramKind::News), 4.0);
        let score = exp.run_pesq();
        assert!((score - 2.0).abs() < 0.8, "overlay PESQ {score}");
    }

    #[test]
    fn overlay_pesq_degrades_with_weak_signal() {
        let good = OverlayAudio::new(Scenario::bench(-30.0, 8.0, ProgramKind::News), 3.0);
        let bad = OverlayAudio::new(Scenario::bench(-60.0, 18.0, ProgramKind::News), 3.0);
        assert!(good.run_pesq() > bad.run_pesq() + 0.3);
    }

    #[test]
    fn hundred_bps_clean_at_all_powers_close_in() {
        // Fig. 8a: "At a bit rate of 100 bps, the BER is nearly zero up to
        // distances of 6 feet across all power levels between −20 and −60
        // dBm."
        for p in [-20.0, -40.0, -60.0] {
            let exp = OverlayData::new(
                Scenario::bench(p, 5.0, ProgramKind::News),
                Bitrate::Bps100,
                200,
            );
            let ber = exp.run_ber();
            assert!(ber < 0.02, "BER {ber} at {p} dBm / 5 ft");
        }
    }

    #[test]
    fn high_rate_needs_more_power() {
        // Fig. 8c: 3.2 kbps fails at −60 dBm where 100 bps still works.
        let s = Scenario::bench(-60.0, 8.0, ProgramKind::News);
        let low = OverlayData::new(s, Bitrate::Bps100, 300).run_ber();
        let high = OverlayData::new(s, Bitrate::Kbps3_2, 300).run_ber();
        assert!(high > low, "3.2 kbps BER {high} not above 100 bps {low}");
    }

    #[test]
    fn coding_extends_range() {
        // §8: coding buys range — in the *waterfall* region (raw BER of a
        // few percent) the rate-1/2 K=3 code roughly halves the error
        // rate. Past the FM threshold collapse (raw BER > ~0.1)
        // hard-decision Viterbi breaks down, as coding theory predicts.
        // Individual draws at the waterfall are noisy, so both sides are
        // averaged over several noise seeds.
        let seeds = [0x5EEDu64, 1, 2, 3, 4, 5];
        let (mut raw, mut coded) = (0.0, 0.0);
        for &seed in &seeds {
            let s = Scenario::bench(-60.0, 10.5, ProgramKind::News).with_seed(seed);
            let exp = OverlayData::new(s, Bitrate::Kbps1_6, 800);
            raw += exp.run_ber();
            coded += exp.run_ber_coded();
        }
        raw /= seeds.len() as f64;
        coded /= seeds.len() as f64;
        assert!(raw > 0.0, "need raw errors in the waterfall region");
        assert!(
            coded < raw,
            "mean coded BER {coded} must beat uncoded {raw} in the waterfall"
        );

        let collapsed = OverlayData::new(
            Scenario::bench(-60.0, 15.0, ProgramKind::News),
            Bitrate::Kbps1_6,
            800,
        );
        assert!(
            collapsed.run_ber() > 0.1,
            "collapse point should have heavy raw errors"
        );
    }

    #[test]
    fn mrc_reduces_ber() {
        // Fig. 9's mechanism in the regime where our substrate produces
        // errors to combine away: 1.6 kbps at −60 dBm / 12 ft, where
        // threshold clicks hit each repetition independently.
        let s = Scenario::bench(-60.0, 12.0, ProgramKind::RockMusic);
        let exp = OverlayData::new(s, Bitrate::Kbps1_6, 800);
        let ber1 = exp.run_ber_mrc(1);
        let ber2 = exp.run_ber_mrc(2);
        let ber4 = exp.run_ber_mrc(4);
        assert!(ber1 > 0.0, "no errors to combine away at the stress point");
        assert!(
            ber2 <= ber1 && ber4 <= ber2,
            "MRC not monotone: {ber1} → {ber2} → {ber4}"
        );
        assert!(ber4 < ber1, "4x MRC must improve on single shot");
    }
}

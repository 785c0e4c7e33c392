//! Non-coherent FSK/FDM detection (the receiver side of §3.4).
//!
//! "We implement a non-coherent FSK receiver which compares the received
//! power on the two frequencies and outputs the frequency that has the
//! higher power. This eliminates the need for phase and amplitude
//! estimation and makes the design resilient to channel changes."
//!
//! Detection is per-symbol Goertzel power comparison; symbol timing comes
//! either from a known origin (the BER experiments transmit continuously
//! from t = 0) or from the frame preamble (see [`super::frame`]).

use super::{fdm_tone_hz, Bitrate, FDM_TONES, FSK_ONE_HZ, FSK_ZERO_HZ};
use fmbs_dsp::goertzel::GoertzelBank;

/// Non-coherent data decoder.
#[derive(Debug, Clone)]
pub struct DataDecoder {
    sample_rate: f64,
    bitrate: Bitrate,
    /// Every tone a symbol can carry, measured in one pass per window:
    /// `[one, zero]` for 2-FSK, the 16 FDM tones in grid order otherwise.
    bank: GoertzelBank,
}

impl DataDecoder {
    /// Creates a decoder for audio at `sample_rate`.
    pub fn new(sample_rate: f64, bitrate: Bitrate) -> Self {
        let tones: Vec<f64> = match bitrate {
            Bitrate::Bps100 => vec![FSK_ONE_HZ, FSK_ZERO_HZ],
            Bitrate::Kbps1_6 | Bitrate::Kbps3_2 => (0..FDM_TONES).map(fdm_tone_hz).collect(),
        };
        DataDecoder {
            sample_rate,
            bitrate,
            bank: GoertzelBank::new(sample_rate, &tones),
        }
    }

    /// Samples per symbol.
    pub fn samples_per_symbol(&self) -> usize {
        (self.sample_rate / self.bitrate.symbol_rate()).round() as usize
    }

    /// Decodes `n_bits` bits from audio whose first symbol starts at
    /// sample `offset`. Returns fewer bits if the audio runs out.
    pub fn decode(&self, audio: &[f64], offset: usize, n_bits: usize) -> Vec<bool> {
        let sps = self.samples_per_symbol();
        let bps = self.bitrate.bits_per_symbol();
        let n_symbols = n_bits.div_ceil(bps);
        let mut bits = Vec::with_capacity(n_symbols * bps);
        for s in 0..n_symbols {
            let start = offset + s * sps;
            let end = start + sps;
            if end > audio.len() {
                break;
            }
            self.decode_symbol(&audio[start..end], &mut bits);
        }
        bits.truncate(n_bits);
        bits
    }

    /// Decodes a single symbol window into its bits. Every power is
    /// compared with `total_cmp`, so a window holding NaN still decodes
    /// (to arbitrary bits) instead of panicking.
    pub fn decode_symbol(&self, window: &[f64], bits: &mut Vec<bool>) {
        let powers = self.bank.powers(window);
        match self.bitrate {
            Bitrate::Bps100 => bits.push(powers[0] > powers[1]),
            Bitrate::Kbps1_6 | Bitrate::Kbps3_2 => {
                for group in powers.chunks_exact(4) {
                    // The last of equal maxima wins, as `max_by` keeps it.
                    let best = group
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(i, _)| i);
                    bits.push(best & 0b10 != 0);
                    bits.push(best & 0b01 != 0);
                }
            }
        }
    }

    /// Soft symbol quality: ratio (dB) between the winning tone's power
    /// and the strongest losing tone, averaged over the decoded symbols.
    /// Used as a link-quality indicator by the MAC layer.
    pub fn mean_decision_margin_db(&self, audio: &[f64], offset: usize, n_symbols: usize) -> f64 {
        let sps = self.samples_per_symbol();
        // Margin is winner-vs-runner-up *within each decision*: the two
        // FSK tones, or each FDM group's four tones (an FDM symbol
        // legitimately contains four strong tones, one per group —
        // comparing across groups would always report ~0 dB).
        let group_len = match self.bitrate {
            Bitrate::Bps100 => 2,
            Bitrate::Kbps1_6 | Bitrate::Kbps3_2 => 4,
        };
        let mut acc = 0.0;
        let mut count = 0usize;
        for s in 0..n_symbols {
            let start = offset + s * sps;
            let end = start + sps;
            if end > audio.len() {
                break;
            }
            for group in self
                .bank
                .powers(&audio[start..end])
                .chunks_exact_mut(group_len)
            {
                group.sort_by(|a, b| b.total_cmp(a));
                acc += 10.0 * (group[0] / group[1].max(1e-18)).log10();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            acc / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::encoder::{test_bits, DataEncoder};
    use super::super::{bit_error_rate, Bitrate};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    fn loopback(rate: Bitrate, n_bits: usize, noise_rms: f64, seed: u64) -> f64 {
        let bits = test_bits(n_bits, seed);
        let enc = DataEncoder::new(FS, rate);
        let mut wave = enc.encode(&bits);
        if noise_rms > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            for x in wave.iter_mut() {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                *x += noise_rms * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
        let dec = DataDecoder::new(FS, rate);
        let rx = dec.decode(&wave, 0, n_bits);
        bit_error_rate(&bits, &rx)
    }

    #[test]
    fn clean_loopback_all_rates() {
        for rate in Bitrate::ALL {
            let ber = loopback(rate, 400, 0.0, 3);
            assert_eq!(ber, 0.0, "clean BER nonzero for {:?}", rate);
        }
    }

    #[test]
    fn moderate_noise_is_tolerated() {
        // Tone amplitude 0.9/4 per FDM tone; noise RMS 0.05 leaves a
        // comfortable margin for the Goertzel integrator.
        for rate in Bitrate::ALL {
            let ber = loopback(rate, 400, 0.05, 5);
            assert!(ber < 0.01, "BER {ber} under light noise for {:?}", rate);
        }
    }

    #[test]
    fn heavy_noise_breaks_higher_rates_first() {
        let ber_100 = loopback(Bitrate::Bps100, 300, 0.6, 7);
        let ber_3200 = loopback(Bitrate::Kbps3_2, 300, 0.6, 7);
        assert!(
            ber_3200 > ber_100,
            "3.2 kbps ({ber_3200}) should degrade before 100 bps ({ber_100})"
        );
    }

    #[test]
    fn extreme_noise_approaches_chance() {
        let ber = loopback(Bitrate::Kbps3_2, 800, 20.0, 9);
        assert!(ber > 0.3, "BER {ber} should be near chance");
    }

    #[test]
    fn decode_truncates_at_audio_end() {
        let enc = DataEncoder::new(FS, Bitrate::Bps100);
        let bits = test_bits(10, 1);
        let wave = enc.encode(&bits);
        let dec = DataDecoder::new(FS, Bitrate::Bps100);
        // Ask for more bits than the audio holds.
        let rx = dec.decode(&wave, 0, 20);
        assert_eq!(rx.len(), 10);
        assert_eq!(bit_error_rate(&bits, &rx[..10]), 0.0);
    }

    #[test]
    fn decision_margin_reflects_noise() {
        let bits = test_bits(80, 2);
        let enc = DataEncoder::new(FS, Bitrate::Kbps1_6);
        let clean = enc.encode(&bits);
        let mut noisy = clean.clone();
        let mut rng = StdRng::seed_from_u64(3);
        for x in noisy.iter_mut() {
            *x += 0.2 * (rng.gen::<f64>() * 2.0 - 1.0);
        }
        let dec = DataDecoder::new(FS, Bitrate::Kbps1_6);
        let m_clean = dec.mean_decision_margin_db(&clean, 0, 10);
        let m_noisy = dec.mean_decision_margin_db(&noisy, 0, 10);
        assert!(m_clean > m_noisy, "{m_clean} vs {m_noisy}");
        assert!(m_clean > 20.0);
    }

    #[test]
    fn nan_audio_ends_in_a_result_at_every_rate() {
        // A NaN in a window used to panic the FDM decision and the
        // margin's sort; every rate must now return bits and a margin.
        for rate in Bitrate::ALL {
            let dec = DataDecoder::new(FS, rate);
            let mut wave = DataEncoder::new(FS, rate).encode(&test_bits(64, 6));
            wave[dec.samples_per_symbol() / 2] = f64::NAN;
            let n_symbols = wave.len() / dec.samples_per_symbol();
            assert_eq!(dec.decode(&wave, 0, 64).len(), 64, "{rate:?}");
            dec.mean_decision_margin_db(&wave, 0, n_symbols);
            let all_nan = vec![f64::NAN; wave.len()];
            assert_eq!(dec.decode(&all_nan, 0, 64).len(), 64, "{rate:?}");
            dec.mean_decision_margin_db(&all_nan, 0, n_symbols);
        }
    }

    #[test]
    fn wrong_offset_destroys_decoding() {
        let bits = test_bits(200, 4);
        let enc = DataEncoder::new(FS, Bitrate::Kbps3_2);
        let wave = enc.encode(&bits);
        let dec = DataDecoder::new(FS, Bitrate::Kbps3_2);
        let rx = dec.decode(&wave, enc.samples_per_symbol() / 2, 200);
        let ber = bit_error_rate(&bits, &rx);
        assert!(ber > 0.05, "half-symbol offset BER {ber} suspiciously low");
    }
}

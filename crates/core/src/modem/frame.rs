//! Packet framing over the FSK/FDM symbol layer.
//!
//! The paper's applications send *messages* — a poster pushes a notifica-
//! tion URL (Fig. 16), a shirt streams vital signs. This module provides
//! the packetisation such applications need on top of the raw symbol
//! layer: a tone preamble for detection and symbol timing, a length byte,
//! payload, and CRC-16/CCITT.
//!
//! ```text
//! | preamble (alternating 2-FSK) | sync word | len | payload … | crc16 |
//! ```
//!
//! The preamble is always sent at 100 bps 2-FSK (robust detection); the
//! header and payload use the frame's configured bitrate.

use super::decoder::DataDecoder;
use super::encoder::DataEncoder;
use super::Bitrate;

/// Number of alternating preamble bits.
const PREAMBLE_BITS: usize = 16;
/// Sync word marking the end of the preamble (sent at the payload rate).
const SYNC_WORD: u16 = 0xB5A3;
/// Maximum payload size in bytes.
pub const MAX_PAYLOAD: usize = 255;

/// CRC-16/CCITT-FALSE over a byte slice.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

fn bytes_to_bits(data: &[u8]) -> Vec<bool> {
    data.iter()
        .flat_map(|&b| (0..8).rev().map(move |i| b & (1 << i) != 0))
        .collect()
}

fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .filter(|c| c.len() == 8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
        .collect()
}

/// Frame encoder.
#[derive(Debug, Clone)]
pub struct FrameEncoder {
    sample_rate: f64,
    bitrate: Bitrate,
}

impl FrameEncoder {
    /// Creates a frame encoder.
    pub fn new(sample_rate: f64, bitrate: Bitrate) -> Self {
        FrameEncoder {
            sample_rate,
            bitrate,
        }
    }

    /// Encodes a payload into a framed audio waveform.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self, payload: &[u8]) -> Vec<f64> {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
        // Preamble at 100 bps.
        let pre_enc = DataEncoder::new(self.sample_rate, Bitrate::Bps100);
        let preamble: Vec<bool> = (0..PREAMBLE_BITS).map(|i| i % 2 == 0).collect();
        let mut wave = pre_enc.encode(&preamble);

        // Header + payload + CRC at the configured rate.
        let mut body = Vec::with_capacity(payload.len() + 5);
        body.extend_from_slice(&SYNC_WORD.to_be_bytes());
        body.push(payload.len() as u8);
        body.extend_from_slice(payload);
        body.extend_from_slice(&crc16(payload).to_be_bytes());
        let body_enc = DataEncoder::new(self.sample_rate, self.bitrate);
        wave.extend(body_enc.encode(&bytes_to_bits(&body)));
        wave
    }
}

/// Frame decoder with preamble search.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    sample_rate: f64,
    bitrate: Bitrate,
}

/// A successfully decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Sample index where the frame body began.
    pub body_start: usize,
}

impl FrameDecoder {
    /// Creates a frame decoder.
    pub fn new(sample_rate: f64, bitrate: Bitrate) -> Self {
        FrameDecoder {
            sample_rate,
            bitrate,
        }
    }

    /// Searches `audio` for a frame and decodes it.
    ///
    /// Returns `None` if no preamble is found or the CRC fails.
    pub fn decode(&self, audio: &[f64]) -> Option<Frame> {
        let coarse = self.find_preamble(audio)?;
        // The coarse estimate is quarter-preamble-symbol accurate — too
        // loose for the (much shorter) body symbols. Fine-search by trial-
        // decoding the sync word around the estimate; the CRC guards
        // against false locks.
        let body_sps = DataDecoder::new(self.sample_rate, self.bitrate).samples_per_symbol();
        let pre_sps = DataDecoder::new(self.sample_rate, Bitrate::Bps100).samples_per_symbol();
        let span = pre_sps / 2;
        let step = (body_sps / 24).max(1);
        let mut off = coarse.saturating_sub(span);
        while off <= coarse + span {
            if let Some(frame) = self.decode_at(audio, off) {
                return Some(frame);
            }
            off += step;
        }
        None
    }

    /// Locates the start of the frame *body* (after the preamble) by
    /// scanning for the alternating 2-FSK preamble with a sliding
    /// decision correlator. Quarter-symbol accuracy; see [`Self::decode`]
    /// for refinement.
    pub fn find_preamble(&self, audio: &[f64]) -> Option<usize> {
        let pre_dec = DataDecoder::new(self.sample_rate, Bitrate::Bps100);
        let sps = pre_dec.samples_per_symbol();
        let total = PREAMBLE_BITS * sps;
        if audio.len() < total {
            return None;
        }
        let step = (sps / 4).max(1);
        let expected: Vec<bool> = (0..PREAMBLE_BITS).map(|i| i % 2 == 0).collect();
        let mut start = 0;
        while start + total <= audio.len() {
            let bits = pre_dec.decode(audio, start, PREAMBLE_BITS);
            let score = bits
                .iter()
                .zip(expected.iter())
                .filter(|(a, b)| a == b)
                .count();
            if score == PREAMBLE_BITS {
                return Some(start + total);
            }
            start += step;
        }
        None
    }

    /// Decodes a frame whose body starts at `offset`.
    pub fn decode_at(&self, audio: &[f64], offset: usize) -> Option<Frame> {
        let dec = DataDecoder::new(self.sample_rate, self.bitrate);
        // Sync word + length: 3 bytes.
        let head_bits = dec.decode(audio, offset, 24);
        if head_bits.len() < 24 {
            return None;
        }
        let head = bits_to_bytes(&head_bits);
        let sync = u16::from_be_bytes([head[0], head[1]]);
        if sync != SYNC_WORD {
            return None;
        }
        let len = head[2] as usize;
        let sps = dec.samples_per_symbol();
        let bps = self.bitrate.bits_per_symbol();
        // Offset of the byte stream after the 24 header bits: the header
        // occupies ceil(24/bps) whole symbols.
        let header_symbols = 24usize.div_ceil(bps);
        let body_off = offset + header_symbols * sps;
        let body_bits = dec.decode(audio, body_off, (len + 2) * 8);
        if body_bits.len() < (len + 2) * 8 {
            return None;
        }
        let body = bits_to_bytes(&body_bits);
        let payload = &body[..len];
        let rx_crc = u16::from_be_bytes([body[len], body[len + 1]]);
        if crc16(payload) != rx_crc {
            return None;
        }
        Some(Frame {
            payload: payload.to_vec(),
            body_start: offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FS: f64 = 48_000.0;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn bits_bytes_round_trip() {
        let data = [0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn frame_round_trip_all_rates() {
        for rate in Bitrate::ALL {
            let payload = b"SIMPLY THREE FALL TOUR tickets 20% off";
            let wave = FrameEncoder::new(FS, rate).encode(payload);
            let frame = FrameDecoder::new(FS, rate)
                .decode(&wave)
                .unwrap_or_else(|| panic!("no frame at {:?}", rate));
            assert_eq!(&frame.payload[..], payload);
        }
    }

    #[test]
    fn frame_found_after_leading_silence_and_noise() {
        let payload = b"poster says hi";
        let wave = FrameEncoder::new(FS, Bitrate::Kbps1_6).encode(payload);
        let mut rng = StdRng::seed_from_u64(4);
        let mut audio: Vec<f64> = (0..30_000)
            .map(|_| 0.02 * (rng.gen::<f64>() - 0.5))
            .collect();
        audio.extend(wave.iter().map(|x| x + 0.02 * (rng.gen::<f64>() - 0.5)));
        let frame = FrameDecoder::new(FS, Bitrate::Kbps1_6)
            .decode(&audio)
            .expect("frame not found");
        assert_eq!(&frame.payload[..], payload);
        assert!(frame.body_start > 30_000);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let wave = FrameEncoder::new(FS, Bitrate::Bps100).encode(b"abc");
        let dec = FrameDecoder::new(FS, Bitrate::Bps100);
        let clean = dec.decode(&wave);
        assert!(clean.is_some());
        // Overwrite the tail (payload end + CRC symbols) with a constant
        // 8 kHz tone: the non-coherent detector is amplitude-invariant, so
        // corruption must actually change which tone wins.
        let mut corrupted = wave.clone();
        let n = corrupted.len();
        let tail = n / 4;
        for (k, x) in corrupted[n - tail..].iter_mut().enumerate() {
            *x = 0.9 * (fmbs_dsp::TAU * 8_000.0 * k as f64 / FS).sin();
        }
        assert!(dec.decode(&corrupted).is_none(), "CRC accepted corruption");
    }

    #[test]
    fn empty_payload_is_legal() {
        let wave = FrameEncoder::new(FS, Bitrate::Kbps3_2).encode(b"");
        let frame = FrameDecoder::new(FS, Bitrate::Kbps3_2)
            .decode(&wave)
            .unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn no_frame_in_pure_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let noise: Vec<f64> = (0..100_000).map(|_| rng.gen::<f64>() - 0.5).collect();
        assert!(FrameDecoder::new(FS, Bitrate::Bps100)
            .decode(&noise)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_payload_panics() {
        let _ = FrameEncoder::new(FS, Bitrate::Bps100).encode(&[0u8; 300]);
    }
}

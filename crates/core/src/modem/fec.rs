//! Forward error correction (§8: "We can use coding \[42\] to improve the
//! FM backscatter range").
//!
//! A rate-1/2, constraint-length-3 convolutional code (generators 7, 5 —
//! the classic pair) with hard-decision Viterbi decoding. The encoder is
//! trivially cheap (two XOR taps — well within the tag's 1 µW baseband
//! budget); the decoder runs on the phone. A block interleaver spreads the
//! FM click bursts that dominate errors near threshold, which is where
//! coding buys range.

/// Constraint length.
const K: usize = 3;
/// Number of trellis states.
const STATES: usize = 1 << (K - 1);
/// Generator polynomials (octal 7 and 5).
const G: [u8; 2] = [0b111, 0b101];

fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Convolutionally encodes `bits` at rate 1/2, appending `K−1` flush zeros
/// so the decoder terminates in state 0. Output length is
/// `2·(bits.len() + K − 1)`.
pub fn conv_encode(bits: &[bool]) -> Vec<bool> {
    let mut state: u8 = 0;
    let mut out = Vec::with_capacity(2 * (bits.len() + K - 1));
    for &b in bits.iter().chain(std::iter::repeat_n(&false, K - 1)) {
        let reg = ((b as u8) << (K - 1)) | state;
        for g in G {
            out.push(parity(reg & g) == 1);
        }
        state = reg >> 1;
    }
    out
}

/// Hard-decision Viterbi decoding of a rate-1/2 stream produced by
/// [`conv_encode`]. `n_bits` is the original message length.
pub fn viterbi_decode(coded: &[bool], n_bits: usize) -> Vec<bool> {
    let n_steps = n_bits + K - 1;
    if coded.len() < 2 * n_steps {
        // Truncated input: pad with zeros (half-credible erasures) so the
        // trellis still terminates; the tail bits decode at chance.
        let mut padded = coded.to_vec();
        padded.resize(2 * n_steps, false);
        return viterbi_decode(&padded, n_bits);
    }
    // Path metrics and survivor tracebacks.
    let inf = u32::MAX / 2;
    let mut metric = [inf; STATES];
    metric[0] = 0;
    let mut survivors: Vec<[u8; STATES]> = Vec::with_capacity(n_steps);

    for step in 0..n_steps {
        let r0 = coded[2 * step] as u8;
        let r1 = coded[2 * step + 1] as u8;
        let mut next = [inf; STATES];
        let mut surv = [0u8; STATES];
        #[allow(clippy::needless_range_loop)] // state index feeds bit packing
        for s in 0..STATES {
            if metric[s] == inf {
                continue;
            }
            for b in 0..2u8 {
                let reg = (b << (K - 1)) | s as u8;
                let o0 = parity(reg & G[0]);
                let o1 = parity(reg & G[1]);
                let cost = (o0 ^ r0) as u32 + (o1 ^ r1) as u32;
                let ns = (reg >> 1) as usize;
                let m = metric[s] + cost;
                if m < next[ns] {
                    next[ns] = m;
                    surv[ns] = s as u8 | (b << 7); // pack prev state + bit
                }
            }
        }
        metric = next;
        survivors.push(surv);
    }

    // Trace back from state 0 (the flush guarantees termination there).
    let mut state = 0usize;
    let mut bits_rev = Vec::with_capacity(n_steps);
    for step in (0..n_steps).rev() {
        let packed = survivors[step][state];
        bits_rev.push(packed & 0x80 != 0);
        state = (packed & 0x7F) as usize;
    }
    bits_rev.reverse();
    bits_rev.truncate(n_bits);
    bits_rev
}

/// A `rows × cols` block interleaver: writes row-wise, reads column-wise.
/// Spreads a burst of up to `rows` consecutive channel errors into
/// isolated errors `cols` apart — which the K=3 code corrects.
pub fn interleave(bits: &[bool], rows: usize, cols: usize) -> Vec<bool> {
    assert!(rows >= 1 && cols >= 1);
    let block = rows * cols;
    let mut out = Vec::with_capacity(bits.len());
    for chunk in bits.chunks(block) {
        if chunk.len() < block {
            out.extend_from_slice(chunk); // tail passes through
            break;
        }
        for c in 0..cols {
            for r in 0..rows {
                out.push(chunk[r * cols + c]);
            }
        }
    }
    out
}

/// Inverse of [`interleave`] with the same geometry.
pub fn deinterleave(bits: &[bool], rows: usize, cols: usize) -> Vec<bool> {
    interleave(bits, cols, rows)
}

/// Convenience: encode + interleave for transmission.
pub fn encode_for_tx(bits: &[bool], rows: usize, cols: usize) -> Vec<bool> {
    interleave(&conv_encode(bits), rows, cols)
}

/// Convenience: deinterleave + Viterbi for reception.
pub fn decode_from_rx(coded: &[bool], n_bits: usize, rows: usize, cols: usize) -> Vec<bool> {
    viterbi_decode(&deinterleave(coded, rows, cols), n_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modem::encoder::test_bits;

    #[test]
    fn clean_round_trip() {
        let bits = test_bits(200, 1);
        let coded = conv_encode(&bits);
        assert_eq!(coded.len(), 2 * (200 + K - 1));
        assert_eq!(viterbi_decode(&coded, 200), bits);
    }

    #[test]
    fn corrects_isolated_errors() {
        let bits = test_bits(120, 2);
        let mut coded = conv_encode(&bits);
        // Flip every 11th coded bit (well-separated single errors).
        let mut i = 3;
        while i < coded.len() {
            coded[i] = !coded[i];
            i += 11;
        }
        assert_eq!(viterbi_decode(&coded, 120), bits);
    }

    #[test]
    fn interleaving_round_trip() {
        let bits = test_bits(8 * 16 * 3 + 5, 3); // blocks + ragged tail
        let il = interleave(&bits, 8, 16);
        assert_eq!(deinterleave(&il, 8, 16), bits);
        assert_eq!(il.len(), bits.len());
    }

    #[test]
    fn interleaver_spreads_bursts() {
        // A burst of `rows` consecutive interleaved positions maps back to
        // bits at least `cols` apart.
        let rows = 8;
        let cols = 16;
        let n = rows * cols;
        let mut burst_positions = vec![false; n];
        for b in burst_positions.iter_mut().skip(40).take(rows) {
            *b = true;
        }
        let restored = deinterleave(&burst_positions, rows, cols);
        let hit: Vec<usize> = restored
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        for w in hit.windows(2) {
            assert!(w[1] - w[0] >= cols - 1, "burst not spread: {hit:?}");
        }
    }

    #[test]
    fn coded_survives_burst_that_kills_uncoded() {
        let bits = test_bits(240, 4);
        let tx = encode_for_tx(&bits, 8, 16);
        let mut channel = tx.clone();
        // An 8-bit channel burst (one FM click's worth of symbols).
        for b in channel[100..108].iter_mut() {
            *b = !*b;
        }
        let rx = decode_from_rx(&channel, 240, 8, 16);
        assert_eq!(rx, bits, "coded link failed to absorb the burst");
    }

    #[test]
    fn heavy_corruption_still_degrades() {
        // Sanity: coding is not magic — 25 % random errors break it.
        let bits = test_bits(200, 5);
        let mut coded = conv_encode(&bits);
        let mut state = 7u64;
        for b in coded.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (state >> 33).is_multiple_of(4) {
                *b = !*b;
            }
        }
        let rx = viterbi_decode(&coded, 200);
        let ber = crate::modem::bit_error_rate(&bits, &rx);
        assert!(
            ber > 0.05,
            "implausibly good under 25% channel errors: {ber}"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(viterbi_decode(&conv_encode(&[]), 0), Vec::<bool>::new());
    }
}

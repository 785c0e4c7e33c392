//! Failure-injection tests: the system must degrade gracefully — wrong
//! configurations, hostile inputs and broken channels should produce
//! errors or garbage *detectably*, never panics or false positives.

use fmbs_audio::program::ProgramKind;
use fmbs_core::coop::CooperativeDecoder;
use fmbs_core::modem::frame::{FrameDecoder, FrameEncoder};
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::{FastSim, FAST_AUDIO_RATE};
use fmbs_core::sim::scenario::Scenario;
use fmbs_integration_tests::tone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A frame decoded at the wrong bitrate must not produce a (CRC-valid)
/// frame.
#[test]
fn wrong_bitrate_never_yields_valid_frame() {
    let wave = FrameEncoder::new(FAST_AUDIO_RATE, Bitrate::Kbps1_6).encode(b"hello poster");
    for wrong in [Bitrate::Bps100, Bitrate::Kbps3_2] {
        let out = FrameDecoder::new(FAST_AUDIO_RATE, wrong).decode(&wave);
        assert!(out.is_none(), "decoded at wrong rate {wrong:?}");
    }
}

/// Truncating the frame mid-payload is detected (no partial frame).
#[test]
fn truncated_frame_is_rejected() {
    let wave = FrameEncoder::new(FAST_AUDIO_RATE, Bitrate::Bps100).encode(b"0123456789");
    for keep in [0.3, 0.6, 0.9] {
        let cut = &wave[..(wave.len() as f64 * keep) as usize];
        assert!(
            FrameDecoder::new(FAST_AUDIO_RATE, Bitrate::Bps100)
                .decode(cut)
                .is_none(),
            "accepted a frame truncated to {keep}"
        );
    }
}

/// The cooperative decoder fed two *unrelated* signals must not panic and
/// must not cancel anything useful (gain near the LS projection of noise).
#[test]
fn coop_decoder_survives_unrelated_inputs() {
    let mut rng = StdRng::seed_from_u64(1);
    let a: Vec<f64> = (0..48_000).map(|_| rng.gen::<f64>() - 0.5).collect();
    let b: Vec<f64> = (0..48_000).map(|_| rng.gen::<f64>() - 0.5).collect();
    let dec = CooperativeDecoder::new(FAST_AUDIO_RATE);
    let res = dec.decode(&a, &b);
    assert!(res.payload.iter().all(|x| x.is_finite()));
    // Unrelated inputs ⇒ tiny projection gain.
    assert!(
        res.gain.abs() < 0.2,
        "gain {} on unrelated inputs",
        res.gain
    );
}

/// Degenerate audio inputs (silence, DC, full-scale clipping) never panic
/// any decoder and never produce valid frames.
#[test]
fn degenerate_audio_is_handled() {
    let cases: Vec<Vec<f64>> = vec![
        vec![0.0; 60_000],
        vec![1.0; 60_000],
        (0..60_000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
    ];
    for audio in &cases {
        for rate in Bitrate::ALL {
            assert!(FrameDecoder::new(FAST_AUDIO_RATE, rate)
                .decode(audio)
                .is_none());
        }
        let dec = CooperativeDecoder::new(FAST_AUDIO_RATE);
        let res = dec.decode(audio, audio);
        assert!(res.payload.iter().all(|x| x.is_finite()));
    }
}

/// A link far below threshold produces garbage *bits*, not a hang or a
/// suspiciously clean decode.
#[test]
fn dead_link_yields_chance_level_ber() {
    let s = Scenario::bench(-60.0, 20.0, ProgramKind::RockMusic);
    let bits = fmbs_core::modem::encoder::test_bits(400, 3);
    let ber = FastSim.overlay_data_ber(&s, &bits, Bitrate::Kbps3_2);
    assert!(ber > 0.2, "dead link BER {ber} is implausibly low");
}

/// Payloads containing out-of-range samples are clamped by the baseband
/// builder, not propagated.
#[test]
fn oversized_payload_audio_is_normalised() {
    let builder = fmbs_core::tag::baseband::BasebandBuilder::new(FAST_AUDIO_RATE);
    let loud = tone(1_000.0, 0.1, FAST_AUDIO_RATE, 25.0);
    let bb = builder.overlay_audio(&loud, FAST_AUDIO_RATE, 0.9);
    let peak = bb.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    assert!(
        peak <= 0.9 + 1e-9,
        "peak {peak} exceeds the deviation budget"
    );
}

/// NaN-free guarantee along the whole fast pipeline even at absurd
/// geometries.
#[test]
fn extreme_geometries_stay_finite() {
    for (p, d) in [(-120.0, 500.0), (-5.0, 0.1), (-60.0, 0.5)] {
        let s = Scenario::bench(p, d, ProgramKind::News);
        let out = FastSim.run_payload(&s, &vec![0.5; 4_800], false);
        assert!(
            out.mono.iter().all(|x| x.is_finite()),
            "non-finite audio at {p} dBm / {d} ft"
        );
    }
}

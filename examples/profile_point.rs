//! The repo's one kernel-timing table. It decomposes the cost of one
//! sweep point — the unit of work behind every swept figure — so a
//! change can see where the milliseconds live before and after it,
//! times the receive-side kernels the figures run (FFT pairs, channel
//! filter, ×10 upsampler, Goertzel bank, coop alignment), the two
//! normal samplers' ns per draw, and the network engine's cost per
//! transmission attempt. End-to-end speed is perfbench's to judge.
//!
//! ```sh
//! cargo run --release --example profile_point
//! ```

use fmbs_audio::program::ProgramKind;
use fmbs_channel::noise::fill_gaussian;
use fmbs_channel::pathloss::gaussian;
use fmbs_core::coop::{upsample, CooperativeDecoder};
use fmbs_core::modem::decoder::DataDecoder;
use fmbs_core::modem::encoder::DataEncoder;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::{phone_capture_filter, FastSim, FAST_AUDIO_RATE};
use fmbs_core::sim::physical::{PhysicalSim, PhysicalSimConfig};
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
use fmbs_core::sim::Simulator;
use fmbs_dsp::complex::Complex;
use fmbs_dsp::fft::Fft;
use fmbs_dsp::fir::{DecimatingFir, FirDesign};
use fmbs_dsp::goertzel::GoertzelBank;
use fmbs_dsp::resample::Upsampler;
use fmbs_dsp::windows::Window;
use fmbs_net::prelude::{BerTable, Deployment, NetworkConfig, Receiver, Station, Traffic};
use fmbs_workload::arrivals::TraceSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn main() {
    let s = Scenario::bench(-30.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 200));
    let synth = s.workload.synthesise(FAST_AUDIO_RATE);
    let n = synth.wave.len();
    println!("one sweep point, payload {n} samples:");

    let reps = 50;
    let ms = time_ms(reps, || s.host_audio(FAST_AUDIO_RATE, n));
    println!("  host_audio      {ms:>8.3} ms");
    let ms = time_ms(reps, || s.workload.synthesise(FAST_AUDIO_RATE));
    println!("  synthesise      {ms:>8.3} ms");
    let ms = time_ms(reps, || {
        DataEncoder::new(FAST_AUDIO_RATE, Bitrate::Kbps1_6).encode(&synth.bits)
    });
    println!("  encode          {ms:>8.3} ms");
    let ms = time_ms(reps, phone_capture_filter);
    println!("  filter design   {ms:>8.3} ms");
    let ms = time_ms(reps, || phone_capture_filter().filter_aligned(&synth.wave));
    println!("  capture FIR     {ms:>8.3} ms");
    let ms = time_ms(reps, || FastSim.run_payload(&s, &synth.wave, false));
    println!("  run_payload     {ms:>8.3} ms");
    let out = FastSim.run_payload(&s, &synth.wave, false);
    let ms = time_ms(reps, || {
        DataDecoder::new(FAST_AUDIO_RATE, Bitrate::Kbps1_6).decode(&out.mono, 0, synth.bits.len())
    });
    println!("  decode          {ms:>8.3} ms");

    let psim = PhysicalSim::new(PhysicalSimConfig::bench(-30.0, 4.0));
    let ps =
        Scenario::bench(-30.0, 4.0, ProgramKind::News).with_workload(Workload::tone(1_000.0, 0.3));
    let peak_before = fmbs_obs::peak_rss_mb();
    let ms = time_ms(3, || psim.run(&ps));
    println!("  physical run    {ms:>8.3} ms   (0.3 s tone scenario, full RF chain)");
    if let (Some(before), Some(after)) = (peak_before, fmbs_obs::peak_rss_mb()) {
        println!(
            "  physical peak   {:>8.1} MB   (VmHWM growth over the physical runs)",
            after - before
        );
    }

    println!("receive-side kernels:");
    // A forward and an inverse transform per rep: the PESQ frame (2k),
    // the Welch segment (4k), an `fft_conv` block (16k) and a buffer
    // past the cache (128k).
    for (name, n, reps) in [
        ("2k", 1 << 11, 2_000),
        ("4k", 1 << 12, 1_000),
        ("16k", 1 << 14, 200),
        ("128k", 1 << 17, 20),
    ] {
        let fft = Fft::new(n);
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(i as f64 * 0.1))
            .collect();
        let ms = time_ms(reps, || {
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
        });
        println!("  fft {name:<11} {ms:>8.3} ms   (forward + inverse pair)");
    }
    // The physical tier's channel filter: 0.75 s of IQ at 2.56 MHz,
    // 127 taps, decimated by 10 to the MPX rate, fed as the back end
    // feeds it: 10 ms blocks of 25,600 samples.
    let iq: Vec<Complex> = (0..1_920_000)
        .map(|i| Complex::from_angle(i as f64 * 0.37).scale(0.8))
        .collect();
    let chan = FirDesign {
        taps: 127,
        window: Window::Blackman,
    }
    .lowpass(2_560_000.0, 130_000.0);
    let mut decimated = Vec::with_capacity(iq.len() / 10);
    let ms = time_ms(5, || {
        let mut fir = DecimatingFir::new(chan.taps().to_vec(), 10);
        decimated.clear();
        for block in iq.chunks(25_600) {
            fir.push(block, &mut decimated);
        }
        decimated.len()
    });
    println!(
        "  channel filter  {ms:>8.3} ms   (127 taps, 1.92 M IQ samples in 25.6 k blocks, /10)"
    );
    // The cooperative decoder's x10 upsampler over 2 s of 48 kHz audio.
    let audio: Vec<f64> = (0..96_000).map(|i| (i as f64 * 0.21).sin()).collect();
    let mut up = Upsampler::new(10, 8);
    let ms = time_ms(40, || up.process(&audio));
    println!("  x10 upsampler   {ms:>8.3} ms   (96 k samples)");
    // The FDM receiver's 16-tone bank over 1 s of 200 sym/s windows.
    let tones: Vec<f64> = (1..=16).map(|k| 800.0 * k as f64).collect();
    let bank = GoertzelBank::new(FAST_AUDIO_RATE, &tones);
    let ms = time_ms(20, || {
        audio[..48_000]
            .chunks_exact(240)
            .map(|w| bank.powers(w))
            .collect::<Vec<_>>()
    });
    println!("  goertzel bank   {ms:>8.3} ms   (16 tones, 200 x 240-sample windows)");
    // The cooperative decoder's alignment search, coarse to fine: 1 s of
    // 48 kHz audio per phone (x10 upsampled), lags within ±50 ms.
    let phone1: Vec<f64> = (0..48_000)
        .map(|i| (i as f64 * 0.13).sin() * (i as f64 * 0.0071).cos())
        .collect();
    let phone2: Vec<f64> = (0..48_000)
        .map(|i| phone1[(i + 48_000 - 31) % 48_000])
        .collect();
    let (s1, s2) = (upsample(&phone1), upsample(&phone2));
    let coop = CooperativeDecoder::new(FAST_AUDIO_RATE);
    let ms = time_ms(20, || coop.align([&phone1, &phone2], [&s1, &s2]));
    println!("  coop alignment  {ms:>8.3} ms   (1 s at 48 kHz per phone, ±50 ms lags)");

    println!("normal draws (10^6 standard-normal draws):");
    let draws = 1_000_000;
    let mut rng = StdRng::seed_from_u64(1);
    let ms = time_ms(3, || (0..draws).map(|_| gaussian(&mut rng)).sum::<f64>());
    println!(
        "  gaussian        {:>8.2} ns/draw   (Box-Muller, one per call)",
        ms * 1e6 / draws as f64
    );
    let mut buf = vec![0.0; draws];
    let ms = time_ms(3, || fill_gaussian(&mut rng, &mut buf));
    println!(
        "  fill_gaussian   {:>8.2} ns/draw   (ziggurat, one block)",
        ms * 1e6 / draws as f64
    );

    println!("network engine (one thread, plan built untimed):");
    // A flat link table: these rows time the engine, not calibration.
    let table = Arc::new(BerTable::from_grid(
        vec![-90.0, -20.0],
        vec![1.0, 100.0],
        vec![Bitrate::Kbps1_6],
        vec![1e-4; 4],
    ));
    let (n_tags, n_slots) = (1 << 16, 256);
    let cell = Deployment::city(n_tags)
        .slots(n_slots)
        .link(table.clone())
        .build()
        .expect("a single-cell city is always valid")
        .sim();
    net_row(
        "saturated cell",
        "2^16 tags x 256 slots, one receiver",
        || cell.run_serial().stats.attempts,
    );
    let (n_tags, n_slots) = (100_000, 10_000);
    let trace = TraceSpec {
        n_tags,
        n_slots,
        slot_secs: NetworkConfig::new(n_tags, n_slots).slot_secs(),
        model: ArrivalModel::Poisson,
        offered_load: 1e-4,
        profile: AppProfile::SensorBeacon,
        seed: 7,
    }
    .generate();
    let metro = Deployment::city(n_tags)
        .slots(n_slots)
        .work_budget(n_tags as u64 * n_slots)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
        .traffic(Traffic::Trace(Arc::new(trace)))
        .link(table)
        .build()
        .expect("a 4x4 metro city is valid")
        .sim();
    net_row(
        "metro trace",
        "10^5 tags x 10^4 slots, 4x4 cells, Poisson 1e-4",
        || metro.run_serial().stats.attempts,
    );
}

/// Prints the time per attempt over three runs of `run`, which returns
/// the attempts it made.
fn net_row(name: &str, what: &str, mut run: impl FnMut() -> u64) {
    let reps = 3;
    let t = Instant::now();
    let attempts: u64 = (0..reps).map(|_| run()).sum();
    let secs = t.elapsed().as_secs_f64();
    println!(
        "  {name:<15} {:>8.1} ns/attempt   ({:.1} ms and {} attempts per run; {what})",
        secs * 1e9 / attempts.max(1) as f64,
        secs * 1e3 / reps as f64,
        attempts / reps
    );
}

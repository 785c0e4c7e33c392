//! Cross-crate property-based tests (proptest) on system invariants.

use fmbs_audio::program::ProgramKind;
use fmbs_channel::units::{Db, Dbm};
use fmbs_core::modem::decoder::DataDecoder;
use fmbs_core::modem::encoder::DataEncoder;
use fmbs_core::modem::frame::{crc16, FrameDecoder, FrameEncoder};
use fmbs_core::modem::{bit_error_rate, Bitrate};
use fmbs_core::sim::scenario::Scenario;
use proptest::prelude::*;

const FS: f64 = 48_000.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bit pattern round-trips through any rate's encoder/decoder on
    /// a clean channel.
    #[test]
    fn modem_round_trip(bits in prop::collection::vec(any::<bool>(), 8..96),
                        rate_idx in 0usize..3) {
        let rate = Bitrate::ALL[rate_idx];
        let wave = DataEncoder::new(FS, rate).encode(&bits);
        let rx = DataDecoder::new(FS, rate).decode(&wave, 0, bits.len());
        prop_assert_eq!(bit_error_rate(&bits, &rx), 0.0);
    }

    /// Any payload round-trips through the frame layer.
    #[test]
    fn frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..40)) {
        let wave = FrameEncoder::new(FS, Bitrate::Kbps3_2).encode(&payload);
        let frame = FrameDecoder::new(FS, Bitrate::Kbps3_2).decode(&wave);
        prop_assert!(frame.is_some());
        prop_assert_eq!(&frame.unwrap().payload[..], &payload[..]);
    }

    /// CRC-16 detects any single-byte corruption.
    #[test]
    fn crc_detects_single_byte_change(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        idx in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let mut corrupted = payload.clone();
        let i = idx.index(corrupted.len());
        corrupted[i] ^= delta;
        prop_assert_ne!(crc16(&payload), crc16(&corrupted));
    }

    /// Link-budget algebra: adding gain to the ambient power moves the
    /// backscatter power by exactly that gain.
    #[test]
    fn budget_linearity(p in -70.0f64..-10.0, boost in 0.0f64..20.0, d in 2.0f64..40.0) {
        use fmbs_channel::backscatter_link::BackscatterLink;
        let base = BackscatterLink::smartphone(Dbm(p)).budget_at_feet(d);
        let boosted = BackscatterLink::smartphone(Dbm(p + boost)).budget_at_feet(d);
        let diff = boosted.backscatter_at_rx - base.backscatter_at_rx;
        prop_assert!((diff - Db(boost)).0.abs() < 1e-9);
    }

    /// dBm/linear conversions round-trip across the whole usable range.
    #[test]
    fn units_round_trip(p in -120.0f64..30.0) {
        let mw = Dbm(p).to_milliwatts();
        prop_assert!((Dbm::from_milliwatts(mw).0 - p).abs() < 1e-9);
    }

    /// MRC combining N identical recordings scales amplitude by exactly N.
    #[test]
    fn mrc_amplitude_scaling(
        sig in prop::collection::vec(-1.0f64..1.0, 16..128),
        n in 1usize..5,
    ) {
        let recs: Vec<Vec<f64>> = (0..n).map(|_| sig.clone()).collect();
        let combined = fmbs_core::modem::mrc::combine(&recs);
        for (c, s) in combined.iter().zip(sig.iter()) {
            prop_assert!((c - n as f64 * s).abs() < 1e-9);
        }
    }

    /// The IC power model is monotone in frequency and duty cycle and
    /// never drops below the baseband floor.
    #[test]
    fn power_model_monotone(f in 100_000.0f64..1_000_000.0, duty in 0.01f64..1.0) {
        use fmbs_core::power::{IcPowerModel, PAPER_OPERATING_POINT};
        let m = IcPowerModel { f_back_hz: f, duty_cycle: duty, ..PAPER_OPERATING_POINT };
        let faster = IcPowerModel { f_back_hz: f * 1.5, duty_cycle: duty, ..PAPER_OPERATING_POINT };
        prop_assert!(faster.total_uw() > m.total_uw());
        prop_assert!(m.total_uw() > 0.0);
        let full = IcPowerModel { f_back_hz: f, duty_cycle: 1.0, ..PAPER_OPERATING_POINT };
        prop_assert!(m.total_uw() <= full.total_uw() + 1e-12);
    }

    /// A `Scenario` — workload included — survives a serde JSON round
    /// trip exactly (the sweep engine relies on scenarios being a
    /// complete, serialisable description of an experiment point).
    #[test]
    fn scenario_serde_round_trip(
        p in -70.0f64..-10.0,
        d in 0.5f64..100.0,
        seed in any::<u64>(),
        kind in 0usize..5,
        rx_car in any::<bool>(),
        fabric in any::<bool>(),
        payload_seed in any::<u64>(),
        n_bits in 1u32..5_000,
    ) {
        use fmbs_core::modem::Bitrate;
        use fmbs_core::sim::scenario::{ReceiverKind, TagKind, Workload};
        let workload = match kind {
            0 => Workload::silence(0.25),
            1 => Workload::tone(12_345.5, 0.5),
            2 => Workload::Data {
                bitrate: Bitrate::Kbps3_2,
                n_bits,
                stereo_band: rx_car,
                payload_seed,
            },
            3 => Workload::speech(1.5).with_payload_seed(payload_seed),
            _ => Workload::coop_audio(2.0).with_payload_seed(payload_seed),
        };
        let mut s = Scenario::bench(p, d, ProgramKind::RockMusic)
            .with_seed(seed)
            .with_workload(workload);
        if rx_car {
            s.receiver = ReceiverKind::Car;
        }
        if fabric {
            s.tag = TagKind::SmartFabric;
        }
        // The PR-3 network axes are part of the scenario and must
        // round-trip with everything else.
        s.f_back_hz = 200_000.0 + (seed % 5) as f64 * 200_000.0;
        s.mrc_depth = 1 + (seed % 4) as u32;
        s.mac_slots = 1 + (payload_seed % 10_000) as u32;
        s.n_tags = 1 + (payload_seed % 5_000) as u32;
        // Likewise the PR-6 workload axes.
        {
            use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
            s.arrival_model = [
                ArrivalModel::Saturated,
                ArrivalModel::Poisson,
                ArrivalModel::Diurnal,
                ArrivalModel::Mmpp,
            ][(seed % 4) as usize];
            s.offered_load = (payload_seed % 100) as f64 / 1_000.0;
            s.app_profile = [
                AppProfile::SensorBeacon,
                AppProfile::TalkingPoster,
                AppProfile::FabricTelemetry,
            ][(payload_seed % 3) as usize];
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, s);
        // Pretty output parses identically too.
        let pretty = serde_json::to_string_pretty(&s).unwrap();
        let back2: Scenario = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(back2, s);
    }

    /// Overlap-save FFT convolution matches the direct-form FIR within
    /// 1e-9 across random tap counts and signal lengths.
    #[test]
    fn overlap_save_matches_direct_fir(
        taps in prop::collection::vec(-1.0f64..1.0, 1..350),
        sig in prop::collection::vec(-1.0f64..1.0, 1..1_500),
    ) {
        use fmbs_dsp::fftconv::OverlapSave;
        use fmbs_dsp::fir::Fir;
        let mut direct = Fir::new(taps.clone());
        let mut fast = OverlapSave::new(&taps);
        let yd = direct.process(&sig);
        let yf = fast.process(&sig);
        prop_assert_eq!(yd.len(), yf.len());
        for (a, b) in yd.iter().zip(&yf) {
            prop_assert!((a - b).abs() < 1e-9, "direct {} vs fft {}", a, b);
        }
    }

    /// Overlap-save streaming state is exact: chopping the signal into
    /// arbitrary chunks (including sizes straddling the engine's block
    /// length) produces the same output as one whole-buffer call.
    #[test]
    fn overlap_save_streaming_chunks_are_exact(
        taps in prop::collection::vec(-1.0f64..1.0, 2..200),
        sig in prop::collection::vec(-1.0f64..1.0, 64..2_000),
        chunk in 1usize..700,
    ) {
        use fmbs_dsp::fftconv::OverlapSave;
        let mut one_shot = OverlapSave::new(&taps);
        let mut streamed = OverlapSave::new(&taps);
        let y1 = one_shot.process(&sig);
        let mut y2 = Vec::new();
        for c in sig.chunks(chunk) {
            y2.extend(streamed.process(c));
        }
        prop_assert_eq!(y1.len(), y2.len());
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// `Fir::filter_aligned`'s direct-vs-FFT crossover is invisible:
    /// whatever form the heuristic picks agrees with the always-direct
    /// reference within 1e-9.
    #[test]
    fn filter_aligned_form_choice_is_invisible(
        n_taps in 1usize..340,
        sig in prop::collection::vec(-1.0f64..1.0, 1..1_200),
    ) {
        use fmbs_dsp::fir::FirDesign;
        use fmbs_dsp::windows::Window;
        let design = FirDesign { taps: n_taps, window: Window::Hamming }
            .lowpass(48_000.0, 9_000.0);
        let auto = design.clone().filter_aligned(&sig);
        let direct = design.clone().filter_aligned_direct(&sig);
        prop_assert_eq!(auto.len(), direct.len());
        for (a, b) in auto.iter().zip(&direct) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Slotted Aloha (§8): outcome counts always account for every
    /// slot, same-seed runs are identical, and measured throughput
    /// never beats the theoretical `N·p·(1−p)^{N−1}` bound by more than
    /// sampling noise (the success count is Binomial(n_slots, S), so a
    /// 5-sigma allowance bounds the false-failure rate well below the
    /// suite's lifetime).
    #[test]
    fn slotted_aloha_bound_counts_and_determinism(
        n_tags in 1usize..40,
        p in 0.005f64..0.95,
        seed in any::<u64>(),
    ) {
        use fmbs_core::mac::SlottedAloha;
        let n_slots = 4_000;
        let sim = SlottedAloha { n_tags, tx_probability: p, n_slots, seed };
        let out = sim.run();
        prop_assert_eq!(out.successes + out.collisions + out.idle, n_slots);
        prop_assert_eq!(out, sim.run());
        let bound = sim.theoretical_throughput();
        let sigma = (bound * (1.0 - bound) / n_slots as f64).sqrt();
        prop_assert!(
            out.throughput() <= bound + 5.0 * sigma + 1e-9,
            "throughput {} above bound {} + noise {}",
            out.throughput(),
            bound,
            5.0 * sigma
        );
    }

    /// The sweep engine's parallel execution is bit-identical to serial
    /// for any thread count and grid shape (deterministic per-point
    /// seeding makes scheduling irrelevant).
    #[test]
    fn sweep_parallel_equals_serial(
        threads in 2usize..6,
        n_powers in 1usize..3,
        n_dists in 1usize..3,
        repeats in 1usize..3,
    ) {
        use fmbs_core::modem::Bitrate;
        use fmbs_core::sim::fast::FastSim;
        use fmbs_core::sim::metric::Ber;
        use fmbs_core::sim::scenario::Workload;
        use fmbs_core::sim::sweep::SweepBuilder;
        let base = Scenario::bench(-40.0, 4.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps3_2, 60));
        let sweep = SweepBuilder::new(base)
            .powers_dbm((0..n_powers).map(|i| -30.0 - 10.0 * i as f64))
            .distances_ft((0..n_dists).map(|i| 4.0 + 6.0 * i as f64))
            .repeats(repeats);
        let serial = sweep.run_serial(&FastSim, &Ber::default());
        let parallel = sweep.clone().threads(threads).run(&FastSim, &Ber::default());
        prop_assert_eq!(serial.points.len(), n_powers * n_dists * repeats);
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            prop_assert_eq!(s.value.to_bits(), p.value.to_bits());
        }
    }

    /// Observability is semantically invisible on the sweep engine:
    /// installing a span-recording collector around a sweep — serial or
    /// parallel — leaves every point bit-identical to an unprofiled
    /// run, while the collector really does fill with stage data (the
    /// no-op path must not silently extend to the installed path).
    #[test]
    fn sweep_observability_is_invisible(
        threads in 2usize..6,
        n_powers in 1usize..3,
        repeats in 1usize..3,
    ) {
        use fmbs_core::modem::Bitrate;
        use fmbs_core::sim::fast::FastSim;
        use fmbs_core::sim::metric::Ber;
        use fmbs_core::sim::scenario::Workload;
        use fmbs_core::sim::sweep::SweepBuilder;
        let base = Scenario::bench(-40.0, 4.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps3_2, 60));
        let sweep = SweepBuilder::new(base)
            .powers_dbm((0..n_powers).map(|i| -30.0 - 10.0 * i as f64))
            .repeats(repeats);
        let plain_serial = sweep.run_serial(&FastSim, &Ber::default());
        let plain_parallel = sweep.clone().threads(threads).run(&FastSim, &Ber::default());
        let obs = fmbs_obs::Collector::with_spans(1 << 14);
        let (prof_serial, prof_parallel) = {
            let _g = fmbs_obs::install(Some(obs.clone()));
            (
                sweep.run_serial(&FastSim, &Ber::default()),
                sweep.clone().threads(threads).run(&FastSim, &Ber::default()),
            )
        };
        for (a, b) in plain_serial.points.iter().zip(&prof_serial.points) {
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        for (a, b) in plain_parallel.points.iter().zip(&prof_parallel.points) {
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        prop_assert_eq!(plain_serial.cache, prof_serial.cache);
        // The collector listened: both runs' sweep points were staged,
        // and cache counters mirror the profiled runs' serialized stats
        // (parallel miss counts are racy — concurrent workers may both
        // miss one key — so only the profiled runs' own totals match).
        let stages: std::collections::BTreeMap<_, _> =
            obs.stage_stats().into_iter().collect();
        let expected = 2 * plain_serial.points.len() as u64;
        prop_assert_eq!(stages[fmbs_obs::stages::SWEEP_POINT].calls, expected);
        prop_assert_eq!(
            obs.counter_value("cache.host_misses") as usize,
            prof_serial.cache.host_misses + prof_parallel.cache.host_misses
        );
    }

    /// Trace generation (§8 workload tier) is a pure function of its
    /// spec: the same seed reproduces the trace bit-for-bit, a
    /// different seed moves the arrivals, and every arrival respects
    /// the spec's horizon and ordering.
    #[test]
    fn workload_trace_same_seed_bit_identical(
        n_tags in 2usize..48,
        n_slots in 100u64..600,
        load in 0.01f64..0.12,
        model_idx in 0usize..3,
        profile_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
        use fmbs_workload::arrivals::TraceSpec;
        let spec = TraceSpec {
            n_tags,
            n_slots,
            slot_secs: 0.08,
            model: [ArrivalModel::Poisson, ArrivalModel::Diurnal, ArrivalModel::Mmpp][model_idx],
            offered_load: load,
            profile: [
                AppProfile::SensorBeacon,
                AppProfile::TalkingPoster,
                AppProfile::FabricTelemetry,
            ][profile_idx],
            seed,
        };
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.n_tags(), n_tags);
        for tag in a.queues() {
            for w in tag.windows(2) {
                prop_assert!(w[0].slot <= w[1].slot);
            }
            for arr in tag {
                prop_assert!(arr.slot < n_slots);
                prop_assert!(arr.deadline_slots >= 1);
            }
        }
        if a.offered() > 0 {
            let other = TraceSpec { seed: seed ^ 0x9E37_79B9, ..spec }.generate();
            prop_assert_ne!(&a, &other);
        }
    }

    /// RDS blocks round-trip for arbitrary information words.
    #[test]
    fn rds_block_round_trip(info in any::<u16>(), pos in 0usize..4) {
        use fmbs_fm::rds::{decode_block, encode_block};
        prop_assert_eq!(decode_block(encode_block(info, pos), pos), Some(info));
    }

    /// FM modulate→demodulate is transparent for arbitrary band-limited
    /// baseband content (random low-order Fourier series).
    #[test]
    fn fm_transparency(coeffs in prop::collection::vec(-0.3f64..0.3, 1..6)) {
        use fmbs_fm::demodulator::Discriminator;
        use fmbs_fm::modulator::FmModulator;
        let fs = 500_000.0;
        let n = 5_000;
        let baseband: Vec<f64> = (0..n)
            .map(|i| {
                coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, c)| c * (fmbs_dsp::TAU * (k + 1) as f64 * 500.0 * i as f64 / fs).sin())
                    .sum()
            })
            .collect();
        let mut m = FmModulator::new(fs, 0.0, 75_000.0);
        let mut d = Discriminator::new(fs, 75_000.0);
        let iq = m.process(&baseband);
        let out = d.process(&iq);
        for i in 1..n {
            prop_assert!((out[i] - baseband[i - 1]).abs() < 1e-6);
        }
    }
}

// Physical-tier sweeps are orders of magnitude slower per point than the
// fast tier's, so their engine-invariant properties run in a separate
// block with a small case count (each case already exercises three full
// sweep executions).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Physical-tier sweeps hold the same engine invariants the fast
    /// tier is property-tested for: parallel execution is bit-identical
    /// to serial, and the sweep cache — including the physical RF
    /// front-end memoisation — is semantically invisible
    /// (`.cache(false)` bit-identical) while actually engaging (grid
    /// points sharing a programme realisation share one front end).
    #[test]
    fn physical_sweep_parallel_serial_and_cache_invisible(
        threads in 2usize..5,
        distance in 3.0f64..9.0,
        repeats in 1usize..3,
    ) {
        use fmbs_core::sim::metric::ToneSnr;
        use fmbs_core::sim::scenario::Workload;
        use fmbs_core::sim::sweep::SweepBuilder;
        use fmbs_core::sim::Tier;
        let physical = Tier::Physical.simulator();
        let base = Scenario::bench(-30.0, distance, ProgramKind::News)
            .with_workload(Workload::tone(2_000.0, 0.05));
        let sweep = SweepBuilder::new(base)
            .powers_dbm([-30.0, -50.0])
            .repeats(repeats);
        let metric = ToneSnr::default();
        let serial = sweep.run_serial(physical, &metric);
        let parallel = sweep.clone().threads(threads).run(physical, &metric);
        let uncached = sweep.clone().cache(false).run_serial(physical, &metric);
        prop_assert_eq!(serial.points.len(), 2 * repeats);
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            prop_assert_eq!(s.coords, p.coords);
            prop_assert_eq!(s.value.to_bits(), p.value.to_bits());
        }
        for (s, u) in serial.points.iter().zip(&uncached.points) {
            prop_assert_eq!(s.value.to_bits(), u.value.to_bits());
        }
        // Both powers of one repetition share (programme, payload,
        // f_back), so the expensive front end derives once per
        // repetition and hits thereafter; a disabled cache reports
        // nothing.
        prop_assert_eq!(serial.cache.front_end_misses, repeats);
        prop_assert_eq!(serial.cache.front_end_hits, repeats);
        prop_assert_eq!(uncached.cache, Default::default());
        // Observability on the physical tier is equally invisible: a
        // profiled serial run is bit-identical, and the collector saw
        // the RF front end, the back end and the receiver run.
        let obs = fmbs_obs::Collector::new();
        let profiled = {
            let _g = fmbs_obs::install(Some(obs.clone()));
            sweep.run_serial(physical, &metric)
        };
        for (s, p) in serial.points.iter().zip(&profiled.points) {
            prop_assert_eq!(s.value.to_bits(), p.value.to_bits());
        }
        prop_assert_eq!(
            obs.counter_value("cache.front_end_misses") as usize,
            repeats
        );
        let stages: Vec<&str> = obs.stage_stats().iter().map(|(n, _)| *n).collect();
        for stage in [
            fmbs_obs::stages::RF_FRONT_END,
            fmbs_obs::stages::RF_BACK_END,
            fmbs_obs::stages::FM_RECEIVE,
            fmbs_obs::stages::NOISE_DRAWS,
        ] {
            prop_assert!(stages.contains(&stage), "no {} stage", stage);
        }
        // Each point's back end records its thermal noise draws as one
        // call, however many 10 ms blocks it fills.
        let stats: std::collections::BTreeMap<_, _> = obs.stage_stats().into_iter().collect();
        prop_assert_eq!(
            stats[fmbs_obs::stages::NOISE_DRAWS].calls,
            stats[fmbs_obs::stages::RF_BACK_END].calls
        );
    }
}

/// One quick-calibrated link table shared by the workload-tier property
/// tests below (calibration is deterministic, so sharing is invisible).
fn shared_ber_table() -> std::sync::Arc<fmbs_net::prelude::BerTable> {
    use fmbs_core::sim::fast::FastSim;
    use fmbs_net::prelude::{BerTable, BerTableSpec};
    static TABLE: std::sync::OnceLock<std::sync::Arc<BerTable>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| std::sync::Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick())))
        .clone()
}

// Workload-tier runs execute the full queued discrete-event engine per
// case, so a smaller case count keeps the suite fast.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Queue conservation through policy and engine: every packet a tag
    /// ever offered is delivered, shed by admission, dropped expired,
    /// or still queued when the horizon ends — under every arrival
    /// model and admission policy.
    #[test]
    fn workload_queue_conservation(
        n_tags in 2u32..120,
        mac_slots in 100u32..700,
        load in 0.005f64..0.15,
        model_idx in 0usize..3,
        profile_idx in 0usize..3,
        policy_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        use fmbs_core::modem::Bitrate;
        use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Workload};
        use fmbs_net::prelude::Deployment;
        use fmbs_workload::prelude::{Policy, WorkloadSpec};
        let model =
            [ArrivalModel::Poisson, ArrivalModel::Diurnal, ArrivalModel::Mmpp][model_idx];
        let profile = [
            AppProfile::SensorBeacon,
            AppProfile::TalkingPoster,
            AppProfile::FabricTelemetry,
        ][profile_idx];
        let policy = [
            Policy::AdmitAll,
            Policy::RateCap { max_load: load / 2.0 },
            Policy::DeadlineAware,
        ][policy_idx];
        let mut s = Scenario::bench(-40.0, 16.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
            .with_seed(seed)
            .with_traffic(model, load, profile);
        s.n_tags = n_tags;
        s.mac_slots = mac_slots;
        let stats = WorkloadSpec::new(Deployment::city(1).link(shared_ber_table()))
            .with_policy(policy)
            .run(&s);
        prop_assert!(stats.conserved(), "{:?}", stats);
        prop_assert_eq!(
            stats.net.offered + stats.admission_shed,
            stats.offered_raw
        );
    }

    /// Workload sweeps inherit the engine's determinism: parallel
    /// execution over the new arrival-model and offered-load axes is
    /// bit-identical to serial.
    #[test]
    fn workload_sweep_parallel_equals_serial(
        threads in 2usize..6,
        n_tags in 4u32..64,
        seed in any::<u64>(),
    ) {
        use fmbs_core::modem::Bitrate;
        use fmbs_core::sim::fast::FastSim;
        use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Workload};
        use fmbs_core::sim::sweep::SweepBuilder;
        use fmbs_net::prelude::Deployment;
        use fmbs_workload::prelude::{DeadlineMissRate, WorkloadSpec};
        let mut base = Scenario::bench(-40.0, 16.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
            .with_seed(seed);
        base.n_tags = n_tags;
        base.mac_slots = 300;
        let metric = DeadlineMissRate(WorkloadSpec::new(Deployment::city(1).link(shared_ber_table())));
        let sweep = SweepBuilder::new(base)
            .arrival_models([ArrivalModel::Poisson, ArrivalModel::Mmpp])
            .offered_loads([0.01, 0.05])
            .app_profiles([AppProfile::SensorBeacon, AppProfile::FabricTelemetry]);
        let serial = sweep.run_serial(&FastSim, &metric);
        let parallel = sweep.clone().threads(threads).run(&FastSim, &metric);
        prop_assert_eq!(serial.points.len(), 2 * 2 * 2);
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            prop_assert_eq!(s.coords, p.coords);
            prop_assert_eq!(s.value.to_bits(), p.value.to_bits());
        }
    }
}

/// One random fault plan exercising the kind picked by `kind_idx`
/// (outage, brownout, burst or reset), with window lengths and
/// intensities drawn from the supplied knobs.
fn chaos_fault_spec(
    kind_idx: usize,
    fault_seed: u64,
    n: u32,
    len: u32,
    level: f64,
) -> fmbs_net::prelude::FaultSpec {
    use fmbs_net::prelude::FaultSpec;
    let base = FaultSpec::none().with_seed(fault_seed);
    match kind_idx {
        0 => base.with_outages(n, len),
        1 => base.with_brownouts(n, len, level),
        2 => base.with_bursts(n, len, level / 2.0),
        _ => base.with_resets(n * 8),
    }
}

/// A workload scenario shared by the chaos properties below.
fn chaos_scenario(n_tags: u32, mac_slots: u32, load: f64, seed: u64) -> Scenario {
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Workload};
    let mut s = Scenario::bench(-40.0, 16.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
        .with_seed(seed)
        .with_traffic(ArrivalModel::Poisson, load, AppProfile::SensorBeacon);
    s.n_tags = n_tags;
    s.mac_slots = mac_slots;
    s
}

// Chaos suite (§PR-7): the queued engine under fault injection and ARQ
// must keep every invariant the fault-free engine holds. Each case runs
// the full discrete-event engine several times, so the case count stays
// small; CI elevates it via `PROPTEST_CASES`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Queue conservation survives every fault kind crossed with every
    /// admission policy, with and without ARQ: offered packets are
    /// always exactly partitioned into delivered, shed, expired,
    /// abandoned and still-queued.
    #[test]
    fn chaos_queue_conservation(
        n_tags in 2u32..100,
        mac_slots in 120u32..600,
        load in 0.005f64..0.12,
        kind_idx in 0usize..4,
        policy_idx in 0usize..3,
        arq_on in any::<bool>(),
        n_faults in 1u32..4,
        fault_len in 10u32..200,
        level in 0.05f64..0.9,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_net::prelude::{ArqConfig, Deployment};
        use fmbs_workload::prelude::{Policy, WorkloadSpec};
        let policy = [
            Policy::AdmitAll,
            Policy::RateCap { max_load: load / 2.0 },
            Policy::DeadlineAware,
        ][policy_idx];
        // A sweep point rejects a fault window longer than its horizon,
        // so pass the length the schedule clamps it to: the same schedule.
        let fault_len = fault_len.min(mac_slots);
        let mut net = Deployment::city(1).link(shared_ber_table())
            .faults(chaos_fault_spec(kind_idx, fault_seed, n_faults, fault_len, level));
        if arq_on {
            net = net.arq(ArqConfig::default());
        }
        let stats = WorkloadSpec::new(net)
            .with_policy(policy)
            .run(&chaos_scenario(n_tags, mac_slots, load, seed));
        prop_assert!(stats.conserved(), "{:?}", stats);
        prop_assert!(stats.net.queue_conserved(), "{:?}", stats.net);
        prop_assert_eq!(stats.net.offered + stats.admission_shed, stats.offered_raw);
    }

    /// Fault injection is deterministic end to end: the same scenario
    /// seed and the same fault seed reproduce the run bit-for-bit,
    /// ARQ included.
    #[test]
    fn chaos_same_seed_bit_identical(
        n_tags in 2u32..64,
        kind_idx in 0usize..4,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_net::prelude::{ArqConfig, Deployment};
        use fmbs_workload::prelude::WorkloadSpec;
        let spec = WorkloadSpec::new(
            Deployment::city(1).link(shared_ber_table())
                .faults(chaos_fault_spec(kind_idx, fault_seed, 2, 80, 0.3))
                .arq(ArqConfig::default()),
        );
        let s = chaos_scenario(n_tags, 300, 0.04, seed);
        let a = spec.run(&s);
        let b = spec.run(&s);
        prop_assert_eq!(format!("{:?}", a), format!("{:?}", b));
    }

    /// Faulted sweeps inherit the engine's scheduling independence:
    /// parallel delivery-ratio sweeps are bit-identical to serial.
    #[test]
    fn chaos_sweep_parallel_equals_serial(
        threads in 2usize..6,
        n_tags in 4u32..48,
        kind_idx in 0usize..4,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_core::sim::fast::FastSim;
        use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
        use fmbs_core::sim::sweep::SweepBuilder;
        use fmbs_net::prelude::{ArqConfig, Deployment};
        use fmbs_workload::prelude::{DeliveryRatio, WorkloadSpec};
        let metric = DeliveryRatio(WorkloadSpec::new(
            Deployment::city(1).link(shared_ber_table())
                .faults(chaos_fault_spec(kind_idx, fault_seed, 2, 60, 0.4))
                .arq(ArqConfig::default()),
        ));
        let sweep = SweepBuilder::new(chaos_scenario(n_tags, 250, 0.03, seed))
            .arrival_models([ArrivalModel::Poisson, ArrivalModel::Mmpp])
            .app_profiles([AppProfile::SensorBeacon, AppProfile::TalkingPoster]);
        let serial = sweep.run_serial(&FastSim, &metric);
        let parallel = sweep.clone().threads(threads).run(&FastSim, &metric);
        prop_assert_eq!(serial.points.len(), 2 * 2);
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            prop_assert_eq!(s.coords, p.coords);
            prop_assert_eq!(s.value.to_bits(), p.value.to_bits());
        }
    }

    /// A fault spec with all counts at zero is invisible: whatever its
    /// seed, the run is bit-identical to one with no spec at all (the
    /// fault layer must not perturb the engine's RNG draw order).
    #[test]
    fn chaos_zero_fault_invisibility(
        n_tags in 2u32..64,
        arq_on in any::<bool>(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_net::prelude::{ArqConfig, Deployment, FaultSpec};
        use fmbs_workload::prelude::WorkloadSpec;
        let mk = |net: Deployment| {
            let net = if arq_on { net.arq(ArqConfig::default()) } else { net };
            WorkloadSpec::new(net)
        };
        let s = chaos_scenario(n_tags, 300, 0.04, seed);
        let plain = mk(Deployment::city(1).link(shared_ber_table())).run(&s);
        let zeroed = mk(Deployment::city(1).link(shared_ber_table())
            .faults(FaultSpec::none().with_seed(fault_seed)))
            .run(&s);
        prop_assert_eq!(format!("{:?}", plain), format!("{:?}", zeroed));
    }

    /// Observability is invisible to the queued engine under its most
    /// eventful configurations: saturated, traced and faulted runs
    /// (ARQ on or off) are bit-identical — statistics *and* the
    /// slot-level event trace — with a span-recording collector
    /// installed, while the collector fills with engine stages.
    #[test]
    fn chaos_observability_is_invisible(
        n_tags in 2u32..64,
        kind_idx in 0usize..4,
        model_idx in 0usize..3,
        arq_on in any::<bool>(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_core::sim::scenario::ArrivalModel;
        use fmbs_net::prelude::{ArqConfig, Deployment};
        use fmbs_workload::prelude::WorkloadSpec;
        let mut net = Deployment::city(1).link(shared_ber_table())
            .faults(chaos_fault_spec(kind_idx, fault_seed, 2, 80, 0.3));
        if arq_on {
            net = net.arq(ArqConfig::default());
        }
        let spec = WorkloadSpec::new(net);
        let mut s = chaos_scenario(n_tags, 300, 0.05, seed);
        s.arrival_model =
            [ArrivalModel::Poisson, ArrivalModel::Saturated, ArrivalModel::Mmpp][model_idx];
        let (plain_stats, plain_trace) = spec.run_traced(&s, true);
        let obs = fmbs_obs::Collector::with_spans(1 << 14);
        let (prof_stats, prof_trace) = {
            let _g = fmbs_obs::install(Some(obs.clone()));
            spec.run_traced(&s, true)
        };
        prop_assert_eq!(
            format!("{:?}", plain_stats),
            format!("{:?}", prof_stats)
        );
        prop_assert_eq!(plain_trace.events, prof_trace.events);
        prop_assert_eq!(plain_trace.dropped(), prof_trace.dropped());
        let stages: Vec<&str> = obs.stage_stats().iter().map(|(n, _)| *n).collect();
        prop_assert!(stages.contains(&fmbs_obs::stages::NET_ENGINE));
        prop_assert!(stages.contains(&fmbs_obs::stages::FAULT_SCHEDULE));
    }

    /// Fault schedules are a pure function of their spec: the same spec
    /// regenerates identically, every window lies inside the horizon,
    /// and every reset names a real tag.
    #[test]
    fn chaos_schedule_is_pure_and_in_bounds(
        n_slots in 50u64..2_000,
        n_tags in 1usize..200,
        kind_idx in 0usize..4,
        n_faults in 1u32..6,
        fault_len in 1u32..400,
        level in 0.01f64..0.99,
        fault_seed in any::<u64>(),
    ) {
        let spec = chaos_fault_spec(kind_idx, fault_seed, n_faults, fault_len, level);
        let a = spec.schedule(n_slots, n_tags);
        let b = spec.schedule(n_slots, n_tags);
        prop_assert_eq!(format!("{:?}", a), format!("{:?}", b));
        prop_assert!(!a.is_empty());
        for w in a.outages.iter().chain(&a.brownouts).chain(&a.bursts) {
            prop_assert!(w.start < w.end, "{:?}", w);
            prop_assert!(w.end <= n_slots, "{:?} beyond horizon {}", w, n_slots);
        }
        for &(slot, tag) in &a.resets {
            prop_assert!(slot < n_slots);
            prop_assert!((tag as usize) < n_tags);
        }
    }
}

// Metro suite (§PR-9): the sharded multi-receiver engine behind the
// `Deployment` builder. Partition totality and capture monotonicity are
// cheap; the scale identity test below (outside proptest) carries the
// million-tag acceptance bar.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every tag lands in exactly one collision domain — partition
    /// totality over random receiver grids, pitches, placement models
    /// and seeds — and the per-domain columns stay aligned.
    #[test]
    fn metro_partition_totality(
        n_tags in 1usize..400,
        nx in 1usize..4,
        ny in 1usize..4,
        pitch in 30.0f64..120.0,
        clustered in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use fmbs_net::prelude::{Deployment, Placement, Receiver};
        let mut d = Deployment::city(n_tags)
            .slots(10)
            .seed(seed)
            .receivers(Receiver::grid(nx, ny, pitch));
        if clustered {
            d = d.placement(Placement::ClusteredHotspots { spread_ft: 15.0 });
        }
        let plan = d.build();
        prop_assert!(plan.is_ok(), "{:?}", plan.err());
        let plan = plan.unwrap();
        prop_assert_eq!(plan.domains().len(), nx * ny);
        let mut owners = vec![0u32; n_tags];
        for dom in plan.domains() {
            prop_assert_eq!(dom.tags.len(), dom.sites.len());
            prop_assert_eq!(dom.tags.len(), dom.rx_dbm.len());
            for &t in &dom.tags {
                owners[t as usize] += 1;
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "{owners:?}");
    }

    /// Capture-margin monotonicity: raising the margin never *creates*
    /// a winner — whenever the higher margin still elects one, it is the
    /// very tag the lower margin elects, and it is the strongest
    /// contender. So per slot, raising the margin can only move tags
    /// from "captured" back to "collided", never the reverse.
    #[test]
    fn metro_capture_margin_monotone(
        rx in prop::collection::vec(-90.0f64..-30.0, 2..24),
        m1 in 0.0f64..12.0,
        dm in 0.0f64..12.0,
    ) {
        use fmbs_net::prelude::capture_winner;
        let attempts: Vec<u32> = (0..rx.len() as u32).collect();
        let low = capture_winner(&attempts, &rx, m1);
        let high = capture_winner(&attempts, &rx, m1 + dm);
        if let Some(w) = high {
            prop_assert_eq!(low, Some(w));
            prop_assert!(rx.iter().all(|&p| rx[w as usize] >= p));
        }
        // A single attempt is a solo transmission, not a capture.
        prop_assert_eq!(capture_winner(&attempts[..1], &rx, m1), None);
    }

    /// The net engine's calendar queue hands out events in the order of
    /// a binary heap keyed on (slot, push counter, tag), over random
    /// interleavings of pushes and slot drains: horizons far longer than
    /// the ring (events wait in the overflow heap and move into the
    /// ring), long empty stretches, pushes at either side of the
    /// window's edge and into the slot just drained, and takes of a
    /// slot that is not the head.
    #[test]
    fn metro_event_queue_matches_heap_order(
        n_tags in 1usize..5_000,
        horizon_log2 in 0u32..40,
        ops in prop::collection::vec(any::<u64>(), 1..4_000),
    ) {
        use fmbs_net::prelude::EventQueue;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let horizon = 1u64 << horizon_log2;
        let mut q = EventQueue::new(horizon, n_tags);
        let w = q.window();
        prop_assert!(w.is_power_of_two() && w <= horizon.max(64) && w <= 1 << 16);
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let (mut seq, mut head) = (0u64, 0u64);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut drain = |q: &mut EventQueue,
                         heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                         head: &mut u64|
         -> Result<bool, TestCaseError> {
            let slot = q.peek_slot();
            prop_assert_eq!(slot, heap.peek().map(|Reverse(e)| e.0));
            let Some(slot) = slot else {
                return Ok(false);
            };
            *head = slot;
            let bucket = q.take(slot);
            got.extend(bucket.iter().map(|&tag| (slot, tag)));
            q.recycle(bucket);
            while heap.peek().is_some_and(|Reverse(e)| e.0 == slot) {
                let Reverse((at, _, tag)) = heap.pop().unwrap();
                want.push((at, tag));
            }
            Ok(true)
        };
        for op in ops {
            let (kind, arg, tag) = (op % 16, (op >> 8) & 0xffff_ffff, (op >> 40) as u32);
            let delta = match kind {
                0..=3 => {
                    drain(&mut q, &mut heap, &mut head)?;
                    continue;
                }
                4 => {
                    // A later slot is not the head: nothing leaves.
                    let later = head + 1 + arg % 3;
                    if q.peek_slot() != Some(later) {
                        prop_assert!(q.take(later).is_empty());
                    }
                    head = q.peek_slot().unwrap_or(head);
                    continue;
                }
                5 => 0,
                6..=8 => 1 + arg % 4,
                9 | 10 => w - 1 + arg % 3,
                11 | 12 => arg % (4 * w),
                13 | 14 => arg % horizon,
                _ => (arg % 64) * horizon.max(w),
            };
            q.push(head + delta, tag);
            heap.push(Reverse((head + delta, seq, tag)));
            seq += 1;
        }
        while drain(&mut q, &mut heap, &mut head)? {}
        prop_assert!(heap.is_empty());
        prop_assert_eq!(got.len() as u64, seq);
        prop_assert_eq!(got, want);
    }
}

// Trace-driven metro runs on the sharded engine: every feature that
// reads the flat arrival queues or the ARQ side table, on 1-4 workers.
// The default case count and tag scale keep `cargo test` quick; any
// `PROPTEST_CASES` value raises both, as for the identity test below.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Trace traffic with ARQ and rate fallback, deadline shedding,
    /// co-channel BER, capture and faults: the parallel run equals the
    /// serial one in statistics, per-domain statistics and the event
    /// trace, and a profiled run equals both while its collector sees
    /// the engine's stages and work counters.
    #[test]
    fn metro_trace_parallel_equals_serial(
        nx in 2usize..4,
        ny in 1usize..3,
        threads in 1usize..5,
        load in 0.002f64..0.05,
        profile_idx in 0usize..3,
        kind_idx in 0usize..4,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
        use fmbs_net::prelude::{ArqConfig, Deployment, NetworkConfig, Receiver, Station, Traffic};
        use fmbs_workload::arrivals::TraceSpec;
        let n_tags = if std::env::var_os("PROPTEST_CASES").is_some() {
            20_000
        } else {
            2_000
        };
        let n_slots = 300;
        let trace = TraceSpec {
            n_tags,
            n_slots,
            slot_secs: NetworkConfig::new(n_tags, n_slots).slot_secs(),
            model: ArrivalModel::Poisson,
            offered_load: load,
            profile: [
                AppProfile::SensorBeacon,
                AppProfile::TalkingPoster,
                AppProfile::FabricTelemetry,
            ][profile_idx],
            seed,
        }
        .generate();
        let sim = Deployment::city(n_tags)
            .slots(n_slots)
            .seed(seed)
            .stations([Station::at(10_000.0, 0.0)])
            .receivers(Receiver::grid(nx, ny, 40.0))
            .capture(6.0)
            .co_channel_ber(0.05)
            .traffic(Traffic::Trace(std::sync::Arc::new(trace)))
            .drop_expired(true)
            .arq(ArqConfig {
                fallback_after: 2,
                recover_after: 2,
                ..ArqConfig::default()
            })
            .faults(chaos_fault_spec(kind_idx, fault_seed, 2, 60, 0.3))
            .record_trace(true)
            .link(shared_ber_table())
            .build();
        prop_assert!(sim.is_ok(), "{:?}", sim.err());
        let sim = sim.unwrap().sim();
        let serial = sim.run_serial();
        let parallel = sim.run_with_threads(threads);
        let obs = fmbs_obs::Collector::with_spans(1 << 12);
        let profiled = {
            let _g = fmbs_obs::install(Some(obs.clone()));
            sim.run_with_threads(threads)
        };
        prop_assert!(serial.stats.queue_conserved(), "{:?}", serial.stats);
        prop_assert!(serial.stats.offered > 0);
        for other in [&parallel, &profiled] {
            prop_assert_eq!(format!("{:?}", serial.stats), format!("{:?}", other.stats));
            prop_assert_eq!(
                format!("{:?}", serial.per_domain),
                format!("{:?}", other.per_domain)
            );
            prop_assert_eq!(&serial.trace.events, &other.trace.events);
            prop_assert_eq!(serial.trace.dropped(), other.trace.dropped());
        }
        let stages: Vec<&str> = obs.stage_stats().iter().map(|(n, _)| *n).collect();
        for stage in [
            fmbs_obs::stages::NET_DOMAIN_SETUP,
            fmbs_obs::stages::NET_GATHER,
            fmbs_obs::stages::NET_RESOLVE,
        ] {
            prop_assert!(stages.contains(&stage), "no {} stage", stage);
        }
        // A lone worker has no one to wait for.
        prop_assert!(
            stages.contains(&fmbs_obs::stages::NET_BARRIER) == (threads > 1),
            "net_barrier_wait on {} thread(s)",
            threads
        );
        let visited = obs.counter_value("net.slots_visited");
        prop_assert!(visited > 0 && visited <= n_slots, "visited {}", visited);
        prop_assert_eq!(obs.counter_value("net.attempts"), serial.stats.attempts);
        prop_assert_eq!(
            obs.counter_value("net.retransmissions"),
            serial.stats.retransmissions
        );
    }
}

/// Acceptance §PR-9: the metro engine is deterministic at the ISSUE's
/// tag scale — same seed twice is trace-identical and the parallel path
/// matches serial bit-for-bit. The in-repo default runs 100k tags so
/// `cargo test` stays quick; CI elevates to the full 10⁶ tags via the
/// same `PROPTEST_CASES` override that deepens the chaos suite (any
/// value set), at a reduced 40-slot horizon.
#[test]
fn metro_scale_same_seed_identity() {
    use fmbs_net::prelude::{Deployment, Receiver, Station};
    let n_tags = if std::env::var_os("PROPTEST_CASES").is_some() {
        1_000_000
    } else {
        100_000
    };
    let sim = Deployment::city(n_tags)
        .slots(40)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
        .record_trace(true)
        .trace_cap(50_000)
        .link(shared_ber_table())
        .build()
        .expect("metro identity deployment is valid")
        .sim();
    let serial = sim.run_serial();
    let parallel = sim.run_with_threads(4);
    let rerun = sim.run_with_threads(4);
    assert_eq!(
        format!("{:?}", serial.stats),
        format!("{:?}", parallel.stats),
        "parallel diverged from serial"
    );
    assert_eq!(serial.trace.events, parallel.trace.events);
    assert_eq!(serial.trace.dropped(), parallel.trace.dropped());
    assert_eq!(
        format!("{:?}", parallel.stats),
        format!("{:?}", rerun.stats),
        "same seed diverged across runs"
    );
    assert_eq!(parallel.trace.events, rerun.trace.events);
    assert_eq!(serial.per_domain.len(), 16);
    // At a million tags a 16-cell city is pure collision noise — which
    // is the interesting regime — so sanity-check activity, not goodput.
    assert!(serial.stats.attempts > 0, "the city never transmitted");
}

// Corpus fuzzing: the committed city files are the seeds, and each
// mutant changes one field — zero, negative, huge or non-finite, or
// dropped. Loading one must end in `Ok` or a typed `CorpusError`
// within `CORPUS_LOAD_BOUND`, never in a panic, a hang or a runaway
// allocation.

/// The longest a corpus mutant may take to load, debug builds included
/// (a committed city loads in milliseconds).
const CORPUS_LOAD_BOUND: std::time::Duration = std::time::Duration::from_secs(2);

/// One step of a path into a JSON document.
#[derive(Debug, Clone)]
enum JsonStep {
    Key(String),
    Item(usize),
}

/// Every path into `v`, each with whether it leads to a number.
fn json_paths(v: &serde::Value, at: &mut Vec<JsonStep>, out: &mut Vec<(Vec<JsonStep>, bool)>) {
    use serde::Value;
    let children: Vec<(JsonStep, &Value)> = match v {
        Value::Map(fields) => fields
            .iter()
            .map(|(k, f)| (JsonStep::Key(k.clone()), f))
            .collect(),
        Value::Seq(items) => items
            .iter()
            .enumerate()
            .map(|(i, f)| (JsonStep::Item(i), f))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        at.push(step);
        let number = matches!(child, Value::U64(_) | Value::I64(_) | Value::F64(_));
        out.push((at.clone(), number));
        json_paths(child, at, out);
        at.pop();
    }
}

/// Replaces the value at `path` with `with`, or drops it when `with` is
/// `None`.
fn json_mutate(v: &mut serde::Value, path: &[JsonStep], with: Option<serde::Value>) {
    use serde::Value;
    let (last, parents) = path.split_last().expect("non-empty path");
    let mut node = v;
    for step in parents {
        node = match (node, step) {
            (Value::Map(fields), JsonStep::Key(k)) => {
                &mut fields.iter_mut().find(|(key, _)| key == k).expect("path").1
            }
            (Value::Seq(items), JsonStep::Item(i)) => &mut items[*i],
            _ => unreachable!("paths come from json_paths"),
        };
    }
    match (node, last, with) {
        (Value::Map(fields), JsonStep::Key(k), with) => match with {
            Some(x) => fields.iter_mut().find(|(key, _)| key == k).expect("path").1 = x,
            None => fields.retain(|(key, _)| key != k),
        },
        (Value::Seq(items), JsonStep::Item(i), with) => match with {
            Some(x) => items[*i] = x,
            None => {
                items.remove(*i);
            }
        },
        _ => unreachable!("paths come from json_paths"),
    }
}

/// The committed corpus as `(id, parsed document)`, in file order.
fn corpus_documents() -> Vec<(String, serde::Value)> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../corpus"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let id = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(p).expect("corpus file");
            (
                id,
                serde_json::from_str(&text).expect("committed file parses"),
            )
        })
        .collect()
}

/// Writes `doc` as `<dir>/<id>.json` and loads it, failing when the
/// load panics or takes longer than [`CORPUS_LOAD_BOUND`].
fn load_corpus_mutant(
    dir: &std::path::Path,
    id: &str,
    doc: &serde::Value,
) -> Result<Result<fmbs_net::prelude::CityScenario, fmbs_net::prelude::CorpusError>, TestCaseError>
{
    let path = dir.join(format!("{id}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(doc).expect("serialises"),
    )
    .expect("write mutant");
    let start = std::time::Instant::now();
    let loaded = std::panic::catch_unwind(|| fmbs_net::prelude::CityScenario::from_path(&path));
    let took = start.elapsed();
    let loaded = loaded.map_err(|_| TestCaseError::fail(format!("{id}: loading panicked")))?;
    if took > CORPUS_LOAD_BOUND {
        return Err(TestCaseError::fail(format!("{id}: loading took {took:?}")));
    }
    Ok(loaded)
}

/// A scratch directory for one test's mutants.
fn corpus_scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fmbs_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every field of one committed city in turn replaced by zero, a
    /// negative, a huge or a non-finite number (JSON has no NaN: it is
    /// written as `null`, as serde_json writes a NaN), or dropped: each
    /// mutant loads as `Ok` or as a typed `CorpusError` within the
    /// bound.
    #[test]
    fn corpus_mutants_load_or_fail_typed(
        city in any::<prop::sample::Index>(),
        mutation in 0usize..9,
    ) {
        use serde::Value;
        let dir = corpus_scratch("corpus_mutants");
        let corpus = corpus_documents();
        let (id, doc) = &corpus[city.index(corpus.len())];
        let mut paths = Vec::new();
        json_paths(doc, &mut Vec::new(), &mut paths);
        let with = [
            Some(Value::U64(0)),
            Some(Value::I64(-1)),
            Some(Value::F64(-0.5)),
            Some(Value::F64(-1e308)),
            Some(Value::F64(1e308)),
            Some(Value::U64(4_000_000_000)),
            Some(Value::U64(u64::MAX)),
            Some(Value::F64(f64::NAN)),
            None,
        ][mutation].clone();
        // Numbers get numbers; any field may be dropped.
        for (path, number) in &paths {
            if !number && with.is_some() {
                continue;
            }
            let mut mutant = doc.clone();
            json_mutate(&mut mutant, path, with.clone());
            if let Err(e) = load_corpus_mutant(&dir, id, &mutant)? {
                prop_assert!(!e.to_string().is_empty(), "{:?}", e);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The corpus inputs that once hung or ran away, pinned as the
/// fuzzer's first regressions: spokane with `slots: u64::MAX` and
/// boulder with `n_tags: 4000000000` (each would step or synthesise
/// for hours), and a receiver grid of 4·10⁹ × 2 cells (laid out before
/// any budget applied). Each ends in a typed budget error at load.
#[test]
fn corpus_regressions_end_at_load() {
    use fmbs_net::prelude::{CorpusError, DeploymentError};
    use serde::Value;
    let dir = corpus_scratch("corpus_regressions");
    let corpus = corpus_documents();
    let cases = [
        ("spokane", vec!["slots"], Value::U64(u64::MAX)),
        ("boulder", vec!["n_tags"], Value::U64(4_000_000_000)),
        (
            "seattle",
            vec!["receiver_grid", "nx"],
            Value::U64(4_000_000_000),
        ),
    ];
    for (id, keys, value) in cases {
        let (_, doc) = corpus
            .iter()
            .find(|(c, _)| c == id)
            .expect("committed city");
        let path: Vec<JsonStep> = keys.iter().map(|k| JsonStep::Key(k.to_string())).collect();
        let mut mutant = doc.clone();
        json_mutate(&mut mutant, &path, Some(value));
        let loaded = load_corpus_mutant(&dir, id, &mutant).unwrap_or_else(|e| panic!("{e}"));
        let err = loaded.expect_err(id);
        assert!(
            matches!(
                err,
                CorpusError::Deployment {
                    cause: DeploymentError::WorkBudget { .. },
                    ..
                }
            ),
            "{id}: {err:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Cross-crate tests of the `fmbs-net` network tier: link-table
//! calibration against the physics it abstracts, event-level
//! determinism, and sweep-engine integration.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::{Ber, Metric};
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;
use fmbs_net::prelude::*;
use std::sync::Arc;

/// Mean direct-simulation BER at one (power, distance) point, averaged
/// over `repeats` seed rotations — the same estimator the calibration
/// sweep uses per grid cell.
fn direct_ber(power_dbm: f64, distance_ft: f64, bits: usize, repeats: usize) -> f64 {
    let base = Scenario::bench(power_dbm, distance_ft, ProgramKind::News)
        .with_seed(0x0B5E)
        .with_workload(Workload::data(Bitrate::Kbps1_6, bits));
    SweepBuilder::new(base)
        .repeats(repeats)
        .run(&FastSim, &Ber::default())
        .mean()
}

/// Acceptance: the interpolated link table agrees with direct `FastSim`
/// BER within a stated absolute tolerance of **0.05** on five held-out
/// (power, distance) points, none of them on the calibration grid.
///
/// Scope of the contract: the held-out probes span the *working region*
/// of the link (raw BER ≲ 0.1) including the approach to the range
/// cliff. Past the cliff the surface jumps to ~0.5 within a couple of
/// feet, and no interpolation pitch tracks that jump — nor does it need
/// to: the rate-1/2 FEC already kills every frame above ~8% raw BER
/// (see `PacketModel`), so network metrics are insensitive to whether a
/// dead link reads 0.2 or 0.5. The test would still catch a transposed
/// grid, broken interpolation weights, or a calibration seed leak.
#[test]
fn link_table_matches_physics_on_held_out_points() {
    const TOLERANCE: f64 = 0.05;
    let table = BerTable::calibrate(
        &FastSim,
        &BerTableSpec {
            powers_dbm: vec![-62.0, -59.0, -56.0, -53.0, -50.0],
            distances_ft: vec![4.0, 6.5, 9.0, 11.5, 14.0],
            bitrates: vec![Bitrate::Kbps1_6],
            bits_per_point: 640,
            repeats: 4,
            seed: 0x7AB1E,
        },
    );
    let held_out = [
        (-60.5, 7.75),
        (-57.5, 10.25),
        (-54.5, 10.25),
        (-54.5, 12.75),
        (-51.5, 7.75),
    ];
    for (p, d) in held_out {
        let interpolated = table.lookup(Bitrate::Kbps1_6, p, d);
        let direct = direct_ber(p, d, 640, 4);
        assert!(
            (interpolated - direct).abs() <= TOLERANCE,
            "held-out ({p} dBm, {d} ft): table {interpolated:.4} vs direct {direct:.4}"
        );
    }
}

/// Acceptance: a **physical**-calibrated link table
/// ([`BerTable::from_physical`]) agrees with direct physical-tier
/// simulation on held-out off-grid points, mirroring the FastSim
/// contract above — so the network tier can be re-grounded on the
/// reference physics, not just the fast approximation. The tolerance is
/// wider than the fast test's 0.05 because debug-budget physical
/// estimates use 128-bit single-repetition samples (granularity
/// 1/128 ≈ 0.008) on top of the documented tier floor.
#[test]
fn physical_link_table_matches_physical_sim_on_held_out_points() {
    use fmbs_core::sim::Tier;
    const TOLERANCE: f64 = 0.08;
    let spec = BerTableSpec {
        powers_dbm: vec![-50.0, -40.0, -30.0],
        distances_ft: vec![3.0, 8.0, 13.0],
        bitrates: vec![Bitrate::Kbps1_6],
        bits_per_point: 128,
        repeats: 1,
        seed: 0x9B1E,
    };
    let table = BerTable::from_physical(&spec);
    let held_out = [(-45.0, 5.5), (-35.0, 10.5)];
    for (p, d) in held_out {
        let base = Scenario::bench(p, d, ProgramKind::News)
            .with_seed(0x9B1E)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 128));
        let direct = SweepBuilder::new(base)
            .repeats(1)
            .run(Tier::Physical.simulator(), &Ber::default())
            .mean();
        let interpolated = table.lookup(Bitrate::Kbps1_6, p, d);
        assert!(
            (interpolated - direct).abs() <= TOLERANCE,
            "held-out ({p} dBm, {d} ft): table {interpolated:.4} vs direct physical {direct:.4}"
        );
    }
    // The fast-vs-physical table delta — the report bounding the whole
    // fast→link→net stack — stays within the documented budget on this
    // working-region grid, and its quantiles are coherent.
    let fast = BerTable::calibrate(&FastSim, &spec);
    let delta = table.delta(&fast);
    assert!(
        delta.max_abs() <= fmbs_bench::experiments::TIER_TABLE_BUDGET,
        "table delta exceeds the documented budget:\n{}",
        delta.render()
    );
    assert!(delta.quantile_abs(0.5) <= delta.quantile_abs(0.9));
    assert!(delta.quantile_abs(0.9) <= delta.max_abs());
}

/// Acceptance: two same-seed network runs produce identical event traces
/// and metrics; flipping the seed changes the trace.
#[test]
fn network_runs_are_event_level_deterministic() {
    let table = Arc::new(BerTable::from_grid(
        vec![-60.0, -20.0],
        vec![1.0, 30.0],
        vec![Bitrate::Kbps1_6],
        vec![0.001, 0.01, 0.005, 0.05],
    ));
    let city = Deployment::city(150)
        .slots(300)
        .record_trace(true)
        .link(table);
    let run = |d: &Deployment| d.build().expect("valid deployment").sim().run();
    let a = run(&city);
    let b = run(&city);
    assert_eq!(a.trace, b.trace, "same-seed traces must be identical");
    assert_eq!(a.stats.delivered, b.stats.delivered);
    assert_eq!(a.stats.attempts, b.stats.attempts);
    assert_eq!(a.stats.per_tag_delivered, b.stats.per_tag_delivered);
    assert_eq!(a.stats.latencies_slots, b.stats.latencies_slots);

    let seed = city.network_config().seed ^ 0xF00D;
    let c = run(&city.seed(seed));
    assert_ne!(a.trace, c.trace, "a fresh seed must change the trace");
}

/// Acceptance: a parallel `n_tags` sweep over a network metric is
/// bit-identical to the serial reference run.
#[test]
fn parallel_n_tags_sweep_is_bit_identical_to_serial() {
    let table = Arc::new(BerTable::from_grid(
        vec![-60.0, -20.0],
        vec![1.0, 30.0],
        vec![Bitrate::Kbps1_6],
        vec![0.001, 0.01, 0.005, 0.05],
    ));
    let base = Scenario::bench(-40.0, 12.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
    for metric_run in 0..2 {
        let sweep = SweepBuilder::new(base)
            .n_tags([2, 16, 64])
            .mac_slot_counts([128, 256])
            .repeats(2);
        let (serial, parallel) = if metric_run == 0 {
            let m = NetGoodput(Deployment::city(1).link(table.clone()));
            (
                sweep.run_serial(&FastSim, &m),
                sweep.clone().threads(4).run(&FastSim, &m),
            )
        } else {
            let m = NetCollisionRate(Deployment::city(1).link(table.clone()));
            (
                sweep.run_serial(&FastSim, &m),
                sweep.clone().threads(4).run(&FastSim, &m),
            )
        };
        assert_eq!(serial.points.len(), 3 * 2 * 2);
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(s.coords, p.coords);
            assert_eq!(
                s.value.to_bits(),
                p.value.to_bits(),
                "point {:?}: serial {} vs parallel {}",
                s.coords,
                s.value,
                p.value
            );
        }
    }
}

/// The network axes fold into per-point seeds without disturbing the
/// axes that predate them: a sweep that leaves the network axes
/// undeclared expands to the exact seeds it had before `fmbs-net`
/// existed (index 0 on the new axes is seed-transparent).
#[test]
fn network_axes_are_seed_transparent_at_index_zero() {
    let base = Scenario::bench(-40.0, 6.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 120));
    let plain = SweepBuilder::new(base)
        .powers_dbm([-30.0, -50.0])
        .distances_ft([4.0, 10.0])
        .points();
    let with_axes = SweepBuilder::new(base)
        .powers_dbm([-30.0, -50.0])
        .distances_ft([4.0, 10.0])
        .n_tags([1, 64])
        .mac_slot_counts([100, 200])
        .points();
    for p in &plain {
        let twin = with_axes
            .iter()
            .find(|q| q.coords == p.coords)
            .expect("index-0 coordinate shared with the extended grid");
        assert_eq!(twin.scenario.seed, p.scenario.seed);
    }
}

/// Fairness and latency metrics respond to contention the way queueing
/// intuition says they must: more tags on the same channels means a
/// higher latency tail, while fairness stays bounded in (0, 1].
#[test]
fn latency_and_fairness_track_contention() {
    let table = Arc::new(BerTable::from_grid(
        vec![-60.0, -20.0],
        vec![1.0, 30.0],
        vec![Bitrate::Kbps1_6],
        vec![1e-4, 1e-3, 5e-4, 5e-3],
    ));
    let scenario = |n: u32| {
        let mut s = Scenario::bench(-40.0, 12.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
        s.n_tags = n;
        s.mac_slots = 400;
        s
    };
    let lat = NetLatency::p95(Deployment::city(1).link(table.clone()));
    let sparse = lat.evaluate(&FastSim, &scenario(4));
    let dense = lat.evaluate(&FastSim, &scenario(400));
    assert!(
        dense > sparse,
        "p95 latency under contention ({dense}) must exceed sparse ({sparse})"
    );
    let fair = NetFairness(Deployment::city(1).link(table));
    for n in [4, 400] {
        let f = fair.evaluate(&FastSim, &scenario(n));
        assert!(f > 0.0 && f <= 1.0, "fairness {f} out of range at n={n}");
    }
}

//! Sweep-engine throughput: points/sec over a fixed 25-point BER grid,
//! serial vs parallel. `repro --full` wall-clock is this number times
//! the grid size.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::Ber;
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;

fn bench(c: &mut Criterion) {
    let base = Scenario::bench(-30.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 200));
    let grid = SweepBuilder::new(base)
        .powers_dbm([-20.0, -30.0, -40.0, -50.0, -60.0])
        .distances_ft([2.0, 6.0, 10.0, 14.0, 18.0]);

    let mut g = c.benchmark_group("sweep_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(25));
    g.bench_function("serial_25pt_ber", |b| {
        b.iter(|| std::hint::black_box(grid.run_serial(&FastSim, &Ber::default())))
    });
    g.bench_function("parallel_25pt_ber", |b| {
        b.iter(|| std::hint::black_box(grid.run(&FastSim, &Ber::default())))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

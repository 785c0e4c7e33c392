//! Sweep-engine throughput: points/sec over a fixed 25-point BER grid,
//! serial vs parallel. Seeds the perf trajectory for the repro harness —
//! `repro --full` wall-clock is this number times the grid size.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_bench::perf::throughput_grid;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::Ber;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(25));
    g.bench_function("serial_25pt_ber", |b| {
        b.iter(|| std::hint::black_box(throughput_grid().run_serial(&FastSim, &Ber::default())))
    });
    g.bench_function("parallel_25pt_ber", |b| {
        b.iter(|| std::hint::black_box(throughput_grid().run(&FastSim, &Ber::default())))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

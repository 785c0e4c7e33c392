//! Metro-tier throughput: a 100,000-tag × 1,000-slot deployment
//! sharded across a 4×4 receiver grid with capture on, serial versus
//! every-core parallel. The full 10⁶-tag × 10⁴-slot acceptance run is
//! tracked in `BENCH_net.json` via `repro --perf`; this bench keeps the
//! sharded hot path honest at a size criterion can iterate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_bench::perf::scenario;
use fmbs_core::sim::fast::FastSim;
use fmbs_net::prelude::{BerTable, BerTableSpec};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // Calibrate and compile the plan once, outside the timed region —
    // the timed work is the sharded discrete-event engine alone.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
    let (n_tags, n_slots) = (100_000usize, 1_000u64);
    let sim = (scenario("+metro").deployment)(n_tags, n_slots)
        .link(table)
        .build()
        .expect("metro bench deployment is valid")
        .sim();

    let mut g = c.benchmark_group("metro_scale");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_tags as u64 * n_slots));
    g.bench_function("tags100k_slots1k_16cells_serial", |b| {
        b.iter(|| std::hint::black_box(sim.run_serial()))
    });
    g.bench_function("tags100k_slots1k_16cells_parallel", |b| {
        b.iter(|| std::hint::black_box(sim.run()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

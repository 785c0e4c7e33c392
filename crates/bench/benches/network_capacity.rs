//! Network-tier throughput: a 10,000-tag × 1,000-slot city deployment
//! through the discrete-event engine, link physics pre-calibrated into
//! the BER table. The acceptance bar is "simulates in seconds" — the
//! tracked series lives in `BENCH_net.json` via `repro --perf`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::sim::fast::FastSim;
use fmbs_net::prelude::{BerTable, BerTableSpec, CitySim, Deployment};
use std::sync::Arc;

/// The `n_tags` × `n_slots` single-cell city over `table`.
fn city(n_tags: usize, n_slots: u64, table: &Arc<BerTable>) -> CitySim {
    Deployment::city(n_tags)
        .slots(n_slots)
        .build()
        .expect("bench deployment is valid")
        .into_sim(table.clone())
}

fn bench(c: &mut Criterion) {
    // Calibrate once, outside the timed region: the whole point of the
    // link abstraction is that per-packet physics is amortised away.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));

    let mut g = c.benchmark_group("network_capacity");
    g.sample_size(10);
    g.throughput(Throughput::Elements(10_000 * 1_000));
    g.bench_function("tags10k_slots1k", |b| {
        let sim = city(10_000, 1_000, &table);
        b.iter(|| std::hint::black_box(sim.run()))
    });
    g.throughput(Throughput::Elements(500 * 10_000));
    g.bench_function("tags500_slots10k", |b| {
        let sim = city(500, 10_000, &table);
        b.iter(|| std::hint::black_box(sim.run()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

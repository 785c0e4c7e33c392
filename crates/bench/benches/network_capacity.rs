//! Network-tier throughput: a 10,000-tag × 1,000-slot city deployment
//! through the discrete-event engine, link physics pre-calibrated into
//! the BER table. The acceptance bar is "simulates in seconds".

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::sim::fast::FastSim;
use fmbs_net::prelude::{BerTable, BerTableSpec, Deployment};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // Calibrate once, outside the timed region: the whole point of the
    // link abstraction is that per-packet physics is amortised away.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));

    let mut g = c.benchmark_group("network_capacity");
    g.sample_size(10);
    for (name, deployment) in [
        ("tags10k_slots1k", Deployment::city(10_000).slots(1_000)),
        ("tags500_slots10k", Deployment::city(500).slots(10_000)),
    ] {
        let cfg = deployment.network_config();
        g.throughput(Throughput::Elements(cfg.n_tags as u64 * cfg.n_slots));
        let sim = deployment
            .build()
            .expect("bench deployment is valid")
            .into_sim(table.clone());
        g.bench_function(name, |b| b.iter(|| std::hint::black_box(sim.run())));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

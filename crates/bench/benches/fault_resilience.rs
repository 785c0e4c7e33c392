//! Fault-injection throughput: the 10,000-tag × 1,000-slot city
//! deployment with the link-layer ARQ enabled, fault-free and under a
//! combined fault plan (outage + brownouts + bursts + resets). The fault
//! path must stay in the same "simulates in seconds" class as the
//! saturated engine — injection is a per-slot window lookup, not a
//! per-tag scan.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::sim::fast::FastSim;
use fmbs_net::prelude::{ArqConfig, BerTable, BerTableSpec, Deployment, FaultSpec};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // Calibration sits outside the timed region: the benchmark measures
    // the queued engine under injection, not the link-table build.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
    let (n_tags, n_slots) = (10_000usize, 1_000u64);
    let arq = || {
        Deployment::city(n_tags)
            .slots(n_slots)
            .arq(ArqConfig::default())
    };

    let mut g = c.benchmark_group("fault_resilience");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_tags as u64 * n_slots));
    for (name, deployment) in [
        ("arq_no_fault", arq()),
        (
            "arq_all_faults",
            arq().faults(
                FaultSpec::none()
                    .with_outages(1, 120)
                    .with_brownouts(2, 150, 0.25)
                    .with_bursts(2, 80, 0.03)
                    .with_resets(64),
            ),
        ),
    ] {
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

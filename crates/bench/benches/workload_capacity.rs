//! Workload-tier throughput: the same 10,000-tag × 1,000-slot city
//! deployment as `network_capacity`, but trace-driven — Poisson
//! arrivals through the per-tag FIFO queues instead of full-buffer
//! saturation. Non-saturated runs must stay in the same "simulates in
//! seconds" class.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
use fmbs_net::prelude::{BerTable, BerTableSpec, Deployment, Traffic};
use fmbs_workload::arrivals::TraceSpec;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // Calibration and trace generation both sit outside the timed
    // region: the benchmark measures the queued discrete-event engine,
    // not the arrival sampler.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
    let (n_tags, n_slots) = (10_000usize, 1_000u64);
    let poisson = |offered_load: f64| {
        let deployment = Deployment::city(n_tags).slots(n_slots);
        let cfg = deployment.network_config();
        let trace = TraceSpec {
            n_tags,
            n_slots,
            slot_secs: cfg.slot_secs(),
            model: ArrivalModel::Poisson,
            offered_load,
            profile: AppProfile::SensorBeacon,
            seed: cfg.seed,
        }
        .generate();
        deployment.traffic(Traffic::Trace(Arc::new(trace)))
    };

    let mut g = c.benchmark_group("workload_capacity");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_tags as u64 * n_slots));
    for (name, deployment) in [
        ("poisson_load05", poisson(0.05)),
        ("poisson_load005", poisson(0.005)),
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

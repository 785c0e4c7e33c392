//! Workload-tier throughput: the same 10,000-tag × 1,000-slot city
//! deployment as `network_capacity`, but trace-driven — Poisson
//! arrivals through the per-tag FIFO queues instead of full-buffer
//! saturation. Non-saturated runs must stay in the same "simulates in
//! seconds" class; the tracked series shares `BENCH_net.json` (records
//! labelled `+workload`) via `repro --perf`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_bench::perf::scenario;
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
    let row = scenario("+workload");
    let (n_tags, n_slots) = (row.n_tags, row.n_slots);

    // The light-load variant is not a tracked series.
    let light = Deployment::city(n_tags).slots(n_slots);
    let cfg = light.network_config();
    let trace = TraceSpec {
        n_tags,
        n_slots,
        slot_secs: cfg.slot_secs(),
        model: ArrivalModel::Poisson,
        offered_load: 0.005,
        profile: AppProfile::SensorBeacon,
        seed: cfg.seed,
    }
    .generate();
    let light = light.traffic(Traffic::Trace(Arc::new(trace)));

    let mut g = c.benchmark_group("workload_capacity");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_tags as u64 * n_slots));
    for (name, deployment) in [
        ("poisson_load05", (row.deployment)(n_tags, n_slots)),
        ("poisson_load005", light),
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

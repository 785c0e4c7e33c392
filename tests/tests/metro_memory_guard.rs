//! Bounded memory on the metro engine. The only test in its binary, so
//! the process's peak resident set (VmHWM) grows by what one run holds
//! and by nothing a parallel test allocates.

#![cfg(target_os = "linux")]

use fmbs_bench::perf::metro_acceptance_deployment;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
use fmbs_net::engine::{Arrival, TAG_STATE_BYTES};
use fmbs_net::prelude::{BerTable, NetworkConfig, Traffic};
use fmbs_workload::arrivals::TraceSpec;
use std::sync::Arc;

const N_TAGS: usize = 100_000;
const N_SLOTS: u64 = 10_000;

/// Worker threads of the guarded run, fixed so the reading does not
/// depend on how many cores the host has: each worker builds its
/// domains in its own allocator arena.
const WORKERS: usize = 2;

/// Peak-RSS growth per tag across building and running the plan, less
/// the arrival trace's own bytes: the plan's sites, the per-domain
/// engines (hot tag state, flat arrival queues, event queues) and the
/// merged statistics. With two workers it read 240-241 B/tag in release
/// and debug builds on x86-64 Linux; the bound adds 19 B (8%) to 241.
/// Engines that clone each tag's arrival `Vec` and keep a 144-byte tag
/// state read 291 (measured from after the trace was built).
const GROWTH_BOUND_BYTES_PER_TAG: f64 = 260.0;

fn peak_rss_mb() -> f64 {
    fmbs_obs::peak_rss_mb().expect("Linux reports VmHWM")
}

#[test]
fn trace_driven_metro_run_grows_the_peak_by_a_bounded_amount_per_tag() {
    let hot_bytes = TAG_STATE_BYTES;
    assert!(hot_bytes <= 96, "the hot tag state is {hot_bytes} bytes");
    // A flat link table: the guard measures the engine, not calibration.
    let table = Arc::new(BerTable::from_grid(
        vec![-90.0, -20.0],
        vec![1.0, 100.0],
        vec![Bitrate::Kbps1_6],
        vec![1e-4; 4],
    ));
    // The baseline comes before the trace is built, and the trace's own
    // bytes come off the reading, so how the trace is laid out does not
    // move what the guard bounds.
    let before = peak_rss_mb();
    let trace = Arc::new(
        TraceSpec {
            n_tags: N_TAGS,
            n_slots: N_SLOTS,
            slot_secs: NetworkConfig::new(N_TAGS, N_SLOTS).slot_secs(),
            model: ArrivalModel::Poisson,
            offered_load: 1e-4,
            profile: AppProfile::SensorBeacon,
            seed: 7,
        }
        .generate(),
    );
    let trace_bytes = trace.offered() as usize * std::mem::size_of::<Arrival>()
        + (N_TAGS + 1) * std::mem::size_of::<usize>();
    let run = metro_acceptance_deployment(N_TAGS, N_SLOTS)
        .traffic(Traffic::Trace(trace.clone()))
        .link(table)
        .build()
        .expect("valid metro deployment")
        .sim()
        .run_with_threads(WORKERS);
    let grown = (peak_rss_mb() - before) * 1024.0 * 1024.0 - trace_bytes as f64;
    let per_tag = grown / N_TAGS as f64;
    println!(
        "trace-driven 4x4 metro run of {N_TAGS} tags on {WORKERS} workers: peak RSS grew \
         {per_tag:.0} B per tag beyond the trace's {trace_bytes} B ({hot_bytes} B of hot tag state)"
    );
    assert_eq!(run.stats.offered, trace.offered());
    assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    assert!(
        per_tag < GROWTH_BOUND_BYTES_PER_TAG,
        "peak RSS grew {per_tag:.0} B per tag (bound {GROWTH_BOUND_BYTES_PER_TAG})"
    );
}

//! SLOs for a city sensing deployment on the workload tier: diurnal
//! message arrivals over streetlight-harvested tags, tail latency and
//! deadline-miss rate as tag density grows — and the density at which
//! the deadline SLO breaks.
//!
//! ```text
//! cargo run --release --example city_slo
//! ```

use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
use fmbs_net::prelude::*;
use fmbs_workload::prelude::*;
use std::sync::Arc;

/// The deployment's service-level objective: at most this fraction of
/// sensor readings may miss their delivery deadline.
const SLO_MISS_BUDGET: f64 = 0.05;

fn main() {
    // One physics calibration pays for every packet in every run below.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));

    // Streetlight-harvested tags: duty cycling from the energy model
    // shapes the tail even before contention does. The deployment is
    // described once through the builder; every run places it at the
    // scenario's point (`Deployment::at`, validated at build), so the
    // scenario below sets tag density per run.
    let city = Deployment::city(64)
        .harvest(HarvestProfile::Solar(
            fmbs_core::harvest::Illumination::Streetlight,
        ))
        .storage(10.0)
        .link(table);
    let spec = WorkloadSpec::new(city);

    // A day-shaped arrival curve compressed onto the simulated horizon:
    // sensor beacons at a modest per-tag load, densities rising until
    // the cell can no longer keep the deadline SLO.
    let base = Scenario::bench(-40.0, 16.0, fmbs_audio::program::ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
        .with_traffic(ArrivalModel::Diurnal, 0.004, AppProfile::SensorBeacon);

    println!("tags   offered  delivered  p99 sojourn(s)  p999 sojourn(s)  miss%   SLO");
    let mut broke_at = None;
    for n_tags in [4u32, 16, 64, 256, 1_024] {
        let mut s = base;
        s.n_tags = n_tags;
        s.mac_slots = 1_200;
        let stats = spec.run(&s);
        assert!(stats.conserved());
        let (p99, n99) = stats.sojourn_quantile(0.99);
        let (p999, _) = stats.sojourn_quantile(0.999);
        let miss = stats.deadline_miss_rate();
        let ok = miss <= SLO_MISS_BUDGET;
        if !ok && broke_at.is_none() {
            broke_at = Some(n_tags);
        }
        println!(
            "{:>5}  {:>7}  {:>9}  {:>14.2}  {:>15.2}  {:>5.1}  {}",
            n_tags,
            stats.offered_raw,
            stats.net.delivered,
            p99,
            p999,
            100.0 * miss,
            if ok { "met" } else { "BROKEN" },
        );
        // Below ~1000 delivered packets the p999 rank degrades toward
        // the sample maximum — the quantile helper reports the count so
        // callers can qualify the tail honestly.
        if n99 < 1_000 {
            println!("       (tail quantiles over only {n99} sojourns; p999 ~= max)");
        }
    }

    match broke_at {
        Some(n) => println!(
            "\nThe {:.0}% deadline SLO breaks between the previous density and {n} tags.",
            100.0 * SLO_MISS_BUDGET
        ),
        None => println!(
            "\nAll densities met the {:.0}% deadline SLO.",
            100.0 * SLO_MISS_BUDGET
        ),
    }
}

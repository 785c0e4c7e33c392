//! A talking-poster deployment rides out a transmitter outage: the FM
//! carrier drops for 100 slots mid-run (killing deliveries *and* RF
//! harvesting), and the link-layer ARQ works the backlog down
//! afterwards. The example reports delivery ratio, retransmission
//! overhead and goodput-recovery time as the retransmission budget
//! grows — more budget buys a faster return to pre-outage goodput.
//!
//! ```text
//! cargo run --release --example city_outage
//! ```

use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
use fmbs_net::prelude::*;
use fmbs_workload::prelude::*;
use std::sync::Arc;

fn main() {
    // One physics calibration pays for every run below.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));

    // One 100-slot carrier outage, deterministically placed: the same
    // spec reproduces the same outage window in every run.
    let faults = FaultSpec::none().with_seed(10).with_outages(1, 100);

    // Interactive posters: multi-packet bursts against a 1–2 s deadline,
    // on streetlight harvesting — the outage also starves the tags.
    let base = Scenario::bench(-40.0, 16.0, fmbs_audio::program::ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 256))
        .with_traffic(ArrivalModel::Poisson, 0.02, AppProfile::TalkingPoster);

    let span = faults
        .schedule(400, 64)
        .span()
        .expect("the spec injects one outage");
    println!(
        "carrier outage: slots {}..{} of 400 ({} tags)\n",
        span.start, span.end, 64
    );

    println!("retx budget   delivered/offered   retx overhead   recovery (slots)");
    for max_retx in [0u32, 1, 4, 8] {
        // The deployment is described through the builder; the workload
        // runner places it at the scenario's point.
        let city = Deployment::city(64)
            .harvest(HarvestProfile::Solar(
                fmbs_core::harvest::Illumination::Streetlight,
            ))
            .faults(faults.clone())
            .arq(ArqConfig {
                max_retx,
                ..ArqConfig::default()
            })
            .link(table.clone());
        let spec = WorkloadSpec::new(city);

        let mut s = base;
        s.n_tags = 64;
        s.mac_slots = 400;

        // One traced run per row carries every column.
        let (stats, recovery) = spec.run_recovery(&s);
        println!(
            "{:>11}   {:>6}/{:<6} ({:.2})   {:>13.3}   {:>16.0}",
            max_retx,
            stats.net.delivered,
            stats.offered_raw,
            stats.delivery_ratio(),
            stats.retx_overhead(),
            recovery,
        );
    }

    println!(
        "\nWith no retransmissions the outage's backlog is abandoned and goodput \
         refills\nat the arrival rate; a modest budget retains the backlog and \
         recovers in a few\nslots once the carrier returns."
    );
}

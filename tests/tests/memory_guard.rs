//! Bounded memory on the physical tier. The only test in its binary, so
//! the process's peak resident set (VmHWM) grows by what one point
//! holds and by nothing a parallel test allocates.

#![cfg(target_os = "linux")]

use fmbs_audio::program::ProgramKind;
use fmbs_core::sim::physical::{PhysicalSim, PhysicalSimConfig};
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::Simulator;

fn peak_rss_mb() -> f64 {
    fmbs_obs::peak_rss_mb().expect("Linux reports VmHWM")
}

/// 2 s of IQ at 2.56 MHz is 5.12 M samples, 78 MB at 16 B each: the
/// front end (host IQ plus one switch bit per sample) is one such
/// buffer. A back end that holds the whole capture — scaled copies of
/// host and backscatter, their sum, the tuned copy — grows the peak by
/// about 350 MB; one that streams 10 ms blocks stays near the front
/// end's own construction.
const GROWTH_BOUND_MB: f64 = 200.0;

#[test]
fn uncached_two_second_speech_point_grows_the_peak_by_a_bounded_amount() {
    let scenario =
        Scenario::bench(-40.0, 6.0, ProgramKind::News).with_workload(Workload::speech(2.0));
    let sim = PhysicalSim::new(PhysicalSimConfig::bench(-40.0, 6.0));
    let before = peak_rss_mb();
    let out = sim.run(&scenario);
    let grown = peak_rss_mb() - before;
    println!("2 s physical point: peak RSS grew {grown:.1} MB");
    assert_eq!(out.mono.len(), out.payload.reference.len());
    assert!(
        grown < GROWTH_BOUND_MB,
        "a 2 s physical point grew the peak RSS by {grown:.1} MB (bound {GROWTH_BOUND_MB} MB)"
    );
}

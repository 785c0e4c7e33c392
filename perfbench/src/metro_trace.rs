//! `metro_trace`: the metro acceptance geometry (10^6 tags, a 4x4
//! receiver grid, one 67 dBm station, 6 dB capture, 10^4 slots) driven
//! by a seeded Poisson `SensorBeacon` trace at a load low enough that the
//! channel is not in congestion collapse. The net engine does almost all
//! the timed work; physics only runs in set-up (link calibration).
//!
//! The checks guard the operating point: a run that collapses (few
//! deliveries per attempt), strands offered packets, loses conservation
//! or differs between serial and parallel counts as failed, not fast.

use crate::report::{cpu_seconds, median, nproc, Report};
use crate::{timed_passes, Args};
use fmbs_bench::perf::metro_acceptance_deployment;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
use fmbs_core::sim::sweep::splitmix64;
use fmbs_net::prelude::{
    ArrivalTrace, BerTable, BerTableSpec, CitySim, Deployment, MetroRun, NetStats, NetworkConfig,
    TraceKind, Traffic,
};
use fmbs_workload::arrivals::TraceSpec;
use std::sync::Arc;
use std::time::Instant;

const N_TAGS: usize = 1_000_000;
const N_SLOTS: u64 = 10_000;
/// Mean packet arrivals per tag per slot. At 5e-3 this geometry
/// collapses (about 6% of attempts deliver); at 1e-4 it does not.
const OFFERED_LOAD: f64 = 1e-4;
/// Floor on delivered / attempts: this operating point read 0.770 to
/// 0.772 on every seed tried (1-6, 21-25); collapse reads below 0.1.
const MIN_DELIVERED_PER_ATTEMPT: f64 = 0.75;
/// Floor on delivered / offered: nearly every offered packet gets
/// through at this load.
const MIN_DELIVERED_PER_OFFERED: f64 = 0.99;
/// Set-ups timed after the body (as `time_setup` explains); `setup_s`
/// is their median.
const SETUPS: usize = 5;
/// Untimed parallel runs behind the traced run's per-layer ratios.
const TRACED_BASELINE_RUNS: usize = 3;

struct Setup {
    table: Arc<BerTable>,
    trace: Arc<ArrivalTrace>,
    sim: CitySim,
    calibrate_s: f64,
    trace_gen_s: f64,
    build_s: f64,
    sim_new_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.calibrate_s + self.trace_gen_s + self.build_s + self.sim_new_s
    }
}

fn deployment(trace: &Arc<ArrivalTrace>, table: &Arc<BerTable>) -> Deployment {
    metro_acceptance_deployment(N_TAGS, N_SLOTS)
        .traffic(Traffic::Trace(trace.clone()))
        .link(table.clone())
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
    let calibrate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let trace = Arc::new(
        TraceSpec {
            n_tags: N_TAGS,
            n_slots: N_SLOTS,
            slot_secs: NetworkConfig::new(N_TAGS, N_SLOTS).slot_secs(),
            model: ArrivalModel::Poisson,
            offered_load: OFFERED_LOAD,
            profile: AppProfile::SensorBeacon,
            // Tag i's stream is seeded with `seed ^ i`: two small seeds
            // would only swap streams between tags, so spread it first.
            seed: splitmix64(seed),
        }
        .generate(),
    );
    let trace_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let plan = deployment(&trace, &table)
        .build()
        .map_err(|e| format!("invalid metro deployment: {e} ({})", e.hint()))?;
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sim = plan.sim();
    let sim_new_s = t.elapsed().as_secs_f64();
    Ok(Setup {
        table,
        trace,
        sim,
        calibrate_s,
        trace_gen_s,
        build_s,
        sim_new_s,
    })
}

/// The `NetStats` counts reported as `metro.*` and repeated exactly.
fn counts(s: &NetStats) -> [(&'static str, u64); 6] {
    [
        ("metro.attempts", s.attempts),
        ("metro.delivered", s.delivered),
        ("metro.collided", s.collided),
        ("metro.corrupt", s.corrupt),
        ("metro.offered", s.offered),
        ("metro.still_queued", s.still_queued),
    ]
}

/// FNV-1a over every count and per-tag / per-delivery vector, so two
/// runs compare in full without keeping either one.
fn digest(s: &NetStats) -> u64 {
    let words = counts(s)
        .into_iter()
        .map(|(_, v)| v)
        .chain([s.starved_slots, s.on_time, s.expired_dropped, s.abandoned])
        .chain(s.per_tag_delivered.iter().map(|&v| v as u64))
        .chain(s.latencies_slots.iter().map(|&v| v as u64))
        .chain(s.sojourn_slots.iter().map(|&v| v as u64));
    words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The operating-point guard, applied to every engine run.
fn check_run(report: &mut Report, run: &MetroRun, offered: u64, what: &str) {
    let s = &run.stats;
    report.check(s.queue_conserved(), || {
        format!("{what}: queue not conserved")
    });
    for (i, (name, total)) in counts(s).into_iter().enumerate() {
        let sum: u64 = run.per_domain.iter().map(|d| counts(d)[i].1).sum();
        report.check(sum == total, || {
            format!("{what}: per-domain {name} sums to {sum}, the city total is {total}")
        });
    }
    report.check(s.offered == offered, || {
        format!(
            "{what}: engine offered {}, the trace holds {offered}",
            s.offered
        )
    });
    let per_attempt = s.delivered as f64 / s.attempts.max(1) as f64;
    report.check(per_attempt >= MIN_DELIVERED_PER_ATTEMPT, || {
        format!(
            "{what}: delivered/attempts {per_attempt:.3} < {MIN_DELIVERED_PER_ATTEMPT} (collapse)"
        )
    });
    let per_offered = s.delivered as f64 / s.offered.max(1) as f64;
    report.check(per_offered >= MIN_DELIVERED_PER_OFFERED, || {
        format!("{what}: delivered/offered {per_offered:.4} < {MIN_DELIVERED_PER_OFFERED}")
    });
}

/// Domain-slots with at least one attempt, over domains x slots, from a
/// run with the event trace on.
fn busy_slot_frac(s: &Setup, want: u64, report: &mut Report) -> Result<f64, String> {
    let plan = deployment(&s.trace, &s.table)
        .record_trace(true)
        .build()
        .map_err(|e| format!("invalid metro deployment: {e}"))?;
    let domains = plan.domains();
    let mut domain_of = vec![0u16; N_TAGS];
    for (d, dom) in domains.iter().enumerate() {
        for &t in &dom.tags {
            domain_of[t as usize] = d as u16;
        }
    }
    let nd = domains.len();
    let run = plan.sim().run_with_threads(nproc());
    report.check(digest(&run.stats) == want, || {
        "recording the event trace changed the run's statistics".into()
    });
    report.check(run.trace.dropped() == 0, || {
        "event trace dropped events".into()
    });
    let mut busy = vec![false; nd * N_SLOTS as usize];
    for e in &run.trace.events {
        if let TraceKind::Attempt { .. } = e.kind {
            busy[domain_of[e.tag as usize] as usize * N_SLOTS as usize + e.slot as usize] = true;
        }
    }
    Ok(busy.iter().filter(|&&b| b).count() as f64 / busy.len() as f64)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let threads = nproc();
    if !args.trace {
        let s = setup(args.seed)?;
        let offered = s.trace.offered();

        let (runs, rss) = timed_passes(args.seconds, || {
            let run = s.sim.run_with_threads(threads);
            check_run(report, &run, offered, "parallel run");
            (counts(&run.stats), digest(&run.stats))
        });
        let (first_counts, first_digest) = runs[0].1;
        for (_, (_, d)) in &runs[1..] {
            report.check(*d == first_digest, || {
                "exact repeat: parallel runs of one seed differ".into()
            });
        }
        let serial = s.sim.run_serial();
        check_run(report, &serial, offered, "serial run");
        report.check(digest(&serial.stats) == first_digest, || {
            "serial and parallel runs differ".into()
        });

        for (name, v) in first_counts {
            report.counts.insert(name.into(), v);
        }
        report
            .counts
            .insert("metro.stats_digest".into(), first_digest);
        let wall = median(&runs.iter().map(|(w, _)| *w).collect::<Vec<_>>());
        let (attempts, delivered) = (first_counts[0].1 as f64, first_counts[1].1 as f64);
        drop((s, serial));
        let mut setup_s = Vec::new();
        for _ in 0..SETUPS {
            setup_s.push(setup(args.seed)?.total_s());
        }
        report.end_to_end(wall, median(&setup_s), rss, delivered / wall);
        report.extra("delivered_per_s", delivered / wall, "1/s");
        report.extra("attempts_per_s", attempts / wall, "1/s");
        report.extra("delivered_per_attempt", delivered / attempts, "ratio");
        report.extra("delivered_per_offered", delivered / offered as f64, "ratio");
        report.extra("engine_runs", runs.len() as f64, "count");
        return Ok(());
    }

    // Untraced baseline: parallel and serial walls, CPU use.
    let s = setup(args.seed)?;
    let offered = s.trace.offered();
    let mut walls = Vec::new();
    let cpu0 = cpu_seconds();
    let mut first: Option<MetroRun> = None;
    for _ in 0..TRACED_BASELINE_RUNS {
        let t = Instant::now();
        let run = s.sim.run_with_threads(threads);
        walls.push(t.elapsed().as_secs_f64());
        check_run(report, &run, offered, "parallel run");
        match &first {
            Some(f) => report.check(digest(&run.stats) == digest(&f.stats), || {
                "exact repeat: parallel runs of one seed differ".into()
            }),
            None => first = Some(run),
        }
    }
    let cpu_util = (cpu_seconds() - cpu0) / (walls.iter().sum::<f64>() * threads as f64);
    let parallel_s = median(&walls);
    let first = first.expect("at least one parallel run");
    let t = Instant::now();
    let serial = s.sim.run_serial();
    let serial_s = t.elapsed().as_secs_f64();
    check_run(report, &serial, offered, "serial run");
    report.check(digest(&serial.stats) == digest(&first.stats), || {
        "serial and parallel runs differ".into()
    });
    drop(s);

    // Traced: set-up and one parallel run under a collector.
    let collector = fmbs_obs::Collector::new();
    let (s, traced_s, traced) = {
        let _obs = fmbs_obs::install(Some(collector.clone()));
        let s = setup(args.seed)?;
        let t = Instant::now();
        let run = s.sim.run_with_threads(threads);
        (s, t.elapsed().as_secs_f64(), run)
    };
    check_run(report, &traced, offered, "traced run");
    report.check(digest(&traced.stats) == digest(&first.stats), || {
        "exact repeat: the traced run differs from the untraced one".into()
    });

    report.layer("metro.calibrate_s", s.calibrate_s);
    report.layer("metro.trace_gen_s", s.trace_gen_s);
    report.layer("metro.build_s", s.build_s);
    report.layer("metro.sim_new_s", s.sim_new_s);
    report.layer("metro.engine_serial_s", serial_s);
    let workers = threads.min(first.per_domain.len()).max(1);
    report.layer(
        "metro.parallel_efficiency",
        serial_s / (parallel_s * workers as f64),
    );
    let attempts: Vec<f64> = first.per_domain.iter().map(|d| d.attempts as f64).collect();
    let mean = attempts.iter().sum::<f64>() / attempts.len().max(1) as f64;
    let max = attempts.iter().copied().fold(0.0, f64::max);
    report.layer("metro.domain_imbalance", max / mean.max(1.0));
    let busy = busy_slot_frac(&s, digest(&first.stats), report)?;
    report.layer("metro.busy_slot_frac", busy);
    for (name, v) in counts(&first.stats) {
        report.layer(name, v as f64);
        report.counts.insert(name.into(), v);
    }
    report
        .counts
        .insert("metro.stats_digest".into(), digest(&first.stats));
    report.obs_layers(&collector);
    report.layer("cpu_util", cpu_util);
    report.layer("trace_overhead_frac", traced_s / parallel_s - 1.0);
    Ok(())
}

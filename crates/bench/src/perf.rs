//! Tracked sweep-throughput perf series.
//!
//! The vendored criterion stand-in prints medians but persists nothing,
//! so `repro --perf` measures the same fixed 25-point BER grid the
//! `sweep_throughput` criterion bench runs and **appends** the result to
//! a JSON series file (default `BENCH_sweep.json` at the repo root).
//! Future PRs regress against the trajectory instead of a number in a
//! commit message.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::cache::CacheStats;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::Ber;
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;
use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// One measurement of the perf series.
///
/// Serialization is hand-written (the vendored serde derive has no
/// field defaults): committed `BENCH_sweep.json` records predate
/// `figure_wall_s`, so deserialization defaults it to empty instead of
/// erroring.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Seconds since the Unix epoch when the measurement ran.
    pub unix_time: u64,
    /// A free-form label (git describe, PR number, "baseline", ...).
    pub label: String,
    /// Points in the measured grid.
    pub grid_points: usize,
    /// Serial engine throughput.
    pub serial_points_per_sec: f64,
    /// Parallel engine throughput (equals serial on one core).
    pub parallel_points_per_sec: f64,
    /// Derivation-cache counters of the serial run.
    pub cache: CacheStats,
    /// Per-figure wall time in seconds (`(figure id, wall_s)`, the
    /// [`PERF_FIGURES`] subset at the quick grid); empty in records
    /// committed before the column existed.
    pub figure_wall_s: Vec<(String, f64)>,
}

impl Serialize for PerfRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("unix_time".into(), self.unix_time.to_value()),
            ("label".into(), self.label.to_value()),
            ("grid_points".into(), self.grid_points.to_value()),
            (
                "serial_points_per_sec".into(),
                self.serial_points_per_sec.to_value(),
            ),
            (
                "parallel_points_per_sec".into(),
                self.parallel_points_per_sec.to_value(),
            ),
            ("cache".into(), self.cache.to_value()),
            ("figure_wall_s".into(), self.figure_wall_s.to_value()),
        ])
    }
}

impl Deserialize for PerfRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(PerfRecord {
            unix_time: u64::from_value(v.get_field("unix_time")?)?,
            label: String::from_value(v.get_field("label")?)?,
            grid_points: usize::from_value(v.get_field("grid_points")?)?,
            serial_points_per_sec: f64::from_value(v.get_field("serial_points_per_sec")?)?,
            parallel_points_per_sec: f64::from_value(v.get_field("parallel_points_per_sec")?)?,
            cache: CacheStats::from_value(v.get_field("cache")?)?,
            figure_wall_s: match v.get_field("figure_wall_s") {
                Ok(f) => Vec::<(String, f64)>::from_value(f)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// The persisted series (newest record last).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfSeries {
    /// Measurements, oldest first.
    pub series: Vec<PerfRecord>,
}

/// The same fixed 25-point BER grid as the `sweep_throughput` bench.
pub fn throughput_grid() -> SweepBuilder {
    let base = Scenario::bench(-30.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 200));
    SweepBuilder::new(base)
        .powers_dbm([-20.0, -30.0, -40.0, -50.0, -60.0])
        .distances_ft([2.0, 6.0, 10.0, 14.0, 18.0])
}

/// Measures the grid (`samples` timed repetitions, best-of) and returns
/// the record, without touching disk.
pub fn measure(label: &str, samples: usize) -> PerfRecord {
    let grid = throughput_grid();
    let n_points = grid.points().len();
    let mut serial_best = f64::INFINITY;
    let mut parallel_best = f64::INFINITY;
    let mut cache = CacheStats::default();
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let results = grid.run_serial(&FastSim, &Ber::default());
        serial_best = serial_best.min(t.elapsed().as_secs_f64());
        cache = results.cache;
        let t = Instant::now();
        std::hint::black_box(grid.run(&FastSim, &Ber::default()));
        parallel_best = parallel_best.min(t.elapsed().as_secs_f64());
    }
    PerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: label.to_string(),
        grid_points: n_points,
        serial_points_per_sec: n_points as f64 / serial_best,
        parallel_points_per_sec: n_points as f64 / parallel_best,
        cache,
        figure_wall_s: Vec::new(),
    }
}

/// Figures timed for the per-figure wall-time column of `repro --perf`:
/// a sweep-engine figure and a net-engine figure, both at the quick
/// grid, so both hot paths show up in the committed series.
pub const PERF_FIGURES: &[&str] = &["fig4a", "network_capacity"];

/// Times each [`PERF_FIGURES`] regeneration (quick grid, one run each)
/// as `(figure id, wall seconds)`.
pub fn measure_figure_walls() -> Vec<(String, f64)> {
    crate::experiments::REGISTRY
        .iter()
        .filter(|spec| PERF_FIGURES.contains(&spec.id))
        .map(|spec| {
            let t = Instant::now();
            std::hint::black_box((spec.build)(crate::experiments::Grid::Quick));
            (spec.id.to_string(), t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Measures and appends to the series file at `path` (created when
/// missing; unreadable or unparseable files are reported, not
/// clobbered — the trajectory is the whole point of the file).
pub fn record(path: &str, label: &str, samples: usize) -> Result<PerfRecord, String> {
    append_sweep(path, measure(label, samples))
}

/// Like [`record`] but with the per-figure wall-time column measured
/// and attached — the `repro --perf` entry point.
pub fn record_full(path: &str, label: &str, samples: usize) -> Result<PerfRecord, String> {
    let mut rec = measure(label, samples);
    rec.figure_wall_s = measure_figure_walls();
    append_sweep(path, rec)
}

fn append_sweep(path: &str, rec: PerfRecord) -> Result<PerfRecord, String> {
    let mut series: PerfSeries = if std::path::Path::new(path).exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read existing {path}: {e}"))?;
        serde_json::from_str(&text)
            .map_err(|e| format!("{path} exists but is not a perf series: {e:?}"))?
    } else {
        PerfSeries::default()
    };
    series.series.push(rec.clone());
    let json = serde_json::to_string_pretty(&series).map_err(|e| format!("serialise: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(rec)
}

/// One measurement of the network-tier perf series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetPerfRecord {
    /// Seconds since the Unix epoch when the measurement ran.
    pub unix_time: u64,
    /// A free-form label (git describe, PR number, "baseline", ...).
    pub label: String,
    /// Deployed tags in the measured run.
    pub n_tags: usize,
    /// Simulated slots.
    pub n_slots: u64,
    /// Wall-clock seconds of the best run.
    pub elapsed_s: f64,
    /// tag·slot steps per second (the capacity headline).
    pub tag_slots_per_sec: f64,
    /// Packets delivered (sanity: the run did real work).
    pub delivered: u64,
}

/// The persisted network perf series (newest record last).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetPerfSeries {
    /// Measurements, oldest first.
    pub series: Vec<NetPerfRecord>,
}

/// The network series file that rides along a sweep series file:
/// `BENCH_sweep.json` → `BENCH_net.json`. Only the file name is
/// rewritten — directory components are left alone — and names without
/// "sweep" get `.net.json` appended.
pub fn net_series_path(sweep_path: &str) -> String {
    let (dir, file) = match sweep_path.rsplit_once('/') {
        Some((dir, file)) => (Some(dir), file),
        None => (None, sweep_path),
    };
    let net_file = if file.contains("sweep") {
        file.replacen("sweep", "net", 1)
    } else {
        format!("{file}.net.json")
    };
    match dir {
        Some(dir) => format!("{dir}/{net_file}"),
        None => net_file,
    }
}

/// Measures the acceptance-bar network run — 10,000 tags × 1,000 slots
/// over a quick-calibrated link table — and returns the record (best of
/// `samples` timed runs; calibration is untimed).
pub fn measure_net(label: &str, samples: usize) -> NetPerfRecord {
    use fmbs_core::sim::fast::FastSim as Fast;
    use fmbs_net::prelude::{BerTable, BerTableSpec, Deployment};
    let (n_tags, n_slots) = (10_000usize, 1_000u64);
    let table = std::sync::Arc::new(BerTable::calibrate(&Fast, &BerTableSpec::quick()));
    let sim = Deployment::city(n_tags)
        .slots(n_slots)
        .build()
        .expect("acceptance-bar deployment is valid")
        .into_sim(table);
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        delivered = run.stats.delivered;
    }
    NetPerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: label.to_string(),
        n_tags,
        n_slots,
        elapsed_s: best,
        tag_slots_per_sec: n_tags as f64 * n_slots as f64 / best,
        delivered,
    }
}

/// Measures the network run and appends to the series file at `path`
/// (same create/don't-clobber policy as [`record`]).
pub fn record_net(path: &str, label: &str, samples: usize) -> Result<NetPerfRecord, String> {
    append_net(path, measure_net(label, samples))
}

/// Label suffix marking the workload (trace-driven) records inside the
/// shared `BENCH_net.json` series. The vendored serde stand-in cannot
/// deserialise records with unknown-or-missing fields, so the workload
/// series reuses [`NetPerfRecord`] verbatim and the two populations are
/// told apart by label alone.
pub const WORKLOAD_LABEL_SUFFIX: &str = "+workload";

/// Whether a net-series record belongs to the workload population.
pub fn is_workload_label(label: &str) -> bool {
    label.ends_with(WORKLOAD_LABEL_SUFFIX)
}

/// Measures the workload acceptance-bar run — the same 10,000 tags ×
/// 1,000 slots, but trace-driven: Poisson arrivals at a moderate load
/// through the per-tag FIFO queues instead of full-buffer saturation.
/// Trace generation and table calibration are untimed, like the
/// saturated benchmark's calibration.
pub fn measure_net_workload(label: &str, samples: usize) -> NetPerfRecord {
    use fmbs_core::sim::fast::FastSim as Fast;
    use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
    use fmbs_net::prelude::{BerTable, BerTableSpec, Deployment, Traffic};
    use fmbs_workload::arrivals::TraceSpec;
    let (n_tags, n_slots) = (10_000usize, 1_000u64);
    let table = std::sync::Arc::new(BerTable::calibrate(&Fast, &BerTableSpec::quick()));
    let deployment = Deployment::city(n_tags).slots(n_slots);
    let cfg = deployment.network_config();
    let trace = TraceSpec {
        n_tags,
        n_slots,
        slot_secs: cfg.slot_secs(),
        model: ArrivalModel::Poisson,
        offered_load: 0.05,
        profile: AppProfile::SensorBeacon,
        seed: cfg.seed,
    }
    .generate();
    let sim = deployment
        .traffic(Traffic::Trace(std::sync::Arc::new(trace)))
        .build()
        .expect("workload acceptance-bar deployment is valid")
        .into_sim(table);
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        delivered = run.stats.delivered;
        debug_assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    }
    NetPerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: format!("{label}{WORKLOAD_LABEL_SUFFIX}"),
        n_tags,
        n_slots,
        elapsed_s: best,
        tag_slots_per_sec: n_tags as f64 * n_slots as f64 / best,
        delivered,
    }
}

/// Measures the workload run and appends to the shared net series file.
pub fn record_net_workload(
    path: &str,
    label: &str,
    samples: usize,
) -> Result<NetPerfRecord, String> {
    append_net(path, measure_net_workload(label, samples))
}

/// Label suffix marking the fault-injection records (full fault plan +
/// ARQ over the saturated run) inside the shared `BENCH_net.json`
/// series — same label-only population split as
/// [`WORKLOAD_LABEL_SUFFIX`].
pub const FAULTS_LABEL_SUFFIX: &str = "+faults";

/// Whether a net-series record belongs to the fault-injection
/// population.
pub fn is_faults_label(label: &str) -> bool {
    label.ends_with(FAULTS_LABEL_SUFFIX)
}

/// Measures the fault-injection acceptance-bar run — the saturated
/// 10,000 tags × 1,000 slots with every fault class active and the
/// default ARQ on, so the fault bookkeeping and retransmission paths
/// are all on the timed hot path.
pub fn measure_net_faults(label: &str, samples: usize) -> NetPerfRecord {
    use fmbs_core::sim::fast::FastSim as Fast;
    use fmbs_net::prelude::{ArqConfig, BerTable, BerTableSpec, Deployment, FaultSpec};
    let (n_tags, n_slots) = (10_000usize, 1_000u64);
    let table = std::sync::Arc::new(BerTable::calibrate(&Fast, &BerTableSpec::quick()));
    let sim = Deployment::city(n_tags)
        .slots(n_slots)
        .arq(ArqConfig::default())
        .faults(
            FaultSpec::none()
                .with_outages(1, 120)
                .with_brownouts(2, 150, 0.25)
                .with_bursts(2, 80, 0.03)
                .with_resets(64),
        )
        .build()
        .expect("fault acceptance-bar deployment is valid")
        .into_sim(table);
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        delivered = run.stats.delivered;
        debug_assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    }
    NetPerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: format!("{label}{FAULTS_LABEL_SUFFIX}"),
        n_tags,
        n_slots,
        elapsed_s: best,
        tag_slots_per_sec: n_tags as f64 * n_slots as f64 / best,
        delivered,
    }
}

/// Measures the fault-injection run and appends to the shared net
/// series file.
pub fn record_net_faults(path: &str, label: &str, samples: usize) -> Result<NetPerfRecord, String> {
    append_net(path, measure_net_faults(label, samples))
}

/// Label suffix marking the metro-scale (sharded multi-receiver)
/// records inside the shared `BENCH_net.json` series — same label-only
/// population split as [`WORKLOAD_LABEL_SUFFIX`].
pub const METRO_LABEL_SUFFIX: &str = "+metro";

/// Whether a net-series record belongs to the metro-scale population.
pub fn is_metro_label(label: &str) -> bool {
    label.ends_with(METRO_LABEL_SUFFIX)
}

/// The metro acceptance-bar geometry: 10⁶ tags sharded across a 4×4
/// receiver grid with capture on — the deployment the ISSUE's scale
/// target names, shared by the perf series and the CI identity test.
pub fn metro_acceptance_deployment(n_tags: usize, n_slots: u64) -> fmbs_net::prelude::Deployment {
    use fmbs_net::prelude::{Deployment, Receiver, Station};
    Deployment::city(n_tags)
        .slots(n_slots)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
}

/// Measures the metro acceptance-bar run — 10⁶ tags × 10⁴ slots sharded
/// across 16 collision domains on every available core. Errs (instead
/// of panicking) when the deployment fails build-time validation, with
/// the typed error's hint attached.
pub fn measure_net_metro(label: &str, samples: usize) -> Result<NetPerfRecord, String> {
    use fmbs_core::sim::fast::FastSim as Fast;
    use fmbs_net::prelude::{BerTable, BerTableSpec};
    let (n_tags, n_slots) = (1_000_000usize, 10_000u64);
    let table = std::sync::Arc::new(BerTable::calibrate(&Fast, &BerTableSpec::quick()));
    let plan = metro_acceptance_deployment(n_tags, n_slots)
        .build()
        .map_err(|e| format!("invalid metro deployment: {e}\n  hint: {}", e.hint()))?;
    let sim = plan.into_sim(table);
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        delivered = run.stats.delivered;
    }
    Ok(NetPerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: format!("{label}{METRO_LABEL_SUFFIX}"),
        n_tags,
        n_slots,
        elapsed_s: best,
        tag_slots_per_sec: n_tags as f64 * n_slots as f64 / best,
        delivered,
    })
}

/// Measures the metro run and appends to the shared net series file.
pub fn record_net_metro(path: &str, label: &str, samples: usize) -> Result<NetPerfRecord, String> {
    append_net(path, measure_net_metro(label, samples)?)
}

fn append_net(path: &str, rec: NetPerfRecord) -> Result<NetPerfRecord, String> {
    let mut series: NetPerfSeries = if std::path::Path::new(path).exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read existing {path}: {e}"))?;
        serde_json::from_str(&text)
            .map_err(|e| format!("{path} exists but is not a net perf series: {e:?}"))?
    } else {
        NetPerfSeries::default()
    };
    series.series.push(rec.clone());
    let json = serde_json::to_string_pretty(&series).map_err(|e| format!("serialise: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(rec)
}

// ------------------------------------------------------ regression gate

/// Largest tolerated fractional throughput drop below the committed
/// baseline before the perf gate fails (CI machines are noisy; a real
/// hot-path regression blows well past this).
pub const MAX_PERF_DROP: f64 = 0.30;

/// Outcome of comparing a fresh measurement against a baseline.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Which series was gated ("sweep serial", "network").
    pub name: String,
    /// Label of the baseline record.
    pub baseline_label: String,
    /// Baseline throughput.
    pub baseline: f64,
    /// Fresh measurement.
    pub measured: f64,
    /// Fractional drop below baseline (negative = faster).
    pub drop_frac: f64,
    /// Whether the measurement stays within `max_drop` of the baseline.
    pub passed: bool,
}

impl GateOutcome {
    /// One status line for the gate report.
    pub fn render(&self) -> String {
        format!(
            "{} {}: {:.1} vs baseline {:.1} (\"{}\", {:+.1}%)",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.measured,
            self.baseline,
            self.baseline_label,
            -100.0 * self.drop_frac,
        )
    }
}

/// Compares a measured throughput against a baseline value; fails when
/// it drops more than `max_drop` (a fraction, e.g. 0.30) below it.
pub fn compare(
    name: &str,
    measured: f64,
    baseline_label: &str,
    baseline: f64,
    max_drop: f64,
) -> GateOutcome {
    // A baseline that is zero, negative or NaN is unusable: fail the
    // gate rather than silently passing any measurement against it.
    let usable = baseline.is_finite() && baseline > 0.0;
    let drop_frac = if usable {
        1.0 - measured / baseline
    } else {
        f64::INFINITY
    };
    GateOutcome {
        name: name.to_string(),
        baseline_label: baseline_label.to_string(),
        baseline,
        measured,
        drop_frac,
        // Tiny epsilon so a drop of exactly `max_drop` passes despite
        // float rounding in the division.
        passed: usable && drop_frac <= max_drop + 1e-12,
    }
}

/// Reads the last record of the sweep series at `path`. Callers gating
/// a fresh measurement must read the baseline *before* appending to the
/// same file, or they would compare the measurement against itself.
pub fn last_sweep_record(path: &str) -> Result<PerfRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let series: PerfSeries =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a perf series: {e:?}"))?;
    series
        .series
        .last()
        .cloned()
        .ok_or_else(|| format!("{path} has no records"))
}

/// The four baseline populations of one net series file, split by
/// label suffix and read with a *single* parse — see [`net_baselines`].
#[derive(Debug, Clone, Default)]
pub struct NetBaselines {
    /// Newest saturated clean record (no suffix), if any.
    pub net: Option<NetPerfRecord>,
    /// Newest trace-driven workload record ([`WORKLOAD_LABEL_SUFFIX`]).
    pub workload: Option<NetPerfRecord>,
    /// Newest fault-injection record ([`FAULTS_LABEL_SUFFIX`]).
    pub faults: Option<NetPerfRecord>,
    /// Newest metro-scale record ([`METRO_LABEL_SUFFIX`]).
    pub metro: Option<NetPerfRecord>,
}

/// Reads and parses the network series at `path` once and splits the
/// newest record of each label population out of it. This is what a
/// `--perf --gate` run calls: the file is read exactly once, so a
/// malformed series surfaces as *one* error instead of one per
/// population (the per-population [`last_net_record`]-family accessors
/// are thin views over this). Same read-before-append caveat as
/// [`last_sweep_record`].
pub fn net_baselines(path: &str) -> Result<NetBaselines, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let series: NetPerfSeries = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a net perf series: {e:?}"))?;
    let mut baselines = NetBaselines::default();
    for r in series.series.iter().rev() {
        let slot = if is_workload_label(&r.label) {
            &mut baselines.workload
        } else if is_faults_label(&r.label) {
            &mut baselines.faults
        } else if is_metro_label(&r.label) {
            &mut baselines.metro
        } else {
            &mut baselines.net
        };
        if slot.is_none() {
            *slot = Some(r.clone());
        }
    }
    Ok(baselines)
}

/// Reads the last *saturated clean* record of the network series at
/// `path` (workload and fault-injection records share the file but are
/// separate populations — see [`WORKLOAD_LABEL_SUFFIX`] /
/// [`FAULTS_LABEL_SUFFIX`]; same read-before-append caveat as
/// [`last_sweep_record`]).
pub fn last_net_record(path: &str) -> Result<NetPerfRecord, String> {
    net_baselines(path)?
        .net
        .ok_or_else(|| format!("{path} has no saturated network records"))
}

/// Reads the last *workload* record of the network series at `path`.
/// `Ok(None)` means the file parses but no workload record exists yet
/// (the population is new); callers seed the series instead of gating.
pub fn last_net_workload_record(path: &str) -> Result<Option<NetPerfRecord>, String> {
    Ok(net_baselines(path)?.workload)
}

/// Reads the last *fault-injection* record of the network series at
/// `path`. `Ok(None)` means the file parses but no faults record exists
/// yet (the population is new); callers seed the series instead of
/// gating.
pub fn last_net_faults_record(path: &str) -> Result<Option<NetPerfRecord>, String> {
    Ok(net_baselines(path)?.faults)
}

/// Gates a fresh sweep measurement against a baseline record (serial
/// points/s — the parallel number scales with the runner's core count).
pub fn gate_sweep(baseline: &PerfRecord, measured: &PerfRecord, max_drop: f64) -> GateOutcome {
    compare(
        "sweep serial points/s",
        measured.serial_points_per_sec,
        &baseline.label,
        baseline.serial_points_per_sec,
        max_drop,
    )
}

/// Gates a fresh network measurement against a baseline record
/// (tag·slots/s).
pub fn gate_net(baseline: &NetPerfRecord, measured: &NetPerfRecord, max_drop: f64) -> GateOutcome {
    compare(
        "network tag-slots/s",
        measured.tag_slots_per_sec,
        &baseline.label,
        baseline.tag_slots_per_sec,
        max_drop,
    )
}

/// Reads the last *metro-scale* record of the network series at
/// `path`. `Ok(None)` means the file parses but no metro record exists
/// yet (the population is new); callers seed the series instead of
/// gating.
pub fn last_net_metro_record(path: &str) -> Result<Option<NetPerfRecord>, String> {
    Ok(net_baselines(path)?.metro)
}

/// Gates a fresh workload (trace-driven) measurement against a
/// workload baseline record.
pub fn gate_net_workload(
    baseline: &NetPerfRecord,
    measured: &NetPerfRecord,
    max_drop: f64,
) -> GateOutcome {
    compare(
        "workload tag-slots/s",
        measured.tag_slots_per_sec,
        &baseline.label,
        baseline.tag_slots_per_sec,
        max_drop,
    )
}

/// Gates a fresh fault-injection measurement against a faults baseline
/// record.
pub fn gate_net_faults(
    baseline: &NetPerfRecord,
    measured: &NetPerfRecord,
    max_drop: f64,
) -> GateOutcome {
    compare(
        "faults tag-slots/s",
        measured.tag_slots_per_sec,
        &baseline.label,
        baseline.tag_slots_per_sec,
        max_drop,
    )
}

/// Gates a fresh metro-scale measurement against a metro baseline
/// record.
pub fn gate_net_metro(
    baseline: &NetPerfRecord,
    measured: &NetPerfRecord,
    max_drop: f64,
) -> GateOutcome {
    compare(
        "metro tag-slots/s",
        measured.tag_slots_per_sec,
        &baseline.label,
        baseline.tag_slots_per_sec,
        max_drop,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_series_path_derivation() {
        assert_eq!(net_series_path("BENCH_sweep.json"), "BENCH_net.json");
        assert_eq!(
            net_series_path("/tmp/BENCH_sweep.json"),
            "/tmp/BENCH_net.json"
        );
        assert_eq!(net_series_path("perf.json"), "perf.json.net.json");
    }

    #[test]
    fn measure_reports_positive_throughput() {
        let rec = measure("test", 1);
        assert_eq!(rec.grid_points, 25);
        assert!(rec.serial_points_per_sec > 0.0);
        assert!(rec.parallel_points_per_sec > 0.0);
        // The cache must be doing real work on this grid: 25 points share
        // one host programme and one encoded payload.
        assert!(rec.cache.hits() > 0, "{:?}", rec.cache);
    }

    #[test]
    fn compare_thirty_percent_edge() {
        // Exactly at the allowed drop passes; just past it fails.
        assert!(compare("s", 70.0, "base", 100.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 69.9, "base", 100.0, MAX_PERF_DROP).passed);
        // Faster than baseline is always fine.
        let fast = compare("s", 140.0, "base", 100.0, MAX_PERF_DROP);
        assert!(fast.passed && fast.drop_frac < 0.0);
        // An unusable baseline (zero/negative/NaN) fails instead of
        // silently disabling the gate.
        assert!(!compare("s", 1e9, "base", 0.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 1e9, "base", -5.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 1e9, "base", f64::NAN, MAX_PERF_DROP).passed);
    }

    #[test]
    fn gate_reads_last_committed_record() {
        let dir = std::env::temp_dir().join("fmbs_perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let path = path.to_str().unwrap();
        let mk = |label: &str, serial: f64| PerfRecord {
            unix_time: 0,
            label: label.into(),
            grid_points: 25,
            serial_points_per_sec: serial,
            parallel_points_per_sec: serial,
            cache: CacheStats::default(),
            figure_wall_s: Vec::new(),
        };
        let series = PerfSeries {
            series: vec![mk("old", 1_000.0), mk("newest", 100.0)],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        // The baseline is the *last* record: "newest" (100), not "old".
        let baseline = last_sweep_record(path).unwrap();
        assert_eq!(baseline.label, "newest");
        let ok = gate_sweep(&baseline, &mk("fresh", 90.0), MAX_PERF_DROP);
        assert!(ok.passed, "{}", ok.render());
        let bad = gate_sweep(&baseline, &mk("fresh", 50.0), MAX_PERF_DROP);
        assert!(!bad.passed);
        assert!(last_sweep_record("/nonexistent/series.json").is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_baseline_lookups_split_the_populations() {
        let dir = std::env::temp_dir().join("fmbs_perf_workload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        let mk = |label: &str, tps: f64| NetPerfRecord {
            unix_time: 0,
            label: label.into(),
            n_tags: 10_000,
            n_slots: 1_000,
            elapsed_s: 1.0,
            tag_slots_per_sec: tps,
            delivered: 1,
        };
        // Saturated-only series: no workload baseline yet.
        let series = NetPerfSeries {
            series: vec![mk("old", 1.0), mk("new", 2.0)],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        assert_eq!(last_net_record(path).unwrap().label, "new");
        assert!(last_net_workload_record(path).unwrap().is_none());
        // Mixed series: each lookup finds its own population's last
        // record, not the file's last record.
        let series = NetPerfSeries {
            series: vec![
                mk("old", 1.0),
                mk("ci+workload", 3.0),
                mk("new", 2.0),
                mk("ci+faults", 4.0),
                mk("pr9+metro", 5.0),
            ],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        assert_eq!(last_net_record(path).unwrap().label, "new");
        assert_eq!(
            last_net_workload_record(path).unwrap().unwrap().label,
            "ci+workload"
        );
        assert_eq!(
            last_net_faults_record(path).unwrap().unwrap().label,
            "ci+faults"
        );
        assert!(is_workload_label("ci+workload"));
        assert!(!is_workload_label("ci"));
        assert_eq!(
            last_net_metro_record(path).unwrap().unwrap().label,
            "pr9+metro"
        );
        assert!(is_faults_label("ci+faults"));
        assert!(!is_faults_label("ci+workload"));
        assert!(is_metro_label("pr9+metro"));
        assert!(!is_metro_label("pr9"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_baselines_parses_once_and_fails_once() {
        let dir = std::env::temp_dir().join("fmbs_perf_baselines_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        // A malformed file yields a single error from the one shared
        // parse; every thin wrapper reports that same failure rather
        // than four differently-worded ones.
        std::fs::write(path, "{ not json").unwrap();
        let err = net_baselines(path).unwrap_err();
        assert!(err.contains("not a net perf series"), "{err}");
        assert_eq!(last_net_record(path).unwrap_err(), err);
        assert_eq!(last_net_workload_record(path).unwrap_err(), err);
        assert_eq!(last_net_faults_record(path).unwrap_err(), err);
        assert_eq!(last_net_metro_record(path).unwrap_err(), err);
        // One parse populates every population slot.
        let mk = |label: &str| NetPerfRecord {
            unix_time: 0,
            label: label.into(),
            n_tags: 10_000,
            n_slots: 1_000,
            elapsed_s: 1.0,
            tag_slots_per_sec: 1.0,
            delivered: 1,
        };
        let series = NetPerfSeries {
            series: vec![
                mk("a"),
                mk("a+workload"),
                mk("a+faults"),
                mk("a+metro"),
                mk("b"),
            ],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        let baselines = net_baselines(path).unwrap();
        assert_eq!(baselines.net.unwrap().label, "b");
        assert_eq!(baselines.workload.unwrap().label, "a+workload");
        assert_eq!(baselines.faults.unwrap().label, "a+faults");
        assert_eq!(baselines.metro.unwrap().label, "a+metro");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_records_without_new_fields_still_parse() {
        // A committed pre-observability record: no `figure_wall_s`, no
        // `version`/`front_end_*` inside the cache block. The series
        // file is append-only history, so this must keep parsing.
        let text = concat!(
            r#"{"series":[{"unix_time":1,"label":"old","grid_points":25,"#,
            r#""serial_points_per_sec":10.0,"parallel_points_per_sec":20.0,"#,
            r#""cache":{"host_hits":4,"host_misses":1,"payload_hits":4,"payload_misses":1}}]}"#,
        );
        let series: PerfSeries = serde_json::from_str(text).unwrap();
        let rec = &series.series[0];
        assert!(rec.figure_wall_s.is_empty());
        assert_eq!(rec.cache.version, 1, "unversioned records read as v1");
        assert_eq!(rec.cache.host_hits, 4);
        assert_eq!(rec.cache.front_end_hits, 0);
        assert_eq!(rec.cache.front_end_misses, 0);
    }

    #[test]
    fn perf_record_round_trips_the_new_fields() {
        let rec = PerfRecord {
            unix_time: 7,
            label: "v2".into(),
            grid_points: 25,
            serial_points_per_sec: 10.0,
            parallel_points_per_sec: 20.0,
            cache: CacheStats {
                front_end_hits: 3,
                front_end_misses: 1,
                ..CacheStats::default()
            },
            figure_wall_s: vec![("fig4a".into(), 0.25)],
        };
        let text = serde_json::to_string_pretty(&rec).unwrap();
        let back: PerfRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.cache, rec.cache);
        assert_eq!(
            back.cache.version,
            fmbs_core::sim::cache::CACHE_STATS_VERSION
        );
        assert_eq!(back.figure_wall_s, rec.figure_wall_s);
    }

    #[test]
    fn record_appends_to_series() {
        let dir = std::env::temp_dir().join("fmbs_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        record(path, "first", 1).unwrap();
        record(path, "second", 1).unwrap();
        let series: PerfSeries =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(series.series.len(), 2);
        assert_eq!(series.series[0].label, "first");
        assert_eq!(series.series[1].label, "second");
        let _ = std::fs::remove_file(path);
    }
}

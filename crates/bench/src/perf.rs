//! Tracked perf series.
//!
//! The vendored criterion stand-in prints medians but persists nothing,
//! so `repro --perf` measures the same fixed 25-point BER grid the
//! `sweep_throughput` criterion bench runs, plus every network
//! deployment in [`NET_SCENARIOS`], and **appends** the results to JSON
//! series files (default `BENCH_sweep.json` and `BENCH_net.json` at the
//! repo root). Future PRs regress against the trajectory instead of a
//! number in a commit message.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::cache::CacheStats;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::Ber;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;
use fmbs_net::prelude::{
    ArqConfig, BerTable, Deployment, FaultSpec, NetStats, Receiver, Station, Traffic,
};
use fmbs_workload::arrivals::TraceSpec;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
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

/// A persisted perf series file, `{"series": [...]}`, oldest record
/// first: [`PerfRecord`]s in `BENCH_sweep.json`, [`NetPerfRecord`]s in
/// `BENCH_net.json`.
///
/// Serialization is hand-written because the vendored serde derive has
/// no generics.
struct Series<T> {
    series: Vec<T>,
}

impl<T: Serialize> Serialize for Series<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![("series".into(), self.series.to_value())])
    }
}

impl<T: Deserialize> Deserialize for Series<T> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Series {
            series: Vec::from_value(v.get_field("series")?)?,
        })
    }
}

/// Reads every record of the series file at `path`, oldest first.
fn read_series<T: Deserialize>(path: &str) -> Result<Vec<T>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let series: Series<T> =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a perf series: {e:?}"))?;
    Ok(series.series)
}

/// Appends `rec` to the series file at `path` (created when missing;
/// unreadable or unparseable files are reported, not clobbered — the
/// trajectory is the whole point of the file).
pub fn append<T: Serialize + Deserialize + Clone>(path: &str, rec: T) -> Result<T, String> {
    let mut series = if std::path::Path::new(path).exists() {
        read_series(path)?
    } else {
        Vec::new()
    };
    series.push(rec.clone());
    let json = serde_json::to_string_pretty(&Series { series })
        .map_err(|e| format!("serialise: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(rec)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
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
        unix_time: unix_now(),
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

/// Measures and appends to the series file at `path` (see [`append`]).
pub fn record(path: &str, label: &str, samples: usize) -> Result<PerfRecord, String> {
    append(path, measure(label, samples))
}

/// Like [`record`] but with the per-figure wall-time column measured
/// and attached — the `repro --perf` entry point.
pub fn record_full(path: &str, label: &str, samples: usize) -> Result<PerfRecord, String> {
    let mut rec = measure(label, samples);
    rec.figure_wall_s = measure_figure_walls();
    append(path, rec)
}

/// One measurement of the network-tier perf series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetPerfRecord {
    /// Seconds since the Unix epoch when the measurement ran.
    pub unix_time: u64,
    /// A free-form label (git describe, "baseline", ...) followed by
    /// the [`NetScenario::suffix`] of the measured row.
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

/// One tracked network series: a deployment `repro --perf` times,
/// appends to `BENCH_net.json` and gates against the newest committed
/// record of the same row.
///
/// The vendored serde stand-in cannot deserialise records with unknown
/// or missing fields, so every row shares [`NetPerfRecord`] verbatim and
/// the rows are told apart by label suffix alone (see [`scenario`]).
#[derive(Debug, Clone, Copy)]
pub struct NetScenario {
    /// Label suffix of this row's records ("" for the saturated row).
    pub suffix: &'static str,
    /// Series name in the printed line and the gate ("network", ...).
    pub what: &'static str,
    /// Deployed tags in the measured run.
    pub n_tags: usize,
    /// Simulated slots.
    pub n_slots: u64,
    /// Timed repetitions (best-of).
    pub samples: usize,
    /// The deployment at `(n_tags, n_slots)`; benches also build it at
    /// other sizes.
    pub deployment: fn(usize, u64) -> Deployment,
}

/// Every tracked network series, one row each. Every row must have a
/// committed baseline in `BENCH_net.json`: `repro --perf --gate` fails
/// on a row without one.
pub const NET_SCENARIOS: &[NetScenario] = &[
    NetScenario {
        suffix: "",
        what: "network",
        n_tags: 10_000,
        n_slots: 1_000,
        samples: 2,
        deployment: saturated,
    },
    NetScenario {
        suffix: "+workload",
        what: "workload",
        n_tags: 10_000,
        n_slots: 1_000,
        samples: 2,
        deployment: poisson_trace,
    },
    NetScenario {
        suffix: "+faults",
        what: "faults",
        n_tags: 10_000,
        n_slots: 1_000,
        samples: 2,
        deployment: combined_faults,
    },
    // One timed sample: this run dwarfs the others.
    NetScenario {
        suffix: "+metro",
        what: "metro",
        n_tags: 1_000_000,
        n_slots: 10_000,
        samples: 1,
        deployment: metro_acceptance_deployment,
    },
];

/// Full-buffer saturation in one cell: every tag always has a frame.
fn saturated(n_tags: usize, n_slots: u64) -> Deployment {
    Deployment::city(n_tags).slots(n_slots)
}

/// The saturated cell driven by Poisson arrivals at offered load 0.05
/// through the per-tag FIFO queues. The trace is generated here, while
/// the deployment is built, so it stays out of the timed run.
fn poisson_trace(n_tags: usize, n_slots: u64) -> Deployment {
    let deployment = saturated(n_tags, n_slots);
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
    deployment.traffic(Traffic::Trace(Arc::new(trace)))
}

/// The saturated cell with every fault class active and the default ARQ
/// on, so the fault bookkeeping and retransmission paths are all on the
/// timed hot path.
fn combined_faults(n_tags: usize, n_slots: u64) -> Deployment {
    saturated(n_tags, n_slots).arq(ArqConfig::default()).faults(
        FaultSpec::none()
            .with_outages(1, 120)
            .with_brownouts(2, 150, 0.25)
            .with_bursts(2, 80, 0.03)
            .with_resets(64),
    )
}

/// The metro acceptance-bar geometry: tags sharded across a 4×4
/// receiver grid with capture on — the `+metro` row at 10⁶ tags, also
/// used by the CI identity test. Its 10⁶ × 10⁴ tag-slots are past the
/// default work budget, so it opts in to them.
pub fn metro_acceptance_deployment(n_tags: usize, n_slots: u64) -> Deployment {
    Deployment::city(n_tags)
        .slots(n_slots)
        .work_budget(10_000_000_000)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
}

/// The row a record label belongs to: the row whose non-empty suffix
/// ends the label, else the saturated row.
pub fn scenario(label: &str) -> &'static NetScenario {
    NET_SCENARIOS
        .iter()
        .filter(|row| label.ends_with(row.suffix))
        .max_by_key(|row| row.suffix.len())
        .expect("the saturated row's empty suffix matches every label")
}

/// Times `row`'s deployment over `table` and returns its record (best
/// of `row.samples` runs, labelled `label` + the row suffix). Building
/// the deployment is untimed. Every timed run must conserve its queues;
/// errs, naming the row, when one does not or when the deployment fails
/// build-time validation.
pub fn measure_net(
    row: &NetScenario,
    table: &Arc<BerTable>,
    label: &str,
) -> Result<NetPerfRecord, String> {
    let sim = (row.deployment)(row.n_tags, row.n_slots)
        .build()
        .map_err(|e| format!("invalid {} deployment: {e}\n  hint: {}", row.what, e.hint()))?
        .into_sim(table.clone());
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..row.samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        check_conserved(row, &run.stats)?;
        delivered = run.stats.delivered;
    }
    Ok(NetPerfRecord {
        unix_time: unix_now(),
        label: format!("{label}{}", row.suffix),
        n_tags: row.n_tags,
        n_slots: row.n_slots,
        elapsed_s: best,
        tag_slots_per_sec: row.n_tags as f64 * row.n_slots as f64 / best,
        delivered,
    })
}

/// Queue conservation of one run of `row` ([`NetStats::queue_conserved`]).
fn check_conserved(row: &NetScenario, stats: &NetStats) -> Result<(), String> {
    if stats.queue_conserved() {
        return Ok(());
    }
    // Without the per-tag and per-delivery vectors: at 10⁶ tags they
    // would bury the counters.
    let counters = NetStats {
        per_tag_delivered: Vec::new(),
        latencies_slots: Vec::new(),
        sojourn_slots: Vec::new(),
        ..stats.clone()
    };
    Err(format!(
        "{} row (label suffix \"{}\") does not conserve its queues: {counters:?}",
        row.what, row.suffix
    ))
}

/// Reads and parses the network series at `path` once and returns the
/// newest record of each row, keyed by [`NetScenario::suffix`]. A
/// malformed file is one error, not one per row. Same read-before-append
/// caveat as [`last_sweep_record`].
pub fn net_baselines(path: &str) -> Result<BTreeMap<&'static str, NetPerfRecord>, String> {
    let mut newest = BTreeMap::new();
    for rec in read_series::<NetPerfRecord>(path)? {
        newest.insert(scenario(&rec.label).suffix, rec);
    }
    Ok(newest)
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
    read_series(path)?
        .pop()
        .ok_or_else(|| format!("{path} has no records"))
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
        let series = Series {
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

    fn write_net_series(path: &str, labels: &[&str]) {
        let series = Series {
            series: labels
                .iter()
                .map(|&label| NetPerfRecord {
                    unix_time: 0,
                    label: label.into(),
                    n_tags: 10_000,
                    n_slots: 1_000,
                    elapsed_s: 1.0,
                    tag_slots_per_sec: 1.0,
                    delivered: 1,
                })
                .collect(),
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
    }

    #[test]
    fn net_baseline_lookups_split_the_populations() {
        let dir = std::env::temp_dir().join("fmbs_perf_workload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        // Saturated-only series: no other row has a baseline yet.
        write_net_series(path, &["old", "new"]);
        let baselines = net_baselines(path).unwrap();
        assert_eq!(baselines[""].label, "new");
        assert_eq!(baselines.len(), 1);
        // Mixed series: each row finds its own newest record, not the
        // file's last record.
        write_net_series(
            path,
            &["old", "ci+workload", "new", "ci+faults", "pr9+metro"],
        );
        let baselines = net_baselines(path).unwrap();
        assert_eq!(baselines[""].label, "new");
        assert_eq!(baselines["+workload"].label, "ci+workload");
        assert_eq!(baselines["+faults"].label, "ci+faults");
        assert_eq!(baselines["+metro"].label, "pr9+metro");
        assert_eq!(scenario("ci+workload").what, "workload");
        assert_eq!(scenario("ci").suffix, "");
        assert_eq!(scenario("ci+faults").what, "faults");
        assert_eq!(scenario("pr9+metro").what, "metro");
        assert_eq!(scenario("pr9").what, "network");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_baselines_parses_once_and_fails_once() {
        let dir = std::env::temp_dir().join("fmbs_perf_baselines_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        // A malformed file yields a single error from the one shared
        // parse, not one per row.
        std::fs::write(path, "{ not json").unwrap();
        let err = net_baselines(path).unwrap_err();
        assert!(err.contains("not a perf series"), "{err}");
        // One parse fills every row.
        write_net_series(path, &["a", "a+workload", "a+faults", "a+metro", "b"]);
        let baselines = net_baselines(path).unwrap();
        for row in NET_SCENARIOS {
            assert!(baselines.contains_key(row.suffix), "{row:?}");
        }
        assert_eq!(baselines[""].label, "b");
        assert_eq!(baselines["+workload"].label, "a+workload");
        assert_eq!(baselines["+faults"].label, "a+faults");
        assert_eq!(baselines["+metro"].label, "a+metro");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn committed_bench_net_has_a_baseline_for_every_row() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        let records: Vec<NetPerfRecord> = read_series(path).unwrap();
        for rec in &records {
            let claims = NET_SCENARIOS
                .iter()
                .filter(|r| !r.suffix.is_empty() && rec.label.ends_with(r.suffix))
                .count();
            assert!(claims <= 1, "{} ends in two row suffixes", rec.label);
            let row = scenario(&rec.label);
            assert_eq!(
                (rec.n_tags, rec.n_slots),
                (row.n_tags, row.n_slots),
                "{} is not a {} record",
                rec.label,
                row.what
            );
        }
        let baselines = net_baselines(path).unwrap();
        for row in NET_SCENARIOS {
            assert!(
                baselines.contains_key(row.suffix),
                "no committed baseline for the {} row (suffix \"{}\")",
                row.what,
                row.suffix
            );
        }
    }

    #[test]
    fn conservation_failure_names_the_row() {
        let row = scenario("+workload");
        let conserved = NetStats {
            offered: 10,
            delivered: 3,
            still_queued: 7,
            ..NetStats::default()
        };
        assert!(check_conserved(row, &conserved).is_ok());
        let leaky = NetStats {
            still_queued: 6,
            per_tag_delivered: vec![1; 1_000],
            ..conserved
        };
        let err = check_conserved(row, &leaky).unwrap_err();
        assert!(
            err.contains("workload row") && err.contains("+workload"),
            "{err}"
        );
        assert!(
            err.contains("offered: 10") && err.contains("still_queued: 6"),
            "{err}"
        );
        assert!(err.contains("per_tag_delivered: []"), "{err}");
    }

    #[test]
    fn measure_net_labels_and_checks_a_small_row() {
        let table = Arc::new(BerTable::calibrate(
            &FastSim,
            &fmbs_net::prelude::BerTableSpec::quick(),
        ));
        let row = NetScenario {
            n_tags: 200,
            n_slots: 200,
            ..*scenario("+workload")
        };
        let rec = measure_net(&row, &table, "t").unwrap();
        assert_eq!(rec.label, "t+workload");
        assert_eq!((rec.n_tags, rec.n_slots), (200, 200));
        assert!(rec.delivered > 0 && rec.tag_slots_per_sec > 0.0, "{rec:?}");
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
        let series: Series<PerfRecord> = serde_json::from_str(text).unwrap();
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
        let series: Vec<PerfRecord> = read_series(path).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "first");
        assert_eq!(series[1].label, "second");
        let _ = std::fs::remove_file(path);
    }
}

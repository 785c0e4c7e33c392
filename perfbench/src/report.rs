//! What one benchmark run reports: correctness checks, the end-to-end or
//! per-layer metrics, the counts that must repeat exactly, and the
//! process measurements (CPU time, peak RSS) read from `/proc`.

use fmbs_bench::experiments::REGISTRY;
use fmbs_obs::Collector;
use std::collections::BTreeMap;
use std::path::Path;

/// The 14 stages `fmbs-obs` names; each gets `calls` and `self_cpu_s`.
const STAGES: [&str; 14] = [
    fmbs_obs::stages::HOST_AUDIO,
    fmbs_obs::stages::PAYLOAD_SYNTH,
    fmbs_obs::stages::RF_FRONT_END,
    fmbs_obs::stages::FFT_CONV,
    fmbs_obs::stages::SWEEP_POINT,
    fmbs_obs::stages::BER_LOOKUP,
    fmbs_obs::stages::BER_CALIBRATE,
    fmbs_obs::stages::PACKET_MODEL,
    fmbs_obs::stages::NET_ENGINE,
    fmbs_obs::stages::ARQ_RETX,
    fmbs_obs::stages::FAULT_SCHEDULE,
    fmbs_obs::stages::TRACE_GEN,
    fmbs_obs::stages::CAMPAIGN_CITY,
    fmbs_obs::stages::CAMPAIGN_FIGURE,
];

/// The sweep-cache counters `fmbs-core::sim::cache` bumps.
const CACHE_COUNTERS: [&str; 6] = [
    "cache.host_hits",
    "cache.host_misses",
    "cache.payload_hits",
    "cache.payload_misses",
    "cache.front_end_hits",
    "cache.front_end_misses",
];

/// Stages that run on a sweep-cache miss. Two sweep workers can miss
/// the same key at once (the cache computes outside its lock), so these
/// call counts, like the hit/miss split, depend on thread scheduling and
/// stay out of the exact-repeat set; hits + misses per kind is exact.
const MISS_STAGES: [&str; 3] = [
    fmbs_obs::stages::HOST_AUDIO,
    fmbs_obs::stages::PAYLOAD_SYNTH,
    fmbs_obs::stages::RF_FRONT_END,
];

/// The corpus cities the campaign workload times one by one.
pub const CITIES: [&str; 4] = ["boulder", "portland", "seattle", "spokane"];

/// The fixed `metro.*` per-layer names (timings, ratios, `NetStats`).
const METRO_LAYERS: [(&str, &str); 14] = [
    ("metro.calibrate_s", "s"),
    ("metro.trace_gen_s", "s"),
    ("metro.build_s", "s"),
    ("metro.sim_new_s", "s"),
    ("metro.engine_serial_s", "s"),
    ("metro.parallel_efficiency", "ratio"),
    ("metro.domain_imbalance", "ratio"),
    ("metro.busy_slot_frac", "ratio"),
    ("metro.attempts", "count"),
    ("metro.delivered", "count"),
    ("metro.collided", "count"),
    ("metro.corrupt", "count"),
    ("metro.offered", "count"),
    ("metro.still_queued", "count"),
];

/// Every per-layer metric, in report order. Each workload prints all of
/// them; a layer a workload does not reach reads 0, which is itself the
/// "predicted flat" half of the metric -> workload map in the README.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = REGISTRY
        .iter()
        .map(|s| (format!("figure.{}.wall_s", s.id), "s"))
        .collect();
    for s in STAGES {
        out.push((format!("stage.{s}.calls"), "count"));
        out.push((format!("stage.{s}.self_cpu_s"), "s"));
    }
    out.extend(CACHE_COUNTERS.iter().map(|c| (c.to_string(), "count")));
    out.push(("campaign.corpus_load_s".into(), "s"));
    out.push(("campaign.invariant_s".into(), "s"));
    out.extend(
        CITIES
            .iter()
            .map(|c| (format!("campaign.city.{c}.wall_s"), "s")),
    );
    out.push(("campaign.manifest_diff_s".into(), "s"));
    out.push(("check.expect_s".into(), "s"));
    out.push(("check.golden_s".into(), "s"));
    out.extend(METRO_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out.push(("cpu_util".into(), "ratio"));
    out.push(("trace_overhead_frac".into(), "ratio"));
    out
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One run's outcome.
pub struct Report {
    attempted: u64,
    failed: u64,
    trace: bool,
    metrics: Vec<Metric>,
    /// Metrics printed in the human-readable table only (workload-specific
    /// rates and `failed_frac`, which the final JSON line carries as
    /// `attempted`/`failed`).
    extras: Vec<Metric>,
    /// Counts that must read the same on every run of one seed.
    pub counts: BTreeMap<String, u64>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        let metrics = if trace {
            per_layer_names()
                .into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect()
        } else {
            Vec::new()
        };
        Report {
            attempted: 0,
            failed: 0,
            trace,
            metrics,
            extras: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records one correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL {}", what());
        }
    }

    /// Sets the end-to-end metrics (untraced runs).
    pub fn end_to_end(&mut self, wall_s: f64, setup_s: f64, peak_rss_mb: f64, work_per_s: f64) {
        assert!(!self.trace, "end-to-end metrics come from untraced runs");
        for (name, value, unit) in [
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("work_per_s", work_per_s, "1/s"),
        ] {
            self.metrics.push(Metric {
                name: name.into(),
                value,
                unit,
            });
        }
    }

    /// Sets one per-layer metric (traced runs); the name must be one of
    /// [`per_layer_names`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = value;
    }

    /// A metric for the human-readable table only.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Stage and cache-counter per-layer metrics from a collector, and
    /// the schedule-independent ones among them as exact-repeat counts.
    pub fn obs_layers(&mut self, c: &Collector) {
        let stages: BTreeMap<&str, fmbs_obs::StageStats> = c.stage_stats().into_iter().collect();
        for s in STAGES {
            let st = stages.get(s).copied().unwrap_or_default();
            self.layer(&format!("stage.{s}.calls"), st.calls as f64);
            self.layer(
                &format!("stage.{s}.self_cpu_s"),
                st.self_nanos as f64 * 1e-9,
            );
            if !MISS_STAGES.contains(&s) {
                self.counts.insert(format!("stage.{s}.calls"), st.calls);
            }
        }
        for name in CACHE_COUNTERS {
            self.layer(name, c.counter_value(name) as f64);
        }
        for kind in ["host", "payload", "front_end"] {
            let lookups = c.counter_value(&format!("cache.{kind}_hits"))
                + c.counter_value(&format!("cache.{kind}_misses"));
            self.counts.insert(format!("cache.{kind}_lookups"), lookups);
        }
    }

    /// Compares `counts` with the counts an earlier run of the same
    /// binary, workload, seed and mode stored under `dir`, or stores them
    /// when there are none yet. Any difference is a failed check.
    pub fn exact_repeat(&mut self, dir: &Path, key: &str) -> Result<(), String> {
        let path = dir.join(format!("{key}.txt"));
        let text: String = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        match std::fs::read_to_string(&path) {
            Ok(before) => {
                let before: BTreeMap<&str, &str> =
                    before.lines().filter_map(|l| l.split_once(' ')).collect();
                let now = self.counts.clone();
                for (k, v) in &now {
                    let was = before.get(k.as_str()).copied().unwrap_or("absent");
                    self.check(was == v.to_string(), || {
                        format!("exact repeat: {k} = {v}, an earlier run of this seed read {was}")
                    });
                }
                self.check(before.len() == now.len(), || {
                    format!(
                        "exact repeat: {} counts, an earlier run of this seed had {}",
                        now.len(),
                        before.len()
                    )
                });
                Ok(())
            }
            Err(_) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
            }
        }
    }

    /// Prints the human-readable table, then the result as the last line:
    /// one JSON object with `correct`, `attempted`, `failed`, `metrics`.
    pub fn print(&self, workload: &str) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload}: {} checks, {} failed",
            self.attempted, self.failed
        );
        let failed = Metric {
            name: "failed_frac".into(),
            value: failed_frac,
            unit: "ratio",
        };
        for m in self.metrics.iter().chain(&self.extras).chain([&failed]) {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is a
/// bug in the benchmark, not a value to print.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Process CPU time (user + system, every thread, finished ones
/// included) in seconds, from `/proc/self/stat`. Being measured from
/// outside the program, `cpu / (wall * nproc)` cannot exceed 1.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15; field 2 (the command) may
    // hold spaces, so count from the last ')'. Linux reports them in
    // USER_HZ ticks, which is 100 on every architecture it supports.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let rest = &stat[stat
        .rfind(')')
        .expect("/proc/self/stat has a command field")
        + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Worker threads the workloads may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

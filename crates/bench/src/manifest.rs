//! Run manifests: one canonical-JSON record per `repro` invocation.
//!
//! A manifest answers "what produced these figures?" without re-running
//! anything: figure ids and shapes, grid density, simulation tier, the
//! per-stage timing/counter snapshot of the run's [`fmbs_obs`]
//! collector and the working tree's `git describe`. It is rendered
//! through the goldens' canonical-JSON writer
//! ([`crate::check::canonical_value`]), so a manifest re-canonicalizes
//! to itself byte for byte — which is exactly what [`validate`] checks
//! and what CI runs against the smoke manifest.

use crate::check::canonical_value;
use fmbs_obs::Collector;
use serde::{Serialize, Value};

/// Schema version stamped into every manifest.
pub const MANIFEST_VERSION: u32 = 1;

/// One figure regenerated by the invocation.
#[derive(Debug, Clone)]
pub struct FigureEntry {
    /// The figure id (`fig4a`, `network_capacity`, ...).
    pub id: String,
    /// The figure title.
    pub title: String,
    /// Series in the rendered experiment.
    pub n_series: usize,
    /// Points summed over all series.
    pub n_points: usize,
    /// Wall-clock seconds spent regenerating it.
    pub wall_s: f64,
}

impl FigureEntry {
    /// Captures an experiment's shape plus its measured wall time.
    pub fn from_experiment(e: &crate::report::Experiment, wall_s: f64) -> Self {
        FigureEntry {
            id: e.id.clone(),
            title: e.title.clone(),
            n_series: e.series.len(),
            n_points: e.series.iter().map(|s| s.points.len()).sum(),
            wall_s,
        }
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (e.g. a source tarball).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The observability snapshot: per-stage timings (calls, total and
/// self seconds), counters, and span-drop accounting.
fn obs_snapshot(c: &Collector) -> Value {
    let stages = c
        .stage_stats()
        .into_iter()
        .map(|(name, s)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("calls".into(), s.calls.to_value()),
                    ("total_s".into(), (s.total_nanos as f64 * 1e-9).to_value()),
                    ("self_s".into(), (s.self_nanos as f64 * 1e-9).to_value()),
                ]),
            )
        })
        .collect();
    let counters = c
        .counters()
        .into_iter()
        .map(|(name, v)| (name.to_string(), v.to_value()))
        .collect();
    let (spans, dropped) = c.spans();
    Value::Map(vec![
        ("stages".into(), Value::Map(stages)),
        ("counters".into(), Value::Map(counters)),
        ("spans_recorded".into(), (spans.len() as u64).to_value()),
        ("spans_dropped".into(), dropped.to_value()),
    ])
}

/// Builds the manifest value tree for one `repro` invocation.
///
/// `collector` is the run's installed observability collector, when one
/// was active (`--profile` runs); without one the stage/counter block
/// reports empty tables rather than being omitted, so the schema is
/// stable either way.
pub fn build(
    grid_label: &str,
    tier_label: &str,
    figures: &[FigureEntry],
    collector: Option<&Collector>,
) -> Value {
    let figure_values: Vec<Value> = figures
        .iter()
        .map(|f| {
            Value::Map(vec![
                ("id".into(), f.id.to_value()),
                ("title".into(), f.title.to_value()),
                ("n_series".into(), f.n_series.to_value()),
                ("n_points".into(), f.n_points.to_value()),
                ("wall_s".into(), f.wall_s.to_value()),
            ])
        })
        .collect();
    let obs = match collector {
        Some(c) => obs_snapshot(c),
        None => Value::Map(vec![
            ("stages".into(), Value::Map(Vec::new())),
            ("counters".into(), Value::Map(Vec::new())),
            ("spans_recorded".into(), 0u64.to_value()),
            ("spans_dropped".into(), 0u64.to_value()),
        ]),
    };
    Value::Map(vec![
        ("manifest_version".into(), MANIFEST_VERSION.to_value()),
        ("generator".into(), "repro".to_value()),
        ("git_describe".into(), git_describe().to_value()),
        ("grid".into(), grid_label.to_value()),
        ("tier".into(), tier_label.to_value()),
        // Per-point seeds are not free parameters: every sweep point's
        // seed is a splitmix64 hash of its grid coordinates, so the
        // grid shape above pins them completely.
        (
            "seed_model".into(),
            "splitmix64(figure base seed, grid coordinates)".to_value(),
        ),
        ("figures".into(), Value::Seq(figure_values)),
        ("observability".into(), obs),
    ])
}

/// Writes a manifest in canonical JSON; returns the rendered text.
pub fn write(path: &str, manifest: &Value) -> Result<String, String> {
    let text = canonical_value(manifest);
    std::fs::write(path, &text).map_err(|e| format!("write manifest {path}: {e}"))?;
    Ok(text)
}

/// Validates a written manifest: it must parse as JSON and
/// re-canonicalize to exactly the bytes on disk (i.e. it *is*
/// canonical), and carry a manifest version this binary understands.
pub fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read manifest {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text)
        .map_err(|e| format!("manifest {path} is not valid JSON: {e}"))?;
    let version = v
        .get_field("manifest_version")
        .map_err(|e| format!("manifest {path}: {e}"))
        .and_then(|f| match f {
            Value::U64(u) => Ok(*u),
            other => Err(format!("manifest {path}: version is {}", other.kind())),
        })?;
    if version > MANIFEST_VERSION as u64 {
        return Err(format!(
            "manifest {path} has version {version}, this binary understands <= {MANIFEST_VERSION}"
        ));
    }
    let canon = canonical_value(&v);
    if canon != text {
        return Err(format!(
            "manifest {path} is not canonical JSON \
             (re-canonicalizing yields {} bytes, file has {})",
            canon.len(),
            text.len(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Value {
        let collector = fmbs_obs::Collector::new();
        {
            let _guard = fmbs_obs::install(Some(collector.clone()));
            {
                fmbs_obs::span!(fmbs_obs::stages::SWEEP_POINT);
            }
            fmbs_obs::counter!("cache.host_hits", 3);
        }
        let figures = vec![FigureEntry {
            id: "fig4a".into(),
            title: "example".into(),
            n_series: 2,
            n_points: 10,
            wall_s: 0.5,
        }];
        build("quick", "fast", &figures, Some(&collector))
    }

    #[test]
    fn manifest_is_canonical_and_validates() {
        let dir = std::env::temp_dir().join("fmbs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let path = path.to_str().unwrap();
        let manifest = sample_manifest();
        let text = write(path, &manifest).unwrap();
        // Canonical output round-trips: parse + re-render is identity.
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(canonical_value(&parsed), text);
        validate(path).unwrap();
        // The collector's data actually landed.
        assert!(text.contains("\"sweep_point\""));
        assert!(text.contains("\"cache.host_hits\": 3"));
        // Corrupt the file: validation must notice non-canonical bytes.
        std::fs::write(path, text.replace(": 3", ":  3")).unwrap();
        assert!(validate(path).unwrap_err().contains("not canonical"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn future_manifest_versions_are_rejected() {
        let dir = std::env::temp_dir().join("fmbs_manifest_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let path = path.to_str().unwrap();
        let manifest = Value::Map(vec![(
            "manifest_version".into(),
            Value::U64(MANIFEST_VERSION as u64 + 1),
        )]);
        write(path, &manifest).unwrap();
        assert!(validate(path).unwrap_err().contains("version"));
        let _ = std::fs::remove_file(path);
    }
}

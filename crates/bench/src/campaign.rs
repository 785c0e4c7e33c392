//! The campaign runner: figure registry × city corpus under one cache.
//!
//! `repro --campaign` executes every selected figure for every corpus
//! city with a *single* shared [`SweepCache`] installed for the whole
//! grid — the sweep engine adopts an already-installed cache, so the
//! host-audio/payload/front-end work one figure derives is served to
//! every later figure and city. City-invariant figures (any whose
//! [`ExperimentSpec::varies`] lacks [`Vary::City`]) are built once and
//! their digests reused across cities.
//!
//! The per-city output is a *deterministic* canonical-JSON manifest:
//! unlike [`crate::manifest::build`] it deliberately carries no wall
//! times, no `git describe`, no observability counters and no bench
//! baselines — two identical campaign runs must produce byte-identical
//! bytes (property-tested), which is also what makes the committed
//! campaign goldens diffable in CI. Each figure appears as its shape
//! plus an FNV-1a digest of its canonical golden JSON, so any numeric
//! drift anywhere in a figure flips its city's manifest.

use crate::check::{canonical_json, canonical_value};
use crate::experiments::{BuildCtx, ExperimentSpec, Grid, Vary};
use crate::manifest::MANIFEST_VERSION;
use fmbs_core::sim::cache::{self, CacheStats, SweepCache};
use fmbs_net::prelude::CityScenario;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One figure cell of the campaign grid: shape + content digest.
#[derive(Debug, Clone)]
pub struct CampaignFigure {
    /// The figure id (`network_capacity`, ...).
    pub id: String,
    /// The rendered title (city variants embed the city id).
    pub title: String,
    /// Series in the experiment.
    pub n_series: usize,
    /// Points summed over all series.
    pub n_points: usize,
    /// FNV-1a 64 digest (hex) of the figure's canonical golden JSON.
    pub digest: String,
    /// Whether the figure was rebuilt for this city (`true`) or reused
    /// from the city-invariant pass (`false`).
    pub city_specific: bool,
}

/// One city's campaign result: its manifest value tree plus the
/// summary-table ingredients.
#[derive(Debug, Clone)]
pub struct CityRun {
    /// The city id (corpus filename stem).
    pub id: String,
    /// The corpus description line.
    pub description: String,
    /// The deterministic per-city manifest.
    pub manifest: Value,
    /// Figures in the manifest.
    pub figures: usize,
    /// Of those, rebuilt for this city.
    pub city_figures: usize,
    /// Points summed over all figures.
    pub points: usize,
}

/// A finished campaign: per-city runs plus the shared cache's counters.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Per-city results, in corpus (filename) order.
    pub cities: Vec<CityRun>,
    /// Counters of the one cache every figure and city shared.
    pub cache: CacheStats,
}

/// FNV-1a 64-bit — the digest is a drift detector for canonical JSON,
/// not a security boundary, and a dependency-free hash keeps the
/// manifest reproducible everywhere.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn grid_label(grid: Grid) -> &'static str {
    match grid {
        Grid::Quick => "quick",
        Grid::Full => "full",
    }
}

fn figure_cell(e: &crate::report::Experiment, city_specific: bool) -> CampaignFigure {
    let canonical = canonical_json(e);
    CampaignFigure {
        id: e.id.clone(),
        title: e.title.clone(),
        n_series: e.series.len(),
        n_points: e.series.iter().map(|s| s.points.len()).sum(),
        digest: format!("{:016x}", fnv1a64(canonical.as_bytes())),
        city_specific,
    }
}

/// Builds the deterministic per-city campaign manifest value tree. The
/// full corpus scenario is embedded, so the manifest alone answers
/// "what environment produced these digests".
pub fn build_city_manifest(
    grid: Grid,
    city: &CityScenario,
    n_cities: usize,
    figures: &[CampaignFigure],
) -> Value {
    let figure_values: Vec<Value> = figures
        .iter()
        .map(|f| {
            Value::Map(vec![
                ("id".into(), f.id.to_value()),
                ("title".into(), f.title.to_value()),
                ("n_series".into(), f.n_series.to_value()),
                ("n_points".into(), f.n_points.to_value()),
                ("digest".into(), f.digest.to_value()),
                ("city_specific".into(), f.city_specific.to_value()),
            ])
        })
        .collect();
    Value::Map(vec![
        ("manifest_version".into(), MANIFEST_VERSION.to_value()),
        ("generator".into(), "repro --campaign".to_value()),
        ("grid".into(), grid_label(grid).to_value()),
        (
            "campaign".into(),
            Value::Map(vec![
                ("city".into(), city.id.to_value()),
                ("cities".into(), (n_cities as u64).to_value()),
            ]),
        ),
        ("scenario".into(), city.to_value()),
        (
            "seed_model".into(),
            "splitmix64(figure base seed, grid coordinates)".to_value(),
        ),
        ("figures".into(), Value::Seq(figure_values)),
    ])
}

/// Runs the campaign grid: every spec × every city, one shared cache.
///
/// City-invariant figures build once (before the first city) and their
/// cells are reused; city-capable figures ([`Vary::City`]) rebuild per
/// city with the city in their [`BuildCtx`]. Everything runs under one
/// installed [`SweepCache`], which the sweep engine adopts instead of
/// creating per-sweep caches — the second figure onward sees hits on
/// work the first derived.
///
/// `progress` receives one human-readable line per completed figure —
/// a full-grid campaign runs for a long time, and the caller decides
/// whether those lines reach a terminal (`repro` sends them to stderr)
/// or nowhere (tests pass `|_| {}`).
pub fn run_campaign(
    grid: Grid,
    cities: &[CityScenario],
    specs: &[&ExperimentSpec],
    progress: impl Fn(&str),
) -> CampaignRun {
    let shared = SweepCache::new();
    let _guard = cache::install(Some(shared.clone()));

    let n_invariant = specs.iter().filter(|s| !s.reads(Vary::City)).count();
    let invariant: BTreeMap<&str, CampaignFigure> = specs
        .iter()
        .filter(|s| !s.reads(Vary::City))
        .enumerate()
        .map(|(i, s)| {
            let e = {
                fmbs_obs::span!(fmbs_obs::stages::CAMPAIGN_FIGURE);
                (s.build)(grid)
            };
            progress(&format!("  invariant {}/{}: {}", i + 1, n_invariant, s.id));
            (s.id, figure_cell(&e, false))
        })
        .collect();

    let city_runs = cities
        .iter()
        .enumerate()
        .map(|(ci, city)| {
            fmbs_obs::span!(fmbs_obs::stages::CAMPAIGN_CITY);
            progress(&format!("city {} ({}/{})", city.id, ci + 1, cities.len()));
            let figures: Vec<CampaignFigure> = specs
                .iter()
                .map(|s| {
                    if !s.reads(Vary::City) {
                        return invariant[s.id].clone();
                    }
                    let e = {
                        fmbs_obs::span!(fmbs_obs::stages::CAMPAIGN_FIGURE);
                        (s.at)(&BuildCtx {
                            city: Some(city),
                            ..BuildCtx::new(grid)
                        })
                    };
                    progress(&format!("  {}: {}", city.id, s.id));
                    figure_cell(&e, true)
                })
                .collect();
            CityRun {
                id: city.id.clone(),
                description: city.description.clone(),
                manifest: build_city_manifest(grid, city, cities.len(), &figures),
                figures: figures.len(),
                city_figures: figures.iter().filter(|f| f.city_specific).count(),
                points: figures.iter().map(|f| f.n_points).sum(),
            }
        })
        .collect();

    CampaignRun {
        cities: city_runs,
        cache: shared.stats(),
    }
}

/// The manifest's canonical text — what lands on disk and what the
/// determinism property compares.
pub fn manifest_text(run: &CityRun) -> String {
    canonical_value(&run.manifest)
}

/// Renders the cross-city summary table plus the shared-cache line.
pub fn summary_table(run: &CampaignRun) -> String {
    let mut out = String::new();
    let id_w = run
        .cities
        .iter()
        .map(|c| c.id.len())
        .chain(["city".len()])
        .max()
        .unwrap_or(4);
    out.push_str(&format!(
        "{:<id_w$}  {:>7}  {:>9}  {:>6}  description\n",
        "city", "figures", "city-spec", "points"
    ));
    for c in &run.cities {
        out.push_str(&format!(
            "{:<id_w$}  {:>7}  {:>9}  {:>6}  {}\n",
            c.id, c.figures, c.city_figures, c.points, c.description
        ));
    }
    let cache = &run.cache;
    out.push_str(&format!(
        "shared cache: host {}/{} payload {}/{} front-end {}/{} (hits/misses)\n",
        cache.host_hits,
        cache.host_misses,
        cache.payload_hits,
        cache.payload_misses,
        cache.front_end_hits,
        cache.front_end_misses,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use proptest::prelude::*;

    fn corpus_dir() -> &'static std::path::Path {
        std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus"))
    }

    fn corpus_cities() -> Vec<CityScenario> {
        fmbs_net::corpus::load_corpus(corpus_dir()).unwrap()
    }

    // Named in corpus/README.md: the committed corpus files must be
    // canonical JSON so `canonical_value` of a parse (and of the typed
    // scenario) reproduces the bytes on disk — the same byte-identity
    // contract the campaign manifests live under.
    #[test]
    fn corpus_files_recanonicalize_byte_identically() {
        let mut checked = 0usize;
        for entry in std::fs::read_dir(corpus_dir()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(
                canonical_value(&parsed),
                text,
                "{} is not canonical JSON (sorted keys, 2-space indent, trailing newline)",
                path.display(),
            );
            let city: CityScenario = serde_json::from_str(&text).unwrap();
            assert_eq!(
                canonical_value(&city.to_value()),
                text,
                "{} does not round-trip through CityScenario byte-identically",
                path.display(),
            );
            checked += 1;
        }
        assert!(checked >= 4, "expected >= 4 corpus cities, found {checked}");
    }

    // The shared install is what distinguishes a campaign from running
    // the figures back to back: the second figure's host/payload work is
    // served from what the first derived, so the combined run misses
    // less than the two figures each under their own cache.
    #[test]
    fn campaign_cache_is_shared_across_figures() {
        let cities = corpus_cities();
        let one_city = &cities[..1];
        let latency = [experiments::spec_by_id("workload_slo_latency").unwrap()];
        let miss = [experiments::spec_by_id("workload_slo_miss").unwrap()];
        let both = [latency[0], miss[0]];
        let a = run_campaign(Grid::Quick, one_city, &latency, |_| {});
        let b = run_campaign(Grid::Quick, one_city, &miss, |_| {});
        let combined = run_campaign(Grid::Quick, one_city, &both, |_| {});
        assert!(
            combined.cache.host_hits > 0,
            "combined campaign saw no host-audio cache hits at all",
        );
        assert!(
            combined.cache.host_misses < a.cache.host_misses + b.cache.host_misses,
            "combined campaign missed {} times, the figures alone missed {} + {}: the \
             second figure did not adopt the installed cache",
            combined.cache.host_misses,
            a.cache.host_misses,
            b.cache.host_misses,
        );
    }

    // The strict capture claim, in every corpus city: with the city's
    // margin the collision rate never rises at any density of the quick
    // grid, and at the densest it falls. A city with one receiver cell
    // (boulder) holds it too, since its one domain carries received
    // powers like any other. Goodput is not claimed: a margin can cost a
    // little goodput through backoff dynamics.
    #[test]
    fn capture_lowers_collisions_in_every_corpus_city() {
        let spec = experiments::spec_by_id("metro_scale_capture").unwrap();
        for city in corpus_cities() {
            let e = (spec.at)(&BuildCtx {
                city: Some(&city),
                ..BuildCtx::new(Grid::Quick)
            });
            let (id, m) = (&city.id, city.capture_margin_db);
            let points = |label: String| {
                let s = e.series.iter().find(|s| s.label == label);
                s.unwrap_or_else(|| panic!("{id}: no series {label:?}"))
                    .points
                    .clone()
            };
            let off = points("collision rate, capture off".into());
            let on = points(format!("collision rate, {m} dB capture margin"));
            assert_eq!(off.len(), on.len());
            for (&(x, y_off), &(_, y_on)) in off.iter().zip(&on) {
                assert!(y_on <= y_off, "{id}: {x} tags, on {y_on} > off {y_off}");
            }
            let (&(x, y_off), &(_, y_on)) = (off.last().unwrap(), on.last().unwrap());
            assert!(y_on < y_off, "{id}: {x} tags, on {y_on} !< off {y_off}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        // The acceptance property: two identical campaign runs produce
        // byte-identical per-city manifests, whichever corpus city is
        // drawn — wall times, git state and cache counters are excluded
        // by construction.
        #[test]
        fn campaign_manifests_are_byte_identical_run_to_run(
            city_idx in any::<prop::sample::Index>(),
        ) {
            let cities = corpus_cities();
            let city = std::slice::from_ref(&cities[city_idx.index(cities.len())]);
            let specs = [experiments::spec_by_id("network_capacity").unwrap()];
            let first = run_campaign(Grid::Quick, city, &specs, |_| {});
            let second = run_campaign(Grid::Quick, city, &specs, |_| {});
            prop_assert_eq!(
                manifest_text(&first.cities[0]),
                manifest_text(&second.cities[0])
            );
        }
    }

    #[test]
    fn fnv_digest_is_pinned() {
        // Pinned to the published FNV-1a test vectors so the committed
        // manifest digests never silently change meaning.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn city_manifest_is_canonical_and_versioned() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let cities = fmbs_net::corpus::load_corpus(std::path::Path::new(corpus)).unwrap();
        let figures = vec![CampaignFigure {
            id: "network_capacity".into(),
            title: "example".into(),
            n_series: 4,
            n_points: 20,
            digest: format!("{:016x}", fnv1a64(b"example")),
            city_specific: true,
        }];
        let manifest = build_city_manifest(Grid::Quick, &cities[0], cities.len(), &figures);
        let text = canonical_value(&manifest);
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(canonical_value(&parsed), text);
        assert!(text.contains("\"manifest_version\": 1"));
        assert!(text.contains("\"generator\": \"repro --campaign\""));
        // The full scenario is embedded.
        assert!(text.contains("\"host_channel\""));
    }
}

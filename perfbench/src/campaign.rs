//! `campaign`: the whole figure registry over the corpus cities under
//! one shared sweep cache (`run_campaign`), each city manifest compared
//! byte for byte with its golden. The same figures as `paper_check`, but
//! warm: cache hits replace synthesis, and the network figures run once
//! per city. Its inputs are the registry and the corpus, with goldens
//! pinning every manifest, so the seed does not change them.
//!
//! Per-city and per-figure times come from timestamping the runner's
//! `progress` lines, so the runner itself is timed from outside.

use crate::report::{cpu_seconds, median, nproc, Report, CITIES};
use crate::{time_setup, timed_passes, Args};
use fmbs_bench::campaign::{manifest_text, run_campaign};
use fmbs_bench::experiments::{ExperimentSpec, Grid, REGISTRY};
use fmbs_core::sim::cache::CacheStats;
use fmbs_net::prelude::{load_corpus, CityScenario};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const CORPUS: &str = "corpus";
const MANIFEST_GOLDENS: &str = "goldens/campaign";

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    points: usize,
    /// Seconds from the start to the first city.
    invariant_s: f64,
    city_wall_s: BTreeMap<String, f64>,
    /// Per figure id, summed over the invariant pass and every city.
    figure_wall_s: BTreeMap<String, f64>,
    manifest_diff_s: f64,
    cache: CacheStats,
    /// Series points per city, for the exact-repeat check (the manifest
    /// diff already pins every figure's shape and content).
    city_points: BTreeMap<String, u64>,
}

fn pass(cities: &[CityScenario], specs: &[&ExperimentSpec], report: &mut Report) -> Pass {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let events: RefCell<Vec<(Instant, String)>> = RefCell::new(Vec::new());
    let run = run_campaign(Grid::Quick, cities, specs, |line| {
        events.borrow_mut().push((Instant::now(), line.to_string()))
    });
    let t_diff = Instant::now();
    for c in &run.cities {
        let path = format!("{MANIFEST_GOLDENS}/{}.json", c.id);
        let golden = std::fs::read_to_string(&path);
        report.check(
            golden.as_deref().is_ok_and(|g| g == manifest_text(c)),
            || {
                format!(
                    "{}: campaign manifest differs from {path} (or is unreadable)",
                    c.id
                )
            },
        );
    }
    let end = Instant::now();

    // Progress lines: "  invariant i/n: <fig>", "city <id> (i/n)" when a
    // city starts, "  <city>: <fig>" when one of its figures is done.
    let events = events.into_inner();
    let mut p = Pass {
        wall_s: end.duration_since(t0).as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        points: run.cities.iter().map(|c| c.points).sum(),
        invariant_s: 0.0,
        city_wall_s: BTreeMap::new(),
        figure_wall_s: BTreeMap::new(),
        manifest_diff_s: end.duration_since(t_diff).as_secs_f64(),
        cache: run.cache,
        city_points: BTreeMap::new(),
    };
    let mut prev = t0;
    let mut city: Option<(String, Instant)> = None;
    for (at, line) in &events {
        let since = at.duration_since(prev).as_secs_f64();
        if let Some(rest) = line.strip_prefix("city ") {
            if let Some((id, start)) = city.take() {
                p.city_wall_s
                    .insert(id, at.duration_since(start).as_secs_f64());
            } else {
                p.invariant_s = at.duration_since(t0).as_secs_f64();
            }
            let id = rest.split_whitespace().next().unwrap_or_default();
            city = Some((id.to_string(), *at));
        } else if let Some((_, fig)) = line.trim_start().split_once(": ") {
            *p.figure_wall_s.entry(fig.to_string()).or_default() += since;
        }
        prev = *at;
    }
    if let Some((id, start)) = city {
        p.city_wall_s
            .insert(id, t_diff.duration_since(start).as_secs_f64());
    }
    for c in &run.cities {
        p.city_points
            .insert(format!("campaign.{}.points", c.id), c.points as u64);
    }
    p
}

fn cache_counts(c: &CacheStats) -> [(&'static str, u64); 6] {
    [
        ("cache.host_hits", c.host_hits as u64),
        ("cache.host_misses", c.host_misses as u64),
        ("cache.payload_hits", c.payload_hits as u64),
        ("cache.payload_misses", c.payload_misses as u64),
        ("cache.front_end_hits", c.front_end_hits as u64),
        ("cache.front_end_misses", c.front_end_misses as u64),
    ]
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let load = || load_corpus(Path::new(CORPUS)).map_err(|e| format!("load corpus: {e}"));
    let setup_s = time_setup(load)?;
    let corpus = load()?;
    let ids: Vec<&str> = corpus.iter().map(|c| c.id.as_str()).collect();
    report.check(ids == CITIES, || {
        format!("corpus cities {ids:?}, the benchmark times {CITIES:?}")
    });
    let specs: Vec<&ExperimentSpec> = REGISTRY.iter().collect();

    if !args.trace {
        let (passes, rss) = timed_passes(args.seconds, || pass(&corpus, &specs, report));
        let first = &passes[0].1;
        for (_, p) in &passes[1..] {
            report.check(p.city_points == first.city_points, || {
                "exact repeat: figure point counts differ between passes".into()
            });
        }
        report.counts.extend(first.city_points.clone());
        let wall = median(&passes.iter().map(|(_, p)| p.wall_s).collect::<Vec<_>>());
        report.end_to_end(wall, setup_s, rss, first.points as f64 / wall);
        report.extra("points_per_s", first.points as f64 / wall, "1/s");
        for (name, v) in cache_counts(&first.cache) {
            report.extra(name, v as f64, "count");
        }
        report.extra("passes", passes.len() as f64, "count");
        return Ok(());
    }

    let untraced = pass(&corpus, &specs, report);
    let collector = fmbs_obs::Collector::new();
    let traced = {
        let _obs = fmbs_obs::install(Some(collector.clone()));
        pass(&corpus, &specs, report)
    };
    report.check(traced.city_points == untraced.city_points, || {
        "exact repeat: figure point counts differ between the untraced and traced passes".into()
    });
    report.counts.extend(traced.city_points.clone());

    for (fig, s) in &traced.figure_wall_s {
        report.layer(&format!("figure.{fig}.wall_s"), *s);
    }
    report.layer("campaign.corpus_load_s", setup_s);
    report.layer("campaign.invariant_s", traced.invariant_s);
    for (city, s) in &traced.city_wall_s {
        report.layer(&format!("campaign.city.{city}.wall_s"), *s);
    }
    report.layer("campaign.manifest_diff_s", traced.manifest_diff_s);
    report.obs_layers(&collector);
    report.layer(
        "cpu_util",
        untraced.cpu_s / (untraced.wall_s * nproc() as f64),
    );
    report.layer("trace_overhead_frac", traced.wall_s / untraced.wall_s - 1.0);
    Ok(())
}

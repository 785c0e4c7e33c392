//! `repro` — regenerate and verify every table and figure of the paper.
//!
//! ```text
//! repro                 # all experiments, quick grids
//! repro --full          # the paper's dense grids (slow)
//! repro fig8a fig11     # a subset (also works with --check/--bless)
//! repro calibration     # the cross-tier calibration family
//! repro --tier physical fig7
//!                       # run a swept figure on the RF-rate physical
//!                       # tier instead of the fast tier (swept physics
//!                       # figures only; see --list)
//! repro --fault outage fault_resilience
//!                       # re-run the fault-resilience family restricted
//!                       # to one injected fault class (outage, brownout,
//!                       # burst, reset)
//! repro --list          # known experiment ids
//! repro --json out/     # also write one JSON file per experiment
//! repro --check         # re-run quick grids, assert every figure's
//!                       # machine-checkable paper expectations and
//!                       # diff against goldens/; non-zero exit on any
//!                       # failure
//! repro --bless         # rewrite the canonical goldens after an
//!                       # intentional physics change
//! repro --goldens dir   # golden directory for --check / --bless
//!                       # (default goldens/)
//! repro --profile network_capacity
//!                       # regenerate with an observability collector
//!                       # installed and print a per-figure stage
//!                       # breakdown (calls, total/self seconds, % of
//!                       # figure wall-time) plus counters
//! repro --profile fig4a --trace-out spans.jsonl
//!                       # additionally export every recorded span as
//!                       # JSON-lines (one object per stage invocation,
//!                       # trailing truncation-accounting line)
//! repro network_capacity --manifest manifest.json
//!                       # write a canonical-JSON run manifest (figure
//!                       # shapes + wall times, grid, tier, seed model,
//!                       # observability snapshot, git describe)
//! repro --validate-manifest manifest.json
//!                       # parse a manifest and assert it is canonical
//!                       # (byte-identical under re-canonicalization)
//! repro --campaign      # every figure x every corpus city under ONE
//!                       # shared sweep cache; prints a cross-city
//!                       # summary table and builds one deterministic
//!                       # canonical manifest per city
//! repro --campaign --corpus corpus/ network_capacity seattle
//!                       # restrict the campaign: bare args may name
//!                       # figures, families or corpus cities
//! repro --campaign --check
//!                       # diff every city manifest byte-for-byte
//!                       # against goldens/campaign/ (quick grid) or
//!                       # goldens/campaign_full/ (--full)
//! repro --campaign --bless
//!                       # rewrite the committed campaign manifests
//! ```
//!
//! Experiment ids resolve through [`fmbs_bench::experiments::REGISTRY`]
//! (unknown ids exit non-zero with near-miss suggestions); swept figures
//! execute on the parallel sweep engine, so `--full` scales with cores.
//! `--check` and `--bless` always use the Quick grid — goldens are
//! quick-grid canonical JSON.

use fmbs_bench::campaign;
use fmbs_bench::check::{self, Tolerance};
use fmbs_bench::experiments::{self, BuildCtx, ExperimentSpec, Grid, Vary, REGISTRY};
use fmbs_bench::manifest::{self, FigureEntry};
use fmbs_bench::report::Experiment;
use fmbs_core::sim::Tier;
use fmbs_net::corpus::CityScenario;
use fmbs_net::faults::FaultKind;
use fmbs_obs::Collector;
use std::sync::Arc;
use std::time::Instant;

/// Spans retained by `--trace-out` before truncation accounting kicks
/// in: enough for every quick-grid figure, bounded so a `--full` run
/// cannot balloon the export.
const TRACE_SPAN_CAP: usize = 1 << 20;

struct Cli {
    full: bool,
    list: bool,
    check: bool,
    bless: bool,
    profile: bool,
    tier: Tier,
    fault: Option<FaultKind>,
    json_dir: Option<String>,
    goldens_dir: String,
    trace_out: Option<String>,
    manifest: Option<String>,
    validate_manifest: Option<String>,
    campaign: bool,
    corpus: String,
    ids: Vec<String>,
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        full: false,
        list: false,
        check: false,
        bless: false,
        profile: false,
        tier: Tier::Fast,
        fault: None,
        json_dir: None,
        goldens_dir: "goldens".into(),
        trace_out: None,
        manifest: None,
        validate_manifest: None,
        campaign: false,
        corpus: "corpus".into(),
        ids: Vec::new(),
    };
    let mut i = 0;
    // The value following a flag: the next arg, unless it is itself a
    // flag.
    let required_value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cli.full = true,
            "--list" => cli.list = true,
            "--check" => cli.check = true,
            // No optional directory value: `repro --bless fig8a` must
            // mean "bless the fig8a subset", not "bless everything into
            // ./fig8a/". The directory comes from --goldens.
            "--bless" => cli.bless = true,
            "--tier" => {
                let name = required_value(&args, i, "--tier");
                i += 1;
                cli.tier = Tier::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown tier: {name}");
                    let near = experiments::suggest_tiers(&name);
                    if !near.is_empty() {
                        eprintln!("  did you mean: {}?", near.join(", "));
                    }
                    let known: Vec<&str> = Tier::ALL.iter().map(|t| t.name()).collect();
                    eprintln!("  known tiers: {}", known.join(", "));
                    std::process::exit(2);
                });
            }
            "--fault" => {
                let name = required_value(&args, i, "--fault");
                i += 1;
                cli.fault = Some(FaultKind::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown fault kind: {name}");
                    let near = experiments::suggest_faults(&name);
                    if !near.is_empty() {
                        eprintln!("  did you mean: {}?", near.join(", "));
                    }
                    let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                    eprintln!("  known fault kinds: {}", known.join(", "));
                    std::process::exit(2);
                }));
            }
            "--json" => {
                cli.json_dir = Some(required_value(&args, i, "--json"));
                i += 1;
            }
            "--goldens" => {
                cli.goldens_dir = required_value(&args, i, "--goldens");
                i += 1;
            }
            "--profile" => cli.profile = true,
            "--trace-out" => {
                cli.trace_out = Some(required_value(&args, i, "--trace-out"));
                i += 1;
            }
            "--manifest" => {
                cli.manifest = Some(required_value(&args, i, "--manifest"));
                i += 1;
            }
            "--validate-manifest" => {
                cli.validate_manifest = Some(required_value(&args, i, "--validate-manifest"));
                i += 1;
            }
            "--campaign" => cli.campaign = true,
            "--corpus" => {
                cli.corpus = required_value(&args, i, "--corpus");
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                std::process::exit(2);
            }
            id => cli.ids.push(id.to_string()),
        }
        i += 1;
    }
    cli
}

/// Resolves experiment ids (all of them when none given); the family
/// ids `calibration`, `workload_slo`, `fault_resilience` and
/// `metro_scale` expand to every figure sharing the prefix; a figure
/// named twice runs once, at its first position; unknown ids exit
/// non-zero with near-miss suggestions.
fn resolve_specs(ids: &[String]) -> Vec<&'static ExperimentSpec> {
    if ids.is_empty() {
        return REGISTRY.iter().collect();
    }
    let mut seen = std::collections::HashSet::new();
    ids.iter()
        .flat_map(|id| {
            let family = experiments::family_specs(id);
            if !family.is_empty() {
                return family;
            }
            vec![experiments::spec_by_id(id).unwrap_or_else(|| {
                eprintln!("unknown experiment id: {id}");
                let near = experiments::suggest_ids(id, 3);
                if !near.is_empty() {
                    eprintln!("  did you mean: {}?", near.join(", "));
                }
                eprintln!("  (repro --list shows all ids)");
                std::process::exit(2);
            })]
        })
        .filter(|spec| seen.insert(spec.id))
        .collect()
}

/// Build-time validation for the metro figures before any regeneration
/// runs: an invalid deployment exits 2 with the typed
/// [`fmbs_net::prelude::DeploymentError`]'s message and hint — the same
/// UX as an unknown id or tier, instead of a panic minutes into a run.
fn require_valid_metro(specs: &[&'static ExperimentSpec], grid: Grid) {
    if !specs.iter().any(|s| s.id.starts_with("metro_scale")) {
        return;
    }
    if let Err(e) = experiments::metro_preflight(grid) {
        eprintln!("invalid metro deployment: {e}");
        eprintln!("  hint: {}", e.hint());
        std::process::exit(2);
    }
}

/// Validates that every resolved figure can run on the requested tier;
/// exits 2 naming the tier-capable figures otherwise.
fn require_tier_capable(specs: &[&'static ExperimentSpec], tier: Tier) {
    if tier == Tier::Fast {
        return;
    }
    for spec in specs {
        if !spec.reads(Vary::Tier) {
            eprintln!(
                "figure {} cannot run on the {} tier: its measurement does not sweep a \
                 simulator (surveys, arithmetic tables and the calibration family run both \
                 tiers or none)",
                spec.id,
                tier.name(),
            );
            eprintln!(
                "  tier-capable figures: {}",
                experiments::ids_varying(Vary::Tier).join(", "),
            );
            std::process::exit(2);
        }
    }
}

/// Validates that every resolved figure accepts a `--fault` restriction
/// (only the fault-resilience family injects faults); exits 2 naming
/// the capable figures otherwise.
fn require_fault_capable(specs: &[&'static ExperimentSpec], fault: Option<FaultKind>) {
    let Some(kind) = fault else {
        return;
    };
    for spec in specs {
        if !spec.reads(Vary::Fault) {
            eprintln!(
                "figure {} does not inject faults: --fault {} only applies to the \
                 fault_resilience family",
                spec.id,
                kind.name(),
            );
            eprintln!(
                "  fault-capable figures: {}",
                experiments::ids_varying(Vary::Fault).join(", "),
            );
            std::process::exit(2);
        }
    }
}

/// When checking the whole registry, a golden file whose id is no longer in
/// the registry means a figure was renamed or removed without cleaning
/// up — flag it rather than letting goldens/ drift.
fn stale_goldens(specs: &[&'static ExperimentSpec], goldens_dir: &str) -> Vec<String> {
    let known: Vec<&str> = specs.iter().map(|s| s.id).collect();
    let Ok(entries) = std::fs::read_dir(goldens_dir) else {
        return Vec::new(); // missing dir is reported per-figure already
    };
    let mut stale: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .filter(|stem| !known.contains(&stem.as_str()))
        .collect();
    stale.sort();
    stale
}

/// `--check`: re-run the quick grids, assert the machine-checkable paper
/// expectations and diff against the committed goldens. `all_ids` says
/// no ids were given, so `specs` is the whole registry.
fn run_check(specs: &[&'static ExperimentSpec], goldens_dir: &str, all_ids: bool) {
    let tol = Tolerance::default();
    let mut failures = 0usize;
    // Only meaningful on the whole registry: a subset check must not
    // flag the figures it was told to skip.
    if all_ids {
        for stem in stale_goldens(specs, goldens_dir) {
            failures += 1;
            println!(
                "FAIL stale golden {}: no registry figure with this id \
                 (renamed or removed? delete the file or re-bless)",
                check::golden_path(goldens_dir, &stem),
            );
        }
    }
    eprintln!(
        "checking {} figure(s) against paper expectations and {goldens_dir}/ ...",
        specs.len(),
    );
    for spec in specs {
        let e = (spec.build)(Grid::Quick);
        let report = check::check_experiment(&e, &(spec.checks)());
        let mut fig_failed = false;
        for o in &report.outcomes {
            if !o.passed {
                fig_failed = true;
                println!("FAIL {} expectation: {}", spec.id, o.description);
                println!("     {}", o.detail);
            }
        }
        match check::load_golden(goldens_dir, spec.id) {
            Ok(golden) => {
                for d in check::diff_experiments(&e, &golden, &tol) {
                    fig_failed = true;
                    match &d.series {
                        Some(s) => println!("FAIL {} golden [{s}]: {}", spec.id, d.detail),
                        None => println!("FAIL {} golden: {}", spec.id, d.detail),
                    }
                }
            }
            Err(e) => {
                fig_failed = true;
                println!("FAIL {} golden: {e}", spec.id);
            }
        }
        if fig_failed {
            failures += 1;
        } else {
            println!(
                "ok   {} ({} expectations, golden matches)",
                spec.id,
                report.outcomes.len(),
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "--check: {failures}/{} figure(s) FAILED (re-run `repro --bless` only for \
             an intentional physics change)",
            specs.len(),
        );
        std::process::exit(1);
    }
    eprintln!("--check: all {} figure(s) pass", specs.len());
}

/// `--bless`: rewrite canonical goldens. Figures that fail their own
/// expectations are not blessed — a golden must never freeze a broken
/// shape.
fn run_bless(specs: &[&'static ExperimentSpec], goldens_dir: &str) {
    let mut failures = 0usize;
    for spec in specs {
        let e = (spec.build)(Grid::Quick);
        let report = check::check_experiment(&e, &(spec.checks)());
        if !report.passed() {
            failures += 1;
            for o in report.outcomes.iter().filter(|o| !o.passed) {
                println!("FAIL {} expectation: {}", spec.id, o.description);
                println!("     {}", o.detail);
            }
            eprintln!("not blessing {}: its own expectations fail", spec.id);
            continue;
        }
        match check::bless(goldens_dir, &e) {
            Ok(path) => println!("blessed {path}"),
            Err(err) => {
                failures += 1;
                eprintln!("bless {} failed: {err}", spec.id);
            }
        }
    }
    if failures > 0 {
        eprintln!("--bless: {failures} figure(s) not blessed");
        std::process::exit(1);
    }
}

/// Campaign goldens are grid-specific: the quick grid is the per-PR
/// smoke surface, the full grid belongs to the scheduled CI job.
fn campaign_goldens_dir(goldens_dir: &str, grid: Grid) -> String {
    match grid {
        Grid::Quick => format!("{goldens_dir}/campaign"),
        Grid::Full => format!("{goldens_dir}/campaign_full"),
    }
}

/// `--campaign`: the figure registry × the city corpus under one shared
/// sweep cache, producing one deterministic canonical manifest per city
/// plus a cross-city summary table.
fn run_campaign_mode(cli: &Cli) {
    // A campaign is a plain fast-tier regeneration of the whole grid;
    // the orthogonal modes either perturb it (--profile adds clock
    // reads, --tier/--fault change figure content) or belong to the
    // per-figure path (--manifest, --trace-out).
    let refused = [
        ("--profile", cli.profile),
        ("--trace-out", cli.trace_out.is_some()),
        ("--manifest", cli.manifest.is_some()),
        ("--fault", cli.fault.is_some()),
        ("--tier", cli.tier != Tier::Fast),
    ];
    for (flag, set) in refused {
        if set {
            eprintln!(
                "{flag} does not combine with --campaign: a campaign is a plain fast-tier \
                 regeneration of the figure x city grid",
            );
            std::process::exit(2);
        }
    }
    if cli.check && cli.bless {
        eprintln!("--check and --bless do not combine: pick one");
        std::process::exit(2);
    }
    if (cli.check || cli.bless) && !cli.ids.is_empty() {
        // A manifest embeds the full selected figure list, so a subset
        // run can never byte-match a committed full-grid manifest.
        eprintln!(
            "--campaign --check/--bless does not take figure or city ids: campaign goldens \
             record the full registry x corpus grid",
        );
        std::process::exit(2);
    }
    let all_cities = match fmbs_net::corpus::load_corpus(std::path::Path::new(&cli.corpus)) {
        Ok(cities) => cities,
        Err(e) => {
            eprintln!("--campaign: {e}");
            std::process::exit(2);
        }
    };
    // Bare args may name figures, families or corpus cities; an unknown
    // name gets near-misses drawn from all three namespaces.
    let mut figure_ids: Vec<String> = Vec::new();
    let mut city_ids: Vec<String> = Vec::new();
    for id in &cli.ids {
        if !experiments::family_specs(id).is_empty() || experiments::spec_by_id(id).is_some() {
            figure_ids.push(id.clone());
        } else if all_cities.iter().any(|c| c.id == *id) {
            city_ids.push(id.clone());
        } else {
            eprintln!("unknown figure or city id: {id}");
            let near = experiments::suggest_among(
                id,
                REGISTRY
                    .iter()
                    .map(|s| s.id)
                    .chain(experiments::FAMILIES.iter().copied())
                    .chain(all_cities.iter().map(|c| c.id.as_str())),
                3,
            );
            if !near.is_empty() {
                eprintln!("  did you mean: {}?", near.join(", "));
            }
            eprintln!(
                "  (repro --list shows figure ids; {}/ holds the city corpus)",
                cli.corpus,
            );
            std::process::exit(2);
        }
    }
    let specs = resolve_specs(&figure_ids);
    let cities: Vec<CityScenario> = if city_ids.is_empty() {
        all_cities
    } else {
        all_cities
            .into_iter()
            .filter(|c| city_ids.contains(&c.id))
            .collect()
    };
    let grid = if cli.full { Grid::Full } else { Grid::Quick };
    eprintln!(
        "campaign: {} figure(s) x {} city(ies) on the {} grid, one shared cache ...",
        specs.len(),
        cities.len(),
        if cli.full { "full" } else { "quick" },
    );
    let run = campaign::run_campaign(grid, &cities, &specs, |line| eprintln!("{line}"));
    // Every manifest must be canonical before anything is written or
    // diffed: parse + re-render is byte identity.
    for c in &run.cities {
        let text = campaign::manifest_text(c);
        let parsed: serde::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("internal error: {} manifest is not valid JSON: {e}", c.id);
            std::process::exit(1);
        });
        if check::canonical_value(&parsed) != text {
            eprintln!(
                "internal error: {} manifest is not canonical under re-canonicalization",
                c.id,
            );
            std::process::exit(1);
        }
    }
    let dir = campaign_goldens_dir(&cli.goldens_dir, grid);
    let mut failures = 0usize;
    // --json is orthogonal to --check/--bless here: the scheduled CI job
    // diffs the goldens and exports the manifests in one regeneration.
    if let Some(json_dir) = &cli.json_dir {
        if let Err(e) = std::fs::create_dir_all(json_dir) {
            eprintln!("create {json_dir}: {e}");
            std::process::exit(1);
        }
        for c in &run.cities {
            let path = format!("{json_dir}/campaign_{}.json", c.id);
            match manifest::write(&path, &c.manifest) {
                Ok(_) => match manifest::validate(&path) {
                    Ok(()) => eprintln!("wrote {path} (validated canonical)"),
                    Err(e) => {
                        failures += 1;
                        eprintln!("FAIL {e}");
                    }
                },
                Err(e) => {
                    failures += 1;
                    eprintln!("{e}");
                }
            }
        }
    }
    if cli.bless {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("create {dir}: {e}");
            std::process::exit(1);
        }
        for c in &run.cities {
            let path = format!("{dir}/{}.json", c.id);
            match manifest::write(&path, &c.manifest) {
                Ok(_) => println!("blessed {path}"),
                Err(e) => {
                    failures += 1;
                    eprintln!("bless {path} failed: {e}");
                }
            }
        }
    } else if cli.check {
        for c in &run.cities {
            let path = format!("{dir}/{}.json", c.id);
            match std::fs::read_to_string(&path) {
                Ok(golden) if golden == campaign::manifest_text(c) => {
                    println!("ok   {} (campaign manifest matches {path})", c.id);
                }
                Ok(_) => {
                    failures += 1;
                    println!(
                        "FAIL {}: campaign manifest differs from {path} (a figure digest \
                         drifted; re-run `repro --campaign --bless` only for an intentional \
                         physics change)",
                        c.id,
                    );
                }
                Err(e) => {
                    failures += 1;
                    println!(
                        "FAIL {}: read {path}: {e} (run `repro --campaign --bless`?)",
                        c.id
                    );
                }
            }
        }
    }
    print!("{}", campaign::summary_table(&run));
    if failures > 0 {
        eprintln!("--campaign: {failures} city manifest(s) FAILED");
        std::process::exit(1);
    }
}

/// Output paths must be creatable *before* minutes of regeneration run:
/// a missing parent directory exits 2 up front with a clear message.
fn require_writable_parent(flag: &str, path: &str) {
    let parent = match std::path::Path::new(path).parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    if !parent.is_dir() {
        eprintln!(
            "{flag} {path}: parent directory `{}` does not exist (create it first; \
             {flag} does not mkdir)",
            parent.display(),
        );
        std::process::exit(2);
    }
}

/// Prints one figure's stage breakdown: calls, total and self CPU-seconds,
/// and each stage's share of the figure's thread capacity. Stage times
/// are summed over every worker thread that ran the stage, so a parallel
/// sweep's self CPU-seconds exceed its wall time; shares are therefore
/// taken of `wall × worker threads`, counting the threads the figure
/// kept busy ([`Collector::busy_workers`]), not the ones the host
/// offers, so a serial figure is measured against one thread
/// ([`profile_coverage`]). Self-times are
/// disjoint (nested stages subtract, and a thread waiting on sweep workers
/// counts no self-time), so the shares add up to the trailing coverage
/// line — "how much of the run's capacity the instrumentation explains"
/// — which cannot exceed 100%.
fn print_profile(id: &str, c: &Collector, wall_s: f64) {
    let stats = c.stage_stats();
    let threads = c.busy_workers().max(1);
    println!("profile {id} (wall {wall_s:.3} s, {threads} worker thread(s)):");
    if stats.is_empty() {
        println!("  no instrumented stages ran (survey/arithmetic figure)");
        return;
    }
    println!(
        "  {:<22} {:>9} {:>12} {:>11} {:>7}",
        "stage", "calls", "total CPU-s", "self CPU-s", "% cap"
    );
    for (name, s) in &stats {
        let self_s = s.self_nanos as f64 * 1e-9;
        println!(
            "  {:<22} {:>9} {:>12.4} {:>11.4} {:>6.1}%",
            name,
            s.calls,
            s.total_nanos as f64 * 1e-9,
            self_s,
            100.0 * profile_coverage(self_s, wall_s, threads),
        );
    }
    let covered = c.self_time_secs();
    println!(
        "  stage self-times cover {covered:.3} CPU-s = {:.1}% of wall × {threads} thread(s)",
        100.0 * profile_coverage(covered, wall_s, threads),
    );
    let counters = c.counters();
    if !counters.is_empty() {
        let rendered: Vec<String> = counters
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        println!("  counters: {}", rendered.join(" "));
    }
}

/// The share of a figure's thread capacity, `wall_s × threads`, that
/// `self_cpu_s` seconds of stage self-time account for. Each busy
/// thread's self-times are disjoint and fit inside the wall time, and no
/// parallel region kept more than `threads` workers busy, so the share
/// is at most 1.
fn profile_coverage(self_cpu_s: f64, wall_s: f64, threads: usize) -> f64 {
    self_cpu_s / (wall_s * threads.max(1) as f64).max(1e-12)
}

/// `--trace-out`: one JSON object per recorded span, plus a trailing
/// accounting line so truncation at the span cap is never silent.
fn write_trace(path: &str, c: &Collector) {
    let (spans, dropped) = c.spans();
    let mut out = String::new();
    for s in &spans {
        out.push_str(&format!(
            "{{\"stage\": \"{}\", \"worker\": {}, \"start_nanos\": {}, \"dur_nanos\": {}}}\n",
            s.stage, s.worker, s.start_nanos, s.dur_nanos,
        ));
    }
    out.push_str(&format!(
        "{{\"spans_recorded\": {}, \"spans_dropped\": {}}}\n",
        spans.len(),
        dropped,
    ));
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("--trace-out {path}: {e}");
        std::process::exit(1);
    }
    if dropped > 0 {
        eprintln!(
            "wrote {path} ({} spans, {dropped} dropped past the {TRACE_SPAN_CAP}-span cap)",
            spans.len(),
        );
    } else {
        eprintln!("wrote {path} ({} spans)", spans.len());
    }
}

fn main() {
    let cli = parse_cli();
    if let Some(path) = &cli.validate_manifest {
        match manifest::validate(path) {
            Ok(()) => {
                println!(
                    "ok   {path}: canonical manifest, version <= {}",
                    manifest::MANIFEST_VERSION,
                );
                return;
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                std::process::exit(1);
            }
        }
    }
    if cli.list {
        for spec in REGISTRY {
            println!("{}", spec.id);
        }
        return;
    }
    if !cli.campaign && cli.corpus != "corpus" {
        eprintln!("--corpus only applies to --campaign runs");
        std::process::exit(2);
    }
    if cli.campaign {
        run_campaign_mode(&cli);
        return;
    }
    if cli.trace_out.is_some() && !cli.profile {
        eprintln!("--trace-out requires --profile: spans are only recorded while profiling");
        std::process::exit(2);
    }
    if cli.profile && (cli.check || cli.bless) {
        // Profiling adds clock reads around every stage; keeping it out
        // of golden verification keeps it honest.
        eprintln!("--profile does not combine with --check/--bless: profile a plain run");
        std::process::exit(2);
    }
    if cli.manifest.is_some() && (cli.check || cli.bless) {
        eprintln!(
            "--manifest does not combine with --check/--bless: a manifest records a \
             regeneration run",
        );
        std::process::exit(2);
    }
    if let Some(path) = &cli.trace_out {
        require_writable_parent("--trace-out", path);
    }
    if let Some(path) = &cli.manifest {
        require_writable_parent("--manifest", path);
    }
    if cli.fault.is_some() && (cli.check || cli.bless) {
        // Goldens record the full fault-class series set; a restricted
        // build diffed against them would always "fail".
        eprintln!(
            "--fault does not combine with --check/--bless: goldens record the full \
             fault-class set",
        );
        std::process::exit(2);
    }
    if cli.tier != Tier::Fast && (cli.check || cli.bless) {
        // Goldens are fast-tier canonical; a
        // physical-tier run diffed against them would always "fail".
        eprintln!(
            "--tier {} does not combine with --check/--bless: goldens are fast-tier \
             canonical (the calibration figures compare tiers)",
            cli.tier.name(),
        );
        std::process::exit(2);
    }
    if cli.full && (cli.check || cli.bless) {
        // Silently validating Quick while the user believes the dense
        // grids ran would be worse than refusing.
        eprintln!("--full does not combine with --check/--bless: goldens are quick-grid canonical");
        std::process::exit(2);
    }
    let mut specs = resolve_specs(&cli.ids);
    if cli.fault.is_some() && cli.ids.is_empty() {
        // A bare `--fault burst` means "the figures that inject faults":
        // narrow to the fault-resilience family instead of tripping over
        // the first physics figure.
        specs.retain(|s| s.reads(Vary::Fault));
        eprintln!(
            "no ids given: running the {} fault_resilience figure(s) restricted to --fault {}",
            specs.len(),
            cli.fault.map(|k| k.name()).unwrap_or_default(),
        );
    }
    require_fault_capable(&specs, cli.fault);
    if cli.tier != Tier::Fast && cli.ids.is_empty() {
        // A bare `--tier physical` means "everything that can": narrow
        // the full registry to the tier-capable figures instead of
        // tripping over the first survey figure.
        specs.retain(|s| s.reads(Vary::Tier));
        eprintln!(
            "no ids given: running all {} tier-capable figure(s) on the {} tier",
            specs.len(),
            cli.tier.name(),
        );
    }
    require_tier_capable(&specs, cli.tier);
    require_valid_metro(&specs, if cli.full { Grid::Full } else { Grid::Quick });
    if cli.check {
        run_check(&specs, &cli.goldens_dir, cli.ids.is_empty());
        return;
    }
    if cli.bless {
        run_bless(&specs, &cli.goldens_dir);
        return;
    }

    let grid = if cli.full { Grid::Full } else { Grid::Quick };
    eprintln!(
        "regenerating {} experiment(s) ({grid:?} grid, {} tier{})...",
        specs.len(),
        cli.tier.name(),
        if cli.profile { ", profiled" } else { "" },
    );
    // One collector spans the whole invocation (the manifest snapshots
    // it); each figure additionally runs under its own child so the
    // `--profile` breakdown is per figure, absorbed back afterwards.
    let run_collector: Option<Arc<Collector>> =
        (cli.profile || cli.manifest.is_some()).then(|| {
            if cli.trace_out.is_some() {
                Collector::with_spans(TRACE_SPAN_CAP)
            } else {
                Collector::new()
            }
        });
    let ctx = BuildCtx {
        tier: cli.tier,
        fault: cli.fault,
        ..BuildCtx::new(grid)
    };
    let mut results: Vec<Experiment> = Vec::with_capacity(specs.len());
    let mut figures: Vec<FigureEntry> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let fig_collector = run_collector.as_ref().map(|parent| parent.child(0));
        let peak_before = fmbs_obs::peak_rss_mb();
        let started = Instant::now();
        let e = {
            let _obs = fmbs_obs::install(fig_collector.clone());
            (spec.at)(&ctx)
        };
        let wall_s = started.elapsed().as_secs_f64();
        if let (Some(parent), Some(child)) = (&run_collector, &fig_collector) {
            if cli.profile {
                print_profile(spec.id, child, wall_s);
                if let (Some(before), Some(after)) = (peak_before, fmbs_obs::peak_rss_mb()) {
                    println!(
                        "  peak RSS (VmHWM) {after:.1} MB, raised {:.1} MB by this figure",
                        after - before
                    );
                }
            }
            parent.absorb(child);
        }
        figures.push(FigureEntry::from_experiment(&e, wall_s));
        results.push(e);
    }

    for e in &results {
        println!("{}", e.render_text());
    }

    if let Some(path) = &cli.trace_out {
        if let Some(c) = &run_collector {
            write_trace(path, c);
        }
    }
    if let Some(path) = &cli.manifest {
        let grid_label = if cli.full { "full" } else { "quick" };
        let built = manifest::build(
            grid_label,
            cli.tier.name(),
            &figures,
            run_collector.as_deref(),
        );
        match manifest::write(path, &built) {
            Ok(text) => eprintln!("wrote {path} ({} bytes, canonical JSON)", text.len()),
            Err(e) => {
                eprintln!("--manifest failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(dir) = cli.json_dir {
        std::fs::create_dir_all(&dir).expect("create json output dir");
        for e in &results {
            let path = format!("{dir}/{}.json", e.id);
            std::fs::write(&path, serde_json::to_string_pretty(e).unwrap()).expect("write json");
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_divides_by_wall_times_threads() {
        assert_eq!(profile_coverage(3.0, 2.0, 2), 0.75);
        assert_eq!(profile_coverage(1.0, 2.0, 0), 0.5);
        assert!(profile_coverage(1.0, 0.0, 1).is_finite());
    }

    /// Profiles one figure as `--profile` does: under a figure-level
    /// child collector. Returns (covered CPU-s, wall s, busy threads).
    fn profile_figure(build: fn(&BuildCtx) -> Experiment) -> (f64, f64, usize) {
        let collector = Collector::new().child(0);
        let started = Instant::now();
        {
            let _obs = fmbs_obs::install(Some(collector.clone()));
            build(&BuildCtx::new(Grid::Quick));
        }
        let wall_s = started.elapsed().as_secs_f64();
        (collector.self_time_secs(), wall_s, collector.busy_workers())
    }

    #[test]
    fn parallel_sweep_figure_coverage_stays_within_capacity() {
        // fig7 is a parallel sweep: its sweep_point self-times are summed
        // over every worker, so they exceed the figure's wall time on a
        // multi-core host, but never its wall × busy-thread capacity.
        let (covered, wall_s, threads) = profile_figure(experiments::fig7);
        let share = profile_coverage(covered, wall_s, threads);
        assert!(covered > 0.0, "the sweep recorded its stages");
        let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!((1..=pool).contains(&threads), "{threads} busy of {pool}");
        assert!(
            share <= 1.0,
            "coverage {share} of wall {wall_s} s × {threads} threads"
        );
    }
}

//! `paper_check`: every registry figure on the quick grid, its paper
//! expectations and its golden diff — `repro --check`, in process. Each
//! sweep gets its own cache, so neither the shared cache nor the metro
//! engine is on this path; the physics layers do nearly all the work.
//! Its inputs are the registry and the goldens, which pin every figure,
//! so the seed does not change them.

use crate::report::{cpu_seconds, median, nproc, Report};
use crate::{time_setup, timed_passes, Args};
use fmbs_bench::check::{self, Tolerance};
use fmbs_bench::experiments::{Grid, REGISTRY};
use fmbs_bench::report::Experiment;
use std::time::Instant;

const GOLDENS: &str = "goldens";

struct Pass {
    /// Per registry index.
    figure_wall_s: Vec<f64>,
    /// Series points per registry index.
    points: Vec<usize>,
    expect_s: f64,
    golden_s: f64,
    cpu_s: f64,
}

fn load_goldens() -> Result<Vec<Experiment>, String> {
    REGISTRY
        .iter()
        .map(|s| check::load_golden(GOLDENS, s.id))
        .collect()
}

fn pass(goldens: &[Experiment], report: &mut Report) -> Pass {
    let tol = Tolerance::default();
    let cpu0 = cpu_seconds();
    let mut p = Pass {
        figure_wall_s: vec![0.0; REGISTRY.len()],
        points: vec![0; REGISTRY.len()],
        expect_s: 0.0,
        golden_s: 0.0,
        cpu_s: 0.0,
    };
    for (i, spec) in REGISTRY.iter().enumerate() {
        let t = Instant::now();
        let e = std::hint::black_box((spec.build)(Grid::Quick));
        p.figure_wall_s[i] = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let fig = check::check_experiment(&e, &(spec.checks)());
        p.expect_s += t.elapsed().as_secs_f64();
        for o in &fig.outcomes {
            report.check(o.passed, || {
                format!("{} expectation: {} ({})", spec.id, o.description, o.detail)
            });
        }

        let t = Instant::now();
        let diffs = check::diff_experiments(&e, &goldens[i], &tol);
        p.golden_s += t.elapsed().as_secs_f64();
        report.check(diffs.is_empty(), || {
            format!("{} golden: {}", spec.id, diffs[0].detail)
        });
        p.points[i] = e.series.iter().map(|s| s.points.len()).sum();
    }
    p.cpu_s = cpu_seconds() - cpu0;
    p
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let setup_s = time_setup(load_goldens)?;
    let goldens = load_goldens()?;

    if !args.trace {
        let (passes, rss) = timed_passes(args.seconds, || pass(&goldens, report));
        for (_, p) in &passes[1..] {
            report.check(p.points == passes[0].1.points, || {
                "exact repeat: figure point counts differ between passes".into()
            });
        }
        let first = &passes[0].1;
        for (spec, &n) in REGISTRY.iter().zip(&first.points) {
            report
                .counts
                .insert(format!("figure.{}.points", spec.id), n as u64);
        }
        let points: usize = first.points.iter().sum();
        let wall = median(&passes.iter().map(|(w, _)| *w).collect::<Vec<_>>());
        report.end_to_end(wall, setup_s, rss, points as f64 / wall);
        report.extra("points_per_s", points as f64 / wall, "1/s");
        report.extra("passes", passes.len() as f64, "count");
        return Ok(());
    }

    let t = Instant::now();
    let untraced = pass(&goldens, report);
    let untraced_wall = t.elapsed().as_secs_f64();

    let collector = fmbs_obs::Collector::new();
    let t = Instant::now();
    let traced = {
        let _obs = fmbs_obs::install(Some(collector.clone()));
        pass(&goldens, report)
    };
    let traced_wall = t.elapsed().as_secs_f64();
    report.check(traced.points == untraced.points, || {
        "exact repeat: figure point counts differ between the untraced and traced passes".into()
    });

    for (i, spec) in REGISTRY.iter().enumerate() {
        report.layer(
            &format!("figure.{}.wall_s", spec.id),
            traced.figure_wall_s[i],
        );
        report.counts.insert(
            format!("figure.{}.points", spec.id),
            traced.points[i] as u64,
        );
    }
    report.layer("check.expect_s", traced.expect_s);
    report.layer("check.golden_s", traced.golden_s);
    report.obs_layers(&collector);
    report.layer(
        "cpu_util",
        untraced.cpu_s / (untraced_wall * nproc() as f64),
    );
    report.layer("trace_overhead_frac", traced_wall / untraced_wall - 1.0);
    Ok(())
}

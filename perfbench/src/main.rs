//! The repository benchmark. One process runs one named workload:
//!
//! - `paper_check`: all registry figures on the quick grid, their paper
//!   expectations and the golden diff (what `repro --check` does);
//! - `campaign`: the figure registry x the city corpus under one shared
//!   sweep cache, each city manifest diffed against its golden;
//! - `metro_trace`: 10^6 tags on a 4x4 receiver grid driven by a seeded
//!   Poisson trace, timed through `CitySim::run_with_threads`.
//!
//! Untraced (`--trace 0`), it prints the end-to-end metrics; traced
//! (`--trace 1`), it adds one run under an `fmbs_obs::Collector` and
//! prints the per-layer metrics. The last stdout line is one JSON object.
//! Run it from the repository root (it reads `goldens/` and `corpus/`);
//! `perfbench/run.py` builds it and passes the arguments through.

mod campaign;
mod metro_trace;
mod paper_check;
mod report;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <paper_check|campaign|metro_trace> \
                     --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]";

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Time budget of the measured part of an untraced run.
    pub seconds: f64,
    pub trace: bool,
    /// Where counts are kept between runs for the exact-repeat check.
    pub state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut state_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
    })
}

/// Runs `pass` once, then again while one more pass as long as the last
/// still fits in `seconds` — a closed loop: each pass starts when the
/// previous one ends. Returns each pass's wall seconds and output, and
/// the peak RSS through set-up and the first pass, which does not depend
/// on how many passes fit.
pub fn timed_passes<P>(seconds: f64, mut pass: impl FnMut() -> P) -> (Vec<(f64, P)>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let t = Instant::now();
        let p = pass();
        let wall = t.elapsed().as_secs_f64();
        eprintln!("pass {}: {wall:.3} s", out.len() + 1);
        out.push((wall, p));
        if out.len() == 1 {
            peak_rss_mb = report::peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() + wall > seconds {
            return (out, peak_rss_mb);
        }
    }
}

/// Times a sub-millisecond set-up: the fastest of 16 windows of 20 ms,
/// 30 ms apart, each read as the mean time per set-up in the window. On
/// a shared host such a set-up flips between a fast and a 1.6x slower
/// state every few tens of milliseconds, in proportions that change from
/// minute to minute; a median of set-ups moved by a third between sets
/// of runs, while the fastest window holds steady and still grows with
/// any work moved into the set-up.
pub fn time_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..16 {
        let (start, mut n) = (Instant::now(), 0u32);
        while start.elapsed().as_secs_f64() < 0.02 {
            setup()?;
            n += 1;
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(n));
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    Ok(best)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut report = Report::new(args.trace);
    let run = match args.workload.as_str() {
        "paper_check" => paper_check::run(&args, &mut report),
        "campaign" => campaign::run(&args, &mut report),
        "metro_trace" => metro_trace::run(&args, &mut report),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let run = run.and_then(|()| match &args.state_dir {
        Some(dir) => report.exact_repeat(
            &dir.join("perfbench-repeat"),
            &format!(
                "{}-seed{}-trace{}-{}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                binary_id()
            ),
        ),
        None => Ok(()),
    });
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    report.print(&args.workload);
}

/// Identifies this build of the benchmark, so counts stored by one
/// build are never compared with another build's.
fn binary_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let (len, mtime) = meta.map_or((0, 0), |m| {
        let mtime = m
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos() as u64);
        (m.len(), mtime)
    });
    format!("{len:x}-{mtime:x}")
}

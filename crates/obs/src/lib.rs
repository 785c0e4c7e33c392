//! Deterministic, opt-in tracing and metrics.
//!
//! Every layer of the stack — DSP kernels, the sweep engine's caches,
//! the network event loop, the repro CLI — can mark *stages* (named
//! wall-time regions) and bump *counters* without knowing whether
//! anyone is listening. A [`Collector`] is *installed* into a
//! thread-local ([`install`]) for the duration of a profiled run;
//! while none is installed, [`stage`] and [`counter`] reduce to one
//! thread-local read and touch nothing else — no clock reads, no
//! allocation, and (critically) **no RNG stream**, so a profiled run
//! is bit-identical to an unprofiled one.
//!
//! # Stage accounting
//!
//! Stages nest: the network event loop contains ARQ handling, a sweep
//! point contains host-audio synthesis. Each [`StageGuard`] therefore
//! tracks two durations — `total` (guard construction to drop) and
//! `self` (total minus the time spent in *nested* stages, via a
//! thread-local stack of child accumulators). Self-times of all stages
//! are disjoint by construction, so their sum is a lower bound on run
//! wall-time and a per-figure breakdown table adds up instead of
//! double-counting.
//!
//! # Parallel merges
//!
//! [`scoped_workers`] gives each worker thread its own child collector
//! ([`Collector::child`], sharing the parent's epoch so span
//! timestamps stay on one axis) and absorbs them **in worker order**
//! after the scope joins ([`Collector::absorb`]). Stage and counter
//! maps are `BTreeMap`s, so report ordering is deterministic however
//! the workers interleaved. The sweep engine, the stereo-utilisation
//! survey and the metro network engine all run their workers this way.
//!
//! # Spans
//!
//! When constructed with [`Collector::with_spans`], every stage call
//! additionally records a [`SpanRecord`] (stage, worker, start offset,
//! duration) up to a hard cap; past it, spans are counted as dropped —
//! never silently discarded — and the exporter reports the truncation.
//!
//! # Worked example
//!
//! `repro --profile network_capacity` installs a collector around the
//! figure regeneration and prints the per-stage breakdown:
//!
//! ```text
//! profile network_capacity (wall 0.185 s, 2 worker thread(s)):
//!   stage                      calls  total CPU-s  self CPU-s   % cap
//!   ber_calibrate                  1       0.0695      0.0002    0.0%
//!   ber_lookup                    20       0.0002      0.0002    0.1%
//!   fft_conv                      88       0.0515      0.0515   13.9%
//!   net_engine                    20       0.1191      0.1189   32.2%
//!   packet_model                   3       0.0387      0.0387   10.5%
//!   sweep_point                   52       0.2495      0.0758   20.5%
//!   ...
//!   stage self-times cover 0.288 CPU-s = 78.1% of wall × 2 thread(s)
//!   counters: cache.host_hits=30 cache.host_misses=2 ...
//! ```
//!
//! The same data can be exported as JSONL spans (`--trace-out`) or
//! snapshotted into a canonical-JSON run manifest (`--manifest`). The
//! equivalent in-process use:
//!
//! ```
//! let collector = fmbs_obs::Collector::new();
//! {
//!     let _guard = fmbs_obs::install(Some(collector.clone()));
//!     {
//!         fmbs_obs::span!("my_stage");
//!         fmbs_obs::counter!("items", 3);
//!     }
//! }
//! assert_eq!(collector.stage_stats()[0].1.calls, 1);
//! assert_eq!(collector.counter_value("items"), 3);
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical stage names, so call sites and report readers agree on
/// spelling. Free-form names work too — these are the stages the repro
/// profiler documents.
pub mod stages {
    /// Host-programme audio synthesis (`Scenario::host_audio`).
    pub const HOST_AUDIO: &str = "host_audio_synth";
    /// Fig. 5 programme synthesis (`fmbs_survey::stereo_util`): a
    /// window's programme render, and the shared music bed it draws on.
    pub const PROGRAM_SYNTH: &str = "program_synth";
    /// Fig. 5 MPX composition: a window's multiplex, and the shared
    /// carrier table it draws on.
    pub const MPX_COMPOSE: &str = "mpx_compose";
    /// Fig. 5 band-power measurement (`measure_band_powers`).
    pub const BAND_POWERS: &str = "band_powers";
    /// Tag payload waveform synthesis (`Workload::synthesise`).
    pub const PAYLOAD_SYNTH: &str = "payload_synth";
    /// The physical tier's RF front end (host modulator + the tag's
    /// switch states).
    pub const RF_FRONT_END: &str = "rf_front_end";
    /// The physical tier's per-point RF back end: power scaling, motion
    /// fading and thermal noise (the receivers are [`FM_RECEIVE`]).
    pub const RF_BACK_END: &str = "rf_back_end";
    /// FM receiver work: one 10 ms IQ block through a receiver's
    /// channel stage (tuner + channel filter), or one receiver's
    /// demodulation of its baseband (discriminator, stereo decoder).
    pub const FM_RECEIVE: &str = "fm_receive";
    /// The ablation figure's switch-architecture sideband measurement:
    /// square, cosine and SSB switch products and their spectra.
    pub const SWITCH_SIDEBANDS: &str = "switch_sidebands";
    /// FFT-based convolution (overlap–save) in the DSP layer.
    pub const FFT_CONV: &str = "fft_conv";
    /// Cross-correlation for time alignment (`fmbs_dsp::corr`): the
    /// cooperative decoder's and the PESQ metric's lag search.
    pub const XCORR: &str = "xcorr";
    /// One sweep point: a metric evaluated against one scenario.
    pub const SWEEP_POINT: &str = "sweep_point";
    /// One engine domain's pass of link-table BER lookups (nominal and
    /// fallback rate) over its tags, filling their tag states.
    pub const BER_LOOKUP: &str = "ber_lookup";
    /// Standard-normal noise draws (`fmbs_channel::noise::fill_gaussian`)
    /// of one run of a noise process: the fast tier's post-detection
    /// noise, the physical tier's thermal noise or the cabin's engine
    /// noise. One call per run, however many blocks it fills.
    pub const NOISE_DRAWS: &str = "noise_draws";
    /// Link-table calibration (the nested sweep it runs).
    pub const BER_CALIBRATE: &str = "ber_calibrate";
    /// Packet-survival Monte-Carlo through the FEC decoder.
    pub const PACKET_MODEL: &str = "packet_model";
    /// The network engine's event loop (one full run).
    pub const NET_ENGINE: &str = "net_engine";
    /// One metro engine worker building its collision domains: per-tag
    /// link lookups, arrival queues and the initial schedule.
    pub const NET_DOMAIN_SETUP: &str = "net_domain_setup";
    /// One metro engine worker's phase A of a slot: its domains' due
    /// events drained into per-channel attempts, and the counts
    /// published.
    pub const NET_GATHER: &str = "net_gather";
    /// One metro engine worker's phase B of a slot: its domains'
    /// attempts resolved against the neighbours' published counts.
    pub const NET_RESOLVE: &str = "net_resolve";
    /// One metro engine worker waiting at the slot barrier for the
    /// others to publish their counts.
    pub const NET_BARRIER: &str = "net_barrier_wait";
    /// ARQ loss handling (retransmit/abandon bookkeeping).
    pub const ARQ_RETX: &str = "arq_retx";
    /// Fault schedule generation from a `FaultSpec`.
    pub const FAULT_SCHEDULE: &str = "fault_schedule";
    /// Workload arrival-trace generation.
    pub const TRACE_GEN: &str = "workload_trace_gen";
    /// One campaign city: every selected figure regenerated (or
    /// reused) for that city (`repro --campaign`).
    pub const CAMPAIGN_CITY: &str = "campaign_city";
    /// One campaign figure build — a (figure × city) cell, or a
    /// city-invariant figure built once for the whole campaign.
    pub const CAMPAIGN_FIGURE: &str = "campaign_figure";
}

/// Aggregate wall-time of one named stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage was entered.
    pub calls: u64,
    /// Wall-time inside the stage, nested stages included (ns).
    pub total_nanos: u64,
    /// Wall-time exclusive to the stage: `total` minus time spent in
    /// nested stages (ns). Self-times of all stages are disjoint.
    pub self_nanos: u64,
}

/// One recorded stage invocation (span export; see
/// [`Collector::with_spans`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name.
    pub stage: &'static str,
    /// Worker index the span ran on (0 = the installing thread).
    pub worker: u32,
    /// Start offset from the collector's epoch (ns).
    pub start_nanos: u64,
    /// Duration, nested stages included (ns).
    pub dur_nanos: u64,
}

#[derive(Debug, Default)]
struct Inner {
    stages: BTreeMap<&'static str, StageStats>,
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
    // Worker indices that recorded a stage, here or in absorbed children.
    workers: BTreeSet<u32>,
}

/// A profiling sink: aggregate stage stats, counters and (optionally)
/// per-invocation spans. Install with [`install`]; share across sweep
/// workers via [`Collector::child`] + [`Collector::absorb`].
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    /// Common time origin for span start offsets (children copy it).
    epoch: Instant,
    /// Max spans retained (0 = span recording off).
    span_cap: usize,
    /// Worker index stamped onto recorded spans.
    worker: u32,
}

impl Collector {
    /// An aggregate-only collector (no span records).
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            inner: Mutex::new(Inner::default()),
            epoch: Instant::now(),
            span_cap: 0,
            worker: 0,
        })
    }

    /// A collector that also records up to `cap` individual spans;
    /// further spans count as dropped ([`Collector::spans`] reports
    /// the count — truncation is never silent).
    pub fn with_spans(cap: usize) -> Arc<Collector> {
        Arc::new(Collector {
            inner: Mutex::new(Inner::default()),
            epoch: Instant::now(),
            span_cap: cap,
            worker: 0,
        })
    }

    /// A per-worker child sharing this collector's epoch (span
    /// timestamps stay on one axis) and span cap. Absorb it back with
    /// [`Collector::absorb`] once the worker joins.
    pub fn child(&self, worker: u32) -> Arc<Collector> {
        Arc::new(Collector {
            inner: Mutex::new(Inner::default()),
            epoch: self.epoch,
            span_cap: self.span_cap,
            worker,
        })
    }

    /// Merges a child's stages, counters and spans into this
    /// collector. Call in worker order: `BTreeMap` keys make stage and
    /// counter reports order-independent anyway, but span order then
    /// follows `(worker, start)` deterministically for equal inputs.
    pub fn absorb(&self, child: &Collector) {
        let c = child.inner.lock().expect("child collector lock");
        let mut inner = self.inner.lock().expect("collector lock");
        for (name, s) in &c.stages {
            let e = inner.stages.entry(name).or_default();
            e.calls += s.calls;
            e.total_nanos += s.total_nanos;
            e.self_nanos += s.self_nanos;
        }
        for (name, v) in &c.counters {
            *inner.counters.entry(name).or_default() += v;
        }
        inner.spans_dropped += c.spans_dropped;
        inner.workers.extend(&c.workers);
        for span in &c.spans {
            if inner.spans.len() < self.span_cap {
                inner.spans.push(*span);
            } else {
                inner.spans_dropped += 1;
            }
        }
    }

    fn record_stage(&self, name: &'static str, total: u64, self_nanos: u64, start: u64) {
        let mut inner = self.inner.lock().expect("collector lock");
        inner.workers.insert(self.worker);
        let e = inner.stages.entry(name).or_default();
        e.calls += 1;
        e.total_nanos += total;
        e.self_nanos += self_nanos;
        if self.span_cap > 0 {
            if inner.spans.len() < self.span_cap {
                let worker = self.worker;
                inner.spans.push(SpanRecord {
                    stage: name,
                    worker,
                    start_nanos: start,
                    dur_nanos: total,
                });
            } else {
                inner.spans_dropped += 1;
            }
        }
    }

    fn record_tally(&self, name: &'static str, s: StageStats) {
        let mut inner = self.inner.lock().expect("collector lock");
        inner.workers.insert(self.worker);
        let e = inner.stages.entry(name).or_default();
        e.calls += s.calls;
        e.total_nanos += s.total_nanos;
        e.self_nanos += s.self_nanos;
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("collector lock");
        *inner.counters.entry(name).or_default() += delta;
    }

    /// Snapshot of the stage stats, sorted by name.
    pub fn stage_stats(&self) -> Vec<(&'static str, StageStats)> {
        let inner = self.inner.lock().expect("collector lock");
        inner.stages.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Snapshot of the counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let inner = self.inner.lock().expect("collector lock");
        inner.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// One counter's value (0 when never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("collector lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of the recorded spans plus the number dropped past the
    /// cap.
    pub fn spans(&self) -> (Vec<SpanRecord>, u64) {
        let inner = self.inner.lock().expect("collector lock");
        (inner.spans.clone(), inner.spans_dropped)
    }

    /// How many distinct worker indices recorded a stage, here or in
    /// absorbed children: the most threads the run kept busy at once.
    /// Each parallel region numbers its workers from 0, and the thread
    /// that starts one records nothing while it waits, so sequential
    /// regions share indices and the count is the widest region's, or
    /// 1 for a run that recorded on one thread only.
    pub fn busy_workers(&self) -> usize {
        self.inner.lock().expect("collector lock").workers.len()
    }

    /// Sum of all stage self-times in seconds — a lower bound on the
    /// run's wall-time (self-times are disjoint).
    pub fn self_time_secs(&self) -> f64 {
        let inner = self.inner.lock().expect("collector lock");
        inner.stages.values().map(|s| s.self_nanos).sum::<u64>() as f64 * 1e-9
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
    // Per-thread stack of child-time accumulators, one per live stage
    // guard: dropping a guard adds its total to the parent's slot, so
    // the parent's self-time excludes it.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The collector installed on this thread, if any.
pub fn active() -> Option<Arc<Collector>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Installs `collector` as this thread's active sink until the
/// returned guard drops (restoring whatever was active before, so
/// nested profiled runs stay correct).
pub fn install(collector: Option<Arc<Collector>>) -> ObsGuard {
    let prev = ACTIVE.with(|a| a.replace(collector));
    ObsGuard { prev }
}

/// Restores the previously active collector on drop (see [`install`]).
pub struct ObsGuard {
    prev: Option<Arc<Collector>>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Opens a named stage; the returned guard closes it on drop. With no
/// collector installed this is one thread-local read — no clock, no
/// lock, no allocation.
pub fn stage(name: &'static str) -> StageGuard {
    let Some(collector) = ACTIVE.with(|a| a.borrow().clone()) else {
        return StageGuard { open: None };
    };
    STACK.with(|s| s.borrow_mut().push(0));
    StageGuard {
        open: Some((collector, name, Instant::now())),
    }
}

/// Adds `delta` to a named counter (no-op without a collector).
pub fn counter(name: &'static str, delta: u64) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow().as_ref() {
            c.add_counter(name, delta);
        }
    });
}

/// An open stage: records stats into the collector on drop.
pub struct StageGuard {
    open: Option<(Arc<Collector>, &'static str, Instant)>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some((collector, name, start)) = self.open.take() else {
            return;
        };
        let total = start.elapsed().as_nanos() as u64;
        let child = close_nested(total);
        let start_off = start.saturating_duration_since(collector.epoch).as_nanos() as u64;
        collector.record_stage(name, total, total.saturating_sub(child), start_off);
    }
}

/// Closes the innermost open stage on this thread after `total` ns:
/// pops and returns the time its nested stages took, and credits
/// `total` to the enclosing stage's nested time.
fn close_nested(total: u64) -> u64 {
    let child = STACK.with(|s| s.borrow_mut().pop()).unwrap_or(0);
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            *parent += total;
        }
    });
    child
}

/// Marks the time until the returned guard drops as this thread waiting
/// on worker threads that profile their own work (the sweep engine's
/// collecting thread). The wait is subtracted from the self-time of the
/// stage open on this thread, as a nested stage's time would be, so one
/// interval is not counted both on the waiting thread and on the
/// workers. Records no stage; with no collector installed it is one
/// thread-local read.
pub fn waiting() -> WaitGuard {
    let active = ACTIVE.with(|a| a.borrow().is_some());
    WaitGuard {
        start: active.then(Instant::now),
    }
}

/// Credits its lifetime to the enclosing stage's nested time on drop
/// (see [`waiting`]).
pub struct WaitGuard {
    start: Option<Instant>,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let waited = start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                *parent += waited;
            }
        });
    }
}

/// Runs `f(w)` for every `w` in `0..workers` on its own scoped thread
/// and returns the results in worker order.
///
/// Worker `w` profiles into child `w` of the collector installed on
/// the calling thread (none if none is), the calling thread is marked
/// [`waiting`] until every worker has joined, and the children are then
/// absorbed in worker order, so the merged profile does not depend on
/// how the workers interleaved. A worker's panic is re-raised here.
///
/// One worker spawns no thread: `f(0)` runs on the calling thread and
/// profiles into its collector, nested in the caller's open stage.
pub fn scoped_workers<T: Send>(workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return (0..workers).map(f).collect();
    }
    let parent = active();
    let children: Vec<_> = (0..workers)
        .map(|w| parent.as_ref().map(|p| p.child(w as u32)))
        .collect();
    let wait = waiting();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = children
            .iter()
            .enumerate()
            .map(|(w, obs)| {
                let f = &f;
                s.spawn(move || {
                    let _obs = install(obs.clone());
                    f(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    drop(wait);
    if let Some(parent) = parent {
        for child in children.into_iter().flatten() {
            parent.absorb(&child);
        }
    }
    out
}

/// [`scoped_workers`] over owned parts: worker `w` gets `parts[w]` (a
/// disjoint `&mut` slice, say) and returns `f(w, parts[w])`, in worker
/// order. One part runs on the calling thread.
pub fn scoped_parts<P: Send, T: Send>(parts: Vec<P>, f: impl Fn(usize, P) -> T + Sync) -> Vec<T> {
    let parts: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    scoped_workers(parts.len(), |w| {
        let part = parts[w].lock().expect("part lock").take();
        f(w, part.expect("each part goes to one worker"))
    })
}

/// A stage entered many times on one thread (a per-slot phase of an
/// engine loop), tallied locally and recorded into the collector once,
/// when the tally drops. Each [`Tally::enter`] is accounted exactly as
/// a [`stage`] guard would be: one call, its total time, its self time
/// net of the stages nested in it, and its total added to the enclosing
/// stage's nested time. Only the collector lock per call is saved. With
/// no collector installed, entering reads no clock; a collector that
/// records spans gets one per call, as from a guard.
pub struct Tally {
    name: &'static str,
    collector: Option<Arc<Collector>>,
    stats: StageStats,
    /// Every call counts as one ([`Tally::one_call`]).
    one_call: bool,
    /// Start of the first call accumulated here rather than recorded.
    first: Option<Instant>,
}

impl Tally {
    /// A tally of `name` for the collector installed on this thread.
    pub fn new(name: &'static str) -> Tally {
        Tally {
            name,
            collector: active(),
            stats: StageStats::default(),
            one_call: false,
            first: None,
        }
    }

    /// A tally whose calls are recorded as one call of `name` (a run's
    /// work split over its blocks): the times add up as in
    /// [`Tally::new`], and a collector that records spans gets one, from
    /// the first call's start, for their sum.
    pub fn one_call(name: &'static str) -> Tally {
        let mut tally = Tally::new(name);
        tally.one_call = true;
        tally
    }

    /// Opens one call of the stage; the returned guard closes it.
    pub fn enter(&mut self) -> TallyGuard<'_> {
        let start = self.collector.is_some().then(|| {
            STACK.with(|s| s.borrow_mut().push(0));
            Instant::now()
        });
        TallyGuard { tally: self, start }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        let (Some(c), Some(first)) = (&self.collector, self.first) else {
            return;
        };
        if self.one_call {
            self.stats.calls = 1;
        }
        if c.span_cap > 0 {
            let start_off = first.saturating_duration_since(c.epoch).as_nanos() as u64;
            c.record_stage(
                self.name,
                self.stats.total_nanos,
                self.stats.self_nanos,
                start_off,
            );
        } else {
            c.record_tally(self.name, self.stats);
        }
    }
}

/// One open call of a [`Tally`]; closes it on drop.
pub struct TallyGuard<'a> {
    tally: &'a mut Tally,
    start: Option<Instant>,
}

impl Drop for TallyGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let total = start.elapsed().as_nanos() as u64;
        let self_nanos = total.saturating_sub(close_nested(total));
        let tally = &mut *self.tally;
        match &tally.collector {
            Some(c) if c.span_cap > 0 && !tally.one_call => {
                let start_off = start.saturating_duration_since(c.epoch).as_nanos() as u64;
                c.record_stage(tally.name, total, self_nanos, start_off);
            }
            _ => {
                tally.first.get_or_insert(start);
                tally.stats.calls += 1;
                tally.stats.total_nanos += total;
                tally.stats.self_nanos += self_nanos;
            }
        }
    }
}

/// The host's available parallelism (at least 1), read once per
/// process: on Linux each `std::thread::available_parallelism` call
/// reads cgroup files, which costs a small network sweep point more
/// than its work.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Peak resident set size of this process so far (`VmHWM` in
/// `/proc/self/status`), in MB; `None` where the kernel does not report
/// it. The peak only rises, so the growth across a piece of work is what
/// that work raised it by.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Opens a stage for the rest of the enclosing block:
/// `span!(stages::NET_ENGINE);`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _fmbs_obs_span_guard = $crate::stage($name);
    };
}

/// Bumps a counter: `counter!("cache.host_hits")` or
/// `counter!("net.trace_dropped", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter($name, $delta)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_stage_records_nothing() {
        assert!(active().is_none());
        {
            span!("idle");
            counter!("idle", 5);
        }
        assert!(active().is_none());
    }

    #[test]
    fn stage_and_counter_aggregate() {
        let c = Collector::new();
        {
            let _g = install(Some(c.clone()));
            for _ in 0..3 {
                span!("outer");
                counter!("work", 2);
            }
        }
        let stats = c.stage_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "outer");
        assert_eq!(stats[0].1.calls, 3);
        assert_eq!(c.counter_value("work"), 6);
        assert_eq!(c.counter_value("missing"), 0);
        assert!(active().is_none(), "guard restored the empty state");
    }

    #[test]
    fn nested_stages_split_self_time() {
        let c = Collector::new();
        {
            let _g = install(Some(c.clone()));
            let _outer = stage("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = stage("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let stats: BTreeMap<_, _> = c.stage_stats().into_iter().collect();
        let outer = stats["outer"];
        let inner = stats["inner"];
        // The parent's total covers the child; its self-time excludes it.
        assert!(outer.total_nanos >= inner.total_nanos);
        assert!(outer.self_nanos <= outer.total_nanos - inner.total_nanos);
        assert_eq!(inner.self_nanos, inner.total_nanos);
        // Disjoint self-times: the sum never exceeds the outer total.
        assert!(inner.self_nanos + outer.self_nanos <= outer.total_nanos);
    }

    #[test]
    fn waiting_is_not_self_time() {
        let c = Collector::new();
        {
            let _g = install(Some(c.clone()));
            let _outer = stage("outer");
            let _wait = waiting();
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let outer = c.stage_stats()[0].1;
        assert!(outer.total_nanos >= 4_000_000);
        assert!(
            outer.self_nanos < outer.total_nanos - 3_000_000,
            "the wait left the outer stage's self-time: {outer:?}"
        );
    }

    #[test]
    fn install_restores_the_previous_collector() {
        let a = Collector::new();
        let b = Collector::new();
        let _ga = install(Some(a.clone()));
        {
            let _gb = install(Some(b.clone()));
            counter!("who", 1);
        }
        counter!("who", 10);
        assert_eq!(b.counter_value("who"), 1);
        assert_eq!(a.counter_value("who"), 10);
    }

    #[test]
    fn worker_ordered_merge_is_deterministic() {
        // Two children with different contents, absorbed in worker
        // order: the merged report must be identical however the
        // children's own work interleaved, and a second identical merge
        // must reproduce it exactly.
        let merged = || {
            let parent = Collector::with_spans(16);
            let c0 = parent.child(0);
            let c1 = parent.child(1);
            for (c, n) in [(&c0, 2u64), (&c1, 3u64)] {
                let _g = install(Some((*c).clone()));
                for _ in 0..n {
                    span!("stage_b");
                    counter!("n", 1);
                }
                span!("stage_a");
            }
            parent.absorb(&c0);
            parent.absorb(&c1);
            (
                parent
                    .stage_stats()
                    .iter()
                    .map(|(k, v)| (*k, v.calls))
                    .collect::<Vec<_>>(),
                parent.counters(),
            )
        };
        let (stages_a, counters_a) = merged();
        let (stages_b, counters_b) = merged();
        assert_eq!(stages_a, vec![("stage_a", 2), ("stage_b", 5)]);
        assert_eq!(counters_a, vec![("n", 5)]);
        assert_eq!(stages_a, stages_b);
        assert_eq!(counters_a, counters_b);
    }

    #[test]
    fn scoped_workers_return_in_order_and_merge_their_profiles() {
        assert_eq!(
            scoped_workers(3, |w| w * 10),
            vec![0, 10, 20],
            "no collector"
        );
        let c = Collector::with_spans(16);
        let _g = install(Some(c.clone()));
        let out = scoped_workers(3, |w| {
            for _ in 0..=w {
                span!("work");
            }
            counter!("n", w as u64);
            active().is_some()
        });
        assert_eq!(out, vec![true; 3], "every worker profiles into a child");
        assert_eq!(c.stage_stats()[0].1.calls, 6);
        assert_eq!(c.counter_value("n"), 3);
        let workers: BTreeSet<u32> = c.spans().0.iter().map(|s| s.worker).collect();
        assert_eq!(workers, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn one_scoped_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let c = Collector::new();
        let _g = install(Some(c.clone()));
        let out = scoped_workers(1, |w| {
            span!("work");
            (w, std::thread::current().id())
        });
        assert_eq!(out, vec![(0, caller)]);
        assert_eq!(c.stage_stats()[0].1.calls, 1);
        assert!(scoped_workers(0, |w| w).is_empty());
    }

    #[test]
    fn busy_workers_counts_the_widest_region() {
        let figure = Collector::new().child(0);
        let _g = install(Some(figure.clone()));
        assert_eq!(figure.busy_workers(), 0);
        {
            span!("serial");
        }
        assert_eq!(figure.busy_workers(), 1, "the figure's own thread");
        // Two parallel regions in turn, each numbering its workers from
        // 0: three threads ran, at most two at once.
        for width in [2, 1] {
            let children: Vec<_> = (0..width).map(|w| figure.child(w)).collect();
            for c in &children {
                let _w = install(Some(c.clone()));
                span!("point");
            }
            for c in &children {
                figure.absorb(c);
            }
        }
        assert_eq!(figure.busy_workers(), 2);
        // A worker that recorded nothing adds no capacity.
        figure.absorb(&figure.child(5));
        assert_eq!(figure.busy_workers(), 2);
    }

    #[test]
    fn a_tally_accounts_like_stage_guards() {
        // Three calls of "step", each with a nested "inner", inside
        // "outer": once as guards, once tallied.
        let profile = |tallied: bool| {
            let c = Collector::new();
            {
                let _g = install(Some(c.clone()));
                let _outer = stage("outer");
                let mut tally = Tally::new("step");
                for _ in 0..3 {
                    let _step = if tallied {
                        (Some(tally.enter()), None)
                    } else {
                        (None, Some(stage("step")))
                    };
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    span!("inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            c.stage_stats().into_iter().collect::<BTreeMap<_, _>>()
        };
        for tallied in [false, true] {
            let stats = profile(tallied);
            let (outer, step, inner) = (stats["outer"], stats["step"], stats["inner"]);
            assert_eq!(
                (outer.calls, step.calls, inner.calls),
                (1, 3, 3),
                "{tallied}"
            );
            // Self time is total net of the nested stages, to the ns.
            assert_eq!(step.self_nanos + inner.total_nanos, step.total_nanos);
            assert_eq!(outer.self_nanos + step.total_nanos, outer.total_nanos);
            assert_eq!(inner.self_nanos, inner.total_nanos);
            assert!(step.total_nanos >= 6_000_000, "{tallied}: {step:?}");
        }
    }

    #[test]
    fn a_tally_without_a_collector_records_nothing_and_spans_stay_per_call() {
        {
            let mut idle = Tally::new("idle");
            let g = idle.enter();
            assert!(g.start.is_none(), "no clock read");
        }
        let c = Collector::with_spans(8);
        {
            let _g = install(Some(c.clone()));
            let mut tally = Tally::new("step");
            for _ in 0..2 {
                let _s = tally.enter();
            }
            // Never entered: no row.
            let _unused = Tally::new("never");
        }
        assert_eq!(c.spans().0.len(), 2);
        let stats = c.stage_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].0, stats[0].1.calls), ("step", 2));
    }

    #[test]
    fn a_one_call_tally_records_its_calls_as_one() {
        for spans in [false, true] {
            let c = if spans {
                Collector::with_spans(8)
            } else {
                Collector::new()
            };
            {
                let _g = install(Some(c.clone()));
                let _outer = stage("outer");
                let mut tally = Tally::one_call("draws");
                for _ in 0..3 {
                    let _d = tally.enter();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let stats = c.stage_stats().into_iter().collect::<BTreeMap<_, _>>();
            let (outer, draws) = (stats["outer"], stats["draws"]);
            assert_eq!((outer.calls, draws.calls), (1, 1), "spans {spans}");
            assert!(draws.total_nanos >= 3_000_000, "spans {spans}: {draws:?}");
            assert_eq!(outer.self_nanos + draws.total_nanos, outer.total_nanos);
            let (recorded, _) = c.spans();
            let draw_spans: Vec<_> = recorded.iter().filter(|s| s.stage == "draws").collect();
            assert_eq!(draw_spans.len(), usize::from(spans));
            if let Some(s) = draw_spans.first() {
                assert_eq!(s.dur_nanos, draws.total_nanos);
            }
        }
    }

    #[test]
    fn cores_is_the_hosts_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((cores(), cores()), (host, host));
    }

    #[test]
    fn scoped_parts_hand_each_worker_its_own_part() {
        let mut data = vec![0u32; 10];
        let parts: Vec<&mut [u32]> = data.chunks_mut(4).collect();
        let lens = scoped_parts(parts, |w, part| {
            part.fill(w as u32 + 1);
            part.len()
        });
        assert_eq!(lens, vec![4, 4, 2]);
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn span_cap_counts_drops_instead_of_silently_losing() {
        let c = Collector::with_spans(4);
        {
            let _g = install(Some(c.clone()));
            for _ in 0..10 {
                span!("s");
            }
        }
        let (spans, dropped) = c.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 6);
        // Aggregates keep counting past the span cap.
        assert_eq!(c.stage_stats()[0].1.calls, 10);
    }

    #[test]
    fn absorb_respects_the_parent_span_cap() {
        let parent = Collector::with_spans(3);
        let child = parent.child(7);
        {
            let _g = install(Some(child.clone()));
            for _ in 0..5 {
                span!("s");
            }
        }
        parent.absorb(&child);
        let (spans, dropped) = parent.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(dropped, 2);
        assert!(spans.iter().all(|s| s.worker == 7));
    }
}

//! The declarative sweep engine.
//!
//! Every figure of the paper's evaluation is a sweep: a measurement
//! evaluated over a grid of scenarios spanning some subset of {ambient
//! power, distance, bit rate, programme, motion, tone frequency, MRC
//! depth, MAC slot count, tag count, arrival model, offered load,
//! application profile} × repetitions. [`SweepBuilder`] declares those
//! axes; [`SweepBuilder::evaluate`] expands the grid and runs any
//! per-point function on N scoped worker threads, with **deterministic
//! per-point seeding**: each point's seed is a hash of the base seed
//! and the point's grid coordinates, so the results are bit-identical
//! whether the grid runs serially, in parallel, or in any scheduling
//! order. [`SweepBuilder::run`] is the one-number case: a [`Metric`]
//! measured against a [`Simulator`].

use super::cache::{self, CacheStats, SweepCache};
use super::metric::Metric;
use super::scenario::Scenario;
use super::Simulator;
use crate::modem::Bitrate;
use fmbs_audio::program::ProgramKind;
use fmbs_channel::fading::MotionProfile;
use fmbs_channel::units::Dbm;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Grid coordinates of one sweep point (indices into the declared axes;
/// 0 for axes left at the base scenario's value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coords {
    /// Index into the power axis.
    pub power: usize,
    /// Index into the distance axis.
    pub distance: usize,
    /// Index into the bitrate axis.
    pub bitrate: usize,
    /// Index into the programme axis.
    pub program: usize,
    /// Index into the motion axis.
    pub motion: usize,
    /// Index into the tone-frequency axis.
    pub tone_freq: usize,
    /// Index into the MRC-depth axis.
    pub mrc: usize,
    /// Index into the MAC-slot-count axis.
    pub mac_slots: usize,
    /// Index into the tag-count axis.
    pub n_tags: usize,
    /// Index into the arrival-model axis (workload tier).
    pub arrival: usize,
    /// Index into the offered-load axis (workload tier).
    pub offered: usize,
    /// Index into the application-profile axis (workload tier).
    pub profile: usize,
    /// Repetition index.
    pub repeat: usize,
}

/// One expanded grid point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The fully specified scenario (axes applied, seed derived).
    pub scenario: Scenario,
    /// Where in the grid this point sits.
    pub coords: Coords,
}

/// One evaluated grid point.
#[derive(Debug, Clone, Copy)]
pub struct SweepValue<T = f64> {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Grid coordinates.
    pub coords: Coords,
    /// The point's measurement.
    pub value: T,
}

/// Results of a sweep, in grid order.
#[derive(Debug, Clone, Default)]
pub struct SweepResults<T = f64> {
    /// Evaluated points, in the same order [`SweepBuilder::points`]
    /// expands them.
    pub points: Vec<SweepValue<T>>,
    /// Hit/miss counters of the sweep's content-addressed cache (all
    /// zeros when the cache was disabled). Physical front-end counters
    /// are included; they stay zero for fast-tier sweeps.
    pub cache: CacheStats,
}

impl<T> SweepResults<T> {
    /// Projects every point's measurement to one number — how one run
    /// per point feeds several figure series.
    pub fn project(&self, f: impl Fn(&T) -> f64) -> SweepResults {
        SweepResults {
            points: self
                .points
                .iter()
                .map(|p| SweepValue {
                    scenario: p.scenario,
                    coords: p.coords,
                    value: f(&p.value),
                })
                .collect(),
            cache: self.cache,
        }
    }
}

impl SweepResults {
    /// Groups points by `key` (first-seen order) into `(x, mean value)`
    /// series: points of one group sharing an x are averaged — which is
    /// how `repeats`/programme fan-outs fold into one figure line.
    pub fn series_by<K, FK, FX>(&self, key: FK, x: FX) -> Vec<(K, Vec<(f64, f64)>)>
    where
        K: PartialEq,
        FK: Fn(&SweepValue) -> K,
        FX: Fn(&SweepValue) -> f64,
    {
        // (x, running sum, count) accumulators per group key.
        type Accum = Vec<(f64, f64, usize)>;
        let mut groups: Vec<(K, Accum)> = Vec::new();
        for p in &self.points {
            let k = key(p);
            let xv = x(p);
            let group = match groups.iter_mut().find(|(gk, _)| *gk == k) {
                Some((_, pts)) => pts,
                None => {
                    groups.push((k, Vec::new()));
                    &mut groups.last_mut().expect("just pushed").1
                }
            };
            match group.iter_mut().find(|(gx, _, _)| *gx == xv) {
                Some((_, sum, n)) => {
                    *sum += p.value;
                    *n += 1;
                }
                None => group.push((xv, p.value, 1)),
            }
        }
        groups
            .into_iter()
            .map(|(k, pts)| {
                (
                    k,
                    pts.into_iter()
                        .map(|(xv, sum, n)| (xv, sum / n as f64))
                        .collect(),
                )
            })
            .collect()
    }

    /// A single `(x, mean value)` series over the whole sweep.
    pub fn series(&self, x: impl Fn(&SweepValue) -> f64) -> Vec<(f64, f64)> {
        self.series_by(|_| 0u8, x)
            .pop()
            .map(|(_, pts)| pts)
            .unwrap_or_default()
    }

    /// Mean of all point values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }
}

/// Declarative sweep specification: a base scenario plus typed axes.
///
/// ```
/// use fmbs_core::modem::Bitrate;
/// use fmbs_core::sim::fast::FastSim;
/// use fmbs_core::sim::metric::Ber;
/// use fmbs_core::sim::scenario::{Scenario, Workload};
/// use fmbs_core::sim::sweep::SweepBuilder;
/// use fmbs_audio::program::ProgramKind;
///
/// let base = Scenario::bench(-30.0, 4.0, ProgramKind::News)
///     .with_workload(Workload::data(Bitrate::Bps100, 60));
/// let results = SweepBuilder::new(base)
///     .powers_dbm([-20.0, -40.0])
///     .distances_ft([2.0, 6.0])
///     .repeats(2)
///     .run(&FastSim, &Ber::default());
/// assert_eq!(results.points.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    base: Scenario,
    powers_dbm: Vec<f64>,
    distances_ft: Vec<f64>,
    bitrates: Vec<Bitrate>,
    programs: Vec<ProgramKind>,
    motions: Vec<MotionProfile>,
    tone_freqs_hz: Vec<f64>,
    mrc_depths: Vec<u32>,
    mac_slot_counts: Vec<u32>,
    n_tags: Vec<u32>,
    arrival_models: Vec<super::scenario::ArrivalModel>,
    offered_loads: Vec<f64>,
    app_profiles: Vec<super::scenario::AppProfile>,
    repeats: usize,
    threads: Option<usize>,
    cache: bool,
}

/// SplitMix64 — the per-point seed derivation. Public because other
/// layers (e.g. `fmbs-net`'s deployment synthesis) derive their own
/// functional randomness from the same mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes the base seed with a point's grid coordinates. Folding each
/// axis index separately (rather than a linear point index) keeps a
/// coordinate's seed stable when *other* axes grow — densifying a grid
/// does not perturb the points it shares with the coarse one.
fn program_seed(base: u64, rep: usize) -> u64 {
    splitmix64(splitmix64(base ^ 0x484F_5354) ^ rep as u64) // "HOST"
}

fn point_seed(base: u64, c: &Coords) -> u64 {
    let mut h = splitmix64(base);
    let coords = [
        c.power,
        c.distance,
        c.bitrate,
        c.program,
        c.motion,
        // Axes 6 and 7 (receiver and tag device) are gone; their index
        // stays folded in as 0 so every seed is unchanged.
        0,
        0,
        c.tone_freq,
        c.repeat,
    ];
    for (axis, &v) in coords.iter().enumerate() {
        h = splitmix64(h ^ (((axis as u64 + 1) << 32) | v as u64));
    }
    // The axes added after the original nine fold in only at nonzero
    // indices: index 0 (the "axis undeclared" placeholder) is
    // seed-transparent, so every figure that predates these axes keeps
    // its exact noise realisations, and declaring a new axis leaves the
    // points it shares with the old grid untouched. (Axis 10, `f_back`,
    // is gone; never declared, it only ever folded in index 0.)
    for (axis, v) in [
        (11u64, c.mrc),
        (12, c.mac_slots),
        (13, c.n_tags),
        (14, c.arrival),
        (15, c.offered),
        (16, c.profile),
    ] {
        if v != 0 {
            h = splitmix64(h ^ ((axis << 32) | v as u64));
        }
    }
    h
}

impl SweepBuilder {
    /// Starts a sweep from a base scenario (workload included). Axes not
    /// declared stay at the base scenario's values.
    pub fn new(base: Scenario) -> Self {
        SweepBuilder {
            base,
            powers_dbm: Vec::new(),
            distances_ft: Vec::new(),
            bitrates: Vec::new(),
            programs: Vec::new(),
            motions: Vec::new(),
            tone_freqs_hz: Vec::new(),
            mrc_depths: Vec::new(),
            mac_slot_counts: Vec::new(),
            n_tags: Vec::new(),
            arrival_models: Vec::new(),
            offered_loads: Vec::new(),
            app_profiles: Vec::new(),
            repeats: 1,
            threads: None,
            cache: true,
        }
    }

    /// Sweeps ambient power at the tag (dBm).
    pub fn powers_dbm(mut self, powers: impl IntoIterator<Item = f64>) -> Self {
        self.powers_dbm = powers.into_iter().collect();
        self
    }

    /// Sweeps tag→receiver distance (feet).
    pub fn distances_ft(mut self, distances: impl IntoIterator<Item = f64>) -> Self {
        self.distances_ft = distances.into_iter().collect();
        self
    }

    /// Sweeps the data bit rate (requires a [`super::scenario::Workload::Data`] base
    /// workload).
    pub fn bitrates(mut self, bitrates: impl IntoIterator<Item = Bitrate>) -> Self {
        self.bitrates = bitrates.into_iter().collect();
        self
    }

    /// Sweeps the host programme genre.
    pub fn programs(mut self, programs: impl IntoIterator<Item = ProgramKind>) -> Self {
        self.programs = programs.into_iter().collect();
        self
    }

    /// Sweeps wearer motion.
    pub fn motions(mut self, motions: impl IntoIterator<Item = MotionProfile>) -> Self {
        self.motions = motions.into_iter().collect();
        self
    }

    /// Sweeps the tone frequency (requires a [`super::scenario::Workload::Tone`] base
    /// workload).
    pub fn tone_freqs_hz(mut self, freqs: impl IntoIterator<Item = f64>) -> Self {
        self.tone_freqs_hz = freqs.into_iter().collect();
        self
    }

    /// Sweeps the MRC combining depth (consumed by
    /// [`super::metric::BerMrc::from_scenario`]).
    pub fn mrc_depths(mut self, depths: impl IntoIterator<Item = u32>) -> Self {
        self.mrc_depths = depths.into_iter().collect();
        self
    }

    /// Sweeps the MAC frame length in slots (network tier).
    pub fn mac_slot_counts(mut self, counts: impl IntoIterator<Item = u32>) -> Self {
        self.mac_slot_counts = counts.into_iter().collect();
        self
    }

    /// Sweeps the number of contending tags (network tier).
    pub fn n_tags(mut self, counts: impl IntoIterator<Item = u32>) -> Self {
        self.n_tags = counts.into_iter().collect();
        self
    }

    /// Sweeps the traffic arrival model (workload tier).
    pub fn arrival_models(
        mut self,
        models: impl IntoIterator<Item = super::scenario::ArrivalModel>,
    ) -> Self {
        self.arrival_models = models.into_iter().collect();
        self
    }

    /// Sweeps the offered load in messages per tag per second
    /// (workload tier).
    pub fn offered_loads(mut self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.offered_loads = loads.into_iter().collect();
        self
    }

    /// Sweeps the application profile (workload tier).
    pub fn app_profiles(
        mut self,
        profiles: impl IntoIterator<Item = super::scenario::AppProfile>,
    ) -> Self {
        self.app_profiles = profiles.into_iter().collect();
        self
    }

    /// Runs each grid point `n` times with rotated seeds (noise *and*
    /// payload), for averaging.
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Caps the worker count (default: available parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Enables or disables the content-addressed derivation cache
    /// (default: enabled). The cache is semantically invisible — results
    /// are bit-identical either way — so disabling it is only useful for
    /// verifying exactly that, or bounding memory on enormous grids.
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = enabled;
        self
    }

    /// Expands the grid into concrete points, axis order: power ×
    /// distance × bitrate × programme × motion × tone-frequency × MRC
    /// depth × MAC slots × tag count × arrival model × offered load ×
    /// app profile × repeat.
    pub fn points(&self) -> Vec<SweepPoint> {
        // Singleton placeholder for undeclared axes: `None` means "keep
        // the base scenario's value".
        fn axis<T: Copy>(vals: &[T]) -> Vec<Option<T>> {
            if vals.is_empty() {
                vec![None]
            } else {
                vals.iter().copied().map(Some).collect()
            }
        }

        let powers = axis(&self.powers_dbm);
        let distances = axis(&self.distances_ft);
        let bitrates = axis(&self.bitrates);
        let programs = axis(&self.programs);
        let motions = axis(&self.motions);
        let freqs = axis(&self.tone_freqs_hz);
        let mrcs = axis(&self.mrc_depths);
        let mac_slots = axis(&self.mac_slot_counts);
        let n_tags = axis(&self.n_tags);
        let arrivals = axis(&self.arrival_models);
        let offered = axis(&self.offered_loads);
        let profiles = axis(&self.app_profiles);

        // Odometer over the axis lengths — first axis slowest, repeats
        // fastest, matching the nested-loop order the engine has always
        // used.
        let lens = [
            powers.len(),
            distances.len(),
            bitrates.len(),
            programs.len(),
            motions.len(),
            freqs.len(),
            mrcs.len(),
            mac_slots.len(),
            n_tags.len(),
            arrivals.len(),
            offered.len(),
            profiles.len(),
            self.repeats,
        ];
        let total: usize = lens.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut idx = [0usize; 13];
        for _ in 0..total {
            let rep = idx[12];
            let coords = Coords {
                power: idx[0],
                distance: idx[1],
                bitrate: idx[2],
                program: idx[3],
                motion: idx[4],
                tone_freq: idx[5],
                mrc: idx[6],
                mac_slots: idx[7],
                n_tags: idx[8],
                arrival: idx[9],
                offered: idx[10],
                profile: idx[11],
                repeat: rep,
            };
            let mut s = self.base;
            if let Some(p) = powers[idx[0]] {
                s.ambient_at_tag = Dbm(p);
            }
            if let Some(d) = distances[idx[1]] {
                s.distance_ft = d;
            }
            if let Some(b) = bitrates[idx[2]] {
                s.workload = set_bitrate(s.workload, b);
            }
            if let Some(g) = programs[idx[3]] {
                s.program = g;
            }
            if let Some(m) = motions[idx[4]] {
                s.motion = m;
            }
            if let Some(f) = freqs[idx[5]] {
                s.workload = set_tone_freq(s.workload, f);
            }
            if let Some(m) = mrcs[idx[6]] {
                s.mrc_depth = m;
            }
            if let Some(k) = mac_slots[idx[7]] {
                s.mac_slots = k;
            }
            if let Some(n) = n_tags[idx[8]] {
                s.n_tags = n;
            }
            if let Some(a) = arrivals[idx[9]] {
                s.arrival_model = a;
            }
            if let Some(l) = offered[idx[10]] {
                s.offered_load = l;
            }
            if let Some(p) = profiles[idx[11]] {
                s.app_profile = p;
            }
            // Deterministic per-point seed: a hash of the base seed and
            // the grid coordinates — never of execution order.
            s.seed = point_seed(self.base.seed, &coords);
            // One host programme per repetition, shared across the whole
            // grid: the station broadcasts one programme no matter where
            // the receiver stands, and shared derivation inputs are what
            // make the sweep cache hit.
            s.program_seed = program_seed(self.base.seed, rep);
            s.workload = s.workload.reseed(rep as u64);
            out.push(SweepPoint {
                scenario: s,
                coords,
            });
            for d in (0..13).rev() {
                idx[d] += 1;
                if idx[d] < lens[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// Measures `metric` against `sim` at every grid point, in parallel:
    /// the one-number case of [`Self::evaluate`].
    pub fn run(&self, sim: &dyn Simulator, metric: &dyn Metric) -> SweepResults {
        self.evaluate(|s| metric.evaluate(sim, s))
    }

    /// [`Self::run`] on one thread: the reference the parallel path
    /// must match bit for bit.
    pub fn run_serial(&self, sim: &dyn Simulator, metric: &dyn Metric) -> SweepResults {
        self.evaluate_serial(|s| metric.evaluate(sim, s))
    }

    /// Evaluates `f` at every grid point on one thread (reference
    /// implementation; [`Self::evaluate`] must match it bit for bit).
    pub fn evaluate_serial<T>(&self, f: impl Fn(&Scenario) -> T) -> SweepResults<T> {
        let points = self.points();
        // Adopt a cache already installed on this thread (a campaign
        // run shares one across figures); otherwise make a fresh one.
        let shared = self.cache.then(|| cache::active().unwrap_or_default());
        let _guard = cache::install(shared.clone());
        // Physical front ends are shared within this grid only.
        let _front_ends = shared.as_ref().map(|c| c.front_end_scope());
        let points = points
            .iter()
            .map(|p| SweepValue {
                scenario: p.scenario,
                coords: p.coords,
                value: {
                    fmbs_obs::span!(fmbs_obs::stages::SWEEP_POINT);
                    f(&p.scenario)
                },
            })
            .collect();
        SweepResults {
            points,
            cache: shared.map(|c| c.stats()).unwrap_or_default(),
        }
    }

    /// Evaluates `f` at every grid point in parallel over scoped worker
    /// threads.
    ///
    /// Workers claim points from a shared cursor and evaluate them
    /// independently; because every point's scenario (seed included) is
    /// fixed at expansion time, the result is identical to
    /// [`Self::evaluate_serial`] regardless of scheduling.
    pub fn evaluate<T: Send>(&self, f: impl Fn(&Scenario) -> T + Sync) -> SweepResults<T> {
        let points = self.points();
        let workers = self
            .threads
            .unwrap_or_else(fmbs_obs::cores)
            .min(points.len());
        if workers <= 1 {
            return self.evaluate_serial(f);
        }

        // As in `evaluate_serial`: adopt the calling thread's installed
        // cache if there is one, so campaign figures share hits.
        let shared: Option<Arc<SweepCache>> =
            self.cache.then(|| cache::active().unwrap_or_default());
        let _front_ends = shared.as_ref().map(|c| c.front_end_scope());
        // Each worker profiles into its own child collector (timings and
        // counters only — no RNG is touched), merged back in worker
        // order so the aggregate is schedule-independent.
        let cursor = AtomicUsize::new(0);
        let mut values: Vec<Option<T>> = points.iter().map(|_| None).collect();
        let done = fmbs_obs::scoped_workers(workers, |_| {
            // Every worker reads through the one shared cache; the guard
            // keeps the install scoped to this worker.
            let _guard = cache::install(shared.clone());
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(p) = points.get(i) else { break done };
                let value = {
                    fmbs_obs::span!(fmbs_obs::stages::SWEEP_POINT);
                    f(&p.scenario)
                };
                done.push((i, value));
            }
        });
        for (i, v) in done.into_iter().flatten() {
            values[i] = Some(v);
        }

        SweepResults {
            points: points
                .iter()
                .zip(values)
                .map(|(p, v)| SweepValue {
                    scenario: p.scenario,
                    coords: p.coords,
                    value: v.expect("every sweep point evaluated"),
                })
                .collect(),
            cache: shared.map(|c| c.stats()).unwrap_or_default(),
        }
    }
}

fn set_bitrate(w: super::scenario::Workload, bitrate: Bitrate) -> super::scenario::Workload {
    use super::scenario::Workload;
    match w {
        Workload::Data {
            n_bits,
            stereo_band,
            payload_seed,
            ..
        } => Workload::Data {
            bitrate,
            n_bits,
            stereo_band,
            payload_seed,
        },
        other => panic!("bitrates axis needs a Data workload, got {other:?}"),
    }
}

fn set_tone_freq(w: super::scenario::Workload, freq_hz: f64) -> super::scenario::Workload {
    use super::scenario::Workload;
    match w {
        Workload::Tone {
            secs,
            amp,
            stereo_band,
            ..
        } => Workload::Tone {
            freq_hz,
            secs,
            amp,
            stereo_band,
        },
        other => panic!("tone_freqs_hz axis needs a Tone workload, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fast::FastSim;
    use crate::sim::metric::{Ber, ToneSnr};
    use crate::sim::scenario::Workload;

    fn ber_grid() -> SweepBuilder {
        let base = Scenario::bench(-40.0, 6.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 120));
        SweepBuilder::new(base)
            .powers_dbm([-30.0, -50.0])
            .distances_ft([4.0, 10.0, 16.0])
            .repeats(2)
    }

    #[test]
    fn grid_expansion_counts_and_coords() {
        let pts = ber_grid().points();
        assert_eq!(pts.len(), 2 * 3 * 2);
        assert_eq!(pts[0].coords, Coords::default());
        let last = pts.last().unwrap().coords;
        assert_eq!((last.power, last.distance, last.repeat), (1, 2, 1));
        // Axis values applied.
        assert_eq!(pts[0].scenario.ambient_at_tag, Dbm(-30.0));
        assert_eq!(pts.last().unwrap().scenario.ambient_at_tag, Dbm(-50.0));
    }

    #[test]
    fn per_point_seeds_are_unique_and_deterministic() {
        let a = ber_grid().points();
        let b = ber_grid().points();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario.seed, y.scenario.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|p| p.scenario.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "seed collision in grid");
    }

    #[test]
    fn seeds_stable_when_other_axes_grow() {
        // Densifying one axis must not perturb the seeds of points the
        // coarse and dense grids share (coordinate hash, not linear
        // index).
        let base = Scenario::bench(-40.0, 6.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 120));
        let coarse = SweepBuilder::new(base)
            .powers_dbm([-30.0, -50.0])
            .distances_ft([4.0, 10.0])
            .points();
        let dense = SweepBuilder::new(base)
            .powers_dbm([-30.0, -50.0])
            .distances_ft([4.0, 10.0, 16.0])
            .repeats(2)
            .points();
        for c in &coarse {
            let twin = dense
                .iter()
                .find(|d| d.coords == c.coords)
                .expect("shared coordinate present in dense grid");
            assert_eq!(twin.scenario.seed, c.scenario.seed);
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let sweep = ber_grid();
        let serial = sweep.run_serial(&FastSim, &Ber::default());
        let parallel = sweep.clone().threads(4).run(&FastSim, &Ber::default());
        assert_eq!(serial.points.len(), parallel.points.len());
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(s.coords, p.coords);
            assert!(
                s.value.to_bits() == p.value.to_bits(),
                "point {:?}: serial {} vs parallel {}",
                s.coords,
                s.value,
                p.value
            );
        }
    }

    /// One evaluation per point feeds several readings: each projection
    /// of a parallel `evaluate` equals the serial reference and the
    /// one-number `run` of the same reading, bit for bit.
    #[test]
    fn evaluate_projects_every_reading_of_one_run() {
        let sweep = ber_grid();
        let both = |s: &Scenario| (Ber::default().evaluate(&FastSim, s), s.seed);
        let serial = sweep.evaluate_serial(both);
        let parallel = sweep.clone().threads(3).evaluate(both);
        let ber = sweep.run(&FastSim, &Ber::default());
        for (read, single) in [
            (parallel.project(|v| v.0), &ber),
            (serial.project(|v| v.0), &ber),
        ] {
            for (a, b) in read.points.iter().zip(&single.points) {
                assert_eq!(a.coords, b.coords);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
        for (s, p) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(s.value.1, p.scenario.seed);
            assert_eq!(p.value.1, p.scenario.seed);
        }
    }

    /// A sweep that adopts a shared cache (as every campaign figure
    /// does) shares front ends inside its grid and leaves none behind,
    /// serial or parallel; a physical run outside any sweep neither
    /// caches nor counts one.
    #[test]
    fn shared_cache_keeps_no_front_end_past_its_sweep() {
        let physical = crate::sim::Tier::Physical.simulator();
        let shared = SweepCache::new();
        let _guard = cache::install(Some(shared.clone()));
        let base = Scenario::bench(-30.0, 4.0, ProgramKind::News)
            .with_workload(Workload::tone(2_000.0, 0.05));
        let sweep = SweepBuilder::new(base).powers_dbm([-30.0, -50.0]);
        let metric = ToneSnr::default();
        let serial = sweep.run_serial(physical, &metric);
        assert_eq!(serial.cache.front_end_hits, 1);
        assert_eq!(shared.front_end_bytes(), 0);
        // Two workers may both miss the one front end, so count lookups.
        let parallel = sweep.clone().threads(2).run(physical, &metric);
        let fe = parallel.cache;
        assert_eq!(fe.front_end_hits + fe.front_end_misses, 4);
        assert_eq!(shared.front_end_bytes(), 0);
        let outside = metric.evaluate(physical, &serial.points[0].scenario);
        assert_eq!(outside.to_bits(), serial.points[0].value.to_bits());
        let after = shared.stats();
        assert_eq!(after.front_end_hits, fe.front_end_hits);
        assert_eq!(after.front_end_misses, fe.front_end_misses);
        assert_eq!(shared.front_end_bytes(), 0);
    }

    #[test]
    fn cache_is_semantically_invisible() {
        // A cached run must be bit-identical to a cache-disabled run —
        // the cache keys capture every derivation input — and a grid
        // whose points share (program_seed, programme) and payload
        // derivations must actually hit.
        let sweep = ber_grid();
        let cached = sweep.run_serial(&FastSim, &Ber::default());
        let uncached = sweep
            .clone()
            .cache(false)
            .run_serial(&FastSim, &Ber::default());
        assert_eq!(cached.points.len(), uncached.points.len());
        for (c, u) in cached.points.iter().zip(&uncached.points) {
            assert_eq!(c.coords, u.coords);
            assert!(
                c.value.to_bits() == u.value.to_bits(),
                "point {:?}: cached {} vs uncached {}",
                c.coords,
                c.value,
                u.value
            );
        }
        // 2 powers × 3 distances share one host programme and one payload
        // per repetition: first point of each repeat misses, the rest hit.
        assert!(cached.cache.host_hits > 0, "{:?}", cached.cache);
        assert!(cached.cache.payload_hits > 0, "{:?}", cached.cache);
        assert_eq!(cached.cache.host_misses, 2);
        assert_eq!(cached.cache.payload_misses, 2);
        assert_eq!(uncached.cache, Default::default());
    }

    #[test]
    fn grid_points_share_program_seed_within_repeat() {
        let pts = ber_grid().points();
        let rep0: Vec<_> = pts.iter().filter(|p| p.coords.repeat == 0).collect();
        let rep1: Vec<_> = pts.iter().filter(|p| p.coords.repeat == 1).collect();
        assert!(rep0
            .iter()
            .all(|p| p.scenario.program_seed == rep0[0].scenario.program_seed));
        assert_ne!(
            rep0[0].scenario.program_seed, rep1[0].scenario.program_seed,
            "repeats must refresh the programme realisation"
        );
    }

    #[test]
    fn series_by_groups_and_averages() {
        let results = ber_grid().threads(2).run(&FastSim, &Ber::default());
        let series = results.series_by(|v| v.scenario.ambient_at_tag.0, |v| v.scenario.distance_ft);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, -30.0);
        assert_eq!(series[0].1.len(), 3, "repeats folded into one x point");
        // Stronger power should not be worse on average across the line.
        let mean = |pts: &[(f64, f64)]| pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        assert!(mean(&series[0].1) <= mean(&series[1].1) + 0.02);
    }

    #[test]
    fn tone_freq_axis_rewrites_workload() {
        let base = Scenario::bench(-20.0, 4.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.2));
        let results = SweepBuilder::new(base)
            .tone_freqs_hz([1_000.0, 14_500.0])
            .run(&FastSim, &ToneSnr::default());
        assert_eq!(results.points.len(), 2);
        // Fig. 6's cliff: in-band tone far outperforms one past 13 kHz.
        assert!(
            results.points[0].value > results.points[1].value + 10.0,
            "1 kHz {} vs 14.5 kHz {}",
            results.points[0].value,
            results.points[1].value
        );
    }

    #[test]
    fn empty_axes_run_single_base_point() {
        let base = Scenario::bench(-30.0, 4.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Bps100, 40));
        let results = SweepBuilder::new(base).run(&FastSim, &Ber::default());
        assert_eq!(results.points.len(), 1);
        assert!(results.mean() < 0.05);
    }
}

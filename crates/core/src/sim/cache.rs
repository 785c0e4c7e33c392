//! Content-addressed caching of a sweep's invariant derivations.
//!
//! Expanding a sweep grid multiplies scenarios that *share* expensive
//! derivations: every point of a power×distance grid hears the same host
//! programme (one station broadcasts, many receivers listen), and every
//! point of a BER figure encodes the same `(bitrate, payload_seed,
//! n_bits)` waveform. [`SweepCache`] memoises both behind their exact
//! derivation inputs:
//!
//! * `(program_seed, programme, duration, rate)` → host audio
//!   (mono, L−R), the [`Scenario::host_audio`] derivation;
//! * the [`Workload`]'s own fields + rate → synthesised tag baseband,
//!   the [`Workload::synthesise`] derivation;
//! * for the physical tier, the full RF **front end** — host modulator
//!   IQ and the tag's un-scaled backscatter product — keyed by the host
//!   and payload derivation inputs plus both sample rates and `f_back`.
//!   Power scaling, fading and noise are per-point (geometry, seed) and
//!   applied downstream, so a power×distance grid modulates its host
//!   station once per programme realisation instead of once per point —
//!   what makes physical-tier sweeps tractable.
//!
//! The cache is **semantically invisible**: keys capture every input of
//! the derivation, values are exactly what the uncached path computes,
//! and both simulation tiers read through the same lookup — so a cached
//! sweep run is bit-identical to a cache-disabled run (property-tested
//! in [`super::sweep`]).
//!
//! One `Arc<SweepCache>` is shared by all of a sweep's worker threads
//! (the maps are mutex-guarded; hit/miss counters are atomics reported
//! in the sweep results). Workers *install* the cache into a
//! thread-local so the scenario derivations deep inside the simulators
//! can consult it without threading a handle through every signature;
//! the [`ActiveCacheGuard`] restores the previous handle on drop, which
//! keeps nested sweeps (a metric running its own sweep) correct.

use super::scenario::{Scenario, SynthesisedPayload, Workload};
use crate::modem::Bitrate;
use fmbs_audio::program::ProgramKind;
use fmbs_dsp::complex::Complex;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Host-audio cache key: every input of the
/// [`Scenario::host_audio_uncached`] derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct HostKey {
    program_seed: u64,
    program: ProgramKind,
    n: usize,
    rate_bits: u64,
}

/// Payload cache key: every input of the
/// [`Workload::synthesise_uncached`] derivation, with `f64` fields
/// compared exactly (by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PayloadKey {
    Silence {
        secs_bits: u64,
    },
    Tone {
        freq_bits: u64,
        secs_bits: u64,
        amp_bits: u64,
    },
    Data {
        bitrate: Bitrate,
        n_bits: u32,
        payload_seed: u64,
    },
    Speech {
        secs_bits: u64,
        payload_seed: u64,
    },
    CoopAudio {
        secs_bits: u64,
        payload_seed: u64,
    },
}

impl PayloadKey {
    fn new(w: &Workload) -> Self {
        match *w {
            Workload::Silence { secs } => PayloadKey::Silence {
                secs_bits: secs.to_bits(),
            },
            // `stereo_band` routes the waveform, it does not change it —
            // leave it out of the key so overlay and stereo sweeps share
            // encodings.
            Workload::Tone {
                freq_hz, secs, amp, ..
            } => PayloadKey::Tone {
                freq_bits: freq_hz.to_bits(),
                secs_bits: secs.to_bits(),
                amp_bits: amp.to_bits(),
            },
            Workload::Data {
                bitrate,
                n_bits,
                payload_seed,
                ..
            } => PayloadKey::Data {
                bitrate,
                n_bits,
                payload_seed,
            },
            Workload::Speech {
                secs, payload_seed, ..
            } => PayloadKey::Speech {
                secs_bits: secs.to_bits(),
                payload_seed,
            },
            Workload::CoopAudio { secs, payload_seed } => PayloadKey::CoopAudio {
                secs_bits: secs.to_bits(),
                payload_seed,
            },
        }
    }
}

/// Physical front-end cache key: every input of the
/// [`super::physical::PhysicalSim`] RF front end (host modulator output
/// and the tag's un-scaled backscatter product). Geometry, link budget,
/// fading and noise are applied *after* the front end, so they stay out
/// of the key. The host-station configuration is fixed by the physical
/// tier's scenario path (mono, no pre-emphasis); if that ever becomes
/// scenario-dependent it must join the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FrontEndKey {
    program_seed: u64,
    program: ProgramKind,
    payload: PayloadKey,
    /// Host-audio length in samples at [`super::fast::FAST_AUDIO_RATE`].
    n: usize,
    /// Rate the tag baseband enters the chain at (48 kHz mono-band,
    /// 192 kHz stereo multiplex).
    tag_rate_bits: u64,
    iq_rate_bits: u64,
    f_back_bits: u64,
    stereo_band: bool,
}

/// A cached RF front end: `(host_iq, backscatter_iq)` before power
/// scaling, fading and noise.
pub type RfFrontEnd = Arc<(Vec<Complex>, Vec<Complex>)>;

/// Upper bound on the total IQ samples the front-end cache retains
/// across all entries (both vectors counted). Front-end buffers are
/// huge — a 0.5 s tone at 2.56 MHz is ~2.6M samples (~41 MB) per
/// entry, an 8 s `--full` speech realisation ~41M (~656 MB) — and a
/// sweep's repetitions each key their own entry, so an unbounded map
/// could grow to multiple GB on dense physical grids. Past the budget
/// new entries are simply not retained: every lookup stays
/// semantically invisible (the computed value is returned either way),
/// oversized sweeps just recompute per point.
const FRONT_END_MAX_SAMPLES: usize = 64_000_000; // ~1 GB at 16 B/sample

/// Schema version written by [`CacheStats::to_value`]. Version 1 (the
/// implicit pre-versioned schema) lacked the `version` and
/// `front_end_*` fields; version 2 carries every counter the cache
/// keeps, physical front end included.
pub const CACHE_STATS_VERSION: u32 = 2;

/// Hit/miss counters of one sweep's cache, reported in
/// [`super::sweep::SweepResults`].
///
/// Serialization is hand-written (the vendored serde derive has no
/// field defaults): committed perf records embed this struct, and the
/// series predates the `version` and `front_end_*` fields, so
/// deserialization defaults anything missing instead of erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Schema version of the serialized form (see
    /// [`CACHE_STATS_VERSION`]); records without the field read as 1.
    pub version: u32,
    /// Host-audio derivations served from the cache.
    pub host_hits: usize,
    /// Host-audio derivations computed (then inserted).
    pub host_misses: usize,
    /// Payload syntheses served from the cache.
    pub payload_hits: usize,
    /// Payload syntheses computed (then inserted).
    pub payload_misses: usize,
    /// Physical-tier RF front-end derivations served from the cache.
    pub front_end_hits: usize,
    /// Physical-tier RF front-end derivations computed (then inserted).
    pub front_end_misses: usize,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            version: CACHE_STATS_VERSION,
            host_hits: 0,
            host_misses: 0,
            payload_hits: 0,
            payload_misses: 0,
            front_end_hits: 0,
            front_end_misses: 0,
        }
    }
}

impl CacheStats {
    /// Total lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.host_hits + self.payload_hits + self.front_end_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> usize {
        self.host_misses + self.payload_misses + self.front_end_misses
    }
}

impl Serialize for CacheStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), Value::U64(u64::from(self.version))),
            ("host_hits".into(), Value::U64(self.host_hits as u64)),
            ("host_misses".into(), Value::U64(self.host_misses as u64)),
            ("payload_hits".into(), Value::U64(self.payload_hits as u64)),
            (
                "payload_misses".into(),
                Value::U64(self.payload_misses as u64),
            ),
            (
                "front_end_hits".into(),
                Value::U64(self.front_end_hits as u64),
            ),
            (
                "front_end_misses".into(),
                Value::U64(self.front_end_misses as u64),
            ),
        ])
    }
}

impl Deserialize for CacheStats {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Absent fields default rather than error so version-1 records
        // (committed before the front-end counters were serialized)
        // stay parseable.
        fn field<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, serde::Error> {
            match v.get_field(name) {
                Ok(f) => T::from_value(f),
                Err(_) => Ok(T::default()),
            }
        }
        Ok(CacheStats {
            version: match v.get_field("version") {
                Ok(f) => u32::from_value(f)?,
                Err(_) => 1,
            },
            host_hits: field(v, "host_hits")?,
            host_misses: field(v, "host_misses")?,
            payload_hits: field(v, "payload_hits")?,
            payload_misses: field(v, "payload_misses")?,
            front_end_hits: field(v, "front_end_hits")?,
            front_end_misses: field(v, "front_end_misses")?,
        })
    }
}

/// A cached `(mono, L−R)` host-audio derivation.
type HostAudio = Arc<(Vec<f64>, Vec<f64>)>;

/// A sweep-scoped content-addressed cache (see the module docs).
#[derive(Debug, Default)]
pub struct SweepCache {
    host: Mutex<HashMap<HostKey, HostAudio>>,
    // Keyed by (workload derivation inputs, sample-rate bits).
    payload: Mutex<HashMap<(PayloadKey, u64), Arc<SynthesisedPayload>>>,
    // The physical tier's scenario-invariant RF front end.
    front_end: Mutex<HashMap<FrontEndKey, RfFrontEnd>>,
    // IQ samples currently retained by `front_end` (mutated only under
    // its lock; atomic so `stats` can read without locking).
    front_end_samples: AtomicUsize,
    host_hits: AtomicUsize,
    host_misses: AtomicUsize,
    payload_hits: AtomicUsize,
    payload_misses: AtomicUsize,
    front_end_hits: AtomicUsize,
    front_end_misses: AtomicUsize,
}

impl SweepCache {
    /// Creates an empty cache behind the `Arc` the sweep workers share.
    pub fn new() -> Arc<Self> {
        Arc::new(SweepCache::default())
    }

    /// Snapshot of the hit/miss counters (all derivation kinds,
    /// physical front end included).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            version: CACHE_STATS_VERSION,
            host_hits: self.host_hits.load(Ordering::Relaxed),
            host_misses: self.host_misses.load(Ordering::Relaxed),
            payload_hits: self.payload_hits.load(Ordering::Relaxed),
            payload_misses: self.payload_misses.load(Ordering::Relaxed),
            front_end_hits: self.front_end_hits.load(Ordering::Relaxed),
            front_end_misses: self.front_end_misses.load(Ordering::Relaxed),
        }
    }

    /// The [`Scenario::host_audio`] derivation, memoised.
    pub fn host_audio(&self, s: &Scenario, rate: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let key = HostKey {
            program_seed: s.program_seed,
            program: s.program,
            n,
            rate_bits: rate.to_bits(),
        };
        if let Some(hit) = self
            .host
            .lock()
            .expect("sweep cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.host_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.host_hits");
            return (*hit).clone();
        }
        // Compute outside the lock; a racing duplicate insert stores the
        // identical (deterministic) value, so last-write-wins is fine.
        self.host_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.host_misses");
        let computed = s.host_audio_uncached(rate, n);
        self.host
            .lock()
            .expect("sweep cache lock poisoned")
            .insert(key, Arc::new(computed.clone()));
        computed
    }

    /// The physical tier's RF front end (host modulator output + un-scaled
    /// tag backscatter product), memoised behind every derivation input:
    /// the host-audio key, the payload key, both sample rates and
    /// `f_back`. `compute` runs outside the lock; a racing duplicate
    /// insert stores the identical (deterministic) value.
    pub fn physical_front_end(
        &self,
        scenario: &Scenario,
        n: usize,
        tag_rate: f64,
        iq_rate: f64,
        compute: impl FnOnce() -> (Vec<Complex>, Vec<Complex>),
    ) -> RfFrontEnd {
        let key = FrontEndKey {
            program_seed: scenario.program_seed,
            program: scenario.program,
            payload: PayloadKey::new(&scenario.workload),
            n,
            tag_rate_bits: tag_rate.to_bits(),
            iq_rate_bits: iq_rate.to_bits(),
            f_back_bits: scenario.f_back_hz.to_bits(),
            stereo_band: scenario.workload.stereo_band(),
        };
        if let Some(hit) = self
            .front_end
            .lock()
            .expect("sweep cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.front_end_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.front_end_hits");
            return hit;
        }
        self.front_end_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.front_end_misses");
        let computed = Arc::new(compute());
        // Retain the entry only while the sample budget holds
        // ([`FRONT_END_MAX_SAMPLES`]); the computed value is returned
        // either way, so the cap never changes results.
        let samples = computed.0.len() + computed.1.len();
        let mut map = self.front_end.lock().expect("sweep cache lock poisoned");
        if self.front_end_samples.load(Ordering::Relaxed) + samples <= FRONT_END_MAX_SAMPLES
            && map.insert(key, computed.clone()).is_none()
        {
            self.front_end_samples.fetch_add(samples, Ordering::Relaxed);
        }
        computed
    }

    /// The [`Workload::synthesise`] derivation, memoised.
    pub fn payload(&self, w: &Workload, rate: f64) -> SynthesisedPayload {
        let key = (PayloadKey::new(w), rate.to_bits());
        if let Some(hit) = self
            .payload
            .lock()
            .expect("sweep cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.payload_hits.fetch_add(1, Ordering::Relaxed);
            fmbs_obs::counter!("cache.payload_hits");
            return (*hit).clone();
        }
        // Compute outside the lock; a racing duplicate insert stores the
        // identical (deterministic) value, so last-write-wins is fine.
        self.payload_misses.fetch_add(1, Ordering::Relaxed);
        fmbs_obs::counter!("cache.payload_misses");
        let computed = w.synthesise_uncached(rate);
        self.payload
            .lock()
            .expect("sweep cache lock poisoned")
            .insert(key, Arc::new(computed.clone()));
        computed
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<SweepCache>>> = const { RefCell::new(None) };
}

/// The cache installed on this thread, if any.
pub fn active() -> Option<Arc<SweepCache>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Installs `cache` as this thread's active cache until the returned
/// guard drops (restoring whatever was active before — nested sweeps
/// each see their own cache).
pub fn install(cache: Option<Arc<SweepCache>>) -> ActiveCacheGuard {
    let prev = ACTIVE.with(|a| a.replace(cache));
    ActiveCacheGuard { prev }
}

/// Restores the previously active cache on drop (see [`install`]).
pub struct ActiveCacheGuard {
    prev: Option<Arc<SweepCache>>,
}

impl Drop for ActiveCacheGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

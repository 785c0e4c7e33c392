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
//! * for the physical tier, the RF **front end** — host modulator IQ
//!   plus the tag's switch state, one bit per sample
//!   ([`RfFrontEnd`]) — keyed by the host and payload derivation inputs
//!   plus both sample rates and `f_back`. Power scaling, fading and
//!   noise are per-point (geometry, seed) and applied downstream, so a
//!   power×distance grid modulates its host station once per programme
//!   realisation instead of once per point — what makes physical-tier
//!   sweeps tractable.
//!
//! The cache is **semantically invisible**: keys capture every input of
//! the derivation, values are exactly what the uncached path computes,
//! and both simulation tiers read through the same lookup — so a cached
//! sweep run is bit-identical to a cache-disabled run (property-tested
//! in [`super::sweep`]). A hit hands out the shared `Arc`; nothing is
//! copied out of an entry.
//!
//! Front-end entries are tens of megabytes each and only ever shared
//! within one sweep's grid, so they live for one sweep: the engine
//! opens a [`FrontEndScope`] while it runs, the cache retains front
//! ends only while a scope is open, and the last scope to close drops
//! them. A campaign's shared cache therefore keeps its host and payload
//! entries across figures but no front end past the sweep that made it,
//! and a physical run outside any sweep (the ablation figure's single
//! point) computes its front end without caching or counting it.
//!
//! One `Arc<SweepCache>` is shared by all of a sweep's worker threads
//! (the maps are mutex-guarded, and each key is derived once, by its
//! first lookup, while later lookups wait for it; hit/miss counters
//! are atomics reported in the sweep results, and repeat run to run). Workers *install* the cache into a
//! thread-local so the scenario derivations deep inside the simulators
//! can consult it without threading a handle through every signature;
//! the [`ActiveCacheGuard`] restores the previous handle on drop, which
//! keeps nested sweeps (a metric running its own sweep) correct.

use super::physical::RfFrontEnd;
use super::scenario::{HostAudio, Scenario, SynthesisedPayload, Workload};
use crate::modem::Bitrate;
use fmbs_audio::program::ProgramKind;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cache entry: derived by the first lookup of its key, which the
/// key's other lookups wait on instead of deriving it again.
type Entry<V> = Arc<OnceLock<Arc<V>>>;

/// Looks `key` up in the `map` behind `shared`, deriving its value
/// with `compute` if no lookup has yet. The lock is held only to find
/// or add the key's entry; `compute` runs outside it, and concurrent
/// lookups of the same key wait for that one derivation. Returns the
/// value, the entry, and whether this lookup derived it (a miss).
fn memoise<M, K: Eq + Hash, V>(
    shared: &Mutex<M>,
    map: impl FnOnce(&mut M) -> &mut HashMap<K, Entry<V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (Arc<V>, Entry<V>, bool) {
    let entry = {
        let mut guard = shared.lock().expect("sweep cache lock poisoned");
        Arc::clone(map(&mut guard).entry(key).or_default())
    };
    let mut derived = false;
    let value = entry
        .get_or_init(|| {
            derived = true;
            Arc::new(compute())
        })
        .clone();
    (value, entry, derived)
}

/// Counts one lookup as a hit or a miss (`derived`), in the cache's
/// own counter and in the named obs counter.
fn count(derived: bool, hit: (&AtomicUsize, &'static str), miss: (&AtomicUsize, &'static str)) {
    let (counter, name) = if derived { miss } else { hit };
    counter.fetch_add(1, Ordering::Relaxed);
    fmbs_obs::counter!(name);
}

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
/// and the tag's switch states). Geometry, link budget,
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

/// Upper bound on the heap bytes the front-end cache retains across all
/// entries. An entry is the host IQ at 16 B per sample plus one switch
/// bit per sample: a 0.75 s point at 2.56 MHz is ~31 MB, an 8 s
/// `--full` speech realisation ~330 MB. A sweep's repetitions each key
/// their own entry, so an unbounded map could grow to multiple GB on
/// dense physical grids. Past the budget new entries are simply not
/// retained: every lookup stays semantically invisible (the computed
/// value is returned either way), oversized sweeps just recompute per
/// point.
const FRONT_END_MAX_BYTES: usize = 1 << 30;

/// Hit/miss counters of one sweep's cache, reported in
/// [`super::sweep::SweepResults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
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

/// The front-end map and the heap bytes its entries hold.
#[derive(Debug, Default)]
struct FrontEnds {
    map: HashMap<FrontEndKey, Entry<RfFrontEnd>>,
    bytes: usize,
}

/// A sweep-scoped content-addressed cache (see the module docs).
#[derive(Debug, Default)]
pub struct SweepCache {
    host: Mutex<HashMap<HostKey, Entry<HostAudio>>>,
    // Keyed by (workload derivation inputs, sample-rate bits).
    payload: Mutex<HashMap<(PayloadKey, u64), Entry<SynthesisedPayload>>>,
    // The physical tier's scenario-invariant RF front end, with the
    // heap bytes its entries retain.
    front_end: Mutex<FrontEnds>,
    // Open [`FrontEndScope`]s: front ends are cached only while one is.
    front_end_scopes: AtomicUsize,
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
            host_hits: self.host_hits.load(Ordering::Relaxed),
            host_misses: self.host_misses.load(Ordering::Relaxed),
            payload_hits: self.payload_hits.load(Ordering::Relaxed),
            payload_misses: self.payload_misses.load(Ordering::Relaxed),
            front_end_hits: self.front_end_hits.load(Ordering::Relaxed),
            front_end_misses: self.front_end_misses.load(Ordering::Relaxed),
        }
    }

    /// The [`Scenario::host_audio`] derivation, memoised.
    pub fn host_audio(&self, s: &Scenario, rate: f64, n: usize) -> Arc<HostAudio> {
        let key = HostKey {
            program_seed: s.program_seed,
            program: s.program,
            n,
            rate_bits: rate.to_bits(),
        };
        let (value, _, derived) =
            memoise(&self.host, |m| m, key, || s.host_audio_uncached(rate, n));
        count(
            derived,
            (&self.host_hits, "cache.host_hits"),
            (&self.host_misses, "cache.host_misses"),
        );
        value
    }

    /// Opens a scope in which [`Self::physical_front_end`] caches; the
    /// sweep engine holds one for the length of each sweep. When the
    /// last open scope closes, every front-end entry is dropped.
    #[must_use = "front ends are cached only while the scope is held"]
    pub fn front_end_scope(self: &Arc<Self>) -> FrontEndScope {
        self.front_end_scopes.fetch_add(1, Ordering::SeqCst);
        FrontEndScope {
            cache: Arc::clone(self),
        }
    }

    /// Heap bytes the front-end entries currently retain.
    pub fn front_end_bytes(&self) -> usize {
        self.front_end
            .lock()
            .expect("sweep cache lock poisoned")
            .bytes
    }

    /// The physical tier's RF front end (host modulator output + the
    /// tag's switch states), memoised behind every derivation input: the
    /// host-audio key, the payload key, both sample rates and `f_back`.
    /// `compute` runs outside the lock, once per key: a racing lookup of
    /// the same key waits for it. With no [`FrontEndScope`]
    /// open the front end is computed and returned, neither cached nor
    /// counted.
    pub fn physical_front_end(
        &self,
        scenario: &Scenario,
        n: usize,
        tag_rate: f64,
        iq_rate: f64,
        compute: impl FnOnce() -> RfFrontEnd,
    ) -> Arc<RfFrontEnd> {
        if self.front_end_scopes.load(Ordering::SeqCst) == 0 {
            return Arc::new(compute());
        }
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
        let (value, entry, derived) = memoise(&self.front_end, |fe| &mut fe.map, key, compute);
        count(
            derived,
            (&self.front_end_hits, "cache.front_end_hits"),
            (&self.front_end_misses, "cache.front_end_misses"),
        );
        if derived {
            // Retain the entry only while a scope is open and the byte
            // budget holds ([`FRONT_END_MAX_BYTES`]), else drop it (and
            // a closed scope has dropped it already); the value is
            // returned either way, so neither changes results.
            let bytes = value.heap_bytes();
            let mut fe = self.front_end.lock().expect("sweep cache lock poisoned");
            if fe.map.get(&key).is_some_and(|e| Arc::ptr_eq(e, &entry)) {
                if self.front_end_scopes.load(Ordering::SeqCst) > 0
                    && fe.bytes + bytes <= FRONT_END_MAX_BYTES
                {
                    fe.bytes += bytes;
                } else {
                    fe.map.remove(&key);
                }
            }
        }
        value
    }

    /// The [`Workload::synthesise`] derivation, memoised.
    pub fn payload(&self, w: &Workload, rate: f64) -> Arc<SynthesisedPayload> {
        let key = (PayloadKey::new(w), rate.to_bits());
        let (value, _, derived) =
            memoise(&self.payload, |m| m, key, || w.synthesise_uncached(rate));
        count(
            derived,
            (&self.payload_hits, "cache.payload_hits"),
            (&self.payload_misses, "cache.payload_misses"),
        );
        value
    }
}

/// An open front-end scope (see [`SweepCache::front_end_scope`]); the
/// last one to drop empties the front-end map.
pub struct FrontEndScope {
    cache: Arc<SweepCache>,
}

impl Drop for FrontEndScope {
    fn drop(&mut self) {
        // Close under the map's lock, so an insert that saw this scope
        // open lands before the clear, not after it. A poisoned lock
        // keeps its entries: drop must not panic.
        let Ok(mut fe) = self.cache.front_end.lock() else {
            return;
        };
        if self.cache.front_end_scopes.fetch_sub(1, Ordering::SeqCst) == 1 {
            *fe = FrontEnds::default();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn racing_lookups_of_one_key_derive_it_once() {
        // The second lookup starts only once the first is deriving, and
        // the first derivation finishes only once the second lookup is
        // under way: the second must take the first's value, whether it
        // finds the entry being derived or derived.
        let shared: Mutex<HashMap<u32, Entry<u64>>> = Mutex::default();
        let (deriving_tx, deriving_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let shared = &shared;
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                memoise(
                    shared,
                    |m| m,
                    7,
                    || {
                        deriving_tx.send(()).expect("second lookup waits");
                        release_rx.recv().expect("second lookup releases");
                        42
                    },
                )
            });
            let second = scope.spawn(move || {
                deriving_rx.recv().expect("first lookup derives");
                release_tx.send(()).expect("first lookup waits");
                memoise(shared, |m| m, 7, || -> u64 { panic!("derived twice") })
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!((*first.0, first.2), (42, true));
        assert_eq!((*second.0, second.2), (42, false));
        assert!(Arc::ptr_eq(&first.0, &second.0));
    }

    #[test]
    fn two_threads_racing_on_one_host_key_record_one_miss() {
        let cache = SweepCache::new();
        let scenario = Scenario::bench(-30.0, 4.0, ProgramKind::News);
        let start = Barrier::new(2);
        let hosts: Vec<Arc<HostAudio>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.host_audio(&scenario, 48_000.0, 4_800)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&hosts[0], &hosts[1]));
        let stats = cache.stats();
        assert_eq!((stats.host_hits, stats.host_misses), (1, 1));
    }
}

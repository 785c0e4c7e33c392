//! The deterministic discrete-event engine of one collision domain.
//!
//! Time advances in MAC slots (one slot = one packet airtime). An
//! [`EventQueue`] of per-slot FIFO buckets of tag ids (a calendar queue)
//! drives per-tag state machines:
//!
//! * **Contention** — tags sharing a collision domain (see
//!   [`crate::deploy`]) transmit in random slots with binary-exponential
//!   backoff after collisions (§8's slotted-Aloha sketch, made
//!   event-driven).
//! * **Energy** — a tag transmits only when its stored energy covers one
//!   packet's cost; otherwise it sleeps exactly as many slots as its
//!   harvester needs to close the deficit ([`crate::deploy::HarvestProfile`]).
//! * **Link** — a transmission that wins its slot is delivered with the
//!   packet-success probability of the [`crate::link::BerTable`].
//! * **Traffic** — under [`Traffic::Saturated`] every awake tag always
//!   has a frame; under [`Traffic::Trace`] each tag serves a FIFO
//!   arrival queue (idle when empty) and the engine tracks sojourn
//!   times, deadline hits and queue conservation.
//!
//! A slot is stepped in two phases: `gather` takes the slot's whole
//! bucket and sorts its tags into per-channel attempt buckets (no
//! randomness), `resolve` decides them.
//! [`crate::topology::CitySim`]'s one loop drives every domain through
//! them.
//!
//! # State layout
//!
//! A run holds, per tag, one hot state of [`TAG_STATE_BYTES`] bytes:
//! the RNG stream, energy store, head-of-queue index and link success
//! probability. What never changes during a run (harvest rate, transmit
//! cost, storage) is read from the domain's borrowed
//! [`crate::deploy::TagSite`]s, and ARQ and rate-fallback state lives
//! in a side table that only ARQ runs allocate. A single-receiver
//! plan's one domain reads its arrival queues from the shared
//! [`ArrivalTrace`] in place; a metro domain copies its tags' queues
//! once into a flat [`ArrivalTrace`] of its own, in local tag order, so
//! its slot loop reads one contiguous block and the trace is never
//! cloned per tag.
//!
//! # Determinism
//!
//! Three properties make same-seed runs trace-identical:
//! (1) events leave slot by slot, and a slot's events in push order:
//! each slot's bucket is a FIFO, and an event past the ring's window
//! waits in a heap keyed on `(slot, push counter)` and moves into its
//! bucket, in that order, before anything can be pushed there — so the
//! order is a total one that never depends on unordered ties; (2) the
//! engine is single-threaded and pushes in a fixed order, so push order
//! is itself reproducible; (3) every random draw comes from the owning
//! tag's *private* RNG stream (seeded from the run seed and the tag id),
//! so a draw's value depends only on how many draws that tag has made,
//! never on global interleaving.

use crate::deploy::{city_occupancy, HarvestProfile, TagSite};
use crate::faults::{FaultSchedule, FaultSpec};
use crate::link::{BerTable, PacketModel};
use fmbs_core::modem::Bitrate;
use fmbs_fm::band::{BandOccupancy, Channel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A far event: tag `tag` attempts a transmission in slot `at`, past
/// the queue's ring window.
///
/// The derived lexicographic order on `(at, seq, tag)` is the far
/// heap's order: `seq` (the push counter) is unique, so the order is
/// total and events of one slot leave in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: u64,
    seq: u64,
    tag: u32,
}

/// The fewest buckets a queue's ring holds, whatever its tag count.
const MIN_RING: u64 = 64;
/// The most buckets a queue's ring holds.
const MAX_RING: u64 = 1 << 16;
/// No cell, and a cell's unused tag entries.
const NIL: u32 = u32::MAX;
/// Tags one [`Cell`] holds.
const CELL_TAGS: usize = 3;

/// Up to [`CELL_TAGS`] tags of one slot in push order (unused entries
/// [`NIL`]), and the slot's next cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    tags: [u32; CELL_TAGS],
    next: u32,
}

/// One slot's tags: a list of cells from `first` to `last`, all full
/// but `last`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    first: u32,
    last: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        first: NIL,
        last: NIL,
    };
}

/// A calendar queue of transmission attempts (R. Brown, "Calendar
/// queues", CACM 1988): tags leave slot by slot, and within a slot in
/// push order.
///
/// A ring of per-slot FIFO buckets covers the window
/// `[base, base + window())`: bucket `slot & mask` holds the tags of
/// `slot` in push order, in a list of cells of `CELL_TAGS` tags.
/// Events past the window wait in a heap ordered by slot, then push
/// order, and move into their bucket, in that order, as soon as the
/// window reaches their slot. Nothing is pushed into a bucket before
/// that move, so a slot's tags leave in push order: the order of a heap
/// keyed on `(slot, push counter)`.
///
/// The ring covers the horizon (`n_slots` rounded up to a power of two)
/// unless the tag count caps it: at most `max(n_tags, 64)` rounded up,
/// and never more than 2¹⁶ buckets. A bucket costs 8 bytes and a cell
/// 16, a far event 24, so memory stays proportional to the tags however
/// sparse the slots they wait for, and one slot's tags are read a cell,
/// not a tag, at a time.
#[derive(Debug)]
pub struct EventQueue {
    /// Bucket `slot & mask` holds `slot`'s tags, for every slot of the
    /// window.
    ring: Vec<Bucket>,
    mask: u64,
    /// The window's first slot: no queued event is earlier.
    base: u64,
    /// Events in the ring.
    in_ring: usize,
    /// The buckets' cells; unused ones are chained from `free`.
    cells: Vec<Cell>,
    free: u32,
    /// Events past the window.
    far: BinaryHeap<Reverse<Event>>,
    /// Push counter of `far` (its stable tie-break).
    seq: u64,
    /// A `Vec` handed back by [`EventQueue::recycle`], filled by the
    /// next [`EventQueue::take`].
    spare: Vec<u32>,
}

impl EventQueue {
    /// An empty queue for `n_tags` tags over `n_slots` slots; the two
    /// size its ring.
    pub fn new(n_slots: u64, n_tags: usize) -> Self {
        let tags = (n_tags as u64).clamp(MIN_RING, MAX_RING);
        let len = n_slots.clamp(1, MAX_RING).min(tags).next_power_of_two();
        EventQueue {
            ring: vec![Bucket::EMPTY; len as usize],
            mask: len - 1,
            base: 0,
            in_ring: 0,
            cells: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            seq: 0,
            spare: Vec::new(),
        }
    }

    /// Slots the ring covers.
    pub fn window(&self) -> u64 {
        self.mask + 1
    }

    /// Schedules `tag` (below `u32::MAX`) to attempt in slot `at`, which
    /// must not precede the last slot [`EventQueue::peek_slot`] returned.
    pub fn push(&mut self, at: u64, tag: u32) {
        assert!(
            at >= self.base && tag != NIL,
            "tag {tag} at slot {at}: tags end below {NIL}, slots start at the head slot {}",
            self.base
        );
        if at - self.base <= self.mask {
            self.link(at, tag);
        } else {
            self.far.push(Reverse(Event {
                at,
                seq: self.seq,
                tag,
            }));
            self.seq += 1;
        }
    }

    /// The earliest slot holding an event (`None` = empty). Moves the
    /// window up to it.
    pub fn peek_slot(&mut self) -> Option<u64> {
        if self.in_ring == 0 {
            // Jump an empty ring straight to the first far event.
            self.base = self.far.peek()?.0.at;
            self.refill();
        }
        while self.ring[(self.base & self.mask) as usize].first == NIL {
            self.base += 1;
            self.refill();
        }
        Some(self.base)
    }

    /// Removes every event of `slot` and returns their tags in push
    /// order; empty unless `slot` is the earliest slot holding an event.
    /// Hand the `Vec` back through [`EventQueue::recycle`] once read.
    pub fn take(&mut self, slot: u64) -> Vec<u32> {
        let mut tags = std::mem::take(&mut self.spare);
        if self.peek_slot() != Some(slot) {
            return tags;
        }
        let b = std::mem::replace(&mut self.ring[(slot & self.mask) as usize], Bucket::EMPTY);
        let mut c = b.first;
        while c != b.last {
            let cell = &self.cells[c as usize];
            tags.extend_from_slice(&cell.tags);
            c = cell.next;
        }
        let last = &self.cells[b.last as usize].tags;
        tags.extend(last.iter().take_while(|&&t| t != NIL));
        // The emptied list joins the free chain whole.
        self.cells[b.last as usize].next = self.free;
        self.free = b.first;
        self.in_ring -= tags.len();
        tags
    }

    /// Takes back a `Vec` [`EventQueue::take`] returned, to reuse its
    /// allocation.
    pub fn recycle(&mut self, mut tags: Vec<u32>) {
        tags.clear();
        self.spare = tags;
    }

    /// Appends `tag` to the bucket of `at`, a slot of the window.
    fn link(&mut self, at: u64, tag: u32) {
        self.in_ring += 1;
        let b = &mut self.ring[(at & self.mask) as usize];
        if b.last != NIL {
            let last = &mut self.cells[b.last as usize].tags;
            if let Some(free) = last.iter_mut().find(|t| **t == NIL) {
                *free = tag;
                return;
            }
        }
        // The bucket has no cell, or its last is full: open one.
        let mut cell = Cell {
            tags: [NIL; CELL_TAGS],
            next: NIL,
        };
        cell.tags[0] = tag;
        let c = if self.free == NIL {
            self.cells.push(cell);
            u32::try_from(self.cells.len() - 1).expect("fewer than 2^32 cells")
        } else {
            let c = self.free;
            self.free = self.cells[c as usize].next;
            self.cells[c as usize] = cell;
            c
        };
        if b.last == NIL {
            b.first = c;
        } else {
            self.cells[b.last as usize].next = c;
        }
        b.last = c;
    }

    /// Moves every far event the window now covers into its bucket, in
    /// heap order.
    fn refill(&mut self) {
        while let Some(&Reverse(e)) = self.far.peek() {
            if e.at - self.base > self.mask {
                break;
            }
            self.far.pop();
            self.link(e.at, e.tag);
        }
    }
}

/// What happened to one transmission attempt (the trace event stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Sole transmitter in its slot and the packet survived the link.
    Delivered,
    /// Sole transmitter, but the link corrupted the packet.
    Corrupt,
    /// Two or more transmitters shared the slot.
    Collided,
}

/// What one trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A transmission attempt in the tag's collision domain, and what
    /// happened to it.
    Attempt {
        /// The attempt's collision domain.
        channel: u16,
        /// What happened.
        outcome: Outcome,
    },
    /// A scheduled tag reset was applied: volatile MAC/ARQ state wiped.
    Reset,
    /// A queued packet was given up for good (retransmission budget
    /// exhausted, or wiped from the queue by a reset).
    Abandon,
    /// A queued packet was shed before transmission because its
    /// deadline had already passed (`drop_expired` runs).
    Expired,
}

/// One entry of the (optional) event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Slot the event happened in.
    pub slot: u64,
    /// The tag it happened to.
    pub tag: u32,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The attempt outcome, when this event is an attempt.
    pub fn outcome(&self) -> Option<Outcome> {
        match self.kind {
            TraceKind::Attempt { outcome, .. } => Some(outcome),
            _ => None,
        }
    }
}

/// A bounded slot-level event trace. Pushes past the configured cap
/// ([`NetworkConfig::trace_cap`]) are counted, never silently lost:
/// [`EventTrace::dropped`] reports exactly how many events the cap cut.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    /// Recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace::new(usize::MAX)
    }
}

impl EventTrace {
    /// An empty trace retaining at most `cap` events.
    pub fn new(cap: usize) -> Self {
        EventTrace {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records `ev`, or counts it as dropped once the cap is reached.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the recorded events in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Events the cap cut (0 means the trace is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the cap cut any events.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Folds drops counted elsewhere (e.g. in per-domain traces a metro
    /// merge absorbed) into this trace's accounting.
    pub(crate) fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }
}

/// One queued message packet of a non-saturated traffic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Slot the packet enters its tag's FIFO queue.
    pub slot: u64,
    /// Allowed sojourn (arrival → delivery, in slots) before the
    /// message's deadline is missed.
    pub deadline_slots: u32,
}

/// Per-tag message arrival queues driving a [`Traffic::Trace`] run.
///
/// # Layout
///
/// One flat block: every tag's queue lies in one `Vec<Arrival>`, tag
/// after tag, and `start` holds one offset per tag plus one, so tag
/// `i`'s FIFO is `arrivals[start[i]..start[i + 1]]`, ascending by slot.
/// A 10^6-tag trace is two allocations, not one per tag. Tags beyond
/// [`ArrivalTrace::n_tags`] receive no traffic. Generators live a layer
/// up, in `fmbs-workload`; the engine only replays traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    start: Vec<usize>,
    arrivals: Vec<Arrival>,
}

impl Default for ArrivalTrace {
    fn default() -> Self {
        ArrivalTrace {
            start: vec![0],
            arrivals: Vec::new(),
        }
    }
}

impl ArrivalTrace {
    /// The trace whose tag `i` queues `arrivals[start[i]..start[i + 1]]`.
    ///
    /// # Panics
    /// When `start` does not begin at 0, decreases, or ends anywhere but
    /// at `arrivals.len()`.
    pub fn from_flat(start: Vec<usize>, arrivals: Vec<Arrival>) -> Self {
        assert_eq!(start.first(), Some(&0), "offsets start at 0");
        assert!(
            start.windows(2).all(|w| w[0] <= w[1]),
            "offsets never decrease"
        );
        assert_eq!(
            start.last(),
            Some(&arrivals.len()),
            "offsets end at the arrival count"
        );
        ArrivalTrace { start, arrivals }
    }

    /// Tags with a queue (possibly empty).
    pub fn n_tags(&self) -> usize {
        self.start.len() - 1
    }

    /// Tag `tag`'s FIFO queue, ascending by slot; empty past the last tag.
    pub fn of(&self, tag: usize) -> &[Arrival] {
        match (self.start.get(tag), self.start.get(tag + 1)) {
            (Some(&a), Some(&b)) => &self.arrivals[a..b],
            _ => &[],
        }
    }

    /// Every tag's queue, in tag order.
    pub fn queues(&self) -> impl ExactSizeIterator<Item = &[Arrival]> {
        self.start.windows(2).map(|w| &self.arrivals[w[0]..w[1]])
    }

    /// Total packets in the trace.
    pub fn offered(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// A flat copy of the queues of `tags` (in that order, as tags
    /// `0..`): one metro domain's arrivals in local tag order.
    pub(crate) fn select<I>(&self, tags: I) -> ArrivalTrace
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let mut start = Vec::with_capacity(tags.len() + 1);
        let mut arrivals = Vec::with_capacity(tags.clone().map(|g| self.of(g).len()).sum());
        start.push(0);
        for g in tags {
            arrivals.extend_from_slice(self.of(g));
            start.push(arrivals.len());
        }
        ArrivalTrace { start, arrivals }
    }
}

/// A trace from per-tag queues, tag `i` being the `i`-th item.
impl<Q: AsRef<[Arrival]>> FromIterator<Q> for ArrivalTrace {
    fn from_iter<T: IntoIterator<Item = Q>>(queues: T) -> Self {
        let mut trace = ArrivalTrace::default();
        for q in queues {
            trace.arrivals.extend_from_slice(q.as_ref());
            trace.start.push(trace.arrivals.len());
        }
        trace
    }
}

/// Link-layer ARQ parameters: per-packet ACK with a deterministic
/// timeout, bounded retransmission under the engine's existing
/// binary-exponential backoff, and graceful rate fallback.
///
/// With ARQ on, every transmission is followed by [`ArqConfig::ack_slots`]
/// slots of ACK wait before the tag may key the radio again. A lost
/// packet (corrupted *or* collided — the sender cannot tell, it just
/// sees no ACK) is retransmitted under backoff up to
/// [`ArqConfig::max_retx`] times, then abandoned. After
/// [`ArqConfig::fallback_after`] consecutive losses the tag falls back
/// to a lower backscatter rate — lower BER via the calibrated
/// [`crate::link::BerTable`], recovering range at the cost of a frame
/// airtime stretched by the rate ratio — and probes back up after
/// [`ArqConfig::recover_after`] consecutive successes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Slots spent waiting for the ACK after every attempt.
    pub ack_slots: u32,
    /// Retransmissions allowed per packet before it is abandoned.
    pub max_retx: u32,
    /// Consecutive losses before falling back to the lower rate.
    pub fallback_after: u32,
    /// Consecutive successes (while fallen back) before probing back up
    /// to the nominal rate.
    pub recover_after: u32,
    /// Explicit fallback rate; `None` picks the next rate below the
    /// config's nominal bitrate in [`Bitrate::ALL`] (no fallback when
    /// the nominal rate is already the lowest).
    pub fallback_bitrate: Option<Bitrate>,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            ack_slots: 1,
            max_retx: 4,
            fallback_after: 4,
            recover_after: 8,
            fallback_bitrate: None,
        }
    }
}

/// What keeps tags transmitting.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Full-buffer broadcast: every awake tag always has a frame (the
    /// pre-workload network-tier behaviour; capacity figures).
    Saturated,
    /// Trace-driven: each tag serves its FIFO arrival queue and stays
    /// idle — not contending, not spending energy — while it is empty.
    Trace(Arc<ArrivalTrace>),
}

/// Cap on the binary-exponential backoff exponent.
const MAX_BACKOFF_EXP: u8 = 8;

/// Everything that parameterises one network run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of deployed tags.
    pub n_tags: usize,
    /// Slots simulated.
    pub n_slots: u64,
    /// The data rate every tag uses.
    pub bitrate: Bitrate,
    /// Packet length in bits (sets the slot duration).
    pub packet_bits: u32,
    /// Mean ambient FM power across the deployment (dBm).
    pub mean_power_dbm: f64,
    /// The host station's channel.
    pub host: Channel,
    /// Channel occupancy the frequency plan is computed against.
    pub occupancy: BandOccupancy,
    /// What powers the tags.
    pub harvest: HarvestProfile,
    /// Energy storage per tag in µJ (tags start full).
    pub storage_uj: f64,
    /// Run seed.
    pub seed: u64,
    /// Record the slot-level event trace (off for large capacity runs).
    pub record_trace: bool,
    /// Retention cap of the recorded trace: events past it are counted
    /// in [`EventTrace::dropped`] instead of stored, so truncation is
    /// always explicit. The default keeps everything.
    pub trace_cap: usize,
    /// What keeps tags transmitting: full-buffer saturation or a
    /// per-tag arrival trace (the workload tier).
    pub traffic: Traffic,
    /// Deadline-aware head-of-line shedding: before keying the radio, a
    /// tag drops queued packets whose deadline has already passed
    /// instead of burning slots (and energy) on late data. Only
    /// meaningful under [`Traffic::Trace`].
    pub drop_expired: bool,
    /// Deterministic fault plan (station outages, harvest brownouts,
    /// interference bursts, tag resets). The default zero-count spec
    /// generates an empty schedule and the run is bit-identical to one
    /// with no fault layer at all.
    pub faults: FaultSpec,
    /// Link-layer ARQ; `None` (the default) keeps the pre-ARQ fire-and-
    /// forget MAC and its exact draw order.
    pub arq: Option<ArqConfig>,
}

impl NetworkConfig {
    /// A baseline city deployment: 1.6 kbps, 256-bit packets, mains
    /// power, trace off.
    pub fn new(n_tags: usize, n_slots: u64) -> Self {
        NetworkConfig {
            n_tags,
            n_slots,
            bitrate: Bitrate::Kbps1_6,
            packet_bits: 256,
            mean_power_dbm: -40.0,
            host: Channel(17),
            occupancy: city_occupancy(Channel(17), fmbs_core::DEFAULT_F_BACK_HZ),
            harvest: HarvestProfile::Mains,
            storage_uj: 40.0,
            seed: 0x5EED,
            record_trace: false,
            trace_cap: usize::MAX,
            traffic: Traffic::Saturated,
            drop_expired: false,
            faults: FaultSpec::none(),
            arq: None,
        }
    }

    /// Slot duration in seconds (one packet airtime).
    pub fn slot_secs(&self) -> f64 {
        self.packet_bits as f64 / self.bitrate.bits_per_second()
    }
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Deployed tags.
    pub n_tags: usize,
    /// Simulated slots.
    pub n_slots: u64,
    /// Slot duration in seconds.
    pub slot_secs: f64,
    /// Transmission attempts (each costs its tag one packet of energy).
    pub attempts: u64,
    /// Attempts that were sole-transmitter and survived the link.
    pub delivered: u64,
    /// Sole-transmitter attempts the link corrupted.
    pub corrupt: u64,
    /// Attempts that collided with another tag.
    pub collided: u64,
    /// Slots a tag spent waiting for energy, summed over tags.
    pub starved_slots: u64,
    /// Payload bits delivered.
    pub delivered_bits: u64,
    /// Packets delivered per tag.
    pub per_tag_delivered: Vec<u32>,
    /// Per-delivery contention latency in slots (the packet's first
    /// actual transmission → delivery; energy-recharge sleeps before
    /// the first transmission are excluded), ascending.
    pub latencies_slots: Vec<u32>,
    /// Packets the traffic trace offered inside the slot horizon
    /// (0 for saturated runs, where "offered" is unbounded).
    pub offered: u64,
    /// Delivered packets whose sojourn met their deadline (trace runs).
    pub on_time: u64,
    /// Queued packets shed because their deadline had already passed
    /// before transmission (`drop_expired` runs).
    pub expired_dropped: u64,
    /// Offered packets neither delivered, abandoned nor shed by the
    /// horizon — still waiting in a FIFO queue or mid-backoff (trace
    /// runs).
    pub still_queued: u64,
    /// ARQ retransmission attempts: every attempt beyond a packet's
    /// first (0 without ARQ).
    pub retransmissions: u64,
    /// Packets acknowledged by the ARQ (== `delivered` when ARQ is on;
    /// 0 without it).
    pub acked: u64,
    /// Packets given up for good: the retransmission budget was
    /// exhausted, or a tag reset wiped them from the queue.
    pub abandoned: u64,
    /// Slot-airtime spent transmitting at the fallback rate (each
    /// fallback attempt occupies `stretch` slots of airtime).
    pub rate_fallback_slots: u64,
    /// Per-delivery *sojourn* in slots — arrival → delivery, so
    /// queueing delay counts, unlike `latencies_slots` — ascending
    /// (trace runs only).
    pub sojourn_slots: Vec<u32>,
}

impl NetStats {
    /// Aggregate goodput in bits per second.
    pub fn goodput_bps(&self) -> f64 {
        self.delivered_bits as f64 / (self.n_slots as f64 * self.slot_secs).max(1e-12)
    }

    /// Fraction of attempts lost to collisions.
    pub fn collision_rate(&self) -> f64 {
        self.collided as f64 / (self.attempts.max(1)) as f64
    }

    /// Jain's fairness index over per-tag delivered packets (1 =
    /// perfectly even, 1/n = one tag hogs the channel).
    pub fn jain_fairness(&self) -> f64 {
        fmbs_dsp::stats::jain_index(self.per_tag_delivered.iter().map(|&x| x as f64))
    }

    /// Contention-latency percentile (`p` in [0, 1]) in seconds;
    /// 0 when nothing was delivered.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        if self.latencies_slots.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_slots.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.latencies_slots[idx] as f64 * self.slot_secs
    }

    /// Sojourn times (arrival → delivery) in seconds, ascending — the
    /// series the workload tier's SLO quantiles are computed over.
    pub fn sojourn_secs(&self) -> Vec<f64> {
        self.sojourn_slots
            .iter()
            .map(|&s| s as f64 * self.slot_secs)
            .collect()
    }

    /// Fraction of offered packets that failed their deadline. Late
    /// deliveries, expired-shed packets and packets still queued at the
    /// horizon all count as misses; 0 when nothing was offered
    /// (saturated runs have no deadlines).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - self.on_time as f64 / self.offered as f64
    }

    /// Queue conservation: every offered packet is delivered, shed as
    /// expired, abandoned (retransmission budget exhausted or wiped by
    /// a tag reset), or still queued at the horizon. Trivially true for
    /// saturated runs (`offered == 0` and no queues exist — abandons
    /// there drop synthetic full-buffer frames, not offered packets).
    pub fn queue_conserved(&self) -> bool {
        if self.offered == 0 {
            return self.still_queued == 0 && self.expired_dropped == 0;
        }
        self.offered == self.delivered + self.expired_dropped + self.abandoned + self.still_queued
    }
}

/// One run's outputs: statistics plus the optional event trace.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Aggregate statistics.
    pub stats: NetStats,
    /// Slot-level event trace (empty unless `record_trace` was set),
    /// bounded by [`NetworkConfig::trace_cap`].
    pub trace: EventTrace,
}

/// One domain's arrival queues: none under saturated traffic, else an
/// [`ArrivalTrace`] in local tag order. A domain that holds every tag
/// of the run in global order (a single-receiver plan) reads the shared
/// trace in place; a metro domain holds a flat copy of its tags' queues,
/// built once per run, so its slot loop reads one contiguous block.
#[derive(Debug, Default)]
pub(crate) struct ArrivalQueues(Option<Arc<ArrivalTrace>>);

impl ArrivalQueues {
    /// The queues of every tag under `traffic`, read in place.
    pub(crate) fn shared(traffic: &Traffic) -> Self {
        match traffic {
            Traffic::Saturated => ArrivalQueues(None),
            Traffic::Trace(trace) => ArrivalQueues(Some(trace.clone())),
        }
    }

    /// A flat copy of the queues of `tags` (global tag ids, in local
    /// order) under `traffic`. Tags past the trace's end get an empty
    /// queue.
    pub(crate) fn flat<I>(traffic: &Traffic, tags: I) -> Self
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        match traffic {
            Traffic::Saturated => ArrivalQueues(None),
            Traffic::Trace(trace) => ArrivalQueues(Some(Arc::new(trace.select(tags)))),
        }
    }

    /// Local tag `tag`'s FIFO queue, ascending by slot.
    fn of(&self, tag: u32) -> &[Arrival] {
        self.0.as_ref().map_or(&[], |t| t.of(tag as usize))
    }
}

/// The per-tag state every slot reads and writes, the largest block a
/// 10^6-tag run holds. Site constants (harvest rate, transmit cost,
/// storage) are read from the domain's [`TagSite`]s and ARQ state lives
/// in [`ArqState`], so it stays within 96 bytes (the
/// `metro_memory_guard` test asserts this of [`TAG_STATE_BYTES`]).
struct TagState {
    rng: StdRng,
    energy_uj: f64,
    last_update: u64,
    /// Slot of the current packet's first actual transmission
    /// (`u64::MAX` = not transmitted yet); latency is measured from
    /// here, so recharge sleeps and the initial desync offset are not
    /// mistaken for contention.
    first_attempt: u64,
    success_p: f64,
    /// Raw link BER at the nominal rate (the `BerTable` lookup made at
    /// deployment time); interference bursts elevate this before the
    /// packet-survival curve is applied.
    raw_ber: f64,
    /// Index of the head of this tag's FIFO arrival queue (trace mode):
    /// everything before it was delivered, abandoned or shed as
    /// expired.
    next_unserved: usize,
    delivered: u32,
    channel: u16,
    backoff_exp: u8,
}

/// Size of the per-tag state the engine keeps for every tag of a run
/// (ARQ runs keep their retransmission and fallback state on the side).
pub const TAG_STATE_BYTES: usize = std::mem::size_of::<TagState>();

/// A tag's ARQ and rate-fallback state, in a side table only ARQ runs
/// allocate.
#[derive(Debug, Default)]
struct ArqState {
    /// Packet-success probability at the fallback rate (0 when no lower
    /// rate exists).
    fb_success_p: f64,
    /// Raw link BER at the fallback rate.
    fb_raw_ber: f64,
    /// Transmissions already made for the current packet.
    pkt_attempts: u32,
    /// Consecutive losses (drives rate fallback).
    consec_losses: u32,
    /// Consecutive successes (drives rate recovery).
    consec_successes: u32,
    /// Whether the tag is transmitting at the fallback rate.
    fallback: bool,
}

/// The next rate below `b` in [`Bitrate::ALL`].
fn step_down(b: Bitrate) -> Option<Bitrate> {
    let i = Bitrate::ALL.iter().position(|&x| x == b)?;
    (i > 0).then(|| Bitrate::ALL[i - 1])
}

/// Cross-domain inputs to one slot's resolution. They draw no
/// randomness: [`SlotExtras::default`] resolves a slot as a lone cell
/// would, and so does an all-zero interference row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotExtras<'a> {
    /// Capture effect: received backscatter power at the receiver per
    /// *local* tag index (dBm), plus the capture margin in dB. In a
    /// multi-tag slot the strongest signal wins the slot outright when
    /// its advantage over the runner-up meets the margin.
    pub capture: Option<(&'a [f64], f64)>,
    /// Extra raw BER per local channel from co-channel attempts in
    /// overlapping neighbour domains this slot (empty slice = none).
    pub interference: &'a [f64],
}

/// The capture-effect decision for one contended slot, as a pure
/// function so its monotonicity is property-testable: among `attempts`
/// (tag indices into `rx_dbm`, the received power at the receiver in
/// dBm), the strongest transmitter captures the slot iff its advantage
/// over the runner-up is at least `margin_db`. Returns the winning tag,
/// or `None` when nobody captures (everyone collides). Raising
/// `margin_db` can only turn a winner into `None` — never create one —
/// so a higher margin never decreases the slot's collided count.
pub fn capture_winner(attempts: &[u32], rx_dbm: &[f64], margin_db: f64) -> Option<u32> {
    if attempts.len() < 2 || !margin_db.is_finite() {
        return None;
    }
    let mut best: Option<(f64, u32)> = None;
    let mut runner_up = f64::NEG_INFINITY;
    for &tag in attempts {
        let p = rx_dbm
            .get(tag as usize)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        match best {
            None => best = Some((p, tag)),
            Some((bp, _)) if p > bp => {
                runner_up = bp;
                best = Some((p, tag));
            }
            Some(_) => {
                if p > runner_up {
                    runner_up = p;
                }
            }
        }
    }
    let (bp, tag) = best?;
    (bp - runner_up >= margin_db).then_some(tag)
}

/// One collision domain's complete engine state, stepped slot by slot.
///
/// [`crate::topology::CitySim`] drives one of these per receiver cell
/// (a single-receiver plan is one domain) in lockstep, exchanging
/// co-channel transmit counts at one barrier per visited slot. Tag
/// indices are *local* to the domain; the topology layer owns the
/// local→global mapping. The domain borrows its tags' sites for their
/// energy constants and owns its tags' [`ArrivalQueues`].
pub(crate) struct DomainSim<'a> {
    cfg: NetworkConfig,
    packets: Arc<PacketModel>,
    sched: FaultSchedule,
    rf: bool,
    fb_plan: Option<(Bitrate, u64)>,
    slot_secs: f64,
    sites: &'a [TagSite],
    tags: Vec<TagState>,
    /// One entry per tag when ARQ is on, else empty.
    arq_tags: Vec<ArqState>,
    queues: ArrivalQueues,
    q: EventQueue,
    pending: Vec<Vec<u32>>,
    touched: Vec<u16>,
    stats: NetStats,
    trace: EventTrace,
    next_reset: usize,
    /// Backoff windows drawn (an obs counter, not a [`NetStats`] field).
    pub(crate) backoffs: u64,
}

impl<'a> DomainSim<'a> {
    /// Builds the domain over `sites` (one per local tag) and `queues`
    /// (their arrivals, in the same order) and performs the initial
    /// scheduling — the same operation order the pre-metro engine used,
    /// so a single-domain run is bit-identical to it.
    pub(crate) fn new(
        cfg: NetworkConfig,
        table: &BerTable,
        packets: Arc<PacketModel>,
        sites: &'a [TagSite],
        n_channels: usize,
        queues: ArrivalQueues,
    ) -> Self {
        let slot_secs = cfg.slot_secs();
        // The fault plan is generated from the spec's own RNG stream, so
        // tag draw sequences never depend on it; an empty schedule
        // switches every fault-aware branch back to the pre-fault code
        // paths (zero-fault invisibility).
        let sched = cfg.faults.schedule(cfg.n_slots, cfg.n_tags);
        let rf = matches!(cfg.harvest, HarvestProfile::RfAmbient);
        // Graceful degradation: the fallback rate and the airtime
        // stretch (slots per fallback frame) are fixed per run.
        let fb_plan: Option<(Bitrate, u64)> = cfg.arq.as_ref().and_then(|a| {
            let fb = a.fallback_bitrate.or_else(|| step_down(cfg.bitrate))?;
            let stretch = (cfg.bitrate.bits_per_second() / fb.bits_per_second())
                .ceil()
                .max(1.0) as u64;
            Some((fb, stretch))
        });

        let mut arq_tags = Vec::new();
        if cfg.arq.is_some() {
            arq_tags.reserve_exact(sites.len());
        }
        let mut tags = Vec::with_capacity(sites.len());
        // One span for the domain's lookup pass, not one per lookup.
        let lookups = fmbs_obs::stage(fmbs_obs::stages::BER_LOOKUP);
        for (i, site) in sites.iter().enumerate() {
            let raw_ber = table.lookup(cfg.bitrate, site.power_dbm, site.distance_ft);
            if cfg.arq.is_some() {
                // The fallback link: looked up directly when the table
                // calibrates the lower rate, otherwise the slower rate's
                // processing gain (10·log10 of the rate ratio) is folded
                // into the power axis of the nominal-rate lookup.
                let fb_raw_ber = match fb_plan {
                    Some((fb, _)) if table.bitrates().contains(&fb) => {
                        table.lookup(fb, site.power_dbm, site.distance_ft)
                    }
                    Some((_, stretch)) => table.lookup(
                        cfg.bitrate,
                        site.power_dbm + 10.0 * (stretch as f64).log10(),
                        site.distance_ft,
                    ),
                    None => 0.0,
                };
                arq_tags.push(ArqState {
                    fb_success_p: if fb_plan.is_some() {
                        packets.success_probability(fb_raw_ber)
                    } else {
                        0.0
                    },
                    fb_raw_ber,
                    ..ArqState::default()
                });
            }
            tags.push(TagState {
                // A private stream per tag: draw values depend only on
                // the tag's own draw count.
                rng: StdRng::seed_from_u64(cfg.seed ^ (0xA11CE << 32) ^ i as u64),
                energy_uj: site.storage_uj,
                last_update: 0,
                first_attempt: u64::MAX,
                success_p: packets.success_probability(raw_ber),
                raw_ber,
                next_unserved: 0,
                delivered: 0,
                channel: site.channel,
                backoff_exp: 0,
            });
        }
        drop(lookups);

        let stats = NetStats {
            n_tags: cfg.n_tags,
            n_slots: cfg.n_slots,
            slot_secs,
            ..NetStats::default()
        };
        let trace = EventTrace::new(cfg.trace_cap);
        let mut d = DomainSim {
            pending: vec![Vec::new(); n_channels],
            touched: Vec::new(),
            q: EventQueue::new(cfg.n_slots, sites.len()),
            next_reset: 0,
            backoffs: 0,
            cfg,
            packets,
            sched,
            rf,
            fb_plan,
            slot_secs,
            sites,
            tags,
            arq_tags,
            queues,
            stats,
            trace,
        };

        let fx: Option<&FaultSchedule> = (!d.sched.is_empty()).then_some(&d.sched);
        match &d.cfg.traffic {
            Traffic::Saturated => {
                // Everybody desynchronises over an initial window so
                // slot 0 is not a guaranteed pile-up.
                let initial_window = 16u64.min(d.cfg.n_slots.max(1));
                for (i, (t, site)) in d.tags.iter_mut().zip(d.sites).enumerate() {
                    let start = t.rng.gen_range(0..initial_window);
                    Self::schedule(
                        t,
                        site,
                        i as u32,
                        start,
                        d.slot_secs,
                        &d.cfg,
                        &mut d.q,
                        &mut d.stats,
                        fx,
                        d.rf,
                    );
                }
            }
            Traffic::Trace(_) => {
                // Trace mode needs no desync draw: arrival times are the
                // desynchroniser. Each tag wakes at its first arrival;
                // out-of-horizon arrivals are never offered.
                for (i, (t, site)) in d.tags.iter_mut().zip(d.sites).enumerate() {
                    let queue = d.queues.of(i as u32);
                    d.stats.offered +=
                        queue.iter().take_while(|a| a.slot < d.cfg.n_slots).count() as u64;
                    if let Some(first) = queue.first() {
                        Self::schedule(
                            t,
                            site,
                            i as u32,
                            first.slot,
                            d.slot_secs,
                            &d.cfg,
                            &mut d.q,
                            &mut d.stats,
                            fx,
                            d.rf,
                        );
                    }
                }
            }
        }
        d
    }

    /// The slot of the earliest queued event (`None` = domain drained).
    pub(crate) fn peek_slot(&mut self) -> Option<u64> {
        self.q.peek_slot()
    }

    /// Phase A of a slot: apply due tag resets, then drain every event
    /// of `slot` into per-channel attempt buckets. Draws no randomness —
    /// the metro engine publishes the resulting per-channel transmit
    /// counts across domains before any resolution draw happens.
    pub(crate) fn gather(&mut self, slot: u64) {
        let fx: Option<&FaultSchedule> = (!self.sched.is_empty()).then_some(&self.sched);
        let trace_mode = matches!(self.cfg.traffic, Traffic::Trace(_));
        // Apply due tag resets lazily, before any event of the slot
        // batch acts: volatile state (backoff, ARQ counters, the
        // packet in flight) is wiped and arrived-but-undelivered
        // queue heads are abandoned. Reset order is the schedule's
        // sorted (slot, tag) order — deterministic.
        while self
            .sched
            .resets
            .get(self.next_reset)
            .is_some_and(|&(at, _)| at <= slot)
        {
            let (at, tag) = self.sched.resets[self.next_reset];
            self.next_reset += 1;
            let t = &mut self.tags[tag as usize];
            t.backoff_exp = 0;
            t.first_attempt = u64::MAX;
            if let Some(a) = self.arq_tags.get_mut(tag as usize) {
                a.pkt_attempts = 0;
                a.consec_losses = 0;
                a.consec_successes = 0;
                a.fallback = false;
            }
            if self.cfg.record_trace {
                self.trace.push(TraceEvent {
                    slot: at,
                    tag,
                    kind: TraceKind::Reset,
                });
            }
            if trace_mode {
                let queue = self.queues.of(tag);
                while queue.get(t.next_unserved).is_some_and(|h| h.slot <= at) {
                    t.next_unserved += 1;
                    self.stats.abandoned += 1;
                    if self.cfg.record_trace {
                        self.trace.push(TraceEvent {
                            slot: at,
                            tag,
                            kind: TraceKind::Abandon,
                        });
                    }
                }
            }
        }
        // The slot's whole bucket at once; every event it schedules is
        // for a later slot.
        let events = self.q.take(slot);
        for &tag in &events {
            let t = &mut self.tags[tag as usize];
            let site = &self.sites[tag as usize];
            if trace_mode {
                let queue = self.queues.of(tag);
                if self.cfg.drop_expired {
                    // Shed head-of-line packets whose deadline has
                    // already passed: a packet transmitted in its
                    // deadline slot still counts on-time, so only
                    // strictly later slots shed it.
                    while queue
                        .get(t.next_unserved)
                        .is_some_and(|h| h.slot.saturating_add(h.deadline_slots as u64) < slot)
                    {
                        t.next_unserved += 1;
                        self.stats.expired_dropped += 1;
                        t.first_attempt = u64::MAX;
                        if let Some(a) = self.arq_tags.get_mut(tag as usize) {
                            a.pkt_attempts = 0;
                        }
                        if self.cfg.record_trace {
                            self.trace.push(TraceEvent {
                                slot,
                                tag,
                                kind: TraceKind::Expired,
                            });
                        }
                    }
                }
                match queue.get(t.next_unserved) {
                    // Queue drained: the tag idles until (in this
                    // trace) forever — no contention, no energy
                    // spend.
                    None => continue,
                    // Head not arrived yet: sleep until it does.
                    Some(h) if h.slot > slot => {
                        Self::schedule(
                            t,
                            site,
                            tag,
                            h.slot,
                            self.slot_secs,
                            &self.cfg,
                            &mut self.q,
                            &mut self.stats,
                            fx,
                            self.rf,
                        );
                        continue;
                    }
                    // Head is waiting: contend for this slot.
                    Some(_) => {}
                }
            }
            if fx.is_some() {
                // Under faults the recharge wait `schedule` computed
                // from the nominal harvest rate can undershoot
                // (outage or brownout windows harvest less): re-check
                // the store at attempt time and re-wait if short.
                Self::accrue(t, site, slot, self.slot_secs, fx, self.rf);
                if t.energy_uj < site.tx_cost_uj {
                    Self::schedule(
                        t,
                        site,
                        tag,
                        slot + 1,
                        self.slot_secs,
                        &self.cfg,
                        &mut self.q,
                        &mut self.stats,
                        fx,
                        self.rf,
                    );
                    continue;
                }
            }
            let ch = t.channel as usize;
            if self.pending[ch].is_empty() {
                self.touched.push(ch as u16);
            }
            self.pending[ch].push(tag);
        }
        self.q.recycle(events);
    }

    /// Per-channel transmit counts gathered for the slot being resolved
    /// (the numbers the metro engine publishes at the slot barrier).
    pub(crate) fn touched_counts(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        self.touched
            .iter()
            .map(|&ch| (ch, self.pending[ch as usize].len() as u32))
    }

    /// Phase B of a slot: resolve every gathered attempt — capture,
    /// link trials, backoff/ARQ — and schedule the follow-up events.
    pub(crate) fn resolve(&mut self, slot: u64, extras: &SlotExtras) {
        let fx: Option<&FaultSchedule> = (!self.sched.is_empty()).then_some(&self.sched);
        let trace_mode = matches!(self.cfg.traffic, Traffic::Trace(_));
        let fb_available = self.fb_plan.is_some();
        let fb_stretch = self.fb_plan.map_or(1, |(_, s)| s);
        let in_outage = fx.is_some_and(|f| f.outage_at(slot));
        let burst = fx.filter(|f| f.burst_at(slot));
        let burst_ber = burst.map_or(0.0, |f| f.burst_ber);
        let mut touched = std::mem::take(&mut self.touched);
        for &ch in touched.iter() {
            let attempts = std::mem::take(&mut self.pending[ch as usize]);
            // Co-channel interference from overlapping neighbour domains
            // elevates this channel's raw BER through the same
            // packet-survival curve interference bursts use.
            let extra_ber = extras.interference.get(ch as usize).copied().unwrap_or(0.0);
            let solo = attempts.len() == 1;
            // Capture effect: in a contended slot the strongest received
            // signal wins outright when its advantage over the runner-up
            // meets the capture margin; everyone else collides.
            let captured: Option<u32> = if solo {
                None
            } else {
                extras
                    .capture
                    .and_then(|(rx_dbm, margin_db)| capture_winner(&attempts, rx_dbm, margin_db))
            };
            for &tag in &attempts {
                let t = &mut self.tags[tag as usize];
                let site = &self.sites[tag as usize];
                // The ARQ config paired with this tag's ARQ state.
                let mut arq = self
                    .cfg
                    .arq
                    .as_ref()
                    .zip(self.arq_tags.get_mut(tag as usize));
                let queue = self.queues.of(tag);
                // Transmitting spends one packet of energy, delivered or
                // not — the radio does not know it collided.
                Self::accrue(t, site, slot, self.slot_secs, fx, self.rf);
                t.energy_uj = (t.energy_uj - site.tx_cost_uj).max(0.0);
                self.stats.attempts += 1;
                let fallback = arq.as_ref().is_some_and(|(_, s)| s.fallback);
                // A fallback frame carries the same bits at the lower
                // rate, so it occupies `fb_stretch` slots of airtime.
                let airtime = if fallback { fb_stretch } else { 1 };
                if let Some((_, s)) = &arq {
                    if s.pkt_attempts > 0 {
                        self.stats.retransmissions += 1;
                    }
                    if fallback {
                        self.stats.rate_fallback_slots += airtime;
                    }
                }
                if t.first_attempt == u64::MAX {
                    t.first_attempt = slot;
                }

                // ARQ abandons surface only as a counter bump inside
                // `arq_on_loss`; the delta turns them into trace events.
                let abandoned_before = self.stats.abandoned;
                let (outcome, next_earliest) = if solo || captured == Some(tag) {
                    // The link the draw is tested against: the fallback
                    // rate's BER if fallen back, elevated inside an
                    // interference burst or by co-channel neighbour
                    // domains, and hopeless during a station outage (no
                    // carrier to backscatter).
                    let (raw_ber, success_p) = match &arq {
                        Some((_, s)) if s.fallback => (s.fb_raw_ber, s.fb_success_p),
                        _ => (t.raw_ber, t.success_p),
                    };
                    let p = if in_outage {
                        0.0
                    } else if burst.is_some() || extra_ber > 0.0 {
                        self.packets
                            .success_probability(raw_ber + burst_ber + extra_ber)
                    } else {
                        success_p
                    };
                    if t.rng.gen::<f64>() < p {
                        t.delivered += 1;
                        self.stats.delivered += 1;
                        self.stats.delivered_bits += self.cfg.packet_bits as u64;
                        self.stats
                            .latencies_slots
                            .push((slot + 1).saturating_sub(t.first_attempt) as u32);
                        t.backoff_exp = 0;
                        t.first_attempt = u64::MAX;
                        let mut done = slot + 1;
                        if let Some((a, s)) = &mut arq {
                            self.stats.acked += 1;
                            s.pkt_attempts = 0;
                            s.consec_losses = 0;
                            s.consec_successes = s.consec_successes.saturating_add(1);
                            if s.fallback && s.consec_successes >= a.recover_after {
                                // Probe back up to the nominal rate.
                                s.fallback = false;
                                s.consec_successes = 0;
                            }
                            done = slot + airtime + a.ack_slots as u64;
                        }
                        let next = if trace_mode {
                            // The delivered packet is the queue head;
                            // record its sojourn (queueing delay
                            // included) and advance. Wake for the next
                            // head, or idle if drained.
                            let head = queue[t.next_unserved];
                            let sojourn = (slot + 1).saturating_sub(head.slot) as u32;
                            self.stats.sojourn_slots.push(sojourn);
                            // On-time iff the delivery slot is no later
                            // than the packet's absolute deadline
                            // (deadline == delivery slot still counts).
                            if slot <= head.slot.saturating_add(head.deadline_slots as u64) {
                                self.stats.on_time += 1;
                            }
                            t.next_unserved += 1;
                            queue.get(t.next_unserved).map(|h| h.slot.max(done))
                        } else {
                            Some(done)
                        };
                        (Outcome::Delivered, next)
                    } else if let Some((a, s)) = arq {
                        self.stats.corrupt += 1;
                        let next = Self::arq_on_loss(
                            a,
                            t,
                            s,
                            trace_mode.then_some(queue),
                            slot,
                            airtime,
                            fb_available,
                            &mut self.stats,
                            &mut self.backoffs,
                        );
                        (Outcome::Corrupt, next)
                    } else {
                        // A corrupted packet is a link loss, not
                        // congestion: retry with a short jitter but no
                        // backoff growth.
                        self.stats.corrupt += 1;
                        let jitter = t.rng.gen_range(0..2u64);
                        (Outcome::Corrupt, Some(slot + 1 + jitter))
                    }
                } else if let Some((a, s)) = arq {
                    self.stats.collided += 1;
                    let next = Self::arq_on_loss(
                        a,
                        t,
                        s,
                        trace_mode.then_some(queue),
                        slot,
                        airtime,
                        fb_available,
                        &mut self.stats,
                        &mut self.backoffs,
                    );
                    (Outcome::Collided, next)
                } else {
                    self.stats.collided += 1;
                    self.backoffs += 1;
                    t.backoff_exp = (t.backoff_exp + 1).min(MAX_BACKOFF_EXP);
                    let window = 1u64 << t.backoff_exp;
                    let delay = t.rng.gen_range(0..window);
                    (Outcome::Collided, Some(slot + 1 + delay))
                };
                if self.cfg.record_trace {
                    self.trace.push(TraceEvent {
                        slot,
                        tag,
                        kind: TraceKind::Attempt {
                            channel: ch,
                            outcome,
                        },
                    });
                    if self.stats.abandoned > abandoned_before {
                        self.trace.push(TraceEvent {
                            slot,
                            tag,
                            kind: TraceKind::Abandon,
                        });
                    }
                }
                if let Some(next_earliest) = next_earliest {
                    Self::schedule(
                        t,
                        site,
                        tag,
                        next_earliest,
                        self.slot_secs,
                        &self.cfg,
                        &mut self.q,
                        &mut self.stats,
                        fx,
                        self.rf,
                    );
                }
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Closes out the run: per-tag tallies, sorted latency/sojourn
    /// series, queue-conservation accounting and the trace.
    pub(crate) fn finish(self) -> NetRun {
        let DomainSim {
            cfg,
            tags,
            queues,
            mut stats,
            trace,
            ..
        } = self;
        stats.per_tag_delivered = tags.iter().map(|t| t.delivered).collect();
        stats.latencies_slots.sort_unstable();
        if let Traffic::Trace(_) = &cfg.traffic {
            // Conservation: whatever was offered but neither delivered
            // nor shed is still sitting in a queue at the horizon.
            for (i, t) in tags.iter().enumerate() {
                let queue = queues.of(i as u32);
                let servable = queue.iter().take_while(|a| a.slot < cfg.n_slots).count();
                stats.still_queued += servable.saturating_sub(t.next_unserved) as u64;
            }
            stats.sojourn_slots.sort_unstable();
        }
        if trace.dropped() > 0 {
            fmbs_obs::counter!("net.trace_dropped", trace.dropped());
        }
        NetRun { stats, trace }
    }

    /// Schedules `tag`'s next attempt no earlier than `earliest`,
    /// pushing it past the horizon (i.e. dropping it) when the harvester
    /// cannot close the energy deficit in time.
    ///
    /// The recharge wait is estimated from the nominal harvest rate;
    /// under faults an outage or brownout window can make it undershoot,
    /// which the run loop's attempt-time energy re-check absorbs (the
    /// tag re-waits from the attempt slot). `starved_slots` is therefore
    /// exact without faults and a lower-bound estimate with them.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        t: &mut TagState,
        site: &TagSite,
        tag: u32,
        earliest: u64,
        slot_secs: f64,
        cfg: &NetworkConfig,
        q: &mut EventQueue,
        stats: &mut NetStats,
        fx: Option<&FaultSchedule>,
        rf: bool,
    ) {
        Self::accrue(t, site, earliest, slot_secs, fx, rf);
        let wait = if t.energy_uj >= site.tx_cost_uj {
            0
        } else {
            let deficit = site.tx_cost_uj - t.energy_uj;
            let per_slot = site.harvest_uw * slot_secs;
            if per_slot <= 0.0 {
                return; // dead tag: nothing will ever recharge it
            }
            (deficit / per_slot).ceil() as u64
        };
        let at = earliest.saturating_add(wait);
        // Recharge slots count only when the attempt they enable lands
        // inside the horizon — waits running past it are time the
        // simulation never covers.
        if at < cfg.n_slots {
            stats.starved_slots += wait;
            q.push(at, tag);
        }
    }

    /// Brings a tag's energy store up to date at `now`. Under a fault
    /// schedule the elapsed slots are harvest-weighted: zero inside a
    /// station outage for RF-harvesting tags, scaled inside a brownout.
    fn accrue(
        t: &mut TagState,
        site: &TagSite,
        now: u64,
        slot_secs: f64,
        fx: Option<&FaultSchedule>,
        rf: bool,
    ) {
        if now > t.last_update {
            let dt = match fx {
                None => (now - t.last_update) as f64 * slot_secs,
                Some(f) => f.effective_slots(t.last_update, now, rf) * slot_secs,
            };
            t.energy_uj = (t.energy_uj + site.harvest_uw * dt).min(site.storage_uj);
            t.last_update = now;
        }
    }

    /// ARQ bookkeeping after a lost attempt (corrupt or collided — the
    /// sender only sees the missing ACK): grow the consecutive-loss
    /// streak (possibly falling back to the lower rate), then either
    /// retransmit under binary-exponential backoff or, with the
    /// retransmission budget exhausted, abandon the packet. Returns the
    /// earliest slot of the tag's next attempt; `queue` is the tag's
    /// FIFO arrival queue in trace mode.
    #[allow(clippy::too_many_arguments)]
    fn arq_on_loss(
        arq: &ArqConfig,
        t: &mut TagState,
        s: &mut ArqState,
        queue: Option<&[Arrival]>,
        slot: u64,
        airtime: u64,
        fb_available: bool,
        stats: &mut NetStats,
        backoffs: &mut u64,
    ) -> Option<u64> {
        fmbs_obs::span!(fmbs_obs::stages::ARQ_RETX);
        s.consec_successes = 0;
        s.consec_losses = s.consec_losses.saturating_add(1);
        if fb_available && !s.fallback && s.consec_losses >= arq.fallback_after {
            s.fallback = true;
            s.consec_losses = 0;
        }
        // The lost frame's airtime plus the fruitless ACK wait.
        let resume = slot + airtime + arq.ack_slots as u64;
        if s.pkt_attempts >= arq.max_retx {
            stats.abandoned += 1;
            s.pkt_attempts = 0;
            t.first_attempt = u64::MAX;
            match queue {
                None => Some(resume),
                Some(queue) => {
                    t.next_unserved += 1;
                    queue.get(t.next_unserved).map(|h| h.slot.max(resume))
                }
            }
        } else {
            s.pkt_attempts += 1;
            *backoffs += 1;
            t.backoff_exp = (t.backoff_exp + 1).min(MAX_BACKOFF_EXP);
            let window = 1u64 << t.backoff_exp;
            let delay = t.rng.gen_range(0..window);
            Some(resume + delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{BerTable, BerTableSpec};
    use fmbs_core::harvest::Illumination;
    use fmbs_core::sim::fast::FastSim;

    /// Runs `cfg` through the one-cell reference runner over `table`.
    fn simulate(cfg: NetworkConfig, table: Arc<BerTable>) -> NetRun {
        crate::oracle::run_cell(&cfg, &table)
    }

    fn table() -> Arc<BerTable> {
        Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![0.0, 2e-4, 1e-4, 2e-3],
        ))
    }

    #[test]
    fn event_queue_orders_by_slot_then_push_order() {
        // A 64-slot ring over 1000 slots: slot 300 waits in the far heap.
        let mut q = EventQueue::new(1000, 4);
        assert_eq!(q.window(), 64);
        q.push(300, 5);
        q.push(5, 1);
        q.push(2, 2);
        q.push(300, 6);
        q.push(5, 3);
        q.push(2, 4);
        let mut order: Vec<(u64, u32)> = Vec::new();
        while let Some(slot) = q.peek_slot() {
            let bucket = q.take(slot);
            order.extend(bucket.iter().map(|&tag| (slot, tag)));
            q.recycle(bucket);
            if slot == 5 {
                // Pushed after the far events of slot 300: leaves after them.
                q.push(300, 7);
            }
        }
        assert_eq!(
            order,
            vec![(2, 2), (2, 4), (5, 1), (5, 3), (300, 5), (300, 6), (300, 7)]
        );
        assert!(q.take(300).is_empty());
    }

    #[test]
    fn event_queue_ring_covers_the_horizon_capped_by_tags() {
        // The horizon, rounded up, when the tags allow it.
        assert_eq!(EventQueue::new(10_000, 62_500).window(), 1 << 14);
        assert_eq!(EventQueue::new(256, 1 << 20).window(), 256);
        assert_eq!(EventQueue::new(0, 10).window(), 1);
        // The tag count caps it: a lone tag over 2^24 slots gets a small
        // ring, and no domain more than 2^16 buckets.
        assert_eq!(EventQueue::new(1 << 24, 1).window(), 64);
        assert_eq!(EventQueue::new(65_536, 4096).window(), 4096);
        assert_eq!(EventQueue::new(u64::MAX, usize::MAX).window(), 1 << 16);
    }

    #[test]
    fn single_tag_saturates_its_channel() {
        let mut cfg = NetworkConfig::new(1, 400);
        cfg.record_trace = true;
        let run = simulate(cfg, table());
        // One tag, no contention: it transmits in nearly every slot
        // after its start, and most packets survive the link.
        assert!(run.stats.attempts > 350, "{:?}", run.stats);
        assert!(run.stats.delivered > 250, "{:?}", run.stats);
        assert_eq!(run.stats.collided, 0);
        assert!(run.trace.len() as u64 >= run.stats.delivered);
        assert!((run.stats.jain_fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_causes_collisions_and_backoff_resolves_them() {
        let cfg = NetworkConfig::new(300, 400);
        let run = simulate(cfg, table());
        assert!(run.stats.collided > 0, "300 tags must collide sometimes");
        assert!(run.stats.delivered > 0, "backoff must still deliver");
        assert!(run.stats.collision_rate() < 1.0);
        let p95 = run.stats.latency_percentile_secs(0.95);
        assert!(p95 > 0.0);
    }

    #[test]
    fn goodput_grows_with_tags_until_contention() {
        let at = |n: usize| {
            let run = simulate(NetworkConfig::new(n, 300), table());
            run.stats.goodput_bps()
        };
        // A handful of tags on ~60 free channels: nearly linear scaling.
        let one = at(1);
        let ten = at(10);
        assert!(ten > 5.0 * one, "10 tags {ten} vs 1 tag {one}");
    }

    #[test]
    fn starved_harvester_duty_cycles_the_tag() {
        let mut cfg = NetworkConfig::new(1, 2_000);
        cfg.harvest = HarvestProfile::Solar(Illumination::Streetlight);
        cfg.storage_uj = 4.0;
        let duty_run = simulate(cfg.clone(), table());
        cfg.harvest = HarvestProfile::Mains;
        let mains_run = simulate(cfg, table());
        assert!(duty_run.stats.starved_slots > 0, "{:?}", duty_run.stats);
        assert!(
            duty_run.stats.delivered * 4 < mains_run.stats.delivered,
            "streetlight {} vs mains {}",
            duty_run.stats.delivered,
            mains_run.stats.delivered
        );
        // But the duty-cycled tag is alive: the harvester does close the
        // deficit eventually (§8's duty-cycling argument).
        assert!(duty_run.stats.delivered > 0);
    }

    #[test]
    fn same_seed_runs_are_trace_identical() {
        let mut cfg = NetworkConfig::new(120, 250);
        cfg.record_trace = true;
        let a = simulate(cfg.clone(), table());
        let b = simulate(cfg.clone(), table());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats.delivered, b.stats.delivered);
        assert_eq!(a.stats.latencies_slots, b.stats.latencies_slots);
        cfg.seed ^= 1;
        let c = simulate(cfg, table());
        assert_ne!(a.trace, c.trace, "different seed must change the trace");
    }

    #[test]
    fn trace_cap_truncates_with_explicit_accounting() {
        let mut cfg = NetworkConfig::new(4, 300);
        cfg.record_trace = true;
        let full = simulate(cfg.clone(), table());
        assert!(!full.trace.truncated());
        assert_eq!(full.trace.dropped(), 0);
        let total = full.trace.len();
        assert!(total > 16, "need enough events to truncate");
        cfg.trace_cap = 16;
        let capped = simulate(cfg, table());
        // The cap keeps a prefix and accounts for every cut event —
        // nothing disappears silently, and the run itself is unchanged.
        assert_eq!(capped.trace.len(), 16);
        assert!(capped.trace.truncated());
        assert_eq!(capped.trace.dropped(), (total - 16) as u64);
        assert_eq!(capped.trace.events[..], full.trace.events[..16]);
        assert_eq!(capped.stats.attempts, full.stats.attempts);
        assert_eq!(capped.stats.delivered, full.stats.delivered);
    }

    fn trace_of(per_tag: Vec<Vec<(u64, u32)>>) -> Traffic {
        Traffic::Trace(Arc::new(
            per_tag
                .into_iter()
                .map(|v| {
                    v.into_iter()
                        .map(|(slot, deadline_slots)| Arrival {
                            slot,
                            deadline_slots,
                        })
                        .collect::<Vec<_>>()
                })
                .collect(),
        ))
    }

    #[test]
    fn empty_queue_keeps_a_tag_idle() {
        let mut cfg = NetworkConfig::new(2, 300);
        cfg.traffic = trace_of(vec![vec![(5, 50), (40, 50)], vec![]]);
        let run = simulate(cfg, table());
        assert_eq!(run.stats.offered, 2);
        assert!(run.stats.delivered <= 2);
        assert_eq!(run.stats.per_tag_delivered[1], 0, "no traffic, no frames");
        // Two packets over 300 slots: nowhere near the ~300 attempts a
        // saturated tag would make.
        assert!(run.stats.attempts < 20, "{:?}", run.stats);
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
        assert_eq!(run.stats.sojourn_slots.len() as u64, run.stats.delivered);
    }

    #[test]
    fn sojourn_counts_queueing_delay() {
        // A burst of 4 packets arriving together must drain serially, so
        // later deliveries carry queueing delay: sojourns strictly grow.
        let mut cfg = NetworkConfig::new(1, 500);
        cfg.traffic = trace_of(vec![vec![(10, 100); 4]]);
        let run = simulate(cfg, table());
        assert!(run.stats.delivered >= 2, "{:?}", run.stats);
        let s = &run.stats.sojourn_slots;
        assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        assert!(run.stats.on_time <= run.stats.delivered);
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    }

    /// A table whose BER is zero everywhere: every solo attempt
    /// delivers, so queue dynamics are fully deterministic.
    fn perfect_table() -> Arc<BerTable> {
        Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![0.0, 0.0, 0.0, 0.0],
        ))
    }

    #[test]
    fn deadline_equal_to_delivery_slot_counts_on_time() {
        // Pin the deadline boundary: a packet transmitted exactly in its
        // deadline slot (arrival slot + deadline) is on-time, and
        // `drop_expired` must not shed it. The second same-slot packet
        // can only transmit a slot later — strictly past its deadline —
        // so it is shed.
        let mut cfg = NetworkConfig::new(1, 100);
        cfg.traffic = trace_of(vec![vec![(5, 0), (5, 0)]]);
        cfg.drop_expired = true;
        let run = simulate(cfg.clone(), perfect_table());
        assert_eq!(run.stats.attempts, 1, "{:?}", run.stats);
        assert_eq!(run.stats.delivered, 1);
        assert_eq!(run.stats.on_time, 1, "deadline slot itself is on-time");
        assert_eq!(run.stats.expired_dropped, 1);
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
        // Without shedding, the late second packet still transmits and
        // still misses its deadline.
        cfg.drop_expired = false;
        let late = simulate(cfg, perfect_table());
        assert_eq!(late.stats.delivered, 2);
        assert_eq!(late.stats.on_time, 1);
        assert!(late.stats.queue_conserved(), "{:?}", late.stats);
    }

    #[test]
    fn drop_expired_sheds_dead_packets_without_transmitting() {
        // Arrivals whose deadline passed long before the tag's first
        // wake cannot be served; the policy sheds them without keying
        // the radio. The queue head arriving at slot 0 transmits at
        // slot 0 (its deadline slot — on-time); the three behind it are
        // already expired by the time the tag returns at slot 1.
        let mut cfg = NetworkConfig::new(1, 100);
        cfg.traffic = trace_of(vec![vec![(0, 0), (0, 0), (0, 0), (0, 0)]]);
        cfg.drop_expired = true;
        let run = simulate(cfg.clone(), perfect_table());
        assert_eq!(run.stats.attempts, 1, "shed before keying the radio");
        assert_eq!(run.stats.delivered, 1);
        assert_eq!(run.stats.expired_dropped, 3);
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
        assert!((run.stats.deadline_miss_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn arq_acks_and_retransmits_under_loss() {
        // A lossy-enough table that corruption is common: ARQ must
        // retransmit, every delivery must be acked, and conservation
        // must hold through retransmit and abandon paths.
        let lossy = Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![8e-2; 4],
        ));
        let mut cfg = NetworkConfig::new(40, 600);
        cfg.arq = Some(ArqConfig {
            max_retx: 2,
            ..ArqConfig::default()
        });
        cfg.traffic = trace_of(
            (0..40)
                .map(|_| (0..8).map(|k| (40 * k, 400u32)).collect())
                .collect(),
        );
        let run = simulate(cfg, lossy);
        assert!(run.stats.retransmissions > 0, "{:?}", run.stats);
        assert_eq!(run.stats.acked, run.stats.delivered);
        assert!(run.stats.abandoned > 0, "budget of 2 must exhaust");
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    }

    #[test]
    fn arq_falls_back_to_the_lower_rate_and_probes_back_up() {
        // An interference burst forces consecutive losses; the tag must
        // fall back (rate_fallback_slots grows) and, once the burst
        // clears, recover the nominal rate and keep delivering.
        let mut cfg = NetworkConfig::new(1, 800);
        cfg.arq = Some(ArqConfig::default());
        cfg.faults = FaultSpec::none().with_bursts(1, 120, 0.5);
        cfg.record_trace = true;
        let run = simulate(cfg.clone(), perfect_table());
        assert!(run.stats.rate_fallback_slots > 0, "{:?}", run.stats);
        assert!(run.stats.delivered > 0);
        // The fallback link rides the same calibrated table (here via
        // the processing-gain proxy, as the quick grid only calibrates
        // the nominal rate): at +0.5 raw BER even it fails, so the
        // recovery happens after the window, at the nominal rate.
        let sched = cfg.faults.schedule(cfg.n_slots, cfg.n_tags);
        let end = sched.bursts[0].end;
        assert!(
            run.trace
                .iter()
                .any(|e| e.slot > end && e.outcome() == Some(Outcome::Delivered)),
            "must deliver again after the burst"
        );
    }

    #[test]
    fn station_outage_silences_the_deployment_and_rf_harvest() {
        let mut cfg = NetworkConfig::new(8, 600);
        cfg.faults = FaultSpec::none().with_outages(1, 150);
        cfg.record_trace = true;
        let run = simulate(cfg.clone(), perfect_table());
        let sched = cfg.faults.schedule(cfg.n_slots, cfg.n_tags);
        let w = sched.outages[0];
        assert!(
            run.trace
                .iter()
                .filter(|e| w.contains(e.slot))
                .all(|e| e.outcome() != Some(Outcome::Delivered)),
            "no carrier, no deliveries inside the outage"
        );
        assert!(run.stats.delivered > 0, "recovers outside the window");
        // RF-harvesting tags also stop charging: the outage shows up as
        // extra starvation relative to the fault-free run.
        cfg.harvest = HarvestProfile::RfAmbient;
        cfg.storage_uj = 2.0;
        let faulted = simulate(cfg.clone(), perfect_table());
        cfg.faults = FaultSpec::none();
        let clean = simulate(cfg, perfect_table());
        assert!(
            faulted.stats.delivered <= clean.stats.delivered,
            "outage cannot add deliveries: {} vs {}",
            faulted.stats.delivered,
            clean.stats.delivered
        );
    }

    #[test]
    fn brownout_starves_harvest_limited_tags() {
        let mut cfg = NetworkConfig::new(1, 2_000);
        cfg.harvest = HarvestProfile::Solar(Illumination::Streetlight);
        cfg.storage_uj = 4.0;
        let clean = simulate(cfg.clone(), perfect_table());
        cfg.faults = FaultSpec::none().with_brownouts(2, 400, 0.1);
        let browned = simulate(cfg, perfect_table());
        assert!(
            browned.stats.delivered < clean.stats.delivered,
            "brownout {} vs clean {}",
            browned.stats.delivered,
            clean.stats.delivered
        );
        assert!(browned.stats.delivered > 0, "recovers between windows");
    }

    #[test]
    fn tag_resets_abandon_queued_packets() {
        // One arrival per slot against an ARQ service rate of one
        // packet per two slots (attempt + ACK wait): the backlog grows,
        // so a reset always finds arrived-but-undelivered heads to wipe.
        let mut cfg = NetworkConfig::new(4, 400);
        cfg.arq = Some(ArqConfig::default());
        cfg.faults = FaultSpec::none().with_resets(12);
        cfg.traffic = trace_of(
            (0..4)
                .map(|_| (0..200).map(|k| (k, 300u32)).collect())
                .collect(),
        );
        let run = simulate(cfg, perfect_table());
        assert!(run.stats.abandoned > 0, "{:?}", run.stats);
        assert!(run.stats.queue_conserved(), "{:?}", run.stats);
    }

    #[test]
    fn zero_fault_spec_is_invisible_whatever_its_seed() {
        // The fault layer must be bit-invisible when it injects nothing:
        // different *fault* seeds, identical traces.
        let mut cfg = NetworkConfig::new(60, 300);
        cfg.record_trace = true;
        let base = simulate(cfg.clone(), table());
        cfg.faults = FaultSpec::none().with_seed(0xDEAD_BEEF);
        let refitted = simulate(cfg, table());
        assert_eq!(base.trace, refitted.trace);
        assert_eq!(base.stats.delivered, refitted.stats.delivered);
        assert_eq!(base.stats.latencies_slots, refitted.stats.latencies_slots);
    }

    #[test]
    fn faulted_runs_are_same_seed_deterministic() {
        let mut cfg = NetworkConfig::new(80, 400);
        cfg.record_trace = true;
        cfg.arq = Some(ArqConfig::default());
        cfg.faults = FaultSpec::none()
            .with_outages(1, 60)
            .with_brownouts(2, 60, 0.25)
            .with_bursts(2, 40, 0.05)
            .with_resets(6);
        let a = simulate(cfg.clone(), table());
        let b = simulate(cfg.clone(), table());
        // Every fault class with ARQ on must still conserve the queues.
        assert!(a.stats.queue_conserved(), "{:?}", a.stats);
        assert!(b.stats.queue_conserved(), "{:?}", b.stats);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats.abandoned, b.stats.abandoned);
        cfg.faults.seed ^= 1;
        let c = simulate(cfg, table());
        assert_ne!(a.trace, c.trace, "fault seed must move the windows");
    }

    #[test]
    fn trace_mode_is_deterministic_and_seed_sensitive() {
        // Every tag arrives in the same slots, so channel-mates collide
        // and the seeded backoff draws shape the trace.
        let arrivals: Vec<Vec<(u64, u32)>> = (0..200)
            .map(|_| (0..5).map(|k| (37 * k, 60u32)).collect())
            .collect();
        let mut cfg = NetworkConfig::new(200, 300);
        cfg.traffic = trace_of(arrivals);
        cfg.record_trace = true;
        let a = simulate(cfg.clone(), table());
        let b = simulate(cfg.clone(), table());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats.sojourn_slots, b.stats.sojourn_slots);
        assert!(a.stats.queue_conserved(), "{:?}", a.stats);
        cfg.seed ^= 1;
        let c = simulate(cfg, table());
        assert_ne!(a.trace, c.trace, "different seed must change the trace");
    }

    #[test]
    fn calibrated_table_drives_the_network() {
        // End-to-end: calibrate a tiny table from the real fast tier and
        // run a deployment over it.
        let table = Arc::new(BerTable::calibrate(
            &FastSim,
            &BerTableSpec {
                powers_dbm: vec![-50.0, -30.0],
                distances_ft: vec![4.0, 16.0],
                bitrates: vec![Bitrate::Kbps1_6],
                bits_per_point: 160,
                repeats: 1,
                seed: 9,
            },
        ));
        let run = simulate(NetworkConfig::new(20, 200), table);
        assert!(run.stats.delivered > 0);
    }
}

//! Deployment geometry and the one network engine loop.
//!
//! This module is the network tier's front door: a typed [`Deployment`]
//! builder is the one configuration a caller writes, validates every
//! invariant at build time (one typed [`DeploymentError`]), and compiles
//! down to per-domain specs that [`CitySim`], the one engine, runs:
//!
//! * **Geometry** — FM [`Station`]s (position + transmit power),
//!   [`Receiver`] cells, and tag [`Placement`] models (uniform over the
//!   receiver discs, or clustered hotspots around them). Tags partition
//!   into [`CollisionDomain`]s by nearest-receiver assignment.
//! * **Spatial reuse** — each domain gets its own frequency plan from
//!   [`fmbs_core::mac::assign_f_back`]; two domains on the same
//!   `f_back` only interact when their receiver cells overlap, in which
//!   case co-channel transmissions elevate each other's raw BER through
//!   the calibrated packet-survival curve.
//! * **Capture effect** — within a contended slot the strongest
//!   received signal (ambient power at the tag minus the tag→receiver
//!   free-space path loss from [`fmbs_channel::pathloss`]) wins the
//!   slot outright when its advantage over the runner-up meets the
//!   configured capture margin ([`capture_winner`] is the pure,
//!   property-tested decision rule).
//! * **One engine loop** — one event queue per domain
//!   ([`crate::engine`]'s `DomainSim`), stepped in lockstep on a worker
//!   pool with cross-domain transmit counts exchanged at one barrier
//!   per visited slot, parallel == serial bit-identical (the sweep
//!   engine's discipline); see [`CitySim`].
//! * **Work budget** — [`Deployment::build`] rejects more than
//!   [`DEFAULT_MAX_TAGS`] tags, [`DEFAULT_MAX_TAG_SLOTS`] tag-slots or
//!   [`MAX_RECEIVERS`] receivers before any per-tag work;
//!   [`Deployment::work_budget`] raises the tag-slot budget.
//!
//! A single-receiver plan is the one-domain case of the same synthesis:
//! tags `0..n` placed, powered and captured as in any other cell, with
//! no peers. Sweep metrics place such a cell at each grid point with
//! [`Deployment::at`].

use crate::deploy::{city_occupancy, place_into, HarvestProfile, TagSite, UnitDraw};
use crate::engine::{
    ArqConfig, ArrivalQueues, DomainSim, EventTrace, NetRun, NetStats, NetworkConfig, SlotExtras,
    TraceEvent, Traffic,
};
use crate::faults::{FaultKind, FaultSpec};
use crate::link::{BerTable, PacketModel};
use fmbs_channel::pathloss::free_space_path_loss_db;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::splitmix64;
use fmbs_fm::band::{BandOccupancy, Channel};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

pub use crate::engine::capture_winner;

/// Feet per metre, for the geometry ↔ path-loss unit boundary.
const FT_TO_M: f64 = 0.3048;

/// An FM broadcast station: where it stands and how hard it transmits.
/// Stations set the ambient power tags hear (and harvest): each tag
/// takes the strongest station after the urban log-distance path loss
/// of [`fmbs_channel::pathloss::LogDistanceModel::urban_fm`], plus
/// deterministic per-tag shadowing. With no stations configured, the
/// builder's flat `mean_power_dbm` is used instead (the pre-metro
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Position, feet east of the city origin.
    pub x_ft: f64,
    /// Position, feet north of the city origin.
    pub y_ft: f64,
    /// Effective radiated power in dBm (a 5 kW municipal transmitter is
    /// ~67 dBm; the default suits a tag population 1–3 km out).
    pub power_dbm: f64,
}

impl Station {
    /// A station at `(x_ft, y_ft)` with the default 67 dBm ERP.
    pub fn at(x_ft: f64, y_ft: f64) -> Self {
        Station {
            x_ft,
            y_ft,
            power_dbm: 67.0,
        }
    }

    /// Overrides the transmit power (dBm).
    pub fn power(mut self, power_dbm: f64) -> Self {
        self.power_dbm = power_dbm;
        self
    }
}

/// One receiver cell: a disc every tag inside contends within.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Receiver {
    /// Cell centre, feet east of the city origin.
    pub x_ft: f64,
    /// Cell centre, feet north of the city origin.
    pub y_ft: f64,
    /// Cell radius in feet: the builder rejects tags placed farther
    /// than this from their nearest receiver.
    pub radius_ft: f64,
}

impl Receiver {
    /// A receiver cell at `(x_ft, y_ft)` with radius `radius_ft`.
    pub fn at(x_ft: f64, y_ft: f64, radius_ft: f64) -> Self {
        Receiver {
            x_ft,
            y_ft,
            radius_ft,
        }
    }

    /// A square grid of `nx × ny` receiver cells with centre-to-centre
    /// pitch `pitch_ft`. The radius is `pitch_ft / √2`, the smallest
    /// that still covers the whole grid square, so uniform placement
    /// never produces uncovered tags. A grid past [`MAX_RECEIVERS`] is
    /// cut at one cell more (for [`Deployment::build`] to reject).
    pub fn grid(nx: usize, ny: usize, pitch_ft: f64) -> Vec<Receiver> {
        let radius = pitch_ft / std::f64::consts::SQRT_2;
        (0..ny)
            .flat_map(|j| {
                (0..nx).map(move |i| Receiver::at(i as f64 * pitch_ft, j as f64 * pitch_ft, radius))
            })
            .take(MAX_RECEIVERS + 1)
            .collect()
    }

    fn overlaps(&self, other: &Receiver) -> bool {
        let dx = self.x_ft - other.x_ft;
        let dy = self.y_ft - other.y_ft;
        (dx * dx + dy * dy).sqrt() < self.radius_ft + other.radius_ft
    }
}

/// How tags scatter over the receiver cells. Both models are pure
/// functions of `(seed, tag)` — the deployment never depends on
/// iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Uniform in area: a cell is picked with probability proportional
    /// to its disc area, then the tag lands uniformly inside that disc.
    UniformDisc,
    /// Clustered hotspots: a cell is picked uniformly, then the tag
    /// lands uniformly within `spread_ft` of its centre — dense knots
    /// of tags around points of interest.
    ClusteredHotspots {
        /// Hotspot radius in feet (clamped to the cell radius).
        spread_ft: f64,
    },
}

/// The most tags a [`Deployment`] builds: 2^21, twice the 10^6-tag
/// metro acceptance run.
pub const DEFAULT_MAX_TAGS: usize = 1 << 21;

/// The most tag-slots (`n_tags × n_slots`) a [`Deployment`] builds
/// without [`Deployment::work_budget`]: 2^28, about 2.7·10^8. Saturated
/// traffic costs up to one attempt per tag-slot. On a 2-vCPU x86-64
/// host (release build) one saturated tag over 2^24 slots ran in 1.4 s,
/// which scales to 22 s at the budget, and 2^20 saturated tags in one
/// cell over 256 slots (the full budget) ran in 13 s. Every committed
/// figure, test and corpus city fits.
pub const DEFAULT_MAX_TAG_SLOTS: u64 = 1 << 28;

/// The most receiver cells a [`Deployment`] builds: 1024, a 32 × 32
/// grid (synthesis costs a distance per tag and receiver).
pub const MAX_RECEIVERS: usize = 1 << 10;

/// Everything that can make a [`Deployment`] unbuildable, unified from
/// what used to be three scattered failure modes: the channel plan's
/// band-full `None` (silently mapped to a 0 Hz shift before), ARQ
/// parameter nonsense (previously unchecked), and fault windows the
/// schedule would silently clamp.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentError {
    /// No tags to deploy.
    NoTags,
    /// A zero-slot horizon simulates nothing.
    NoSlots,
    /// Every deployment needs at least one receiver cell.
    NoReceivers,
    /// The FM band has no free channel to assign backscatter shifts
    /// from (`assign_f_back` would return all-`None`).
    BandFull {
        /// Channels already occupied in the configured band.
        occupied: usize,
    },
    /// An ARQ parameter is out of its sane range.
    ArqInvalid {
        /// What was wrong.
        reason: String,
    },
    /// A fault window is empty or longer than the slot horizon (the
    /// schedule would silently clamp it).
    FaultWindow {
        /// The offending fault class.
        kind: FaultKind,
        /// The configured window length in slots.
        window_slots: u64,
        /// The run's slot horizon.
        horizon: u64,
    },
    /// A fault intensity parameter is out of range.
    FaultParameter {
        /// What was wrong.
        reason: String,
    },
    /// The capture margin must be finite and non-negative dB.
    CaptureMargin {
        /// The rejected margin.
        margin_db: f64,
    },
    /// The co-channel interference BER step must lie in [0, 1].
    InterferenceBer {
        /// The rejected per-transmitter BER elevation.
        ber: f64,
    },
    /// A receiver cell, a station or the ambient power is unusable: a
    /// radius that is not finite and positive, a centre that is not
    /// finite or that another receiver already occupies, a station
    /// position or power that is not finite, or a non-finite mean power.
    Geometry {
        /// What was wrong.
        reason: String,
    },
    /// The run exceeds the deployment's work budget: more tags than
    /// [`DEFAULT_MAX_TAGS`], more tag-slots (`n_tags × n_slots`,
    /// saturating) than `max_tag_slots`, or over [`MAX_RECEIVERS`].
    WorkBudget {
        /// Deployed tags.
        n_tags: usize,
        /// Slot horizon.
        n_slots: u64,
        /// Receiver cells (an oversized [`Receiver::grid`] counts 1025).
        receivers: usize,
        /// The tag-slot budget.
        max_tag_slots: u64,
    },
    /// A tag landed farther from its nearest receiver than that cell's
    /// radius — the receiver layout does not cover the placement.
    UncoveredTag {
        /// The uncovered tag's index.
        tag: u32,
        /// Its distance to the nearest receiver, feet.
        distance_ft: f64,
        /// The nearest receiver's index.
        receiver: usize,
        /// That receiver's cell radius, feet.
        radius_ft: f64,
    },
}

impl DeploymentError {
    /// A one-line remediation hint, for the CLI's exit-2 UX.
    pub fn hint(&self) -> &'static str {
        match self {
            DeploymentError::NoTags => "deploy at least one tag: Deployment::city(n) with n >= 1",
            DeploymentError::NoSlots => "simulate at least one slot: .slots(n) with n >= 1",
            DeploymentError::NoReceivers => "add a receiver: .receivers([Receiver::at(0.0, 0.0, 16.0)])",
            DeploymentError::BandFull { .. } => {
                "free a channel in the occupancy map, or widen the band"
            }
            DeploymentError::ArqInvalid { .. } => "see ArqConfig's field docs for the valid ranges",
            DeploymentError::FaultWindow { .. } => {
                "shrink the fault window below the slot horizon (or raise .slots(..))"
            }
            DeploymentError::FaultParameter { .. } => {
                "brownout_scale and burst_ber are fractions in [0, 1]"
            }
            DeploymentError::CaptureMargin { .. } => {
                "pass a finite margin >= 0 dB to .capture(..), e.g. .capture(6.0)"
            }
            DeploymentError::InterferenceBer { .. } => {
                "pass a fraction in [0, 1] to .co_channel_ber(..)"
            }
            DeploymentError::Geometry { .. } => {
                "give each receiver its own finite centre and a finite radius > 0 \
                 (Receiver::grid needs pitch_ft > 0), each Station a finite position and \
                 power, and a finite .power(..)"
            }
            DeploymentError::WorkBudget { .. } => {
                "shrink the tag count, .slots(..) or the receiver grid, or raise the tag-slot \
                 budget with .work_budget(max_tag_slots)"
            }
            DeploymentError::UncoveredTag { .. } => {
                "grow the receiver radii or tighten the placement (Receiver::grid covers by construction)"
            }
        }
    }
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::NoTags => write!(f, "deployment has no tags"),
            DeploymentError::NoSlots => write!(f, "deployment has a zero-slot horizon"),
            DeploymentError::NoReceivers => write!(f, "deployment has no receiver cells"),
            DeploymentError::BandFull { occupied } => write!(
                f,
                "no free FM channel to assign backscatter shifts from ({occupied} occupied)"
            ),
            DeploymentError::ArqInvalid { reason } => write!(f, "invalid ARQ config: {reason}"),
            DeploymentError::FaultWindow {
                kind,
                window_slots,
                horizon,
            } => write!(
                f,
                "{} fault window of {window_slots} slots does not fit the {horizon}-slot horizon",
                kind.name()
            ),
            DeploymentError::FaultParameter { reason } => {
                write!(f, "invalid fault parameter: {reason}")
            }
            DeploymentError::CaptureMargin { margin_db } => {
                write!(f, "capture margin {margin_db} dB is not a finite non-negative value")
            }
            DeploymentError::InterferenceBer { ber } => {
                write!(f, "co-channel BER step {ber} is outside [0, 1]")
            }
            DeploymentError::Geometry { reason } => write!(f, "invalid geometry: {reason}"),
            DeploymentError::WorkBudget {
                n_tags,
                n_slots,
                receivers,
                max_tag_slots,
            } => write!(
                f,
                "{n_tags} tags x {n_slots} slots in {receivers} receiver cells exceeds the work \
                 budget of {DEFAULT_MAX_TAGS} tags, {max_tag_slots} tag-slots and \
                 {MAX_RECEIVERS} receiver cells"
            ),
            DeploymentError::UncoveredTag {
                tag,
                distance_ft,
                receiver,
                radius_ft,
            } => write!(
                f,
                "tag {tag} lands {distance_ft:.1} ft from receiver {receiver} (radius {radius_ft:.1} ft): receivers do not cover the placement"
            ),
        }
    }
}

impl std::error::Error for DeploymentError {}

/// One collision domain of a compiled plan: the tags served by one
/// receiver, their synthesised sites (local order), and the received
/// backscatter power the capture effect compares.
#[derive(Debug, Clone)]
pub struct CollisionDomain {
    /// The receiver cell this domain belongs to.
    pub receiver: usize,
    /// Global tag indices, in local order (`tags[i]` is local tag `i`).
    pub tags: Vec<u32>,
    /// Synthesised per-tag sites, in local order.
    pub sites: Vec<TagSite>,
    /// Received backscatter power at the receiver per local tag (dBm):
    /// ambient power at the tag minus the tag→receiver free-space path
    /// loss — what the capture margin is measured against.
    pub rx_dbm: Vec<f64>,
    /// Size of this domain's frequency plan (dense local channel ids).
    pub n_channels: usize,
}

/// The compiled geometry: collision domains plus, per (domain, local
/// channel), the co-channel channels of *overlapping* neighbour domains
/// — the spatial-reuse rule made into a lookup table.
#[derive(Debug, Clone)]
struct MetroTopology {
    /// One domain per receiver (possibly empty of tags).
    domains: Vec<CollisionDomain>,
    /// `peers[d][c]` lists the `(domain, channel)` pairs that contend
    /// with domain `d`'s local channel `c`: same `f_back`, overlapping
    /// cells. Non-overlapping same-`f_back` domains reuse the spectrum
    /// silently.
    peers: Vec<Vec<Vec<(usize, u16)>>>,
}

/// A validated, compiled deployment: the core engine config plus the
/// topology [`CitySim`] runs, one collision domain per receiver.
#[derive(Debug, Clone)]
pub struct CityPlan {
    cfg: NetworkConfig,
    topology: MetroTopology,
    capture_margin_db: Option<f64>,
    co_channel_ber: f64,
    link: Option<Arc<BerTable>>,
}

impl CityPlan {
    /// The engine configuration at the plan's core. A single-receiver
    /// plan runs exactly this as its one collision domain.
    pub fn network_config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Whether this plan shards across multiple receiver cells.
    pub fn is_metro(&self) -> bool {
        self.topology.domains.len() > 1
    }

    /// The compiled collision domains, one per receiver.
    pub fn domains(&self) -> &[CollisionDomain] {
        &self.topology.domains
    }

    /// Builds the simulator over `table` (overrides any `.link(..)`).
    pub fn into_sim(self, table: Arc<BerTable>) -> CitySim {
        CitySim::new(self, table)
    }

    /// Builds the simulator over the table given to `.link(..)`.
    ///
    /// # Panics
    /// When the deployment was built without `.link(..)`.
    pub fn sim(self) -> CitySim {
        let table = self
            .link
            .clone()
            .expect("CityPlan::sim needs Deployment::link(table); or use into_sim(table)");
        CitySim::new(self, table)
    }
}

/// The deployment builder: the one configuration of the network tier
/// (see the [module docs](self) for the full model). It holds the core
/// engine config plus the geometry and link that compile on top of it.
///
/// ```
/// use fmbs_core::sim::fast::FastSim;
/// use fmbs_net::prelude::*;
/// use std::sync::Arc;
///
/// let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));
/// let run = Deployment::city(500)
///     .slots(200)
///     .receivers(Receiver::grid(2, 2, 400.0))
///     .stations([Station::at(2000.0, 0.0)])
///     .capture(6.0)
///     .build()
///     .expect("valid deployment")
///     .into_sim(table)
///     .run();
/// assert_eq!(run.per_domain.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Deployment {
    cfg: NetworkConfig,
    stations: Vec<Station>,
    receivers: Vec<Receiver>,
    placement: Placement,
    capture_margin_db: Option<f64>,
    co_channel_ber: f64,
    link: Option<Arc<BerTable>>,
    /// The most tag-slots [`Deployment::build`] accepts; see
    /// [`Deployment::work_budget`].
    max_tag_slots: u64,
}

impl Deployment {
    /// A city deployment of `n_tags` tags with the tier's historical
    /// defaults: `NetworkConfig::new(n_tags, 1_000)` (1.6 kbps, 256-bit
    /// packets, mains power) in one receiver cell of 16 ft.
    pub fn city(n_tags: usize) -> Self {
        Deployment::one_cell(NetworkConfig::new(n_tags, 1_000))
    }

    /// `cfg` in one 16 ft receiver cell at the origin, with the default
    /// geometry and no link table.
    pub(crate) fn one_cell(cfg: NetworkConfig) -> Self {
        Deployment {
            receivers: vec![Receiver::at(0.0, 0.0, 16.0)],
            cfg,
            stations: Vec::new(),
            placement: Placement::UniformDisc,
            capture_margin_db: None,
            co_channel_ber: 0.01,
            link: None,
            max_tag_slots: DEFAULT_MAX_TAG_SLOTS,
        }
    }

    /// The one-cell deployment this one runs at a sweep point.
    ///
    /// From `scenario`: `n_tags` and `mac_slots` (each at least 1), the
    /// data workload's bitrate (1.6 kbps otherwise), `distance_ft` as
    /// the cell radius (at least 1 ft), the ambient power, `f_back_hz`
    /// as the guard ring around channel 17, and the seed. From `self`:
    /// harvest, packet bits, storage, faults, ARQ, the work budget and
    /// the link table.
    /// Everything else keeps its [`Deployment::city`] default; this
    /// deployment's host, occupancy, stations, receivers, placement and
    /// capture do not carry over. This is what lets the sweep engine
    /// treat network axes like any other axis.
    pub fn at(&self, scenario: &Scenario) -> Deployment {
        let bitrate = match scenario.workload {
            Workload::Data { bitrate, .. } => bitrate,
            _ => Bitrate::Kbps1_6,
        };
        let cfg = NetworkConfig {
            n_tags: scenario.n_tags.max(1) as usize,
            n_slots: scenario.mac_slots.max(1) as u64,
            bitrate,
            mean_power_dbm: scenario.ambient_at_tag.0,
            occupancy: city_occupancy(Channel(17), scenario.f_back_hz),
            seed: scenario.seed,
            harvest: self.cfg.harvest,
            packet_bits: self.cfg.packet_bits,
            storage_uj: self.cfg.storage_uj,
            faults: self.cfg.faults.clone(),
            arq: self.cfg.arq.clone(),
            ..NetworkConfig::new(1, 1)
        };
        Deployment {
            receivers: vec![Receiver::at(0.0, 0.0, scenario.distance_ft.max(1.0))],
            link: self.link.clone(),
            max_tag_slots: self.max_tag_slots,
            ..Deployment::one_cell(cfg)
        }
    }

    /// Builds, simulates and runs this deployment — one sweep point.
    ///
    /// # Panics
    /// When the deployment is invalid (the [`DeploymentError`] and its
    /// hint are in the message) or was built without `.link(..)`.
    pub fn run_point(&self) -> MetroRun {
        match self.build() {
            Ok(plan) => plan.sim().run(),
            Err(e) => panic!("invalid Deployment: {e} (hint: {})", e.hint()),
        }
    }

    /// Sets the slot horizon.
    pub fn slots(mut self, n_slots: u64) -> Self {
        self.cfg.n_slots = n_slots;
        self
    }

    /// Sets every tag's data rate.
    pub fn bitrate(mut self, bitrate: Bitrate) -> Self {
        self.cfg.bitrate = bitrate;
        self
    }

    /// Sets the packet length in bits (and with it the slot duration).
    pub fn packet_bits(mut self, bits: u32) -> Self {
        self.cfg.packet_bits = bits;
        self
    }

    /// Sets the mean ambient FM power (dBm) tags hear when no explicit
    /// [`Station`]s are configured.
    pub fn power(mut self, mean_power_dbm: f64) -> Self {
        self.cfg.mean_power_dbm = mean_power_dbm;
        self
    }

    /// Replaces the band occupancy the frequency plan is computed over.
    pub fn occupancy(mut self, occupancy: BandOccupancy) -> Self {
        self.cfg.occupancy = occupancy;
        self
    }

    /// Rebuilds the default synthetic city occupancy around `host` with
    /// the given minimum backscatter shift (guard ring).
    pub fn host(mut self, host: Channel, min_shift_hz: f64) -> Self {
        self.cfg.host = host;
        self.cfg.occupancy = city_occupancy(host, min_shift_hz);
        self
    }

    /// Sets what powers the tags.
    pub fn harvest(mut self, harvest: HarvestProfile) -> Self {
        self.cfg.harvest = harvest;
        self
    }

    /// Sets per-tag energy storage in µJ.
    pub fn storage(mut self, storage_uj: f64) -> Self {
        self.cfg.storage_uj = storage_uj;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Records the slot-level event trace (off by default).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.cfg.record_trace = on;
        self
    }

    /// Caps the recorded trace (see [`EventTrace::dropped`]).
    pub fn trace_cap(mut self, cap: usize) -> Self {
        self.cfg.trace_cap = cap;
        self
    }

    /// Sets the traffic model (saturated, or a workload arrival trace).
    pub fn traffic(mut self, traffic: Traffic) -> Self {
        self.cfg.traffic = traffic;
        self
    }

    /// Sheds queued packets whose deadline already passed.
    pub fn drop_expired(mut self, on: bool) -> Self {
        self.cfg.drop_expired = on;
        self
    }

    /// Installs a deterministic fault plan.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Switches the link-layer ARQ on.
    pub fn arq(mut self, arq: ArqConfig) -> Self {
        self.cfg.arq = Some(arq);
        self
    }

    /// Places the FM broadcast stations that set ambient power.
    pub fn stations(mut self, stations: impl IntoIterator<Item = Station>) -> Self {
        self.stations = stations.into_iter().collect();
        self
    }

    /// Places the receiver cells. One receiver is a single collision
    /// domain; two or more shard the run into parallel collision
    /// domains.
    pub fn receivers(mut self, receivers: impl IntoIterator<Item = Receiver>) -> Self {
        self.receivers = receivers.into_iter().collect();
        self
    }

    /// Sets the tag placement model.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Switches the capture effect on with the given margin in dB: in a
    /// contended slot the strongest received signal wins outright when
    /// its advantage over the runner-up is at least this.
    pub fn capture(mut self, margin_db: f64) -> Self {
        self.capture_margin_db = Some(margin_db);
        self
    }

    /// Sets the raw-BER elevation each co-channel transmission in an
    /// overlapping neighbour domain adds (default 0.01).
    pub fn co_channel_ber(mut self, ber: f64) -> Self {
        self.co_channel_ber = ber;
        self
    }

    /// Attaches the calibrated link table, letting [`CityPlan::sim`],
    /// [`Deployment::at`] and [`Deployment::run_point`] work without
    /// passing it again.
    pub fn link(mut self, table: Arc<BerTable>) -> Self {
        self.link = Some(table);
        self
    }

    /// Sets the tag-slot budget [`Deployment::build`] checks: at most
    /// `max_tag_slots` tag-slots (`n_tags × n_slots`), default
    /// [`DEFAULT_MAX_TAG_SLOTS`]; a longer run opts in here. The tag
    /// count stays capped at [`DEFAULT_MAX_TAGS`].
    pub fn work_budget(mut self, max_tag_slots: u64) -> Self {
        self.max_tag_slots = max_tag_slots;
        self
    }

    /// The engine configuration at the deployment's core.
    pub fn network_config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Validates every invariant and compiles the deployment into a
    /// runnable [`CityPlan`] — the single place the band-full, geometry,
    /// ARQ, fault-window and work-budget failure modes surface, as one
    /// typed error. The budget is checked before any per-tag work, so
    /// an oversized deployment is rejected at once.
    pub fn build(&self) -> Result<CityPlan, DeploymentError> {
        let cfg = &self.cfg;
        if cfg.n_tags == 0 {
            return Err(DeploymentError::NoTags);
        }
        if cfg.n_slots == 0 {
            return Err(DeploymentError::NoSlots);
        }
        let max_tag_slots = self.max_tag_slots;
        if cfg.n_tags > DEFAULT_MAX_TAGS
            || (cfg.n_tags as u64).saturating_mul(cfg.n_slots) > max_tag_slots
            || self.receivers.len() > MAX_RECEIVERS
        {
            return Err(DeploymentError::WorkBudget {
                n_tags: cfg.n_tags,
                n_slots: cfg.n_slots,
                receivers: self.receivers.len(),
                max_tag_slots,
            });
        }
        if self.receivers.is_empty() {
            return Err(DeploymentError::NoReceivers);
        }
        self.validate_geometry()?;
        if cfg.occupancy.free_channels().is_empty() {
            return Err(DeploymentError::BandFull {
                occupied: cfg.occupancy.occupied_count(),
            });
        }
        self.validate_arq()?;
        self.validate_faults()?;
        if let Some(m) = self.capture_margin_db {
            if !m.is_finite() || m < 0.0 {
                return Err(DeploymentError::CaptureMargin { margin_db: m });
            }
        }
        if !(0.0..=1.0).contains(&self.co_channel_ber) {
            return Err(DeploymentError::InterferenceBer {
                ber: self.co_channel_ber,
            });
        }

        Ok(CityPlan {
            cfg: cfg.clone(),
            topology: self.synthesize()?,
            capture_margin_db: self.capture_margin_db,
            co_channel_ber: self.co_channel_ber,
            link: self.link.clone(),
        })
    }

    fn validate_geometry(&self) -> Result<(), DeploymentError> {
        let fail = |reason: String| Err(DeploymentError::Geometry { reason });
        if !self.cfg.mean_power_dbm.is_finite() {
            return fail(format!(
                "mean power {} dBm is not finite",
                self.cfg.mean_power_dbm
            ));
        }
        for (i, st) in self.stations.iter().enumerate() {
            if !st.x_ft.is_finite() || !st.y_ft.is_finite() || !st.power_dbm.is_finite() {
                return fail(format!(
                    "station {i} at ({}, {}) ft with {} dBm is not finite",
                    st.x_ft, st.y_ft, st.power_dbm
                ));
            }
        }
        for (i, r) in self.receivers.iter().enumerate() {
            if !r.x_ft.is_finite() || !r.y_ft.is_finite() {
                return fail(format!(
                    "receiver {i} centre ({}, {}) ft is not finite",
                    r.x_ft, r.y_ft
                ));
            }
            if !r.radius_ft.is_finite() || r.radius_ft <= 0.0 {
                return fail(format!(
                    "receiver {i} radius {} ft is not finite and positive",
                    r.radius_ft
                ));
            }
            if let Some(j) = self.receivers[..i]
                .iter()
                .position(|o| o.x_ft == r.x_ft && o.y_ft == r.y_ft)
            {
                return fail(format!(
                    "receivers {j} and {i} share the centre ({}, {}) ft",
                    r.x_ft, r.y_ft
                ));
            }
        }
        Ok(())
    }

    fn validate_arq(&self) -> Result<(), DeploymentError> {
        let Some(a) = &self.cfg.arq else {
            return Ok(());
        };
        let fail = |reason: String| Err(DeploymentError::ArqInvalid { reason });
        if a.ack_slots > 1024 {
            return fail(format!("ack_slots {} exceeds 1024", a.ack_slots));
        }
        if a.max_retx > 1024 {
            return fail(format!("max_retx {} exceeds 1024", a.max_retx));
        }
        if a.fallback_after == 0 {
            return fail("fallback_after must be >= 1".into());
        }
        if a.recover_after == 0 {
            return fail("recover_after must be >= 1".into());
        }
        if let Some(fb) = a.fallback_bitrate {
            if fb.bits_per_second() >= self.cfg.bitrate.bits_per_second() {
                return fail(format!(
                    "fallback bitrate {:?} is not below the nominal {:?}",
                    fb, self.cfg.bitrate
                ));
            }
        }
        Ok(())
    }

    fn validate_faults(&self) -> Result<(), DeploymentError> {
        let f = &self.cfg.faults;
        let n_slots = self.cfg.n_slots;
        let windows = [
            (FaultKind::Outage, f.outages, f.outage_slots as u64),
            (FaultKind::Brownout, f.brownouts, f.brownout_slots as u64),
            (FaultKind::Burst, f.bursts, f.burst_slots as u64),
        ];
        for (kind, count, window_slots) in windows {
            if count > 0 && (window_slots == 0 || window_slots > n_slots) {
                return Err(DeploymentError::FaultWindow {
                    kind,
                    window_slots,
                    horizon: n_slots,
                });
            }
        }
        if !(0.0..=1.0).contains(&f.brownout_scale) {
            return Err(DeploymentError::FaultParameter {
                reason: format!("brownout_scale {} is outside [0, 1]", f.brownout_scale),
            });
        }
        if !(0.0..=1.0).contains(&f.burst_ber) {
            return Err(DeploymentError::FaultParameter {
                reason: format!("burst_ber {} is outside [0, 1]", f.burst_ber),
            });
        }
        Ok(())
    }

    /// Compiles the geometry: deterministic tag placement,
    /// nearest-receiver domain assignment, per-domain frequency plans and
    /// the co-channel overlap table. One receiver is the one-domain case:
    /// every tag joins it, in tag order.
    ///
    /// Tags are placed in contiguous chunks, and domains' sites built in
    /// blocks of domains, on [`setup_workers`] workers. The output does
    /// not depend on the worker count: each tag's geometry is a pure
    /// function of `(seed, tag)`, workers fill disjoint slices of
    /// buffers allocated by the calling thread, tags join their domains
    /// in tag order, and each domain's sites depend on that domain's
    /// tags alone. When tags are uncovered, every chunk stops at its
    /// first and the lowest chunk's is reported: the lowest uncovered
    /// tag, as one worker finds it.
    fn synthesize(&self) -> Result<MetroTopology, DeploymentError> {
        self.synthesize_on(setup_workers(self.cfg.n_tags))
    }

    /// [`Deployment::synthesize`] on `workers` workers.
    fn synthesize_on(&self, workers: usize) -> Result<MetroTopology, DeploymentError> {
        let cfg = &self.cfg;
        let rx = &self.receivers;
        let n = cfg.n_tags;

        // Each tag's receiver and (distance, ambient power), in chunks
        // of tags.
        let mut cell_of = vec![0u16; n];
        let mut geometry = vec![(0.0, 0.0); n];
        let chunk = n.div_ceil(workers.max(1));
        let parts: Vec<_> = cell_of
            .chunks_mut(chunk)
            .zip(geometry.chunks_mut(chunk))
            .enumerate()
            .collect();
        let placed = fmbs_obs::scoped_parts(parts, |_, (k, (cells, geom))| {
            self.place_tags(k * chunk, cells, geom)
        });
        placed.into_iter().collect::<Result<(), _>>()?;

        // Nearest receiver wins the tag; a domain's tags in tag order.
        let mut sizes = vec![0usize; rx.len()];
        for &c in &cell_of {
            sizes[c as usize] += 1;
        }
        let mut domains: Vec<CollisionDomain> = sizes
            .iter()
            .enumerate()
            .map(|(receiver, &len)| CollisionDomain {
                receiver,
                tags: Vec::with_capacity(len),
                sites: Vec::with_capacity(len),
                rx_dbm: Vec::with_capacity(len),
                n_channels: 0,
            })
            .collect();
        for (i, &c) in cell_of.iter().enumerate() {
            domains[c as usize].tags.push(i as u32);
        }
        drop(cell_of);

        // Per-domain frequency plans and sites, blocks of domains on the
        // workers, each filling the vectors reserved above. A
        // round-robin plan for `n` tags is a prefix of a longer one, so
        // one serves all.
        let longest = sizes.iter().copied().max().unwrap_or(0);
        let shifts = fmbs_core::mac::assign_f_back(&cfg.occupancy, cfg.host, longest);
        let f_hz = fmbs_channel::pathloss::LogDistanceModel::urban_fm().f_hz;
        let block = domains.len().div_ceil(workers.clamp(1, domains.len()));
        let blocks: Vec<&mut [CollisionDomain]> = domains.chunks_mut(block).collect();
        // Each domain's channel keys (`f_back_hz as i64`), by channel.
        let keys: Vec<Vec<i64>> = fmbs_obs::scoped_parts(blocks, |_, block| {
            let mut keys = Vec::with_capacity(block.len());
            for dom in block {
                let geom = dom.tags.iter().map(|&g| geometry[g as usize]);
                let channels = place_into(geom, &shifts, cfg, &mut dom.sites);
                dom.n_channels = channels.len().max(1);
                keys.push(channels);
                dom.rx_dbm.extend(dom.sites.iter().map(|s| {
                    s.power_dbm - free_space_path_loss_db(s.distance_ft * FT_TO_M, f_hz).0
                }));
            }
            keys
        })
        .into_iter()
        .flatten()
        .collect();

        // Spatial reuse: same f_back only contends across *overlapping*
        // cells.
        let mut peers: Vec<Vec<Vec<(usize, u16)>>> = domains
            .iter()
            .map(|d| vec![Vec::new(); d.n_channels])
            .collect();
        for a in 0..domains.len() {
            for b in 0..domains.len() {
                if a == b || !rx[domains[a].receiver].overlaps(&rx[domains[b].receiver]) {
                    continue;
                }
                for (ca, key) in keys[a].iter().enumerate() {
                    if let Some(cb) = keys[b].iter().position(|k| k == key) {
                        peers[a][ca].push((b, cb as u16));
                    }
                }
            }
        }
        Ok(MetroTopology { domains, peers })
    }

    /// Places tags `first..first + cells.len()`: tag `first + j`'s
    /// nearest receiver into `cells[j]` and its (distance to that
    /// receiver, at least 1 ft; ambient power) into `geometry[j]`. Stops
    /// at the first tag outside its nearest receiver's radius.
    fn place_tags(
        &self,
        first: usize,
        cells: &mut [u16],
        geometry: &mut [(f64, f64)],
    ) -> Result<(), DeploymentError> {
        let (cfg, rx) = (&self.cfg, &self.receivers);
        let urban = fmbs_channel::pathloss::LogDistanceModel::urban_fm();
        let pl0 = urban.reference_loss_db();
        // Area-weighted cell choice for uniform placement.
        let weights: Vec<f64> = rx.iter().map(|r| r.radius_ft * r.radius_ft).collect();
        let total_w: f64 = weights.iter().sum();
        let draws = [10, 11, 12, 13].map(|salt| UnitDraw::new(cfg.seed, salt));
        for (j, (cell_out, geom_out)) in cells.iter_mut().zip(geometry).enumerate() {
            let i = (first + j) as u64;
            let [pick, radius, angle, shadow] = draws.map(|d| d.at(i));
            let cell = match self.placement {
                Placement::UniformDisc => {
                    let mut acc = 0.0;
                    let target = pick * total_w;
                    let mut chosen = rx.len() - 1;
                    for (c, w) in weights.iter().enumerate() {
                        acc += w;
                        if target < acc {
                            chosen = c;
                            break;
                        }
                    }
                    chosen
                }
                Placement::ClusteredHotspots { .. } => {
                    ((pick * rx.len() as f64) as usize).min(rx.len() - 1)
                }
            };
            let spread = match self.placement {
                Placement::UniformDisc => rx[cell].radius_ft,
                Placement::ClusteredHotspots { spread_ft } => spread_ft.min(rx[cell].radius_ft),
            };
            let rad = spread * radius.sqrt();
            let ang = std::f64::consts::TAU * angle;
            let px = rx[cell].x_ft + rad * ang.cos();
            let py = rx[cell].y_ft + rad * ang.sin();
            // Nearest receiver wins the tag (ties to the lower index).
            let (nearest, d2) = rx
                .iter()
                .enumerate()
                .map(|(c, r)| {
                    let dx = px - r.x_ft;
                    let dy = py - r.y_ft;
                    (c, dx * dx + dy * dy)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("receivers are non-empty");
            let dist_ft = d2.sqrt();
            if dist_ft > rx[nearest].radius_ft {
                return Err(DeploymentError::UncoveredTag {
                    tag: i as u32,
                    distance_ft: dist_ft,
                    receiver: nearest,
                    radius_ft: rx[nearest].radius_ft,
                });
            }
            let shadow = 8.0 * (shadow - 0.5);
            let power_dbm = if self.stations.is_empty() {
                cfg.mean_power_dbm + shadow
            } else {
                self.stations
                    .iter()
                    .map(|st| {
                        let dm = ((px - st.x_ft).hypot(py - st.y_ft) * FT_TO_M).max(1.0);
                        st.power_dbm - urban.path_loss_from_db(pl0, dm).0
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
                    + shadow
            };
            *cell_out = nearest as u16;
            *geom_out = (dist_ft.max(1.0), power_dbm);
        }
        Ok(())
    }
}

/// Tags each set-up worker gets at least: [`Deployment::build`] and
/// `fmbs_workload`'s trace generation split their per-tag work over
/// [`setup_workers`] workers, so anything under twice this (every
/// corpus city, sweep point and test deployment) stays on one worker,
/// which spawns no thread.
pub const SETUP_TAGS_PER_WORKER: usize = 1 << 16;

/// Workers a per-tag set-up pass over `n_tags` tags runs on: the
/// host's parallelism ([`fmbs_obs::cores`]), with at least
/// [`SETUP_TAGS_PER_WORKER`] tags each.
pub fn setup_workers(n_tags: usize) -> usize {
    let most = n_tags / SETUP_TAGS_PER_WORKER;
    if most <= 1 {
        return 1;
    }
    fmbs_obs::cores().min(most)
}

/// One metro run's outputs: city-wide aggregate statistics, the
/// per-domain breakdown, and the (optional) merged event trace with
/// global tag ids.
#[derive(Debug, Clone)]
pub struct MetroRun {
    /// City-wide aggregate statistics (global tag order).
    pub stats: NetStats,
    /// Per-domain statistics, in receiver order.
    pub per_domain: Vec<NetStats>,
    /// Merged slot-level trace: ascending by slot, domains in receiver
    /// order within a slot, tag ids global.
    pub trace: EventTrace,
}

/// The network engine: a compiled [`CityPlan`] plus the link table.
/// Every plan runs through its one loop, one event queue per
/// [`CollisionDomain`] on a worker pool; it visits only the slots where
/// some domain may have an event, and one worker stays on the calling
/// thread.
#[derive(Debug, Clone)]
pub struct CitySim {
    plan: CityPlan,
    table: Arc<BerTable>,
    packets: Arc<PacketModel>,
}

/// Transmit counts (`[domain][channel]`) and per-worker next-event
/// bounds, double-buffered by visit parity: visit `v` writes `[v % 2]`
/// while slower peers may still read visit `v - 1`'s, so one barrier per
/// visit is enough. Relaxed suffices: the barrier orders the accesses.
struct Lockstep {
    counts: [Vec<Vec<AtomicU32>>; 2],
    bounds: [Vec<AtomicU64>; 2],
    barrier: Barrier,
}

/// One worker's domain runs (by domain id), the backoff windows they
/// drew, and the slots it visited (the same for every worker).
struct WorkerRun {
    runs: Vec<(usize, NetRun)>,
    backoffs: u64,
    slots_visited: u64,
}

impl CitySim {
    /// Builds the simulator over the process-wide packet-survival curve
    /// for the plan's frame length ([`PacketModel::for_frame`]), shared
    /// across every domain worker.
    pub fn new(plan: CityPlan, table: Arc<BerTable>) -> Self {
        let packets = PacketModel::for_frame(plan.cfg.packet_bits);
        CitySim {
            plan,
            table,
            packets,
        }
    }

    /// Runs on every available core. The result is bit-identical for
    /// any worker count (property-tested), so parallelism is purely a
    /// wall-clock lever.
    pub fn run(&self) -> MetroRun {
        self.run_with_threads(fmbs_obs::cores())
    }

    /// Runs single-threaded — the reference the parallel path must
    /// match bit-for-bit.
    pub fn run_serial(&self) -> MetroRun {
        self.run_with_threads(1)
    }

    /// Runs with an explicit worker count (at most one per domain).
    pub fn run_with_threads(&self, threads: usize) -> MetroRun {
        fmbs_obs::span!(fmbs_obs::stages::NET_ENGINE);
        let topo = &self.plan.topology;
        let workers = threads.clamp(1, topo.domains.len());
        let lockstep = Lockstep {
            counts: std::array::from_fn(|_| {
                topo.domains
                    .iter()
                    .map(|dom| (0..dom.n_channels).map(|_| AtomicU32::new(0)).collect())
                    .collect()
            }),
            bounds: std::array::from_fn(|_| (0..workers).map(|_| AtomicU64::new(0)).collect()),
            barrier: Barrier::new(workers),
        };
        // Two or more workers profile into child collectors absorbed in
        // worker order while this thread waits; one runs on this thread.
        let done = fmbs_obs::scoped_workers(workers, |w| self.run_worker(w, workers, &lockstep));
        let backoffs = done.iter().map(|r| r.backoffs).sum();
        let slots_visited = done[0].slots_visited;
        let mut runs: Vec<(usize, NetRun)> = done.into_iter().flat_map(|r| r.runs).collect();
        // Deterministic merge: domain id order, global tag ids.
        runs.sort_by_key(|&(d, _)| d);
        let run = self.merge(runs);
        publish_work(&run.stats, backoffs, slots_visited);
        run
    }

    /// One worker of [`CitySim::run_with_threads`]: builds the domains
    /// dealt to it (every `workers`-th, from `w`), then steps them in
    /// lockstep with the other workers.
    ///
    /// Each visited slot publishes this worker's per-channel transmit
    /// counts and a lower bound on its domains' next event (phase A, no
    /// randomness), waits at the one slot barrier, then resolves with
    /// the overlapping co-channel neighbours' counts folded into the BER
    /// (phase B) and jumps to the least bound any worker published.
    /// Every per-domain draw comes from that domain's private streams,
    /// so the deal only affects wall-clock, never results; nor does
    /// skipping a slot in which no domain has an event.
    fn run_worker(&self, w: usize, workers: usize, lockstep: &Lockstep) -> WorkerRun {
        let topo = &self.plan.topology;
        let mut bucket: Vec<(usize, DomainSim)> = {
            fmbs_obs::span!(fmbs_obs::stages::NET_DOMAIN_SETUP);
            (w..topo.domains.len())
                .step_by(workers)
                .map(|d| (d, self.domain_sim(d, &topo.domains[d])))
                .collect()
        };
        // Channels each domain published into each parity's buffer.
        let mut live: [Vec<Vec<u16>>; 2] =
            std::array::from_fn(|_| bucket.iter().map(|_| Vec::new()).collect());
        let mut extra: Vec<Vec<f64>> = bucket
            .iter()
            .map(|(d, _)| vec![0.0; topo.domains[*d].n_channels])
            .collect();
        let capture = self.plan.capture_margin_db;
        let co_ber = self.plan.co_channel_ber;
        // Per-slot phases are tallied here and recorded once at the end,
        // not one collector lock per visited slot.
        let mut gather = fmbs_obs::Tally::new(fmbs_obs::stages::NET_GATHER);
        let mut barrier = fmbs_obs::Tally::new(fmbs_obs::stages::NET_BARRIER);
        let mut resolve = fmbs_obs::Tally::new(fmbs_obs::stages::NET_RESOLVE);
        let (mut slot, mut visits) = (0, 0u64);
        while slot < self.plan.cfg.n_slots {
            let p = (visits % 2) as usize;
            let (counts, bounds, live) = (&lockstep.counts[p], &lockstep.bounds[p], &mut live[p]);
            {
                let _gather = gather.enter();
                let mut bound = u64::MAX;
                for (bi, (d, sim)) in bucket.iter_mut().enumerate() {
                    // Every peer has passed the previous visit's barrier,
                    // so none still reads what visit - 2 left here.
                    for &ch in &live[bi] {
                        counts[*d][ch as usize].store(0, Ordering::Relaxed);
                    }
                    live[bi].clear();
                    if sim.peek_slot() == Some(slot) {
                        sim.gather(slot);
                        for (ch, n) in sim.touched_counts() {
                            counts[*d][ch as usize].store(n, Ordering::Relaxed);
                            live[bi].push(ch);
                        }
                    }
                    // Resolving an attempt may schedule the next slot;
                    // otherwise the queue holds the next event.
                    let next = if live[bi].is_empty() {
                        sim.peek_slot().unwrap_or(u64::MAX)
                    } else {
                        slot + 1
                    };
                    bound = bound.min(next);
                }
                bounds[w].store(bound, Ordering::Relaxed);
            }
            // One worker has no one to wait for.
            if workers > 1 {
                let _wait = barrier.enter();
                lockstep.barrier.wait();
            }
            let _resolve = resolve.enter();
            for (bi, (d, sim)) in bucket.iter_mut().enumerate() {
                if live[bi].is_empty() {
                    continue;
                }
                for &ch in &live[bi] {
                    let mut others = 0u32;
                    for &(pd, pch) in &topo.peers[*d][ch as usize] {
                        others += counts[pd][pch as usize].load(Ordering::Relaxed);
                    }
                    extra[bi][ch as usize] = others as f64 * co_ber;
                }
                let se = SlotExtras {
                    capture: capture.map(|m| (topo.domains[*d].rx_dbm.as_slice(), m)),
                    interference: &extra[bi],
                };
                sim.resolve(slot, &se);
                for &ch in &live[bi] {
                    extra[bi][ch as usize] = 0.0;
                }
            }
            slot = bounds
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .min()
                .unwrap_or(u64::MAX);
            visits += 1;
        }
        WorkerRun {
            backoffs: bucket.iter().map(|(_, sim)| sim.backoffs).sum(),
            runs: bucket
                .into_iter()
                .map(|(d, sim)| (d, sim.finish()))
                .collect(),
            slots_visited: visits,
        }
    }

    /// Domain `d`'s engine. A single-receiver plan's one domain is the
    /// whole cell: the plan's own seeds, the shared arrival trace read in
    /// place. A metro domain gets its local tag count, a domain-mixed
    /// seed (so tag streams never collide across domains), a
    /// domain-mixed fault stream, and a flat copy of its tags' queues.
    fn domain_sim<'s>(&'s self, d: usize, dom: &'s CollisionDomain) -> DomainSim<'s> {
        let base = &self.plan.cfg;
        let mut cfg = base.clone();
        let queues = if self.plan.is_metro() {
            cfg.n_tags = dom.tags.len();
            cfg.seed = splitmix64(base.seed ^ 0x4D45_5452_4F00 ^ ((d as u64) << 24));
            if !cfg.faults.is_none() {
                cfg.faults.seed = splitmix64(base.faults.seed ^ 0x00FA_17C4 ^ d as u64);
            }
            ArrivalQueues::flat(&cfg.traffic, dom.tags.iter().map(|&g| g as usize))
        } else {
            ArrivalQueues::shared(&cfg.traffic)
        };
        DomainSim::new(
            cfg,
            &self.table,
            self.packets.clone(),
            &dom.sites,
            dom.n_channels,
            queues,
        )
    }

    fn merge(&self, runs: Vec<(usize, NetRun)>) -> MetroRun {
        let (cfg, topo) = (&self.plan.cfg, &self.plan.topology);
        let mut stats = NetStats {
            n_tags: cfg.n_tags,
            n_slots: cfg.n_slots,
            slot_secs: cfg.slot_secs(),
            per_tag_delivered: vec![0; cfg.n_tags],
            ..NetStats::default()
        };
        let mut trace = EventTrace::new(cfg.trace_cap);
        let mut merged: Vec<TraceEvent> = Vec::new();
        let mut per_domain = Vec::with_capacity(runs.len());
        let mut dropped_in_domains = 0u64;
        for (d, run) in runs {
            let dom = &topo.domains[d];
            stats.attempts += run.stats.attempts;
            stats.delivered += run.stats.delivered;
            stats.corrupt += run.stats.corrupt;
            stats.collided += run.stats.collided;
            stats.starved_slots += run.stats.starved_slots;
            stats.delivered_bits += run.stats.delivered_bits;
            stats.offered += run.stats.offered;
            stats.on_time += run.stats.on_time;
            stats.expired_dropped += run.stats.expired_dropped;
            stats.still_queued += run.stats.still_queued;
            stats.retransmissions += run.stats.retransmissions;
            stats.acked += run.stats.acked;
            stats.abandoned += run.stats.abandoned;
            stats.rate_fallback_slots += run.stats.rate_fallback_slots;
            for (li, &n) in run.stats.per_tag_delivered.iter().enumerate() {
                stats.per_tag_delivered[dom.tags[li] as usize] = n;
            }
            stats
                .latencies_slots
                .extend_from_slice(&run.stats.latencies_slots);
            stats
                .sojourn_slots
                .extend_from_slice(&run.stats.sojourn_slots);
            if cfg.record_trace {
                dropped_in_domains += run.trace.dropped();
                merged.extend(run.trace.iter().map(|ev| TraceEvent {
                    tag: dom.tags[ev.tag as usize],
                    ..*ev
                }));
            }
            per_domain.push(run.stats);
        }
        stats.latencies_slots.sort_unstable();
        stats.sojourn_slots.sort_unstable();
        if cfg.record_trace {
            // Stable by slot: within a slot, domain order then each
            // domain's emission order — the documented total order.
            merged.sort_by_key(|ev| ev.slot);
            for ev in merged {
                trace.push(ev);
            }
            trace.note_dropped(dropped_in_domains);
        }
        MetroRun {
            stats,
            per_domain,
            trace,
        }
    }
}

/// Publishes one run's engine work as obs counters, so a profile shows
/// what the run's time bought (no-op without a collector): the outcome
/// counts, the backoff windows drawn and the slots the loop visited.
fn publish_work(stats: &NetStats, backoffs: u64, slots_visited: u64) {
    fmbs_obs::counter!("net.attempts", stats.attempts);
    fmbs_obs::counter!("net.delivered", stats.delivered);
    fmbs_obs::counter!("net.collided", stats.collided);
    fmbs_obs::counter!("net.corrupt", stats.corrupt);
    fmbs_obs::counter!("net.retransmissions", stats.retransmissions);
    fmbs_obs::counter!("net.backoffs", backoffs);
    fmbs_obs::counter!("net.slots_visited", slots_visited);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> Arc<BerTable> {
        Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![0.0, 2e-4, 1e-4, 2e-3],
        ))
    }

    /// A lossy link: corruption is common enough that ARQ retransmits
    /// and falls back to the lower rate.
    fn lossy_table() -> Arc<BerTable> {
        Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![1e-3, 4e-3, 2e-3, 8e-3],
        ))
    }

    /// Seeded Bernoulli arrivals at `load` packets per tag per slot,
    /// some past the horizon, each with a deadline of up to 60 slots.
    fn sparse_trace(n_tags: usize, n_slots: u64, load: f64, seed: u64) -> Traffic {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trace = (0..n_tags)
            .map(|_| {
                (0..n_slots + 20)
                    .filter_map(|slot| {
                        let deadline_slots = rng.gen_range(0..60u32);
                        (rng.gen::<f64>() < load).then_some(crate::engine::Arrival {
                            slot,
                            deadline_slots,
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        Traffic::Trace(Arc::new(trace))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every single-receiver plan runs through the lockstep loop
        /// exactly as the one-cell reference runner steps it: the same
        /// statistics, per-tag and per-delivery vectors and event trace,
        /// saturated or trace-driven with deadline shedding, with or
        /// without ARQ and rate fallback, under every fault class, with
        /// a capped trace or not, on 1-4 threads.
        #[test]
        fn single_receiver_plan_matches_the_one_cell_runner_bit_for_bit(
            n_tags in 1usize..120,
            n_slots in 40u64..300,
            seed in any::<u64>(),
            traced in any::<bool>(),
            load in 0.002f64..0.06,
            arq in any::<bool>(),
            fault in 0usize..5,
            capped in any::<bool>(),
            threads in 1usize..5,
        ) {
            let window = (n_slots / 4) as u32;
            let faults = match fault {
                0 => FaultSpec::none(),
                1 => FaultSpec::none().with_outages(1, window),
                2 => FaultSpec::none().with_brownouts(2, window, 0.2),
                3 => FaultSpec::none().with_bursts(1, window, 0.05),
                _ => FaultSpec::none().with_resets(6),
            };
            let mut d = Deployment::city(n_tags)
                .slots(n_slots)
                .seed(seed)
                .faults(faults.with_seed(seed ^ 1))
                .record_trace(true)
                .trace_cap(if capped { 40 } else { usize::MAX });
            if traced {
                d = d
                    .traffic(sparse_trace(n_tags, n_slots, load, seed))
                    .drop_expired(true);
            }
            if arq {
                d = d.arq(ArqConfig::default());
            }
            let plan = d.build().expect("valid");
            let oracle = crate::oracle::run_cell(plan.network_config(), &lossy_table());
            let run = plan.into_sim(lossy_table()).run_with_threads(threads);
            let want = format!("{:?}", oracle.stats);
            prop_assert_eq!(&want, &format!("{:?}", run.stats));
            prop_assert_eq!(&want, &format!("{:?}", run.per_domain[0]));
            prop_assert_eq!(&oracle.trace, &run.trace);
        }
    }

    // A one-receiver plan is the one-domain case of the metro synthesis,
    // so every geometry and capture setting reaches it: under heavy
    // contention capture turns collisions into deliveries, and a
    // station, the receiver's centre (as the station hears it) and
    // clustered placement each change what happens.
    #[test]
    fn single_receiver_plan_honours_its_settings() {
        // Packet survival falls off steeply with weaker ambient power
        // and longer range, so moving a tag changes its outcomes.
        let steep = Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![0.08, 0.1, 0.0, 0.02],
        ));
        let run = |d: Deployment| d.build().expect("valid").into_sim(steep.clone()).run();
        let base = Deployment::city(400)
            .slots(200)
            .record_trace(true)
            .receivers(Receiver::grid(1, 1, 40.0));
        let off = run(base.clone());
        assert!(off.stats.collided > 0, "the cell must be contended");
        let captured = run(base.clone().capture(6.0));
        assert!(
            captured.stats.collided < off.stats.collided,
            "capture {} vs none {}",
            captured.stats.collided,
            off.stats.collided
        );
        let station = base.clone().stations([Station::at(10_000.0, 0.0)]);
        let heard = run(station.clone());
        assert_ne!(off.trace, heard.trace, "a station sets the ambient power");
        let moved =
            run(station.receivers([Receiver::at(900.0, -300.0, 40.0 / std::f64::consts::SQRT_2)]));
        assert_ne!(heard.trace, moved.trace, "the centre moves the tags");
        let clustered = run(base.placement(Placement::ClusteredHotspots { spread_ft: 5.0 }));
        assert_ne!(off.trace, clustered.trace, "hotspots move the tags");
    }

    #[test]
    fn sparse_traffic_visits_few_slots_and_matches_serial() {
        let n_slots = 4_000;
        let sim = Deployment::city(400)
            .slots(n_slots)
            .receivers(Receiver::grid(2, 2, 100.0))
            .traffic(sparse_trace(400, n_slots, 1e-4, 7))
            .record_trace(true)
            .build()
            .expect("valid")
            .into_sim(table());
        let obs = fmbs_obs::Collector::new();
        let par = {
            let _g = fmbs_obs::install(Some(obs.clone()));
            sim.run_with_threads(2)
        };
        let visited = obs.counter_value("net.slots_visited");
        assert!(par.stats.delivered > 0, "{:?}", par.stats);
        assert!(visited > 0 && visited < n_slots / 2, "visited {visited}");
        // Without ARQ every collision draws one backoff window.
        assert_eq!(obs.counter_value("net.backoffs"), par.stats.collided);
        let serial = sim.run_serial();
        assert_eq!(par.trace, serial.trace);
        assert_eq!(format!("{:?}", par.stats), format!("{:?}", serial.stats));
    }

    #[test]
    fn metro_partition_is_total_and_covered() {
        let plan = Deployment::city(2000)
            .slots(10)
            .receivers(Receiver::grid(3, 3, 300.0))
            .build()
            .expect("valid");
        let mut seen = vec![false; 2000];
        for dom in plan.domains() {
            for &g in &dom.tags {
                assert!(!seen[g as usize], "tag {g} in two domains");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every tag in exactly one domain");
    }

    #[test]
    fn metro_parallel_matches_serial_bit_for_bit() {
        let sim = Deployment::city(800)
            .slots(120)
            .receivers(Receiver::grid(2, 3, 250.0))
            .capture(6.0)
            .record_trace(true)
            .build()
            .expect("valid")
            .into_sim(table());
        let serial = sim.run_serial();
        let par = sim.run_with_threads(4);
        assert_eq!(serial.trace, par.trace);
        assert_eq!(serial.stats.delivered, par.stats.delivered);
        assert_eq!(serial.stats.attempts, par.stats.attempts);
        assert_eq!(serial.stats.per_tag_delivered, par.stats.per_tag_delivered);
    }

    #[test]
    fn build_rejects_bad_configs_with_typed_errors() {
        assert_eq!(
            Deployment::city(0).build().unwrap_err(),
            DeploymentError::NoTags
        );
        assert_eq!(
            Deployment::city(5).slots(0).build().unwrap_err(),
            DeploymentError::NoSlots
        );
        assert!(matches!(
            Deployment::city(5).capture(f64::NAN).build().unwrap_err(),
            DeploymentError::CaptureMargin { .. }
        ));
        let mut full = BandOccupancy::empty();
        for ch in Channel::all() {
            full.set_occupied(ch, true);
        }
        assert!(matches!(
            Deployment::city(5).occupancy(full).build().unwrap_err(),
            DeploymentError::BandFull { .. }
        ));
        assert!(matches!(
            Deployment::city(5)
                .receivers(Receiver::grid(33, 32, 10.0))
                .build()
                .unwrap_err(),
            DeploymentError::WorkBudget {
                receivers: 1025,
                ..
            }
        ));
        let bad_window = FaultSpec::none().with_outages(1, 10_000);
        assert!(matches!(
            Deployment::city(5)
                .slots(100)
                .faults(bad_window)
                .build()
                .unwrap_err(),
            DeploymentError::FaultWindow { .. }
        ));
    }

    #[test]
    fn build_rejects_degenerate_geometry() {
        let geometry = |d: Deployment| matches!(d.build(), Err(DeploymentError::Geometry { .. }));
        // A zero pitch stacks nine zero-radius cells on one point.
        assert!(geometry(
            Deployment::city(5).receivers(Receiver::grid(3, 3, 0.0))
        ));
        assert!(geometry(Deployment::city(5).receivers([Receiver::at(
            0.0,
            0.0,
            f64::NAN
        )])));
        assert!(geometry(Deployment::city(5).receivers([
            Receiver::at(0.0, 0.0, 10.0),
            Receiver::at(f64::INFINITY, 0.0, 10.0),
        ])));
        assert!(geometry(Deployment::city(5).receivers([
            Receiver::at(5.0, 5.0, 10.0),
            Receiver::at(5.0, 5.0, 20.0),
        ])));
        assert!(geometry(Deployment::city(5).power(f64::NAN)));
        // A station that is not finite, on a 2x2 plan that hears it.
        let good = Station::at(10_000.0, 0.0);
        for st in [
            Station::at(f64::NAN, 0.0),
            Station::at(0.0, f64::INFINITY),
            good.power(f64::INFINITY),
            good.power(f64::NAN),
            good.power(f64::NEG_INFINITY),
        ] {
            let err = Deployment::city(200)
                .stations([good, st])
                .receivers(Receiver::grid(2, 2, 40.0))
                .build()
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, DeploymentError::Geometry { .. }),
                "{st:?}: {err}"
            );
            assert!(err.hint().contains("Station"), "{}", err.hint());
        }
        let err = Deployment::city(5)
            .receivers(Receiver::grid(3, 3, 0.0))
            .build()
            .unwrap_err();
        assert!(err.hint().contains("pitch_ft > 0"), "{}", err.hint());
        assert!(Deployment::city(5)
            .receivers(Receiver::grid(3, 3, 40.0))
            .build()
            .is_ok());
        assert!(Deployment::city(200)
            .stations([good])
            .receivers(Receiver::grid(2, 2, 40.0))
            .build()
            .is_ok());
    }

    fn point(n_tags: u32, mac_slots: u32) -> Scenario {
        use fmbs_audio::program::ProgramKind;
        let mut s = Scenario::bench(-35.0, 12.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
        s.n_tags = n_tags;
        s.mac_slots = mac_slots;
        s
    }

    #[test]
    fn at_reads_the_network_axes() {
        use fmbs_audio::program::ProgramKind;
        let mut s = Scenario::bench(-35.0, 12.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps3_2, 100));
        s.n_tags = 40;
        s.mac_slots = 777;
        let at = Deployment::city(1).at(&s);
        let cfg = at.network_config();
        assert_eq!(cfg.n_tags, 40);
        assert_eq!(cfg.n_slots, 777);
        assert_eq!(cfg.bitrate, Bitrate::Kbps3_2);
        assert_eq!(cfg.mean_power_dbm, -35.0);
        assert_eq!(at.receivers, [Receiver::at(0.0, 0.0, 12.0)]);
    }

    #[test]
    fn at_drops_the_template_geometry() {
        use fmbs_core::harvest::Illumination;
        let harvest = HarvestProfile::Solar(Illumination::Streetlight);
        let faults = FaultSpec::none().with_seed(3).with_bursts(1, 50, 0.05);
        let flat = Deployment::city(1)
            .harvest(harvest)
            .faults(faults.clone())
            .arq(ArqConfig::default())
            .link(table());
        let mut occupancy = city_occupancy(Channel(60), 400_000.0);
        occupancy.set_occupied(Channel(20), true);
        let template = Deployment::city(900)
            .slots(50)
            .host(Channel(60), 400_000.0)
            .occupancy(occupancy)
            .stations([Station::at(3_000.0, 0.0)])
            .receivers(Receiver::grid(2, 2, 100.0))
            .placement(Placement::ClusteredHotspots { spread_ft: 5.0 })
            .capture(3.0)
            .harvest(harvest)
            .faults(faults)
            .arq(ArqConfig::default())
            .link(table());
        let s = point(60, 400);
        let flat_run = flat.at(&s).run_point();
        let template_run = template.at(&s).run_point();
        assert_eq!(
            format!("{:?}", flat_run.stats),
            format!("{:?}", template_run.stats)
        );
        assert_eq!(template_run.per_domain.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid Deployment")]
    fn run_point_panics_on_an_invalid_deployment() {
        let windowed = Deployment::city(1)
            .faults(FaultSpec::none().with_outages(1, 500))
            .link(table());
        windowed.at(&point(8, 100)).run_point();
    }

    /// Tag counts either side of the per-worker floor, or the 10^6 of
    /// the metro acceptance run when `PROPTEST_CASES` is set (as the
    /// `metro_` property tests scale).
    fn metro_setup_tag_counts() -> [usize; 2] {
        if std::env::var_os("PROPTEST_CASES").is_some() {
            [SETUP_TAGS_PER_WORKER - 1, 1_000_000]
        } else {
            [SETUP_TAGS_PER_WORKER - 1, SETUP_TAGS_PER_WORKER + 1]
        }
    }

    /// One domain as the serial reference builds it: tags, sites, rx_dbm.
    type ReferenceDomain = (Vec<u32>, Vec<TagSite>, Vec<f64>);

    /// `peers[d][c]`, as in [`MetroTopology::peers`].
    type Peers = Vec<Vec<Vec<(usize, u16)>>>;

    /// Synthesis as one thread did it tag by tag before
    /// the set-up was split over workers: per-cell vectors grown tag by
    /// tag, the path loss and every hash recomputed per call, channels
    /// found by linear search and the DCO draw recomputed per site. The
    /// reference the chunked synthesis must match bit for bit.
    fn serial_synthesis(d: &Deployment) -> Result<(Vec<ReferenceDomain>, Peers), DeploymentError> {
        use fmbs_core::power::{IcPowerModel, PAPER_OPERATING_POINT};
        let unit = |seed: u64, tag: u64, salt: u64| {
            let h = splitmix64(splitmix64(seed ^ (salt << 48)) ^ tag);
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let (cfg, rx, seed) = (&d.cfg, &d.receivers, d.cfg.seed);
        let urban = fmbs_channel::pathloss::LogDistanceModel::urban_fm();
        let weights: Vec<f64> = rx.iter().map(|r| r.radius_ft * r.radius_ft).collect();
        let total_w: f64 = weights.iter().sum();
        let mut tags_of: Vec<Vec<u32>> = vec![Vec::new(); rx.len()];
        let mut geometry_of: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rx.len()];
        for i in 0..cfg.n_tags {
            let pick = unit(seed, i as u64, 10);
            let cell = match d.placement {
                Placement::UniformDisc => {
                    let (mut acc, target) = (0.0, pick * total_w);
                    let mut chosen = rx.len() - 1;
                    for (c, w) in weights.iter().enumerate() {
                        acc += w;
                        if target < acc {
                            chosen = c;
                            break;
                        }
                    }
                    chosen
                }
                Placement::ClusteredHotspots { .. } => {
                    ((pick * rx.len() as f64) as usize).min(rx.len() - 1)
                }
            };
            let spread = match d.placement {
                Placement::UniformDisc => rx[cell].radius_ft,
                Placement::ClusteredHotspots { spread_ft } => spread_ft.min(rx[cell].radius_ft),
            };
            let rad = spread * unit(seed, i as u64, 11).sqrt();
            let ang = std::f64::consts::TAU * unit(seed, i as u64, 12);
            let px = rx[cell].x_ft + rad * ang.cos();
            let py = rx[cell].y_ft + rad * ang.sin();
            let (nearest, d2) = rx
                .iter()
                .enumerate()
                .map(|(c, r)| {
                    (
                        c,
                        (px - r.x_ft) * (px - r.x_ft) + (py - r.y_ft) * (py - r.y_ft),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap();
            let dist_ft = d2.sqrt();
            if dist_ft > rx[nearest].radius_ft {
                return Err(DeploymentError::UncoveredTag {
                    tag: i as u32,
                    distance_ft: dist_ft,
                    receiver: nearest,
                    radius_ft: rx[nearest].radius_ft,
                });
            }
            let shadow = 8.0 * (unit(seed, i as u64, 13) - 0.5);
            let power_dbm = if d.stations.is_empty() {
                cfg.mean_power_dbm + shadow
            } else {
                d.stations
                    .iter()
                    .map(|st| {
                        let dm = ((px - st.x_ft).hypot(py - st.y_ft) * FT_TO_M).max(1.0);
                        st.power_dbm - urban.path_loss_db(dm).0
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
                    + shadow
            };
            tags_of[nearest].push(i as u32);
            geometry_of[nearest].push((dist_ft.max(1.0), power_dbm));
        }
        let longest = tags_of.iter().map(Vec::len).max().unwrap_or(0);
        let shifts = fmbs_core::mac::assign_f_back(&cfg.occupancy, cfg.host, longest);
        let mut domains = Vec::new();
        let mut keys = Vec::new();
        for (tags, geometry) in tags_of.into_iter().zip(geometry_of) {
            let mut channel_keys: Vec<i64> = Vec::new();
            let sites: Vec<TagSite> = geometry
                .into_iter()
                .zip(&shifts)
                .map(|((distance_ft, power_dbm), shift)| {
                    let f_back_hz = shift.unwrap_or(0.0);
                    let key = f_back_hz as i64;
                    let channel = match channel_keys.iter().position(|&k| k == key) {
                        Some(c) => c,
                        None => {
                            channel_keys.push(key);
                            channel_keys.len() - 1
                        }
                    } as u16;
                    let draw_uw = IcPowerModel {
                        f_back_hz: f_back_hz.abs().max(fmbs_fm::band::FM_CHANNEL_SPACING_HZ),
                        ..PAPER_OPERATING_POINT
                    }
                    .total_uw();
                    let tx_cost_uj = draw_uw * cfg.slot_secs();
                    TagSite {
                        distance_ft,
                        power_dbm,
                        f_back_hz,
                        channel,
                        harvest_uw: cfg.harvest.harvest_uw(fmbs_channel::units::Dbm(power_dbm)),
                        tx_cost_uj,
                        storage_uj: cfg.storage_uj.max(2.0 * tx_cost_uj),
                    }
                })
                .collect();
            let rx_dbm = sites
                .iter()
                .map(|s| {
                    s.power_dbm - free_space_path_loss_db(s.distance_ft * FT_TO_M, urban.f_hz).0
                })
                .collect();
            domains.push((tags, sites, rx_dbm));
            keys.push(channel_keys);
        }
        let mut peers: Peers = keys
            .iter()
            .map(|k| vec![Vec::new(); k.len().max(1)])
            .collect();
        for a in 0..rx.len() {
            for b in 0..rx.len() {
                if a != b && rx[a].overlaps(&rx[b]) {
                    for (ca, key) in keys[a].iter().enumerate() {
                        if let Some(cb) = keys[b].iter().position(|k| k == key) {
                            peers[a][ca].push((b, cb as u16));
                        }
                    }
                }
            }
        }
        Ok((domains, peers))
    }

    fn site_bits(s: &TagSite) -> [u64; 7] {
        [
            s.distance_ft.to_bits(),
            s.power_dbm.to_bits(),
            s.f_back_hz.to_bits(),
            s.channel as u64,
            s.harvest_uw.to_bits(),
            s.tx_cost_uj.to_bits(),
            s.storage_uj.to_bits(),
        ]
    }

    #[test]
    fn metro_setup_chunked_synthesis_matches_the_serial_reference() {
        for n_tags in metro_setup_tag_counts() {
            let acceptance = Deployment::city(n_tags)
                .stations([Station::at(10_000.0, 0.0)])
                .receivers(Receiver::grid(4, 4, 40.0))
                .harvest(HarvestProfile::RfAmbient);
            let hotspots = Deployment::city(n_tags)
                .seed(5)
                .storage(0.5)
                .receivers(Receiver::grid(3, 2, 90.0))
                .placement(Placement::ClusteredHotspots { spread_ft: 20.0 });
            let one_cell = Deployment::city(n_tags)
                .seed(9)
                .stations([Station::at(10_000.0, 0.0)])
                .receivers([Receiver::at(900.0, -300.0, 40.0)]);
            for d in [acceptance, hotspots, one_cell] {
                let (want, want_peers) = serial_synthesis(&d).expect("covered");
                for workers in 1..=4 {
                    let topo = d.synthesize_on(workers).expect("covered");
                    assert_eq!(topo.domains.len(), want.len());
                    for (dom, (tags, sites, rx_dbm)) in topo.domains.iter().zip(&want) {
                        let what = format!("{n_tags} tags on {workers} workers");
                        assert_eq!(&dom.tags, tags, "{what}");
                        assert!(dom
                            .sites
                            .iter()
                            .map(site_bits)
                            .eq(sites.iter().map(site_bits)));
                        assert!(dom
                            .rx_dbm
                            .iter()
                            .map(|p| p.to_bits())
                            .eq(rx_dbm.iter().map(|p| p.to_bits())));
                        assert_eq!(dom.n_channels, want_peers[dom.receiver].len(), "{what}");
                    }
                    assert_eq!(topo.peers, want_peers);
                }
            }
        }
    }

    #[test]
    fn metro_setup_uncovered_tag_is_the_lowest_on_any_worker_count() {
        // A small cell beside a large one: tags of the large disc that
        // land nearer the small receiver lie outside its radius, about 1
        // in 20, so every chunk of tags holds some.
        for n_tags in metro_setup_tag_counts() {
            let d = Deployment::city(n_tags).slots(10).receivers([
                Receiver::at(0.0, 0.0, 100.0),
                Receiver::at(150.0, 0.0, 40.0),
            ]);
            let want = serial_synthesis(&d).map(|_| ()).unwrap_err();
            assert!(
                matches!(want, DeploymentError::UncoveredTag { .. }),
                "{want}"
            );
            for workers in 1..=4 {
                assert_eq!(d.synthesize_on(workers).map(|_| ()).unwrap_err(), want);
            }
            assert_eq!(d.build().map(|_| ()).unwrap_err(), want);
        }
    }

    #[test]
    fn metro_setup_small_deployments_stay_on_one_worker() {
        for n_tags in [0, 1, 128, 100_000, 2 * SETUP_TAGS_PER_WORKER - 1] {
            assert_eq!(setup_workers(n_tags), 1, "{n_tags} tags");
        }
        assert_eq!(setup_workers(1_000_000), fmbs_obs::cores().min(15));
    }

    #[test]
    fn capture_reduces_collisions_under_contention() {
        let base = Deployment::city(600)
            .slots(200)
            .receivers(Receiver::grid(2, 2, 200.0));
        let off = base.clone().build().unwrap().into_sim(table()).run_serial();
        let on = base
            .capture(3.0)
            .build()
            .unwrap()
            .into_sim(table())
            .run_serial();
        assert!(
            on.stats.collision_rate() <= off.stats.collision_rate(),
            "capture on {} vs off {}",
            on.stats.collision_rate(),
            off.stats.collision_rate()
        );
    }
}

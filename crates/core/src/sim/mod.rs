//! End-to-end simulation tiers and the sweep engine.
//!
//! * [`physical`] — RF-rate simulation: real FM multiplex, real square-wave
//!   switch multiplication, real discriminator. Slow (≈ 10⁶ samples per
//!   simulated second) but honest; it validates the multiplication→addition
//!   identity of §3.3 and calibrates the fast tier.
//! * [`fast`] — the audio-domain equivalence the paper derives: the
//!   receiver tuned to `fc + f_back` hears `FM_audio + FM_back` plus FM
//!   post-detection noise set by the link budget. Runs the large BER/PESQ
//!   sweeps (Figs. 7–14, 17) in milliseconds per point.
//! * [`scenario`] — shared experiment descriptions (power, distance,
//!   receiver, programme, motion, workload).
//! * [`metric`] — composable measurements (BER, MRC BER, PESQ, tone SNR,
//!   pilot detection) evaluated against any simulator.
//! * [`sweep`] — the declarative sweep engine: typed axes expand into a
//!   scenario grid executed by parallel workers with deterministic
//!   per-point seeding.
//! * [`cache`] — the sweep engine's content-addressed cache: host-audio
//!   and payload derivations are memoised behind their exact derivation
//!   inputs and shared across worker threads, so grid points stop
//!   regenerating identical programmes and waveforms.
//!
//! Both tiers implement [`Simulator`], the seam everything above the
//! simulators is built on: a scenario fully describes an experiment
//! point (payload synthesis included), and `run` maps it to a shared
//! [`SimOutput`].
//!
//! # Throughput design
//!
//! Six layers keep the sweep hot path fast and bounded without giving
//! up determinism:
//!
//! 1. **Block processing** — [`fast::FastSim::run_payload`] generates
//!    noise, FM clicks and fading gains into contiguous per-block
//!    buffers from purpose-salted RNG streams (one stream per noise
//!    process), so the combining loops are branch-free slice walks and
//!    the per-point draw sequences depend only on the scenario seed —
//!    parallel and serial sweeps stay bit-identical.
//! 2. **FFT convolution** — long real FIRs (the 301-tap capture
//!    filter) route through streaming overlap-save convolution when
//!    `fmbs_dsp::fftconv`'s tap-count × length heuristic says the
//!    transform is cheaper. The physical tier's channel selector never
//!    does: decimating by 10 leaves its 127 taps 13 effective taps per
//!    input sample, far below the crossover, so it is always direct.
//! 3. **Content-addressed caching** — [`sweep::SweepBuilder`] shares one
//!    [`cache::SweepCache`] across its workers; identical host
//!    programmes and payload waveforms are derived once per sweep. The
//!    per-point seeding keeps this deterministic: a point's *noise* seed
//!    is a coordinate hash, while its *programme* seed is shared per
//!    repetition, so cached and uncached runs produce the same figures
//!    bit for bit.
//! 4. **Only the read channel** — every metric decodes a payload from
//!    one receiver channel: L−R for stereo-band payloads, mono
//!    otherwise. The fast tier synthesises only that channel (its
//!    noise draws, combine loop and capture filter) and returns the
//!    other all-zero. Each channel's noise comes from its own salted
//!    stream, so skipping one leaves the other's bits unchanged.
//! 5. **Lockstep accumulators** — the receive-side kernels (the
//!    physical tier's decimating channel filter, the cooperative ×10
//!    upsampler, the FSK/FDM decoder's Goertzel bank) advance several
//!    independent accumulators together, so the CPU overlaps their adds
//!    instead of waiting on each one. Every output still sums the same
//!    terms in the same order from the same zero history, so results
//!    are bit-identical to the one-output-at-a-time loops. The fast
//!    tier's click decay flushes a level below `f64::MIN_POSITIVE` to
//!    zero; such a level adds nothing to a channel sample, and left
//!    alone it sticks on a subnormal that every later sample multiplies.
//! 6. **Bounded memory** — the physical back end
//!    ([`physical::PhysicalSim`]) walks the front end in place, one
//!    10 ms fading block at a time: it scales, fades, sums and adds
//!    noise into one reused block buffer and pushes that block through
//!    each receiver's streaming channel stage (tuner plus decimating
//!    filter carrying a `taps − 1` history), so only the 256 kHz
//!    baseband spans the capture. A front end is the host IQ plus one
//!    switch bit per sample — the ±1 switch rebuilds the backscatter
//!    product exactly — and a cached one lives for one sweep: the cache
//!    drops front ends when the sweep that shares them returns. Each
//!    sample sees the operations of a whole-capture pass in the same
//!    order, so results are bit-identical to one.

pub mod cache;
pub mod fast;
pub mod metric;
pub mod physical;
pub mod scenario;
pub mod sweep;

use fmbs_channel::backscatter_link::LinkBudget;
use scenario::{HostAudio, Scenario, SynthesisedPayload};
use std::sync::{Arc, LazyLock};

/// What any simulation tier produces for one scenario.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The mono audio the receiver outputs (host + payload + noise).
    /// The fast tier synthesises it for mono-band payloads only and
    /// leaves it all-zero for stereo-band ones.
    pub mono: Vec<f64>,
    /// The L−R difference channel (stereo payload path); zeros when the
    /// pilot was not detected. The fast tier synthesises it for
    /// stereo-band payloads only and leaves it all-zero for mono-band
    /// ones, whether or not the pilot was detected.
    pub difference: Vec<f64>,
    /// Whether the pilot was detected (stereo decoding engaged).
    pub pilot_detected: bool,
    /// The link budget at this geometry.
    pub budget: LinkBudget,
    /// Audio sample rate of all audio fields.
    pub sample_rate: f64,
    /// The host programme as generated (pre-noise, pre-filter), shared
    /// with the sweep cache — its mono channel is what a second receiver
    /// tuned to the *host* channel would hear nearly cleanly.
    /// Cooperative backscatter builds its second phone from this.
    pub host: Arc<HostAudio>,
    /// The synthesised workload, shared with the sweep cache: its clean
    /// `reference` at [`Self::sample_rate`] (for PESQ-like scoring;
    /// empty for silence) and its transmitted `bits` (data workloads
    /// only).
    pub payload: Arc<SynthesisedPayload>,
}

/// A *named* simulation tier, selectable at run time (`repro --tier`).
///
/// Every figure sweep takes a `&dyn Simulator`; `Tier` is the small
/// registry mapping the two tier names onto shared simulator instances,
/// so CLI surfaces and calibration harnesses can plug either tier into
/// the same sweep spec. [`Tier::Physical`] resolves to one process-wide
/// [`physical::PhysicalSim`] at the paper's bench configuration — the
/// scenario itself carries the link budget, geometry, `f_back` and
/// seeds, so a single instance serves every sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The audio-domain equivalence tier ([`fast::FastSim`]).
    Fast,
    /// The RF-rate reference tier ([`physical::PhysicalSim`]).
    Physical,
}

impl Tier {
    /// Every tier, fast first.
    pub const ALL: [Tier; 2] = [Tier::Fast, Tier::Physical];

    /// The tier's CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Physical => "physical",
        }
    }

    /// Parses a CLI tier name (case-insensitive).
    pub fn parse(name: &str) -> Option<Tier> {
        Tier::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(name))
    }

    /// The shared simulator instance this tier names.
    pub fn simulator(self) -> &'static dyn Simulator {
        static FAST: fast::FastSim = fast::FastSim;
        static PHYSICAL: LazyLock<physical::PhysicalSim> = LazyLock::new(|| {
            // The construction-time power/distance are placeholders: the
            // `Simulator` impl reads link budget, geometry, `f_back` and
            // seeds from each scenario.
            physical::PhysicalSim::new(physical::PhysicalSimConfig::bench(-30.0, 4.0))
        });
        match self {
            Tier::Fast => &FAST,
            Tier::Physical => &*PHYSICAL,
        }
    }
}

/// A simulation tier: maps a complete [`Scenario`] — including its
/// workload — to a [`SimOutput`].
///
/// `Sync` is a supertrait so sweep workers can share one simulator
/// across threads; both tiers are immutable at run time.
pub trait Simulator: Sync {
    /// A short name for reports ("fast", "physical").
    fn name(&self) -> &'static str;

    /// Runs the scenario end to end. Must be deterministic in the
    /// scenario (same scenario ⇒ same output), which is what lets the
    /// sweep engine execute grids in parallel without changing results.
    fn run(&self, scenario: &Scenario) -> SimOutput;
}

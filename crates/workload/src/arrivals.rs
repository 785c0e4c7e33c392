//! Seeded, deterministic arrival-process generators.
//!
//! A [`TraceSpec`] turns a scenario's traffic axes (`arrival_model`,
//! `offered_load`, `app_profile`) into the per-tag
//! [`ArrivalTrace`] the `fmbs-net` engine replays. Every tag draws from
//! its own private RNG stream — seeded from the run seed and the tag id
//! under [`TRACE_SALT`], a different salt than the engine's contention
//! streams — so a trace depends only on the spec, never on generation
//! order, and same-seed generation is bit-identical.
//!
//! `offered_load` is the target mean *packet* arrivals per tag per MAC
//! slot (per-tag utilisation): load 0.01 means each tag offers 1% of a
//! slot's airtime. The profile's mean message size converts that into a
//! message rate.

use crate::profile::{shape_of, MessageShape};
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario};
use fmbs_net::engine::{Arrival, ArrivalTrace};
use fmbs_net::topology::setup_workers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt separating trace-generation RNG streams from the engine's
/// per-tag contention streams (which use `0xA11CE << 32`).
pub const TRACE_SALT: u64 = 0x70AD << 32;

/// The most arrivals one generation chunk reserves room for up front
/// (2^24, 256 MB); a chunk past it grows as it fills.
const MAX_RESERVED_ARRIVALS: usize = 1 << 24;

/// Peak of [`diurnal_factor`] (its mean over a day is 1).
pub const DIURNAL_PEAK: f64 = 1.8;

/// Rate multiplier of the MMPP quiet state.
pub const MMPP_QUIET_SCALE: f64 = 0.5;
/// Rate multiplier of the MMPP burst state.
pub const MMPP_BURST_SCALE: f64 = 5.0;
/// Mean quiet-state dwell in slots.
pub const MMPP_MEAN_QUIET_SLOTS: f64 = 160.0;
/// Mean burst-state dwell in slots. With the quiet dwell above, the
/// stationary burst fraction is 1/9 and the mean rate works out to
/// exactly the offered load: `(8/9)·0.5 + (1/9)·5.0 = 1`.
pub const MMPP_MEAN_BURST_SLOTS: f64 = 20.0;

/// The day-shaped rate modulation at day-fraction `u` in [0, 1]:
/// a quiet-night / busy-afternoon curve with mean 1 (so the diurnal
/// model preserves the offered load) and peak [`DIURNAL_PEAK`].
pub fn diurnal_factor(u: f64) -> f64 {
    0.2 + 1.6 * (std::f64::consts::PI * u).sin().powi(2)
}

/// Everything that determines a trace. `generate` is a pure function of
/// this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Tags receiving traffic.
    pub n_tags: usize,
    /// Slot horizon; arrivals are only generated inside it. The diurnal
    /// day is compressed onto this horizon.
    pub n_slots: u64,
    /// Slot duration in seconds (converts profile deadlines to slots).
    pub slot_secs: f64,
    /// Which arrival process to run.
    pub model: ArrivalModel,
    /// Target mean packet arrivals per tag per slot.
    pub offered_load: f64,
    /// Message-size and deadline distributions.
    pub profile: AppProfile,
    /// Run seed (shared with the engine run so one scenario seed fixes
    /// both the traffic and the contention outcomes).
    pub seed: u64,
}

impl TraceSpec {
    /// Reads the traffic axes out of a scenario. `slot_secs` comes from
    /// the network config (packet bits over bitrate), which the
    /// scenario does not know.
    pub fn from_scenario(s: &Scenario, slot_secs: f64) -> Self {
        TraceSpec {
            n_tags: s.n_tags.max(1) as usize,
            n_slots: s.mac_slots.max(1) as u64,
            slot_secs,
            model: s.arrival_model,
            offered_load: s.offered_load,
            profile: s.app_profile,
            seed: s.seed,
        }
    }

    /// Generates the trace. Deterministic: same spec, same trace,
    /// bit-for-bit. [`ArrivalModel::Saturated`] has no trace (the
    /// engine's full-buffer mode replaces it) and yields empty queues.
    ///
    /// Tags are generated in contiguous chunks on
    /// [`fmbs_net::topology::setup_workers`] workers. The trace does not
    /// depend on the worker count: every tag draws from its own stream
    /// (`seed ^ TRACE_SALT ^ tag`), and the chunks are joined in tag
    /// order.
    pub fn generate(&self) -> ArrivalTrace {
        self.generate_on(setup_workers(self.n_tags))
    }

    /// [`TraceSpec::generate`] on `workers` workers.
    fn generate_on(&self, workers: usize) -> ArrivalTrace {
        fmbs_obs::span!(fmbs_obs::stages::TRACE_GEN);
        let shape = shape_of(self.profile);
        let msg_rate = self.offered_load.max(0.0) / shape.mean_packets();
        let n = self.n_tags;
        let chunk = n.div_ceil(workers.max(1)).max(1);
        // Tag i's queue ends at start[i + 1]; each chunk counts from its
        // own first arrival until the chunks are joined.
        let mut start = vec![0usize; n + 1];
        // Buffers reserved here: the first chunk's for the whole trace,
        // which it becomes, with the others appended in tag order.
        let mut chunks: Vec<Vec<Arrival>> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let tags = if lo == 0 { n } else { chunk.min(n - lo) };
                Vec::with_capacity(self.expected_arrivals(tags))
            })
            .collect();
        let parts: Vec<_> = start[1..].chunks_mut(chunk).zip(&mut chunks).collect();
        let spawned = parts.len() > 1;
        fmbs_obs::scoped_parts(parts, |k, (ends, out)| {
            // A spawned worker profiles its chunk under the same stage;
            // a lone chunk runs inside the span above.
            let _span = spawned.then(|| fmbs_obs::stage(fmbs_obs::stages::TRACE_GEN));
            for (j, end) in ends.iter_mut().enumerate() {
                self.tag_arrivals(k * chunk + j, &shape, msg_rate, out);
                *end = out.len();
            }
        });
        let mut rest = chunks.into_iter();
        let mut arrivals = rest.next().unwrap_or_default();
        for (ends, out) in start[1..].chunks_mut(chunk).skip(1).zip(rest) {
            let base = arrivals.len();
            ends.iter_mut().for_each(|e| *e += base);
            arrivals.extend_from_slice(&out);
        }
        ArrivalTrace::from_flat(start, arrivals)
    }

    /// A capacity guess for `tags` tags' arrivals: the offered load over
    /// the horizon plus 5%, so a chunk's buffer is rarely regrown.
    fn expected_arrivals(&self, tags: usize) -> usize {
        if self.model == ArrivalModel::Saturated {
            return 0;
        }
        let mean = self.offered_load * self.n_slots as f64 * tags as f64;
        // A NaN load reserves nothing (`NaN as usize` is 0).
        (1.05 * mean).clamp(0.0, MAX_RESERVED_ARRIVALS as f64) as usize + 64
    }

    /// Appends tag `tag`'s arrivals, ascending by slot, to `out`.
    fn tag_arrivals(&self, tag: usize, shape: &MessageShape, rate: f64, out: &mut Vec<Arrival>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ TRACE_SALT ^ tag as u64);
        match self.model {
            ArrivalModel::Saturated => {}
            ArrivalModel::Poisson => self.poisson_tag(&mut rng, shape, rate, out),
            ArrivalModel::Diurnal => self.diurnal_tag(&mut rng, shape, rate, out),
            ArrivalModel::Mmpp => self.mmpp_tag(&mut rng, shape, rate, out),
        }
    }

    /// Expands one message into its packet arrivals (all queued in the
    /// same slot, sharing the message's sampled deadline).
    fn push_message(
        &self,
        rng: &mut StdRng,
        shape: &MessageShape,
        slot: u64,
        out: &mut Vec<Arrival>,
    ) {
        let packets = rng.gen_range(shape.packets_min..=shape.packets_max);
        let deadline_s = rng.gen_range(shape.deadline_min_s..=shape.deadline_max_s);
        let deadline_slots = (deadline_s / self.slot_secs).ceil().max(1.0) as u32;
        for _ in 0..packets {
            out.push(Arrival {
                slot,
                deadline_slots,
            });
        }
    }

    fn poisson_tag(
        &self,
        rng: &mut StdRng,
        shape: &MessageShape,
        rate: f64,
        out: &mut Vec<Arrival>,
    ) {
        if rate <= 0.0 {
            return;
        }
        let mut t = exp_next(rng, rate);
        while (t as u64) < self.n_slots {
            self.push_message(rng, shape, t as u64, out);
            t += exp_next(rng, rate);
        }
    }

    /// Diurnal arrivals by thinning: sample a homogeneous process at
    /// the peak rate and accept each candidate with probability
    /// `diurnal_factor(t) / DIURNAL_PEAK`.
    fn diurnal_tag(
        &self,
        rng: &mut StdRng,
        shape: &MessageShape,
        rate: f64,
        out: &mut Vec<Arrival>,
    ) {
        if rate <= 0.0 {
            return;
        }
        let max_rate = rate * DIURNAL_PEAK;
        let mut t = exp_next(rng, max_rate);
        while (t as u64) < self.n_slots {
            let day_fraction = t / self.n_slots as f64;
            if rng.gen::<f64>() * DIURNAL_PEAK < diurnal_factor(day_fraction) {
                self.push_message(rng, shape, t as u64, out);
            }
            t += exp_next(rng, max_rate);
        }
    }

    /// Two-state Markov-modulated Poisson process. Because exponential
    /// dwell and inter-arrival times are memoryless, re-drawing the
    /// next arrival after a state switch is statistically exact.
    fn mmpp_tag(&self, rng: &mut StdRng, shape: &MessageShape, rate: f64, out: &mut Vec<Arrival>) {
        if rate <= 0.0 {
            return;
        }
        let mut t = 0.0f64;
        let mut burst = false;
        let mut switch_at = exp_next(rng, 1.0 / MMPP_MEAN_QUIET_SLOTS);
        loop {
            let scale = if burst {
                MMPP_BURST_SCALE
            } else {
                MMPP_QUIET_SCALE
            };
            let next = t + exp_next(rng, rate * scale);
            if next < switch_at {
                t = next;
                if (t as u64) >= self.n_slots {
                    break;
                }
                self.push_message(rng, shape, t as u64, out);
            } else {
                t = switch_at;
                if (t as u64) >= self.n_slots {
                    break;
                }
                burst = !burst;
                let dwell = if burst {
                    MMPP_MEAN_BURST_SLOTS
                } else {
                    MMPP_MEAN_QUIET_SLOTS
                };
                switch_at = t + exp_next(rng, 1.0 / dwell);
            }
        }
    }
}

/// One exponential inter-event time at `rate` (events per slot).
fn exp_next(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(model: ArrivalModel, load: f64) -> TraceSpec {
        TraceSpec {
            n_tags: 64,
            n_slots: 4_000,
            slot_secs: 0.16,
            model,
            offered_load: load,
            profile: AppProfile::SensorBeacon,
            seed: 7,
        }
    }

    #[test]
    fn same_spec_generates_bit_identical_traces() {
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Diurnal,
            ArrivalModel::Mmpp,
        ] {
            let a = spec(model, 0.05).generate();
            let b = spec(model, 0.05).generate();
            assert_eq!(a, b);
            let mut other = spec(model, 0.05);
            other.seed ^= 1;
            assert_ne!(a, other.generate(), "{model:?} must react to the seed");
        }
    }

    #[test]
    fn traces_are_sorted_in_horizon_and_deadlined() {
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Diurnal,
            ArrivalModel::Mmpp,
        ] {
            let trace = spec(model, 0.08).generate();
            for queue in trace.queues() {
                assert!(queue.windows(2).all(|w| w[0].slot <= w[1].slot));
                assert!(queue.iter().all(|a| a.slot < 4_000));
                assert!(queue.iter().all(|a| a.deadline_slots >= 1));
            }
        }
    }

    #[test]
    fn all_models_hit_the_offered_load() {
        // 64 tags x 4000 slots x load 0.05 => 12_800 expected packets;
        // every model (diurnal and MMPP have mean-1 modulation) should
        // land within a few percent.
        let expect = 64.0 * 4_000.0 * 0.05;
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Diurnal,
            ArrivalModel::Mmpp,
        ] {
            let got = spec(model, 0.05).generate().offered() as f64;
            assert!(
                (got - expect).abs() < 0.15 * expect,
                "{model:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn diurnal_peaks_midday_and_mmpp_bursts() {
        let diurnal = spec(ArrivalModel::Diurnal, 0.1).generate();
        let (mut edges, mut midday) = (0u64, 0u64);
        for q in diurnal.queues() {
            for a in q {
                if a.slot < 1_000 || a.slot >= 3_000 {
                    edges += 1;
                } else {
                    midday += 1;
                }
            }
        }
        assert!(midday > edges, "midday {midday} vs edges {edges}");

        // MMPP concentrates arrivals: counted per tag in windows at the
        // burst-dwell scale, the count variance beats Poisson's (Fano
        // factor > 1). Per-slot aggregate counts would dilute the
        // effect — tags burst independently.
        let window = MMPP_MEAN_BURST_SLOTS as u64;
        let fano = |trace: &fmbs_net::engine::ArrivalTrace| {
            let bins_per_tag = (4_000 / window) as usize;
            let mut bins = vec![0f64; bins_per_tag * trace.n_tags()];
            for (i, q) in trace.queues().enumerate() {
                for a in q {
                    bins[i * bins_per_tag + (a.slot / window) as usize] += 1.0;
                }
            }
            let mean = bins.iter().sum::<f64>() / bins.len() as f64;
            let var = bins.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins.len() as f64;
            var / mean
        };
        let poisson = spec(ArrivalModel::Poisson, 0.1).generate();
        let mmpp = spec(ArrivalModel::Mmpp, 0.1).generate();
        assert!(
            fano(&mmpp) > 1.5 * fano(&poisson),
            "mmpp {} vs poisson {}",
            fano(&mmpp),
            fano(&poisson)
        );
    }

    #[test]
    fn saturated_and_zero_load_yield_empty_traces() {
        assert_eq!(spec(ArrivalModel::Saturated, 0.5).generate().offered(), 0);
        assert_eq!(spec(ArrivalModel::Poisson, 0.0).generate().offered(), 0);
    }

    /// Tag counts either side of the per-worker floor, or the 10^6 of
    /// the metro acceptance run when `PROPTEST_CASES` is set (as the
    /// `metro_` property tests scale).
    fn metro_setup_tag_counts() -> [usize; 2] {
        use fmbs_net::topology::SETUP_TAGS_PER_WORKER;
        if std::env::var_os("PROPTEST_CASES").is_some() {
            [SETUP_TAGS_PER_WORKER - 1, 1_000_000]
        } else {
            [SETUP_TAGS_PER_WORKER - 1, SETUP_TAGS_PER_WORKER + 1]
        }
    }

    #[test]
    fn metro_setup_chunked_generate_matches_the_serial_per_tag_reference() {
        for n_tags in metro_setup_tag_counts() {
            for model in [
                ArrivalModel::Saturated,
                ArrivalModel::Poisson,
                ArrivalModel::Diurnal,
                ArrivalModel::Mmpp,
            ] {
                let spec = TraceSpec {
                    n_tags,
                    n_slots: 400,
                    model,
                    offered_load: 0.005,
                    profile: AppProfile::TalkingPoster,
                    ..spec(model, 0.0)
                };
                // One queue per tag, each grown on its own, as the trace
                // was built before it became one block.
                let shape = shape_of(spec.profile);
                let rate = spec.offered_load / shape.mean_packets();
                let reference: Vec<Vec<Arrival>> = (0..n_tags)
                    .map(|i| {
                        let mut queue = Vec::new();
                        spec.tag_arrivals(i, &shape, rate, &mut queue);
                        queue
                    })
                    .collect();
                if model != ArrivalModel::Saturated {
                    assert!(reference.iter().any(|q| q.len() > 1), "{model:?}");
                }
                for workers in 1..=4 {
                    let trace = spec.generate_on(workers);
                    assert_eq!(trace.n_tags(), n_tags);
                    assert!(
                        trace.queues().eq(reference.iter().map(Vec::as_slice)),
                        "{model:?}: {n_tags} tags on {workers} workers"
                    );
                }
                assert_eq!(spec.generate(), spec.generate_on(1), "{model:?}");
            }
        }
    }

    #[test]
    fn poster_messages_are_multi_packet() {
        let mut s = spec(ArrivalModel::Poisson, 0.05);
        s.profile = AppProfile::TalkingPoster;
        let trace = s.generate();
        let has_burst = trace
            .queues()
            .any(|q| q.windows(4).any(|w| w.iter().all(|a| a.slot == w[0].slot)));
        assert!(has_burst, "talking-poster messages expand to >= 4 packets");
    }
}

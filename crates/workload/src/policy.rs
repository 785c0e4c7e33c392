//! Admission and duty-cycle policies.
//!
//! A policy decides what a tag does with arriving traffic *before* the
//! MAC sees it. All three are evaluated against the same generated
//! trace, so figure families can compare them point-for-point:
//!
//! * [`Policy::AdmitAll`] — queue everything; the MAC sorts it out.
//! * [`Policy::RateCap`] — a per-tag token bucket sheds arrivals above
//!   a load cap at admission time (a duty-cycle knob: the tag simply
//!   never queues what it has no airtime budget for).
//! * [`Policy::DeadlineAware`] — admit everything, but shed queued
//!   packets whose deadline has already passed instead of transmitting
//!   late data (the engine's `drop_expired` mode).
//!
//! Shed packets are *not* forgotten: they stay in the SLO denominator
//! (`offered_raw`), so a policy cannot game the deadline-miss rate by
//! refusing traffic.

use fmbs_net::engine::ArrivalTrace;

/// What a tag does with arriving traffic before the MAC sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Queue every arrival.
    AdmitAll,
    /// Shed arrivals above a per-tag token-bucket load cap.
    RateCap {
        /// Sustained admitted packets per tag per slot (tokens accrue
        /// at this rate; bucket depth [`RATE_CAP_BURST`]).
        max_load: f64,
    },
    /// Admit everything, shed expired queue heads before transmission.
    DeadlineAware,
}

/// Token-bucket depth of [`Policy::RateCap`] in packets: a whole small
/// message can pass even at low sustained rates.
pub const RATE_CAP_BURST: f64 = 4.0;

/// A policy's admission decision over one trace.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// What the engine should replay.
    pub trace: ArrivalTrace,
    /// Packets the generator offered before admission control.
    pub offered_raw: u64,
    /// Packets shed at admission (RateCap); they still count against
    /// the SLO.
    pub admission_shed: u64,
    /// Whether the engine should run deadline-aware head-of-line
    /// shedding.
    pub drop_expired: bool,
}

impl Policy {
    /// Applies the policy to a generated trace. Deterministic and
    /// RNG-free: admission depends only on the trace itself.
    pub fn apply(&self, trace: ArrivalTrace) -> Admitted {
        let offered_raw = trace.offered();
        match *self {
            Policy::AdmitAll => Admitted {
                trace,
                offered_raw,
                admission_shed: 0,
                drop_expired: false,
            },
            Policy::DeadlineAware => Admitted {
                trace,
                offered_raw,
                admission_shed: 0,
                drop_expired: true,
            },
            Policy::RateCap { max_load } => {
                let mut shed = 0u64;
                let mut start = Vec::with_capacity(trace.n_tags() + 1);
                let mut kept = Vec::with_capacity(trace.offered() as usize);
                start.push(0);
                for queue in trace.queues() {
                    let mut tokens = RATE_CAP_BURST;
                    let mut last_slot = 0u64;
                    for a in queue {
                        tokens =
                            (tokens + (a.slot - last_slot) as f64 * max_load).min(RATE_CAP_BURST);
                        last_slot = a.slot;
                        if tokens >= 1.0 {
                            tokens -= 1.0;
                            kept.push(*a);
                        } else {
                            shed += 1;
                        }
                    }
                    start.push(kept.len());
                }
                Admitted {
                    trace: ArrivalTrace::from_flat(start, kept),
                    offered_raw,
                    admission_shed: shed,
                    drop_expired: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_net::engine::Arrival;

    fn burst(n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|k| Arrival {
                slot: k as u64,
                deadline_slots: 10,
            })
            .collect()
    }

    fn burst_trace(n: usize) -> ArrivalTrace {
        [burst(n)].into_iter().collect()
    }

    #[test]
    fn admit_all_is_identity() {
        let out = Policy::AdmitAll.apply(burst_trace(20));
        assert_eq!(out.trace.offered(), 20);
        assert_eq!(out.offered_raw, 20);
        assert_eq!(out.admission_shed, 0);
        assert!(!out.drop_expired);
    }

    #[test]
    fn deadline_aware_only_flips_the_engine_mode() {
        let out = Policy::DeadlineAware.apply(burst_trace(20));
        assert_eq!(out.trace.offered(), 20);
        assert!(out.drop_expired);
    }

    #[test]
    fn rate_cap_sheds_above_the_bucket() {
        // 20 back-to-back packets against a 0.1/slot cap with a 4-deep
        // bucket: roughly the burst plus one slot of refill survives.
        let out = Policy::RateCap { max_load: 0.1 }.apply(burst_trace(20));
        assert!(out.admission_shed > 10, "{}", out.admission_shed);
        assert_eq!(out.trace.offered() + out.admission_shed, out.offered_raw);
        // A generous cap admits everything.
        let loose = Policy::RateCap { max_load: 2.0 }.apply(burst_trace(20));
        assert_eq!(loose.admission_shed, 0);
    }

    #[test]
    fn rate_cap_conserves_across_many_tags() {
        let trace: ArrivalTrace = (0..8).map(|_| burst(13)).collect();
        let out = Policy::RateCap { max_load: 0.3 }.apply(trace);
        assert_eq!(out.trace.offered() + out.admission_shed, 8 * 13);
    }
}

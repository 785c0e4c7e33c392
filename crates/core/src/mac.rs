//! Multi-device coordination (§8, "Multiple backscatter devices").
//!
//! Two mechanisms from the discussion section:
//!
//! * **Frequency-division** — nearby tags pick different `f_back` values
//!   so their backscatter lands on different unused FM channels
//!   ([`assign_f_back`]).
//! * **Slotted Aloha** — tags sharing one channel transmit in random
//!   slots "similar to the Aloha protocol [25]" ([`SlottedAloha`]).

use fmbs_fm::band::{BandOccupancy, Channel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Assigns each of `n_tags` tags (all riding the host on `host`) a free
/// channel, nearest-first. The first `free_channels()` tags get distinct
/// channels; once tags outnumber free channels, each further tag joins
/// the **least-loaded** free channel (nearest to the host on ties), so
/// every tag gets an `f_back` and channel load stays balanced — the tags
/// sharing a channel then contend with slotted Aloha. Returns `None` per
/// tag only when the *whole band* is occupied and there is no free
/// channel to land on at all.
pub fn assign_f_back(occupancy: &BandOccupancy, host: Channel, n_tags: usize) -> Vec<Option<f64>> {
    let mut free: Vec<Channel> = occupancy.free_channels();
    // Nearest to the host first (smallest |shift| keeps the tag's DCO
    // frequency, and therefore its power, low — see fmbs-core::power).
    free.sort_by(|a, b| {
        let da = host.shift_to_hz(*a).abs();
        let db = host.shift_to_hz(*b).abs();
        da.partial_cmp(&db).unwrap()
    });
    if free.is_empty() {
        return vec![None; n_tags];
    }
    // Least-loaded free channel, ties to the smallest index (nearest to
    // the host). Every load starts at zero, so that is round robin over
    // the nearest-first order: while tags are fewer than free channels
    // it is the distinct nearest-first assignment.
    (0..n_tags)
        .map(|k| Some(host.shift_to_hz(free[k % free.len()])))
        .collect()
}

/// Slotted-Aloha simulation parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SlottedAloha {
    /// Number of contending tags.
    pub n_tags: usize,
    /// Per-slot transmission probability of each tag.
    pub tx_probability: f64,
    /// Number of slots to simulate.
    pub n_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of an Aloha simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlohaOutcome {
    /// Slots with exactly one transmitter (successful).
    pub successes: usize,
    /// Slots with two or more transmitters (collisions).
    pub collisions: usize,
    /// Idle slots.
    pub idle: usize,
}

impl AlohaOutcome {
    /// Normalised throughput: successes per slot.
    pub fn throughput(&self) -> f64 {
        self.successes as f64 / (self.successes + self.collisions + self.idle).max(1) as f64
    }
}

impl SlottedAloha {
    /// Runs the simulation.
    pub fn run(&self) -> AlohaOutcome {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut successes = 0;
        let mut collisions = 0;
        let mut idle = 0;
        for _ in 0..self.n_slots {
            let txs = (0..self.n_tags)
                .filter(|_| rng.gen::<f64>() < self.tx_probability)
                .count();
            match txs {
                0 => idle += 1,
                1 => successes += 1,
                _ => collisions += 1,
            }
        }
        AlohaOutcome {
            successes,
            collisions,
            idle,
        }
    }

    /// Theoretical slotted-Aloha throughput `n·p·(1−p)^{n−1}`.
    pub fn theoretical_throughput(&self) -> f64 {
        let p = self.tx_probability;
        self.n_tags as f64 * p * (1.0 - p).powi(self.n_tags as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignments_are_distinct_and_on_grid() {
        let occ = BandOccupancy::from_channels(&[Channel(17), Channel(20)]);
        let shifts = assign_f_back(&occ, Channel(17), 5);
        let vals: Vec<f64> = shifts.iter().map(|s| s.unwrap()).collect();
        // Distinct.
        for i in 0..vals.len() {
            for j in 0..i {
                assert_ne!(vals[i], vals[j]);
            }
        }
        // Multiples of 200 kHz.
        assert!(vals.iter().all(|v| (v / 200_000.0).fract().abs() < 1e-9));
    }

    #[test]
    fn nearest_channels_first() {
        let occ = BandOccupancy::from_channels(&[Channel(50)]);
        let shifts = assign_f_back(&occ, Channel(50), 2);
        assert_eq!(shifts[0].unwrap().abs(), 200_000.0);
        assert_eq!(shifts[1].unwrap().abs(), 200_000.0);
    }

    #[test]
    fn overloaded_band_shares_least_loaded_channels() {
        // Two free channels, five tags: nobody is left out; the load
        // splits 3/2 with the extra tag on the channel nearest the host.
        let occupied: Vec<Channel> = Channel::all().filter(|c| c.0 != 40 && c.0 != 43).collect();
        let occ = BandOccupancy::from_channels(&occupied);
        let shifts = assign_f_back(&occ, Channel(41), 5);
        assert!(shifts.iter().all(|s| s.is_some()));
        let nearest = shifts
            .iter()
            .filter(|s| s.unwrap() == -200_000.0) // Channel(40)
            .count();
        let farther = shifts
            .iter()
            .filter(|s| s.unwrap() == 400_000.0) // Channel(43)
            .count();
        assert_eq!((nearest, farther), (3, 2));
    }

    #[test]
    fn each_tag_joins_the_least_loaded_channel() {
        let occ = BandOccupancy::from_channels(&[Channel(17), Channel(20), Channel(60)]);
        let mut nearest_first: Vec<f64> = occ
            .free_channels()
            .iter()
            .map(|&c| Channel(17).shift_to_hz(c))
            .collect();
        nearest_first.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
        let shifts = assign_f_back(&occ, Channel(17), 3 * nearest_first.len() + 5);
        let mut load = vec![0usize; nearest_first.len()];
        for s in shifts {
            let (i, _) = load
                .iter()
                .enumerate()
                .min_by_key(|&(i, &l)| (l, i))
                .unwrap();
            load[i] += 1;
            assert_eq!(s.unwrap(), nearest_first[i]);
        }
    }

    #[test]
    fn exhausted_band_yields_none() {
        let all: Vec<Channel> = Channel::all().collect();
        let occ = BandOccupancy::from_channels(&all);
        let shifts = assign_f_back(&occ, Channel(10), 3);
        assert!(shifts.iter().all(|s| s.is_none()));
    }

    #[test]
    fn aloha_matches_theory() {
        let sim = SlottedAloha {
            n_tags: 10,
            tx_probability: 0.1,
            n_slots: 200_000,
            seed: 3,
        };
        let out = sim.run();
        let measured = out.throughput();
        let theory = sim.theoretical_throughput();
        assert!(
            (measured - theory).abs() < 0.01,
            "measured {measured} vs theory {theory}"
        );
        assert_eq!(out.successes + out.collisions + out.idle, 200_000);
    }

    #[test]
    fn optimal_probability_peaks_throughput() {
        // Slotted Aloha peaks at p = 1/n.
        let at = |p: f64| {
            SlottedAloha {
                n_tags: 8,
                tx_probability: p,
                n_slots: 100_000,
                seed: 5,
            }
            .run()
            .throughput()
        };
        let optimal = at(1.0 / 8.0);
        assert!(optimal > at(0.02));
        assert!(optimal > at(0.5));
    }
}

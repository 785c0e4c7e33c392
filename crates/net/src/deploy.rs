//! Per-tag sites: which channel each tag backscatters onto and what
//! powers it, for the tags [`crate::topology::Deployment`] places.
//!
//! A deployment is derived *functionally* from the network seed — tag
//! `i`'s geometry comes from a splitmix hash of `(seed, i)`, never from
//! a shared RNG — so the deployment is identical no matter what order
//! the engine touches tags in.

use crate::engine::NetworkConfig;
use fmbs_channel::units::Dbm;
use fmbs_core::harvest::{rf_harvest_uw, Illumination, SolarCell};
use fmbs_core::power::{IcPowerModel, PAPER_OPERATING_POINT};
use fmbs_core::sim::sweep::splitmix64;
use fmbs_fm::band::{BandOccupancy, Channel, FM_CHANNEL_COUNT, FM_CHANNEL_SPACING_HZ};
use serde::{Deserialize, Serialize};

/// What replenishes a tag's energy store (§8's harvesting discussion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HarvestProfile {
    /// Externally powered: the energy budget never gates transmission.
    Mains,
    /// A poster-corner solar cell under the given illumination.
    Solar(Illumination),
    /// RF rectification of the ambient FM signal at the tag.
    RfAmbient,
}

impl HarvestProfile {
    /// Harvested power in µW for a tag hearing `ambient` dBm.
    pub fn harvest_uw(self, ambient: Dbm) -> f64 {
        match self {
            // Large but finite, so energy arithmetic stays NaN-free.
            HarvestProfile::Mains => 1e12,
            HarvestProfile::Solar(light) => SolarCell::poster_corner().harvest_uw(light),
            HarvestProfile::RfAmbient => rf_harvest_uw(ambient),
        }
    }
}

/// One deployed tag: geometry, channel plan and energy parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TagSite {
    /// Distance to the receiver of the tag's collision domain (its
    /// nearest) in feet, at least 1.
    pub distance_ft: f64,
    /// Ambient FM power at this tag in dBm.
    pub power_dbm: f64,
    /// Assigned backscatter shift in Hz (signed; see
    /// [`fmbs_core::mac::assign_f_back`]).
    pub f_back_hz: f64,
    /// Dense collision-domain index: tags sharing it contend for slots.
    pub channel: u16,
    /// Harvested power in µW.
    pub harvest_uw: f64,
    /// Energy cost of transmitting for one slot, in µJ.
    pub tx_cost_uj: f64,
    /// Energy storage in µJ: the configured store, or twice the packet
    /// cost if that is larger — a tag's capacitor is sized for its own
    /// transmit burst (far-channel tags run a faster, hungrier DCO).
    pub storage_uj: f64,
}

/// Unit-interval samples derived from `(seed, tag, salt)` via the
/// sweep engine's shared SplitMix64 mixer, one stream per
/// `(seed, salt)`: its per-run half is hashed once, here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitDraw(u64);

impl UnitDraw {
    pub(crate) fn new(seed: u64, salt: u64) -> Self {
        UnitDraw(splitmix64(seed ^ (salt << 48)))
    }

    /// Tag `tag`'s sample in [0, 1).
    pub(crate) fn at(self, tag: u64) -> f64 {
        let h = splitmix64(self.0 ^ tag);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A synthetic city band plan: roughly a third of the 100 channels carry
/// a detectable station (hash-picked, fixed — the city does not change
/// with the run seed), the host channel itself is occupied, and every
/// channel within `min_shift_hz` of the host is marked busy so the
/// nearest *assignable* shift is at least the scenario's `f_back`.
pub fn city_occupancy(host: Channel, min_shift_hz: f64) -> BandOccupancy {
    let mut occ = BandOccupancy::empty();
    for ch in Channel::all() {
        let busy = splitmix64(0xC17_1E5 ^ ch.0 as u64) % 100 < 34;
        if busy {
            occ.set_occupied(ch, true);
        }
    }
    occ.set_occupied(host, true);
    let guard = (min_shift_hz.abs() / FM_CHANNEL_SPACING_HZ).ceil() as i32 - 1;
    for k in -guard..=guard {
        let idx = host.0 as i32 + k;
        if (0..FM_CHANNEL_COUNT as i32).contains(&idx) {
            occ.set_occupied(Channel(idx as u8), true);
        }
    }
    occ
}

/// Appends the sites of tags at the given `(distance_ft, power_dbm)`
/// to `sites`, tag `i` on `shifts[i]` (an
/// [`fmbs_core::mac::assign_f_back`] plan at least as long), energy
/// parameters from `cfg`'s harvest profile and the DCO frequency.
/// Returns each dense channel's shift key (`f_back_hz as i64`), by
/// channel id. Pushes only: a `sites` reserved to the tag count is
/// never reallocated.
pub(crate) fn place_into(
    geometry: impl Iterator<Item = (f64, f64)>,
    shifts: &[Option<f64>],
    cfg: &NetworkConfig,
    sites: &mut Vec<TagSite>,
) -> Vec<i64> {
    let slot_secs = cfg.slot_secs();
    // Dense channel ids in order of first appearance, so ids are
    // stable for a given occupancy regardless of tag count; kept as
    // (shift key, id) sorted by key for the lookup.
    let mut channels: Vec<(i64, u16)> = Vec::new();
    for ((distance_ft, power_dbm), shift) in geometry.zip(shifts) {
        let f_back_hz = shift.unwrap_or(0.0);
        let key = f_back_hz as i64;
        let channel = match channels.binary_search_by_key(&key, |c| c.0) {
            Ok(at) => channels[at].1,
            Err(at) => {
                channels.insert(at, (key, channels.len() as u16));
                channels[at].1
            }
        };
        let draw_uw = IcPowerModel {
            f_back_hz: f_back_hz.abs().max(FM_CHANNEL_SPACING_HZ),
            ..PAPER_OPERATING_POINT
        }
        .total_uw();
        let tx_cost_uj = draw_uw * slot_secs;
        sites.push(TagSite {
            distance_ft,
            power_dbm,
            f_back_hz,
            channel,
            harvest_uw: cfg.harvest.harvest_uw(Dbm(power_dbm)),
            tx_cost_uj,
            storage_uj: cfg.storage_uj.max(2.0 * tx_cost_uj),
        });
    }
    let mut keys = vec![0; channels.len()];
    for (key, channel) in channels {
        keys[channel as usize] = key;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CollisionDomain, Deployment, Receiver};

    /// The one domain of a one-receiver plan: `d` in a cell of
    /// `radius_ft` at the origin.
    fn one_domain(d: Deployment, radius_ft: f64) -> CollisionDomain {
        let plan = d
            .receivers([Receiver::at(0.0, 0.0, radius_ft)])
            .build()
            .expect("valid");
        plan.domains()[0].clone()
    }

    #[test]
    fn deployment_is_seed_deterministic() {
        let a = one_domain(Deployment::city(50).seed(7), 20.0);
        let b = one_domain(Deployment::city(50).seed(7), 20.0);
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.distance_ft.to_bits(), y.distance_ft.to_bits());
            assert_eq!(x.power_dbm.to_bits(), y.power_dbm.to_bits());
            assert_eq!(x.channel, y.channel);
        }
    }

    #[test]
    fn sites_stay_on_the_disc_and_in_band() {
        let d = one_domain(
            Deployment::city(200)
                .harvest(HarvestProfile::Solar(Illumination::Shade))
                .seed(3),
            25.0,
        );
        for s in &d.sites {
            assert!(s.distance_ft >= 1.0 && s.distance_ft <= 25.0);
            assert!(s.power_dbm > -45.0 && s.power_dbm < -35.0);
            assert!(s.f_back_hz.abs() >= 600_000.0, "guard ring respected");
            assert!(s.harvest_uw > 0.0);
            assert!(s.tx_cost_uj > 0.0);
        }
        assert!(d.n_channels > 1, "many tags spread over many channels");
    }

    #[test]
    fn city_occupancy_respects_guard_ring() {
        let occ = city_occupancy(Channel(50), 800_000.0);
        for k in -3i32..=3 {
            assert!(occ.is_occupied(Channel((50 + k) as u8)), "k={k}");
        }
        assert!(occ.occupied_count() < FM_CHANNEL_COUNT);
    }
}

//! City-scenario corpus: data-file deployments for campaign runs.
//!
//! A corpus is a directory of `<id>.json` files, each describing one
//! city's FM environment and tag deployment — band occupancy, station
//! powers and positions, receiver-cell geometry, harvest profile, tag
//! placement — in the goldens' canonical JSON form (sorted keys,
//! two-space indent, trailing newline) so the committed bytes
//! re-canonicalize to themselves. [`CityScenario::from_path`]
//! deserializes and *validates* a file: the id must match the filename
//! stem, every channel must exist in the 100-channel FM band, and the
//! scenario must compile through the [`Deployment`] builder's typed
//! checks ([`DeploymentError`]) before a campaign ever runs it.
//!
//! The schema intentionally reuses the topology tier's serde shapes:
//! [`Station`], [`Placement`], [`HarvestProfile`] and
//! [`fmbs_fm::band::Channel`] all serialize exactly as they appear in
//! the files, so there is no second hand-rolled parser to drift.

use crate::deploy::{city_occupancy, HarvestProfile};
use crate::topology::{Deployment, DeploymentError, Placement, Receiver, Station};
use fmbs_fm::band::{BandOccupancy, Channel, FM_CHANNEL_COUNT};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A receiver-cell grid: `nx × ny` cells at `pitch_ft` centre-to-centre
/// spacing, compiled through [`Receiver::grid`] (radius `pitch_ft/√2`,
/// so uniform placement never produces uncovered tags).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReceiverGrid {
    /// Cells east-west.
    pub nx: usize,
    /// Cells north-south.
    pub ny: usize,
    /// Centre-to-centre pitch in feet.
    pub pitch_ft: f64,
}

/// One corpus entry: a named city deployment, as committed on disk.
///
/// Field names match the JSON keys one-to-one; the committed files keep
/// them alphabetical because that is canonical-JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityScenario {
    /// Capture-effect margin in dB (see `Deployment::capture`).
    pub capture_margin_db: f64,
    /// One-line human description (shown in the campaign summary).
    pub description: String,
    /// Tag energy source.
    pub harvest: HarvestProfile,
    /// The FM host channel tags backscatter against.
    pub host_channel: Channel,
    /// Scenario id: must equal the filename stem (the campaign's city
    /// key).
    pub id: String,
    /// Ambient FM power at the tags in dBm (the flat pre-metro model;
    /// `stations` refine it per tag when present).
    pub mean_power_dbm: f64,
    /// Deployed tag count.
    pub n_tags: usize,
    /// Broadcast channels occupied by the city's other stations, on top
    /// of the guard ring the host channel always carries.
    pub occupied_channels: Vec<Channel>,
    /// How tags scatter over the receiver cells.
    pub placement: Placement,
    /// Receiver-cell geometry.
    pub receiver_grid: ReceiverGrid,
    /// Deployment seed: drives tag placement, shadowing and the MAC.
    pub seed: u64,
    /// Simulated horizon in MAC slots.
    pub slots: u64,
    /// FM broadcast stations (position + ERP).
    pub stations: Vec<Station>,
}

/// Everything that can make a corpus file unusable, with enough context
/// to say *which* file and what to fix.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The file could not be read.
    Io {
        /// Path we tried to read.
        path: String,
        /// The underlying I/O error, rendered.
        cause: String,
    },
    /// The file is not a valid `CityScenario` document.
    Parse {
        /// Path that failed to parse.
        path: String,
        /// The parse error, rendered.
        cause: String,
    },
    /// The `id` field disagrees with the filename stem.
    IdMismatch {
        /// Path of the offending file.
        path: String,
        /// The `id` the file claims.
        id: String,
    },
    /// A channel index is outside the 100-channel FM band.
    Channel {
        /// Scenario id.
        id: String,
        /// The offending channel index.
        channel: u8,
    },
    /// The scenario parsed but the deployment builder rejected it.
    Deployment {
        /// Scenario id.
        id: String,
        /// The builder's typed rejection.
        cause: DeploymentError,
    },
    /// The corpus directory holds no scenario files at all.
    Empty {
        /// Directory we scanned.
        dir: String,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, cause } => write!(f, "read {path}: {cause}"),
            CorpusError::Parse { path, cause } => {
                write!(f, "{path} is not a city scenario: {cause}")
            }
            CorpusError::IdMismatch { path, id } => write!(
                f,
                "{path}: id \"{id}\" does not match the filename stem \
                 (rename the file or fix the id)"
            ),
            CorpusError::Channel { id, channel } => write!(
                f,
                "{id}: channel {channel} is outside the FM band \
                 (channels are 0..{FM_CHANNEL_COUNT})"
            ),
            CorpusError::Deployment { id, cause } => {
                write!(
                    f,
                    "{id}: deployment rejected: {cause} (hint: {})",
                    cause.hint()
                )
            }
            CorpusError::Empty { dir } => {
                write!(f, "{dir} holds no *.json city scenarios")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl CityScenario {
    /// Loads and fully validates one corpus file: read → parse →
    /// id == filename stem → channels in band → deployment builds.
    pub fn from_path(path: &Path) -> Result<CityScenario, CorpusError> {
        let display = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| CorpusError::Io {
            path: display.clone(),
            cause: e.to_string(),
        })?;
        let scenario: CityScenario =
            serde_json::from_str(&text).map_err(|e| CorpusError::Parse {
                path: display.clone(),
                cause: e.to_string(),
            })?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if scenario.id != stem {
            return Err(CorpusError::IdMismatch {
                path: display,
                id: scenario.id,
            });
        }
        for ch in scenario
            .occupied_channels
            .iter()
            .chain(std::iter::once(&scenario.host_channel))
        {
            if ch.0 as usize >= FM_CHANNEL_COUNT {
                return Err(CorpusError::Channel {
                    id: scenario.id,
                    channel: ch.0,
                });
            }
        }
        // Probe-build so every committed scenario is known runnable
        // before a campaign spends any simulation time on it.
        if let Err(cause) = scenario.deployment().build() {
            return Err(CorpusError::Deployment {
                id: scenario.id,
                cause,
            });
        }
        Ok(scenario)
    }

    /// Compiles the scenario into a [`Deployment`] builder, capture
    /// margin included. The band occupancy is the host channel's usual
    /// guard ring ([`city_occupancy`]) plus the listed occupied
    /// channels.
    pub fn deployment(&self) -> Deployment {
        self.deployment_with_tags(self.n_tags)
            .capture(self.capture_margin_db)
    }

    /// As [`Self::deployment`] but at an overridden tag count and with
    /// no capture margin applied — campaign figures sweep densities
    /// around the city's deployed count and toggle capture themselves.
    pub fn deployment_with_tags(&self, n_tags: usize) -> Deployment {
        Deployment::city(n_tags)
            .slots(self.slots)
            .seed(self.seed)
            .power(self.mean_power_dbm)
            // `host` regenerates the occupancy, so it must come first.
            .host(self.host_channel, fmbs_core::DEFAULT_F_BACK_HZ)
            .occupancy(self.occupancy())
            .harvest(self.harvest)
            .stations(self.stations.iter().copied())
            .receivers(Receiver::grid(
                self.receiver_grid.nx,
                self.receiver_grid.ny,
                self.receiver_grid.pitch_ft,
            ))
            .placement(self.placement)
    }

    /// The city's band occupancy as the deployment will see it: the
    /// host's guard ring plus the listed occupied channels.
    pub fn occupancy(&self) -> BandOccupancy {
        let mut occupancy = city_occupancy(self.host_channel, fmbs_core::DEFAULT_F_BACK_HZ);
        for ch in &self.occupied_channels {
            occupancy.set_occupied(*ch, true);
        }
        occupancy
    }
}

/// Loads every `*.json` scenario in `dir`, sorted by filename so the
/// campaign's city order is stable across platforms. `README.md` and
/// other non-JSON files are ignored; an empty corpus is an error.
pub fn load_corpus(dir: &Path) -> Result<Vec<CityScenario>, CorpusError> {
    let display = dir.display().to_string();
    let entries = std::fs::read_dir(dir).map_err(|e| CorpusError::Io {
        path: display.clone(),
        cause: e.to_string(),
    })?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CorpusError::Empty { dir: display });
    }
    paths.iter().map(|p| CityScenario::from_path(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_dir() -> std::path::PathBuf {
        std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus"))
    }

    #[test]
    fn committed_corpus_loads_validates_and_builds() {
        let cities = load_corpus(&corpus_dir()).expect("committed corpus must load");
        assert!(
            cities.len() >= 4,
            "campaign needs >= 4 cities, found {}",
            cities.len()
        );
        // Filename order: ids must come back sorted.
        let ids: Vec<&str> = cities.iter().map(|c| c.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        for city in &cities {
            let plan = city.deployment().build().expect("probe already built");
            assert_eq!(plan.network_config().n_tags, city.n_tags);
            assert!(!city.description.is_empty());
        }
    }

    #[test]
    fn scenario_round_trips_through_serde() {
        let cities = load_corpus(&corpus_dir()).unwrap();
        for city in cities {
            let text = serde_json::to_string(&city).unwrap();
            let back: CityScenario = serde_json::from_str(&text).unwrap();
            assert_eq!(back, city);
        }
    }

    #[test]
    fn bad_corpus_files_fail_with_typed_errors() {
        let dir = std::env::temp_dir().join("fmbs_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Unparsable.
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{ not json").unwrap();
        assert!(matches!(
            CityScenario::from_path(&garbled),
            Err(CorpusError::Parse { .. })
        ));
        // Id disagrees with the filename stem.
        let seattle = corpus_dir().join("seattle.json");
        let text = std::fs::read_to_string(&seattle).unwrap();
        let renamed = dir.join("tacoma.json");
        std::fs::write(&renamed, &text).unwrap();
        assert!(matches!(
            CityScenario::from_path(&renamed),
            Err(CorpusError::IdMismatch { .. })
        ));
        // Channel outside the band.
        let out_of_band = dir.join("oob.json");
        std::fs::write(
            &out_of_band,
            text.replace("\"id\": \"seattle\"", "\"id\": \"oob\"")
                .replace("    80\n", "    250\n"),
        )
        .unwrap();
        assert!(matches!(
            CityScenario::from_path(&out_of_band),
            Err(CorpusError::Channel { channel: 250, .. })
        ));
        // Deployment-level rejection (zero tags).
        let empty_city = dir.join("ghost.json");
        std::fs::write(
            &empty_city,
            text.replace("\"id\": \"seattle\"", "\"id\": \"ghost\"")
                .replace("\"n_tags\": 96", "\"n_tags\": 0"),
        )
        .unwrap();
        assert!(matches!(
            CityScenario::from_path(&empty_city),
            Err(CorpusError::Deployment {
                cause: DeploymentError::NoTags,
                ..
            })
        ));
        // A zero receiver pitch stacks every cell on one point.
        let stacked = dir.join("stacked.json");
        std::fs::write(
            &stacked,
            text.replace("\"id\": \"seattle\"", "\"id\": \"stacked\"")
                .replace("\"pitch_ft\": 40.0", "\"pitch_ft\": 0"),
        )
        .unwrap();
        assert!(matches!(
            CityScenario::from_path(&stacked),
            Err(CorpusError::Deployment {
                cause: DeploymentError::Geometry { .. },
                ..
            })
        ));
        // Oversized runs end in a budget error at once instead of
        // synthesising 4·10^9 tags or stepping 2^64 slots.
        for (file, from, to) in [
            (
                "spokane.json",
                "\"slots\": 240",
                "\"slots\": 18446744073709551615",
            ),
            ("boulder.json", "\"n_tags\": 48", "\"n_tags\": 4000000000"),
        ] {
            let text = std::fs::read_to_string(corpus_dir().join(file)).unwrap();
            assert!(text.contains(from), "{file} no longer holds {from}");
            let huge = dir.join(file);
            std::fs::write(&huge, text.replace(from, to)).unwrap();
            let start = std::time::Instant::now();
            let err = CityScenario::from_path(&huge).unwrap_err();
            assert!(
                start.elapsed() < std::time::Duration::from_secs(1),
                "{file}: {:?}",
                start.elapsed()
            );
            assert!(
                matches!(
                    err,
                    CorpusError::Deployment {
                        cause: DeploymentError::WorkBudget { .. },
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(err.to_string().contains(".work_budget("), "{err}");
        }
        // Empty corpus directory.
        let empty_dir = dir.join("empty");
        std::fs::create_dir_all(&empty_dir).unwrap();
        assert!(matches!(
            load_corpus(&empty_dir),
            Err(CorpusError::Empty { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

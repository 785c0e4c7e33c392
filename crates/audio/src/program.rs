//! Programme material by genre — the stand-in for the paper's four local
//! FM stations (§5.2: "news, mixed, pop music, rock music").
//!
//! The genre determines two things the experiments depend on:
//!
//! * **mono-band occupancy** — how much interference the host programme
//!   injects into overlay backscatter (speech has pauses and little energy
//!   above 4 kHz; rock fills the band);
//! * **stereo correlation** — news plays the same speech on both channels
//!   ("the energy in the stereo stream is often low … because the same
//!   human speech signal is played on both the left and right speakers",
//!   §3.3.1), while music carries genuine L−R content. Fig. 5 is the CDF
//!   of exactly this.

use crate::music::{MusicBed, MusicConfig};
use crate::speech::{generate_speech, SpeechConfig};
use serde::{Deserialize, Serialize};

/// The paper's four programme genres plus silence (for the
/// single-tone-host microbenchmarks of §5.1, where the USRP transmits
/// `FM_audio = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgramKind {
    /// News / information: speech, identical on L and R.
    News,
    /// Mixed speech and music.
    Mixed,
    /// Pop music.
    PopMusic,
    /// Rock music.
    RockMusic,
    /// No programme (unmodulated host carrier).
    Silence,
}

impl ProgramKind {
    /// All four broadcast genres of Fig. 5 / §5.2.
    pub const BROADCAST_GENRES: [ProgramKind; 4] = [
        ProgramKind::News,
        ProgramKind::Mixed,
        ProgramKind::PopMusic,
        ProgramKind::RockMusic,
    ];

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ProgramKind::News => "News, information",
            ProgramKind::Mixed => "Mixed",
            ProgramKind::PopMusic => "Pop music",
            ProgramKind::RockMusic => "Rock music",
            ProgramKind::Silence => "Silence",
        }
    }

    /// The music style this genre plays, if any: Pop and Mixed play
    /// pop, Rock plays rock. A [`MusicBed`] of this style is what
    /// [`ProgramGenerator::render`] needs for the genre.
    pub fn music(self, sample_rate: f64) -> Option<MusicConfig> {
        match self {
            ProgramKind::PopMusic | ProgramKind::Mixed => Some(MusicConfig::pop(sample_rate)),
            ProgramKind::RockMusic => Some(MusicConfig::rock(sample_rate)),
            ProgramKind::News | ProgramKind::Silence => None,
        }
    }
}

/// A block of stereo programme audio.
#[derive(Debug, Clone)]
pub struct StereoProgram {
    /// Left channel.
    pub left: Vec<f64>,
    /// Right channel.
    pub right: Vec<f64>,
    /// Sample rate in Hz.
    pub sample_rate: f64,
    /// The genre this was generated as.
    pub kind: ProgramKind,
}

impl StereoProgram {
    /// The mono (L+R)/2 mix.
    pub fn mono(&self) -> Vec<f64> {
        self.left
            .iter()
            .zip(self.right.iter())
            .map(|(l, r)| (l + r) / 2.0)
            .collect()
    }

    /// The stereo difference (L−R)/2.
    pub fn difference(&self) -> Vec<f64> {
        self.left
            .iter()
            .zip(self.right.iter())
            .map(|(l, r)| (l - r) / 2.0)
            .collect()
    }

    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.left.len() as f64 / self.sample_rate
    }
}

/// Deterministic programme generator.
#[derive(Debug, Clone, Copy)]
pub struct ProgramGenerator {
    /// Output sample rate.
    pub sample_rate: f64,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl ProgramGenerator {
    /// Creates a generator.
    pub fn new(sample_rate: f64, seed: u64) -> Self {
        ProgramGenerator { sample_rate, seed }
    }

    /// Generates `seconds` of stereo programme of the given genre.
    pub fn generate(&self, kind: ProgramKind, seconds: f64) -> StereoProgram {
        let n = (self.sample_rate * seconds).round() as usize;
        let bed = kind
            .music(self.sample_rate)
            .map(|cfg| MusicBed::new(cfg, n));
        self.render(kind, n, bed.as_ref())
    }

    /// Renders `n` samples of stereo programme of the given genre, its
    /// music (if any) drawn from `bed`. Many generators can share one
    /// bed: the output equals [`ProgramGenerator::generate`]'s.
    ///
    /// # Panics
    ///
    /// If `bed` is not an `n`-sample bed of `kind.music(sample_rate)`
    /// for a genre with music.
    pub fn render(&self, kind: ProgramKind, n: usize, bed: Option<&MusicBed>) -> StereoProgram {
        let music = |seed: u64| {
            let bed = bed.expect("a music genre needs its music bed");
            assert_eq!(
                Some(bed.config()),
                kind.music(self.sample_rate),
                "wrong music bed"
            );
            assert_eq!(bed.len(), n, "music bed length");
            bed.render(seed)
        };
        let (left, right) = match kind {
            ProgramKind::Silence => (vec![0.0; n], vec![0.0; n]),
            ProgramKind::News => {
                // Same announcer on both channels (mono content in a
                // stereo transmission).
                let s = generate_speech(SpeechConfig::announcer(self.sample_rate), n, self.seed);
                (s.clone(), s)
            }
            ProgramKind::PopMusic | ProgramKind::RockMusic => music(self.seed),
            ProgramKind::Mixed => {
                // Alternate 2 s speech (mono) and 2 s pop (stereo).
                let seg = (2.0 * self.sample_rate) as usize;
                let speech =
                    generate_speech(SpeechConfig::announcer(self.sample_rate), n, self.seed);
                let (mut left, mut right) = music(self.seed.wrapping_add(1));
                for (i, &s) in speech.iter().enumerate() {
                    if (i / seg).is_multiple_of(2) {
                        left[i] = s;
                        right[i] = s;
                    }
                }
                (left, right)
            }
        };
        StereoProgram {
            left,
            right,
            sample_rate: self.sample_rate,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmbs_dsp::stats::{power, rms};

    const FS: f64 = 48_000.0;

    #[test]
    fn news_has_empty_difference_channel() {
        let p = ProgramGenerator::new(FS, 1).generate(ProgramKind::News, 4.0);
        assert_eq!(rms(&p.difference()), 0.0);
        assert!(rms(&p.mono()) > 0.02);
    }

    #[test]
    fn music_fills_difference_channel() {
        let p = ProgramGenerator::new(FS, 1).generate(ProgramKind::RockMusic, 4.0);
        let diff_power = power(&p.difference());
        let mono_power = power(&p.mono());
        assert!(
            diff_power > 0.01 * mono_power,
            "diff {diff_power} vs mono {mono_power}"
        );
    }

    #[test]
    fn genre_stereo_utilisation_ordering() {
        // The Fig. 5 ordering: news ≤ mixed ≤ music in L−R power fraction.
        let gen = ProgramGenerator::new(FS, 3);
        let frac = |k: ProgramKind| {
            let p = gen.generate(k, 6.0);
            power(&p.difference()) / power(&p.mono()).max(1e-12)
        };
        let news = frac(ProgramKind::News);
        let mixed = frac(ProgramKind::Mixed);
        let rock = frac(ProgramKind::RockMusic);
        assert!(news < mixed, "news {news} < mixed {mixed}");
        assert!(mixed < rock, "mixed {mixed} < rock {rock}");
    }

    #[test]
    fn silence_is_silent() {
        let p = ProgramGenerator::new(FS, 1).generate(ProgramKind::Silence, 1.0);
        assert_eq!(rms(&p.left), 0.0);
        assert_eq!(rms(&p.right), 0.0);
    }

    #[test]
    fn duration_and_rates() {
        let p = ProgramGenerator::new(FS, 1).generate(ProgramKind::PopMusic, 2.5);
        assert!((p.duration_s() - 2.5).abs() < 1e-9);
        assert_eq!(p.left.len(), p.right.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ProgramGenerator::new(FS, 5).generate(ProgramKind::Mixed, 1.0);
        let b = ProgramGenerator::new(FS, 5).generate(ProgramKind::Mixed, 1.0);
        assert_eq!(a.left, b.left);
    }

    #[test]
    fn mixed_at_the_largest_seed_wraps_its_music_seed() {
        // Mixed draws its music from `seed + 1`, which must wrap (not
        // overflow) at u64::MAX; the music half then plays seed 0's pop.
        let n = (FS * 3.0) as usize;
        let p = ProgramGenerator::new(FS, u64::MAX).generate(ProgramKind::Mixed, 3.0);
        let pop = ProgramGenerator::new(FS, 0).generate(ProgramKind::PopMusic, 3.0);
        let seg = (2.0 * FS) as usize;
        assert_eq!(p.left.len(), n);
        assert_eq!(p.left[seg..], pop.left[seg..]);
        assert_eq!(p.right[seg..], pop.right[seg..]);
    }

    #[test]
    fn render_from_a_shared_bed_equals_generate() {
        let n = (FS * 2.5) as usize;
        let bed = MusicBed::new(MusicConfig::pop(FS), n);
        for kind in [ProgramKind::Mixed, ProgramKind::PopMusic] {
            for seed in [1, 2] {
                let got = ProgramGenerator::new(FS, seed).render(kind, n, Some(&bed));
                let want = ProgramGenerator::new(FS, seed).generate(kind, 2.5);
                assert_eq!(got.left, want.left, "{kind:?} seed {seed}");
                assert_eq!(got.right, want.right, "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong music bed")]
    fn render_rejects_another_genres_bed() {
        let bed = MusicBed::new(MusicConfig::pop(FS), 100);
        let _ = ProgramGenerator::new(FS, 1).render(ProgramKind::RockMusic, 100, Some(&bed));
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ProgramKind::News.label(), "News, information");
        assert_eq!(ProgramKind::BROADCAST_GENRES.len(), 4);
    }
}

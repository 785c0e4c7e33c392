//! One builder per table/figure of the paper.
//!
//! Each builder reproduces the *workload and measurement* of the
//! corresponding experiment on the simulated substrate. Every swept
//! figure is a declarative [`SweepBuilder`] spec — typed axes over
//! power/distance/rate/genre/motion plus a [`Metric`], or, on the
//! network tier, one [`WorkloadSpec::run`] per point whose stats every
//! series reads — executed in parallel by the sweep engine with
//! deterministic per-point seeding; nothing here hand-rolls a sweep
//! loop. Parameter grids default to slightly coarser versions of the
//! paper's sweeps so the whole set completes in minutes; pass `--full`
//! to the `repro` binary for the dense grids.
//!
//! Every builder has one signature, `fn(&BuildCtx) -> Experiment`: a
//! [`BuildCtx`] carries everything a build can vary (grid density,
//! simulation tier, campaign city, injected fault class), and
//! [`BuildCtx::new`] is the canonical context the goldens record. The
//! [`REGISTRY`] maps experiment ids (`fig8a`, `power`, ...) to their
//! builders, their checks and the axes each builder reads
//! ([`ExperimentSpec::varies`]); `repro`, the campaign runner and
//! external callers go through [`spec_by_id`]/[`REGISTRY`].

use crate::check::{Axis, Dir, Expectation, Select};
use crate::report::{Experiment, Series};
use fmbs_audio::program::ProgramKind;
use fmbs_channel::fading::MotionProfile;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::{Ber, BerMrc, CoopPesq, Metric, Pesq, ToneSnr};
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel, Scenario, Workload};
use fmbs_core::sim::sweep::{SweepBuilder, SweepResults};
use fmbs_core::sim::Tier;
use fmbs_net::prelude::{
    ArqConfig, BerTable, BerTableSpec, CityScenario, Deployment, FaultKind, FaultSpec,
    HarvestProfile, Receiver, Station,
};
use fmbs_survey::drive::DriveSurvey;
use fmbs_survey::occupancy;
use fmbs_survey::stations::City;
use fmbs_survey::stereo_util;
use fmbs_survey::temporal::TemporalSurvey;
use fmbs_workload::prelude::{domain_fairness, Policy, WorkloadSpec, WorkloadStats};
use std::sync::Arc;

/// Grid density selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Coarse but faithful (default).
    Quick,
    /// The paper's dense sweeps.
    Full,
}

impl Grid {
    fn distances_ft(self) -> Vec<f64> {
        match self {
            Grid::Quick => vec![2.0, 6.0, 10.0, 14.0, 18.0],
            Grid::Full => (1..=10).map(|i| 2.0 * i as f64).collect(),
        }
    }

    fn powers_dbm(self) -> Vec<f64> {
        vec![-20.0, -30.0, -40.0, -50.0, -60.0]
    }

    fn data_bits(self) -> usize {
        match self {
            Grid::Quick => 400,
            Grid::Full => 1_600,
        }
    }

    fn audio_secs(self) -> f64 {
        match self {
            Grid::Quick => 2.0,
            Grid::Full => 8.0,
        }
    }

    fn repeats(self) -> usize {
        match self {
            Grid::Quick => 2,
            Grid::Full => 6,
        }
    }
}

/// Everything a figure build can vary. A builder reads the fields its
/// registry row names in [`ExperimentSpec::varies`] and ignores the
/// rest.
#[derive(Debug, Clone, Copy)]
pub struct BuildCtx<'a> {
    /// Grid density.
    pub grid: Grid,
    /// Simulation tier the figure's sweeps run on (`repro --tier`).
    pub tier: Tier,
    /// Corpus city whose environment the figure runs in
    /// (`repro --campaign`); `None` is the flat pre-campaign world.
    pub city: Option<&'a CityScenario>,
    /// The one fault class to inject (`repro --fault`); `None` injects
    /// every class.
    pub fault: Option<FaultKind>,
}

impl BuildCtx<'_> {
    /// The canonical context the goldens record: fast tier, no city,
    /// every fault class.
    pub fn new(grid: Grid) -> Self {
        BuildCtx {
            grid,
            tier: Tier::Fast,
            city: None,
            fault: None,
        }
    }
}

/// A [`BuildCtx`] axis a builder reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vary {
    /// [`BuildCtx::tier`]: the figure sweeps a simulator, so
    /// `repro --tier physical` reruns it on the RF-rate tier.
    Tier,
    /// [`BuildCtx::city`]: the figure depends on a deployment
    /// environment, so the campaign rebuilds it per corpus city.
    City,
    /// [`BuildCtx::fault`]: the figure injects faults, so
    /// `repro --fault` narrows it to one class.
    Fault,
}

/// Tags a figure title with the non-default tier it ran on, so a
/// physical-tier rerun is never mistaken for the fast-tier canonical
/// figure (whose title the golden records).
fn tier_title(tier: Tier, title: &str) -> String {
    match tier {
        Tier::Fast => title.into(),
        Tier::Physical => format!("{title} [physical tier]"),
    }
}

/// Formats sweep results as one series per ambient power, x = distance.
fn series_per_dbm(results: &SweepResults) -> Vec<Series> {
    results
        .series_by(|v| v.scenario.ambient_at_tag.0, |v| v.scenario.distance_ft)
        .into_iter()
        .map(|(p, pts)| Series::new(format!("{p} dBm"), pts))
        .collect()
}

/// Fig. 2a — CDF of FM power across a city.
pub fn fig2a(_ctx: &BuildCtx) -> Experiment {
    let cdf = DriveSurvey::seattle_like().cdf();
    Experiment {
        id: "fig2a".into(),
        title: "Survey of FM radio signals across a major US city".into(),
        x_label: "Power (dBm)".into(),
        y_label: "CDF".into(),
        series: vec![Series::new("city grid cells", cdf.sampled_points(24))],
        paper_expectation:
            "power spans ~-55..-10 dBm; median -35.15 dBm; all cells well above FM sensitivity"
                .into(),
    }
}

/// Fig. 2b — CDF of power at a fixed location over 24 h.
pub fn fig2b(_ctx: &BuildCtx) -> Experiment {
    let cdf = TemporalSurvey::paper_default().cdf();
    Experiment {
        id: "fig2b".into(),
        title: "FM power at a fixed location across 24 hours".into(),
        x_label: "Power (dBm)".into(),
        y_label: "CDF".into(),
        series: vec![Series::new("per-minute samples", cdf.sampled_points(24))],
        paper_expectation: "roughly constant: sigma = 0.7 dB within -35..-30 dBm".into(),
    }
}

/// Fig. 4a — licensed vs detectable stations in five cities.
pub fn fig4a(_ctx: &BuildCtx) -> Experiment {
    let mut licensed = Vec::new();
    let mut detectable = Vec::new();
    for (i, city) in City::ALL.iter().enumerate() {
        let (l, d) = city.station_counts();
        licensed.push((i as f64, l as f64));
        detectable.push((i as f64, d as f64));
    }
    Experiment {
        id: "fig4a".into(),
        title: "Usage of FM channels in US cities (x: SFO, Seattle, Boston, Chicago, LA)".into(),
        x_label: "city index".into(),
        y_label: "station count".into(),
        series: vec![
            Series::new("Licensed", licensed),
            Series::new("Detectable", detectable),
        ],
        paper_expectation:
            "20-70 stations per city; Seattle detects more than licensed (neighbouring markets)"
                .into(),
    }
}

/// Fig. 4b — CDF of the minimum shift frequency to a free channel.
pub fn fig4b(_ctx: &BuildCtx) -> Experiment {
    let series = City::ALL
        .iter()
        .map(|city| {
            let cdf = occupancy::min_shift_cdf(*city);
            let pts = cdf
                .points()
                .into_iter()
                .map(|(x, y)| (x / 1_000.0, y)) // kHz
                .collect();
            Series::new(city.label(), pts)
        })
        .collect();
    Experiment {
        id: "fig4b".into(),
        title: "Minimum frequency shift from licensed stations to a free channel".into(),
        x_label: "Minimum shift frequency (kHz)".into(),
        y_label: "CDF".into(),
        series,
        paper_expectation: "median 200 kHz; worst case under ~800 kHz".into(),
    }
}

/// Fig. 5 — CDF of stereo-band power over guard-band power, per genre.
pub fn fig5(ctx: &BuildCtx) -> Experiment {
    let windows = match ctx.grid {
        Grid::Quick => 8,
        Grid::Full => 24,
    };
    let kinds = ProgramKind::BROADCAST_GENRES;
    let series = kinds
        .iter()
        .zip(stereo_util::stereo_utilisation_cdfs(&kinds, windows, 17))
        .map(|(kind, cdf)| Series::new(kind.label(), cdf.points()))
        .collect();
    Experiment {
        id: "fig5".into(),
        title: "Signal power broadcast in the stereo band of FM stations".into(),
        x_label: "P_stereo/P_guard (dB)".into(),
        y_label: "CDF".into(),
        series,
        paper_expectation: "news/talk lowest (same speech on L/R); music genres highest".into(),
    }
}

/// Fig. 6 — receiver SNR versus backscattered tone frequency.
pub fn fig6(ctx: &BuildCtx) -> Experiment {
    let freqs: Vec<f64> = match ctx.grid {
        Grid::Quick => vec![
            500.0, 1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 13_000.0,
            14_000.0, 15_000.0,
        ],
        Grid::Full => (1..=30).map(|i| 500.0 * i as f64).collect(),
    };
    let secs = ctx.grid.audio_secs().min(2.0);
    let base = Scenario::bench(-20.0, 4.0, ProgramKind::Silence);
    let band = |stereo_band: bool| {
        let workload = Workload::Tone {
            freq_hz: 1_000.0,
            secs,
            amp: 0.9,
            stereo_band,
        };
        SweepBuilder::new(base.with_workload(workload))
            .tone_freqs_hz(freqs.iter().copied())
            .repeats(ctx.grid.repeats())
            .run(ctx.tier.simulator(), &ToneSnr::default())
            .series(|v| match v.scenario.workload {
                Workload::Tone { freq_hz, .. } => freq_hz / 1_000.0,
                _ => unreachable!(),
            })
    };
    Experiment {
        id: "fig6".into(),
        title: tier_title(
            ctx.tier,
            "Received SNR vs backscattered audio frequency (Moto G1 model)",
        ),
        x_label: "frequency (kHz)".into(),
        y_label: "SNR (dB)".into(),
        series: vec![
            Series::new("Mono band", band(false)),
            Series::new("Stereo band", band(true)),
        ],
        paper_expectation: "good response below 13 kHz, sharp drop after (capture chain)".into(),
    }
}

/// Fig. 7 — SNR versus power and distance (1 kHz tone).
pub fn fig7(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-20.0, 4.0, ProgramKind::Silence)
        .with_workload(Workload::tone(1_000.0, 0.5));
    let results = SweepBuilder::new(base)
        .powers_dbm(ctx.grid.powers_dbm())
        .distances_ft(ctx.grid.distances_ft())
        .repeats(ctx.grid.repeats())
        .run(ctx.tier.simulator(), &ToneSnr::default());
    Experiment {
        id: "fig7".into(),
        title: tier_title(ctx.tier, "SNR vs receiving power and distance"),
        x_label: "distance (ft)".into(),
        y_label: "SNR (dB)".into(),
        series: series_per_dbm(&results),
        paper_expectation: "20 ft reach at -30 dBm (SNR > 20 dB); usable close-in even at -50 dBm"
            .into(),
    }
}

/// Fig. 8a/b/c — BER of overlay backscatter at 100 bps, 1.6 kbps and
/// 3.2 kbps.
fn fig8(ctx: &BuildCtx, bitrate: Bitrate) -> Experiment {
    let id = match bitrate {
        Bitrate::Bps100 => "fig8a",
        Bitrate::Kbps1_6 => "fig8b",
        Bitrate::Kbps3_2 => "fig8c",
    };
    // Average over genre hosts and repeats, as the paper loops four
    // station clips.
    let base = Scenario::bench(-20.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(bitrate, ctx.grid.data_bits()));
    let results = SweepBuilder::new(base)
        .powers_dbm(ctx.grid.powers_dbm())
        .distances_ft(ctx.grid.distances_ft())
        .programs([ProgramKind::News, ProgramKind::RockMusic])
        .repeats(ctx.grid.repeats())
        .run(ctx.tier.simulator(), &Ber::default());
    Experiment {
        id: id.into(),
        title: tier_title(
            ctx.tier,
            &format!("BER with overlay backscatter — {}", bitrate.label()),
        ),
        x_label: "distance (ft)".into(),
        y_label: "Bit-error rate".into(),
        series: series_per_dbm(&results),
        paper_expectation: match bitrate {
            Bitrate::Bps100 => {
                "near zero to 6 ft at all powers (-20..-60 dBm); >12 ft above -60 dBm".into()
            }
            Bitrate::Kbps1_6 => "low to 16 ft above -40 dBm; 3-6 ft at -60/-50 dBm".into(),
            Bitrate::Kbps3_2 => "works above -40 dBm; fails at -50/-60 dBm".into(),
        },
    }
}

/// Fig. 9 — BER with maximal-ratio combining (1.6 kbps).
///
/// The paper runs this at −40 dBm, where its errors come from the looped
/// *off-air* station audio interfering with the FDM tones. Our synthetic
/// programme generators are spectrally cleaner than real broadcasts, so
/// at −40 dBm the substrate produces no errors to combine away; the MRC
/// mechanism is therefore exercised in the noise/click-limited regime at
/// −60 dBm, where repetitions see independent impairments exactly as
/// §3.4 assumes. Documented in EXPERIMENTS.md.
pub fn fig9(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-60.0, 8.0, ProgramKind::RockMusic).with_workload(Workload::data(
        Bitrate::Kbps1_6,
        ctx.grid.data_bits().max(800),
    ));
    // MRC depth is a typed sweep axis: one grid, one engine run, four
    // series (the metric reads each point's `mrc_depth`).
    let results = SweepBuilder::new(base)
        .distances_ft([8.0, 10.0, 12.0, 13.0, 14.0])
        .mrc_depths([1, 2, 3, 4])
        .repeats(ctx.grid.repeats())
        .run(ctx.tier.simulator(), &BerMrc::from_scenario());
    let series = results
        .series_by(|v| v.scenario.mrc_depth, |v| v.scenario.distance_ft)
        .into_iter()
        .map(|(n, pts)| {
            let label = if n == 1 {
                "No MRC".to_string()
            } else {
                format!("{n}x MRC")
            };
            Series::new(label, pts)
        })
        .collect();
    Experiment {
        id: "fig9".into(),
        title: tier_title(
            ctx.tier,
            "BER with MRC (overlay, 1.6 kbps, -60 dBm; see EXPERIMENTS.md)",
        ),
        x_label: "distance (ft)".into(),
        y_label: "Bit-error rate".into(),
        series,
        paper_expectation: "2x combining already reduces BER significantly".into(),
    }
}

/// Fig. 10 — overlay vs stereo backscatter BER at −30 dBm.
pub fn fig10(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-30.0, 1.0, ProgramKind::News);
    let mut series = Vec::new();
    for bitrate in [Bitrate::Kbps1_6, Bitrate::Kbps3_2] {
        let rate = if bitrate == Bitrate::Kbps1_6 {
            "1.6kbps"
        } else {
            "3.2kbps"
        };
        for (mode, workload) in [
            ("Overlay", Workload::data(bitrate, ctx.grid.data_bits())),
            (
                "Stereo",
                Workload::stereo_data(bitrate, ctx.grid.data_bits()),
            ),
        ] {
            let results = SweepBuilder::new(base.with_workload(workload))
                .distances_ft([1.0, 2.0, 3.0, 4.0])
                .repeats(ctx.grid.repeats())
                .run(ctx.tier.simulator(), &Ber::default());
            series.push(Series::new(
                format!("{mode}  {rate}"),
                results.series(|v| v.scenario.distance_ft),
            ));
        }
    }
    Experiment {
        id: "fig10".into(),
        title: tier_title(ctx.tier, "BER: overlay vs stereo backscatter (-30 dBm)"),
        x_label: "distance (ft)".into(),
        y_label: "Bit-error rate".into(),
        series,
        paper_expectation: "stereo backscatter significantly lowers BER vs overlay".into(),
    }
}

/// Fig. 11 — PESQ of overlay audio backscatter.
pub fn fig11(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-20.0, 2.0, ProgramKind::News)
        .with_workload(Workload::speech(ctx.grid.audio_secs()));
    let results = SweepBuilder::new(base)
        .powers_dbm(ctx.grid.powers_dbm())
        .distances_ft(ctx.grid.distances_ft())
        .run(ctx.tier.simulator(), &Pesq::default());
    Experiment {
        id: "fig11".into(),
        title: tier_title(ctx.tier, "PESQ with overlay backscatter"),
        x_label: "distance (ft)".into(),
        y_label: "PESQ score".into(),
        series: series_per_dbm(&results),
        paper_expectation: "consistently ~2 for -20..-40 dBm up to 20 ft; -50 dBm good to 12 ft"
            .into(),
    }
}

/// Fig. 12 — PESQ of cooperative backscatter.
pub fn fig12(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-20.0, 2.0, ProgramKind::News)
        .with_workload(Workload::coop_audio(ctx.grid.audio_secs()));
    let results = SweepBuilder::new(base)
        .powers_dbm([-20.0, -30.0, -40.0, -50.0])
        .distances_ft(ctx.grid.distances_ft())
        .run(ctx.tier.simulator(), &CoopPesq::default());
    Experiment {
        id: "fig12".into(),
        title: tier_title(
            ctx.tier,
            "PESQ with cooperative backscatter (two-phone cancellation)",
        ),
        x_label: "distance (ft)".into(),
        y_label: "PESQ score".into(),
        series: series_per_dbm(&results),
        paper_expectation: "around 4 for -20..-50 dBm (cancellation removes the programme)".into(),
    }
}

/// Fig. 13a/b — PESQ of stereo backscatter on a stereo news station,
/// and on a mono station its pilot converts to stereo.
fn fig13(ctx: &BuildCtx, id: &str, title: &str) -> Experiment {
    // Both host situations share the pipeline: a news host's L−R is
    // nearly empty, and a mono host contributes nothing to L−R once the
    // tag's pilot flips the receiver to stereo (§5.3).
    let base = Scenario::bench(-20.0, 2.0, ProgramKind::News)
        .with_workload(Workload::stereo_speech(ctx.grid.audio_secs()));
    let results = SweepBuilder::new(base)
        .powers_dbm([-20.0, -30.0, -40.0])
        .distances_ft(ctx.grid.distances_ft())
        .run(ctx.tier.simulator(), &Pesq::default());
    Experiment {
        id: id.into(),
        title: tier_title(ctx.tier, title),
        x_label: "distance (ft)".into(),
        y_label: "PESQ score".into(),
        series: series_per_dbm(&results),
        paper_expectation:
            "beats overlay at high power; needs strong signal (pilot detect); mono host cleanest"
                .into(),
    }
}

/// Fig. 14 — car receiver: SNR (a) and PESQ (b) versus range.
pub fn fig14(ctx: &BuildCtx) -> Experiment {
    let distances = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
    let powers = [-20.0, -30.0];
    let snr = SweepBuilder::new(
        Scenario::car(-20.0, 20.0, ProgramKind::Silence)
            .with_workload(Workload::tone(1_000.0, 0.5)),
    )
    .powers_dbm(powers)
    .distances_ft(distances)
    .repeats(ctx.grid.repeats())
    .run(ctx.tier.simulator(), &ToneSnr::default());
    let pesq = SweepBuilder::new(
        Scenario::car(-20.0, 20.0, ProgramKind::News)
            .with_workload(Workload::speech(ctx.grid.audio_secs())),
    )
    .powers_dbm(powers)
    .distances_ft(distances)
    .repeats(ctx.grid.repeats())
    .run(ctx.tier.simulator(), &Pesq::default());
    // Interleave as the paper's panel order: SNR then PESQ per power.
    let mut series = Vec::new();
    for &p in &powers {
        for (tag, results) in [("SNR", &snr), ("PESQ", &pesq)] {
            let pts = results
                .series_by(|v| v.scenario.ambient_at_tag.0, |v| v.scenario.distance_ft)
                .into_iter()
                .find(|(k, _)| *k == p)
                .map(|(_, pts)| pts)
                .unwrap_or_default();
            series.push(Series::new(format!("{tag} {p} dBm"), pts));
        }
    }
    Experiment {
        id: "fig14".into(),
        title: tier_title(ctx.tier, "Overlay backscatter into a car receiver"),
        x_label: "distance (ft)".into(),
        y_label: "SNR (dB) / PESQ".into(),
        series,
        paper_expectation: "works well up to 60 ft at -20/-30 dBm (car antenna advantage)".into(),
    }
}

/// Fig. 17b — smart-fabric BER across mobility.
pub fn fig17(ctx: &BuildCtx) -> Experiment {
    let motions = [
        MotionProfile::Standing,
        MotionProfile::Walking,
        MotionProfile::Running,
    ];
    let base = Scenario::fabric(MotionProfile::Standing);
    let run = |workload: Workload, metric: &dyn Metric| {
        SweepBuilder::new(base.with_workload(workload))
            .motions(motions)
            .repeats(ctx.grid.repeats().max(2))
            .run(ctx.tier.simulator(), metric)
            .series(|v| v.coords.motion as f64)
    };
    let s100 = run(
        Workload::data(Bitrate::Bps100, ctx.grid.data_bits().min(300)),
        &Ber::default(),
    );
    // The paper reports 1.6 kbps *with 2x MRC* for the shirt.
    let s1600 = run(
        Workload::data(Bitrate::Kbps1_6, ctx.grid.data_bits()),
        &BerMrc::new(2),
    );
    Experiment {
        id: "fig17b".into(),
        title: tier_title(ctx.tier, "Smart fabric BER (x: standing, walking, running)"),
        x_label: "motion index".into(),
        y_label: "Bit-error rate".into(),
        series: vec![
            Series::new("100bps", s100),
            Series::new("1.6kbps w/ 2x MRC", s1600),
        ],
        paper_expectation:
            "100 bps < 0.005 even running; 1.6 kbps+2xMRC ~0.02 standing, rising with motion".into(),
    }
}

/// §4's power table and §2's battery-life comparison.
pub fn power_table(_ctx: &BuildCtx) -> Experiment {
    use fmbs_core::power::{comparisons, IcPowerModel, PAPER_OPERATING_POINT};
    let b = PAPER_OPERATING_POINT.breakdown();
    let series = vec![
        Series::new(
            "IC power (uW): baseband, modulator, switch, total",
            vec![
                (0.0, b.baseband_uw),
                (1.0, b.modulator_uw),
                (2.0, b.switch_uw),
                (3.0, b.total_uw()),
            ],
        ),
        Series::new(
            "battery life (hours on 225 mAh): FM chip vs backscatter",
            vec![
                (
                    0.0,
                    fmbs_core::power::battery_life_hours(
                        comparisons::COIN_CELL_MAH,
                        comparisons::FM_CHIP_TX_MA,
                    ),
                ),
                (
                    1.0,
                    fmbs_core::power::battery_life_hours(
                        comparisons::COIN_CELL_MAH,
                        fmbs_core::power::current_ma(PAPER_OPERATING_POINT.total_uw(), 1.0),
                    ),
                ),
            ],
        ),
        Series::new(
            "power vs f_back (kHz -> uW)",
            [200.0, 400.0, 600.0, 800.0]
                .iter()
                .map(|&f| {
                    let m = IcPowerModel {
                        f_back_hz: f * 1_000.0,
                        ..PAPER_OPERATING_POINT
                    };
                    (f, m.total_uw())
                })
                .collect(),
        ),
    ];
    Experiment {
        id: "power".into(),
        title: "IC power model (TSMC 65 nm) and battery-life economics".into(),
        x_label: "item".into(),
        y_label: "uW / hours".into(),
        series,
        paper_expectation:
            "1.0 + 9.94 + 0.13 = 11.07 uW; FM chip <12 h on a coin cell vs ~3 years backscatter"
                .into(),
    }
}

/// §3.4's rate ceiling: BER versus symbol rate at a fixed good link.
pub fn rates_table(ctx: &BuildCtx) -> Experiment {
    let base = Scenario::bench(-50.0, 10.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Bps100, ctx.grid.data_bits()));
    let results = SweepBuilder::new(base)
        .bitrates(Bitrate::ALL.iter().copied())
        .repeats(ctx.grid.repeats())
        .run(ctx.tier.simulator(), &Ber::default());
    let pts = results.series(|v| match v.scenario.workload {
        Workload::Data { bitrate, .. } => bitrate.symbol_rate(),
        _ => unreachable!(),
    });
    Experiment {
        id: "rates".into(),
        title: tier_title(ctx.tier, "BER vs symbol rate at -50 dBm / 10 ft"),
        x_label: "symbols per second".into(),
        y_label: "Bit-error rate".into(),
        series: vec![Series::new("overlay", pts)],
        paper_expectation: "degrades significantly above 400 sym/s; 3.2 kbps is the ceiling".into(),
    }
}

/// Ablation (DESIGN.md): the square-wave subcarrier approximation versus
/// an ideal cosine and the four-state SSB switch, through the *physical*
/// simulator. Reports the received 1 kHz tone SNR and the image-sideband
/// leakage for each switch architecture.
pub fn ablation(_ctx: &BuildCtx) -> Experiment {
    use fmbs_core::sim::physical::{PhysicalSim, PhysicalSimConfig};
    use fmbs_core::tag::{Tag, TagConfig};
    use fmbs_dsp::complex::Complex;

    // (a) Audio SNR through the full physical chain, square switch, at a
    //     noise-limited point — the physical tier driven through the same
    //     Simulator/Metric seam as the fast tier.
    let sim = PhysicalSim::new(PhysicalSimConfig::bench(-50.0, 10.0));
    let scenario = Scenario::bench(-50.0, 10.0, ProgramKind::Silence)
        .with_workload(Workload::tone(1_000.0, 0.3));
    let square_snr = ToneSnr {
        skip_fraction: 1.0 / 3.0,
        ..ToneSnr::default()
    }
    .evaluate(&sim, &scenario);

    // (b) Sideband structure per switch architecture (tone carrier).
    fmbs_obs::span!(fmbs_obs::stages::SWITCH_SIDEBANDS);
    let fs = 2_560_000.0;
    let n = 1 << 16;
    let incident = vec![Complex::ONE; n];
    let flat = vec![0.0; n];
    let fft = fmbs_dsp::fft::Fft::new(n);
    let sideband_powers = |iq: Vec<Complex>| -> (f64, f64) {
        let mut buf = iq;
        fft.forward(&mut buf);
        let bin = fs / n as f64;
        let grab = |f: f64| {
            let k = ((f / bin).round() as isize).rem_euclid(n as isize) as usize;
            (k.saturating_sub(2)..(k + 3).min(n))
                .map(|i| buf[i].norm_sqr())
                .sum::<f64>()
                / (n as f64 * n as f64)
        };
        (grab(600_000.0), grab(-600_000.0))
    };
    let cfg = TagConfig {
        f_back_hz: 600_000.0,
        deviation_hz: 75_000.0,
        sample_rate: fs,
    };
    let (sq_up, sq_img) = sideband_powers(Tag::new(cfg).backscatter(&incident, &flat));
    let (cos_up, cos_img) = sideband_powers(Tag::new(cfg).backscatter_cosine(&incident, &flat));
    let (ssb_up, ssb_img) = sideband_powers(Tag::new(cfg).backscatter_ssb(&incident, &flat));
    let db = |p: f64| 10.0 * p.max(1e-30).log10();

    Experiment {
        id: "ablation".into(),
        title: "Switch-architecture ablation: square vs cosine vs SSB".into(),
        x_label: "0=square 1=cosine 2=ssb".into(),
        y_label: "dB".into(),
        series: vec![
            Series::new(
                "upper sideband power (dBc)",
                vec![(0.0, db(sq_up)), (1.0, db(cos_up)), (2.0, db(ssb_up))],
            ),
            Series::new(
                "image sideband power (dBc)",
                vec![(0.0, db(sq_img)), (1.0, db(cos_img)), (2.0, db(ssb_img))],
            ),
            Series::new(
                "physical-chain 1 kHz tone SNR, square switch (dB)",
                vec![(0.0, square_snr)],
            ),
        ],
        paper_expectation:
            "square fundamental ~-3.9 dBc per sideband; SSB suppresses the image (footnote 2)"
                .into(),
    }
}

/// The flat figures' deployment: [`Deployment::at`] places it at every
/// grid point, so build-time validation (band, geometry, ARQ, fault
/// windows) fronts each point, and density, horizon, radius, ambient
/// power, guard ring and seed all come from the point's scenario. A
/// campaign city contributes exactly one field here, its harvest
/// profile; its ambient power and seed arrive through [`bench_base`],
/// and its band plan and geometry do not reach the flat figures.
/// `None` is the flat pre-campaign world (mains power).
fn deployed_in(table: &Arc<BerTable>, city: Option<&CityScenario>) -> Deployment {
    let flat = Deployment::city(1).link(table.clone());
    match city {
        Some(c) => flat.harvest(c.harvest),
        None => flat,
    }
}

/// The flat figures' base scenario, city-adjusted: a campaign city
/// supplies the ambient FM power at the tags and the deployment seed
/// every per-point seed derives from.
fn bench_base(city: Option<&CityScenario>) -> Scenario {
    let s = Scenario::bench(
        city.map_or(-40.0, |c| c.mean_power_dbm),
        16.0,
        ProgramKind::News,
    )
    .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
    match city {
        Some(c) => s.with_seed(c.seed),
        None => s,
    }
}

/// The link table every network-tier figure runs over, calibrated from
/// the fast physics tier at the grid's density.
fn link_table(grid: Grid) -> Arc<BerTable> {
    let table_spec = match grid {
        Grid::Quick => BerTableSpec::quick(),
        Grid::Full => BerTableSpec::dense(),
    };
    Arc::new(BerTable::calibrate(&FastSim, &table_spec))
}

/// §8 at deployment scale — aggregate goodput and collision rate versus
/// tag density, simulated on the `fmbs-net` network tier over a link
/// abstraction calibrated from the fast physics tier. A campaign city
/// supplies the ambient power, seed and harvest profile.
pub fn network_capacity(ctx: &BuildCtx) -> Experiment {
    let (grid, city) = (ctx.grid, ctx.city);
    let table = link_table(grid);
    let n_tags: Vec<u32> = match grid {
        Grid::Quick => vec![2, 8, 32, 128, 512],
        Grid::Full => vec![2, 8, 32, 128, 512, 2_048, 8_192],
    };
    let frames: [u32; 2] = match grid {
        Grid::Quick => [256, 1_024],
        Grid::Full => [1_024, 4_096],
    };
    let base = bench_base(city);
    // The collision sweep declares one frame at axis index 0, so its
    // point seeds differ from the goodput sweep's: three sweeps, not a
    // shared one.
    let sweep = |frames: &[u32], spec: WorkloadSpec| {
        SweepBuilder::new(base)
            .n_tags(n_tags.iter().copied())
            .mac_slot_counts(frames.iter().copied())
            .evaluate(|s| spec.run(s))
    };

    let goodput = sweep(&frames, WorkloadSpec::new(deployed_in(&table, city)));
    let mut series: Vec<Series> = goodput
        .project(|w| w.net.goodput_bps())
        .series_by(|v| v.scenario.mac_slots, |v| v.scenario.n_tags as f64)
        .into_iter()
        .map(|(slots, pts)| Series::new(format!("goodput (bps), {slots}-slot frame"), pts))
        .collect();

    let starved = sweep(
        &frames[1..],
        WorkloadSpec::new(deployed_in(&table, city).harvest(HarvestProfile::Solar(
            fmbs_core::harvest::Illumination::Streetlight,
        ))),
    );
    series.push(Series::new(
        "goodput (bps), streetlight harvest",
        by_tags(&starved, |w| w.net.goodput_bps()),
    ));

    let collisions = sweep(&frames[1..], WorkloadSpec::new(deployed_in(&table, city)));
    series.push(Series::new(
        "collision rate",
        by_tags(&collisions, |w| w.net.collision_rate()),
    ));

    Experiment {
        id: "network_capacity".into(),
        title: "Multi-tag network capacity (fmbs-net tier, -40 dBm city cell)".into(),
        x_label: "deployed tags".into(),
        y_label: "bps / rate".into(),
        series,
        paper_expectation:
            "goodput scales with tags while free channels absorb them, then saturates as slotted \
             Aloha contention grows; collision rate rises with density; energy-starved tags cap \
             goodput well below mains power"
                .into(),
    }
}

// ------------------------------------------- workload SLO family
//
// PR 6's traffic tier: instead of saturating every tag, these figures
// replay seeded arrival traces (fmbs-workload) through the network
// engine and ask the capacity-planning question — how dense can a
// deployment get before the p99 sojourn or the deadline SLO breaks,
// and what do admission policies buy?

/// Traffic-axis defaults shared by the workload figures: a moderate
/// per-tag load where low densities meet the sensor-beacon SLO and the
/// densest grid point visibly does not.
const WORKLOAD_OFFERED_LOAD: f64 = 0.02;

fn workload_tags(grid: Grid) -> Vec<u32> {
    match grid {
        Grid::Quick => vec![4, 16, 64, 256],
        Grid::Full => vec![4, 16, 64, 256, 1_024, 4_096],
    }
}

fn workload_slots(grid: Grid) -> u32 {
    match grid {
        Grid::Quick => 400,
        Grid::Full => 1_200,
    }
}

fn workload_base(ctx: &BuildCtx, model: ArrivalModel) -> Scenario {
    let mut s =
        bench_base(ctx.city).with_traffic(model, WORKLOAD_OFFERED_LOAD, AppProfile::SensorBeacon);
    s.mac_slots = workload_slots(ctx.grid);
    s
}

/// One [`WorkloadSpec::run`] per point of the workload density axis.
fn workload_sweep(
    ctx: &BuildCtx,
    model: ArrivalModel,
    spec: &WorkloadSpec,
) -> SweepResults<WorkloadStats> {
    SweepBuilder::new(workload_base(ctx, model))
        .n_tags(workload_tags(ctx.grid))
        .evaluate(|s| spec.run(s))
}

/// One reading of every point's stats, as a series over tag count.
fn by_tags(
    runs: &SweepResults<WorkloadStats>,
    read: impl Fn(&WorkloadStats) -> f64,
) -> Vec<(f64, f64)> {
    runs.project(read).series(|v| v.scenario.n_tags as f64)
}

/// p99/p999 sojourn time versus tag density under each arrival model,
/// plus the rate-cap policy's effect on the Poisson tail.
pub fn workload_slo_latency(ctx: &BuildCtx) -> Experiment {
    let table = link_table(ctx.grid);
    let spec = WorkloadSpec::new(deployed_in(&table, ctx.city));
    let p99 = |w: &WorkloadStats| w.sojourn_quantile(0.99).0;

    let poisson = workload_sweep(ctx, ArrivalModel::Poisson, &spec);
    let mut series = vec![Series::new(
        "p99 sojourn (s), poisson",
        by_tags(&poisson, p99),
    )];
    for (model, name) in [
        (ArrivalModel::Diurnal, "diurnal"),
        (ArrivalModel::Mmpp, "mmpp"),
    ] {
        let runs = workload_sweep(ctx, model, &spec);
        series.push(Series::new(
            format!("p99 sojourn (s), {name}"),
            by_tags(&runs, p99),
        ));
    }
    series.push(Series::new(
        "p999 sojourn (s), poisson",
        by_tags(&poisson, |w| w.sojourn_quantile(0.999).0),
    ));
    let capped = spec.with_policy(Policy::RateCap {
        max_load: WORKLOAD_OFFERED_LOAD / 2.0,
    });
    series.push(Series::new(
        "p99 sojourn (s), poisson + rate-cap",
        by_tags(&workload_sweep(ctx, ArrivalModel::Poisson, &capped), p99),
    ));

    Experiment {
        id: "workload_slo_latency".into(),
        title: "Sojourn-time SLO vs tag density (fmbs-workload over fmbs-net)".into(),
        x_label: "deployed tags".into(),
        y_label: "sojourn (s)".into(),
        series,
        paper_expectation:
            "queueing delay stays near one packet airtime while free channels absorb the load, \
             then the tail explodes with density; the p999 tail sits above p99; a rate cap \
             shortens the tail of what it admits"
                .into(),
    }
}

/// Deadline-miss rate and absorbed demand versus tag density under each
/// admission policy (Poisson arrivals, sensor-beacon deadlines).
pub fn workload_slo_miss(ctx: &BuildCtx) -> Experiment {
    let table = link_table(ctx.grid);
    let spec = WorkloadSpec::new(deployed_in(&table, ctx.city));
    let sweep = |policy| {
        workload_sweep(
            ctx,
            ArrivalModel::Poisson,
            &spec.clone().with_policy(policy),
        )
    };

    let admit_all = sweep(Policy::AdmitAll);
    let mut series = vec![Series::new(
        "deadline-miss rate, admit-all",
        by_tags(&admit_all, WorkloadStats::deadline_miss_rate),
    )];
    for (policy, name) in [
        (
            Policy::RateCap {
                max_load: WORKLOAD_OFFERED_LOAD / 2.0,
            },
            "rate-cap",
        ),
        (Policy::DeadlineAware, "deadline-aware"),
    ] {
        series.push(Series::new(
            format!("deadline-miss rate, {name}"),
            by_tags(&sweep(policy), WorkloadStats::deadline_miss_rate),
        ));
    }
    series.push(Series::new(
        "delivered / offered, admit-all",
        by_tags(&admit_all, WorkloadStats::offered_vs_goodput),
    ));

    Experiment {
        id: "workload_slo_miss".into(),
        title: "Deadline SLO vs tag density under admission policies".into(),
        x_label: "deployed tags".into(),
        y_label: "fraction of offered packets".into(),
        series,
        paper_expectation:
            "sparse deployments meet the sensor-beacon deadline; misses grow with density as \
             contention queues build; a half-load rate cap trades admission sheds for shorter \
             queues; delivered fraction falls as demand outgrows capacity"
                .into(),
    }
}

// ------------------------------------------- fault resilience family
//
// PR 7's robustness layer: deterministic fault schedules
// (`fmbs_net::faults`) against the engine's link-layer ARQ. The goodput
// figure asks what each fault class costs in delivered fraction and
// what retransmissions cost in airtime; the recovery figure asks how
// fast a deployment climbs back after a station outage as the
// retransmission budget grows.

/// The canned fault plan behind the `fault_resilience` figures and the
/// `repro --fault <kind>` filter: one representative intensity per
/// fault class, scaled to the quick-grid horizon (400 slots). The spec
/// seed is picked so the single outage lands mid-run there ([224, 324)
/// of 400), with a full goodput window of steady state before it — a
/// window flush against either end of the horizon would leave the
/// recovery metric without a pre-fault baseline or pin it at its cap,
/// and the recovery figure would measure nothing.
pub fn fault_plan(kind: FaultKind) -> FaultSpec {
    let base = FaultSpec::none().with_seed(10);
    match kind {
        FaultKind::Outage => base.with_outages(1, 100),
        FaultKind::Brownout => base.with_brownouts(2, 150, 0.1),
        FaultKind::Burst => base.with_bursts(2, 120, 0.05),
        FaultKind::Reset => base.with_resets(8),
    }
}

/// Shared deployment under test: streetlight-harvested tags (so
/// brownouts actually starve something) under `faults` with `arq` on.
/// A campaign city substitutes its own harvest profile — a
/// mains-powered city *should* shrug off brownouts, and the figure
/// shows it.
fn fault_workload_in(
    table: &Arc<BerTable>,
    city: Option<&CityScenario>,
    faults: FaultSpec,
    arq: ArqConfig,
) -> WorkloadSpec {
    let deployment = match city {
        Some(_) => deployed_in(table, city),
        None => deployed_in(table, None).harvest(HarvestProfile::Solar(
            fmbs_core::harvest::Illumination::Streetlight,
        )),
    };
    WorkloadSpec::new(deployment.faults(faults).arq(arq))
}

/// Delivery ratio and retransmission overhead versus tag density under
/// each fault class (ARQ on throughout). [`BuildCtx::fault`] narrows
/// the fault series — the `repro --fault` path; `None` plots every
/// class.
pub fn fault_resilience_goodput(ctx: &BuildCtx) -> Experiment {
    let (kind, city) = (ctx.fault, ctx.city);
    let table = link_table(ctx.grid);
    let kinds: Vec<FaultKind> = kind.map_or_else(|| FaultKind::ALL.to_vec(), |k| vec![k]);
    let sweep = |faults| {
        let spec = fault_workload_in(&table, city, faults, ArqConfig::default());
        workload_sweep(ctx, ArrivalModel::Poisson, &spec)
    };
    // What reliability costs in airtime: the retransmitted share of
    // attempts on the clean channel versus the fault class that works
    // the ARQ hardest (the restricted build mirrors its own kind).
    let stressor = kind.unwrap_or(FaultKind::Burst);

    let clean = sweep(FaultSpec::none());
    let mut series = vec![Series::new(
        "delivery ratio, no fault",
        by_tags(&clean, WorkloadStats::delivery_ratio),
    )];
    let mut stressed = None;
    for k in kinds {
        let runs = sweep(fault_plan(k));
        series.push(Series::new(
            format!("delivery ratio, {}", k.name()),
            by_tags(&runs, WorkloadStats::delivery_ratio),
        ));
        if k == stressor {
            stressed = Some(runs);
        }
    }
    let stressed = stressed.expect("the stressor is one of the plotted fault classes");
    series.push(Series::new(
        "retx overhead, no fault",
        by_tags(&clean, WorkloadStats::retx_overhead),
    ));
    series.push(Series::new(
        format!("retx overhead, {}", stressor.name()),
        by_tags(&stressed, WorkloadStats::retx_overhead),
    ));

    Experiment {
        id: "fault_resilience_goodput".into(),
        title: "Delivery under injected faults vs tag density (ARQ on)".into(),
        x_label: "deployed tags".into(),
        y_label: "fraction".into(),
        series,
        paper_expectation:
            "every fault class costs delivered fraction relative to the clean channel — a \
             station outage silences the deployment outright; retransmissions stay a bounded \
             share of airtime; sparse clean deployments deliver nearly everything"
                .into(),
    }
}

/// Goodput recovery time after a fault window versus the ARQ
/// retransmission budget, averaged over a spread of tag densities (a
/// single cell's recovery is a step function of burst alignment and
/// far too jumpy to carry a trend). [`BuildCtx::fault`] swaps the
/// injected fault class (`repro --fault`; default station outage —
/// resets have no window to recover from and report zero throughout).
pub fn fault_resilience_recovery(ctx: &BuildCtx) -> Experiment {
    let table = link_table(ctx.grid);
    let kind = ctx.fault.unwrap_or(FaultKind::Outage);
    let budgets: [u32; 4] = [0, 1, 4, 8];
    let cells: [u32; 10] = [16, 24, 32, 48, 64, 80, 96, 112, 128, 160];

    let mut recovery = Vec::new();
    let mut overhead = Vec::new();
    for b in budgets {
        let (mut r_mean, mut o_mean) = (0.0, 0.0);
        for n in cells {
            let mut scenario = workload_base(ctx, ArrivalModel::Poisson);
            scenario.n_tags = n;
            let spec = fault_workload_in(
                &table,
                ctx.city,
                fault_plan(kind),
                ArqConfig {
                    max_retx: b,
                    ..ArqConfig::default()
                },
            );
            let (stats, recovery) = spec.run_recovery(&scenario);
            r_mean += recovery / cells.len() as f64;
            o_mean += stats.retx_overhead() / cells.len() as f64;
        }
        recovery.push((b as f64, r_mean));
        overhead.push((b as f64, o_mean));
    }

    Experiment {
        id: "fault_resilience_recovery".into(),
        title: format!(
            "Goodput recovery after {} faults vs retransmission budget (mean over {} densities)",
            kind.name(),
            cells.len(),
        ),
        x_label: "ARQ retransmission budget (max_retx)".into(),
        y_label: "slots / fraction".into(),
        series: vec![
            Series::new("recovery time (slots)", recovery),
            Series::new("retx overhead", overhead),
        ],
        paper_expectation:
            "recovery time is finite and falls as the retransmission budget grows — \
             retransmitted backlog refills the post-fault goodput window faster than fresh \
             arrivals alone; the airtime spent on retransmissions grows with the budget"
                .into(),
    }
}

// ------------------------------------------- metro-scale family
//
// PR 9's sharded tier: multi-receiver cells partition the tag
// population into collision domains with channel-plan-aware spatial
// reuse, one event queue per domain stepped on a worker pool with
// parallel == serial bit-identity. These figures ask what receiver
// density buys a city-scale deployment and what the capture effect
// rescues from collisions under contention.

fn metro_tags(grid: Grid) -> Vec<usize> {
    match grid {
        Grid::Quick => vec![64, 256, 1_024, 4_096],
        Grid::Full => vec![64, 256, 1_024, 4_096, 16_384, 65_536],
    }
}

/// The campaign's metro density axis: multiples of the city's deployed
/// tag count, so every city's figure brackets its own operating point.
fn city_tag_axis(city: &CityScenario, grid: Grid) -> Vec<usize> {
    let n = city.n_tags.max(4);
    match grid {
        Grid::Quick => vec![n / 4, n, n * 4],
        Grid::Full => vec![n / 4, n / 2, n, n * 2, n * 4, n * 8],
    }
}

/// The canonical goodput figure's receiver grids: 1, 4 and 16 cells.
const METRO_GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];

/// The shared metro geometry under test: an FM station ~3 km out
/// (putting the shadowed ambient power mid-table), receiver cells on a
/// 40 ft pitch, uniform-disc tag placement.
fn metro_geometry(n_tags: usize, grid: Grid) -> Deployment {
    Deployment::city(n_tags)
        .slots(match grid {
            Grid::Quick => 240,
            Grid::Full => 1_000,
        })
        .stations([Station::at(10_000.0, 0.0)])
}

/// The metro figures' deployment at a swept tag count. With no city it
/// is [`metro_geometry`] on a 2x2 receiver grid; a corpus city brings
/// its full geometry (stations, receiver grid, placement, band plan,
/// harvest, seed), its horizon scaled by the grid the way
/// [`metro_geometry`] scales its own.
fn metro_deployment(ctx: &BuildCtx, n_tags: usize, table: &Arc<BerTable>) -> Deployment {
    let d = match ctx.city {
        None => metro_geometry(n_tags, ctx.grid).receivers(Receiver::grid(2, 2, 40.0)),
        Some(city) => city.deployment_with_tags(n_tags).slots(match ctx.grid {
            Grid::Quick => city.slots,
            Grid::Full => city.slots * 4,
        }),
    };
    d.link(table.clone())
}

/// Build-time validation of every deployment the metro figures run,
/// *without* the (expensive) link-table calibration — `repro` calls
/// this before regenerating a `metro_scale` figure and turns the typed
/// [`fmbs_net::prelude::DeploymentError`] into exit 2 plus its hint,
/// the same near-miss UX as unknown ids and tiers.
pub fn metro_preflight(grid: Grid) -> Result<(), fmbs_net::prelude::DeploymentError> {
    let n = *metro_tags(grid)
        .last()
        .expect("metro tag grid is non-empty");
    for (nx, ny) in METRO_GRIDS {
        metro_geometry(n, grid)
            .receivers(Receiver::grid(nx, ny, 40.0))
            .capture(6.0)
            .build()?;
    }
    Ok(())
}

/// City-wide goodput versus tag density per receiver grid, plus
/// cross-cell fairness at the densest grid — the spatial-reuse dividend
/// of sharding one cell into many collision domains. The canonical
/// figure compares 1, 4 and 16 cells on a 40 ft pitch; a campaign city
/// compares a single-cell baseline with its *actual* receiver grid, at
/// its own capture margin and at densities around its deployed count.
pub fn metro_scale_goodput(ctx: &BuildCtx) -> Experiment {
    let table = link_table(ctx.grid);
    let (tags, grids, pitch, margin) = match ctx.city {
        None => (metro_tags(ctx.grid), METRO_GRIDS.to_vec(), 40.0, 6.0),
        Some(city) => {
            let g = &city.receiver_grid;
            // Single-cell baseline first, then the city's own grid
            // (skipped when the city *is* single-cell — no second
            // series to compare).
            let mut grids = vec![(1, 1)];
            if g.nx * g.ny > 1 {
                grids.push((g.nx, g.ny));
            }
            let axis = city_tag_axis(city, ctx.grid);
            (axis, grids, g.pitch_ft, city.capture_margin_db)
        }
    };
    let densest = grids.iter().map(|(nx, ny)| nx * ny).max().unwrap_or(1);

    let mut series = Vec::new();
    let mut fairness = Vec::new();
    for (nx, ny) in grids {
        let cells = nx * ny;
        let mut pts = Vec::new();
        for &n in &tags {
            let run = metro_deployment(ctx, n, &table)
                .receivers(Receiver::grid(nx, ny, pitch))
                .capture(margin)
                .build()
                .expect("metro goodput deployment is valid")
                .sim()
                .run();
            pts.push((n as f64, run.stats.goodput_bps()));
            if cells > 1 && cells == densest {
                fairness.push((n as f64, domain_fairness(&run.per_domain)));
            }
        }
        let label = match (cells, ctx.city) {
            (1, _) => "goodput (bps), 1 receiver cell".to_string(),
            (_, None) => format!("goodput (bps), {cells} receiver cells"),
            (_, Some(_)) => format!("goodput (bps), {cells} receiver cells ({nx}x{ny} city grid)"),
        };
        series.push(Series::new(label, pts));
    }
    if densest > 1 {
        series.push(Series::new(
            format!("domain fairness (Jain), {densest} cells"),
            fairness,
        ));
    }

    let (title, paper_expectation) = match ctx.city {
        None => (
            "Metro-scale goodput vs receiver-cell density (sharded fmbs-net tier)".to_string(),
            "one receiver cell saturates on slotted-Aloha contention; partitioning the same \
             population into 4 and 16 cells multiplies goodput through spatial reuse of the \
             channel plan; uniform placement keeps cross-cell fairness high",
        ),
        Some(city) => (
            format!(
                "Metro-scale goodput vs tag density ({}: {}x{} receiver grid)",
                city.id, city.receiver_grid.nx, city.receiver_grid.ny
            ),
            "the city's receiver grid outruns a single cell through spatial reuse of the \
             channel plan at every density around the deployed operating point",
        ),
    };
    Experiment {
        id: "metro_scale_goodput".into(),
        title,
        x_label: "deployed tags".into(),
        y_label: "bps / index".into(),
        series,
        paper_expectation: paper_expectation.into(),
    }
}

/// Collision rate and goodput with the capture effect off versus on —
/// what physics rescues when the strongest colliding tag is decodable
/// anyway. The canonical figure runs 4 receiver cells at a 6 dB margin;
/// a campaign city runs its own receiver grid at its own margin.
pub fn metro_scale_capture(ctx: &BuildCtx) -> Experiment {
    let table = link_table(ctx.grid);
    let (tags, margin) = match ctx.city {
        None => (metro_tags(ctx.grid), 6.0),
        Some(city) => (city_tag_axis(city, ctx.grid), city.capture_margin_db),
    };

    let mut collisions: Vec<Vec<(f64, f64)>> = vec![Vec::new(), Vec::new()];
    let mut goodputs: Vec<Vec<(f64, f64)>> = vec![Vec::new(), Vec::new()];
    for (i, m) in [None, Some(margin)].into_iter().enumerate() {
        for &n in &tags {
            let mut d = metro_deployment(ctx, n, &table);
            if let Some(m) = m {
                d = d.capture(m);
            }
            let run = d
                .build()
                .expect("metro capture deployment is valid")
                .sim()
                .run();
            collisions[i].push((n as f64, run.stats.collision_rate()));
            goodputs[i].push((n as f64, run.stats.goodput_bps()));
        }
    }
    let [coll_off, coll_on] = [collisions.remove(0), collisions.remove(0)];
    let [good_off, good_on] = [goodputs.remove(0), goodputs.remove(0)];

    let (title, paper_expectation) = match ctx.city {
        None => (
            "Capture effect under metro contention (4 receiver cells)".to_string(),
            "under dense contention a 6 dB capture margin converts part of each collision into \
             a delivery for the strongest tag: the collision rate drops and goodput rises \
             relative to capture-off at the same density",
        ),
        Some(city) => (
            format!(
                "Capture effect under metro contention ({}: {margin} dB margin)",
                city.id
            ),
            "the city's capture margin converts part of each collision into a delivery for \
             the strongest tag: the collision rate drops and goodput rises relative to \
             capture-off at the same density",
        ),
    };
    Experiment {
        id: "metro_scale_capture".into(),
        title,
        x_label: "deployed tags".into(),
        y_label: "rate / bps".into(),
        series: vec![
            Series::new("collision rate, capture off", coll_off),
            Series::new(
                format!("collision rate, {margin} dB capture margin"),
                coll_on,
            ),
            Series::new("goodput (bps), capture off", good_off),
            Series::new(
                format!("goodput (bps), {margin} dB capture margin"),
                good_on,
            ),
        ],
        paper_expectation: paper_expectation.into(),
    }
}

// ------------------------------------------- cross-tier calibration
//
// Since PR 2 every swept figure runs on the approximated fast tier, and
// the net tier's `BerTable` is calibrated against it; the `calibration`
// figure family measures the error each abstraction layer introduces by
// running the *same* grid on both tiers and bounding the per-point
// disagreement. The budgets below are the documented tier-error
// tolerances (quick-grid calibrated with ~2x margin over the observed
// worst case; see README "Tier calibration") — `repro --check` gates
// them like any other paper expectation.

/// Largest tolerated per-cell |ΔBER| between the tiers on the
/// calibration grid (observed quick-grid worst case: 0.008).
pub const TIER_BER_BUDGET: f64 = 0.05;

/// Largest tolerated per-cell |ΔPESQ| between the tiers (observed
/// quick-grid worst case: 0.85 — the physical tier's sampled square
/// wave caps its audio SNR near 48 dB, so its PESQ saturates ~2.25
/// where the fast tier reaches ~3.1; see the note on
/// `snr_falls_with_distance` in `sim/physical.rs`).
pub const TIER_PESQ_BUDGET: f64 = 1.0;

/// Largest tolerated per-cell |ΔBER| between a fast-calibrated and a
/// physical-calibrated link table — the fast→link→net stack bound
/// (observed quick-grid worst case: 0.021, a flat ~2% physical-tier
/// settling floor the fast tier does not model).
pub const TIER_TABLE_BUDGET: f64 = 0.08;

/// Summary-quantile series of a |Δ| sample: (0.5, p50), (0.9, p90),
/// (1.0, max) — nondecreasing by construction, which the figures'
/// `MonotoneIn` expectation asserts as a self-check. Same nearest-rank
/// convention as [`fmbs_net::prelude::TableDelta::quantile_abs`], so
/// figure quantiles and the table-delta report never diverge.
fn quantile_series(label: String, values: Vec<f64>) -> Series {
    let q = |q: f64| fmbs_dsp::stats::quantile_nearest_rank(&values, q);
    Series::new(label, vec![(0.5, q(0.5)), (0.9, q(0.9)), (1.0, q(1.0))])
}

/// Runs one sweep spec on **both** tiers and folds the per-point values
/// into the calibration series set: per-cell tier means, per-cell mean
/// |Δ|, the flat error-budget line the `SeriesBelow` expectation gates
/// against, and the |Δ| summary quantiles. A cell is one grid
/// coordinate with the repeat axis folded; x is the cell's index in
/// grid order.
fn cross_tier_series(
    sweep: &SweepBuilder,
    metric: &dyn Metric,
    quantity: &str,
    budget: f64,
) -> Vec<Series> {
    use fmbs_core::sim::sweep::Coords;
    let fast = sweep.run(Tier::Fast.simulator(), metric);
    let phys = sweep.run(Tier::Physical.simulator(), metric);
    assert_eq!(fast.points.len(), phys.points.len());
    // (cell coords, fast sum, physical sum, |delta| sum, count).
    let mut cells: Vec<(Coords, f64, f64, f64, usize)> = Vec::new();
    let mut deltas = Vec::new();
    for (f, p) in fast.points.iter().zip(&phys.points) {
        assert_eq!(f.coords, p.coords, "tier grids must expand identically");
        let d = (f.value - p.value).abs();
        deltas.push(d);
        let mut key = f.coords;
        key.repeat = 0;
        match cells.iter_mut().find(|(k, ..)| *k == key) {
            Some((_, fs, ps, ds, n)) => {
                *fs += f.value;
                *ps += p.value;
                *ds += d;
                *n += 1;
            }
            None => cells.push((key, f.value, p.value, d, 1)),
        }
    }
    let mut fast_pts = Vec::with_capacity(cells.len());
    let mut phys_pts = Vec::with_capacity(cells.len());
    let mut delta_pts = Vec::with_capacity(cells.len());
    let mut budget_pts = Vec::with_capacity(cells.len());
    for (i, (_, fs, ps, ds, n)) in cells.iter().enumerate() {
        let (x, n) = (i as f64, *n as f64);
        fast_pts.push((x, fs / n));
        phys_pts.push((x, ps / n));
        delta_pts.push((x, ds / n));
        budget_pts.push((x, budget));
    }
    vec![
        Series::new(format!("fast tier {quantity}"), fast_pts),
        Series::new(format!("physical tier {quantity}"), phys_pts),
        Series::new(format!("|delta {quantity}|"), delta_pts),
        Series::new("tier error budget", budget_pts),
        quantile_series(
            format!("|delta {quantity}| quantiles (p50/p90/max)"),
            deltas,
        ),
    ]
}

/// Calibration figure: fast-vs-physical **BER** agreement, point by
/// point, on a shared power×distance data grid.
pub fn calibration_ber(ctx: &BuildCtx) -> Experiment {
    let (bits, repeats) = match ctx.grid {
        Grid::Quick => (240, 2),
        Grid::Full => (960, 4),
    };
    let distances = match ctx.grid {
        Grid::Quick => vec![4.0, 10.0, 16.0],
        Grid::Full => vec![2.0, 6.0, 10.0, 14.0, 18.0],
    };
    let base = Scenario::bench(-30.0, 4.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, bits));
    let sweep = SweepBuilder::new(base)
        .powers_dbm([-30.0, -50.0])
        .distances_ft(distances)
        .repeats(repeats);
    Experiment {
        id: "calibration_ber".into(),
        title: "Tier calibration: fast vs physical BER (1.6 kbps overlay)".into(),
        x_label: "grid cell (power-major)".into(),
        y_label: "BER / |delta BER|".into(),
        series: cross_tier_series(&sweep, &Ber::default(), "BER", TIER_BER_BUDGET),
        paper_expectation:
            "the audio-domain equivalence (section 3.3) holds: fast-tier BER tracks the RF-rate \
             reference within the documented budget on every cell"
                .into(),
    }
}

/// Calibration figure: fast-vs-physical **PESQ** agreement on a shared
/// speech grid.
pub fn calibration_pesq(ctx: &BuildCtx) -> Experiment {
    let (secs, repeats) = match ctx.grid {
        Grid::Quick => (0.75, 1),
        Grid::Full => (2.0, 2),
    };
    let base = Scenario::bench(-20.0, 4.0, ProgramKind::News).with_workload(Workload::speech(secs));
    let sweep = SweepBuilder::new(base)
        .powers_dbm([-20.0, -40.0])
        .distances_ft([4.0, 12.0])
        .repeats(repeats);
    Experiment {
        id: "calibration_pesq".into(),
        title: "Tier calibration: fast vs physical PESQ (overlay speech)".into(),
        x_label: "grid cell (power-major)".into(),
        y_label: "PESQ / |delta PESQ|".into(),
        series: cross_tier_series(&sweep, &Pesq::default(), "PESQ", TIER_PESQ_BUDGET),
        paper_expectation:
            "audio quality scored through the full RF chain matches the fast tier within the \
             documented budget on every cell"
                .into(),
    }
}

/// Calibration figure: the network tier's link table re-calibrated from
/// the physical tier ([`BerTable::from_physical`]) against the standard
/// fast-calibrated table — the per-cell |Δ| bounds what the whole
/// fast→link→net stack inherits from the fast approximation.
pub fn calibration_link(ctx: &BuildCtx) -> Experiment {
    let spec = match ctx.grid {
        Grid::Quick => BerTableSpec {
            powers_dbm: vec![-55.0, -45.0, -35.0],
            distances_ft: vec![4.0, 10.0, 16.0],
            bitrates: vec![Bitrate::Kbps1_6],
            bits_per_point: 192,
            repeats: 1,
            seed: 0xCA11B,
        },
        Grid::Full => BerTableSpec {
            powers_dbm: vec![-60.0, -50.0, -40.0, -30.0, -20.0],
            distances_ft: vec![2.0, 6.0, 10.0, 14.0, 18.0],
            bitrates: vec![Bitrate::Kbps1_6],
            bits_per_point: 448,
            repeats: 2,
            seed: 0xCA11B,
        },
    };
    let fast_table = BerTable::calibrate(Tier::Fast.simulator(), &spec);
    let phys_table = BerTable::from_physical(&spec);
    let delta = phys_table.delta(&fast_table);
    let mut fast_pts = Vec::with_capacity(delta.cells.len());
    let mut phys_pts = Vec::with_capacity(delta.cells.len());
    let mut delta_pts = Vec::with_capacity(delta.cells.len());
    let mut budget_pts = Vec::with_capacity(delta.cells.len());
    for (i, c) in delta.cells.iter().enumerate() {
        let x = i as f64;
        fast_pts.push((x, c.other));
        phys_pts.push((x, c.reference));
        delta_pts.push((x, c.abs_delta()));
        budget_pts.push((x, TIER_TABLE_BUDGET));
    }
    Experiment {
        id: "calibration_link".into(),
        title: "Tier calibration: link table, fast- vs physical-calibrated".into(),
        x_label: "table cell (power-major)".into(),
        y_label: "tabulated BER / |delta|".into(),
        series: vec![
            Series::new("fast table BER", fast_pts),
            Series::new("physical table BER", phys_pts),
            Series::new("|delta table BER|", delta_pts),
            Series::new("tier error budget", budget_pts),
            quantile_series(
                "|delta table BER| quantiles (p50/p90/max)".into(),
                delta.cells.iter().map(|c| c.abs_delta()).collect(),
            ),
        ],
        paper_expectation:
            "a link table calibrated from the RF-rate reference agrees cell-by-cell with the \
             fast-calibrated table within the documented budget (bounding fast->link->net)"
                .into(),
    }
}

// ----------------------------------------------------- machine checks
//
// Each figure's prose `paper_expectation` translated into 1-4 typed
// [`Expectation`]s, evaluated by `repro --check` against the Quick grid.
// Bounds are calibrated to the substrate's quick-grid output with enough
// margin that only a physics change trips them (exact drift is the
// golden diff's job).

fn checks_fig2a() -> Vec<Expectation> {
    vec![
        // A CDF is nondecreasing.
        Expectation::MonotoneIn {
            series: Select::All,
            dir: Dir::Increasing,
            slack: 0.0,
        },
        // "all cells well above FM sensitivity": every sampled power is
        // far above -60 dBm and below -10 dBm.
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::X,
            min: -60.0,
            max: -10.0,
        },
        // The city median sits near -30 dBm on this substrate.
        Expectation::ThresholdAt {
            series: Select::All,
            x: -30.0,
            min_y: Some(0.3),
            max_y: Some(0.7),
        },
    ]
}

fn checks_fig2b() -> Vec<Expectation> {
    vec![
        Expectation::MonotoneIn {
            series: Select::All,
            dir: Dir::Increasing,
            slack: 0.0,
        },
        // "roughly constant ... within -35..-30 dBm".
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::X,
            min: -36.0,
            max: -29.0,
        },
        // "sigma = 0.7 dB": the sampled per-minute powers stay tight.
        Expectation::FlatWithin {
            series: Select::All,
            axis: Axis::X,
            max_sigma: 1.5,
        },
    ]
}

fn checks_fig4a() -> Vec<Expectation> {
    vec![
        // "20-70 stations per city".
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::Y,
            min: 20.0,
            max: 70.0,
        },
        // "Seattle detects more than licensed" (city index 1).
        Expectation::CompareAt {
            x: 1.0,
            below: Select::Label("Licensed"),
            above: Select::Label("Detectable"),
            margin: 0.0,
        },
        // SFO (index 0) detects fewer than licensed, the usual case.
        Expectation::CompareAt {
            x: 0.0,
            below: Select::Label("Detectable"),
            above: Select::Label("Licensed"),
            margin: 0.0,
        },
    ]
}

fn checks_fig4b() -> Vec<Expectation> {
    vec![
        Expectation::MonotoneIn {
            series: Select::All,
            dir: Dir::Increasing,
            slack: 0.0,
        },
        // "median 200 kHz": at the first channel step every city has
        // reached at least half its mass.
        Expectation::ThresholdAt {
            series: Select::All,
            x: 200.0,
            min_y: Some(0.5),
            max_y: None,
        },
        // "worst case under ~800 kHz".
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::X,
            min: 100.0,
            max: 800.0,
        },
    ]
}

fn checks_fig5() -> Vec<Expectation> {
    vec![
        // "news/talk lowest (same speech on L/R)": the news CDF sits left
        // of every other genre, point for point.
        Expectation::SeriesBelow {
            below: Select::Contains("News"),
            above: Select::All,
            axis: Axis::X,
            slack: 0.0,
        },
        // "music genres highest": both music CDFs live above 20 dB.
        Expectation::WithinBand {
            series: Select::Contains("music"),
            axis: Axis::X,
            min: 20.0,
            max: 40.0,
        },
        Expectation::MonotoneIn {
            series: Select::All,
            dir: Dir::Increasing,
            slack: 0.0,
        },
    ]
}

fn checks_fig6() -> Vec<Expectation> {
    vec![
        // "good response below 13 kHz" — both bands at the band edges.
        Expectation::ThresholdAt {
            series: Select::All,
            x: 1.0,
            min_y: Some(25.0),
            max_y: None,
        },
        Expectation::ThresholdAt {
            series: Select::All,
            x: 13.0,
            min_y: Some(25.0),
            max_y: None,
        },
        // "sharp drop after (capture chain)".
        Expectation::ThresholdAt {
            series: Select::All,
            x: 14.0,
            min_y: None,
            max_y: Some(-20.0),
        },
    ]
}

fn checks_fig7() -> Vec<Expectation> {
    vec![
        // "20 ft reach at -30 dBm (SNR > 20 dB)" — quick grid tops at 18.
        Expectation::ThresholdAt {
            series: Select::Label("-30 dBm"),
            x: 18.0,
            min_y: Some(20.0),
            max_y: None,
        },
        // "usable close-in even at -50 dBm".
        Expectation::ThresholdAt {
            series: Select::Label("-50 dBm"),
            x: 2.0,
            min_y: Some(20.0),
            max_y: None,
        },
        // The weakest ambient never beats the strongest.
        Expectation::SeriesBelow {
            below: Select::Label("-60 dBm"),
            above: Select::Label("-20 dBm"),
            axis: Axis::Y,
            slack: 0.0,
        },
    ]
}

fn checks_fig8a() -> Vec<Expectation> {
    vec![
        // "near zero to 6 ft at all powers".
        Expectation::ThresholdAt {
            series: Select::All,
            x: 6.0,
            min_y: None,
            max_y: Some(0.005),
        },
        // ">12 ft above -60 dBm".
        Expectation::ThresholdAt {
            series: Select::Label("-50 dBm"),
            x: 18.0,
            min_y: None,
            max_y: Some(0.02),
        },
        // 100 bps never collapses anywhere on the quick grid.
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::Y,
            min: 0.0,
            max: 0.06,
        },
    ]
}

fn checks_fig8b() -> Vec<Expectation> {
    vec![
        // "low to 16 ft above -40 dBm".
        Expectation::ThresholdAt {
            series: Select::Label("-40 dBm"),
            x: 14.0,
            min_y: None,
            max_y: Some(0.02),
        },
        Expectation::ThresholdAt {
            series: Select::Label("-20 dBm"),
            x: 18.0,
            min_y: None,
            max_y: Some(0.02),
        },
        // "-60 dBm only works close in": the range cliff is real.
        Expectation::ThresholdAt {
            series: Select::Label("-60 dBm"),
            x: 6.0,
            min_y: None,
            max_y: Some(0.02),
        },
        Expectation::ThresholdAt {
            series: Select::Label("-60 dBm"),
            x: 18.0,
            min_y: Some(0.1),
            max_y: None,
        },
    ]
}

fn checks_fig8c() -> Vec<Expectation> {
    vec![
        // "works above -40 dBm".
        Expectation::ThresholdAt {
            series: Select::Label("-30 dBm"),
            x: 18.0,
            min_y: None,
            max_y: Some(0.03),
        },
        // "fails at -50/-60 dBm" (far out on the quick grid).
        Expectation::ThresholdAt {
            series: Select::Label("-60 dBm"),
            x: 18.0,
            min_y: Some(0.1),
            max_y: None,
        },
        // Stronger ambient is never worse than the weakest.
        Expectation::SeriesBelow {
            below: Select::Label("-20 dBm"),
            above: Select::Label("-60 dBm"),
            axis: Axis::Y,
            slack: 0.005,
        },
    ]
}

fn checks_fig9() -> Vec<Expectation> {
    vec![
        // "2x combining already reduces BER significantly".
        Expectation::SeriesBelow {
            below: Select::Label("2x MRC"),
            above: Select::Label("No MRC"),
            axis: Axis::Y,
            slack: 0.005,
        },
        Expectation::SeriesBelow {
            below: Select::Label("4x MRC"),
            above: Select::Label("2x MRC"),
            axis: Axis::Y,
            slack: 0.005,
        },
        // There are errors to combine away at the far point...
        Expectation::ThresholdAt {
            series: Select::Label("No MRC"),
            x: 14.0,
            min_y: Some(0.05),
            max_y: None,
        },
        // ...and 4x combining beats them down.
        Expectation::ThresholdAt {
            series: Select::Label("4x MRC"),
            x: 14.0,
            min_y: None,
            max_y: Some(0.06),
        },
    ]
}

fn checks_fig10() -> Vec<Expectation> {
    vec![
        // "stereo backscatter significantly lowers BER vs overlay".
        Expectation::SeriesBelow {
            below: Select::Label("Stereo  1.6kbps"),
            above: Select::Label("Overlay  1.6kbps"),
            axis: Axis::Y,
            slack: 0.0,
        },
        Expectation::SeriesBelow {
            below: Select::Label("Stereo  3.2kbps"),
            above: Select::Label("Overlay  3.2kbps"),
            axis: Axis::Y,
            slack: 0.0,
        },
        // Stereo is near error-free at -30 dBm close in.
        Expectation::WithinBand {
            series: Select::Contains("Stereo"),
            axis: Axis::Y,
            min: 0.0,
            max: 0.005,
        },
    ]
}

fn checks_fig11() -> Vec<Expectation> {
    vec![
        // "consistently ~2 for -20..-40 dBm up to 20 ft".
        Expectation::WithinBand {
            series: Select::Label("-20 dBm"),
            axis: Axis::Y,
            min: 2.0,
            max: 3.5,
        },
        Expectation::ThresholdAt {
            series: Select::Label("-40 dBm"),
            x: 18.0,
            min_y: Some(1.9),
            max_y: None,
        },
        // "-50 dBm good to 12 ft".
        Expectation::ThresholdAt {
            series: Select::Label("-50 dBm"),
            x: 10.0,
            min_y: Some(2.0),
            max_y: None,
        },
        Expectation::SeriesBelow {
            below: Select::Label("-60 dBm"),
            above: Select::Label("-20 dBm"),
            axis: Axis::Y,
            slack: 0.1,
        },
    ]
}

fn checks_fig12() -> Vec<Expectation> {
    vec![
        // "around 4 for -20..-50 dBm (cancellation removes the
        // programme)" — close in, every power is near the ceiling.
        Expectation::ThresholdAt {
            series: Select::All,
            x: 2.0,
            min_y: Some(3.5),
            max_y: None,
        },
        Expectation::ThresholdAt {
            series: Select::Label("-20 dBm"),
            x: 6.0,
            min_y: Some(3.8),
            max_y: None,
        },
        // PESQ stays a sane score everywhere.
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::Y,
            min: 0.5,
            max: 4.6,
        },
    ]
}

fn checks_fig13() -> Vec<Expectation> {
    vec![
        // "beats overlay at high power": overlay tops out near 2.9.
        Expectation::ThresholdAt {
            series: Select::Label("-20 dBm"),
            x: 2.0,
            min_y: Some(3.2),
            max_y: None,
        },
        // "needs strong signal (pilot detect)": at -40 dBm far out the
        // pilot is lost and the score collapses.
        Expectation::ThresholdAt {
            series: Select::Label("-40 dBm"),
            x: 18.0,
            min_y: None,
            max_y: Some(0.5),
        },
        Expectation::MonotoneIn {
            series: Select::Label("-20 dBm"),
            dir: Dir::Decreasing,
            slack: 0.3,
        },
    ]
}

fn checks_fig14() -> Vec<Expectation> {
    vec![
        // "works well up to 60 ft at -20/-30 dBm".
        Expectation::ThresholdAt {
            series: Select::Label("SNR -20 dBm"),
            x: 60.0,
            min_y: Some(15.0),
            max_y: None,
        },
        Expectation::ThresholdAt {
            series: Select::Label("PESQ -30 dBm"),
            x: 50.0,
            min_y: Some(1.5),
            max_y: None,
        },
        Expectation::MonotoneIn {
            series: Select::Label("SNR -20 dBm"),
            dir: Dir::Decreasing,
            slack: 2.0,
        },
    ]
}

fn checks_fig17() -> Vec<Expectation> {
    vec![
        // "100 bps < 0.005 even running".
        Expectation::WithinBand {
            series: Select::Label("100bps"),
            axis: Axis::Y,
            min: 0.0,
            max: 0.005,
        },
        // 1.6 kbps with 2x MRC stays usable across motion.
        Expectation::WithinBand {
            series: Select::Label("1.6kbps w/ 2x MRC"),
            axis: Axis::Y,
            min: 0.0,
            max: 0.05,
        },
        Expectation::SeriesBelow {
            below: Select::Label("100bps"),
            above: Select::Label("1.6kbps w/ 2x MRC"),
            axis: Axis::Y,
            slack: 0.01,
        },
    ]
}

fn checks_power() -> Vec<Expectation> {
    vec![
        // "1.0 + 9.94 + 0.13 = 11.07 uW".
        Expectation::ThresholdAt {
            series: Select::Contains("IC power"),
            x: 3.0,
            min_y: Some(11.0),
            max_y: Some(11.1),
        },
        // "FM chip <12 h on a coin cell vs ~3 years backscatter".
        Expectation::ThresholdAt {
            series: Select::Contains("battery life"),
            x: 0.0,
            min_y: None,
            max_y: Some(12.5),
        },
        Expectation::ThresholdAt {
            series: Select::Contains("battery life"),
            x: 1.0,
            min_y: Some(17_000.0),
            max_y: None,
        },
        // IC power grows with the backscatter shift frequency.
        Expectation::MonotoneIn {
            series: Select::Contains("f_back"),
            dir: Dir::Increasing,
            slack: 0.0,
        },
    ]
}

fn checks_rates() -> Vec<Expectation> {
    vec![
        // BER grows with symbol rate at a fixed marginal link.
        Expectation::MonotoneIn {
            series: Select::All,
            dir: Dir::Increasing,
            slack: 0.001,
        },
        // 100 sym/s is clean...
        Expectation::ThresholdAt {
            series: Select::All,
            x: 100.0,
            min_y: None,
            max_y: Some(0.005),
        },
        // ..."degrades significantly above 400 sym/s".
        Expectation::ThresholdAt {
            series: Select::All,
            x: 400.0,
            min_y: Some(0.01),
            max_y: None,
        },
    ]
}

fn checks_ablation() -> Vec<Expectation> {
    vec![
        // "square fundamental ~-3.9 dBc per sideband".
        Expectation::ThresholdAt {
            series: Select::Label("upper sideband power (dBc)"),
            x: 0.0,
            min_y: Some(-4.5),
            max_y: Some(-3.3),
        },
        // "SSB suppresses the image (footnote 2)": at least 40 dB down
        // on its own upper sideband.
        Expectation::CompareAt {
            x: 2.0,
            below: Select::Label("image sideband power (dBc)"),
            above: Select::Label("upper sideband power (dBc)"),
            margin: 40.0,
        },
        // The physical chain recovers a clean tone with the square
        // switch at the bench operating point.
        Expectation::ThresholdAt {
            series: Select::Contains("physical-chain"),
            x: 0.0,
            min_y: Some(30.0),
            max_y: None,
        },
    ]
}

fn checks_network_capacity() -> Vec<Expectation> {
    vec![
        // "collision rate rises with density".
        Expectation::MonotoneIn {
            series: Select::Label("collision rate"),
            dir: Dir::Increasing,
            slack: 0.01,
        },
        // "energy-starved tags cap goodput well below mains power".
        Expectation::SeriesBelow {
            below: Select::Label("goodput (bps), streetlight harvest"),
            above: Select::Contains("1024-slot frame"),
            axis: Axis::Y,
            slack: 0.0,
        },
        // "goodput scales with tags while free channels absorb them".
        Expectation::ThresholdAt {
            series: Select::Contains("256-slot frame"),
            x: 128.0,
            min_y: Some(40_000.0),
            max_y: None,
        },
        Expectation::MonotoneIn {
            series: Select::Label("goodput (bps), streetlight harvest"),
            dir: Dir::Increasing,
            slack: 0.0,
        },
    ]
}

fn checks_workload_slo_latency() -> Vec<Expectation> {
    vec![
        // "the p999 tail sits above p99", point for point.
        Expectation::SeriesBelow {
            below: Select::Label("p99 sojourn (s), poisson"),
            above: Select::Label("p999 sojourn (s), poisson"),
            axis: Axis::Y,
            slack: 1e-9,
        },
        // "a rate cap shortens the tail of what it admits".
        Expectation::SeriesBelow {
            below: Select::Label("p99 sojourn (s), poisson + rate-cap"),
            above: Select::Label("p99 sojourn (s), poisson"),
            axis: Axis::Y,
            slack: 1e-9,
        },
        // "queueing delay stays near one packet airtime while free
        // channels absorb the load": a sparse cell's p99 is a few slots
        // (slot = 0.16 s at 1.6 kbps / 256 bits).
        Expectation::ThresholdAt {
            series: Select::Label("p99 sojourn (s), poisson"),
            x: 4.0,
            min_y: Some(0.0),
            max_y: Some(1.0),
        },
        // "the tail explodes with density": the densest quick point's
        // p999 is well past the sparse cell's few-slot sojourns.
        Expectation::ThresholdAt {
            series: Select::Label("p999 sojourn (s), poisson"),
            x: 256.0,
            min_y: Some(1.0),
            max_y: None,
        },
    ]
}

fn checks_workload_slo_miss() -> Vec<Expectation> {
    vec![
        // Every series is a fraction of the offered packets.
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::Y,
            min: 0.0,
            max: 1.0,
        },
        // "misses grow with density as contention queues build".
        Expectation::MonotoneIn {
            series: Select::Label("deadline-miss rate, admit-all"),
            dir: Dir::Increasing,
            slack: 0.05,
        },
        // "sparse deployments meet the sensor-beacon deadline".
        Expectation::ThresholdAt {
            series: Select::Label("deadline-miss rate, admit-all"),
            x: 4.0,
            min_y: None,
            max_y: Some(0.3),
        },
        // "delivered fraction falls as demand outgrows capacity".
        Expectation::MonotoneIn {
            series: Select::Label("delivered / offered, admit-all"),
            dir: Dir::Decreasing,
            slack: 0.05,
        },
    ]
}

fn checks_fault_resilience_goodput() -> Vec<Expectation> {
    vec![
        // Every series is a fraction (of offered packets / of attempts).
        Expectation::WithinBand {
            series: Select::All,
            axis: Axis::Y,
            min: 0.0,
            max: 1.0,
        },
        // "a station outage costs delivered fraction", point for point.
        Expectation::SeriesBelow {
            below: Select::Label("delivery ratio, outage"),
            above: Select::Label("delivery ratio, no fault"),
            axis: Axis::Y,
            slack: 1e-9,
        },
        // "sparse clean deployments deliver nearly everything".
        Expectation::ThresholdAt {
            series: Select::Label("delivery ratio, no fault"),
            x: 4.0,
            min_y: Some(0.7),
            max_y: None,
        },
        // "delivered fraction falls as demand outgrows capacity".
        Expectation::MonotoneIn {
            series: Select::Label("delivery ratio, no fault"),
            dir: Dir::Decreasing,
            slack: 0.05,
        },
    ]
}

fn checks_fault_resilience_recovery() -> Vec<Expectation> {
    vec![
        // The acceptance bar: recovery time is monotone nonincreasing in
        // the retransmission budget on the quick grid (the density-mean
        // is strictly decreasing there; one slot of slack absorbs
        // threshold-crossing jitter).
        Expectation::MonotoneIn {
            series: Select::Label("recovery time (slots)"),
            dir: Dir::Decreasing,
            slack: 1.0,
        },
        // Finite and capped by the quick-grid horizon.
        Expectation::WithinBand {
            series: Select::Label("recovery time (slots)"),
            axis: Axis::Y,
            min: 0.0,
            max: 400.0,
        },
        // "the airtime spent on retransmissions grows with the budget".
        Expectation::MonotoneIn {
            series: Select::Label("retx overhead"),
            dir: Dir::Increasing,
            slack: 0.02,
        },
        // A zero budget cannot retransmit at all.
        Expectation::ThresholdAt {
            series: Select::Label("retx overhead"),
            x: 0.0,
            min_y: None,
            max_y: Some(1e-9),
        },
    ]
}

fn checks_metro_scale_goodput() -> Vec<Expectation> {
    vec![
        // "partitioning the same population into ... 16 cells multiplies
        // goodput through spatial reuse", at the densest quick point.
        Expectation::CompareAt {
            x: 4_096.0,
            below: Select::Label("goodput (bps), 1 receiver cell"),
            above: Select::Label("goodput (bps), 16 receiver cells"),
            margin: 0.0,
        },
        // The 4-cell deployment also beats the single cell there.
        Expectation::CompareAt {
            x: 4_096.0,
            below: Select::Label("goodput (bps), 1 receiver cell"),
            above: Select::Label("goodput (bps), 4 receiver cells"),
            margin: 0.0,
        },
        // "uniform placement keeps cross-cell fairness high": Jain over
        // the 16 per-domain goodputs is an index in (0, 1].
        Expectation::WithinBand {
            series: Select::Contains("fairness"),
            axis: Axis::Y,
            min: 0.5,
            max: 1.0,
        },
        // The sharded tier is carrying real traffic at every density.
        Expectation::ThresholdAt {
            series: Select::Label("goodput (bps), 16 receiver cells"),
            x: 4_096.0,
            min_y: Some(1_000.0),
            max_y: None,
        },
    ]
}

fn checks_metro_scale_capture() -> Vec<Expectation> {
    vec![
        // Collision rates are fractions of attempts.
        Expectation::WithinBand {
            series: Select::Contains("collision rate"),
            axis: Axis::Y,
            min: 0.0,
            max: 1.0,
        },
        // "the collision rate drops ... relative to capture-off" at the
        // densest quick point.
        Expectation::CompareAt {
            x: 4_096.0,
            below: Select::Label("collision rate, 6 dB capture margin"),
            above: Select::Label("collision rate, capture off"),
            margin: 0.0,
        },
        // "... and goodput rises" there too.
        Expectation::CompareAt {
            x: 4_096.0,
            below: Select::Label("goodput (bps), capture off"),
            above: Select::Label("goodput (bps), 6 dB capture margin"),
            margin: 0.0,
        },
        // Contention grows with density whether or not capture is on.
        Expectation::MonotoneIn {
            series: Select::Label("collision rate, capture off"),
            dir: Dir::Increasing,
            slack: 0.02,
        },
    ]
}

fn checks_calibration_ber() -> Vec<Expectation> {
    vec![
        // The headline: per-cell tier disagreement stays under the
        // documented budget line, point by point.
        Expectation::SeriesBelow {
            below: Select::Label("|delta BER|"),
            above: Select::Label("tier error budget"),
            axis: Axis::Y,
            slack: 0.0,
        },
        // Quantile summaries are nondecreasing (p50 <= p90 <= max).
        Expectation::MonotoneIn {
            series: Select::Contains("quantiles"),
            dir: Dir::Increasing,
            slack: 0.0,
        },
        // Both tiers report sane BERs everywhere on the grid.
        Expectation::WithinBand {
            series: Select::Contains("tier BER"),
            axis: Axis::Y,
            min: 0.0,
            max: 0.6,
        },
    ]
}

fn checks_calibration_pesq() -> Vec<Expectation> {
    vec![
        Expectation::SeriesBelow {
            below: Select::Label("|delta PESQ|"),
            above: Select::Label("tier error budget"),
            axis: Axis::Y,
            slack: 0.0,
        },
        Expectation::MonotoneIn {
            series: Select::Contains("quantiles"),
            dir: Dir::Increasing,
            slack: 0.0,
        },
        // PESQ-like scores stay in range, and the strong close-in cell
        // is genuinely good on both tiers.
        Expectation::ThresholdAt {
            series: Select::Contains("tier PESQ"),
            x: 0.0,
            min_y: Some(1.5),
            max_y: Some(4.7),
        },
    ]
}

fn checks_calibration_link() -> Vec<Expectation> {
    vec![
        Expectation::SeriesBelow {
            below: Select::Label("|delta table BER|"),
            above: Select::Label("tier error budget"),
            axis: Axis::Y,
            slack: 0.0,
        },
        Expectation::MonotoneIn {
            series: Select::Contains("quantiles"),
            dir: Dir::Increasing,
            slack: 0.0,
        },
        Expectation::WithinBand {
            series: Select::Contains("table BER"),
            axis: Axis::Y,
            min: 0.0,
            max: 0.6,
        },
    ]
}

/// One entry of the experiment registry.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// The paper id (`fig8a`, `power`, ...).
    pub id: &'static str,
    /// Builds the canonical experiment ([`BuildCtx::new`]) at a grid
    /// density — generated by the registry from [`ExperimentSpec::at`],
    /// so the two never disagree.
    pub build: fn(Grid) -> Experiment,
    /// The figure's one builder, in any [`BuildCtx`].
    pub at: fn(&BuildCtx) -> Experiment,
    /// The [`BuildCtx`] axes [`ExperimentSpec::at`] reads. A figure
    /// without [`Vary::Tier`] cannot run on `repro --tier physical`
    /// (surveys, arithmetic tables, and the calibration family, which
    /// runs both tiers by construction); one without [`Vary::City`] is
    /// city-invariant, so the campaign builds it once and reuses the
    /// result across every city.
    pub varies: &'static [Vary],
    /// The figure's machine-checkable paper expectations
    /// (`repro --check` evaluates them on the Quick grid).
    pub checks: fn() -> Vec<Expectation>,
}

impl ExperimentSpec {
    /// Whether the figure's builder reads `axis` of its [`BuildCtx`].
    pub fn reads(&self, axis: Vary) -> bool {
        self.varies.contains(&axis)
    }
}

/// The registry table, one row per figure:
/// `id => builder, [axes it varies], checks;`. Each row's `build` is
/// generated as its own builder in the canonical context, so a row
/// cannot disagree with itself.
macro_rules! registry {
    ($($id:literal => $at:expr, [$($vary:ident),*], $checks:expr;)*) => {
        &[$(ExperimentSpec {
            id: $id,
            build: |grid| ($at)(&BuildCtx::new(grid)),
            at: $at,
            varies: &[$(Vary::$vary),*],
            checks: $checks,
        }),*]
    };
}

/// Every experiment, in paper order (calibration family last).
pub const REGISTRY: &[ExperimentSpec] = registry! {
    "fig2a" => fig2a, [], checks_fig2a;
    "fig2b" => fig2b, [], checks_fig2b;
    "fig4a" => fig4a, [], checks_fig4a;
    "fig4b" => fig4b, [], checks_fig4b;
    "fig5" => fig5, [], checks_fig5;
    "fig6" => fig6, [Tier], checks_fig6;
    "fig7" => fig7, [Tier], checks_fig7;
    "fig8a" => |c| fig8(c, Bitrate::Bps100), [Tier], checks_fig8a;
    "fig8b" => |c| fig8(c, Bitrate::Kbps1_6), [Tier], checks_fig8b;
    "fig8c" => |c| fig8(c, Bitrate::Kbps3_2), [Tier], checks_fig8c;
    "fig9" => fig9, [Tier], checks_fig9;
    "fig10" => fig10, [Tier], checks_fig10;
    "fig11" => fig11, [Tier], checks_fig11;
    "fig12" => fig12, [Tier], checks_fig12;
    "fig13a" => |c| fig13(c, "fig13a", "PESQ, stereo backscatter on a stereo news station"),
        [Tier], checks_fig13;
    "fig13b" => |c| fig13(c, "fig13b", "PESQ, mono station converted to stereo"),
        [Tier], checks_fig13;
    "fig14" => fig14, [Tier], checks_fig14;
    "fig17b" => fig17, [Tier], checks_fig17;
    "power" => power_table, [], checks_power;
    "rates" => rates_table, [Tier], checks_rates;
    "ablation" => ablation, [], checks_ablation;
    "network_capacity" => network_capacity, [City], checks_network_capacity;
    "workload_slo_latency" => workload_slo_latency, [City], checks_workload_slo_latency;
    "workload_slo_miss" => workload_slo_miss, [City], checks_workload_slo_miss;
    "fault_resilience_goodput" => fault_resilience_goodput, [City, Fault],
        checks_fault_resilience_goodput;
    "fault_resilience_recovery" => fault_resilience_recovery, [City, Fault],
        checks_fault_resilience_recovery;
    "metro_scale_goodput" => metro_scale_goodput, [City], checks_metro_scale_goodput;
    "metro_scale_capture" => metro_scale_capture, [City], checks_metro_scale_capture;
    "calibration_ber" => calibration_ber, [], checks_calibration_ber;
    "calibration_pesq" => calibration_pesq, [], checks_calibration_pesq;
    "calibration_link" => calibration_link, [], checks_calibration_link;
};

/// Family aliases the CLI accepts anywhere a figure id is accepted:
/// each expands to every registry figure sharing the `{alias}_` prefix
/// (`metro_scale` → `metro_scale_goodput` + `metro_scale_capture`, …).
/// Centralised so id resolution and the near-miss suggestions never
/// disagree about what a valid name is.
pub const FAMILIES: &[&str] = &[
    "calibration",
    "workload_slo",
    "fault_resilience",
    "metro_scale",
];

/// The registry figures a family alias expands to (every id sharing the
/// `{family}_` prefix), or an empty vec for a non-family name.
pub fn family_specs(family: &str) -> Vec<&'static ExperimentSpec> {
    if !FAMILIES.contains(&family) {
        return Vec::new();
    }
    let prefix = format!("{family}_");
    REGISTRY
        .iter()
        .filter(|s| s.id.starts_with(&prefix))
        .collect()
}

/// Registry ids whose builders read `axis` — the figures
/// `repro --tier` or `repro --fault` accept, or the campaign rebuilds
/// per city.
pub fn ids_varying(axis: Vary) -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|s| s.reads(axis))
        .map(|s| s.id)
        .collect()
}

/// Near-miss suggestions for an unknown tier name, closest first (same
/// scoring as [`suggest_ids`] so the CLI's two "did you mean" surfaces
/// never diverge).
pub fn suggest_tiers(unknown: &str) -> Vec<&'static str> {
    suggest_among(unknown, Tier::ALL.iter().map(|t| t.name()), Tier::ALL.len())
}

/// Near-miss suggestions for an unknown `--fault` kind, closest first
/// (same scoring as [`suggest_ids`] and [`suggest_tiers`]).
pub fn suggest_faults(unknown: &str) -> Vec<&'static str> {
    suggest_among(
        unknown,
        FaultKind::ALL.iter().map(|k| k.name()),
        FaultKind::ALL.len(),
    )
}

/// Looks a registry entry up by id (accepting the `fig17` alias the
/// paper text uses for `fig17b`).
pub fn spec_by_id(id: &str) -> Option<&'static ExperimentSpec> {
    let id = if id == "fig17" { "fig17b" } else { id };
    REGISTRY.iter().find(|spec| spec.id == id)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev + usize::from(ca != cb);
            prev = row[j + 1];
            row[j + 1] = sub.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// Shared near-miss scoring behind [`suggest_ids`], [`suggest_tiers`]
/// and the campaign runner's city suggestions: candidates within a
/// small edit distance or sharing a substring, closest first. Substring
/// matches (e.g. `fig8` → `fig8a/b/c`) outrank pure edit distance; ties
/// break on distance, then lexically. Public so callers with runtime
/// candidate lists — corpus city ids — get the exact same scoring.
pub fn suggest_among<'a>(
    unknown: &str,
    candidates: impl Iterator<Item = &'a str>,
    max: usize,
) -> Vec<&'a str> {
    let mut scored: Vec<(bool, usize, &'a str)> = candidates
        .map(|c| {
            let containment = c.contains(unknown) || unknown.contains(c);
            (!containment, levenshtein(unknown, c), c)
        })
        .filter(|(not_contained, d, _)| !*not_contained || *d <= 3)
        .collect();
    scored.sort();
    scored.into_iter().take(max).map(|(_, _, c)| c).collect()
}

/// Near-miss suggestions for an unknown experiment id: registry ids
/// *and family aliases* ([`FAMILIES`]) within a small edit distance or
/// sharing a substring, closest first — so `metro` suggests
/// `metro_scale` and `workload` suggests `workload_slo`, the names the
/// CLI actually accepts.
pub fn suggest_ids(unknown: &str, max: usize) -> Vec<&'static str> {
    suggest_among(
        unknown,
        REGISTRY
            .iter()
            .map(|spec| spec.id)
            .chain(FAMILIES.iter().copied()),
        max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each experiment's *shape* assertions live in the crates that own the
    // models; here we smoke-test that the harness functions produce
    // non-degenerate series quickly, and that the registry is sound.

    #[test]
    fn fig2a_has_69_cells_summarised() {
        let e = fig2a(&BuildCtx::new(Grid::Quick));
        assert_eq!(e.series.len(), 1);
        assert!(e.series[0].points.len() >= 10);
    }

    #[test]
    fn fig4a_matches_city_count() {
        let e = fig4a(&BuildCtx::new(Grid::Quick));
        assert_eq!(e.series[0].points.len(), 5);
        assert_eq!(e.series[1].points.len(), 5);
    }

    #[test]
    fn fig7_series_cover_all_powers() {
        let e = fig7(&BuildCtx::new(Grid::Quick));
        assert_eq!(e.series.len(), 5);
        // SNR at -20 dBm close-in beats -60 dBm far-out.
        let strong = e.series[0].points[0].1;
        let weak = e.series[4].points.last().unwrap().1;
        assert!(strong > weak + 10.0, "strong {strong} weak {weak}");
    }

    #[test]
    fn power_table_totals() {
        let e = power_table(&BuildCtx::new(Grid::Quick));
        let total = e.series[0].points[3].1;
        assert!((total - 11.07).abs() < 1e-9);
    }

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 31);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 31, "duplicate registry id");
        assert!(spec_by_id("nope").is_none());
    }

    #[test]
    fn varies_names_the_axes_each_figure_reads() {
        let tier = [
            "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11", "fig12", "fig13a",
            "fig13b", "fig14", "fig17b", "rates",
        ];
        let city = [
            "network_capacity",
            "workload_slo_latency",
            "workload_slo_miss",
            "fault_resilience_goodput",
            "fault_resilience_recovery",
            "metro_scale_goodput",
            "metro_scale_capture",
        ];
        let fault = ["fault_resilience_goodput", "fault_resilience_recovery"];
        for (axis, want) in [
            (Vary::Tier, &tier[..]),
            (Vary::City, &city[..]),
            (Vary::Fault, &fault[..]),
        ] {
            assert_eq!(ids_varying(axis), want, "{axis:?}");
        }
    }

    #[test]
    fn build_is_the_builder_in_the_canonical_context() {
        for id in ["fig2a", "fig2b", "fig4a", "fig4b", "power"] {
            let spec = spec_by_id(id).unwrap();
            assert_eq!(
                crate::check::canonical_json(&(spec.build)(Grid::Quick)),
                crate::check::canonical_json(&(spec.at)(&BuildCtx::new(Grid::Quick))),
                "{id}",
            );
        }
    }

    #[test]
    fn suggest_faults_finds_near_misses() {
        assert_eq!(suggest_faults("outge"), vec!["outage"]);
        assert_eq!(suggest_faults("brownouts"), vec!["brownout"]);
        assert!(suggest_faults("meteor-strike").is_empty());
    }

    #[test]
    fn fault_plans_cover_every_kind_and_only_their_own() {
        for kind in FaultKind::ALL {
            let plan = fault_plan(kind);
            assert!(!plan.is_none(), "{} plan injects nothing", kind.name());
            // The plan for one class must not smuggle another in: its
            // schedule has windows (or resets) only for its own kind.
            let sched = plan.schedule(400, 64);
            let populated = [
                (FaultKind::Outage, !sched.outages.is_empty()),
                (FaultKind::Brownout, !sched.brownouts.is_empty()),
                (FaultKind::Burst, !sched.bursts.is_empty()),
                (FaultKind::Reset, !sched.resets.is_empty()),
            ];
            for (k, has) in populated {
                assert_eq!(has, k == kind, "{:?} plan vs {:?} windows", kind, k);
            }
        }
    }

    #[test]
    fn suggest_tiers_finds_near_misses() {
        assert_eq!(suggest_tiers("physcial"), vec!["physical"]);
        assert_eq!(suggest_tiers("Fast"), vec!["fast"]);
        assert!(suggest_tiers("warp-speed").is_empty());
    }

    #[test]
    fn quantile_series_is_nondecreasing_and_nearest_rank() {
        let s = quantile_series("q".into(), vec![0.3, 0.0, 0.1, 0.2]);
        assert_eq!(s.points.len(), 3);
        // Nearest rank on 4 samples: p50 = 2nd, p90 = 4th, max = 4th.
        assert_eq!(s.points[0], (0.5, 0.1));
        assert_eq!(s.points[1], (0.9, 0.3));
        assert_eq!(s.points[2], (1.0, 0.3));
        let empty = quantile_series("q".into(), Vec::new());
        assert!(empty.points.iter().all(|p| p.1 == 0.0));
    }

    #[test]
    fn tier_title_tags_only_the_physical_tier() {
        assert_eq!(tier_title(Tier::Fast, "T"), "T");
        assert_eq!(tier_title(Tier::Physical, "T"), "T [physical tier]");
    }

    #[test]
    fn every_spec_has_one_to_four_checks() {
        for spec in REGISTRY {
            let n = (spec.checks)().len();
            assert!(
                (1..=4).contains(&n),
                "{} has {n} checks, want 1..=4",
                spec.id
            );
        }
    }

    #[test]
    fn cheap_figure_checks_pass_on_quick_grid() {
        // The sweep-driven figures are exercised by `repro --check` in
        // release CI; here the survey/occupancy/arithmetic figures (fast
        // even in debug) prove the expectation wiring end to end.
        for id in ["fig2a", "fig2b", "fig4a", "fig4b", "power"] {
            let spec = spec_by_id(id).unwrap();
            let e = (spec.build)(Grid::Quick);
            let report = crate::check::check_experiment(&e, &(spec.checks)());
            for o in &report.outcomes {
                assert!(o.passed, "{id}: {} — {}", o.description, o.detail);
            }
        }
    }

    #[test]
    fn suggest_ids_finds_near_misses() {
        assert!(suggest_ids("fig8", 5).contains(&"fig8a"));
        assert_eq!(suggest_ids("fig7", 1), vec!["fig7"]);
        assert!(suggest_ids("network", 3).contains(&"network_capacity"));
        assert!(suggest_ids("zzzzzzzzzzzz", 3).is_empty());
    }

    #[test]
    fn suggest_ids_ranks_family_aliases() {
        // The family aliases the CLI accepts must surface in "did you
        // mean" — and, being the shortest containing name, rank first.
        assert_eq!(suggest_ids("metro", 3)[0], "metro_scale");
        assert_eq!(suggest_ids("workload", 3)[0], "workload_slo");
        assert_eq!(suggest_ids("fault", 3)[0], "fault_resilience");
        assert!(suggest_ids("calibratio", 3).contains(&"calibration"));
    }

    #[test]
    fn every_family_alias_expands_to_figures() {
        for family in FAMILIES {
            let specs = family_specs(family);
            assert!(!specs.is_empty(), "family {family} expands to nothing");
            let prefix = format!("{family}_");
            assert!(specs.iter().all(|s| s.id.starts_with(&prefix)));
            // An alias must never shadow a real figure id.
            assert!(spec_by_id(family).is_none(), "{family} is also an id");
        }
        assert!(family_specs("fig7").is_empty());
    }

    #[test]
    fn suggest_among_accepts_runtime_candidates() {
        // The campaign runner scores corpus city ids (owned strings at
        // runtime) with the same function the static sets use.
        let cities = ["seattle".to_string(), "spokane".to_string()];
        let near = suggest_among("seatle", cities.iter().map(|s| s.as_str()), 2);
        assert_eq!(near, vec!["seattle"]);
    }

    #[test]
    fn fig17_alias_resolves() {
        let e = (spec_by_id("fig17").expect("alias").build)(Grid::Quick);
        assert_eq!(e.id, "fig17b");
        assert_eq!(e.series.len(), 2);
        assert_eq!(e.series[0].points.len(), 3);
    }

    #[test]
    fn dbm_series_labels_match_paper() {
        let e = fig7(&BuildCtx::new(Grid::Quick));
        let labels: Vec<&str> = e.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["-20 dBm", "-30 dBm", "-40 dBm", "-50 dBm", "-60 dBm"]
        );
        assert_eq!(e.series[0].points.len(), Grid::Quick.distances_ft().len());
    }
}

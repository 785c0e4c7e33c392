//! The BER-calibrated link abstraction.
//!
//! The network tier replaces per-packet physics with a table lookup: a
//! [`BerTable`] samples single-link bit-error rate from the physics
//! tiers (normally [`fmbs_core::sim::fast::FastSim`]) over a (power,
//! distance, rate) grid once, and every packet in a deployment then
//! costs one bilinear interpolation plus one Bernoulli draw instead of a
//! full waveform simulation. A calibration test in `tests/` pins the
//! interpolated table against direct simulation on held-out grid points,
//! so the abstraction cannot silently drift from the physics.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::metric::Ber;
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;
use fmbs_core::sim::Simulator;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// How to sample the physics tier when calibrating a [`BerTable`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BerTableSpec {
    /// Ambient-power grid (dBm), ascending.
    pub powers_dbm: Vec<f64>,
    /// Distance grid (feet), ascending.
    pub distances_ft: Vec<f64>,
    /// Bit rates to tabulate.
    pub bitrates: Vec<Bitrate>,
    /// Payload bits simulated per grid point (more bits, less sampling
    /// noise in the tabulated BER).
    pub bits_per_point: u32,
    /// Seed-rotated repetitions averaged per grid point.
    pub repeats: usize,
    /// Base seed of the calibration sweep.
    pub seed: u64,
}

impl BerTableSpec {
    /// A small grid that calibrates in well under a second: enough for
    /// the quick `network_capacity` figure, the examples and the tests.
    pub fn quick() -> Self {
        BerTableSpec {
            powers_dbm: vec![-60.0, -50.0, -40.0, -30.0],
            distances_ft: vec![2.0, 8.0, 14.0, 20.0],
            bitrates: vec![Bitrate::Kbps1_6],
            bits_per_point: 320,
            repeats: 2,
            seed: 0x11AB,
        }
    }

    /// A denser grid for the `--full` figure runs.
    pub fn dense() -> Self {
        BerTableSpec {
            powers_dbm: (0..9).map(|i| -60.0 + 5.0 * i as f64).collect(),
            distances_ft: (1..=10).map(|i| 2.0 * i as f64).collect(),
            bitrates: Bitrate::ALL.to_vec(),
            bits_per_point: 832,
            repeats: 4,
            seed: 0x11AB,
        }
    }
}

/// Single-link BER tabulated over (rate, power, distance), bilinearly
/// interpolated in (power, distance) and clamped at the grid edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BerTable {
    powers_dbm: Vec<f64>,
    distances_ft: Vec<f64>,
    bitrates: Vec<Bitrate>,
    /// Rate-major, then power, then distance.
    ber: Vec<f64>,
}

/// Clamped bracketing of `x` on an ascending grid: the two neighbouring
/// indices and the interpolation weight of the upper one.
fn bracket(grid: &[f64], x: f64) -> (usize, usize, f64) {
    assert!(!grid.is_empty());
    if x <= grid[0] {
        return (0, 0, 0.0);
    }
    if x >= grid[grid.len() - 1] {
        let last = grid.len() - 1;
        return (last, last, 0.0);
    }
    let hi = grid.partition_point(|&g| g <= x);
    let lo = hi - 1;
    let t = (x - grid[lo]) / (grid[hi] - grid[lo]);
    (lo, hi, t)
}

impl BerTable {
    /// Calibrates the table by sweeping `sim` over the spec's grid
    /// through the ordinary sweep engine (so calibration itself runs on
    /// parallel workers with deterministic per-point seeding).
    pub fn calibrate(sim: &dyn Simulator, spec: &BerTableSpec) -> Self {
        fmbs_obs::span!(fmbs_obs::stages::BER_CALIBRATE);
        let np = spec.powers_dbm.len();
        let nd = spec.distances_ft.len();
        let mut ber = Vec::with_capacity(spec.bitrates.len() * np * nd);
        for &bitrate in &spec.bitrates {
            let base = Scenario::bench(spec.powers_dbm[0], spec.distances_ft[0], ProgramKind::News)
                .with_seed(spec.seed)
                .with_workload(Workload::data(bitrate, spec.bits_per_point as usize));
            let results = SweepBuilder::new(base)
                .powers_dbm(spec.powers_dbm.iter().copied())
                .distances_ft(spec.distances_ft.iter().copied())
                .repeats(spec.repeats)
                .run(sim, &Ber::default());
            let mut sums = vec![0.0; np * nd];
            let mut counts = vec![0usize; np * nd];
            for p in &results.points {
                let cell = p.coords.power * nd + p.coords.distance;
                sums[cell] += p.value;
                counts[cell] += 1;
            }
            ber.extend(sums.iter().zip(&counts).map(|(s, &c)| s / c.max(1) as f64));
        }
        BerTable {
            powers_dbm: spec.powers_dbm.clone(),
            distances_ft: spec.distances_ft.clone(),
            bitrates: spec.bitrates.clone(),
            ber,
        }
    }

    /// Calibrates the table from the RF-rate **physical** tier
    /// ([`fmbs_core::sim::physical::PhysicalSim`] via
    /// [`fmbs_core::sim::Tier::Physical`]): the same sweep-engine
    /// calibration as [`Self::calibrate`], but sampling the reference
    /// physics instead of the fast approximation — so the network tier
    /// can be re-grounded past *two* abstraction layers, and
    /// [`Self::delta`] against a fast-calibrated table bounds the full
    /// fast→link→net stack. Physical sampling is orders of magnitude
    /// slower per point; keep the spec's grid small (the sweep cache
    /// shares the RF front end across each repetition's grid points,
    /// which is what makes even dense physical specs tractable).
    pub fn from_physical(spec: &BerTableSpec) -> Self {
        Self::calibrate(fmbs_core::sim::Tier::Physical.simulator(), spec)
    }

    /// Builds a table from explicit values (rate-major, then power, then
    /// distance) — for synthetic tables in tests and `examples/profile_point`.
    pub fn from_grid(
        powers_dbm: Vec<f64>,
        distances_ft: Vec<f64>,
        bitrates: Vec<Bitrate>,
        ber: Vec<f64>,
    ) -> Self {
        assert_eq!(
            ber.len(),
            bitrates.len() * powers_dbm.len() * distances_ft.len(),
            "value count must match the grid"
        );
        assert!(powers_dbm.windows(2).all(|w| w[0] < w[1]));
        assert!(distances_ft.windows(2).all(|w| w[0] < w[1]));
        BerTable {
            powers_dbm,
            distances_ft,
            bitrates,
            ber,
        }
    }

    /// Interpolated BER at (power, distance) for `bitrate`, clamped to
    /// the calibrated grid's edges.
    ///
    /// Panics if `bitrate` was not calibrated — a rate the table has
    /// never seen cannot be meaningfully interpolated.
    pub fn lookup(&self, bitrate: Bitrate, power_dbm: f64, distance_ft: f64) -> f64 {
        let bi = self
            .bitrates
            .iter()
            .position(|&b| b == bitrate)
            .unwrap_or_else(|| panic!("{bitrate:?} not calibrated into this table"));
        let nd = self.distances_ft.len();
        let plane = &self.ber[bi * self.powers_dbm.len() * nd..];
        let (p0, p1, tp) = bracket(&self.powers_dbm, power_dbm);
        let (d0, d1, td) = bracket(&self.distances_ft, distance_ft);
        let at = |p: usize, d: usize| plane[p * nd + d];
        (1.0 - tp) * ((1.0 - td) * at(p0, d0) + td * at(p0, d1))
            + tp * ((1.0 - td) * at(p1, d0) + td * at(p1, d1))
    }

    /// Probability a `bits`-long packet survives the link uncorrupted,
    /// assuming independent bit errors at the interpolated BER.
    pub fn packet_success_probability(
        &self,
        bitrate: Bitrate,
        power_dbm: f64,
        distance_ft: f64,
        bits: u32,
    ) -> f64 {
        let ber = self.lookup(bitrate, power_dbm, distance_ft).clamp(0.0, 1.0);
        (1.0 - ber).powi(bits as i32)
    }

    /// The bit rates this table was calibrated for.
    pub fn bitrates(&self) -> &[Bitrate] {
        &self.bitrates
    }

    /// Cell-by-cell comparison against another table on the *identical*
    /// grid (panics otherwise — a delta across different grids would be
    /// an interpolation artefact, not a physics difference). Convention:
    /// `self` is the reference (e.g. physical-calibrated), `other` the
    /// approximation under test.
    pub fn delta(&self, other: &BerTable) -> TableDelta {
        assert_eq!(self.powers_dbm, other.powers_dbm, "power grids differ");
        assert_eq!(
            self.distances_ft, other.distances_ft,
            "distance grids differ"
        );
        assert_eq!(self.bitrates, other.bitrates, "bit-rate sets differ");
        let nd = self.distances_ft.len();
        let np = self.powers_dbm.len();
        let cells = self
            .ber
            .iter()
            .zip(&other.ber)
            .enumerate()
            .map(|(i, (&a, &b))| {
                let (rate, rest) = (i / (np * nd), i % (np * nd));
                TableDeltaCell {
                    bitrate: self.bitrates[rate],
                    power_dbm: self.powers_dbm[rest / nd],
                    distance_ft: self.distances_ft[rest % nd],
                    reference: a,
                    other: b,
                }
            })
            .collect();
        TableDelta { cells }
    }
}

/// One grid cell of a [`TableDelta`].
#[derive(Debug, Clone, Copy)]
pub struct TableDeltaCell {
    /// Bit rate of the cell.
    pub bitrate: Bitrate,
    /// Ambient power of the cell.
    pub power_dbm: f64,
    /// Distance of the cell.
    pub distance_ft: f64,
    /// BER in the reference table (`self` in [`BerTable::delta`]).
    pub reference: f64,
    /// BER in the compared table.
    pub other: f64,
}

impl TableDeltaCell {
    /// Absolute BER difference at this cell.
    pub fn abs_delta(&self) -> f64 {
        (self.reference - self.other).abs()
    }
}

/// A fast-vs-physical link-table comparison: the per-cell |ΔBER| that
/// bounds how much error the link abstraction inherits from being
/// calibrated on the approximated tier ([`BerTable::delta`]).
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// Every compared cell, rate-major then power then distance.
    pub cells: Vec<TableDeltaCell>,
}

impl TableDelta {
    /// Largest per-cell |ΔBER|.
    pub fn max_abs(&self) -> f64 {
        self.cells
            .iter()
            .map(TableDeltaCell::abs_delta)
            .fold(0.0, f64::max)
    }

    /// Mean per-cell |ΔBER|.
    pub fn mean_abs(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells
            .iter()
            .map(TableDeltaCell::abs_delta)
            .sum::<f64>()
            / self.cells.len() as f64
    }

    /// The `q`-quantile (0..=1, nearest-rank) of the per-cell |ΔBER|.
    pub fn quantile_abs(&self, q: f64) -> f64 {
        let deltas: Vec<f64> = self.cells.iter().map(TableDeltaCell::abs_delta).collect();
        fmbs_dsp::stats::quantile_nearest_rank(&deltas, q)
    }

    /// A human-readable table-delta report: one line per cell plus the
    /// summary quantiles.
    pub fn render(&self) -> String {
        let mut out = String::from("rate        power   dist   reference  compared   |delta|\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:>6} {:>6}   {:>9.4} {:>9.4} {:>9.4}\n",
                c.bitrate.label(),
                c.power_dbm,
                c.distance_ft,
                c.reference,
                c.other,
                c.abs_delta(),
            ));
        }
        out.push_str(&format!(
            "p50 {:.4}  p90 {:.4}  max {:.4}  mean {:.4}\n",
            self.quantile_abs(0.5),
            self.quantile_abs(0.9),
            self.max_abs(),
            self.mean_abs(),
        ));
        out
    }
}

/// Packet-level outcome model: the probability that a whole frame
/// decodes cleanly as a function of the link's *raw* BER.
///
/// Overlay data carries a host-programme interference floor of roughly
/// 2% raw BER even on strong links, so uncoded frames of useful length
/// almost never survive — real deployments code their frames. The coded
/// model is *measured*, not assumed: it Monte-Carlos frames through the
/// repo's actual rate-1/2 Viterbi + interleaver
/// ([`fmbs_core::modem::fec`]) at each grid BER and interpolates the
/// resulting survival curve, the same sample-then-interpolate pattern as
/// [`BerTable`] itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketModel {
    ber_grid: Vec<f64>,
    success: Vec<f64>,
}

impl PacketModel {
    const GRID: [f64; 11] = [
        0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.25, 0.5,
    ];

    /// Measures survival of `packet_bits`-long frames under the
    /// rate-1/2 convolutional code with block interleaving, `trials`
    /// frames per grid BER. Deterministic in `seed`.
    pub fn coded(packet_bits: u32, trials: u32, seed: u64) -> Self {
        fmbs_obs::span!(fmbs_obs::stages::PACKET_MODEL);
        use fmbs_core::modem::fec::{decode_from_rx, encode_for_tx};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = packet_bits as usize;
        // Interleaver shape: near-square over the coded length.
        let coded_len = 2 * (n + 2);
        let rows = (coded_len as f64).sqrt().ceil() as usize;
        let cols = coded_len.div_ceil(rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let success = Self::GRID
            .iter()
            .map(|&p| {
                let mut ok = 0u32;
                for _ in 0..trials.max(1) {
                    let bits: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.5).collect();
                    let mut coded = encode_for_tx(&bits, rows, cols);
                    for b in coded.iter_mut() {
                        if rng.gen::<f64>() < p {
                            *b = !*b;
                        }
                    }
                    if decode_from_rx(&coded, n, rows, cols) == bits {
                        ok += 1;
                    }
                }
                ok as f64 / trials.max(1) as f64
            })
            .collect();
        PacketModel {
            ber_grid: Self::GRID.to_vec(),
            success,
        }
    }

    /// The standard model for a frame length: the FEC-measured curve
    /// (128 trials, seed derived from the frame length — a property of
    /// the code, not of any run). Each length is measured once per
    /// process, inside the table's lock, so every caller (and every
    /// sweep worker) shares one handle and the measurement count never
    /// depends on thread scheduling.
    pub fn for_frame(packet_bits: u32) -> Arc<PacketModel> {
        static MODELS: Mutex<BTreeMap<u32, Arc<PacketModel>>> = Mutex::new(BTreeMap::new());
        let mut models = MODELS.lock().expect("packet-model table poisoned");
        models
            .entry(packet_bits)
            .or_insert_with(|| {
                Arc::new(PacketModel::coded(
                    packet_bits,
                    128,
                    0xFEC ^ packet_bits as u64,
                ))
            })
            .clone()
    }

    /// Interpolated frame-survival probability at a raw link BER.
    pub fn success_probability(&self, ber: f64) -> f64 {
        let (lo, hi, t) = bracket(&self.ber_grid, ber.clamp(0.0, 0.5));
        ((1.0 - t) * self.success[lo] + t * self.success[hi]).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_table() -> BerTable {
        // BER = (power_idx + distance_idx)/10 on a 2x3 grid.
        BerTable::from_grid(
            vec![-60.0, -40.0],
            vec![5.0, 10.0, 15.0],
            vec![Bitrate::Kbps1_6],
            vec![0.0, 0.1, 0.2, 0.1, 0.2, 0.3],
        )
    }

    #[test]
    fn lookup_hits_grid_points_exactly() {
        let t = ramp_table();
        assert!((t.lookup(Bitrate::Kbps1_6, -60.0, 5.0) - 0.0).abs() < 1e-12);
        assert!((t.lookup(Bitrate::Kbps1_6, -40.0, 15.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lookup_interpolates_and_clamps() {
        let t = ramp_table();
        // Midpoint between (-60, 10) = 0.1 and (-40, 10) = 0.2.
        let mid = t.lookup(Bitrate::Kbps1_6, -50.0, 10.0);
        assert!((mid - 0.15).abs() < 1e-12, "mid {mid}");
        // Off-grid queries clamp to the edges.
        assert_eq!(
            t.lookup(Bitrate::Kbps1_6, -80.0, 1.0),
            t.lookup(Bitrate::Kbps1_6, -60.0, 5.0)
        );
        assert_eq!(
            t.lookup(Bitrate::Kbps1_6, 0.0, 99.0),
            t.lookup(Bitrate::Kbps1_6, -40.0, 15.0)
        );
    }

    #[test]
    fn packet_success_shrinks_with_length() {
        let t = ramp_table();
        let short = t.packet_success_probability(Bitrate::Kbps1_6, -40.0, 15.0, 16);
        let long = t.packet_success_probability(Bitrate::Kbps1_6, -40.0, 15.0, 256);
        assert!(short > long);
        assert!((0.0..=1.0).contains(&long));
    }

    #[test]
    #[should_panic(expected = "not calibrated")]
    fn uncalibrated_rate_panics() {
        ramp_table().lookup(Bitrate::Bps100, -40.0, 5.0);
    }

    #[test]
    fn delta_reports_cells_and_quantiles() {
        let a = ramp_table();
        let b = BerTable::from_grid(
            vec![-60.0, -40.0],
            vec![5.0, 10.0, 15.0],
            vec![Bitrate::Kbps1_6],
            vec![0.01, 0.1, 0.18, 0.1, 0.24, 0.3],
        );
        let d = a.delta(&b);
        assert_eq!(d.cells.len(), 6);
        // Cell coordinates unwind rate-major, power, then distance.
        assert_eq!(d.cells[1].power_dbm, -60.0);
        assert_eq!(d.cells[1].distance_ft, 10.0);
        assert!((d.cells[2].abs_delta() - 0.02).abs() < 1e-12);
        assert!((d.max_abs() - 0.04).abs() < 1e-12);
        // |deltas| = {0.01, 0, 0.02, 0, 0.04, 0}.
        assert!((d.mean_abs() - 0.07 / 6.0).abs() < 1e-12);
        assert!((d.quantile_abs(0.5) - 0.0).abs() < 1e-12);
        assert!((d.quantile_abs(1.0) - 0.04).abs() < 1e-12);
        let report = d.render();
        assert!(report.contains("max 0.0400"), "{report}");
    }

    #[test]
    fn packet_models_are_measured_once_per_frame_length() {
        let a = PacketModel::for_frame(256);
        let b = PacketModel::for_frame(256);
        assert!(Arc::ptr_eq(&a, &b), "one shared handle per length");
        let fresh = PacketModel::coded(256, 128, 0xFEC ^ 256);
        assert_eq!(*a, fresh);
        assert!(a
            .success
            .iter()
            .zip(&fresh.success)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    #[should_panic(expected = "distance grids differ")]
    fn delta_refuses_mismatched_grids() {
        let a = ramp_table();
        let b = BerTable::from_grid(
            vec![-60.0, -40.0],
            vec![5.0, 10.0],
            vec![Bitrate::Kbps1_6],
            vec![0.0, 0.1, 0.1, 0.2],
        );
        let _ = a.delta(&b);
    }
}

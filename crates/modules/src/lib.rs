//! The 45 DDR4 modules of the paper's Table 1, as simulated devices.
//!
//! Each [`ModuleSpec`] carries the module's organization (date code,
//! density, ranks, banks, pins), its measured `HC_first`, and the ground
//! truth of its TRR implementation (version, detection mechanism,
//! capacity, per-bank operation, TRR-to-REF ratio, neighbours refreshed)
//! exactly as the paper reports them. [`ModuleSpec::build`] instantiates
//! a [`dram_sim::Module`] with the matching geometry, the matching
//! ground-truth engine from the `trr` crate, vendor A's faster internal
//! refresh (Observation A8), and vendor C's paired-row organization for
//! C_TRR1 parts (Observation C3).
//!
//! Two classes of numbers live here (see DESIGN.md §5): the TRR columns
//! are *ground truth to be re-discovered* by U-TRR, while the
//! vulnerability columns (`HC_first`, % vulnerable rows, max flips)
//! *calibrate the physics* — the attack outcomes then emerge from the
//! pattern mechanics.
//!
//! # Example
//!
//! ```
//! use utrr_modules::{catalog, by_id};
//!
//! assert_eq!(catalog().len(), 45);
//! let a5 = by_id("A5").unwrap();
//! assert_eq!(a5.trr_version, "A_TRR1");
//! assert_eq!(a5.trr_to_ref_ratio, 9);
//! let module = a5.build_scaled(2048, 7);
//! assert_eq!(module.geometry().rows_per_bank, 2048);
//! ```

use dram_sim::{
    MitigationEngine, Module, ModuleConfig, ModuleGeometry, Nanos, PhysicsConfig, RefreshConfig,
    RowMapping, Timings, Topology,
};

/// DRAM vendor, anonymized as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Counter-based TRR (§6.1).
    A,
    /// Sampling-based TRR (§6.2).
    B,
    /// Mixed, activation-window TRR (§6.3).
    C,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::A => f.write_str("A"),
            Vendor::B => f.write_str("B"),
            Vendor::C => f.write_str("C"),
        }
    }
}

/// One row of Table 1: a DDR4 module's organization and its TRR ground
/// truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Module identifier, e.g. `"A5"`.
    pub id: String,
    /// Vendor.
    pub vendor: Vendor,
    /// Manufacturing date, `yy-ww`.
    pub date: &'static str,
    /// Chip density in Gbit.
    pub density_gbit: u8,
    /// Ranks on the module.
    pub ranks: u8,
    /// Banks per rank.
    pub banks: u8,
    /// Data pins per chip (x8 or x16).
    pub pins: u8,
    /// Minimum per-aggressor double-sided activation count to the first
    /// bit flip.
    pub hc_first: u64,
    /// TRR version identifier (`A_TRR1` … `C_TRR3`).
    pub trr_version: &'static str,
    /// The paper's "Aggressor Detection" column.
    pub detection: &'static str,
    /// The paper's "Aggressor Capacity" column (`None` = unknown).
    pub aggressor_capacity: Option<u32>,
    /// Whether TRR operates independently per bank.
    pub per_bank_trr: bool,
    /// One TRR-capable `REF` every this many `REF`s.
    pub trr_to_ref_ratio: u64,
    /// Victim rows refreshed per detection.
    pub neighbors_refreshed: u32,
    /// The paper's "% Vulnerable DRAM Rows" range (min, max).
    pub paper_vulnerable_pct: (f64, f64),
    /// The paper's "Max. Bit Flips per Row per Hammer" range (min, max).
    pub paper_max_flips_per_hammer: (f64, f64),
    /// Multiplier on the weak-cell retention window (`1.0` for every
    /// Table-1 part). The fleet generator perturbs this around the
    /// anchors to model die-to-die retention spread without touching the
    /// calibrated HC arithmetic.
    pub retention_scale: f64,
}

impl ModuleSpec {
    /// Rows per bank, following the paper's §7.3 discussion (16-bank
    /// 8 Gbit parts have 32K rows/bank, 8-bank parts 64K).
    pub fn rows_per_bank(&self) -> u32 {
        let chip_bits = self.density_gbit as u64 * (1 << 30);
        let bank_bits = chip_bits / self.banks as u64;
        // Reference point: 8 Gbit / 16 banks = 512 Mbit per bank = 32K
        // rows of 2^14 bits.
        (bank_bits / (1 << 14)) as u32
    }

    /// The simulated geometry (row size fixed at the 8 KiB DIMM-level
    /// row the paper counts 8-byte datawords over).
    pub fn geometry(&self) -> ModuleGeometry {
        ModuleGeometry { banks: self.banks, rows_per_bank: self.rows_per_bank(), row_bytes: 8192 }
    }

    /// Victim-row disturbance (in the simulator's units: one unit per
    /// adjacent full-weight activation) that the vendor's §7.1 custom
    /// pattern lands per `REF` interval — the arithmetic DESIGN.md §5's
    /// calibration is anchored on.
    fn attack_disturbance_per_interval(&self) -> f64 {
        match self.vendor {
            // 24 cascaded hammers per aggressor, first activation at full
            // weight, the rest discounted: 2 × (1 + 0.5 × 23).
            Vendor::A => 25.0,
            // Interleaved pairs at full budget in (ratio − 1) of ratio
            // intervals.
            Vendor::B => 148.0 * (self.trr_to_ref_ratio - 1) as f64 / self.trr_to_ref_ratio as f64,
            // ~2.15 intervals of window-opening dummies, then interleaved
            // pairs (or a cascaded single aggressor at half weight on the
            // paired-row organization).
            Vendor::C => {
                let hammer_intervals = (self.trr_to_ref_ratio as f64 - 2.15).max(1.0);
                let per_interval = if self.topology() == Topology::Paired { 74.0 } else { 148.0 };
                per_interval * hammer_intervals / self.trr_to_ref_ratio as f64
            }
        }
    }

    /// The calibrated cell physics (see DESIGN.md §5). `HC_first` comes
    /// straight from Table 1; the per-row threshold spread `hc_lambda`
    /// is solved from the module's "% Vulnerable DRAM Rows" column and
    /// the attack-disturbance arithmetic, and the flip ladder is scaled
    /// so the per-row flip ceiling tracks the "max flips per hammer"
    /// column. The attack *outcomes* still emerge mechanically: TRR
    /// escape dynamics, pattern budgets, and topology are simulated, not
    /// fitted.
    /// Expected uninterrupted attack span in `REF`s: the victim's
    /// regular-refresh period, truncated for vendor B by the sampler's
    /// diversion-failure rate (an aggressor occasionally survives the
    /// dummy barrage and gets its victims TRR-refreshed, ending the
    /// disturbance streak early).
    fn effective_attack_refs(&self) -> f64 {
        let period = self.refresh().period_refs as f64;
        match self.vendor {
            Vendor::B => {
                let (sample_prob, dummy_acts): (f64, f64) =
                    if self.per_bank_trr { (1.0 / 25.0, 149.0) } else { (1.0 / 100.0, 624.0) };
                let p_fail = (1.0 - sample_prob).powf(dummy_acts);
                // The victim's fate is set by the *longest* clean streak
                // it sees, not the mean one; over the thousands of TRR
                // windows in a refresh period the maximum of the
                // geometric streak lengths runs well past the mean (factor fitted at 2.2 against the delivered-streak statistics of a two-window evaluation).
                (2.2 * self.trr_to_ref_ratio as f64 / p_fail.max(1e-6)).min(period)
            }
            _ => period,
        }
    }

    pub fn physics(&self) -> PhysicsConfig {
        // On the paired-row organization a victim has a single aggressor
        // (its pair), so "HC_first activations per aggressor" maps to a
        // per-row threshold of HC_first disturbance units rather than
        // the 2×HC_first a double-sided victim accumulates.
        let hc_eff = if self.topology() == Topology::Paired {
            self.hc_first as f64 / 2.0
        } else {
            self.hc_first as f64
        };
        // Expected victim disturbance across its longest uninterrupted
        // attack streak.
        let d_max = self.attack_disturbance_per_interval() * self.effective_attack_refs();
        let r = d_max / (2.0 * hc_eff);
        let v = ((self.paper_vulnerable_pct.0 + self.paper_vulnerable_pct.1) / 200.0)
            .clamp(0.005, 0.995);
        let hc_lambda = ((r - 1.0).max(0.05) / -(1.0 - v).ln()).clamp(0.02, 300.0);

        // Flip ladder: the weakest sampled rows should reach the paper's
        // per-row flip ceiling at the vendor's typical hammer rate.
        let typical_hammers = match self.vendor {
            Vendor::A => 26.0,
            Vendor::B => 55.0,
            Vendor::C => 65.0,
        };
        let target_flips = (self.paper_max_flips_per_hammer.1 * typical_hammers).max(4.0);
        let hc_cell_step = (2.0 / target_flips).clamp(5e-4, 0.2);
        let hc_max_cells = ((target_flips * 2.0) as u32).clamp(16, 8_192);

        // Die-to-die retention spread: the generator's multiplier moves
        // the whole weak-cell retention window; the anchors sit at 1.0
        // (80 ms – 2 s), so Table-1 builds are bit-identical to before.
        let scale_nanos = |base: Nanos| -> Nanos {
            if self.retention_scale == 1.0 {
                base
            } else {
                Nanos::from_ns((base.as_ns() as f64 * self.retention_scale).max(1.0) as u64)
            }
        };
        PhysicsConfig {
            weak_row_prob: 1.0,
            extra_weak_cell_prob: 0.35,
            retention_min: scale_nanos(Nanos::from_ms(80)),
            retention_max: scale_nanos(Nanos::from_ms(2_000)),
            vrt_prob: 0.15,
            vrt_switch_prob: 0.08,
            vrt_retention_factor: 3.0,
            hc_first: hc_eff,
            hc_lambda,
            hc_cell_step,
            hc_max_cells,
            radius2_weight: 0.25,
            same_row_discount: 0.5,
            striped_aggressor_coupling: 0.85,
            temperature_c: PhysicsConfig::REFERENCE_TEMP_C,
        }
    }

    /// Regular-refresh schedule: vendor A chips internally refresh each
    /// row once every 3758 `REF`s (Observation A8); everyone else
    /// follows the nominal ~8K.
    pub fn refresh(&self) -> RefreshConfig {
        match self.vendor {
            Vendor::A => RefreshConfig { period_refs: 3758 },
            _ => RefreshConfig::ddr4_nominal(),
        }
    }

    /// The logical→physical row mapping of this part. Most parts use the
    /// identity; a few carry decoder scrambling so the §5.3 mapping
    /// reverse engineering has something to find.
    pub fn mapping(&self) -> RowMapping {
        match self.id.as_str() {
            "A0" => RowMapping::msb_xor(3, 0b110),
            "B7" => RowMapping::block_mirror(3),
            _ => RowMapping::Identity,
        }
    }

    /// Disturbance topology: C_TRR1 parts (C0–C8) use the paired-row
    /// organization of Observation C3.
    pub fn topology(&self) -> Topology {
        if self.vendor == Vendor::C && self.trr_version == "C_TRR1" {
            Topology::Paired
        } else {
            Topology::Linear
        }
    }

    /// The ground-truth mitigation engine.
    pub fn engine(&self, seed: u64) -> Box<dyn MitigationEngine> {
        trr::engine_for_version(self.trr_version, self.banks, seed)
    }

    /// Builds the module at its full Table-1 geometry.
    pub fn build(&self, seed: u64) -> Module {
        self.build_scaled(self.rows_per_bank(), seed)
    }

    /// Builds the module with a reduced `rows_per_bank` — experiments
    /// that sample victim positions are unbiased under scaling, and the
    /// regular-refresh *period in REFs* is preserved so TRR-to-REF
    /// interactions stay faithful.
    pub fn build_scaled(&self, rows_per_bank: u32, seed: u64) -> Module {
        let mut geometry = self.geometry();
        geometry.rows_per_bank = rows_per_bank;
        let config = ModuleConfig {
            geometry,
            timings: Timings::ddr4(),
            physics: self.physics(),
            mapping: {
                // Keep the decoder scrambling whenever it remains a
                // bijection at the scaled size; fall back to identity
                // otherwise.
                let mapping = self.mapping();
                if mapping.valid_for(rows_per_bank) {
                    mapping
                } else {
                    RowMapping::Identity
                }
            },
            topology: self.topology(),
            refresh: self.refresh(),
        };
        Module::with_engine(config, self.engine(seed ^ 0x7272), seed)
    }
}

/// Expands one Table-1 row (which may cover several modules) into
/// individual [`ModuleSpec`]s.
struct Row {
    vendor: Vendor,
    first_idx: u32,
    count: u32,
    date: &'static str,
    density: u8,
    ranks: u8,
    banks: u8,
    pins: u8,
    hc_first: (u64, u64),
    version: &'static str,
    detection: &'static str,
    capacity: Option<u32>,
    per_bank: bool,
    ratio: u64,
    neighbors: u32,
    vulnerable: (f64, f64),
    max_flips: (f64, f64),
}

impl Row {
    fn expand(&self, out: &mut Vec<ModuleSpec>) {
        for i in 0..self.count {
            // Interpolate HC_first across the row's reported range.
            let hc = if self.count == 1 {
                self.hc_first.0
            } else {
                let span = self.hc_first.1 - self.hc_first.0;
                self.hc_first.0 + span * i as u64 / (self.count - 1) as u64
            };
            // Interpolate per-module vulnerability across the row's
            // reported range (stronger HC_first parts sit at the weak
            // end of the vulnerability range).
            let frac = if self.count == 1 { 0.0 } else { i as f64 / (self.count - 1) as f64 };
            let v = self.vulnerable.0 + (self.vulnerable.1 - self.vulnerable.0) * frac;
            out.push(ModuleSpec {
                id: format!("{}{}", self.vendor, self.first_idx + i),
                vendor: self.vendor,
                date: self.date,
                density_gbit: self.density,
                ranks: self.ranks,
                banks: self.banks,
                pins: self.pins,
                hc_first: hc,
                trr_version: self.version,
                detection: self.detection,
                aggressor_capacity: self.capacity,
                per_bank_trr: self.per_bank,
                trr_to_ref_ratio: self.ratio,
                neighbors_refreshed: self.neighbors,
                paper_vulnerable_pct: (v, v),
                paper_max_flips_per_hammer: self.max_flips,
                retention_scale: 1.0,
            });
        }
    }
}

/// The full Table 1: all 45 modules.
pub fn catalog() -> Vec<ModuleSpec> {
    use Vendor::{A, B, C};
    let rows = [
        // Vendor A — counter-based, every 9th REF, per-bank, 16 entries.
        Row {
            vendor: A,
            first_idx: 0,
            count: 1,
            date: "19-50",
            density: 8,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (16_000, 16_000),
            version: "A_TRR1",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 4,
            vulnerable: (73.3, 73.3),
            max_flips: (1.16, 1.16),
        },
        Row {
            vendor: A,
            first_idx: 1,
            count: 5,
            date: "19-36",
            density: 8,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (13_000, 15_000),
            version: "A_TRR1",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 4,
            vulnerable: (99.2, 99.4),
            max_flips: (2.32, 4.73),
        },
        Row {
            vendor: A,
            first_idx: 6,
            count: 2,
            date: "19-45",
            density: 8,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (13_000, 15_000),
            version: "A_TRR1",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 4,
            vulnerable: (99.3, 99.4),
            max_flips: (2.12, 3.86),
        },
        Row {
            vendor: A,
            first_idx: 8,
            count: 2,
            date: "20-07",
            density: 8,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (12_000, 14_000),
            version: "A_TRR1",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 4,
            vulnerable: (74.6, 75.0),
            max_flips: (1.96, 2.96),
        },
        Row {
            vendor: A,
            first_idx: 10,
            count: 3,
            date: "19-51",
            density: 8,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (12_000, 13_000),
            version: "A_TRR1",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 4,
            vulnerable: (74.6, 75.0),
            max_flips: (1.48, 2.86),
        },
        Row {
            vendor: A,
            first_idx: 13,
            count: 2,
            date: "20-31",
            density: 8,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (11_000, 14_000),
            version: "A_TRR2",
            detection: "Counter-based",
            capacity: Some(16),
            per_bank: true,
            ratio: 9,
            neighbors: 2,
            vulnerable: (94.3, 98.6),
            max_flips: (1.53, 2.78),
        },
        // Vendor B — sampling-based, single shared register (B_TRR3: per bank).
        Row {
            vendor: B,
            first_idx: 0,
            count: 1,
            date: "18-22",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (44_000, 44_000),
            version: "B_TRR1",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 4,
            neighbors: 2,
            vulnerable: (99.9, 99.9),
            max_flips: (2.13, 2.13),
        },
        Row {
            vendor: B,
            first_idx: 1,
            count: 4,
            date: "20-17",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (159_000, 192_000),
            version: "B_TRR1",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 4,
            neighbors: 2,
            vulnerable: (23.3, 51.2),
            max_flips: (0.06, 0.11),
        },
        Row {
            vendor: B,
            first_idx: 5,
            count: 2,
            date: "16-48",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (44_000, 50_000),
            version: "B_TRR1",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 4,
            neighbors: 2,
            vulnerable: (99.9, 99.9),
            max_flips: (1.85, 2.03),
        },
        Row {
            vendor: B,
            first_idx: 7,
            count: 1,
            date: "19-06",
            density: 8,
            ranks: 2,
            banks: 16,
            pins: 8,
            hc_first: (20_000, 20_000),
            version: "B_TRR1",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 4,
            neighbors: 2,
            vulnerable: (99.9, 99.9),
            max_flips: (31.14, 31.14),
        },
        Row {
            vendor: B,
            first_idx: 8,
            count: 1,
            date: "18-03",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (43_000, 43_000),
            version: "B_TRR1",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 4,
            neighbors: 2,
            vulnerable: (99.9, 99.9),
            max_flips: (2.57, 2.57),
        },
        Row {
            vendor: B,
            first_idx: 9,
            count: 4,
            date: "19-48",
            density: 8,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (42_000, 65_000),
            version: "B_TRR2",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: false,
            ratio: 9,
            neighbors: 2,
            vulnerable: (36.3, 38.9),
            max_flips: (16.83, 24.26),
        },
        Row {
            vendor: B,
            first_idx: 13,
            count: 2,
            date: "20-08",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (11_000, 14_000),
            version: "B_TRR3",
            detection: "Sampling-based",
            capacity: Some(1),
            per_bank: true,
            ratio: 2,
            neighbors: 4,
            vulnerable: (99.9, 99.9),
            max_flips: (16.20, 18.12),
        },
        // Vendor C — mixed/windowed; C_TRR1 parts use paired rows.
        Row {
            vendor: C,
            first_idx: 0,
            count: 4,
            date: "16-48",
            density: 4,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (137_000, 194_000),
            version: "C_TRR1",
            detection: "Mix",
            capacity: None,
            per_bank: true,
            ratio: 17,
            neighbors: 2,
            vulnerable: (1.0, 23.2),
            max_flips: (0.05, 0.15),
        },
        Row {
            vendor: C,
            first_idx: 4,
            count: 3,
            date: "17-12",
            density: 8,
            ranks: 1,
            banks: 16,
            pins: 8,
            hc_first: (130_000, 150_000),
            version: "C_TRR1",
            detection: "Mix",
            capacity: None,
            per_bank: true,
            ratio: 17,
            neighbors: 2,
            vulnerable: (7.8, 12.0),
            max_flips: (0.06, 0.08),
        },
        Row {
            vendor: C,
            first_idx: 7,
            count: 2,
            date: "20-31",
            density: 8,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (40_000, 44_000),
            version: "C_TRR1",
            detection: "Mix",
            capacity: None,
            per_bank: true,
            ratio: 17,
            neighbors: 2,
            vulnerable: (39.8, 41.8),
            max_flips: (9.66, 14.56),
        },
        Row {
            vendor: C,
            first_idx: 9,
            count: 3,
            date: "20-31",
            density: 8,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (42_000, 53_000),
            version: "C_TRR2",
            detection: "Mix",
            capacity: None,
            per_bank: true,
            ratio: 9,
            neighbors: 2,
            vulnerable: (99.7, 99.7),
            max_flips: (9.30, 32.04),
        },
        Row {
            vendor: C,
            first_idx: 12,
            count: 3,
            date: "20-46",
            density: 16,
            ranks: 1,
            banks: 8,
            pins: 16,
            hc_first: (6_000, 7_000),
            version: "C_TRR3",
            detection: "Mix",
            capacity: None,
            per_bank: true,
            ratio: 8,
            neighbors: 2,
            vulnerable: (99.9, 99.9),
            max_flips: (4.91, 12.64),
        },
    ];
    let mut out = Vec::with_capacity(45);
    for row in &rows {
        row.expand(&mut out);
    }
    out
}

/// Looks a module up by its Table-1 identifier.
pub fn by_id(id: &str) -> Option<ModuleSpec> {
    catalog().into_iter().find(|m| m.id == id)
}

/// All modules implementing one TRR version (`"A_TRR1"`…`"C_TRR3"`).
pub fn by_version(version: &str) -> Vec<ModuleSpec> {
    catalog().into_iter().filter(|m| m.trr_version == version).collect()
}

/// The three representative modules the paper's Fig. 8 sweeps
/// (A5, B8, C7: the most flip-prone module of each vendor's first TRR
/// version).
pub fn fig8_modules() -> Vec<ModuleSpec> {
    ["A5", "B8", "C7"].iter().map(|id| by_id(id).expect("catalog contains it")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_45_modules() {
        let all = catalog();
        assert_eq!(all.len(), 45);
        let a = all.iter().filter(|m| m.vendor == Vendor::A).count();
        let b = all.iter().filter(|m| m.vendor == Vendor::B).count();
        let c = all.iter().filter(|m| m.vendor == Vendor::C).count();
        assert_eq!((a, b, c), (15, 15, 15));
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let all = catalog();
        let mut ids: Vec<&str> = all.iter().map(|m| m.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(all[0].id, "A0");
        assert_eq!(all[44].id, "C14");
    }

    #[test]
    fn table1_spot_checks() {
        let a0 = by_id("A0").unwrap();
        assert_eq!(a0.hc_first, 16_000);
        assert_eq!(a0.banks, 16);
        assert_eq!(a0.neighbors_refreshed, 4);
        let b13 = by_id("B13").unwrap();
        assert_eq!(b13.trr_version, "B_TRR3");
        assert_eq!(b13.trr_to_ref_ratio, 2);
        assert!(b13.per_bank_trr);
        let c12 = by_id("C12").unwrap();
        assert_eq!(c12.density_gbit, 16);
        assert_eq!(c12.trr_to_ref_ratio, 8);
    }

    #[test]
    fn rows_per_bank_matches_section_7_3() {
        // §7.3: 16-bank 8 Gbit parts have 32K rows/bank, 8-bank 64K.
        assert_eq!(by_id("A0").unwrap().rows_per_bank(), 32 * 1024);
        assert_eq!(by_id("A5").unwrap().rows_per_bank(), 64 * 1024);
        assert_eq!(by_id("B0").unwrap().rows_per_bank(), 16 * 1024);
        assert_eq!(by_id("C12").unwrap().rows_per_bank(), 128 * 1024);
    }

    #[test]
    fn hc_first_interpolates_across_ranges() {
        assert_eq!(by_id("A1").unwrap().hc_first, 13_000);
        assert_eq!(by_id("A5").unwrap().hc_first, 15_000);
        assert_eq!(by_id("B1").unwrap().hc_first, 159_000);
        assert_eq!(by_id("B4").unwrap().hc_first, 192_000);
    }

    #[test]
    fn built_modules_carry_their_engine_and_refresh() {
        let a5 = by_id("A5").unwrap().build_scaled(1024, 3);
        assert_eq!(a5.engine_name(), "A_TRR1");
        assert_eq!(a5.config().refresh.period_refs, 3758);
        let b0 = by_id("B0").unwrap().build_scaled(1024, 3);
        assert_eq!(b0.engine_name(), "B_TRR1");
        assert_eq!(b0.config().refresh.period_refs, 8192);
    }

    #[test]
    fn registry_builds_share_one_artifact() {
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let mut m = by_id("A5").unwrap().build_scaled(1024, 3);
        m.attach_registry(std::sync::Arc::clone(&registry));
        m.hammer(dram_sim::Bank::new(0), dram_sim::RowAddr::new(10), 50).unwrap();
        m.flush_metrics();
        assert_eq!(registry.counter("dram.cmd.act").get(), 50);
        // Attaching also re-registers the engine's counters on the
        // shared registry.
        let names: Vec<String> = registry.counters_snapshot().into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n == "trr.A_TRR1.detections"), "{names:?}");
    }

    #[test]
    fn c_trr1_parts_are_paired() {
        assert_eq!(by_id("C7").unwrap().topology(), Topology::Paired);
        assert_eq!(by_id("C9").unwrap().topology(), Topology::Linear);
        assert_eq!(by_id("A5").unwrap().topology(), Topology::Linear);
    }

    #[test]
    fn fig8_representatives() {
        let reps = fig8_modules();
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0].id, "A5");
        assert_eq!(reps[1].trr_version, "B_TRR1");
        assert_eq!(reps[2].trr_version, "C_TRR1");
    }

    #[test]
    fn scaled_builds_keep_valid_mappings() {
        let a0 = by_id("A0").unwrap();
        assert_eq!(a0.mapping(), dram_sim::RowMapping::msb_xor(3, 0b110));
        // The MsbXor scheme stays a bijection at any 16-aligned size, so
        // scaled builds keep it…
        let scaled = a0.build_scaled(512, 1);
        assert_eq!(scaled.config().mapping, dram_sim::RowMapping::msb_xor(3, 0b110));
        // …and only misaligned sizes fall back to identity.
        let odd = a0.build_scaled(1_000, 1);
        assert_eq!(odd.config().mapping, dram_sim::RowMapping::Identity);
        let full = a0.build(1);
        assert_eq!(full.config().mapping, dram_sim::RowMapping::msb_xor(3, 0b110));
    }

    #[test]
    fn version_filter() {
        assert_eq!(by_version("B_TRR2").len(), 4);
        assert_eq!(by_version("C_TRR1").len(), 9);
        assert!(by_version("X_TRR9").is_empty());
    }

    #[test]
    fn retention_scale_moves_the_retention_window() {
        let anchor = by_id("A5").unwrap();
        let base = anchor.physics();
        assert_eq!(base.retention_min, Nanos::from_ms(80));
        assert_eq!(base.retention_max, Nanos::from_ms(2_000));
        let mut scaled = anchor.clone();
        scaled.retention_scale = 1.25;
        let physics = scaled.physics();
        assert_eq!(physics.retention_min, Nanos::from_ms(100));
        assert_eq!(physics.retention_max, Nanos::from_ms(2_500));
        // The HC calibration is untouched by retention spread.
        assert_eq!(physics.hc_first, base.hc_first);
        assert_eq!(physics.hc_lambda, base.hc_lambda);
    }

    #[test]
    fn physics_flip_caps_track_paper_flip_ceilings() {
        let weak = by_id("C0").unwrap().physics(); // 0.15 flips/hammer
        let strong = by_id("B7").unwrap().physics(); // 31.14 flips/hammer
        assert!(weak.hc_max_cells < strong.hc_max_cells);
        assert_eq!(by_id("A5").unwrap().physics().hc_first, 15_000.0);
    }
}

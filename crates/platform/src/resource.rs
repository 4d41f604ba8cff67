//! FPGA resource modeling — the substitute for ISE synthesis reports.
//!
//! Tables 1 and 2 of the paper report post-synthesis area (slices, slice
//! flip-flops, 4-input LUTs, block RAMs, DSP48s) for the full system and
//! for the SPI library relative to the full system. Without an HDL flow
//! we model area *additively*: every hardware component carries a
//! [`ResourceEstimate`], designs aggregate their components, and
//! utilization is reported against a Virtex-4 device capacity table.
//! Component costs are calibrated to typical Virtex-4-era IP sizes so
//! the *relative* conclusions (SPI's share of the system) are meaningful;
//! absolute counts are indicative only.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Post-synthesis area estimate in Virtex-4 resource categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Occupied slices.
    pub slices: u64,
    /// Slice flip-flops.
    pub slice_ffs: u64,
    /// 4-input LUTs.
    pub lut4: u64,
    /// 18-kbit block RAMs.
    pub bram: u64,
    /// DSP48 blocks.
    pub dsp48: u64,
}

impl ResourceEstimate {
    /// A zero estimate.
    pub const ZERO: ResourceEstimate = ResourceEstimate {
        slices: 0,
        slice_ffs: 0,
        lut4: 0,
        bram: 0,
        dsp48: 0,
    };

    /// Creates an estimate from the five category counts.
    pub fn new(slices: u64, slice_ffs: u64, lut4: u64, bram: u64, dsp48: u64) -> Self {
        ResourceEstimate {
            slices,
            slice_ffs,
            lut4,
            bram,
            dsp48,
        }
    }

    /// Fraction of `self` relative to `total`, per category (0–100 %).
    /// Categories where `total` is zero report 0.
    pub fn percent_of(&self, total: &ResourceEstimate) -> ResourcePercent {
        let pct = |a: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                100.0 * a as f64 / b as f64
            }
        };
        ResourcePercent {
            slices: pct(self.slices, total.slices),
            slice_ffs: pct(self.slice_ffs, total.slice_ffs),
            lut4: pct(self.lut4, total.lut4),
            bram: pct(self.bram, total.bram),
            dsp48: pct(self.dsp48, total.dsp48),
        }
    }
}

impl Add for ResourceEstimate {
    type Output = ResourceEstimate;

    fn add(self, rhs: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            slices: self.slices + rhs.slices,
            slice_ffs: self.slice_ffs + rhs.slice_ffs,
            lut4: self.lut4 + rhs.lut4,
            bram: self.bram + rhs.bram,
            dsp48: self.dsp48 + rhs.dsp48,
        }
    }
}

impl AddAssign for ResourceEstimate {
    fn add_assign(&mut self, rhs: ResourceEstimate) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for ResourceEstimate {
    type Output = ResourceEstimate;

    fn mul(self, n: u64) -> ResourceEstimate {
        ResourceEstimate {
            slices: self.slices * n,
            slice_ffs: self.slice_ffs * n,
            lut4: self.lut4 * n,
            bram: self.bram * n,
            dsp48: self.dsp48 * n,
        }
    }
}

impl Sum for ResourceEstimate {
    fn sum<I: Iterator<Item = ResourceEstimate>>(iter: I) -> ResourceEstimate {
        iter.fold(ResourceEstimate::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} slices, {} FFs, {} LUT4, {} BRAM, {} DSP48",
            self.slices, self.slice_ffs, self.lut4, self.bram, self.dsp48
        )
    }
}

/// Per-category utilization percentages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourcePercent {
    /// Slices, percent.
    pub slices: f64,
    /// Slice flip-flops, percent.
    pub slice_ffs: f64,
    /// 4-input LUTs, percent.
    pub lut4: f64,
    /// Block RAMs, percent.
    pub bram: f64,
    /// DSP48s, percent.
    pub dsp48: f64,
}

impl fmt::Display for ResourcePercent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}% slices, {:.2}% FFs, {:.2}% LUT4, {:.2}% BRAM, {:.2}% DSP48",
            self.slices, self.slice_ffs, self.lut4, self.bram, self.dsp48
        )
    }
}

/// Device capacity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// Total capacity in each category.
    pub capacity: ResourceEstimate,
}

impl Device {
    /// Xilinx Virtex-4 SX35 (the paper's device family, speed grade −10):
    /// 15 360 slices, 30 720 FFs/LUTs, 192 BRAMs, 192 DSP48s.
    pub fn virtex4_sx35() -> Device {
        Device {
            name: "Virtex-4 SX35",
            capacity: ResourceEstimate::new(15_360, 30_720, 30_720, 192, 192),
        }
    }

    /// Utilization of `used` on this device.
    pub fn utilization(&self, used: &ResourceEstimate) -> ResourcePercent {
        used.percent_of(&self.capacity)
    }
}

/// Calibrated component library (typical Virtex-4-era IP sizes).
///
/// These constants are this reproduction's substitute for ISE synthesis;
/// see `DESIGN.md` for the substitution rationale.
pub mod components {
    use super::ResourceEstimate;

    /// One SPI_send actor for the static interface: edge-ID header
    /// emission + FIFO write port + pointer logic.
    pub fn spi_send_static() -> ResourceEstimate {
        ResourceEstimate::new(30, 45, 55, 0, 0)
    }

    /// One SPI_receive actor for the static interface.
    pub fn spi_receive_static() -> ResourceEstimate {
        ResourceEstimate::new(28, 40, 52, 0, 0)
    }

    /// SPI_send for the dynamic interface: adds a message-size header
    /// field and size counter.
    pub fn spi_send_dynamic() -> ResourceEstimate {
        ResourceEstimate::new(42, 62, 78, 0, 0)
    }

    /// SPI_receive for the dynamic interface: size-field parse + variable
    /// length countdown.
    pub fn spi_receive_dynamic() -> ResourceEstimate {
        ResourceEstimate::new(40, 58, 74, 0, 0)
    }

    /// SPI_init (per subsystem): edge table + pointer initialization.
    pub fn spi_init() -> ResourceEstimate {
        ResourceEstimate::new(18, 22, 30, 0, 0)
    }

    /// One inter-processor FIFO buffer of `bytes` capacity: BRAM-backed
    /// above 512 B (one 18-kbit BRAM per 2 KiB), distributed RAM below.
    pub fn ipc_fifo(bytes: u64) -> ResourceEstimate {
        if bytes > 512 {
            let brams = bytes.div_ceil(2048);
            ResourceEstimate::new(20, 24, 28, brams, 0)
        } else {
            // LUT-RAM: ~1 LUT per 2 bytes plus control.
            ResourceEstimate::new(16 + bytes / 8, 20, 24 + bytes / 2, 0, 0)
        }
    }

    /// Radix-2 streaming FFT datapath for `n`-point frames.
    pub fn fft_core(n: u64) -> ResourceEstimate {
        let stages = 64 - u64::from(n.max(2).leading_zeros()) - 1;
        ResourceEstimate::new(
            350 + 40 * stages,
            700 + 60 * stages,
            900 + 90 * stages,
            2,
            4 * stages,
        )
    }

    /// LU-decomposition solver for an `m × m` system.
    pub fn lu_solver(m: u64) -> ResourceEstimate {
        ResourceEstimate::new(250 + 12 * m, 420 + 18 * m, 600 + 30 * m, 2, 8)
    }

    /// Prediction-error generator over frames of `n` samples with model
    /// order `m`: a double-precision MAC pipeline with section memory —
    /// substantial on 2008-era fabric.
    pub fn error_generator(m: u64) -> ResourceEstimate {
        ResourceEstimate::new(1_350 + 20 * m, 2_100 + 30 * m, 2_700 + 40 * m, 1, 8)
    }

    /// Huffman encoder (canonical, table in BRAM).
    pub fn huffman_encoder() -> ResourceEstimate {
        ResourceEstimate::new(180, 260, 380, 2, 0)
    }

    /// Frame reader / I/O interface.
    pub fn io_interface() -> ResourceEstimate {
        ResourceEstimate::new(90, 150, 200, 1, 0)
    }

    /// One particle-filter PE handling `particles` particles: state
    /// propagation, likelihood (exp) evaluation, weight update and local
    /// resampling datapaths — the dominant blocks of the paper's
    /// application 2 ("the computational requirement was relatively
    /// high and hence only 2 PEs could be accommodated").
    pub fn particle_filter_pe(particles: u64) -> ResourceEstimate {
        // Particle memory: 16 B/particle state+weight in BRAM.
        let brams = (particles * 16).div_ceil(2048).max(1) + 4;
        ResourceEstimate::new(5_200, 8_600, 9_400, brams, 32)
    }

    /// Gaussian noise generator (Box–Muller, table-assisted).
    pub fn noise_generator() -> ResourceEstimate {
        ResourceEstimate::new(220, 380, 520, 1, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_composes() {
        let a = ResourceEstimate::new(1, 2, 3, 4, 5);
        let b = ResourceEstimate::new(10, 20, 30, 40, 50);
        assert_eq!(a + b, ResourceEstimate::new(11, 22, 33, 44, 55));
        assert_eq!(a * 3, ResourceEstimate::new(3, 6, 9, 12, 15));
        let sum: ResourceEstimate = vec![a, b, a].into_iter().sum();
        assert_eq!(sum, ResourceEstimate::new(12, 24, 36, 48, 60));
    }

    #[test]
    fn percent_of_handles_zero_categories() {
        let spi = ResourceEstimate::new(50, 0, 0, 0, 0);
        let total = ResourceEstimate::new(1000, 0, 0, 0, 0);
        let p = spi.percent_of(&total);
        assert!((p.slices - 5.0).abs() < 1e-12);
        assert_eq!(p.dsp48, 0.0);
    }

    #[test]
    fn virtex4_capacities_match_datasheet() {
        let dev = Device::virtex4_sx35();
        assert_eq!(dev.capacity.slices, 15_360);
        assert_eq!(dev.capacity.bram, 192);
        assert_eq!(dev.capacity.dsp48, 192);
    }

    #[test]
    fn fifo_model_switches_to_bram() {
        let small = components::ipc_fifo(256);
        assert_eq!(small.bram, 0);
        let big = components::ipc_fifo(4096);
        assert_eq!(big.bram, 2);
    }

    #[test]
    fn spi_components_are_small_relative_to_cores() {
        let spi_pair = components::spi_send_dynamic() + components::spi_receive_dynamic();
        let fft = components::fft_core(1024);
        assert!(
            spi_pair.slices * 4 < fft.slices,
            "SPI must be small vs. compute cores"
        );
    }

    #[test]
    fn utilization_is_bounded_for_real_designs() {
        let dev = Device::virtex4_sx35();
        let design = components::fft_core(1024)
            + components::lu_solver(16)
            + components::huffman_encoder()
            + components::io_interface();
        let u = dev.utilization(&design);
        assert!(u.slices < 100.0);
        assert!(u.lut4 < 100.0);
    }

    #[test]
    fn display_formats_every_category() {
        let e = ResourceEstimate::new(1, 2, 3, 4, 5);
        let s = e.to_string();
        for cat in ["slices", "FFs", "LUT4", "BRAM", "DSP48"] {
            assert!(s.contains(cat));
        }
    }
}

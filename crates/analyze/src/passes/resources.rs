//! SPI070 — resource overcommit against the target device.
//!
//! The aggregated estimate (SPI library + actor implementations + IPC
//! FIFOs) must fit the device; the paper's platform is a Virtex-4 SX35.
//! Above 100 % the design cannot place; above 80 % routing typically
//! fails timing closure. Both are warnings: a simulated system need not
//! fit real silicon.

use spi_platform::Device;

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Checks device utilization per resource category.
pub struct ResourceOvercommit;

impl Pass for ResourceOvercommit {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(used) = input.resources else {
            return;
        };
        let device = Device::virtex4_sx35();
        let pct = device.utilization(&used);
        let categories = [
            ("slices", used.slices, device.capacity.slices, pct.slices),
            (
                "slice flip-flops",
                used.slice_ffs,
                device.capacity.slice_ffs,
                pct.slice_ffs,
            ),
            ("4-input LUTs", used.lut4, device.capacity.lut4, pct.lut4),
            ("block RAMs", used.bram, device.capacity.bram, pct.bram),
            ("DSP48s", used.dsp48, device.capacity.dsp48, pct.dsp48),
        ];
        for (name, amount, capacity, percent) in categories {
            if percent <= 80.0 {
                continue;
            }
            let verdict = if percent > 100.0 {
                "the design cannot place"
            } else {
                "routing and timing closure are at risk"
            };
            out.push(
                Diagnostic::new(
                    "SPI070",
                    Severity::Warning,
                    Locus::System,
                    format!(
                        "{name}: {amount} of {capacity} used ({percent:.1} % of {}); {verdict}",
                        device.name,
                    ),
                )
                .with_suggestion(
                    "reduce parallel PEs, share actor hardware, or target a larger device",
                ),
            );
        }
    }
}

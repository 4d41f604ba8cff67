//! The SPI "HDL library" resource report (paper §5.1, tables 1–2).
//!
//! The paper's FPGA library consists of `SPI_init`, `SPI_send` and
//! `SPI_receive` modules for both interface phases, plus the IPC FIFOs.
//! This module aggregates their [`ResourceEstimate`]s for a lowered
//! system and reports the SPI library's share of the full design — the
//! exact quantity tables 1 and 2 present.

use std::collections::HashMap;

use spi_dataflow::{ActorId, EdgeId};
use spi_platform::{components, Device, ResourceEstimate, ResourcePercent};
use spi_sched::ProcId;

use crate::message::SpiPhase;
use crate::system::EdgePlan;

/// Aggregated hardware cost of a lowered SPI system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpiLibraryReport {
    /// Area of the SPI library alone (send/receive/init actors, IPC
    /// FIFOs, ack paths).
    pub spi_library: ResourceEstimate,
    /// Area of the application actors (computation).
    pub application: ResourceEstimate,
}

impl SpiLibraryReport {
    /// Builds the report from the lowered edge plans, the processor map
    /// and per-actor application resources.
    pub(crate) fn for_system(
        plans: &HashMap<EdgeId, EdgePlan>,
        actor_proc: &HashMap<ActorId, ProcId>,
        actor_resources: &HashMap<ActorId, ResourceEstimate>,
    ) -> Self {
        let mut spi = ResourceEstimate::ZERO;
        for plan in plans.values() {
            // Send/receive actor pair.
            spi += match plan.phase {
                SpiPhase::Static => {
                    components::spi_send_static() + components::spi_receive_static()
                }
                SpiPhase::Dynamic => {
                    components::spi_send_dynamic() + components::spi_receive_dynamic()
                }
            };
            // The IPC FIFO the lowering allocates.
            spi += components::ipc_fifo(plan.transport.capacity_bytes);
            // Ack path (a static send/receive mini-pair and its FIFO).
            if plan.ack_kept {
                spi += components::spi_send_static() + components::spi_receive_static();
                spi += components::ipc_fifo(plan.ack_channel_bytes() as u64);
            }
        }
        // One SPI_init per processor that terminates at least one edge.
        let mut procs: Vec<ProcId> = plans
            .values()
            .flat_map(|p| [p.src_proc, p.dst_proc])
            .collect();
        procs.sort();
        procs.dedup();
        spi += components::spi_init() * procs.len() as u64;

        let application: ResourceEstimate = actor_proc
            .keys()
            .filter_map(|a| actor_resources.get(a))
            .copied()
            .sum();

        SpiLibraryReport {
            spi_library: spi,
            application,
        }
    }

    /// Total system area (application + SPI library).
    pub fn full_system(&self) -> ResourceEstimate {
        self.spi_library + self.application
    }

    /// SPI library share of the full system, per category (the
    /// "SPI library (relative to full system)" rows of tables 1–2).
    pub fn spi_share(&self) -> ResourcePercent {
        self.spi_library.percent_of(&self.full_system())
    }

    /// Full-system utilization on `device` (the "Full system" rows).
    pub fn device_utilization(&self, device: &Device) -> ResourcePercent {
        device.utilization(&self.full_system())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan of a lowered two-processor pipeline, re-labelled; the
    /// report reads only the phase, the channel sizes, the ack flag
    /// and the processors.
    fn plan(edge: usize, phase: SpiPhase, ack: bool) -> EdgePlan {
        let mut g = spi_dataflow::SdfGraph::new();
        let (a, b) = (g.add_actor("a", 1), g.add_actor("b", 1));
        let e = g.add_edge(a, b, 1, 1, 0, 128).unwrap();
        let mut builder = crate::SpiSystemBuilder::new(g);
        builder.actor(a, |_: &mut crate::Firing| 1);
        builder.actor(b, |_: &mut crate::Firing| 1);
        let system = builder.build(2, |x| ProcId(x.0)).unwrap();
        EdgePlan {
            edge: EdgeId(edge),
            phase,
            ack_kept: ack,
            ..system.edge_plans()[&e].clone()
        }
    }

    #[test]
    fn spi_share_is_small_when_application_dominates() {
        let mut plans = HashMap::new();
        plans.insert(EdgeId(0), plan(0, SpiPhase::Static, false));
        let mut actor_proc = HashMap::new();
        actor_proc.insert(ActorId(0), ProcId(0));
        actor_proc.insert(ActorId(1), ProcId(1));
        let mut res = HashMap::new();
        res.insert(ActorId(0), components::fft_core(1024));
        res.insert(ActorId(1), components::lu_solver(32));
        let report = SpiLibraryReport::for_system(&plans, &actor_proc, &res);
        let share = report.spi_share();
        assert!(share.slices < 20.0, "SPI share should be small: {share}");
        assert!(share.slices > 0.0);
    }

    #[test]
    fn dynamic_edges_cost_more_than_static() {
        let mut static_plans = HashMap::new();
        static_plans.insert(EdgeId(0), plan(0, SpiPhase::Static, false));
        let mut dynamic_plans = HashMap::new();
        dynamic_plans.insert(EdgeId(0), plan(0, SpiPhase::Dynamic, false));
        let empty_map = HashMap::new();
        let empty_res = HashMap::new();
        let s = SpiLibraryReport::for_system(&static_plans, &empty_map, &empty_res);
        let d = SpiLibraryReport::for_system(&dynamic_plans, &empty_map, &empty_res);
        assert!(d.spi_library.slices > s.spi_library.slices);
    }

    #[test]
    fn kept_acks_add_area() {
        let mut without = HashMap::new();
        without.insert(EdgeId(0), plan(0, SpiPhase::Static, false));
        let mut with = HashMap::new();
        with.insert(EdgeId(0), plan(0, SpiPhase::Static, true));
        let empty_map = HashMap::new();
        let empty_res = HashMap::new();
        let a = SpiLibraryReport::for_system(&without, &empty_map, &empty_res);
        let b = SpiLibraryReport::for_system(&with, &empty_map, &empty_res);
        assert!(b.spi_library.slices > a.spi_library.slices);
    }

    #[test]
    fn device_utilization_uses_full_system() {
        let mut plans = HashMap::new();
        plans.insert(EdgeId(0), plan(0, SpiPhase::Static, false));
        let mut actor_proc = HashMap::new();
        actor_proc.insert(ActorId(0), ProcId(0));
        let mut res = HashMap::new();
        res.insert(ActorId(0), components::particle_filter_pe(150));
        let report = SpiLibraryReport::for_system(&plans, &actor_proc, &res);
        let dev = Device::virtex4_sx35();
        let u = report.device_utilization(&dev);
        assert!(u.slices > 0.0 && u.slices < 100.0);
    }
}

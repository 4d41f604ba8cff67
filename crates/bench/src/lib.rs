//! # spi-bench — regeneration harness for every table and figure
//!
//! One function per experiment of the DATE 2008 SPI paper, plus the
//! ablations called out in `DESIGN.md`. Each `fig*`/`table*` binary in
//! `src/bin/` prints the corresponding rows. Timings come from the
//! repository's `benchmark/` (see `BENCHMARK.json`), not from here.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Figure 1 | [`fig1_vts`] | `fig1_vts` |
//! | Figure 2 | [`fig2_graph`] | `fig2_app1_graph` |
//! | Figure 3 | [`fig3_resync`] | `fig3_resync_app1` |
//! | Figure 4 | [`fig4_graph`] | `fig4_app2_graph` |
//! | Figure 5 | [`fig5_resync`] | `fig5_resync_app2` |
//! | Figure 6 | [`fig6_scaling`] | `fig6_app1_scaling` |
//! | Figure 7 | [`fig7_scaling`] | `fig7_app2_scaling` |
//! | Table 1 | [`table1_resources`] | `table1_resources` |
//! | Table 2 | [`table2_resources`] | `table2_resources` |
//! | §1 claim | [`ablation_spi_vs_mpi`] | `ablation_spi_vs_mpi` |
//! | §4.1 claim | [`ablation_resync`] | `ablation_resync` |
//! | §4 claim | [`ablation_bbs_vs_ubs`] | `ablation_bbs_vs_ubs` |
//! | §3 claim | [`ablation_header_vs_delimiter`] | `ablation_header_vs_delimiter` |
//! | §3 claim | [`ablation_vts_vs_worst_case`] | `ablation_vts_vs_worst_case` |
//! | §2 claim | [`ablation_selftimed_vs_static`] | `ablation_selftimed_vs_static` |
//! | interconnect | [`ablation_bus_vs_p2p`] | `ablation_bus_vs_p2p` |
//! | §5.2 co-design | [`hwsw_codesign_sweep`] | `ablation_hwsw_codesign` |
//! | buffers | — | `report_buffers` |
//! | Amdahl study | — | `app1_full_pipeline` |
//! | codec R-D | — | `rate_distortion` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod mpi;
pub mod tables;

pub use ablations::{
    ablation_bbs_vs_ubs, ablation_bus_vs_p2p, ablation_header_vs_delimiter,
    ablation_ordered_vs_arbitrated, ablation_resync, ablation_selftimed_vs_static,
    ablation_spi_vs_mpi, ablation_vts_vs_worst_case, hwsw_codesign_sweep, AblationRow,
};
pub use figures::{
    fig1_vts, fig2_graph, fig3_dot, fig3_resync, fig4_graph, fig5_dot, fig5_resync, fig6_scaling,
    fig7_scaling, ResyncFigure, ScalingRow,
};
pub use tables::{table1_resources, table2_resources, ResourceTable};

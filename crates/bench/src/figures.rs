//! Regeneration of the paper's figures.

use spi_apps::{ErrorStageApp, ErrorStageConfig, PrognosisApp, PrognosisConfig, SpeechApp};
use spi_dataflow::{SdfGraph, VtsConversion};

/// One point of a scaling figure (figures 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Number of PEs (`n` in the figures).
    pub n_pes: usize,
    /// X-axis value: sample size (fig. 6) or particle count (fig. 7).
    pub x: usize,
    /// Execution time per iteration in microseconds.
    pub time_us: f64,
}

/// Figure 1: the VTS conversion example — a dynamic edge with production
/// bound 10 and consumption bound 8 becomes a rate-1 packed-token edge.
/// Returns a human-readable account.
pub fn fig1_vts() -> String {
    let mut g = SdfGraph::new();
    let a = g.add_actor("A", 10);
    let b = g.add_actor("B", 10);
    let e = g
        .add_dynamic_edge(a, b, 10, 8, 0, 4)
        .expect("figure-1 edge");
    let mut out = String::new();
    out.push_str("Figure 1 — VTS conversion\n\nBefore (dynamic rates):\n");
    out.push_str(&g.to_string());
    out.push_str(&format!(
        "\nSDF analysis on the raw graph: {:?}\n",
        g.repetition_vector().map(|_| ()).unwrap_err()
    ));
    let vts = VtsConversion::convert(&g).expect("conversion");
    out.push_str("\nAfter VTS conversion (packed tokens, static rate 1):\n");
    out.push_str(&vts.graph().to_string());
    let info = vts.edge_info(e).expect("converted");
    out.push_str(&format!(
        "\npacked token bound b_max(e) = max({}, {}) × {} B = {} B\n",
        info.produce_bound, info.consume_bound, info.raw_token_bytes, info.b_max
    ));
    let q = vts.graph().repetition_vector().expect("consistent");
    out.push_str(&format!(
        "repetition vector: q[A] = {}, q[B] = {}\n",
        q[a], q[b]
    ));
    out.push_str(&format!(
        "eq. (1): c(e) = c_sdf(e) × b_max(e) = {} B\n",
        vts.packed_capacity_bytes(e).expect("bounded")
    ));
    out
}

/// Figure 2: application 1's dataflow graph.
pub fn fig2_graph(n_pes: usize) -> String {
    let app = SpeechApp::new(ErrorStageConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid default config");
    format!(
        "Figure 2 — application 1 (LPC compression), D parallelized {n_pes}×\n\n{}",
        app.graph
    )
}

/// Figure 4: application 2's dataflow graph.
pub fn fig4_graph(n_pes: usize) -> String {
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid default config");
    format!(
        "Figure 4 — application 2 (particle filter), {n_pes} PEs\n\n{}",
        app.graph
    )
}

/// Synchronization-cost summary of a resynchronization figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncFigure {
    /// Removable synchronization edges before optimization.
    pub sync_before: usize,
    /// After redundancy removal + resynchronization.
    pub sync_after: usize,
    /// Resync edges added.
    pub added: usize,
    /// Redundant edges removed.
    pub removed: usize,
}

impl ResyncFigure {
    fn from_report(r: spi_sched::ResyncReport) -> Self {
        ResyncFigure {
            sync_before: r.sync_cost_before,
            sync_after: r.sync_cost_after,
            added: r.edges_added,
            removed: r.edges_removed,
        }
    }
}

impl std::fmt::Display for ResyncFigure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "  sync edges before resynchronization: {}",
            self.sync_before
        )?;
        writeln!(
            f,
            "  sync edges after  resynchronization: {}",
            self.sync_after
        )?;
        writeln!(
            f,
            "  resync edges added: {}, redundant removed: {}",
            self.added, self.removed
        )?;
        write!(
            f,
            "  net synchronization reduction: {}",
            self.sync_before as isize - self.sync_after as isize
        )
    }
}

/// Figure 3: resynchronization of the 3-PE error-stage implementation.
pub fn fig3_resync(n_pes: usize) -> ResyncFigure {
    let app = ErrorStageApp::new(ErrorStageConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(1).expect("buildable system");
    ResyncFigure::from_report(sys.resync_report().expect("resync enabled by default"))
}

/// Figure 3 as drawings: Graphviz DOT of the synchronization graph
/// `(before, after)` resynchronization.
pub fn fig3_dot(n_pes: usize) -> (String, String) {
    let app = ErrorStageApp::new(ErrorStageConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(1).expect("buildable system");
    sys.sync_graph_dot()
}

/// Figure 5 as drawings: Graphviz DOT `(before, after)`.
pub fn fig5_dot(n_pes: usize) -> (String, String) {
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(1).expect("buildable system");
    sys.sync_graph_dot()
}

/// Figure 5: resynchronization of the 2-PE particle-filter
/// implementation.
pub fn fig5_resync(n_pes: usize) -> ResyncFigure {
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(1).expect("buildable system");
    ResyncFigure::from_report(sys.resync_report().expect("resync enabled by default"))
}

/// Figure 6: execution time (µs per frame) of the error-generation stage
/// vs sample size, for each PE count.
pub fn fig6_scaling(sample_sizes: &[usize], pe_counts: &[usize], frames: u64) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in pe_counts {
        for &size in sample_sizes {
            let app = ErrorStageApp::new(ErrorStageConfig {
                n_pes: n,
                frame: size,
                order: 10,
                vary_rates: false,
                seed: 3,
            })
            .expect("valid config");
            let sys = app.system(frames).expect("buildable");
            let report = sys.run().expect("clean run");
            rows.push(ScalingRow {
                n_pes: n,
                x: size,
                time_us: report.period_us(),
            });
        }
    }
    rows
}

/// Figure 7: execution time (µs per filter step) vs particle count, for
/// each PE count.
pub fn fig7_scaling(particle_counts: &[usize], pe_counts: &[usize], steps: u64) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in pe_counts {
        for &particles in particle_counts {
            let app = PrognosisApp::new(PrognosisConfig {
                n_pes: n,
                particles,
                steps: steps as usize,
                ..Default::default()
            })
            .expect("valid config");
            let sys = app.system(steps).expect("buildable");
            let report = sys.run().expect("clean run");
            rows.push(ScalingRow {
                n_pes: n,
                x: particles,
                time_us: report.period_us(),
            });
        }
    }
    rows
}

/// Formats scaling rows as an aligned series table (one column per n).
pub fn format_scaling(rows: &[ScalingRow], x_label: &str) -> String {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n_pes).collect();
    ns.sort_unstable();
    ns.dedup();
    let mut xs: Vec<usize> = rows.iter().map(|r| r.x).collect();
    xs.sort_unstable();
    xs.dedup();
    let mut out = format!("{x_label:>12}");
    for n in &ns {
        out.push_str(&format!("  n={n:<2} (µs)"));
    }
    out.push('\n');
    for x in xs {
        out.push_str(&format!("{x:>12}"));
        for &n in &ns {
            let t = rows
                .iter()
                .find(|r| r.n_pes == n && r.x == x)
                .map(|r| r.time_us)
                .unwrap_or(f64::NAN);
            out.push_str(&format!("  {t:>9.1}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_text_mentions_key_numbers() {
        let s = fig1_vts();
        assert!(s.contains("b_max"));
        assert!(s.contains("40 B"));
        assert!(s.contains("q[A] = 1"));
    }

    #[test]
    fn fig2_and_fig4_list_all_actors() {
        let f2 = fig2_graph(3);
        assert!(f2.contains("A:read") && f2.contains("D2:error") && f2.contains("E:huffman"));
        let f4 = fig4_graph(2);
        assert!(f4.contains("E/U0") && f4.contains("S-intra1") && f4.contains("obs"));
    }

    #[test]
    fn fig3_resync_reduces_cost() {
        let fig = fig3_resync(3);
        assert!(fig.sync_after < fig.sync_before, "{fig:?}");
    }

    #[test]
    fn fig_dots_are_valid_graphviz() {
        let (before, after) = fig3_dot(2);
        assert!(before.starts_with("digraph") && after.starts_with("digraph"));
        // Resynchronization strictly removes dashed (sync) edges.
        let dashes = |s: &str| s.matches("style=dashed").count();
        assert!(dashes(&after) < dashes(&before));
        let (b5, a5) = fig5_dot(2);
        assert!(dashes(&a5) <= dashes(&b5));
    }

    #[test]
    fn fig5_resync_reduces_cost() {
        let fig = fig5_resync(2);
        assert!(fig.sync_after <= fig.sync_before, "{fig:?}");
    }

    #[test]
    fn fig6_shape_holds() {
        // Time grows with sample size; n=2 beats n=1 at the largest size.
        let rows = fig6_scaling(&[128, 384], &[1, 2], 6);
        let t = |n: usize, x: usize| {
            rows.iter()
                .find(|r| r.n_pes == n && r.x == x)
                .unwrap()
                .time_us
        };
        assert!(t(1, 384) > t(1, 128));
        assert!(t(2, 384) < t(1, 384));
    }

    #[test]
    fn fig7_shape_holds() {
        let rows = fig7_scaling(&[60, 240], &[1, 2], 8);
        let t = |n: usize, x: usize| {
            rows.iter()
                .find(|r| r.n_pes == n && r.x == x)
                .unwrap()
                .time_us
        };
        assert!(t(1, 240) > t(1, 60), "time grows with particles");
        assert!(t(2, 240) < t(1, 240), "2 PEs beat 1 at high load");
        // Sub-linear speedup: resampling communication is serial.
        assert!(t(2, 240) > t(1, 240) / 2.0, "speedup must be < 2×");
    }

    #[test]
    fn format_scaling_aligns_series() {
        let rows = vec![
            ScalingRow {
                n_pes: 1,
                x: 100,
                time_us: 10.0,
            },
            ScalingRow {
                n_pes: 2,
                x: 100,
                time_us: 6.0,
            },
        ];
        let s = format_scaling(&rows, "Sample Size");
        assert!(s.contains("n=1"));
        assert!(s.contains("n=2"));
        assert!(s.contains("100"));
    }
}

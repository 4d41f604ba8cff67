//! Parameterized synchronous dataflow (PSDF) and its VTS envelope.
//!
//! Bhattacharya & Bhattacharyya's *parameterized dataflow* lets port
//! rates depend on run-time parameters that are reconfigured between
//! iterations — exactly the situation of the paper's application 1,
//! where "the number of coefficients (that depend on the model order M)
//! and the size of the input frame are not known before run-time".
//!
//! This module provides the modeling side: integer parameters with
//! bounded domains, rate expressions over them, per-configuration
//! instantiation to plain SDF ([`PsdfGraph::instantiate`]), a
//! quasi-static consistency check over the whole domain
//! ([`PsdfGraph::check_consistency`]), and the bridge the paper implies:
//! [`PsdfGraph::vts_envelope`] collapses every parameterized rate into a
//! dynamic edge bounded by the rate's domain maximum, after which the
//! ordinary VTS/SPI flow applies.
//!
//! What this is, and is not: a *front end* that reduces to [`SdfGraph`],
//! as [`crate::csdf`] does. Nothing downstream knows a graph was
//! parameterized — `SpiSystemBuilder` lowers the envelope like any other
//! dynamic-rate graph, sized once for the domain maxima (pinned as the
//! `psdf envelope …` system in `crates/spi/tests/lowering_pins.txt`).
//! Per-scenario plans (one `EdgePlan` set per valuation, switched at an
//! iteration boundary) are ROADMAP's deferred scenario item, not here.

use crate::error::{DataflowError, Result};
use crate::graph::{ActorId, EdgeId, SdfGraph};

/// An integer run-time parameter with an inclusive domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Name used in diagnostics.
    pub name: String,
    /// Smallest admissible value (≥ 1 where used as a rate).
    pub min: u32,
    /// Largest admissible value.
    pub max: u32,
}

/// Identifier of a parameter within one [`PsdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// A port rate that may reference a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateExpr {
    /// A compile-time constant.
    Const(u32),
    /// `mul × param` (use `mul = 1` for the bare parameter).
    Param {
        /// The referenced parameter.
        param: ParamId,
        /// Constant multiplier.
        mul: u32,
    },
}

impl RateExpr {
    /// Evaluates under a parameter valuation.
    fn eval(&self, values: &[u32]) -> u32 {
        match *self {
            RateExpr::Const(c) => c,
            RateExpr::Param { param, mul } => values[param.0] * mul,
        }
    }

    /// Maximum over the parameter domains.
    fn max_over(&self, params: &[Param]) -> u32 {
        match *self {
            RateExpr::Const(c) => c,
            RateExpr::Param { param, mul } => params[param.0].max * mul,
        }
    }

    fn references(&self) -> Option<ParamId> {
        match *self {
            RateExpr::Const(_) => None,
            RateExpr::Param { param, .. } => Some(param),
        }
    }
}

/// A parameterized edge.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PsdfEdge {
    src: ActorId,
    dst: ActorId,
    produce: RateExpr,
    consume: RateExpr,
    delay: u64,
    token_bytes: u32,
}

/// A parameterized dataflow graph.
///
/// # Examples
///
/// Application 1's frame/order parameterization in miniature:
///
/// ```
/// use spi_dataflow::psdf::{PsdfGraph, RateExpr};
///
/// let mut g = PsdfGraph::new();
/// let frame_len = g.add_param("N", 64, 256);
/// let reader = g.add_actor("reader", 10);
/// let worker = g.add_actor("worker", 10);
/// // The reader emits N samples per firing; the worker consumes N.
/// g.add_edge(reader, worker,
///     RateExpr::Param { param: frame_len, mul: 1 },
///     RateExpr::Param { param: frame_len, mul: 1 }, 0, 8)?;
///
/// // Every point of the domain instantiates to a consistent SDF graph…
/// g.check_consistency()?;
/// // …and the VTS envelope admits the whole family at once.
/// let envelope = g.vts_envelope()?;
/// assert!(spi_dataflow::VtsConversion::convert(&envelope)?.graph().is_pure_sdf());
/// # Ok::<(), spi_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PsdfGraph {
    params: Vec<Param>,
    names: Vec<String>,
    exec_cycles: Vec<u64>,
    edges: Vec<PsdfEdge>,
}

impl PsdfGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PsdfGraph::default()
    }

    /// Declares a parameter with the inclusive domain `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max` — rates must stay
    /// positive over the whole domain, so such a declaration is a
    /// construction bug.
    pub fn add_param(&mut self, name: impl Into<String>, min: u32, max: u32) -> ParamId {
        assert!(
            min >= 1 && min <= max,
            "parameter domain must be [min≥1, max≥min]"
        );
        self.params.push(Param {
            name: name.into(),
            min,
            max,
        });
        ParamId(self.params.len() - 1)
    }

    /// Adds an actor.
    pub fn add_actor(&mut self, name: impl Into<String>, exec_cycles: u64) -> ActorId {
        self.names.push(name.into());
        self.exec_cycles.push(exec_cycles);
        ActorId(self.names.len() - 1)
    }

    /// Adds a parameterized edge.
    ///
    /// # Errors
    ///
    /// [`DataflowError::UnknownActor`] for bad endpoints and
    /// [`DataflowError::ZeroRate`] for constant-zero rates.
    pub fn add_edge(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: RateExpr,
        consume: RateExpr,
        delay: u64,
        token_bytes: u32,
    ) -> Result<EdgeId> {
        if src.0 >= self.names.len() {
            return Err(DataflowError::UnknownActor(src));
        }
        if dst.0 >= self.names.len() {
            return Err(DataflowError::UnknownActor(dst));
        }
        let id = EdgeId(self.edges.len());
        for r in [&produce, &consume] {
            if let RateExpr::Const(0) = r {
                return Err(DataflowError::ZeroRate { edge: id });
            }
            if let RateExpr::Param { mul: 0, .. } = r {
                return Err(DataflowError::ZeroRate { edge: id });
            }
            if let Some(p) = r.references() {
                if p.0 >= self.params.len() {
                    return Err(DataflowError::UnknownActor(ActorId(p.0)));
                }
            }
        }
        self.edges.push(PsdfEdge {
            src,
            dst,
            produce,
            consume,
            delay,
            token_bytes,
        });
        Ok(id)
    }

    /// Instantiates the graph for one parameter valuation (`values[i]`
    /// is the value of `ParamId(i)`).
    ///
    /// # Errors
    ///
    /// [`DataflowError::Overflow`] if the valuation has the wrong arity
    /// or leaves its domain; construction errors from the resulting SDF
    /// graph otherwise.
    pub fn instantiate(&self, values: &[u32]) -> Result<SdfGraph> {
        if values.len() != self.params.len() {
            return Err(DataflowError::Overflow);
        }
        for (v, p) in values.iter().zip(&self.params) {
            if *v < p.min || *v > p.max {
                return Err(DataflowError::Overflow);
            }
        }
        let mut g = SdfGraph::new();
        for (name, &cycles) in self.names.iter().zip(&self.exec_cycles) {
            g.add_actor(name.clone(), cycles);
        }
        for e in &self.edges {
            g.add_edge(
                e.src,
                e.dst,
                e.produce.eval(values),
                e.consume.eval(values),
                e.delay,
                e.token_bytes,
            )?;
        }
        Ok(g)
    }

    /// Quasi-static consistency: every point of the (product) parameter
    /// domain must instantiate to a consistent, live SDF graph.
    ///
    /// The full product is enumerated when it has at most
    /// `MAX_ENUMERATION` points; larger domains are sampled at all
    /// corners plus the midpoint of each parameter, which catches every
    /// inconsistency expressible with the affine rates supported here.
    ///
    /// # Errors
    ///
    /// The first failing valuation's error.
    pub fn check_consistency(&self) -> Result<()> {
        const MAX_ENUMERATION: u64 = 4096;
        let sizes: Vec<u64> = self
            .params
            .iter()
            .map(|p| u64::from(p.max - p.min) + 1)
            .collect();
        let total: u64 = sizes.iter().product();
        let valuations: Vec<Vec<u32>> = if self.params.is_empty() {
            vec![Vec::new()]
        } else if total <= MAX_ENUMERATION {
            let mut out = Vec::new();
            let mut idx = vec![0u64; sizes.len()];
            loop {
                out.push(
                    idx.iter()
                        .zip(&self.params)
                        .map(|(&i, p)| p.min + i as u32)
                        .collect(),
                );
                let mut carry = 0;
                loop {
                    idx[carry] += 1;
                    if idx[carry] < sizes[carry] {
                        break;
                    }
                    idx[carry] = 0;
                    carry += 1;
                    if carry == sizes.len() {
                        return check_all(self, out);
                    }
                }
            }
        } else {
            // Corners + per-parameter midpoints.
            let mut out = Vec::new();
            let corners = 1u64 << self.params.len().min(12);
            for mask in 0..corners {
                out.push(
                    self.params
                        .iter()
                        .enumerate()
                        .map(|(i, p)| if mask >> i & 1 == 1 { p.max } else { p.min })
                        .collect(),
                );
            }
            let mids: Vec<u32> = self
                .params
                .iter()
                .map(|p| p.min + (p.max - p.min) / 2)
                .collect();
            out.push(mids);
            out
        };
        check_all(self, valuations)
    }

    /// Collapses every parameterized rate into a dynamic edge bounded by
    /// its domain maximum — the paper's VTS discipline applied to PSDF:
    /// "when the bound exists, it can be determined from any available
    /// bound on the maximum variable data rate for a port".
    ///
    /// # Errors
    ///
    /// Construction errors from the resulting graph.
    pub fn vts_envelope(&self) -> Result<SdfGraph> {
        let mut g = SdfGraph::new();
        for (name, &cycles) in self.names.iter().zip(&self.exec_cycles) {
            g.add_actor(name.clone(), cycles);
        }
        for e in &self.edges {
            let parameterized =
                e.produce.references().is_some() || e.consume.references().is_some();
            if parameterized {
                g.add_dynamic_edge(
                    e.src,
                    e.dst,
                    e.produce.max_over(&self.params),
                    e.consume.max_over(&self.params),
                    e.delay,
                    e.token_bytes,
                )?;
            } else {
                g.add_edge(
                    e.src,
                    e.dst,
                    e.produce.eval(&[]),
                    e.consume.eval(&[]),
                    e.delay,
                    e.token_bytes,
                )?;
            }
        }
        Ok(g)
    }
}

fn check_all(g: &PsdfGraph, valuations: Vec<Vec<u32>>) -> Result<()> {
    for v in valuations {
        let sdf = g.instantiate(&v)?;
        sdf.repetition_vector()?;
        sdf.class_s_schedule()?;
    }
    Ok(())
}

/// Human-readable parameter table (for reports).
pub fn param_table(g: &PsdfGraph) -> Vec<(String, u32, u32)> {
    g.params
        .iter()
        .map(|p| (p.name.clone(), p.min, p.max))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_graph() -> (PsdfGraph, ParamId, ActorId, ActorId) {
        let mut g = PsdfGraph::new();
        let n = g.add_param("N", 2, 8);
        let a = g.add_actor("src", 5);
        let b = g.add_actor("snk", 5);
        g.add_edge(
            a,
            b,
            RateExpr::Param { param: n, mul: 1 },
            RateExpr::Param { param: n, mul: 1 },
            0,
            4,
        )
        .unwrap();
        (g, n, a, b)
    }

    #[test]
    fn instantiation_evaluates_rates() {
        let (g, _, a, b) = frame_graph();
        let sdf = g.instantiate(&[5]).unwrap();
        let e = sdf.edges().next().unwrap().1;
        assert_eq!(e.produce.bound(), 5);
        let q = sdf.repetition_vector().unwrap();
        assert_eq!((q[a], q[b]), (1, 1));
    }

    #[test]
    fn out_of_domain_valuations_rejected() {
        let (g, ..) = frame_graph();
        assert!(g.instantiate(&[1]).is_err());
        assert!(g.instantiate(&[9]).is_err());
        assert!(g.instantiate(&[]).is_err());
        assert!(g.instantiate(&[5, 5]).is_err());
    }

    #[test]
    fn consistency_over_whole_domain() {
        let (g, ..) = frame_graph();
        g.check_consistency().unwrap();
    }

    #[test]
    fn inconsistent_parameterization_detected() {
        // produce N, consume 3: only consistent when... always (q scales),
        // so build a real inconsistency: two paths demanding conflicting q.
        let mut g = PsdfGraph::new();
        let n = g.add_param("N", 2, 4);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        // Parallel edges: one at rate N→1, one at 1→1. Consistent only
        // when N = 1 — never in the domain.
        g.add_edge(
            a,
            b,
            RateExpr::Param { param: n, mul: 1 },
            RateExpr::Const(1),
            0,
            4,
        )
        .unwrap();
        g.add_edge(a, b, RateExpr::Const(1), RateExpr::Const(1), 0, 4)
            .unwrap();
        assert!(g.check_consistency().is_err());
    }

    #[test]
    fn envelope_bounds_match_domain_maxima() {
        let (g, ..) = frame_graph();
        let env = g.vts_envelope().unwrap();
        let e = env.edges().next().unwrap().1;
        assert!(e.is_dynamic());
        assert_eq!(e.produce.bound(), 8);
        assert_eq!(e.consume.bound(), 8);
    }

    #[test]
    fn constant_edges_stay_static_in_envelope() {
        let mut g = PsdfGraph::new();
        let _m = g.add_param("M", 1, 4);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(a, b, RateExpr::Const(2), RateExpr::Const(3), 1, 4)
            .unwrap();
        let env = g.vts_envelope().unwrap();
        let e = env.edges().next().unwrap().1;
        assert!(!e.is_dynamic());
        assert_eq!(e.delay, 1);
    }

    #[test]
    fn scaled_parameters_multiply() {
        let mut g = PsdfGraph::new();
        let m = g.add_param("M", 1, 3);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(
            a,
            b,
            RateExpr::Param { param: m, mul: 4 },
            RateExpr::Const(2),
            0,
            4,
        )
        .unwrap();
        let sdf = g.instantiate(&[3]).unwrap();
        assert_eq!(sdf.edges().next().unwrap().1.produce.bound(), 12);
        let env = g.vts_envelope().unwrap();
        assert_eq!(env.edges().next().unwrap().1.produce.bound(), 12);
    }

    #[test]
    fn zero_rate_expressions_rejected() {
        let mut g = PsdfGraph::new();
        let m = g.add_param("M", 1, 3);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        assert!(g
            .add_edge(a, b, RateExpr::Const(0), RateExpr::Const(1), 0, 4)
            .is_err());
        assert!(g
            .add_edge(
                a,
                b,
                RateExpr::Param { param: m, mul: 0 },
                RateExpr::Const(1),
                0,
                4
            )
            .is_err());
    }

    #[test]
    fn large_domain_sampling_path_runs() {
        let mut g = PsdfGraph::new();
        let n = g.add_param("N", 1, 10_000);
        let m = g.add_param("M", 1, 10_000);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        g.add_edge(
            a,
            b,
            RateExpr::Param { param: n, mul: 1 },
            RateExpr::Param { param: n, mul: 1 },
            0,
            4,
        )
        .unwrap();
        g.add_edge(
            b,
            c,
            RateExpr::Param { param: m, mul: 1 },
            RateExpr::Param { param: m, mul: 1 },
            0,
            4,
        )
        .unwrap();
        g.check_consistency().unwrap();
    }

    #[test]
    fn helper_tables() {
        let (g, ..) = frame_graph();
        assert_eq!(param_table(&g), vec![("N".to_string(), 2, 8)]);
    }

    #[test]
    #[should_panic(expected = "parameter domain")]
    fn bad_domain_panics() {
        let mut g = PsdfGraph::new();
        g.add_param("bad", 0, 5);
    }
}

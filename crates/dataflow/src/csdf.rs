//! Cyclo-static dataflow (CSDF) on top of the SDF core.
//!
//! CSDF (Bilsen et al.) generalizes SDF by letting a port's rate cycle
//! through a fixed *phase vector*: firing `k` produces
//! `rates[k mod rates.len()]` tokens. It is one of the "extensions to
//! the SDF model … proposed to broaden the range of applications"
//! surveyed in the paper's §3.1, and many SPI-style pipelines (e.g.
//! interleavers, decimators with phase structure) are naturally
//! cyclo-static.
//!
//! The classic reduction applies: replacing each phase vector by its sum
//! and multiplying firing counts by the phase count yields an SDF graph
//! whose analyses (consistency, scheduling, buffer bounds — and hence
//! the whole SPI flow) transfer. [`CsdfGraph::to_sdf`] implements it,
//! and [`CsdfGraph::phase_schedule`] produces a phase-accurate
//! admissible schedule used to validate the reduction.

use crate::error::{DataflowError, Result};
use crate::graph::{ActorId, EdgeId, SdfGraph};

/// A cyclo-static port rate: one entry per phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseRates(Vec<u32>);

impl PhaseRates {
    /// Creates a phase vector.
    ///
    /// # Errors
    ///
    /// Rejects empty vectors and vectors summing to zero (the port would
    /// never move data), reported as [`DataflowError::Overflow`]-free
    /// [`DataflowError::ZeroRate`] at edge-insertion time; here a plain
    /// `None` signals invalidity.
    pub fn new(rates: Vec<u32>) -> Option<Self> {
        if rates.is_empty() || rates.iter().all(|&r| r == 0) {
            return None;
        }
        Some(PhaseRates(rates))
    }

    /// A constant (SDF) rate as a single-phase vector.
    pub fn constant(rate: u32) -> Option<Self> {
        PhaseRates::new(vec![rate])
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.0.len()
    }

    /// Tokens moved by firing `k` (phase `k mod phases`).
    pub fn rate_at(&self, k: u64) -> u32 {
        self.0[(k % self.0.len() as u64) as usize]
    }

    /// Sum over one full phase cycle.
    pub fn cycle_sum(&self) -> u64 {
        self.0.iter().map(|&r| u64::from(r)).sum()
    }

    /// The raw phase vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

/// A CSDF edge: phase vectors on both ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfEdge {
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Per-phase production rates.
    pub produce: PhaseRates,
    /// Per-phase consumption rates.
    pub consume: PhaseRates,
    /// Initial tokens.
    pub delay: u64,
    /// Raw token size in bytes.
    pub token_bytes: u32,
}

/// A cyclo-static dataflow graph.
///
/// # Examples
///
/// A 1-to-2 distributor that alternates between its two outputs:
///
/// ```
/// use spi_dataflow::{CsdfGraph, PhaseRates};
///
/// let mut g = CsdfGraph::new();
/// let src = g.add_actor("src", 5);
/// let top = g.add_actor("top", 5);
/// let bot = g.add_actor("bot", 5);
/// // Phases [1,0]: token to `top` on even firings only.
/// g.add_edge(src, top,
///     PhaseRates::new(vec![1, 0]).expect("valid"),
///     PhaseRates::constant(1).expect("valid"), 0, 4)?;
/// // Phases [0,1]: token to `bot` on odd firings only.
/// g.add_edge(src, bot,
///     PhaseRates::new(vec![0, 1]).expect("valid"),
///     PhaseRates::constant(1).expect("valid"), 0, 4)?;
///
/// let sdf = g.to_sdf()?;
/// let q = sdf.graph().repetition_vector()?;
/// // One SDF firing of `src` = one full 2-phase cycle.
/// assert_eq!(q[src], 1);
/// # Ok::<(), spi_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsdfGraph {
    names: Vec<String>,
    exec_cycles: Vec<u64>,
    edges: Vec<CsdfEdge>,
}

impl CsdfGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        CsdfGraph::default()
    }

    /// Adds an actor; `exec_cycles` is the per-*phase* firing estimate.
    pub fn add_actor(&mut self, name: impl Into<String>, exec_cycles: u64) -> ActorId {
        self.names.push(name.into());
        self.exec_cycles.push(exec_cycles);
        ActorId(self.names.len() - 1)
    }

    /// Adds a cyclo-static edge.
    ///
    /// # Errors
    ///
    /// [`DataflowError::UnknownActor`] for bad endpoints.
    pub fn add_edge(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: PhaseRates,
        consume: PhaseRates,
        delay: u64,
        token_bytes: u32,
    ) -> Result<EdgeId> {
        if src.0 >= self.names.len() {
            return Err(DataflowError::UnknownActor(src));
        }
        if dst.0 >= self.names.len() {
            return Err(DataflowError::UnknownActor(dst));
        }
        self.edges.push(CsdfEdge {
            src,
            dst,
            produce,
            consume,
            delay,
            token_bytes,
        });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.names.len()
    }

    /// Phase count of `actor`: the lcm of the phase lengths of all its
    /// ports (1 if it has none).
    pub fn actor_phases(&self, actor: ActorId) -> u64 {
        let mut phases = 1u64;
        for e in &self.edges {
            if e.src == actor {
                phases = crate::rates::lcm(phases, e.produce.phases() as u64);
            }
            if e.dst == actor {
                phases = crate::rates::lcm(phases, e.consume.phases() as u64);
            }
        }
        phases.max(1)
    }

    /// Reduces to SDF: one SDF firing of an actor = one full phase cycle.
    ///
    /// Rates become per-cycle token sums, scaled so that all ports of an
    /// actor cover the same number of phases.
    ///
    /// # Errors
    ///
    /// Anything [`SdfGraph::add_edge`] can return (zero cycle sums map to
    /// zero SDF rates and are rejected there, keeping the invariant that
    /// consistent graphs move data on every edge).
    pub fn to_sdf(&self) -> Result<CsdfReduction> {
        let mut sdf = SdfGraph::new();
        let mut cycle_of = Vec::with_capacity(self.names.len());
        for (i, name) in self.names.iter().enumerate() {
            let phases = self.actor_phases(ActorId(i));
            cycle_of.push(phases);
            // One SDF firing = `phases` CSDF firings.
            sdf.add_actor(name.clone(), self.exec_cycles[i] * phases);
        }
        for e in &self.edges {
            let src_scale = cycle_of[e.src.0] / e.produce.phases() as u64;
            let dst_scale = cycle_of[e.dst.0] / e.consume.phases() as u64;
            let p = e.produce.cycle_sum() * src_scale;
            let c = e.consume.cycle_sum() * dst_scale;
            let p32 = u32::try_from(p).map_err(|_| DataflowError::Overflow)?;
            let c32 = u32::try_from(c).map_err(|_| DataflowError::Overflow)?;
            sdf.add_edge(e.src, e.dst, p32, c32, e.delay, e.token_bytes)?;
        }
        Ok(CsdfReduction {
            graph: sdf,
            phases: cycle_of,
        })
    }

    /// Phase-accurate admissible schedule by simulation: fires any actor
    /// whose next phase's consumptions are satisfied, until every actor
    /// completes `repetitions × phases` firings.
    ///
    /// # Errors
    ///
    /// * Everything [`CsdfGraph::to_sdf`] can return (the reduction
    ///   provides the per-iteration firing quota);
    /// * [`DataflowError::Deadlock`] if the phase-level simulation stalls
    ///   (a graph can be SDF-consistent yet phase-deadlocked).
    pub fn phase_schedule(&self) -> Result<Vec<(ActorId, u64)>> {
        let reduction = self.to_sdf()?;
        let q = reduction.graph.repetition_vector()?;
        let n = self.names.len();
        let quota: Vec<u64> = (0..n)
            .map(|i| q[ActorId(i)] * reduction.phases[i])
            .collect();

        let mut tokens: Vec<u64> = self.edges.iter().map(|e| e.delay).collect();
        let mut fired = vec![0u64; n];
        let mut schedule = Vec::new();
        loop {
            let candidate = (0..n).filter(|&a| fired[a] < quota[a]).find(|&a| {
                self.edges.iter().enumerate().all(|(ei, e)| {
                    e.dst != ActorId(a) || tokens[ei] >= u64::from(e.consume.rate_at(fired[a]))
                })
            });
            let Some(a) = candidate else { break };
            for (ei, e) in self.edges.iter().enumerate() {
                if e.dst == ActorId(a) {
                    tokens[ei] -= u64::from(e.consume.rate_at(fired[a]));
                }
            }
            for (ei, e) in self.edges.iter().enumerate() {
                if e.src == ActorId(a) {
                    tokens[ei] += u64::from(e.produce.rate_at(fired[a]));
                }
            }
            schedule.push((ActorId(a), fired[a]));
            fired[a] += 1;
        }
        let starved: Vec<ActorId> = (0..n)
            .filter(|&a| fired[a] < quota[a])
            .map(ActorId)
            .collect();
        if !starved.is_empty() {
            return Err(DataflowError::Deadlock { starved });
        }
        // One full iteration must return every edge to its delay count.
        debug_assert_eq!(
            tokens,
            self.edges.iter().map(|e| e.delay).collect::<Vec<_>>()
        );
        Ok(schedule)
    }
}

/// Outcome of the CSDF→SDF reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CsdfReduction {
    graph: SdfGraph,
    phases: Vec<u64>,
}

impl CsdfReduction {
    /// The reduced SDF graph (feed it to the regular SPI flow).
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// CSDF firings folded into one SDF firing of `actor`.
    pub fn phases_of(&self, actor: ActorId) -> u64 {
        self.phases[actor.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distributor() -> (CsdfGraph, ActorId, ActorId, ActorId) {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", 5);
        let top = g.add_actor("top", 7);
        let bot = g.add_actor("bot", 7);
        g.add_edge(
            src,
            top,
            PhaseRates::new(vec![1, 0]).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        g.add_edge(
            src,
            bot,
            PhaseRates::new(vec![0, 1]).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        (g, src, top, bot)
    }

    #[test]
    fn phase_rates_validation() {
        assert!(PhaseRates::new(vec![]).is_none());
        assert!(PhaseRates::new(vec![0, 0]).is_none());
        let r = PhaseRates::new(vec![2, 0, 1]).unwrap();
        assert_eq!(r.phases(), 3);
        assert_eq!(r.cycle_sum(), 3);
        assert_eq!(r.rate_at(0), 2);
        assert_eq!(r.rate_at(4), 0);
        assert_eq!(r.rate_at(5), 1);
    }

    #[test]
    fn distributor_reduces_to_consistent_sdf() {
        let (g, src, top, bot) = distributor();
        assert_eq!(g.actor_phases(src), 2);
        assert_eq!(g.actor_phases(top), 1);
        let sdf = g.to_sdf().unwrap();
        let q = sdf.graph().repetition_vector().unwrap();
        assert_eq!((q[src], q[top], q[bot]), (1, 1, 1));
        assert_eq!(sdf.phases_of(src), 2);
        // The reduced actor's cost covers the full cycle.
        assert_eq!(sdf.graph().actor(src).exec_cycles, 10);
    }

    #[test]
    fn phase_schedule_interleaves_correctly() {
        let (g, src, top, bot) = distributor();
        let schedule = g.phase_schedule().unwrap();
        // src fires twice (two phases), sinks once each.
        let count = |a: ActorId| schedule.iter().filter(|&&(x, _)| x == a).count();
        assert_eq!(count(src), 2);
        assert_eq!(count(top), 1);
        assert_eq!(count(bot), 1);
        // top can only fire after src's phase 0, bot after phase 1.
        let pos = |a: ActorId, k: u64| {
            schedule
                .iter()
                .position(|&(x, kk)| x == a && kk == k)
                .unwrap()
        };
        assert!(pos(top, 0) > pos(src, 0));
        assert!(pos(bot, 0) > pos(src, 1));
    }

    #[test]
    fn mismatched_phase_lengths_scale_via_lcm() {
        // Port with 2 phases and port with 3 phases on one actor → 6.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        let c = g.add_actor("c", 1);
        g.add_edge(
            a,
            b,
            PhaseRates::new(vec![1, 2]).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        g.add_edge(
            a,
            c,
            PhaseRates::new(vec![1, 0, 2]).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        assert_eq!(g.actor_phases(a), 6);
        let sdf = g.to_sdf().unwrap();
        // Per 6 phases: edge to b moves 3·(1+2)=9; edge to c moves 2·3=6.
        let q = sdf.graph().repetition_vector().unwrap();
        assert_eq!(q[a] * 9, q[b]);
        assert_eq!(q[a] * 6, q[c]);
    }

    #[test]
    fn phase_deadlock_detected() {
        // a and b each need the other's token in phase 0 with no delays.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(
            a,
            b,
            PhaseRates::constant(1).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        g.add_edge(
            b,
            a,
            PhaseRates::constant(1).unwrap(),
            PhaseRates::constant(1).unwrap(),
            0,
            4,
        )
        .unwrap();
        assert!(matches!(
            g.phase_schedule(),
            Err(DataflowError::Deadlock { .. })
        ));
    }

    #[test]
    fn csdf_with_delay_breaks_deadlock() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(
            a,
            b,
            PhaseRates::new(vec![2, 1]).unwrap(),
            PhaseRates::new(vec![1, 2]).unwrap(),
            0,
            4,
        )
        .unwrap();
        g.add_edge(
            b,
            a,
            PhaseRates::new(vec![1, 2]).unwrap(),
            PhaseRates::new(vec![2, 1]).unwrap(),
            3,
            4,
        )
        .unwrap();
        let schedule = g.phase_schedule().unwrap();
        assert_eq!(schedule.len(), 4, "two phases each");
    }

    #[test]
    fn unknown_actor_rejected() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", 1);
        let ghost = ActorId(9);
        assert!(g
            .add_edge(
                a,
                ghost,
                PhaseRates::constant(1).unwrap(),
                PhaseRates::constant(1).unwrap(),
                0,
                4
            )
            .is_err());
    }
}

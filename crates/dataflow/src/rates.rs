//! Repetition-vector computation (SDF balance equations).
//!
//! An SDF graph is *consistent* when the balance equations
//! `q[src(e)] · produce(e) = q[dst(e)] · consume(e)` (one per edge) admit a
//! positive integer solution `q`, the *repetition vector*. One graph
//! iteration fires every actor `v` exactly `q[v]` times and returns every
//! edge to its initial token count. The solver propagates rational
//! multipliers over each connected component and scales by the lcm of the
//! denominators, per Lee & Messerschmitt's classic formulation.

use std::ops::Index;

use crate::error::{DataflowError, Result};
use crate::graph::{ActorId, EdgeId, SdfGraph};

/// The repetition vector of a consistent SDF graph.
///
/// Indexable by [`ActorId`]; entry `q[v]` is the number of firings of `v`
/// in one minimal periodic iteration.
///
/// # Examples
///
/// ```
/// use spi_dataflow::SdfGraph;
///
/// let mut g = SdfGraph::new();
/// let a = g.add_actor("src", 1);
/// let b = g.add_actor("snk", 1);
/// g.add_edge(a, b, 3, 2, 0, 4)?;
/// let q = g.repetition_vector()?;
/// assert_eq!((q[a], q[b]), (2, 3));
/// # Ok::<(), spi_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    counts: Vec<u64>,
}

impl RepetitionVector {
    /// Firing count of `actor` in one graph iteration.
    ///
    /// # Panics
    ///
    /// Panics if `actor` does not belong to the graph that produced this
    /// vector.
    pub fn count(&self, actor: ActorId) -> u64 {
        self.counts[actor.0]
    }

    /// Total firings per iteration, summed over all actors.
    pub fn total_firings(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of actors covered.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if the graph had no actors.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(ActorId, firings)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (ActorId(i), c))
    }
}

impl Index<ActorId> for RepetitionVector {
    type Output = u64;

    fn index(&self, actor: ActorId) -> &u64 {
        &self.counts[actor.0]
    }
}

/// A rational number with i128 parts, sufficient for balance solving on
/// realistic graphs (rates fit in u32, graphs have bounded diameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    num: i128,
    den: i128,
}

impl Ratio {
    fn new(num: i128, den: i128) -> Result<Self> {
        if den == 0 {
            return Err(DataflowError::Overflow);
        }
        let g = gcd_i128(num.abs(), den.abs()).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Ok(Ratio {
            num: sign * num / g,
            den: sign * den / g,
        })
    }

    fn mul(self, num: i128, den: i128) -> Result<Self> {
        let n = self.num.checked_mul(num).ok_or(DataflowError::Overflow)?;
        let d = self.den.checked_mul(den).ok_or(DataflowError::Overflow)?;
        Ratio::new(n, d)
    }
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor of two u64 values.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two u64 values.
///
/// # Panics
///
/// Panics on overflow; repetition vectors that large are outside the
/// supported envelope and indicate a modeling error.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

impl SdfGraph {
    /// Computes the repetition vector of this graph.
    ///
    /// Disconnected graphs are handled component-wise (each component gets
    /// its own minimal solution).
    ///
    /// # Errors
    ///
    /// * [`DataflowError::EmptyGraph`] if the graph has no actors.
    /// * [`DataflowError::DynamicRate`] if any edge still has a dynamic
    ///   port — apply [`crate::vts::VtsConversion`] first.
    /// * [`DataflowError::Inconsistent`] if the balance equations have no
    ///   positive solution (sample-rate mismatch).
    /// * [`DataflowError::Overflow`] if intermediate rationals overflow.
    pub fn repetition_vector(&self) -> Result<RepetitionVector> {
        if self.actor_count() == 0 {
            return Err(DataflowError::EmptyGraph);
        }
        for (id, e) in self.edges() {
            if e.is_dynamic() {
                return Err(DataflowError::DynamicRate { edge: id });
            }
        }

        let n = self.actor_count();
        // Fractional firing ratios per actor, None until visited.
        let mut frac: Vec<Option<Ratio>> = vec![None; n];
        // The spanning-tree parent each actor was reached from.
        let mut parent: Vec<Option<usize>> = vec![None; n];

        // Adjacency: (neighbor, my_rate, neighbor_rate, edge_id)
        // Balance: q[me] * my_rate = q[neighbor] * neighbor_rate
        let mut adj: Vec<Vec<(usize, i128, i128, usize)>> = vec![Vec::new(); n];
        for (id, e) in self.edges() {
            let p = i128::from(e.produce.bound());
            let c = i128::from(e.consume.bound());
            adj[e.src.0].push((e.dst.0, p, c, id.0));
            adj[e.dst.0].push((e.src.0, c, p, id.0));
        }

        for start in 0..n {
            if frac[start].is_some() {
                continue;
            }
            let one = Ratio::new(1, 1)?;
            frac[start] = Some(one);
            // Each visited actor with its ratio, in visiting order; the
            // list doubles as the work queue: `members[head..]` is due.
            let mut members = vec![(start, one)];
            let mut head = 0;
            while let Some(&(v, fv)) = members.get(head) {
                head += 1;
                for &(u, my_rate, other_rate, eid) in &adj[v] {
                    // q[u] = q[v] * my_rate / other_rate
                    let fu = fv.mul(my_rate, other_rate)?;
                    match frac[u] {
                        None => {
                            frac[u] = Some(fu);
                            parent[u] = Some(v);
                            members.push((u, fu));
                        }
                        Some(existing) if existing != fu => {
                            return Err(self.inconsistency(EdgeId(eid), &frac, &parent));
                        }
                        Some(_) => {}
                    }
                }
            }

            // Scale this component to the minimal positive integer vector.
            let mut denom_lcm: i128 = 1;
            for &(_, r) in &members {
                denom_lcm = lcm_i128(denom_lcm, r.den).ok_or(DataflowError::Overflow)?;
            }
            let mut num_gcd: i128 = 0;
            for &(_, r) in &members {
                let scaled = r
                    .num
                    .checked_mul(denom_lcm / r.den)
                    .ok_or(DataflowError::Overflow)?;
                num_gcd = gcd_i128(num_gcd, scaled.abs());
            }
            let num_gcd = num_gcd.max(1);
            for &(v, r) in &members {
                let scaled = r.num * (denom_lcm / r.den) / num_gcd;
                frac[v] = Some(Ratio {
                    num: scaled,
                    den: 1,
                });
            }
        }

        let mut counts = Vec::with_capacity(n);
        for (i, f) in frac.iter().enumerate() {
            let r = f.ok_or(DataflowError::UnknownActor(ActorId(i)))?;
            if r.num <= 0 || r.den != 1 {
                return Err(DataflowError::Overflow);
            }
            counts.push(u64::try_from(r.num).map_err(|_| DataflowError::Overflow)?);
        }
        Ok(RepetitionVector { counts })
    }

    /// The [`DataflowError::Inconsistent`] witness for `edge`, whose
    /// balance equation contradicts the ratios `frac` the spanning tree
    /// `parent` assigned to both its endpoints.
    fn inconsistency(
        &self,
        edge: EdgeId,
        frac: &[Option<Ratio>],
        parent: &[Option<usize>],
    ) -> DataflowError {
        let e = self.edge(edge);
        let path_from_root = |mut x: usize| {
            let mut path = vec![x];
            while let Some(up) = parent[x] {
                path.push(up);
                x = up;
            }
            path.reverse();
            path
        };
        let (to_src, to_dst) = (path_from_root(e.src.0), path_from_root(e.dst.0));
        let shared = to_src
            .iter()
            .zip(&to_dst)
            .take_while(|(a, b)| a == b)
            .count();
        // The meeting point down to the source, then the destination
        // back up to just below the meeting point.
        let cycle = to_src[shared.saturating_sub(1)..]
            .iter()
            .chain(to_dst[shared..].iter().rev())
            .map(|&a| ActorId(a))
            .collect();
        let pair = |r: Ratio| Some((u64::try_from(r.num).ok()?, u64::try_from(r.den).ok()?));
        let witness = || {
            let implied = frac[e.src.0]?
                .mul(i128::from(e.produce.bound()), i128::from(e.consume.bound()))
                .ok()?;
            Some((pair(frac[e.dst.0]?)?, pair(implied)?))
        };
        match witness() {
            Some((assigned, implied)) => DataflowError::Inconsistent {
                edge,
                cycle,
                assigned,
                implied,
            },
            None => DataflowError::Overflow,
        }
    }

    /// Returns `true` if the graph is sample-rate consistent.
    ///
    /// Equivalent to `self.repetition_vector().is_ok()` but reads better at
    /// call sites that only need the boolean.
    pub fn is_consistent(&self) -> bool {
        self.repetition_vector().is_ok()
    }
}

fn lcm_i128(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd_i128(a.abs(), b.abs())).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_rates() {
        // A --2/3--> B --4/1--> C ; q = [3,2,8] scaled minimal: q_A*2=q_B*3,
        // q_B*4=q_C*1 → q=[3,2,8].
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        g.add_edge(b, c, 4, 1, 0, 4).unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!((q[a], q[b], q[c]), (3, 2, 8));
        assert_eq!(q.total_firings(), 13);
    }

    #[test]
    fn homogeneous_graph_is_all_ones() {
        let mut g = SdfGraph::new();
        let ids: Vec<_> = (0..5).map(|i| g.add_actor(format!("v{i}"), 1)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1, 1, 0, 4).unwrap();
        }
        let q = g.repetition_vector().unwrap();
        assert!(q.iter().all(|(_, c)| c == 1));
    }

    #[test]
    fn inconsistent_triangle_detected() {
        // A -1/1-> B -1/1-> C, plus A -2/1-> C forces q_A = q_C and
        // 2 q_A = q_C simultaneously → inconsistent.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        g.add_edge(a, c, 2, 1, 0, 4).unwrap();
        // The BFS from A fixes q(C) = 2 through e2, then meets e1, whose
        // 1:1 implies q(C) = q(B) = 1.
        assert_eq!(
            g.repetition_vector(),
            Err(DataflowError::Inconsistent {
                edge: EdgeId(1),
                cycle: vec![a, b, c],
                assigned: (2, 1),
                implied: (1, 1),
            })
        );
        assert!(!g.is_consistent());
    }

    #[test]
    fn an_inconsistency_met_against_an_edge_is_stated_at_its_destination() {
        // The BFS from A reaches B and C at ratio 1, then meets e2 from
        // its destination B: the witness is still q(B), which C's ratio
        // and e2's 2:1 put at 2.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(a, c, 1, 1, 0, 4).unwrap();
        g.add_edge(c, b, 2, 1, 0, 4).unwrap();
        assert_eq!(
            g.repetition_vector(),
            Err(DataflowError::Inconsistent {
                edge: EdgeId(2),
                cycle: vec![a, c, b],
                assigned: (1, 1),
                implied: (2, 1),
            })
        );
    }

    #[test]
    fn consistent_multirate_cycle() {
        // A -2/3-> B -3/2-> A is consistent: q_A=3, q_B=2.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        g.add_edge(b, a, 3, 2, 6, 4).unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!((q[a], q[b]), (3, 2));
    }

    #[test]
    fn disconnected_components_solved_independently() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let x = g.add_actor("X", 1);
        let y = g.add_actor("Y", 1);
        g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        g.add_edge(x, y, 5, 1, 0, 4).unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!((q[a], q[b]), (3, 2));
        assert_eq!((q[x], q[y]), (1, 5));
    }

    #[test]
    fn isolated_actor_fires_once() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("lonely", 1);
        let q = g.repetition_vector().unwrap();
        assert_eq!(q[a], 1);
    }

    #[test]
    fn empty_graph_errors() {
        let g = SdfGraph::new();
        assert!(matches!(
            g.repetition_vector(),
            Err(DataflowError::EmptyGraph)
        ));
    }

    #[test]
    fn dynamic_edge_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_dynamic_edge(a, b, 10, 8, 0, 4).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(DataflowError::DynamicRate { .. })
        ));
    }

    #[test]
    fn gcd_lcm_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
    }

    #[test]
    fn paper_figure1_vts_converted_rates() {
        // Figure 1 after VTS conversion: both ports at rate 1.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 40).unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!((q[a], q[b]), (1, 1));
    }

    #[test]
    fn multirate_parallel_edges_consistent() {
        // Two parallel edges with proportional rates stay consistent.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 2, 4, 0, 4).unwrap();
        g.add_edge(a, b, 1, 2, 0, 4).unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!((q[a], q[b]), (2, 1));
    }

    #[test]
    fn multirate_parallel_edges_inconsistent() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 2, 4, 0, 4).unwrap();
        g.add_edge(a, b, 1, 3, 0, 4).unwrap();
        assert!(!g.is_consistent());
    }
}

//! Property tests of the scheduling and synchronization layer, each a
//! seeded loop over 64 or more cases (`SPI_CHAOS_SEED=<case>` replays
//! one).

use std::collections::HashMap;

use spi_dataflow::{EdgeId, PrecedenceGraph, SdfGraph};
use spi_platform::rng::{for_each_case, SplitMix64};
use spi_sched::{
    latency, maximum_cycle_ratio, predicted_metrics, Assignment, CycleRatio, IpcEdgeKind, IpcGraph,
    PeriodicRegime, ProcId, Protocol, RedundancyProof, ResyncAddition, ResyncCertificate,
    ResyncReport, SelfTimedSchedule, SyncEdge, SyncGraph, SyncKind, Task, TaskId, WeightedEdge,
};

/// A live random pipeline with a delayed feedback edge, plus a
/// processor count.
fn scenario(rng: &mut SplitMix64) -> (SdfGraph, usize) {
    let execs: Vec<u64> = (0..rng.gen_range(2..7usize))
        .map(|_| rng.gen_range(1..40u64))
        .collect();
    let procs = rng.gen_range(1..4usize);
    let delay = rng.gen_range(1..4u64);
    let mut g = SdfGraph::new();
    let actors: Vec<_> = execs
        .iter()
        .enumerate()
        .map(|(i, &c)| g.add_actor(format!("v{i}"), c))
        .collect();
    for w in actors.windows(2) {
        g.add_edge(w[0], w[1], 1, 1, 0, 4).expect("edge");
    }
    g.add_edge(*actors.last().expect("nonempty"), actors[0], 1, 1, delay, 4)
        .expect("feedback");
    (g, procs)
}

fn build_sync(g: &SdfGraph, procs: usize, ack: u64) -> SyncGraph {
    let pg = PrecedenceGraph::expand(g).expect("consistent");
    let assign = Assignment::by_actor(&pg, procs, |a| ProcId(a.0 % procs)).expect("assigned");
    let st = SelfTimedSchedule::from_assignment(&pg, assign).expect("scheduled");
    let ipc = IpcGraph::build(g, &pg, &st).expect("built");
    SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: ack }).expect("live")
}

#[test]
fn hlfet_schedules_are_always_valid() {
    for_each_case(64, |rng| {
        let (g, procs) = scenario(rng);
        let pg = PrecedenceGraph::expand(&g).expect("consistent");
        let assign = Assignment::hlfet(&g, &pg, procs).expect("assigned");
        // from_assignment validates precedence internally; HLFET must
        // always produce a coverable assignment.
        let st = SelfTimedSchedule::from_assignment(&pg, assign).expect("valid");
        assert_eq!(st.total_firings(), pg.firings().len());
    });
}

#[test]
fn resync_never_increases_cost_or_breaks_liveness() {
    for_each_case(64, |rng| {
        let (g, procs) = scenario(rng);
        let mut sg = build_sync(&g, procs, 2);
        let before = sg.sync_cost();
        let report = sg.resynchronize().report;
        assert!(report.sync_cost_after <= before);
        assert_eq!(report.sync_cost_after, sg.sync_cost());
        assert!(!sg.has_zero_delay_cycle());
    });
}

/// Asserts that `reduced` still enforces every edge of `original`: it
/// has a path of no greater delay (min-plus closure, Floyd–Warshall).
fn assert_enforced(original: &SyncGraph, reduced: &SyncGraph) {
    let n = reduced.tasks().len();
    let mut dist = vec![vec![u64::MAX; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0;
    }
    for e in reduced.edges() {
        let d = &mut dist[e.from.0][e.to.0];
        *d = (*d).min(e.delay);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if dist[i][k] != u64::MAX && dist[k][j] != u64::MAX {
                    dist[i][j] = dist[i][j].min(dist[i][k] + dist[k][j]);
                }
            }
        }
    }
    for e in original.edges() {
        assert!(
            dist[e.from.0][e.to.0] <= e.delay,
            "constraint {} -> {} (d={}) lost",
            e.from.0,
            e.to.0,
            e.delay
        );
    }
}

#[test]
fn resync_preserves_original_constraints() {
    for_each_case(64, |rng| {
        let (g, procs) = scenario(rng);
        let original = build_sync(&g, procs, 1);
        let mut optimized = original.clone();
        optimized.resynchronize();
        assert_enforced(&original, &optimized);
    });
}

#[test]
fn redundancy_removal_preserves_constraints() {
    for_each_case(64, |rng| {
        let (g, procs) = scenario(rng);
        let original = build_sync(&g, procs, rng.gen_range(1..=3u64));
        let mut reduced = original.clone();
        reduced.remove_redundant();
        assert!(!reduced.has_zero_delay_cycle());
        assert_enforced(&original, &reduced);
    });
}

#[test]
fn mcr_scales_linearly_with_weights() {
    for_each_case(64, |rng| {
        let (w1, w2) = (rng.gen_range(1..50u64), rng.gen_range(1..50u64));
        let (d, scale) = (rng.gen_range(1..5u64), rng.gen_range(2..5u64));
        let base = [
            WeightedEdge {
                from: 0,
                to: 1,
                weight: w1,
                delay: 0,
            },
            WeightedEdge {
                from: 1,
                to: 0,
                weight: w2,
                delay: d,
            },
        ];
        let scaled: Vec<WeightedEdge> = base
            .iter()
            .map(|e| WeightedEdge {
                weight: e.weight * scale,
                ..*e
            })
            .collect();
        let r1 = maximum_cycle_ratio(2, &base).expect("cyclic").ratio;
        let r2 = maximum_cycle_ratio(2, &scaled).expect("cyclic").ratio;
        assert_eq!(
            r2,
            CycleRatio {
                weight: r1.weight * scale,
                delay: r1.delay
            }
        );
    });
}

#[test]
fn latency_is_monotone_under_added_constraints() {
    // Removing redundant edges must not increase any task's first
    // completion (constraints only ever get weaker).
    for_each_case(64, |rng| {
        let (g, procs) = scenario(rng);
        let sg = build_sync(&g, procs, 2);
        let before = latency::self_timed_times(&sg, 1);
        let mut reduced = sg.clone();
        reduced.remove_redundant();
        let after = latency::self_timed_times(&reduced, 1);
        for t in 0..sg.tasks().len() {
            assert!(after[0][t].1 <= before[0][t].1);
        }
    });
}

/// The eq. (3) evaluation `latency::self_timed_times` replaced, kept as
/// the reference: every task of every iteration scans every edge, and the
/// sweep repeats until nothing changes.
fn sweep_reference(graph: &SyncGraph, iterations: u64) -> Vec<Vec<(u64, u64)>> {
    let n = graph.tasks().len();
    let iters = iterations as usize;
    let exec: Vec<u64> = graph.tasks().iter().map(|t| t.exec_cycles).collect();
    let mut times = vec![vec![(0u64, 0u64); n]; iters];
    let mut changed = true;
    let mut sweeps = 0;
    while changed && sweeps < n * iters + 2 {
        changed = false;
        sweeps += 1;
        for k in 0..iters {
            for t in 0..n {
                let mut start = 0u64;
                for e in graph.edges() {
                    if e.to.0 != t {
                        continue;
                    }
                    let dep_iter = k as i64 - e.delay as i64;
                    if dep_iter < 0 {
                        continue;
                    }
                    let (_, dep_end) = times[dep_iter as usize][e.from.0];
                    start = start.max(dep_end);
                }
                let end = start + exec[t];
                if times[k][t] != (start, end) {
                    times[k][t] = (start, end);
                    changed = true;
                }
            }
        }
    }
    times
}

/// A live multirate graph — a chain, forward skip edges and one delayed
/// feedback edge, rates drawn so the balance equations hold — on a
/// random actor-to-processor map, with a random protocol per IPC edge.
fn random_sync(rng: &mut SplitMix64) -> SyncGraph {
    random_ipc_sync(rng).1
}

/// [`random_sync`] together with the IPC graph it derives from.
fn random_ipc_sync(rng: &mut SplitMix64) -> (IpcGraph, SyncGraph) {
    let n = rng.gen_range(2..7usize);
    let q: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=3u32)).collect();
    let mut g = SdfGraph::new();
    let actors: Vec<_> = (0..n)
        .map(|i| g.add_actor(format!("v{i}"), rng.gen_range(1..40u64)))
        .collect();
    let gcd = |mut a: u32, mut b: u32| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    // `u → v` at rates q[v] / g and q[u] / g balances for any u, v.
    let mut edge = |u: usize, v: usize, delay: u64| {
        let d = gcd(q[u], q[v]);
        g.add_edge(actors[u], actors[v], q[v] / d, q[u] / d, delay, 4)
            .expect("edge");
    };
    for i in 1..n {
        edge(i - 1, i, 0);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let u = rng.gen_range(0..n - 1);
        edge(u, rng.gen_range(u + 1..n), 0);
    }
    // At least one iteration's worth of tokens keeps the loop live.
    let per_iter = u64::from(q[0] * q[n - 1] / gcd(q[0], q[n - 1]));
    edge(
        n - 1,
        0,
        per_iter * rng.gen_range(1..=2u64) + rng.gen_range(0..3u64),
    );

    let procs = rng.gen_range(1..4usize);
    let map: Vec<usize> = (0..n).map(|_| rng.gen_range(0..procs)).collect();
    let pg = PrecedenceGraph::expand(&g).expect("consistent");
    let assign = Assignment::by_actor(&pg, procs, |a| ProcId(map[a.0])).expect("assigned");
    let st = SelfTimedSchedule::from_assignment(&pg, assign).expect("scheduled");
    let ipc = IpcGraph::build(&g, &pg, &st).expect("built");
    let sync = SyncGraph::from_ipc(&ipc, |e| match rng.gen_bool(0.5) {
        true => Protocol::Ubs {
            ack_window: rng.gen_range(1..=3u64),
        },
        false => Protocol::Bbs {
            capacity: e.delay + rng.gen_range(1..=3u64),
        },
    })
    .expect("live");
    (ipc, sync)
}

#[test]
fn one_pass_matches_the_sweep_before_and_after_resync() {
    let mut resync_edges = 0;
    for_each_case(64, |rng| {
        let before = random_sync(rng);
        let mut after = before.clone();
        after.resynchronize();
        let added = after.edges().iter().filter(|e| e.kind == SyncKind::Resync);
        resync_edges += added.count();
        // The sweep's solution is unique, so its rows at horizon 64 are
        // its rows at every shorter horizon; one drawn horizon is swept
        // on its own as well.
        let drawn = rng.gen_range(1..=64u64);
        for sg in [&before, &after] {
            let reference = sweep_reference(sg, 64);
            let times = latency::self_timed_times(sg, drawn);
            assert_eq!(times, sweep_reference(sg, drawn), "horizon {drawn}");
            for h in 1..=64 {
                let times = latency::self_timed_times(sg, h);
                assert_eq!(times[..], reference[..h as usize], "horizon {h}");
                let doubled = latency::self_timed_times(sg, 2 * h);
                assert_eq!(doubled[..h as usize], times[..], "horizon {h} vs {}", 2 * h);
            }
        }
    });
    assert!(resync_edges > 0, "no generated graph gained a Resync edge");
}

#[test]
fn a_chain_numbered_against_its_edges_is_one_pass() {
    // A zero-delay chain whose tasks are numbered from its end: every
    // edge runs from a higher to a lower task index, so the sweep needs
    // one pass per task to carry the chain's first start forward.
    let execs = [3u64, 5, 7, 11, 13, 17];
    let n = execs.len();
    let mut g = SdfGraph::new();
    let actors: Vec<_> = execs
        .iter()
        .enumerate()
        .map(|(i, &c)| g.add_actor(format!("v{i}"), c))
        .collect();
    for w in actors.windows(2) {
        g.add_edge(w[0], w[1], 1, 1, 0, 4).expect("edge");
    }
    let pg = PrecedenceGraph::expand(&g).expect("consistent");
    let assign = Assignment::by_actor(&pg, n, |a| ProcId(n - 1 - a.0)).expect("assigned");
    let st = SelfTimedSchedule::from_assignment(&pg, assign).expect("scheduled");
    let ipc = IpcGraph::build(&g, &pg, &st).expect("built");
    let sg = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 }).expect("live");
    assert!(sg
        .edges()
        .iter()
        .filter(|e| e.delay == 0)
        .all(|e| e.from.0 > e.to.0));

    let times = latency::self_timed_times(&sg, 4);
    assert_eq!(times, sweep_reference(&sg, 4));
    // Task `n − 1 − i` runs actor `i`, which ends its first firing at the
    // chain's prefix sum.
    let mut end = 0;
    for (i, &c) in execs.iter().enumerate() {
        end += c;
        assert_eq!(times[0][n - 1 - i], (end - c, end), "actor {i}");
    }
}

// ---- The recomputing resynchronization and eq. (2) Γ, as reference ----
//
// `SyncGraph` keeps one path-delay table current across removals and
// additions, and eq. (2) reads Γ from one table. What follows is the
// code that replaced: a Floyd–Warshall rerun after every removed edge
// and a Dijkstra per IPC edge. The properties hold the table to it.

/// All-pairs least delays and first hops (min-plus Floyd–Warshall).
fn reference_table(n: usize, edges: &[SyncEdge]) -> (Vec<Vec<u64>>, Vec<Vec<usize>>) {
    let mut dist = vec![vec![u64::MAX; n]; n];
    let mut next = vec![vec![usize::MAX; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0;
        next[i][i] = i;
    }
    for e in edges {
        let d = &mut dist[e.from.0][e.to.0];
        if e.delay < *d {
            *d = e.delay;
            next[e.from.0][e.to.0] = e.to.0;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if dist[i][k] == u64::MAX {
                continue;
            }
            for j in 0..n {
                if dist[k][j] == u64::MAX {
                    continue;
                }
                let via = dist[i][k] + dist[k][j];
                if via < dist[i][j] {
                    dist[i][j] = via;
                    next[i][j] = next[i][k];
                }
            }
        }
    }
    (dist, next)
}

fn reference_walk(next: &[Vec<usize>], u: usize, v: usize) -> Option<Vec<TaskId>> {
    if next[u][v] == usize::MAX {
        return None;
    }
    let mut path = vec![TaskId(u)];
    let mut cur = u;
    while cur != v {
        cur = next[cur][v];
        path.push(TaskId(cur));
        if path.len() > next.len() + 1 {
            return None;
        }
    }
    Some(path)
}

fn reference_redundant(n: usize, edges: &[SyncEdge]) -> Vec<usize> {
    let (dist, _) = reference_table(n, edges);
    let mut out = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        if !e.kind.is_removable() {
            continue;
        }
        let redundant = edges.iter().enumerate().any(|(j, e2)| {
            j != i
                && e2.from == e.from
                && e2.delay <= e.delay
                && dist[e2.to.0][e.to.0] != u64::MAX
                && e2.delay + dist[e2.to.0][e.to.0] <= e.delay
        });
        if redundant {
            out.push(i);
        }
    }
    out
}

/// The removal loop: the lowest-index redundant edge goes, then the
/// table is rebuilt.
fn reference_remove(n: usize, edges: &mut Vec<SyncEdge>) -> Vec<SyncEdge> {
    let mut removed = Vec::new();
    while let Some(&i) = reference_redundant(n, edges).first() {
        removed.push(edges.remove(i));
    }
    removed
}

fn reference_mcm(tasks: &[Task], edges: &[SyncEdge]) -> Option<f64> {
    let wedges: Vec<WeightedEdge> = edges
        .iter()
        .map(|e| WeightedEdge {
            from: e.from.0,
            to: e.to.0,
            weight: tasks[e.from.0].exec_cycles,
            delay: e.delay,
        })
        .collect();
    bisection_reference(tasks.len(), &wedges)
}

fn reference_killed_by(edges: &[SyncEdge], u: usize, v: usize, dist: &[Vec<u64>]) -> usize {
    let reach = |a: usize, b: usize| (dist[a][b] != u64::MAX).then(|| dist[a][b]);
    edges
        .iter()
        .filter(|e| {
            e.kind.is_removable()
                && reach(e.from.0, u)
                    .and_then(|a| reach(v, e.to.0).map(|b| a + b))
                    .map(|through| through <= e.delay)
                    .unwrap_or(false)
        })
        .count()
}

/// The greedy loop with its throughput guard: a fresh table every
/// round, and the removal loop above on every trial.
fn reference_resync(tasks: &[Task], edges: &mut Vec<SyncEdge>) -> ResyncCertificate {
    let n = tasks.len();
    let cost = |edges: &[SyncEdge]| edges.iter().filter(|e| e.kind.is_removable()).count();
    let baseline_cost = cost(edges);
    let mut removed_edges = reference_remove(n, edges);
    let mut additions: Vec<ResyncAddition> = Vec::new();
    let base_mcm = reference_mcm(tasks, edges);
    loop {
        let (dist, _) = reference_table(n, edges);
        let mut best: Option<(usize, usize, usize)> = None;
        for u in 0..n {
            for v in 0..n {
                if u == v || tasks[u].proc == tasks[v].proc || dist[v][u] == 0 || dist[u][v] == 0 {
                    continue;
                }
                let gain = reference_killed_by(edges, u, v, &dist);
                if gain >= 2 && best.is_none_or(|(g, ..)| gain > g) {
                    best = Some((gain, u, v));
                }
            }
        }
        let Some((_, u, v)) = best else { break };
        let candidate = SyncEdge {
            from: TaskId(u),
            to: TaskId(v),
            delay: 0,
            kind: SyncKind::Resync,
        };
        let mut trial = edges.clone();
        trial.push(candidate);
        let killed = reference_remove(n, &mut trial);
        if killed.len() < 2 {
            break;
        }
        let new_mcm = reference_mcm(tasks, &trial);
        let worse = match (base_mcm, new_mcm) {
            (Some(b), Some(n)) => n > b + 1e-9,
            (None, Some(_)) => true,
            _ => false,
        };
        if worse {
            break;
        }
        *edges = trial;
        let kills = killed.len();
        let (undone, killed): (Vec<_>, Vec<_>) =
            (killed.into_iter()).partition(|e| additions.iter().any(|a| a.edge == *e));
        additions.retain(|a| !undone.contains(&a.edge));
        additions.push(ResyncAddition {
            edge: candidate,
            killed: kills,
        });
        removed_edges.extend(killed);
    }

    let (dist, next) = reference_table(n, edges);
    let mut removals = Vec::new();
    let mut unproven = Vec::new();
    for e in removed_edges {
        let proved = (dist[e.from.0][e.to.0] != u64::MAX && dist[e.from.0][e.to.0] <= e.delay)
            .then(|| reference_walk(&next, e.from.0, e.to.0))
            .flatten();
        match proved {
            Some(witness) => removals.push(RedundancyProof {
                edge: e,
                witness_delay: dist[e.from.0][e.to.0],
                witness,
            }),
            None => unproven.push(e),
        }
    }
    let report = ResyncReport {
        sync_cost_before: baseline_cost,
        sync_cost_after: cost(edges),
        edges_added: additions.len(),
        edges_removed: removals.len() + unproven.len(),
    };
    ResyncCertificate {
        removals,
        unproven,
        additions,
        report,
    }
}

/// Eq. (2) per application edge with Γ from one Dijkstra per IPC edge
/// (each rebuilding its adjacency list), folded with MAX, `None`
/// absorbing.
fn reference_bounds(ipc: &IpcGraph) -> HashMap<EdgeId, Option<u64>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let dijkstra = |from: TaskId, to: TaskId| -> Option<u64> {
        let n = ipc.tasks().len();
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for e in ipc.edges() {
            adj[e.from.0].push((e.to.0, e.delay));
        }
        let mut dist = vec![u64::MAX; n];
        dist[from.0] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, from.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == to.0 {
                return Some(d);
            }
            for &(v, w) in &adj[u] {
                if d + w < dist[v] {
                    dist[v] = d + w;
                    heap.push(Reverse((d + w, v)));
                }
            }
        }
        None
    };
    let mut bounds: HashMap<EdgeId, Option<u64>> = HashMap::new();
    for e in ipc.ipc_edges() {
        let IpcEdgeKind::Ipc { via } = e.kind else {
            continue;
        };
        match dijkstra(e.to, e.from) {
            Some(gamma) => {
                let slot = bounds.entry(via).or_insert(Some(0));
                if let Some(cur) = slot {
                    *slot = Some((*cur).max(gamma + e.delay));
                }
            }
            None => {
                bounds.insert(via, None);
            }
        }
    }
    bounds
}

#[test]
fn one_table_matches_the_recomputing_reference() {
    let (mut added, mut removed, mut resynced) = (0, 0, 0);
    for_each_case(600, |rng| {
        let (ipc, sg) = random_ipc_sync(rng);
        assert_eq!(ipc.buffer_bounds_by_edge(), reference_bounds(&ipc));
        let n = sg.tasks().len();

        let mut reduced = sg.clone();
        let mut want = sg.edges().to_vec();
        assert_eq!(reduced.remove_redundant(), reference_remove(n, &mut want));
        assert_eq!(reduced.edges(), &want[..]);

        let mut after = sg.clone();
        let cert = after.resynchronize();
        let mut want = sg.edges().to_vec();
        let reference = reference_resync(sg.tasks(), &mut want);
        assert_eq!(after.edges(), &want[..]);
        assert_eq!(cert, reference);
        assert_eq!(cert.render(), reference.render());
        added += cert.additions.len();
        removed += cert.report.edges_removed;
        resynced += usize::from(!cert.additions.is_empty());
    });
    println!("{added} additions ({resynced} graphs) and {removed} removals matched");
    assert!(added > 0, "no generated graph gained a Resync edge");
}

/// Least delays from `source` by Bellman–Ford over `sg`'s edges.
fn bellman_ford(sg: &SyncGraph, source: usize) -> Vec<Option<u64>> {
    let mut dist = vec![None; sg.tasks().len()];
    dist[source] = Some(0);
    for _ in 0..sg.tasks().len() {
        for e in sg.edges() {
            if let Some(d) = dist[e.from.0].map(|d: u64| d + e.delay) {
                if dist[e.to.0].is_none_or(|cur| d < cur) {
                    dist[e.to.0] = Some(d);
                }
            }
        }
    }
    dist
}

#[test]
fn min_delay_matches_bellman_ford_before_and_after_resync() {
    for_each_case(200, |rng| {
        let before = random_sync(rng);
        let mut after = before.clone();
        after.resynchronize();
        for sg in [&before, &after] {
            for s in 0..sg.tasks().len() {
                let want = bellman_ford(sg, s);
                for (t, &want) in want.iter().enumerate() {
                    assert_eq!(sg.min_delay(TaskId(s), TaskId(t)), want, "t{s} -> t{t}");
                }
            }
        }
    });
}

// ---- The bisected cycle ratio and Karp's algorithm, as reference ----
//
// `maximum_cycle_ratio` is Howard's policy iteration over the integer
// weights and delays. What follows is the search it replaced (100
// bisection steps, each a Bellman–Ford positive-cycle test) and an
// exact Karp-style O(n·m) computation; the properties hold it to both.

/// The replaced `maximum_cycle_ratio`: `None` if acyclic, +∞ for a
/// positive zero-delay cycle, else 100 bisection steps on `λ` with a
/// Bellman–Ford test for a cycle of positive `Σ(w − λ·d)`.
fn bisection_reference(n: usize, edges: &[WeightedEdge]) -> Option<f64> {
    let has_cycle = |keep: &dyn Fn(&WeightedEdge) -> bool| {
        let mut indeg = vec![0usize; n];
        for e in edges.iter().filter(|e| keep(e)) {
            indeg[e.to] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut drained = 0;
        while let Some(u) = ready.pop() {
            drained += 1;
            for e in edges.iter().filter(|e| keep(e) && e.from == u) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    ready.push(e.to);
                }
            }
        }
        drained < n
    };
    let has_positive_cycle = |lambda: f64| {
        let cost = |e: &WeightedEdge| {
            if lambda.is_infinite() {
                if e.delay > 0 {
                    return f64::NEG_INFINITY;
                }
                e.weight as f64
            } else {
                e.weight as f64 - lambda * e.delay as f64
            }
        };
        let mut dist = vec![0.0_f64; n];
        for _ in 0..n {
            let mut changed = false;
            for e in edges {
                let c = cost(e);
                if c == f64::NEG_INFINITY {
                    continue;
                }
                let cand = dist[e.from] + c;
                if cand > dist[e.to] + 1e-12 {
                    dist[e.to] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        true
    };
    if n == 0 || edges.is_empty() || !has_cycle(&|_| true) {
        return None;
    }
    if has_cycle(&|e| e.delay == 0) && has_positive_cycle(f64::INFINITY) {
        return Some(f64::INFINITY);
    }
    let mut lo = 0.0_f64;
    let mut hi: f64 = edges.iter().map(|e| e.weight as f64).sum::<f64>().max(1.0);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if has_positive_cycle(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// What Karp's reference finds.
#[derive(Debug, PartialEq)]
enum KarpRatio {
    Acyclic,
    Infinite,
    /// `numerator / denominator` in lowest terms.
    Finite(i128, i128),
}

/// The maximum cycle ratio by Karp's theorem, exactly. Every cycle with
/// a token is cut after each delayed edge: `H` has an edge `x → v` for a
/// delayed edge `x → y` followed by the heaviest zero-delay `y ⇝ v`
/// path, and an `H` edge of delay `d` is a chain of `d` unit edges. A
/// cycle's ratio is then a cycle mean of `H`, and Karp's
/// `max_v min_k (D_N(v) − D_k(v)) / (N − k)` over walks of exactly `k`
/// edges starting anywhere gives the largest.
fn karp_reference(n: usize, edges: &[WeightedEdge]) -> KarpRatio {
    // Heaviest zero-delay paths by Bellman–Ford; still relaxing after n
    // rounds means a positive zero-delay cycle.
    let mut heaviest = vec![vec![None::<i128>; n]; n];
    for (y, row) in heaviest.iter_mut().enumerate() {
        row[y] = Some(0);
        for round in 0..=n {
            let mut changed = false;
            for e in edges.iter().filter(|e| e.delay == 0) {
                if let Some(d) = row[e.from].map(|d| d + i128::from(e.weight)) {
                    if row[e.to].is_none_or(|cur| d > cur) {
                        row[e.to] = Some(d);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            if round == n {
                return KarpRatio::Infinite;
            }
        }
    }
    // `H` with unit delays: node ids past `n` are chain links.
    let mut unit: Vec<(usize, usize, i128)> = Vec::new();
    let mut nodes = n;
    for e in edges.iter().filter(|e| e.delay > 0) {
        for (v, &path) in heaviest[e.to].iter().enumerate() {
            let Some(path) = path else { continue };
            let mut at = e.from;
            for _ in 1..e.delay {
                unit.push((at, nodes, 0));
                at = nodes;
                nodes += 1;
            }
            unit.push((at, v, i128::from(e.weight) + path));
        }
    }
    // D_k(v): the heaviest walk of exactly k unit edges ending at v.
    let mut walks = vec![vec![Some(0i128); nodes]];
    for k in 1..=nodes {
        let mut next = vec![None; nodes];
        for &(u, v, w) in &unit {
            if let Some(d) = walks[k - 1][u].map(|d| d + w) {
                if next[v].is_none_or(|cur| d > cur) {
                    next[v] = Some(d);
                }
            }
        }
        walks.push(next);
    }
    let mut best: Option<(i128, i128)> = None;
    for (v, &last) in walks[nodes].iter().enumerate() {
        let Some(last) = last else {
            continue;
        };
        let worst = (0..nodes)
            .filter_map(|k| Some((last - walks[k][v]?, (nodes - k) as i128)))
            .reduce(|a, b| if b.0 * a.1 < a.0 * b.1 { b } else { a });
        if let Some(w) = worst {
            if best.is_none_or(|b| w.0 * b.1 > b.0 * w.1) {
                best = Some(w);
            }
        }
    }
    match best {
        Some((num, den)) => {
            let (mut a, mut b) = (num, den);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            KarpRatio::Finite(num / a, den / a)
        }
        // Cycles, but none with a token, and none of them positive.
        None if (0..n).any(|y| {
            heaviest[y].iter().enumerate().any(|(v, p)| {
                p.is_some()
                    && edges
                        .iter()
                        .any(|e| e.delay == 0 && e.from == v && e.to == y)
            })
        }) =>
        {
            KarpRatio::Finite(0, 1)
        }
        None => KarpRatio::Acyclic,
    }
}

/// A random graph over up to 8 nodes: any edge may be a self-loop or
/// parallel to another, weights and delays may be zero, and components
/// need not connect. One graph in six is acyclic (edges only go up).
fn random_weighted(rng: &mut SplitMix64) -> (usize, Vec<WeightedEdge>) {
    let n = rng.gen_range(1..9usize);
    let acyclic = rng.gen_range(0..6u32) == 0;
    let edges = (0..rng.gen_range(n..3 * n + 1))
        .filter_map(|_| {
            let (mut from, mut to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if acyclic {
                if from == to {
                    return None;
                }
                (from, to) = (from.min(to), from.max(to));
            }
            Some(WeightedEdge {
                from,
                to,
                weight: rng.gen_range(0..30u64) * u64::from(rng.gen_range(0..5u32) != 0),
                delay: rng.gen_range(0..4u64) * u64::from(rng.gen_bool(0.85)),
            })
        })
        .collect();
    (n, edges)
}

/// Holds `maximum_cycle_ratio` on one graph to both references and
/// checks its cycle; returns what Karp found.
fn check_against_references(n: usize, edges: &[WeightedEdge]) -> KarpRatio {
    let karp = karp_reference(n, edges);
    let bisected = bisection_reference(n, edges);
    let Some(critical) = maximum_cycle_ratio(n, edges) else {
        assert_eq!(karp, KarpRatio::Acyclic, "{edges:?}");
        assert_eq!(bisected, None);
        return karp;
    };
    // The cycle is a cycle of the graph with exactly that ratio.
    let cycle = &critical.edges;
    assert!(!cycle.is_empty());
    for (i, &e) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        assert_eq!(edges[e].to, edges[next].from, "{edges:?}: cycle {cycle:?}");
    }
    let weight = cycle.iter().map(|&e| edges[e].weight).sum();
    let delay = cycle.iter().map(|&e| edges[e].delay).sum();
    assert_eq!(
        (critical.ratio.weight, critical.ratio.delay),
        (weight, delay)
    );
    let ratio = critical.ratio;
    match karp {
        KarpRatio::Acyclic => panic!("{edges:?}: Howard found {ratio:?}, Karp no cycle"),
        KarpRatio::Infinite => {
            assert!(ratio.is_infinite(), "{edges:?}: {ratio:?}");
            assert_eq!(bisected, Some(f64::INFINITY));
        }
        KarpRatio::Finite(num, den) => {
            let (w, d) = (i128::from(ratio.weight), i128::from(ratio.delay.max(1)));
            assert!(!ratio.is_infinite(), "{edges:?}: {ratio:?}");
            assert_eq!(w * den, num * d, "{edges:?}: {ratio:?} vs Karp {num}/{den}");
            let bisected = bisected.expect("cyclic");
            let exact = ratio.as_f64();
            assert!(
                (bisected - exact).abs() <= 1e-9 * exact.max(1.0),
                "{edges:?}: bisection {bisected} vs {exact}"
            );
        }
    }
    karp
}

#[test]
fn howard_matches_karp_exactly_and_the_bisection_closely() {
    let (mut acyclic, mut infinite, mut finite) = (0, 0, 0);
    for_each_case(2000, |rng| {
        let (n, edges) = random_weighted(rng);
        match check_against_references(n, &edges) {
            KarpRatio::Acyclic => acyclic += 1,
            KarpRatio::Infinite => infinite += 1,
            KarpRatio::Finite(..) => finite += 1,
        }
    });
    println!("{acyclic} acyclic, {infinite} infinite, {finite} finite graphs matched");
    assert!(acyclic > 0 && infinite > 0 && finite > 0);

    let e = |from, to, weight, delay| WeightedEdge {
        from,
        to,
        weight,
        delay,
    };
    // A lone weightless, tokenless cycle is exactly 0; the bisection
    // returned `hi · 2⁻¹⁰⁰` there.
    let lone = [e(0, 1, 0, 0), e(1, 0, 0, 0)];
    assert_eq!(check_against_references(2, &lone), KarpRatio::Finite(0, 1));
    assert_eq!(
        maximum_cycle_ratio(2, &lone)
            .expect("cyclic")
            .ratio
            .as_f64(),
        0.0
    );
    assert!(bisection_reference(2, &lone).expect("cyclic") > 0.0);
    // A positive zero-delay cycle beside a finite one is +∞.
    let stuck = [e(0, 0, 5, 1), e(1, 2, 1, 0), e(2, 1, 0, 0)];
    assert_eq!(check_against_references(3, &stuck), KarpRatio::Infinite);
    // Self-loops, parallel edges and two components.
    let mixed = [
        e(0, 0, 7, 2),
        e(1, 2, 3, 1),
        e(1, 2, 9, 1),
        e(2, 1, 4, 2),
        e(3, 3, 0, 0),
    ];
    assert_eq!(
        check_against_references(4, &mixed),
        KarpRatio::Finite(13, 3)
    );
    assert_eq!(
        check_against_references(3, &[e(0, 1, 4, 0), e(1, 2, 4, 1)]),
        KarpRatio::Acyclic
    );
}

#[test]
fn the_periodic_regime_grows_by_the_cycle_ratio_and_matches_eq3() {
    let horizons = [1u64, 255, 256, 257, 500, 5_000];
    for_each_case(64, |rng| {
        let before = random_sync(rng);
        let mut after = before.clone();
        after.resynchronize();
        for sg in [&before, &after] {
            // Over one cyclicity c, the regime's makespan grows by c · λ.
            let lambda = sg.iteration_period().expect("every processor loops back");
            let regime = PeriodicRegime::new(sg, 100_000);
            let (c, increment) = regime.period().expect("eq. (3) turns periodic");
            assert_eq!(
                u128::from(increment) * u128::from(lambda.delay),
                u128::from(c) * u128::from(lambda.weight),
                "c = {c}, increment {increment}, λ = {lambda:?}"
            );
            // Every horizon is exact.
            let times = latency::self_timed_times(sg, 5_000);
            for h in horizons {
                let want = times[h as usize - 1].iter().map(|&(_, e)| e).max();
                let m = predicted_metrics(sg, h, Some(lambda));
                assert_eq!(Some(m.makespan_cycles), want, "h = {h}");
                assert_eq!(m.first_iteration_makespan, regime.makespan(1));
            }
        }
    });
}

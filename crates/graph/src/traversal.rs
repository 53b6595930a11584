//! Breadth-first traversal, connected components, and GCC extraction.
//!
//! The paper computes every evaluation metric "for the giant connected
//! component (GCC)" (§5.2) because the construction algorithms do not
//! maintain connectivity. [`giant_component`] is therefore on the hot path
//! of the whole reproduction harness.
//!
//! Every routine here is generic over [`AdjacencyView`], so it runs both
//! on a mutable [`Graph`] and on a frozen [`CsrGraph`]
//! snapshot (two flat arrays, no per-list pointer chase — the
//! representation the analyzer-side all-source sweeps use). Neighbor
//! order is identical in both representations, so results are
//! bit-identical regardless of which one a caller traverses.
//!
//! ## Direction-optimizing BFS
//!
//! [`bfs_visit`] is a direction-optimizing (Beamer-style) kernel: each
//! level is expanded either **top-down** (scan the frontier, probe its
//! neighbors) or **bottom-up** (scan the unvisited nodes, probe their
//! neighbors for a frontier parent, stopping at the first hit). The
//! switching heuristic is purely integer-valued — no timing, no
//! randomness: with `mf` the edge endpoints on the current frontier,
//! `mu` the endpoints on still-unvisited nodes, and `nf` the frontier
//! size, a top-down level switches down when `mf · ALPHA > mu`
//! ([`DOBFS_ALPHA`]) and a bottom-up level switches back up when
//! `nf · BETA < n` ([`DOBFS_BETA`]). Every quantity is a deterministic
//! function of the graph and the source, so the traversal — including
//! which direction each level ran in — is reproducible across runs,
//! thread counts, and representations.
//!
//! **Visit-order contract:** top-down levels emit `visit` callbacks in
//! the classic FIFO discovery order (identical to the historical
//! queue-based kernel — discovery order equals pop order in a
//! level-synchronous BFS); bottom-up levels emit them in **ascending
//! node id**. Both orders agree on the *set* of `(node, level)` pairs,
//! so every reducer built on this kernel (distance histograms,
//! eccentricities, reach counts) is order-insensitive within a level
//! and produces bit-identical results on either path.
//!
//! ## Multi-source BFS (64 sources per sweep)
//!
//! [`bfs_levels64`] walks up to [`MSBFS_WIDTH`] = 64 sources at once
//! (MS-BFS, Then et al., VLDB 2015): every node carries three `u64`
//! words — `seen`, `front`, `next` — whose bit `i` stands for source `i`
//! of the batch, so one edge probe advances all 64 traversals. It only
//! reports per-level reach counts (`popcount` of the newly reached
//! bits), which is all the exact distance histogram needs. Like
//! [`bfs_visit`] it is hybrid: a level runs **push** (scan the active
//! frontier nodes, OR their `front` word into each neighbor) or **pull**
//! (scan the not-yet-saturated nodes, OR their neighbors' `front`
//! words), chosen by the integer rule of [`MSBFS_ALPHA`]. Both
//! directions compute the same newly reached bit set, so the counts are
//! identical whichever way a level runs.

use crate::csr::{AdjacencyView, CsrGraph};
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance sentinel for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Top-down → bottom-up switch: take the bottom-up path when the
/// frontier carries more than `1/ALPHA` of the unexplored edge
/// endpoints (`mf · ALPHA > mu`). The classic direction-optimizing
/// constant (Beamer et al., SC'12).
pub const DOBFS_ALPHA: u64 = 14;

/// Bottom-up → top-down switch: return to the top-down path when the
/// frontier shrinks below `n / BETA` nodes (`nf · BETA < n`).
pub const DOBFS_BETA: u64 = 24;

/// Reusable per-worker scratch for [`bfs_visit`]: the distance array,
/// the frontier/next queues, and the two frontier bitmaps the
/// bottom-up direction reads and writes. One allocation per worker,
/// reused across thousands of sources by the sharded streaming
/// traversals in `dk-metrics` — `4n + 4n + 4n + 2·(n/8)` bytes, the
/// figure `dk_metrics::stream::per_worker_bytes` charges.
#[derive(Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    front_bits: Vec<u64>,
    next_bits: Vec<u64>,
}

impl BfsScratch {
    /// Scratch sized for an `n`-node graph (resized on demand by
    /// [`bfs_visit`], so any starting size is valid).
    pub fn new(n: usize) -> Self {
        let mut s = BfsScratch::default();
        s.resize(n);
        s
    }

    /// Distances written by the most recent [`bfs_visit`] call
    /// (unreachable nodes hold [`UNREACHABLE`]).
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    fn resize(&mut self, n: usize) {
        self.dist.resize(n, UNREACHABLE);
        let words = n.div_ceil(64);
        self.front_bits.resize(words, 0);
        self.next_bits.resize(words, 0);
    }
}

#[inline]
fn bit_test(bits: &[u64], i: NodeId) -> bool {
    bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: NodeId) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// Single-source direction-optimizing BFS into caller-provided scratch
/// — the hot loop of the sharded streaming traversals in `dk-metrics`,
/// where one worker runs thousands of BFS sweeps reusing the same
/// `O(n)` scratch instead of allocating per source.
///
/// Resets the scratch, runs the BFS, and calls `visit(node, distance)`
/// exactly once for every reached node: in FIFO discovery order on
/// top-down levels (identical to the historical queue-based kernel)
/// and in ascending node id on bottom-up levels — see the
/// [module docs](self) for the switching heuristic and the determinism
/// argument. The visit order is identical for [`Graph`] and
/// [`CsrGraph`], so reducers built on this kernel (distance
/// histograms) are representation-independent.
/// Returns `(reached, depth)`: the number of reached nodes and the
/// greatest finite distance (the source's eccentricity within its
/// component — the streamed diameter reducer max-merges this).
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_visit<V: AdjacencyView + ?Sized>(
    g: &V,
    source: NodeId,
    scratch: &mut BfsScratch,
    mut visit: impl FnMut(NodeId, u32),
) -> (u64, u32) {
    let n = g.node_count();
    assert!((source as usize) < n, "BFS source out of range");
    scratch.resize(n);
    let BfsScratch {
        dist,
        frontier,
        next,
        front_bits,
        next_bits,
    } = scratch;
    dist.fill(UNREACHABLE);
    dist[source as usize] = 0;
    visit(source, 0);
    frontier.clear();
    frontier.push(source);
    let mut reached = 1u64;
    let mut depth = 0u32;
    // `mu`: edge endpoints on unvisited nodes; `mf`: endpoints on the
    // current frontier. Both integers, so the per-level direction
    // decision is a pure function of (graph, source).
    let mut mu = g.edge_endpoints() - g.degree(source) as u64;
    let mut mf = g.degree(source) as u64;
    let mut bottom_up = false;
    // whether `front_bits` currently mirrors `frontier` (only
    // maintained across consecutive bottom-up levels)
    let mut bits_valid = false;
    while !frontier.is_empty() {
        bottom_up = if bottom_up {
            frontier.len() as u64 * DOBFS_BETA >= n as u64
        } else {
            mf * DOBFS_ALPHA > mu
        };
        next.clear();
        let mut mf_next = 0u64;
        let d = depth + 1;
        if bottom_up {
            if !bits_valid {
                front_bits.fill(0);
                for &u in frontier.iter() {
                    bit_set(front_bits, u);
                }
            }
            next_bits.fill(0);
            for v in 0..n as NodeId {
                if dist[v as usize] != UNREACHABLE {
                    continue;
                }
                for &u in g.neighbors(v) {
                    if bit_test(front_bits, u) {
                        dist[v as usize] = d;
                        visit(v, d);
                        next.push(v);
                        bit_set(next_bits, v);
                        mf_next += g.degree(v) as u64;
                        break;
                    }
                }
            }
            std::mem::swap(front_bits, next_bits);
            bits_valid = true;
        } else {
            for &u in frontier.iter() {
                for &v in g.neighbors(u) {
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = d;
                        visit(v, d);
                        next.push(v);
                        mf_next += g.degree(v) as u64;
                    }
                }
            }
            bits_valid = false;
        }
        reached += next.len() as u64;
        if !next.is_empty() {
            depth = d;
        }
        mu -= mf_next;
        mf = mf_next;
        std::mem::swap(frontier, next);
    }
    (reached, depth)
}

/// Sources one [`bfs_levels64`] sweep walks: one bit of a `u64` word each.
pub const MSBFS_WIDTH: usize = 64;

/// Push → pull switch of [`bfs_levels64`]: a level runs pull (bottom-up)
/// when the edge endpoints on its active frontier, times `MSBFS_ALPHA`,
/// exceed all `2m` endpoints of the graph. The frontier of a 64-source
/// batch is the union of 64 frontiers, so it is compared against the
/// whole graph rather than the unexplored remainder [`DOBFS_ALPHA`]
/// uses; the constant is the same classic 14. Sparse long-diameter
/// shapes (paths, cycles, grids) stay push on every level, where a
/// pull-only sweep would rescan all `n` nodes per level.
pub const MSBFS_ALPHA: u64 = 14;

/// Reusable per-worker scratch for [`bfs_levels64`]: the three per-node
/// source words (`seen`, `front`, `next`: `3 · 8n` bytes) and the two
/// active-node lists (`2 · 4n` bytes) — `32n` bytes in all, inside the
/// `40n` that `dk_metrics::stream::per_worker_bytes` charges a worker.
#[derive(Debug, Default)]
pub struct MultiBfsScratch {
    seen: Vec<u64>,
    front: Vec<u64>,
    next: Vec<u64>,
    active: Vec<NodeId>,
    next_active: Vec<NodeId>,
}

impl MultiBfsScratch {
    /// Scratch sized for an `n`-node graph (resized on demand by
    /// [`bfs_levels64`], so any starting size is valid).
    pub fn new(n: usize) -> Self {
        MultiBfsScratch {
            seen: vec![0; n],
            front: vec![0; n],
            next: vec![0; n],
            active: Vec::with_capacity(n),
            next_active: Vec::with_capacity(n),
        }
    }
}

/// What one [`bfs_levels64`] sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultiBfsRun {
    /// `(source, node)` pairs reached, the sources themselves included.
    pub reached: u64,
    /// Levels expanded top-down (push over the active frontier).
    pub push_levels: u32,
    /// Levels expanded bottom-up (pull over the unsaturated nodes).
    pub pull_levels: u32,
}

/// Multi-source BFS over up to [`MSBFS_WIDTH`] sources at once: adds to
/// `counts[x]` the number of `(source, node)` pairs at distance `x`
/// (growing `counts` as needed; `counts[0]` gains `sources.len()`).
/// Source `i` of the slice owns bit `i` of every node word, so a
/// repeated source is simply counted once per occurrence.
///
/// Each level expands push or pull by the [`MSBFS_ALPHA`] rule — see the
/// [module docs](self). The counts are integer and independent of the
/// direction taken, so they equal a per-source [`bfs_visit`] histogram
/// exactly; the direction sequence is a pure function of the graph and
/// the batch, and is reported in the returned [`MultiBfsRun`].
///
/// # Panics
/// Panics if `sources` holds more than [`MSBFS_WIDTH`] entries or an
/// out-of-range node id.
pub fn bfs_levels64<V: AdjacencyView + ?Sized>(
    g: &V,
    sources: &[NodeId],
    scratch: &mut MultiBfsScratch,
    counts: &mut Vec<u64>,
) -> MultiBfsRun {
    assert!(sources.len() <= MSBFS_WIDTH, "more than 64 BFS sources");
    let mut run = MultiBfsRun::default();
    if sources.is_empty() {
        return run;
    }
    let n = g.node_count();
    let MultiBfsScratch {
        seen,
        front,
        next,
        active,
        next_active,
    } = scratch;
    for words in [&mut *seen, &mut *front, &mut *next] {
        words.clear();
        words.resize(n, 0);
    }
    active.clear();
    next_active.clear();
    let full = if sources.len() == MSBFS_WIDTH {
        u64::MAX
    } else {
        (1u64 << sources.len()) - 1
    };
    // `mf`: edge endpoints on the active frontier, the push/pull input
    let mut mf = 0u64;
    for (i, &s) in sources.iter().enumerate() {
        if front[s as usize] == 0 {
            active.push(s);
            mf += g.degree(s) as u64;
        }
        front[s as usize] |= 1u64 << i;
        seen[s as usize] |= 1u64 << i;
    }
    if counts.is_empty() {
        counts.push(0);
    }
    counts[0] += sources.len() as u64;
    run.reached = sources.len() as u64;
    let endpoints = g.edge_endpoints();
    let mut d = 0usize;
    while !active.is_empty() {
        d += 1;
        if mf * MSBFS_ALPHA > endpoints {
            run.pull_levels += 1;
            for v in 0..n as NodeId {
                let want = full & !seen[v as usize];
                if want == 0 {
                    continue;
                }
                let mut got = 0u64;
                for &u in g.neighbors(v) {
                    got |= front[u as usize];
                    if got & want == want {
                        break;
                    }
                }
                if got & want != 0 {
                    next[v as usize] = got & want;
                    next_active.push(v);
                }
            }
        } else {
            run.push_levels += 1;
            for &u in active.iter() {
                let f = front[u as usize];
                for &v in g.neighbors(u) {
                    let new = f & !seen[v as usize];
                    if new != 0 {
                        if next[v as usize] == 0 {
                            next_active.push(v);
                        }
                        next[v as usize] |= new;
                    }
                }
            }
        }
        // commit the level: `next` becomes the frontier, the old
        // frontier's words are cleared so `next` starts the next level
        // all-zero again
        let mut level = 0u64;
        mf = 0;
        for &v in next_active.iter() {
            let bits = next[v as usize];
            seen[v as usize] |= bits;
            level += u64::from(bits.count_ones());
            mf += g.degree(v) as u64;
        }
        for &u in active.iter() {
            front[u as usize] = 0;
        }
        std::mem::swap(front, next);
        std::mem::swap(active, next_active);
        next_active.clear();
        if level > 0 {
            if counts.len() <= d {
                counts.resize(d + 1, 0);
            }
            counts[d] += level;
            run.reached += level;
        }
    }
    run
}

/// Single-source BFS distances.
///
/// Returns a vector of hop counts from `source`; unreachable nodes hold
/// [`UNREACHABLE`].
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_distances<V: AdjacencyView + ?Sized>(g: &V, source: NodeId) -> Vec<u32> {
    let mut scratch = BfsScratch::new(g.node_count());
    bfs_visit(g, source, &mut scratch, |_, _| {});
    scratch.dist
}

/// Connected components as a label vector plus component count.
///
/// `labels[u]` is the 0-based component id of node `u`; components are
/// numbered in **increasing order of their smallest member id** (the BFS
/// seeds scan ids ascending), so labeling is deterministic and label
/// order doubles as the workspace-wide size tie-break key: a smaller
/// label means "contains a smaller node id". See
/// [`giant_component_nodes`] for the rule's statement.
pub fn connected_components<V: AdjacencyView + ?Sized>(g: &V) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = next;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (labels, next as usize)
}

/// Sizes of all connected components, indexed by component label.
pub fn component_sizes<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for l in labels {
        sizes[l as usize] += 1;
    }
    sizes
}

/// `true` if the graph is connected. The empty graph is considered
/// connected (it has no pair of disconnected nodes); a graph of isolated
/// nodes is not.
pub fn is_connected<V: AdjacencyView + ?Sized>(g: &V) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Node ids of the giant (largest) connected component, in ascending
/// order. Empty for an empty graph.
///
/// **Tie-break rule:** when two or more components tie for largest, the
/// winner is deterministically the component **containing the smallest
/// node id**. (Component labels from [`connected_components`] ascend
/// with each component's smallest member, so "smallest label wins"
/// implements exactly this.) The rule is workspace-wide: the attack
/// engine in `dk-metrics` replicates it through
/// [`UnionFind::min_of`](crate::unionfind::UnionFind::min_of), so
/// removal-sweep trajectories and thresholds are reproducible against
/// this function step for step.
pub fn giant_component_nodes<V: AdjacencyView + ?Sized>(g: &V) -> Vec<NodeId> {
    if g.node_count() == 0 {
        return Vec::new();
    }
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let giant = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i as u32)
        .expect("non-empty graph has at least one component");
    (0..g.node_count() as NodeId)
        .filter(|&u| labels[u as usize] == giant)
        .collect()
}

/// Extracts the giant (largest) connected component.
///
/// Returns the GCC as a new graph with nodes renumbered `0..size` (in
/// ascending original-id order) and the mapping `new id → original id`.
/// Ties between equal-size components break toward the component
/// containing the smallest node id — the deterministic rule stated on
/// [`giant_component_nodes`].
///
/// The component labeling runs on a fresh [`CsrGraph`] snapshot — at
/// reproduction scale the flat-array BFS more than pays for the O(n + m)
/// snapshot build.
///
/// Returns an empty graph for an empty input.
pub fn giant_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    if g.is_empty() {
        return (Graph::new(), Vec::new());
    }
    let nodes = giant_component_nodes(&CsrGraph::from_graph(g));
    g.subgraph(&nodes)
        .expect("component nodes are valid and unique")
}

/// Fraction of nodes inside the giant component (1.0 for connected graphs).
pub fn gcc_fraction<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    if g.node_count() == 0 {
        return 1.0;
    }
    let sizes = component_sizes(g);
    *sizes.iter().max().expect("non-empty") as f64 / g.node_count() as f64
}

/// Eccentricity of `source`: the greatest BFS distance to any reachable
/// node. Returns `None` if some node is unreachable from `source`.
pub fn eccentricity<V: AdjacencyView + ?Sized>(g: &V, source: NodeId) -> Option<u32> {
    let mut scratch = BfsScratch::new(g.node_count());
    let (reached, depth) = bfs_visit(g, source, &mut scratch, |_, _| {});
    (reached as usize == g.node_count()).then_some(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn bfs_on_path() {
        let g = builders::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn components_labeling_deterministic() {
        // {0,1}, {2,3,4}, {5}
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(component_sizes(&g), vec![2, 3, 1]);
    }

    #[test]
    fn connectivity_edge_cases() {
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&Graph::with_nodes(1)));
        assert!(!is_connected(&Graph::with_nodes(2)));
        assert!(is_connected(&builders::cycle(5)));
    }

    #[test]
    fn gcc_picks_largest() {
        let g = Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap();
        let (gcc, map) = giant_component(&g);
        assert_eq!(gcc.node_count(), 3);
        assert_eq!(gcc.edge_count(), 3);
        assert_eq!(map, vec![2, 3, 4]);
        assert!((gcc_fraction(&g) - 3.0 / 7.0).abs() < 1e-12);
        gcc.check_invariants().unwrap();
    }

    #[test]
    fn gcc_of_connected_graph_is_identity_shape() {
        let g = builders::complete(5);
        let (gcc, map) = giant_component(&g);
        assert_eq!(gcc.node_count(), 5);
        assert_eq!(gcc.edge_count(), 10);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gcc_of_empty_graph() {
        let (gcc, map) = giant_component(&Graph::new());
        assert!(gcc.is_empty());
        assert!(map.is_empty());
    }

    #[test]
    fn gcc_tie_breaks_to_first_component() {
        // two components of size 2: {0,1} and {2,3}
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let (_, map) = giant_component(&g);
        assert_eq!(map, vec![0, 1]);
    }

    #[test]
    fn gcc_tie_breaks_to_component_with_smallest_node_id() {
        // two triangles of equal size, with the component containing
        // node 0 listed LAST in the edge list: {1,3,5} then {0,2,4}.
        // The documented rule — on size ties, the component containing
        // the smallest node id wins — must hold regardless of edge
        // insertion order.
        let g = Graph::from_edges(6, [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 0)]).unwrap();
        assert_eq!(giant_component_nodes(&g), vec![0, 2, 4]);
        let (gcc, map) = giant_component(&g);
        assert_eq!(map, vec![0, 2, 4]);
        assert_eq!(gcc.edge_count(), 3);
        // and identically on the CSR snapshot
        assert_eq!(
            giant_component_nodes(&CsrGraph::from_graph(&g)),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn bfs_visit_reports_reach_depth_and_visit_order() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut scratch = BfsScratch::new(5);
        let mut visits = Vec::new();
        let (reached, depth) = bfs_visit(&g, 0, &mut scratch, |v, d| visits.push((v, d)));
        assert_eq!((reached, depth), (3, 2));
        assert_eq!(visits, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(scratch.dist(), &[0, 1, 2, UNREACHABLE, UNREACHABLE]);
        // buffers are reusable across sources: the kernel resets them
        let (reached, depth) = bfs_visit(&g, 3, &mut scratch, |_, _| {});
        assert_eq!((reached, depth), (2, 1));
    }

    /// The direction-optimizing kernel must agree with a plain
    /// queue-based oracle on (dist, reached, depth) and on the visited
    /// `(node, level)` *set* — the kernel's documented contract — for
    /// graphs dense enough to actually trigger the bottom-up path.
    #[test]
    fn bfs_visit_matches_queue_oracle_across_shapes() {
        fn oracle<V: AdjacencyView + ?Sized>(
            g: &V,
            s: NodeId,
        ) -> (Vec<u32>, u64, u32, Vec<(NodeId, u32)>) {
            let n = g.node_count();
            let mut dist = vec![UNREACHABLE; n];
            let mut queue = VecDeque::new();
            let mut visits = Vec::new();
            dist[s as usize] = 0;
            queue.push_back(s);
            let (mut reached, mut depth) = (0u64, 0u32);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                reached += 1;
                depth = depth.max(du);
                visits.push((u, du));
                for &v in g.neighbors(u) {
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
            (dist, reached, depth, visits)
        }
        for g in [
            builders::complete(9),
            builders::karate_club(),
            builders::star(12),
            builders::cycle(30),
            Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            let mut scratch = BfsScratch::new(g.node_count());
            for s in 0..g.node_count() as NodeId {
                let (dist, reached, depth, mut visits) = oracle(&g, s);
                let mut got = Vec::new();
                let (r, d) = bfs_visit(&csr, s, &mut scratch, |v, dd| got.push((v, dd)));
                assert_eq!((r, d), (reached, depth), "source {s}");
                assert_eq!(scratch.dist(), dist.as_slice(), "source {s}");
                visits.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, visits, "visit set differs from oracle, source {s}");
            }
        }
    }

    /// The 64-source kernel against a per-source [`bfs_visit`]
    /// histogram, including partial and repeated-source batches and a
    /// dense shape that takes the pull direction.
    #[test]
    fn bfs_levels64_matches_per_source_histogram() -> Result<(), crate::GraphError> {
        for g in [
            builders::complete(9),
            builders::karate_club(),
            builders::cycle(70),
            Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])?,
        ] {
            let n = g.node_count() as NodeId;
            let csr = CsrGraph::from_graph(&g);
            let mut scratch = MultiBfsScratch::new(0);
            let mut bfs = BfsScratch::new(0);
            for sources in [vec![0], (0..n.min(64)).collect(), vec![1, 1, 0, n - 1]] {
                let mut want = Vec::new();
                let (mut reached, mut depth) = (0, 0);
                for &s in &sources {
                    let (r, d) = bfs_visit(&g, s, &mut bfs, |_, x| {
                        if want.len() <= x as usize {
                            want.resize(x as usize + 1, 0u64);
                        }
                        want[x as usize] += 1;
                    });
                    reached += r;
                    depth = depth.max(d);
                }
                let mut got = Vec::new();
                let run = bfs_levels64(&csr, &sources, &mut scratch, &mut got);
                assert_eq!(got, want, "sources {sources:?}");
                assert_eq!(run.reached, reached);
                // the last level finds nothing and ends the sweep
                assert_eq!(run.push_levels + run.pull_levels, depth + 1);
            }
        }
        let mut got = Vec::new();
        let run = bfs_levels64(
            &builders::complete(64),
            &(0..64).collect::<Vec<_>>(),
            &mut MultiBfsScratch::default(),
            &mut got,
        );
        assert_eq!(got, vec![64, 64 * 63]);
        assert_eq!((run.push_levels, run.pull_levels), (0, 2));
        Ok(())
    }

    #[test]
    fn eccentricity_values() {
        let g = builders::path(5);
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
        let disconnected = Graph::with_nodes(3);
        assert_eq!(eccentricity(&disconnected, 0), None);
    }

    #[test]
    fn csr_traversals_match_graph_traversals() {
        // every routine must agree between the two representations
        for g in [
            builders::karate_club(),
            Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap(),
            Graph::with_nodes(4),
        ] {
            let csr = CsrGraph::from_graph(&g);
            if g.node_count() > 0 {
                assert_eq!(bfs_distances(&g, 0), bfs_distances(&csr, 0));
                assert_eq!(eccentricity(&g, 0), eccentricity(&csr, 0));
            }
            assert_eq!(connected_components(&g), connected_components(&csr));
            assert_eq!(component_sizes(&g), component_sizes(&csr));
            assert_eq!(is_connected(&g), is_connected(&csr));
            assert_eq!(gcc_fraction(&g), gcc_fraction(&csr));
            assert_eq!(giant_component_nodes(&g), giant_component_nodes(&csr));
        }
    }
}

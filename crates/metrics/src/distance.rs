//! Distance distribution `d(x)`, average distance `d̄`, and `σ_d`.
//!
//! The paper defines `d(x)` as "the number of pairs of nodes at a distance
//! `x`, divided by the total number of pairs `n²` (self-pairs included)"
//! (§2). We compute it **exactly** from every source with the 64-source
//! hybrid sweep [`dk_graph::traversal::bfs_levels64`]: sources go in
//! batches of 64, one bit of a `u64` word per source, so one edge probe
//! advances 64 traversals and each level adds the `popcount` of the newly
//! reached bits to the histogram — O(n·m/64) word operations, the
//! histogram integer-exact. Each level runs push or pull by a fixed
//! integer rule ([`dk_graph::traversal::MSBFS_ALPHA`]).
//!
//! There is one route: the shard fold of
//! [`DistanceDistribution::from_csr_streamed`]. Shards are laid out over
//! the `n.div_ceil(64)` **source words**, never over single sources, so
//! a shard never splits a batch; partial histograms fold into one
//! accumulator in shard order, `O(workers)` partials in flight. Every
//! entry point ([`DistanceDistribution::from_graph`],
//! [`DistanceDistribution::from_csr_with_threads`]) routes through it
//! over a frozen [`CsrGraph`] snapshot, and the integer reducer makes
//! the result identical for every shard and thread count.
//!
//! The exact distribution carries no sampling noise: reproduction tables
//! must not stack sampling noise on top of ensemble noise. The *opt-in*
//! sampled estimator (registry metric `distance_approx`) lives in
//! [`crate::sampled`].

use crate::stream::{run_sharded_fold, DEFAULT_SHARDS};
use dk_graph::traversal::{self, MultiBfsScratch, MSBFS_WIDTH};
use dk_graph::{CsrGraph, Graph, NodeId};

/// Exact distance distribution of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceDistribution {
    /// `counts[x]` = number of **ordered** pairs `(u, v)` at distance `x`.
    /// `counts\[0\] = n` (self-pairs), matching the paper's convention.
    pub counts: Vec<u64>,
    /// Number of nodes.
    pub nodes: usize,
    /// Ordered pairs with no connecting path (0 on connected graphs).
    pub unreachable_pairs: u64,
}

impl DistanceDistribution {
    /// Computes the exact distribution from every node, in parallel.
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_graph_with_threads(g, default_threads())
    }

    /// As [`DistanceDistribution::from_graph`] with an explicit thread
    /// count (tests use 1 to exercise the sequential path).
    ///
    /// Takes a fresh [`CsrGraph`] snapshot internally; callers that
    /// already hold one (the analyzer cache) use
    /// [`DistanceDistribution::from_csr_with_threads`] to skip the
    /// rebuild.
    pub fn from_graph_with_threads(g: &Graph, threads: usize) -> Self {
        Self::from_csr_with_threads(&CsrGraph::from_graph(g), threads)
    }

    /// Exact distribution over a prepared CSR snapshot, at the default
    /// shard count.
    pub fn from_csr_with_threads(g: &CsrGraph, threads: usize) -> Self {
        Self::from_csr_streamed(g, DEFAULT_SHARDS, threads)
    }

    /// The exact sweep over a prepared snapshot: the `n.div_ceil(64)`
    /// source words are split into `shards` contiguous shards (clamped to
    /// `1..=words`), each worker runs its shard's 64-source batches into
    /// a per-shard histogram, and histograms merge into one accumulator
    /// in shard order — `O(workers)` histograms in flight, the route the
    /// analyzer takes at every scale (see [`crate::stream`]). The reducer
    /// is integer, so every shard and thread count gives the same result.
    pub fn from_csr_streamed(g: &CsrGraph, shards: usize, threads: usize) -> Self {
        let n = g.node_count();
        if n == 0 {
            return Self::empty();
        }
        let words = n.div_ceil(MSBFS_WIDTH) as u32;
        let threads = threads.clamp(1, words as usize);
        let (counts, unreachable) = run_sharded_fold(
            words,
            shards,
            threads,
            |range| Self::sweep_shard(g, range),
            (Vec::new(), 0u64),
            Self::merge_shard,
        );
        DistanceDistribution {
            counts,
            nodes: n,
            unreachable_pairs: unreachable,
        }
    }

    /// One shard of source words folded into a compact partial: the
    /// per-distance pair counts and the unreached-pair tally. Word `w`
    /// is the batch of sources `64w .. min(64w + 64, n)`; the worker's
    /// [`MultiBfsScratch`] (`32n` bytes) is reused across the shard's
    /// batches.
    fn sweep_shard(g: &CsrGraph, words: std::ops::Range<u32>) -> (Vec<u64>, u64) {
        let n = g.node_count();
        let mut counts: Vec<u64> = Vec::new();
        let mut unreachable = 0u64;
        let mut scratch = MultiBfsScratch::new(n);
        let mut batch: Vec<NodeId> = Vec::with_capacity(MSBFS_WIDTH);
        for w in words {
            let lo = w as usize * MSBFS_WIDTH;
            batch.clear();
            batch.extend(lo as NodeId..(lo + MSBFS_WIDTH).min(n) as NodeId);
            let run = traversal::bfs_levels64(g, &batch, &mut scratch, &mut counts);
            unreachable += batch.len() as u64 * n as u64 - run.reached;
        }
        (counts, unreachable)
    }

    /// Shard-order histogram merge (integer, so grouping-proof).
    fn merge_shard(acc: &mut (Vec<u64>, u64), partial: (Vec<u64>, u64)) {
        let (counts, unreachable) = acc;
        let (c, u) = partial;
        if counts.len() < c.len() {
            counts.resize(c.len(), 0);
        }
        for (x, v) in c.into_iter().enumerate() {
            counts[x] += v;
        }
        *unreachable += u;
    }

    fn empty() -> Self {
        DistanceDistribution {
            counts: vec![],
            nodes: 0,
            unreachable_pairs: 0,
        }
    }

    /// Paper-convention PDF: `d(x) = counts[x]/n²` (self-pairs included).
    pub fn pdf(&self) -> Vec<f64> {
        let n2 = (self.nodes as f64).powi(2);
        self.counts.iter().map(|&c| c as f64 / n2).collect()
    }

    /// PDF over **positive** distances only (what the paper's
    /// distance-distribution figures plot): `counts[x]/Σ_{y≥1} counts[y]`.
    pub fn pdf_positive(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(x, &c)| if x == 0 { 0.0 } else { c as f64 / total as f64 })
            .collect()
    }

    /// Average distance `d̄` over connected ordered pairs (x ≥ 1).
    pub fn mean(&self) -> f64 {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(x, &c)| x as f64 * c as f64)
            .sum();
        sum / total as f64
    }

    /// Standard deviation `σ_d` of the positive-distance distribution.
    pub fn std_dev(&self) -> f64 {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var: f64 = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(x, &c)| (x as f64 - mean).powi(2) * c as f64)
            .sum::<f64>()
            / total as f64;
        var.sqrt()
    }

    /// Longest finite distance (graph diameter on connected graphs).
    pub fn diameter(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }
}

/// Default worker count: all available cores.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// All-pairs average distance convenience (connected graphs).
pub fn average_distance(g: &Graph) -> f64 {
    DistanceDistribution::from_graph(g).mean()
}

impl DistanceDistribution {
    /// Expansion `E(x)`: the average fraction of the graph reachable
    /// within `x` hops — the cumulative form of `d(x)`; the paper notes
    /// its distance distribution "is a normalized version of expansion
    /// \[29\]" (Tangmunarunkit et al.).
    ///
    /// `E(0) = 1/n` (the node itself), `E(diameter) = 1` on connected
    /// graphs.
    pub fn expansion(&self) -> Vec<f64> {
        if self.nodes == 0 {
            return Vec::new();
        }
        let n2 = (self.nodes as f64) * (self.nodes as f64);
        let mut acc = 0.0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c as f64 / n2;
                acc
            })
            .collect()
    }
}

/// Single-source distances re-exported for callers that need raw BFS next
/// to the distribution type.
pub fn distances_from(g: &Graph, s: NodeId) -> Vec<u32> {
    dk_graph::bfs_distances(g, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn path_distribution_hand_computed() {
        // P4 ordered pairs: distance 1 → 6, distance 2 → 4, distance 3 → 2.
        let g = builders::path(4);
        let d = DistanceDistribution::from_graph_with_threads(&g, 1);
        assert_eq!(d.counts, vec![4, 6, 4, 2]);
        assert_eq!(d.unreachable_pairs, 0);
        assert_eq!(d.diameter(), 3);
        let want_mean = (6.0 + 8.0 + 6.0) / 12.0;
        assert!((d.mean() - want_mean).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_all_distance_one() {
        let g = builders::complete(5);
        let d = DistanceDistribution::from_graph(&g);
        assert_eq!(d.counts, vec![5, 20]);
        assert_eq!(d.mean(), 1.0);
        assert_eq!(d.std_dev(), 0.0);
    }

    #[test]
    fn pdf_conventions() {
        let g = builders::complete(4);
        let d = DistanceDistribution::from_graph(&g);
        let pdf = d.pdf();
        // d(0) = 4/16, d(1) = 12/16
        assert!((pdf[0] - 0.25).abs() < 1e-12);
        assert!((pdf[1] - 0.75).abs() < 1e-12);
        let pp = d.pdf_positive();
        assert_eq!(pp[0], 0.0);
        assert!((pp[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_counts_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = DistanceDistribution::from_graph_with_threads(&g, 1);
        // each node reaches 1 other → 4 ordered reachable pairs at distance 1
        assert_eq!(d.counts, vec![4, 4]);
        assert_eq!(d.unreachable_pairs, 8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = builders::grid(9, 11);
        let seq = DistanceDistribution::from_graph_with_threads(&g, 1);
        let par = DistanceDistribution::from_graph_with_threads(&g, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn csr_entry_point_matches_graph_entry_point() {
        for g in [
            builders::karate_club(),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(
                DistanceDistribution::from_csr_with_threads(&csr, 2),
                DistanceDistribution::from_graph_with_threads(&g, 1)
            );
        }
    }

    /// Per-source [`dk_graph::traversal::bfs_visit`] histogram — the
    /// oracle the 64-source sweep must equal.
    fn per_source_oracle(g: &Graph) -> DistanceDistribution {
        let n = g.node_count();
        let mut counts: Vec<u64> = Vec::new();
        let mut unreachable = 0u64;
        let mut scratch = dk_graph::traversal::BfsScratch::new(n);
        for s in 0..n as NodeId {
            let (reached, _) = traversal::bfs_visit(g, s, &mut scratch, |_, d| {
                if counts.len() <= d as usize {
                    counts.resize(d as usize + 1, 0);
                }
                counts[d as usize] += 1;
            });
            unreachable += n as u64 - reached;
        }
        DistanceDistribution {
            counts,
            nodes: n,
            unreachable_pairs: unreachable,
        }
    }

    #[test]
    fn any_shard_and_thread_count_matches_per_source_oracle() {
        for g in [
            builders::karate_club(),
            builders::path(150),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            let want = per_source_oracle(&g);
            let n = g.node_count();
            for shards in [1, 2, 7, n] {
                for threads in [1, 3] {
                    assert_eq!(
                        DistanceDistribution::from_csr_streamed(&csr, shards, threads),
                        want,
                        "shards = {shards}, threads = {threads}"
                    );
                }
            }
        }
        let empty = CsrGraph::from_graph(&Graph::new());
        assert_eq!(
            DistanceDistribution::from_csr_streamed(&empty, 4, 2),
            DistanceDistribution::from_graph(&Graph::new())
        );
    }

    #[test]
    fn cycle_mean_distance_closed_form() {
        // C_n (even n): mean distance over ordered pairs = n²/(4(n−1))
        let n = 10usize;
        let g = builders::cycle(n);
        let d = DistanceDistribution::from_graph(&g);
        let want = (n * n) as f64 / (4.0 * (n as f64 - 1.0));
        assert!((d.mean() - want).abs() < 1e-12, "mean {}", d.mean());
    }

    #[test]
    fn empty_graph() {
        let d = DistanceDistribution::from_graph(&Graph::new());
        assert!(d.counts.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.std_dev(), 0.0);
    }

    #[test]
    fn expansion_cumulates_to_one() {
        let g = builders::complete(4);
        let e = DistanceDistribution::from_graph(&g).expansion();
        assert!((e[0] - 0.25).abs() < 1e-12); // 1/n
        assert!((e[1] - 1.0).abs() < 1e-12);
        let g = builders::path(5);
        let e = DistanceDistribution::from_graph(&g).expansion();
        assert!((e.last().unwrap() - 1.0).abs() < 1e-12);
        for w in e.windows(2) {
            assert!(w[0] <= w[1] + 1e-15);
        }
        assert!(DistanceDistribution::from_graph(&Graph::new())
            .expansion()
            .is_empty());
    }

    #[test]
    fn std_dev_of_path() {
        let g = builders::path(3);
        let d = DistanceDistribution::from_graph(&g);
        // positive distances: four 1s, two 2s → mean 4/3
        let mean: f64 = 4.0 / 3.0;
        let var: f64 = (4.0 * (1.0 - mean).powi(2) + 2.0 * (2.0 - mean).powi(2)) / 6.0;
        assert!((d.std_dev() - var.sqrt()).abs() < 1e-12);
    }
}

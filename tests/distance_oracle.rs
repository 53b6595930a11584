//! Distance oracle suite: the one exact distance sweep (64-source
//! hybrid BFS, `dk_graph::traversal::bfs_levels64`, folded over
//! word-aligned shards by `DistanceDistribution::from_csr_streamed`)
//! against a per-source `bfs_visit` histogram kept here, across sizes
//! around the 64-source word boundary, disconnected inputs, shapes of
//! diameter far above 64, dense shapes, a skitter-like GCC, and every
//! shard/thread layout. Also pins the push/pull direction choice: a
//! pull-only regression would show as pull levels on a path.

use dk_repro::graph::traversal::{
    self, bfs_levels64, BfsScratch, MultiBfsRun, MultiBfsScratch, MSBFS_WIDTH,
};
use dk_repro::graph::{builders, CsrGraph, Graph, NodeId};
use dk_repro::metrics::distance::DistanceDistribution;
use dk_repro::topologies::as_like::{skitter_like, AsLikeParams};
use dk_repro::topologies::er::gnm;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-source BFS histogram: one `bfs_visit` per node.
fn oracle(g: &Graph) -> DistanceDistribution {
    let n = g.node_count();
    let mut counts: Vec<u64> = Vec::new();
    let mut unreachable = 0u64;
    let mut scratch = BfsScratch::new(n);
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

/// Asserts the sweep equals the oracle at shards {1, 7, 64, n} and
/// threads {1, 2, 4}, and through every public entry point.
fn assert_matches_oracle(g: &Graph, what: &str) {
    let want = oracle(g);
    let csr = CsrGraph::from_graph(g);
    let n = g.node_count();
    for shards in [1, 7, 64, n] {
        for threads in [1, 2, 4] {
            assert_eq!(
                DistanceDistribution::from_csr_streamed(&csr, shards, threads),
                want,
                "{what}: shards = {shards}, threads = {threads}"
            );
        }
    }
    assert_eq!(DistanceDistribution::from_csr_with_threads(&csr, 2), want);
    assert_eq!(DistanceDistribution::from_graph_with_threads(g, 1), want);
}

/// Push and pull levels summed over the sweep's 64-source batches.
fn directions(g: &Graph) -> (u32, u32) {
    let csr = CsrGraph::from_graph(g);
    let n = g.node_count() as NodeId;
    let mut scratch = MultiBfsScratch::new(0);
    let mut counts = Vec::new();
    let (mut push, mut pull) = (0, 0);
    for lo in (0..n).step_by(MSBFS_WIDTH) {
        let batch: Vec<NodeId> = (lo..(lo + MSBFS_WIDTH as NodeId).min(n)).collect();
        let MultiBfsRun {
            push_levels,
            pull_levels,
            ..
        } = bfs_levels64(&csr, &batch, &mut scratch, &mut counts);
        push += push_levels;
        pull += pull_levels;
    }
    (push, pull)
}

fn skitter_gcc(nodes: usize, seed: u64) -> Graph {
    let p = AsLikeParams {
        nodes,
        anneal_attempts: 20_000,
        ..AsLikeParams::default()
    };
    traversal::giant_component(&skitter_like(&p, &mut StdRng::seed_from_u64(seed))).0
}

#[test]
fn sizes_around_the_word_boundary() {
    for n in [0usize, 1, 63, 64, 65, 130] {
        let m = (2 * n).min(n * n.saturating_sub(1) / 2);
        let g = gnm(n, m, &mut StdRng::seed_from_u64(n as u64));
        assert_matches_oracle(&g, &format!("gnm n = {n}"));
        assert_matches_oracle(&builders::path(n), &format!("path n = {n}"));
    }
    let empty = DistanceDistribution::from_graph(&Graph::new());
    assert!(empty.counts.is_empty());
    assert_eq!((empty.nodes, empty.unreachable_pairs), (0, 0));
    let single = DistanceDistribution::from_graph(&Graph::with_nodes(1));
    assert_eq!(single.counts, vec![1]);
}

#[test]
fn disconnected_graphs_with_isolated_nodes() -> Result<(), dk_repro::graph::GraphError> {
    // two triangles, an edge, and isolated nodes spread across words
    let mut edges = vec![
        (0, 1),
        (1, 2),
        (2, 0),
        (70, 71),
        (71, 72),
        (72, 70),
        (5, 129),
    ];
    edges.extend((100..110).map(|u| (u, u + 1)));
    let g = Graph::from_edges(140, edges)?;
    assert_matches_oracle(&g, "islands");
    let lone = Graph::with_nodes(65);
    let d = DistanceDistribution::from_graph(&lone);
    assert_eq!(d.counts, vec![65]);
    assert_eq!(d.unreachable_pairs, 65 * 64);
    assert_matches_oracle(&lone, "isolated nodes only");
    // a sparse random graph with many small components
    assert_matches_oracle(&gnm(200, 120, &mut StdRng::seed_from_u64(9)), "sparse gnm");
    Ok(())
}

#[test]
fn long_diameter_shapes() {
    assert_matches_oracle(&builders::path(300), "path(300)");
    assert_matches_oracle(&builders::cycle(301), "cycle(301)");
    assert_matches_oracle(&builders::cycle(256), "cycle(256)");
}

#[test]
fn grid_star_and_complete_graphs() {
    assert_matches_oracle(&builders::grid(17, 23), "grid(17, 23)");
    assert_matches_oracle(&builders::star(100), "star(100)");
    assert_matches_oracle(&builders::complete(64), "complete(64)");
    assert_matches_oracle(&builders::complete(65), "complete(65)");
    assert_matches_oracle(&builders::karate_club(), "karate");
}

#[test]
fn skitter_like_gcc_matches_and_runs_both_directions() {
    let g = skitter_gcc(2000, 12);
    assert!(g.node_count() > 1900, "n = {}", g.node_count());
    assert_matches_oracle(&g, "skitter-like GCC");
    let (push, pull) = directions(&g);
    assert!(push > 0 && pull > 0, "push {push}, pull {pull}");
}

#[test]
fn long_path_runs_push_levels_only() {
    // a pull level rescans all n nodes: on a path that is the
    // quadratic blow-up a pull-only kernel would show
    let n = 4096usize;
    let g = builders::path(n);
    let (push, pull) = directions(&g);
    assert_eq!(pull, 0);
    assert!(push as usize >= n, "push {push}");
    // closed form: 2(n − x) ordered pairs at distance x ≥ 1
    let d = DistanceDistribution::from_graph_with_threads(&g, 2);
    assert_eq!(d.counts.len(), n);
    assert_eq!(d.counts[0], n as u64);
    for (x, &c) in d.counts.iter().enumerate().skip(1) {
        assert_eq!(c, 2 * (n - x) as u64, "x = {x}");
    }
    assert_eq!(d.unreachable_pairs, 0);
}

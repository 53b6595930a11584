//! Spectral oracle suite: the one production spectral route (Lanczos
//! with a residual-certified stop) against the dense Jacobi oracle, plus
//! the stop rule, the budget semantics and determinism.
//!
//! The Jacobi solver is compiled only for tests; this suite includes its
//! source directly. Its O(n³)-per-sweep cost is why the umbrella package's
//! test profile is optimized (see the workspace `Cargo.toml`).

#[path = "../crates/linalg/src/dense.rs"]
mod dense;

use dense::{jacobi_eigenvalues, DenseSym};
use dk_repro::graph::{traversal, Graph};
use dk_repro::linalg::lanczos::{lanczos, LanczosOptions, LanczosRun, CHECK_EVERY};
use dk_repro::linalg::laplacian::{spectral_extremes, spectral_extremes_with};
use dk_repro::linalg::tridiag::{tridiag_eigenvalues, tridiag_eigenvector};
use dk_repro::linalg::SparseSym;
use dk_repro::metrics::Analyzer;
use dk_repro::topologies::as_like::{skitter_like, AsLikeParams};
use dk_repro::topologies::hot_like::{hot_like, HotLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn skitter(nodes: usize, anneal_attempts: u64, seed: u64) -> Graph {
    let p = AsLikeParams {
        nodes,
        anneal_attempts,
        ..AsLikeParams::default()
    };
    skitter_like(&p, &mut StdRng::seed_from_u64(seed))
}

fn hot(target_nodes: usize, target_edges: usize) -> Graph {
    let p = HotLikeParams {
        target_nodes,
        target_edges,
        ..HotLikeParams::small()
    };
    traversal::giant_component(&hot_like(&p, &mut StdRng::seed_from_u64(7))).0
}

/// The 2000-node skitter-like GCC (n = 1979) the stop rule is checked on.
fn skitter_2000() -> Graph {
    skitter(2000, 50_000, 12)
}

/// Raw Lanczos on the deflated Laplacian, exactly as the production
/// route calls it.
fn run(g: &Graph, max_iter: usize) -> LanczosRun {
    let l = SparseSym::normalized_laplacian(g);
    let v0: Vec<f64> = (0..g.node_count() as u32)
        .map(|u| (g.degree(u) as f64).sqrt())
        .collect();
    lanczos(
        &l,
        &[v0],
        &LanczosOptions {
            max_iter,
            ..Default::default()
        },
    )
}

/// Checks the production route against the Jacobi oracle on `graphs`,
/// which must sit on both sides of the removed dense route's n ≤ 512.
fn assert_matches_jacobi(graphs: &[Graph]) {
    assert!(graphs.iter().any(|g| g.node_count() < 512));
    assert!(graphs.iter().any(|g| g.node_count() > 512));
    for g in graphs {
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(g));
        let s = spectral_extremes(g).unwrap();
        let n = g.node_count();
        assert!(
            (s.lambda1 - eig[1]).abs() <= 1e-9,
            "n={n}: λ1 {} vs Jacobi {}",
            s.lambda1,
            eig[1]
        );
        assert!(
            (s.lambda_max - eig[n - 1]).abs() <= 1e-9,
            "n={n}: λ_max {} vs Jacobi {}",
            s.lambda_max,
            eig[n - 1]
        );
    }
}

#[test]
fn lanczos_matches_jacobi_on_skitter_like_graphs() {
    assert_matches_jacobi(&[skitter(300, 20_000, 3), skitter(560, 20_000, 4)]);
}

#[test]
fn lanczos_matches_jacobi_on_hot_like_graphs() {
    assert_matches_jacobi(&[hot(320, 337), hot(600, 630)]);
}

#[test]
fn certified_stop_fires_below_the_budget_on_a_2000_node_gcc() {
    let g = skitter_2000();
    assert!(g.node_count() > 1900);
    let r = run(&g, 300);
    assert!(r.certified);
    assert!(r.iterations() < 300, "ran {} steps", r.iterations());
    assert_eq!(r.iterations() % CHECK_EVERY, 0);
    // The values a fixed 300-step run gave before the stop existed.
    let (l1, ln) = (6.9917669338124e-2, 1.9300797083971768);
    assert!((r.ritz[0] - l1).abs() <= 1e-12, "λ1 {}", r.ritz[0]);
    assert!((r.ritz[r.ritz.len() - 1] - ln).abs() <= 1e-12);
}

#[test]
fn budget_exhaustion_equals_the_fixed_iteration_run() {
    let g = skitter_2000();
    let full = run(&g, 300);
    let k = full.iterations();
    for budget in [k - CHECK_EVERY, k - 7, 25] {
        let cut = run(&g, budget);
        assert_eq!(cut.iterations(), budget);
        // The stop rule only decides when to stop: the run a budget cuts
        // short is the prefix of the longer one, and its Ritz values are
        // those of its own T, as in a fixed-length run.
        assert_eq!(cut.alpha[..], full.alpha[..budget]);
        assert_eq!(cut.beta[..], full.beta[..budget - 1]);
        let fixed = tridiag_eigenvalues(&full.alpha[..budget], &full.beta[..budget - 1]);
        assert_eq!(cut.ritz, fixed, "budget {budget}");
    }
    // The last test point before the stop did not certify.
    assert!(!run(&g, k - CHECK_EVERY).certified);
}

#[test]
fn results_are_byte_identical_across_calls_and_thread_counts() {
    let g = skitter(560, 20_000, 4);
    let bits = |g: &Graph| {
        let s = spectral_extremes_with(g, 300).unwrap();
        (s.lambda1.to_bits(), s.lambda_max.to_bits())
    };
    assert_eq!(bits(&g), bits(&g));
    let report = |threads: usize| {
        Analyzer::new()
            .metric_names("lambda1,lambda_n")
            .unwrap()
            .threads(threads)
            .analyze(&g)
            .to_json()
    };
    let one = report(1);
    assert!(one.contains("lambda1"));
    for threads in [2, 4] {
        assert_eq!(report(threads), one, "threads = {threads}");
    }
}

#[test]
fn tridiag_eigenvector_matches_the_path_laplacian_closed_form() {
    // The normalized Laplacian of the path P_n is tridiagonal. Its k-th
    // eigenpair is 1 − cos(πk/(n−1)) with eigenvector
    // v_i = √deg_i · cos(πk·i/(n−1)).
    let n = 12;
    let deg = |i: usize| if i == 0 || i == n - 1 { 1.0f64 } else { 2.0 };
    let d = vec![1.0; n];
    let e: Vec<f64> = (0..n - 1)
        .map(|i| -1.0 / (deg(i) * deg(i + 1)).sqrt())
        .collect();
    for k in 0..n {
        let x = std::f64::consts::PI * k as f64 / (n - 1) as f64;
        let theta = 1.0 - x.cos();
        let mut want: Vec<f64> = (0..n)
            .map(|i| deg(i).sqrt() * (x * i as f64).cos())
            .collect();
        let norm = want.iter().map(|v| v * v).sum::<f64>().sqrt();
        want.iter_mut().for_each(|v| *v /= norm);
        let got = tridiag_eigenvector(&d, &e, theta);
        let sign = if got[0] * want[0] < 0.0 { -1.0 } else { 1.0 };
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (sign * g - w).abs() <= 1e-10,
                "k = {k}: {got:?} vs {want:?}"
            );
        }
    }
}

//! Graph-facing spectral API: `λ1` and `λ_{n−1}` of the normalized
//! Laplacian.
//!
//! This is the single entry point the metric suite uses, and it has one
//! route: [`lanczos`] on the sparse Laplacian with the kernel vector
//! `D^{1/2}·1` deflated analytically. The run stops once both extremes
//! are certified, unless the step ceiling comes first: each returned
//! value then lies within
//! [`RESIDUAL_TOL`](crate::lanczos::RESIDUAL_TOL) = 1e-10 of an
//! eigenvalue of the deflated Laplacian (the Lanczos residual bound; see
//! [`crate::lanczos`]). When `n − 1` is within the budget the Krylov
//! space can reach the whole deflated space, so small graphs get every
//! eigenvalue the start vector sees.
//!
//! The input must be **connected** (pass a GCC — the paper computes all
//! metrics on GCCs). On a disconnected graph the "smallest nonzero
//! eigenvalue" is ill-defined for the intended interpretation, so the
//! function returns an error rather than a misleading number.

use crate::lanczos::{lanczos, LanczosOptions};
use crate::sparse::SparseSym;
use dk_graph::{is_connected, Graph};

/// The two spectral metrics of the paper's Table 2: `λ1` (smallest nonzero)
/// and `λ_{n−1}` (largest) eigenvalue of the normalized Laplacian.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralExtremes {
    /// Smallest nonzero eigenvalue (algebraic connectivity analogue).
    pub lambda1: f64,
    /// Largest eigenvalue (≤ 2; = 2 iff the graph is bipartite).
    pub lambda_max: f64,
}

/// Errors from spectral computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpectralError {
    /// The graph must be connected (extract the GCC first).
    NotConnected,
    /// The graph is too small for the metrics to be defined (n < 2).
    TooSmall,
    /// The Lanczos budget is zero, so no Ritz value exists.
    NoIterations,
}

impl std::fmt::Display for SpectralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectralError::NotConnected => {
                write!(f, "graph not connected; extract the giant component first")
            }
            SpectralError::TooSmall => write!(f, "need at least 2 nodes for spectral extremes"),
            SpectralError::NoIterations => {
                write!(f, "a Lanczos budget of 0 iterations yields no eigenvalue")
            }
        }
    }
}

impl std::error::Error for SpectralError {}

/// Computes [`SpectralExtremes`] for a connected graph.
///
/// `lanczos_iter` is the ceiling on Lanczos steps; the certified stop
/// usually ends the run well below it (70–110 steps on 2000-node
/// skitter-like graphs). A run that exhausts the ceiling returns the Ritz
/// values it reached, uncertified.
pub fn spectral_extremes_with(
    g: &Graph,
    lanczos_iter: usize,
) -> Result<SpectralExtremes, SpectralError> {
    let n = g.node_count();
    if n < 2 {
        return Err(SpectralError::TooSmall);
    }
    if !is_connected(g) {
        return Err(SpectralError::NotConnected);
    }
    let l = SparseSym::normalized_laplacian(g);
    let v0: Vec<f64> = (0..n as u32).map(|u| (g.degree(u) as f64).sqrt()).collect();
    let run = lanczos(
        &l,
        &[v0],
        &LanczosOptions {
            max_iter: lanczos_iter,
            ..Default::default()
        },
    );
    match (run.ritz.first(), run.ritz.last()) {
        (Some(&lo), Some(&hi)) => Ok(SpectralExtremes {
            lambda1: lo.max(0.0),
            lambda_max: hi.min(2.0),
        }),
        _ => Err(SpectralError::NoIterations),
    }
}

/// [`spectral_extremes_with`] using the default Lanczos budget.
pub fn spectral_extremes(g: &Graph) -> Result<SpectralExtremes, SpectralError> {
    spectral_extremes_with(g, LanczosOptions::default().max_iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigenvalues, DenseSym};
    use dk_graph::builders;

    #[test]
    fn complete_graph_extremes() {
        // K_n: λ1 = λ_max = n/(n−1)
        let g = builders::complete(10);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 10.0 / 9.0).abs() < 1e-9);
        assert!((s.lambda_max - 10.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn star_extremes() {
        // S_k: spectrum {0, 1, …, 1, 2}
        let g = builders::star(9);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 1.0).abs() < 1e-9);
        assert!((s.lambda_max - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_extremes() {
        let n = 20usize;
        let g = builders::cycle(n);
        let s = spectral_extremes(&g).unwrap();
        let want1 = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((s.lambda1 - want1).abs() < 1e-9);
        // C_20 bipartite (even cycle) → λ_max = 2
        assert!((s.lambda_max - 2.0).abs() < 1e-9);
        // odd cycle is not bipartite → λ_max < 2
        let g = builders::cycle(21);
        let s = spectral_extremes(&g).unwrap();
        assert!(s.lambda_max < 2.0 - 1e-6);
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(
            spectral_extremes(&Graph::with_nodes(1)),
            Err(SpectralError::TooSmall)
        );
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            spectral_extremes(&disconnected),
            Err(SpectralError::NotConnected)
        );
    }

    #[test]
    fn matches_closed_form_on_complete_bipartite() {
        // K_{a,a} has normalized-Laplacian spectrum {0, 1 × (n−2), 2}
        // in closed form, so no dense solve is needed as oracle.
        let g = builders::complete_bipartite(300, 300);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 1.0).abs() < 1e-8, "λ1 = {}", s.lambda1);
        assert!(
            (s.lambda_max - 2.0).abs() < 1e-8,
            "λ_max = {}",
            s.lambda_max
        );
    }

    #[test]
    fn matches_dense_oracle_on_irregular_graph() {
        let g = builders::grid(12, 12);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        for budget in [120, 300] {
            let s = spectral_extremes_with(&g, budget).unwrap();
            assert!(
                (s.lambda1 - eig[1]).abs() < 1e-9,
                "λ1 {} vs {}",
                s.lambda1,
                eig[1]
            );
            assert!((s.lambda_max - eig[eig.len() - 1]).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_budget_is_a_structured_error() {
        let g = builders::grid(30, 30);
        assert_eq!(
            spectral_extremes_with(&g, 0),
            Err(SpectralError::NoIterations)
        );
        assert_eq!(
            spectral_extremes_with(&builders::path(3), 0),
            Err(SpectralError::NoIterations)
        );
    }

    #[test]
    fn extremes_bounded_by_two() {
        let g = builders::karate_club();
        let s = spectral_extremes(&g).unwrap();
        assert!(s.lambda1 > 0.0 && s.lambda1 < 2.0);
        assert!(s.lambda_max > 0.0 && s.lambda_max <= 2.0);
        assert!(s.lambda1 <= s.lambda_max);
    }
}

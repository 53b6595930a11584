//! Lanczos iteration with full reorthogonalization, explicit deflation
//! and a certified early stop.
//!
//! Lanczos builds an orthonormal Krylov basis `q_1, q_2, …` of a symmetric
//! operator `A` and a tridiagonal matrix `T` whose eigenvalues ("Ritz
//! values") converge — extremes first — to the eigenvalues of `A`. That is
//! exactly what the dK metric suite needs: only `λ1` and `λ_{n−1}` of the
//! normalized Laplacian matter (paper §2).
//!
//! Three standard refinements make the textbook iteration robust and
//! cheap here:
//!
//! 1. **Full reorthogonalization.** In floating point, Lanczos vectors lose
//!    orthogonality as soon as a Ritz pair converges, producing spurious
//!    duplicate eigenvalues. Re-projecting every new vector against the
//!    whole basis (twice) costs O(k²n) for k steps.
//! 2. **Deflation.** On a connected graph the Laplacian kernel is known in
//!    closed form (`v0 ∝ D^{1/2}·1`). Projecting it out *exactly* — rather
//!    than hoping the iteration separates a 0 eigenvalue from a tiny `λ1` —
//!    makes the smallest *nonzero* eigenvalue an extreme of the deflated
//!    operator, where Lanczos converges fastest.
//! 3. **Certified stop.** After `j` steps, `A·Q_j = Q_j·T_j + β_j·q_{j+1}·e_jᵀ`.
//!    For a unit vector `s` and a value `θ`, the vector `y = Q_j·s` has
//!    residual `‖A·y − θ·y‖ ≤ ‖T_j·s − θ·s‖ + β_j·|s_j|`, and a symmetric
//!    `A` has an eigenvalue within that residual of `θ` (Parlett, *The
//!    Symmetric Eigenvalue Problem*, §13.2; Golub & Van Loan §10.1). Every
//!    [`CHECK_EVERY`] steps the lowest and highest Ritz value are tested
//!    with `s` from [`tridiag_eigenvector`]; once both bounds are at most
//!    [`RESIDUAL_TOL`] the iteration stops. The Ritz values returned are
//!    those of the `T_j` at the stop, so a run that exhausts its budget
//!    returns exactly what a fixed-length run of that budget would.
//!
//! The basis lives in one contiguous `Vec<f64>` that grows by one vector
//! per accepted step, so memory is O(k·n) for the k steps actually run.
//! Inner products use a fixed 8-lane accumulator with a fixed combine
//! tree: independent adds the compiler can overlap, the same bits on
//! every machine and thread count.

use crate::sparse::SparseSym;
use crate::tridiag::{tridiag_eigenvalues, tridiag_eigenvector};

/// Residual bound at which an extreme Ritz value counts as converged: the
/// operator has an eigenvalue within `RESIDUAL_TOL` of it (module doc,
/// item 3). The eigenvalue error itself is usually far smaller, about
/// `RESIDUAL_TOL²` over the gap to the next eigenvalue.
pub const RESIDUAL_TOL: f64 = 1e-10;

/// Lanczos steps between two certification tests. A test costs one QL
/// solve of `T_j` (O(j²)), negligible beside `CHECK_EVERY` steps of O(j·n)
/// reorthogonalization.
pub const CHECK_EVERY: usize = 10;

/// Options for [`lanczos`].
#[derive(Clone, Copy, Debug)]
pub struct LanczosOptions {
    /// Maximum Krylov dimension (iterations). The effective dimension is
    /// capped at `n − deflate.len()`; the certified stop may end the run
    /// earlier.
    pub max_iter: usize,
    /// Breakdown tolerance: a β below this means an exact invariant
    /// subspace was found and iteration stops (success, not failure).
    pub beta_tol: f64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
            beta_tol: 1e-12,
        }
    }
}

/// The outcome of one [`lanczos`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LanczosRun {
    /// Ritz values (eigenvalues of `T`), ascending.
    pub ritz: Vec<f64>,
    /// Diagonal of `T`; its length is the number of steps run.
    pub alpha: Vec<f64>,
    /// Sub-diagonal of `T` (one entry fewer than `alpha`).
    pub beta: Vec<f64>,
    /// Whether the run ended on a guarantee rather than on its budget:
    /// both extreme Ritz values certified within [`RESIDUAL_TOL`], an
    /// invariant subspace found, or the full deflated dimension reached.
    pub certified: bool,
}

impl LanczosRun {
    /// Lanczos steps run (the dimension of `T`).
    pub fn iterations(&self) -> usize {
        self.alpha.len()
    }
}

/// Runs Lanczos on `a`, restricted to the orthogonal complement of
/// `deflate`, until both extreme Ritz values are certified (module doc)
/// or `opts.max_iter` steps have run.
///
/// `deflate` vectors must be nonzero; they are orthonormalized internally.
/// The start vector is deterministic (alternating-sign ramp) so results are
/// reproducible without threading an RNG through metric computation.
///
/// Returns an empty run when the deflated space is empty or the budget is
/// zero.
pub fn lanczos(a: &SparseSym, deflate: &[Vec<f64>], opts: &LanczosOptions) -> LanczosRun {
    let n = a.n();
    if n == 0 {
        return LanczosRun::default();
    }
    // Orthonormalize the deflation set (modified Gram-Schmidt).
    let mut defl: Vec<Vec<f64>> = Vec::with_capacity(deflate.len());
    for v in deflate {
        assert_eq!(v.len(), n, "deflation vector length mismatch");
        let mut w = v.clone();
        for d in &defl {
            let proj = dot(&w, d);
            axpy(&mut w, -proj, d);
        }
        let norm = nrm2(&w);
        if norm > 1e-12 {
            scale(&mut w, 1.0 / norm);
            defl.push(w);
        }
    }
    let dim = n - defl.len();
    let m = opts.max_iter.min(dim);
    if m == 0 {
        return LanczosRun::default();
    }

    // Deterministic start vector, projected into the deflated subspace.
    let mut w: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i + 1) as f64 / n as f64;
            if i % 2 == 0 {
                1.0 + x
            } else {
                -1.0 - 0.5 * x
            }
        })
        .collect();
    project_out(&mut w, &defl);
    let norm = nrm2(&w);
    assert!(
        norm > 1e-12,
        "start vector annihilated by deflation (graph too degenerate)"
    );
    scale(&mut w, 1.0 / norm);

    // Krylov basis, row j = q_{j+1}; grows one accepted step at a time.
    let mut basis: Vec<f64> = w.clone();
    let mut run = LanczosRun::default();
    for j in 0..m {
        let qj = &basis[j * n..(j + 1) * n];
        a.matvec(qj, &mut w);
        // subtract projections: deflation space + previous Lanczos vectors
        project_out(&mut w, &defl);
        let alpha = dot(&w, qj);
        axpy(&mut w, -alpha, qj);
        if j > 0 {
            axpy(&mut w, -run.beta[j - 1], &basis[(j - 1) * n..j * n]);
        }
        run.alpha.push(alpha);
        // full reorthogonalization (twice is enough — Kahan)
        for _ in 0..2 {
            project_out(&mut w, &defl);
            for qi in basis.chunks_exact(n) {
                let proj = dot(&w, qi);
                axpy(&mut w, -proj, qi);
            }
        }
        let beta = nrm2(&w);
        let steps = j + 1;
        if beta < opts.beta_tol || steps == dim {
            run.certified = true;
            break;
        }
        if steps % CHECK_EVERY == 0 || steps == m {
            run.ritz = tridiag_eigenvalues(&run.alpha, &run.beta);
            run.certified = extremes_certified(&run, beta);
            if run.certified || steps == m {
                return run;
            }
        }
        run.beta.push(beta);
        scale(&mut w, 1.0 / beta);
        basis.extend_from_slice(&w);
    }
    run.ritz = tridiag_eigenvalues(&run.alpha, &run.beta);
    run
}

/// Whether both extreme Ritz values of `run` are within [`RESIDUAL_TOL`]
/// of an eigenvalue of the operator, given the next off-diagonal `beta`.
fn extremes_certified(run: &LanczosRun, beta: f64) -> bool {
    let (Some(&lo), Some(&hi)) = (run.ritz.first(), run.ritz.last()) else {
        return false;
    };
    [lo, hi].into_iter().all(|theta| {
        let s = tridiag_eigenvector(&run.alpha, &run.beta, theta);
        let k = s.len();
        // ‖T·s − θ·s‖, row by row of the tridiagonal product
        let tri_res = (0..k)
            .map(|i| {
                let mut r = (run.alpha[i] - theta) * s[i];
                if i > 0 {
                    r += run.beta[i - 1] * s[i - 1];
                }
                if i + 1 < k {
                    r += run.beta[i] * s[i + 1];
                }
                r * r
            })
            .sum::<f64>()
            .sqrt();
        let bound = tri_res + beta * s[k - 1].abs();
        bound <= RESIDUAL_TOL
    })
}

/// Inner product with 8 independent partial sums combined by a fixed
/// tree: the lane an element lands in depends only on its index, so the
/// result is bit-identical on every run, machine and thread count.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for ((s, xi), yi) in acc.iter_mut().zip(x).zip(y) {
            *s += xi * yi;
        }
    }
    for ((s, xi), yi) in acc.iter_mut().zip(ra).zip(rb) {
        *s += xi * yi;
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

#[inline]
fn nrm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[inline]
fn scale(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

#[inline]
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn project_out(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let proj = dot(v, b);
        axpy(v, -proj, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigenvalues, DenseSym};
    use dk_graph::builders;

    fn laplacian_pair(g: &dk_graph::Graph) -> (SparseSym, Vec<f64>) {
        let l = SparseSym::normalized_laplacian(g);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(g));
        (l, eig)
    }

    #[test]
    fn full_krylov_finds_all_distinct_eigenvalues() {
        // A single Krylov sequence can only see one copy of each distinct
        // eigenvalue; Petersen (strongly regular) has exactly 3 distinct
        // normalized-Laplacian eigenvalues {0, 2/3, 5/3}, so Lanczos must
        // break down after 3 steps having found precisely those.
        let g = builders::petersen();
        let (l, want) = laplacian_pair(&g);
        let ritz = lanczos(&l, &[], &LanczosOptions::default()).ritz;
        let mut distinct: Vec<f64> = Vec::new();
        for w in want {
            if distinct.last().is_none_or(|d| (w - d).abs() > 1e-8) {
                distinct.push(w);
            }
        }
        assert_eq!(ritz.len(), distinct.len());
        for (r, w) in ritz.iter().zip(&distinct) {
            assert!((r - w).abs() < 1e-9, "ritz {ritz:?} want {distinct:?}");
        }
        // spot-check the known values
        assert!(ritz[0].abs() < 1e-9);
        assert!((ritz[1] - 2.0 / 3.0).abs() < 1e-9);
        assert!((ritz[2] - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn deflation_removes_kernel() {
        let g = builders::karate_club();
        let (l, want) = laplacian_pair(&g);
        let v0: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let ritz = lanczos(&l, &[v0], &LanczosOptions::default()).ritz;
        // smallest Ritz value ≈ λ1 (the smallest NONZERO eigenvalue)
        let lambda1 = want[1];
        assert!(
            (ritz[0] - lambda1).abs() < 1e-8,
            "got {}, want {lambda1}",
            ritz[0]
        );
        // largest Ritz value ≈ λ_{n−1}
        let lmax = want.last().unwrap();
        assert!((ritz.last().unwrap() - lmax).abs() < 1e-8);
        // no Ritz value near zero survives deflation
        assert!(ritz[0] > 1e-6);
    }

    #[test]
    fn truncated_iteration_still_nails_extremes() {
        let g = builders::grid(12, 12); // n = 144
        let (l, want) = laplacian_pair(&g);
        let v0: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let opts = LanczosOptions {
            max_iter: 70, // < n: genuinely truncated
            ..Default::default()
        };
        let ritz = lanczos(&l, &[v0], &opts).ritz;
        assert!((ritz[0] - want[1]).abs() < 1e-6);
        assert!((ritz.last().unwrap() - want.last().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn empty_operator() {
        let l = SparseSym::from_rows(vec![]);
        assert!(lanczos(&l, &[], &LanczosOptions::default()).ritz.is_empty());
    }

    #[test]
    fn deflating_everything_yields_empty() {
        let g = builders::path(2);
        let l = SparseSym::normalized_laplacian(&g);
        let basis = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(lanczos(&l, &basis, &LanczosOptions::default())
            .ritz
            .is_empty());
    }

    #[test]
    fn duplicate_deflation_vectors_collapse() {
        let g = builders::path(3);
        let l = SparseSym::normalized_laplacian(&g);
        let v0: Vec<f64> = (0..3u32).map(|u| (g.degree(u) as f64).sqrt()).collect();
        // same vector twice: second must be dropped, leaving dim 2
        let ritz = lanczos(&l, &[v0.clone(), v0], &LanczosOptions::default()).ritz;
        assert_eq!(ritz.len(), 2);
        // P3 spectrum is {0, 1, 2}; kernel deflated → {1, 2}
        assert!((ritz[0] - 1.0).abs() < 1e-9);
        assert!((ritz[1] - 2.0).abs() < 1e-9);
    }
}

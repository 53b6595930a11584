//! Eigenvalues of symmetric tridiagonal matrices (implicit-shift QL).
//!
//! This is the back end of the Lanczos pipeline: Lanczos reduces the sparse
//! operator to a small tridiagonal matrix `T` whose eigenvalues (Ritz
//! values) approximate the extreme eigenvalues of the operator. The
//! algorithm here is the classical `tqli` routine (eigenvalues only),
//! restructured for clarity and with explicit failure reporting instead of
//! silent truncation. [`tridiag_eigenvector`] adds the one eigenvector
//! component Lanczos needs to certify a Ritz value (see
//! [`crate::lanczos`]).

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d`
/// (length n) and sub-diagonal `e` (length n−1), in ascending order.
///
/// # Panics
/// Panics if `e.len() + 1 != d.len()` (caller bug) or if the QL iteration
/// fails to converge within 50 sweeps for some eigenvalue — which for
/// symmetric tridiagonal input indicates NaN/Inf contamination rather than
/// a hard numerical case.
pub fn tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
    let n = d.len();
    if n == 0 {
        return Vec::new();
    }
    assert_eq!(e.len() + 1, n, "sub-diagonal must have length n-1");
    let mut d = d.to_vec();
    // work array: e shifted to 1-based convention with a trailing 0
    let mut e: Vec<f64> = {
        let mut v = e.to_vec();
        v.push(0.0);
        v
    };

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= 50,
                "QL iteration failed to converge (l = {l}); input likely contains NaN/Inf"
            );
            // Form implicit shift from the 2x2 block at l.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            // Rotations from m−1 down to l; `underflow` marks the rare
            // r == 0 case where the rotation chain terminates early.
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite eigenvalues"));
    d
}

/// Unit eigenvector of the symmetric tridiagonal matrix with diagonal `d`
/// and sub-diagonal `e` for the eigenvalue nearest `theta`, by inverse
/// iteration.
///
/// `T − θI` is factored once by Gaussian elimination with partial
/// pivoting (the LAPACK `dgttrf` layout: `U` has two super-diagonals),
/// every pivot smaller than `ε·max|T_ij|` raised to that size, and three
/// solves follow from a fixed start vector, each normalized. When `theta`
/// is an accurate eigenvalue (a QL Ritz value), `T − θI` is nearly
/// singular and the first solve already amplifies the wanted direction
/// by about `1/ε`. Nothing here certifies the result: a caller that needs
/// a guarantee measures `‖T·s − θ·s‖` itself, as [`crate::lanczos`] does.
///
/// Returns an empty vector for an empty matrix. A non-finite input gives
/// a non-finite vector, never a panic.
pub fn tridiag_eigenvector(d: &[f64], e: &[f64], theta: f64) -> Vec<f64> {
    let n = d.len().min(e.len() + 1);
    if n == 0 {
        return Vec::new();
    }
    let scale = d[..n]
        .iter()
        .chain(&e[..n - 1])
        .fold(0.0f64, |m, x| m.max(x.abs()));
    let tiny = f64::EPSILON * scale.max(f64::MIN_POSITIVE);
    let floor = |p: f64| if p.abs() < tiny { tiny.copysign(p) } else { p };
    // P(T − θI) = L·U: `u0` main diagonal of U, `u1`/`u2` its first and
    // second super-diagonals, `l` the multipliers, `swap` the pivots.
    let mut u0: Vec<f64> = d[..n].iter().map(|x| x - theta).collect();
    let mut u1: Vec<f64> = e[..n - 1].to_vec();
    let mut u2 = vec![0.0; n.saturating_sub(2)];
    let mut l: Vec<f64> = e[..n - 1].to_vec();
    let mut swap = vec![false; n - 1];
    for i in 0..n - 1 {
        if u0[i].abs() >= l[i].abs() {
            u0[i] = floor(u0[i]);
            l[i] /= u0[i];
            u0[i + 1] -= l[i] * u1[i];
        } else {
            let f = u0[i] / l[i];
            u0[i] = l[i];
            l[i] = f;
            let t = u1[i];
            u1[i] = u0[i + 1];
            u0[i + 1] = t - f * u0[i + 1];
            if i + 2 < n {
                u2[i] = u1[i + 1];
                u1[i + 1] *= -f;
            }
            swap[i] = true;
        }
    }
    u0[n - 1] = floor(u0[n - 1]);

    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
    for _ in 0..3 {
        for i in 0..n - 1 {
            if swap[i] {
                x.swap(i, i + 1);
            }
            x[i + 1] -= l[i] * x[i];
        }
        for i in (0..n).rev() {
            let mut r = x[i];
            if i + 1 < n {
                r -= u1[i] * x[i + 1];
            }
            if i + 2 < n {
                r -= u2[i] * x[i + 2];
            }
            x[i] = r / u0[i];
        }
        let big = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let norm = big * x.iter().map(|v| (v / big).powi(2)).sum::<f64>().sqrt();
        for v in &mut x {
            *v /= norm;
        }
    }
    x
}

#[inline]
fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigenvalues, DenseSym};

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < tol, "got {got:?} want {want:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(tridiag_eigenvalues(&[], &[]).is_empty());
        assert_close(&tridiag_eigenvalues(&[3.5], &[]), &[3.5], 1e-15);
    }

    #[test]
    fn eigenvector_of_empty_singleton_and_diagonal() {
        assert!(tridiag_eigenvector(&[], &[], 0.0).is_empty());
        assert_close(&tridiag_eigenvector(&[3.5], &[], 3.5), &[1.0], 1e-15);
        // an exact eigenvalue makes a pivot exactly zero: floored, no NaN
        let v = tridiag_eigenvector(&[3.0, 1.0, 2.0], &[0.0, 0.0], 1.0);
        assert_close(
            &v.iter().map(|x| x.abs()).collect::<Vec<_>>(),
            &[0.0, 1.0, 0.0],
            1e-12,
        );
    }

    #[test]
    fn diagonal_matrix() {
        let eig = tridiag_eigenvalues(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_close(&eig, &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [[0, 1], [1, 0]] → ±1
        let eig = tridiag_eigenvalues(&[0.0, 0.0], &[1.0]);
        assert_close(&eig, &[-1.0, 1.0], 1e-12);
    }

    #[test]
    fn laplacian_of_path_as_tridiagonal() {
        // The normalized Laplacian of a path graph is tridiagonal in the
        // natural ordering; compare QL against the closed form.
        let n = 9;
        let g = dk_graph::builders::path(n);
        let dd: Vec<f64> = vec![1.0; n];
        let mut ee = Vec::with_capacity(n - 1);
        for i in 0..n - 1 {
            let w = -1.0 / ((g.degree(i as u32) as f64) * (g.degree(i as u32 + 1) as f64)).sqrt();
            ee.push(w);
        }
        let eig = tridiag_eigenvalues(&dd, &ee);
        let mut want: Vec<f64> = (0..n)
            .map(|k| 1.0 - (std::f64::consts::PI * k as f64 / (n as f64 - 1.0)).cos())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_close(&eig, &want, 1e-10);
    }

    #[test]
    fn agrees_with_jacobi_on_random_tridiagonals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..25 {
            let n = rng.gen_range(2..20);
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let ql = tridiag_eigenvalues(&d, &e);
            let mut m = DenseSym::zeros(n);
            for (i, &di) in d.iter().enumerate() {
                m.set_sym(i, i, di);
            }
            for (i, &ei) in e.iter().enumerate() {
                m.set_sym(i, i + 1, ei);
            }
            let jac = jacobi_eigenvalues(&m);
            assert_close(&ql, &jac, 1e-9);
            let _ = trial;
        }
    }
}

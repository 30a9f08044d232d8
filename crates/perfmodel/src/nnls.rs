//! Non-negative least squares, Lawson–Hanson active-set algorithm.
//!
//! Solves `min ‖A·x − b‖₂ subject to x ≥ 0`. This is the same routine the
//! paper invokes through SciPy (`scipy.optimize.nnls`) to fit the α/β
//! coefficients of the throughput model, which the paper requires to stay
//! non-negative ("all parameters (α, β) are bound to remain non-negative").
//!
//! The implementation follows Lawson & Hanson (1974), ch. 23: maintain a
//! passive set `P` of coordinates allowed to be positive; repeatedly move the
//! most violated coordinate from the active (zero) set into `P`, solve the
//! unconstrained least-squares subproblem on `P` via normal equations, and
//! walk back along the line segment toward feasibility when the subproblem
//! solution leaves the positive orthant.

use crate::linalg::Matrix;

/// Error conditions for `nnls`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnlsError {
    /// `b.len()` does not match the number of rows of `a`.
    ShapeMismatch,
    /// The iteration limit was exceeded (pathological conditioning).
    IterationLimit,
}

impl std::fmt::Display for NnlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnlsError::ShapeMismatch => write!(f, "rhs length does not match matrix rows"),
            NnlsError::IterationLimit => write!(f, "NNLS failed to converge"),
        }
    }
}

impl std::error::Error for NnlsError {}

/// Solves `min ‖A·x − b‖₂, x ≥ 0` and returns `(x, residual_norm)`.
pub(crate) fn nnls(a: &Matrix, b: &[f64]) -> Result<(Vec<f64>, f64), NnlsError> {
    if b.len() != a.rows() {
        return Err(NnlsError::ShapeMismatch);
    }
    let n = a.cols();
    let mut x = vec![0.0; n];
    let mut passive = vec![false; n];

    // Tolerance scaled to problem magnitude, mirroring SciPy's choice.
    let max_abs = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    let tol = 1e-10 * max_abs * (a.rows().max(n) as f64);

    // Outer loop: grow the passive set.
    let max_outer = 3 * n + 30;
    for _ in 0..max_outer {
        // Gradient of ½‖Ax − b‖² is Aᵀ(Ax − b); w = −gradient = Aᵀ(b − Ax).
        let ax = a.matvec(&x);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let w = a.t_matvec(&resid);

        // Pick the most promising active coordinate.
        let candidate = (0..n)
            .filter(|&j| !passive[j])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("NaN in NNLS gradient"));
        let Some(j_star) = candidate else { break };
        if w[j_star] <= tol {
            break; // KKT satisfied: all active gradients non-positive.
        }
        passive[j_star] = true;

        // Inner loop: solve on the passive set, shrinking it if the solution
        // leaves the feasible region.
        let mut inner_iterations = 0;
        loop {
            inner_iterations += 1;
            if inner_iterations > 3 * n + 30 {
                return Err(NnlsError::IterationLimit);
            }
            let p_idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let z = solve_subproblem(a, b, &p_idx);

            if z.iter().all(|&zi| zi > tol.min(1e-12)) {
                // Fully feasible: accept and go look for more coordinates.
                x.iter_mut().for_each(|xi| *xi = 0.0);
                for (&j, &zj) in p_idx.iter().zip(&z) {
                    x[j] = zj;
                }
                break;
            }

            // Backtrack: find the largest step alpha in [0,1] keeping x +
            // alpha (z - x) feasible, then drop coordinates that hit zero.
            let mut alpha = f64::INFINITY;
            for (&j, &zj) in p_idx.iter().zip(&z) {
                if zj <= tol.min(1e-12) {
                    let denom = x[j] - zj;
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    } else {
                        alpha = alpha.min(0.0);
                    }
                }
            }
            let alpha = alpha.clamp(0.0, 1.0);
            for (&j, &zj) in p_idx.iter().zip(&z) {
                x[j] += alpha * (zj - x[j]);
            }
            for &j in &p_idx {
                if x[j] <= tol.min(1e-12) {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
            if !passive.iter().any(|&p| p) {
                break; // Everything got dropped; outer loop will re-examine.
            }
        }
    }

    let ax = a.matvec(&x);
    let residual = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum::<f64>().sqrt();
    Ok((x, residual))
}

/// Unconstrained least squares restricted to the columns in `p_idx`,
/// solved via normal equations with a tiny ridge for conditioning.
fn solve_subproblem(a: &Matrix, b: &[f64], p_idx: &[usize]) -> Vec<f64> {
    let k = p_idx.len();
    let mut ap = Matrix::zeros(a.rows(), k);
    for r in 0..a.rows() {
        for (c, &j) in p_idx.iter().enumerate() {
            ap[(r, c)] = a[(r, j)];
        }
    }
    let mut gram = ap.gram();
    // Ridge scaled to diagonal magnitude keeps collinear columns (e.g. the
    // four identical β constant-columns) solvable.
    let diag_max = (0..k).fold(0.0f64, |m, i| m.max(gram[(i, i)])).max(1e-30);
    for i in 0..k {
        gram[(i, i)] += 1e-12 * diag_max;
    }
    let rhs = ap.t_matvec(b);
    gram.solve(&rhs).unwrap_or_else(|_| vec![0.0; k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn exact_nonnegative_solution_recovered() {
        // x = [1, 2] solves exactly and is feasible.
        let a = Matrix::from_rows(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let b = vec![1.0, 2.0, 3.0];
        let (x, r) = nnls(&a, &b).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-8);
        assert!(r < 1e-8);
    }

    #[test]
    fn negative_unconstrained_solution_gets_clamped() {
        // Unconstrained LS would want x1 < 0; NNLS must zero it.
        let a = Matrix::from_rows(2, 2, vec![1.0, 1.0, 0.0, 1.0]);
        let b = vec![1.0, -1.0];
        let (x, _) = nnls(&a, &b).unwrap();
        assert!(x[1].abs() < 1e-10, "x1 should be clamped to 0, got {x:?}");
        assert!(x[0] >= 0.0);
        // With x1 = 0 the best x0 minimises (x0-1)² + 0 => x0 = 1... but the
        // residual couples through row 0 only: x0 = 1 exactly.
        assert!((x[0] - 1.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn all_zero_when_b_negative_orthant() {
        let a = Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let b = vec![-1.0, -2.0, -3.0];
        let (x, r) = nnls(&a, &b).unwrap();
        assert_close(&x, &[0.0, 0.0, 0.0], 1e-12);
        assert!((r - (14.0f64).sqrt()).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_noisy_fit() {
        // y = 2 a + 3 b with small deterministic perturbation.
        let rows = 50;
        let mut data = Vec::with_capacity(rows * 2);
        let mut b = Vec::with_capacity(rows);
        for i in 0..rows {
            let u = i as f64 / rows as f64;
            let v = ((i * 7) % 13) as f64 / 13.0;
            data.push(u);
            data.push(v);
            let noise = (((i * 31) % 17) as f64 / 17.0 - 0.5) * 0.01;
            b.push(2.0 * u + 3.0 * v + noise);
        }
        let a = Matrix::from_rows(rows, 2, data);
        let (x, _) = nnls(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 0.05, "{x:?}");
        assert!((x[1] - 3.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn collinear_columns_do_not_explode() {
        // Two identical columns: any split is optimal; solution must be
        // non-negative and reproduce b.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let b = vec![2.0, 4.0, 6.0];
        let (x, r) = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        assert!((x[0] + x[1] - 2.0).abs() < 1e-6, "{x:?}");
        assert!(r < 1e-6);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(nnls(&a, &[1.0]), Err(NnlsError::ShapeMismatch));
    }

    #[test]
    fn zero_matrix_returns_zero() {
        let a = Matrix::zeros(4, 3);
        let b = vec![1.0, 1.0, 1.0, 1.0];
        let (x, r) = nnls(&a, &b).unwrap();
        assert_close(&x, &[0.0, 0.0, 0.0], 1e-12);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wide_matrix_underdetermined() {
        // More columns than rows; NNLS should still produce a feasible
        // near-exact fit.
        let a = Matrix::from_rows(2, 4, vec![1.0, 0.0, 1.0, 0.5, 0.0, 1.0, 1.0, 0.5]);
        let b = vec![1.0, 1.0];
        let (x, r) = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        assert!(r < 1e-6, "residual {r}, x = {x:?}");
    }

    #[test]
    fn residual_matches_manual_computation() {
        let a = Matrix::from_rows(2, 1, vec![1.0, 1.0]);
        let b = vec![1.0, 3.0];
        // Best non-negative x is 2.0; residual = sqrt(1 + 1).
        let (x, r) = nnls(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// NNLS solutions are always element-wise non-negative.
        #[test]
        fn solution_is_nonnegative(
            entries in proptest::collection::vec(-10.0f64..10.0, 12),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = Matrix::from_rows(4, 3, entries);
            let (x, _) = nnls(&a, &b).unwrap();
            prop_assert!(x.iter().all(|&v| v >= 0.0), "negative entry in {x:?}");
        }

        /// The NNLS residual never beats the unconstrained optimum from below
        /// and never exceeds ‖b‖ (x = 0 is always feasible).
        #[test]
        fn residual_bounded_by_zero_solution(
            entries in proptest::collection::vec(-10.0f64..10.0, 12),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = Matrix::from_rows(4, 3, entries);
            let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            let (_, r) = nnls(&a, &b).unwrap();
            prop_assert!(r <= norm_b + 1e-8, "residual {r} worse than zero vector {norm_b}");
        }

        /// Feeding a noiseless non-negative model back recovers near-zero
        /// residual.
        #[test]
        fn exact_model_recovery(
            entries in proptest::collection::vec(0.0f64..5.0, 15),
            x_true in proptest::collection::vec(0.0f64..3.0, 3),
        ) {
            let a = Matrix::from_rows(5, 3, entries);
            let b = a.matvec(&x_true);
            let (_, r) = nnls(&a, &b).unwrap();
            let scale = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);
            prop_assert!(r < 1e-5 * scale, "residual {r} too large for scale {scale}");
        }
    }
}

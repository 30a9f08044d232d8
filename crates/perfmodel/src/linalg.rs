//! Minimal dense linear algebra for the model fitter.
//!
//! The throughput model has at most a handful of coefficients, so all we need
//! is a small row-major [`Matrix`], matrix–vector products, and a Gaussian
//! solver with partial pivoting for the normal equations inside NNLS. No
//! SIMD, no blocking — the matrices here are 5×5.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned by [`Matrix::solve`] when the system is singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularMatrix;

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

impl Matrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        (0..self.rows).map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// Gram matrix `Aᵀ·A` (used for normal equations).
    pub(crate) fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `Aᵀ·y` for a right-hand side `y`.
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()`.
    pub(crate) fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(self.row(r)) {
                *o += a * yr;
            }
        }
        out
    }

    /// Solves `A·x = b` by Gaussian elimination with partial pivoting.
    ///
    /// `A` must be square. Returns [`SingularMatrix`] when a pivot falls
    /// below `1e-12` of the largest row magnitude.
    ///
    /// # Panics
    /// Panics if `A` is not square or `b.len() != rows`.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(SingularMatrix);
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            // Eliminate below.
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[col * n + c] * x[c];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
        }
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(SingularMatrix));
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Aᵀ·A written out: columns (1, 3, 5) and (2, 4, 6).
        let expect = Matrix::from_rows(2, 2, vec![35.0, 44.0, 44.0, 56.0]);
        assert_eq!(a.gram(), expect);
    }

    #[test]
    fn t_matvec_matches_transpose() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = vec![1.0, -1.0, 2.0];
        // Aᵀ·y written out: 1 − 3 + 10 and 2 − 4 + 12.
        assert_eq!(a.t_matvec(&y), vec![8.0, 10.0]);
    }

    #[test]
    fn solve_larger_random_system_roundtrips() {
        // Deterministic pseudo-random SPD-ish matrix.
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        let mut v = 1u64;
        for r in 0..n {
            for c in 0..n {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                a[(r, c)] = ((v >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
            a[(r, r)] += n as f64; // diagonally dominant => nonsingular
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-9, "{xs} vs {xt}");
        }
    }
}

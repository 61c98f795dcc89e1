//! Dense exact matrices.

use std::fmt;

use crate::{Field, LinalgError};

/// A dense row-major matrix over an exact [`Field`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<F: Field> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// The zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<F> {
        Matrix {
            rows,
            cols,
            data: vec![F::zero(); rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix<F> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, F::one());
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<F>>) -> Matrix<F> {
        let r = rows.len();
        let c = rows.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> &F {
        &self.data[r * self.cols + c]
    }

    /// Element update.
    pub fn set(&mut self, r: usize, c: usize, v: F) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[F]) -> Result<Vec<F>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                detail: format!("matrix has {} cols, vector has {}", self.cols, v.len()),
            });
        }
        let mut out = vec![F::zero(); self.rows];
        for r in 0..self.rows {
            let mut acc = F::zero();
            for c in 0..self.cols {
                let term = self.get(r, c).mul(&v[c]);
                acc = acc.add(&term);
            }
            out[r] = acc;
        }
        Ok(out)
    }

    /// Matrix product.
    pub fn mul_mat(&self, other: &Matrix<F>) -> Result<Matrix<F>, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                detail: format!(
                    "{}×{} · {}×{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for c in 0..other.cols {
                let mut acc = F::zero();
                for k in 0..self.cols {
                    acc = acc.add(&self.get(r, k).mul(other.get(k, c)));
                }
                out.set(r, c, acc);
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<F> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c).clone());
            }
        }
        out
    }

    /// In-place reduction to *reduced row-echelon form*. Returns the
    /// pivot column of each pivot row.
    pub fn rref(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            if pivot_row >= self.rows {
                break;
            }
            // Choose the structurally simplest non-zero pivot (keeps
            // symbolic expressions small).
            let mut best: Option<(usize, usize)> = None;
            for r in pivot_row..self.rows {
                let v = self.get(r, col);
                if !v.is_zero() {
                    let cx = v.complexity();
                    if best.map(|(_, b)| cx < b).unwrap_or(true) {
                        best = Some((r, cx));
                    }
                }
            }
            let Some((r, _)) = best else { continue };
            self.swap_rows(pivot_row, r);
            // Normalise the pivot row.
            let pivot = self.get(pivot_row, col).clone();
            for c in col..self.cols {
                let v = self.get(pivot_row, c).div(&pivot);
                self.set(pivot_row, c, v);
            }
            // Eliminate the column everywhere else.
            for rr in 0..self.rows {
                if rr == pivot_row {
                    continue;
                }
                let factor = self.get(rr, col).clone();
                if factor.is_zero() {
                    continue;
                }
                for c in col..self.cols {
                    let v = self.get(rr, c).sub(&factor.mul(self.get(pivot_row, c)));
                    self.set(rr, c, v);
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        pivots
    }

    /// Rank.
    pub fn rank(&self) -> usize {
        let mut work = self.clone();
        work.rref().len()
    }

    /// Determinant (square matrices only), by fraction-free-ish Gaussian
    /// elimination with exact field arithmetic.
    pub fn determinant(&self) -> Result<F, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare);
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut det = F::one();
        for col in 0..n {
            let Some(r) = (col..n).find(|&r| !work.get(r, col).is_zero()) else {
                return Ok(F::zero());
            };
            if r != col {
                work.swap_rows(col, r);
                det = det.neg();
            }
            let pivot = work.get(col, col).clone();
            det = det.mul(&pivot);
            for rr in (col + 1)..n {
                let factor = work.get(rr, col).div(&pivot);
                if factor.is_zero() {
                    continue;
                }
                for c in col..n {
                    let v = work.get(rr, c).sub(&factor.mul(work.get(col, c)));
                    work.set(rr, c, v);
                }
            }
        }
        Ok(det)
    }

    /// Solve `A·x = b` for a unique `x`.
    pub fn solve(&self, b: &[F]) -> Result<Vec<F>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                detail: format!("matrix has {} rows, rhs has {}", self.rows, b.len()),
            });
        }
        // Augment and reduce.
        let mut aug = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            for c in 0..self.cols {
                aug.set(r, c, self.get(r, c).clone());
            }
            aug.set(r, self.cols, b[r].clone());
        }
        let pivots = aug.rref();
        // Inconsistency: pivot in the augmented column.
        if pivots.contains(&self.cols) {
            return Err(LinalgError::Singular);
        }
        // Uniqueness: every variable must be a pivot.
        if pivots.len() != self.cols {
            return Err(LinalgError::Singular);
        }
        let mut x = vec![F::zero(); self.cols];
        for (row, col) in pivots.into_iter().enumerate() {
            x[col] = aug.get(row, self.cols).clone();
        }
        Ok(x)
    }

    /// Inverse (square, non-singular).
    pub fn inverse(&self) -> Result<Matrix<F>, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare);
        }
        let n = self.rows;
        let mut aug = Matrix::zeros(n, 2 * n);
        for r in 0..n {
            for c in 0..n {
                aug.set(r, c, self.get(r, c).clone());
            }
            aug.set(r, n + r, F::one());
        }
        let pivots = aug.rref();
        if pivots.len() != n || pivots.iter().enumerate().any(|(i, &c)| c != i) {
            return Err(LinalgError::Singular);
        }
        let mut out = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                out.set(r, c, aug.get(r, n + c).clone());
            }
        }
        Ok(out)
    }

    /// A basis of the null space `{x : A·x = 0}`.
    pub fn null_space(&self) -> Vec<Vec<F>> {
        let mut work = self.clone();
        let pivots = work.rref();
        let pivot_set: std::collections::BTreeSet<usize> = pivots.iter().copied().collect();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivot_set.contains(c)).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &f in &free {
            let mut v = vec![F::zero(); self.cols];
            v[f] = F::one();
            for (row, &pc) in pivots.iter().enumerate() {
                // x_pc = −A'[row][f]
                v[pc] = work.get(row, f).neg();
            }
            basis.push(v);
        }
        basis
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl<F: Field + fmt::Display> fmt::Display for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_rational::Rational;
    use tpn_symbolic::{Poly, RatFn, Symbol};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn m(rows: Vec<Vec<i128>>) -> Matrix<Rational> {
        Matrix::from_rows(
            rows.into_iter()
                .map(|row| row.into_iter().map(Rational::from_int).collect())
                .collect(),
        )
    }

    #[test]
    fn solve_unique() {
        // 2x + y = 5, x - y = 1  =>  x = 2, y = 1
        let a = m(vec![vec![2, 1], vec![1, -1]]);
        let x = a.solve(&[r(5, 1), r(1, 1)]).unwrap();
        assert_eq!(x, vec![r(2, 1), r(1, 1)]);
        // verify
        assert_eq!(a.mul_vec(&x).unwrap(), vec![r(5, 1), r(1, 1)]);
    }

    #[test]
    fn solve_singular_and_inconsistent() {
        let a = m(vec![vec![1, 1], vec![2, 2]]);
        // inconsistent
        assert_eq!(a.solve(&[r(1, 1), r(3, 1)]), Err(LinalgError::Singular));
        // consistent but underdetermined: still not unique
        assert_eq!(a.solve(&[r(1, 1), r(2, 1)]), Err(LinalgError::Singular));
    }

    #[test]
    fn determinant_rank() {
        let a = m(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(a.determinant().unwrap(), r(-2, 1));
        assert_eq!(a.rank(), 2);
        let s = m(vec![vec![1, 2], vec![2, 4]]);
        assert_eq!(s.determinant().unwrap(), Rational::ZERO);
        assert_eq!(s.rank(), 1);
        assert_eq!(
            m(vec![vec![1, 2, 3]]).determinant(),
            Err(LinalgError::NotSquare)
        );
        assert_eq!(
            Matrix::<Rational>::identity(3).determinant().unwrap(),
            Rational::ONE
        );
    }

    #[test]
    fn inverse_roundtrip() {
        let a = m(vec![vec![2, 1], vec![1, 1]]);
        let inv = a.inverse().unwrap();
        assert_eq!(a.mul_mat(&inv).unwrap(), Matrix::identity(2));
        assert_eq!(inv.mul_mat(&a).unwrap(), Matrix::identity(2));
        let s = m(vec![vec![1, 2], vec![2, 4]]);
        assert_eq!(s.inverse(), Err(LinalgError::Singular));
    }

    #[test]
    fn null_space_dimension() {
        // rank-1 2×2 matrix: kernel is 1-dimensional.
        let a = m(vec![vec![1, 2], vec![2, 4]]);
        let basis = a.null_space();
        assert_eq!(basis.len(), 1);
        let v = &basis[0];
        assert_eq!(a.mul_vec(v).unwrap(), vec![Rational::ZERO; 2]);
        assert!(!v.iter().all(Rational::is_zero));
        // full-rank: trivial kernel
        assert!(m(vec![vec![1, 0], vec![0, 1]]).null_space().is_empty());
        // zero matrix: full kernel
        assert_eq!(Matrix::<Rational>::zeros(2, 3).null_space().len(), 3);
    }

    #[test]
    fn transpose_and_products() {
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let t = a.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(*t.get(2, 1), r(6, 1));
        let prod = a.mul_mat(&t).unwrap();
        assert_eq!(*prod.get(0, 0), r(14, 1));
        assert_eq!(*prod.get(1, 1), r(77, 1));
        assert!(a.mul_mat(&a).is_err());
        assert!(a.mul_vec(&[Rational::ONE]).is_err());
        assert!(a.solve(&[Rational::ONE]).is_err());
    }

    #[test]
    fn symbolic_solve() {
        // Solve [ [1, -p], [0, 1] ] x = [0, 1]  =>  x = [p, 1]
        let p = RatFn::new(
            Poly::symbol(Symbol::intern("la_f4")),
            &Poly::symbol(Symbol::intern("la_f4")) + &Poly::symbol(Symbol::intern("la_f5")),
        );
        let a = Matrix::from_rows(vec![
            vec![RatFn::one(), p.clone().neg()],
            vec![RatFn::zero(), RatFn::one()],
        ]);
        let x = a.solve(&[RatFn::zero(), RatFn::one()]).unwrap();
        assert_eq!(x, vec![p, RatFn::one()]);
    }

    #[test]
    fn symbolic_null_space() {
        // Markov-style: rows sum to zero ⇒ kernel contains the stationary
        // direction. A = [[-q, q], [p, -p]]ᵀ acting on rates.
        let p = RatFn::constant(r(19, 20));
        let q = RatFn::constant(r(1, 20));
        let a = Matrix::from_rows(vec![vec![p.clone().neg(), q.clone()], vec![p, q.neg()]]);
        let basis = a.null_space();
        assert_eq!(basis.len(), 1);
        assert_eq!(a.mul_vec(&basis[0]).unwrap(), vec![RatFn::zero(); 2]);
    }

    #[test]
    fn display() {
        let a = m(vec![vec![1, 2]]);
        assert_eq!(a.to_string(), "[1, 2]\n");
    }
}

//! Row-major dense matrix.
//!
//! A [`Matrix`] with `rows == 1` doubles as a vector; most model code works
//! with batches where each row is one vertex / edge / message, matching the
//! batched execution model of the accelerator (a processing batch of `Nb`
//! edges flows through the Memory Update Unit and Embedding Unit together).

use crate::Float;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Float>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: Float) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Float>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested rows (convenient in tests).
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Float>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a single-row matrix (a row vector) from a slice.
    pub fn row_vector(values: &[Float]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Float) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Float] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Float] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<Float> {
        self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Float] {
        debug_assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Float] {
        debug_assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Changes the row count in place, keeping the buffer: rows past the old
    /// count read zero, and a row count within the capacity the buffer
    /// already has allocates nothing — so one workspace matrix can stage a
    /// varying number of rows.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Copies row `i` into a new `Vec`.
    pub fn row_to_vec(&self, i: usize) -> Vec<Float> {
        self.row(i).to_vec()
    }

    /// Overwrites row `i` with `values`.
    pub fn set_row(&mut self, i: usize, values: &[Float]) {
        assert_eq!(values.len(), self.cols, "set_row: length mismatch");
        self.row_mut(i).copy_from_slice(values);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(Float) -> Float) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination of two equally-shaped matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(Float, Float) -> Float) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Returns a new matrix holding the selected rows, in the given order.
    /// Indices may repeat (gather semantics).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather_rows: index {} out of bounds", src);
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hconcat: row count mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Horizontal concatenation of many matrices with equal row counts.
    pub fn hconcat_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat_all: empty input");
        let rows = parts[0].rows;
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, total_cols);
        for i in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hconcat_all: row count mismatch");
                out.row_mut(i)[offset..offset + p.cols].copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
        out
    }

    /// Vertical concatenation (stacks `other` below `self`).
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vconcat: column count mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns the column slice `[start, end)` as a new matrix.
    pub fn columns(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "columns: bad range {}..{}",
            start,
            end
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> Float {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> Float {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as Float
        }
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> Float {
        self.data.iter().fold(0.0, |acc, &x| acc.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> Float {
        self.data.iter().map(|&x| x * x).sum::<Float>().sqrt()
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Float;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Float {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({}, {}) out of bounds",
            i,
            j
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Float {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({}, {}) out of bounds",
            i,
            j
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_length_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matches_kronecker_delta() {
        let eye = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(eye[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as Float);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (5, 3));
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn hconcat_and_columns_roundtrip() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + j) as Float);
        let b = Matrix::from_fn(3, 4, |i, j| (i * j) as Float);
        let c = a.hconcat(&b);
        assert_eq!(c.shape(), (3, 6));
        assert_eq!(c.columns(0, 2), a);
        assert_eq!(c.columns(2, 6), b);
    }

    #[test]
    fn hconcat_all_matches_pairwise() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as Float);
        let b = Matrix::from_fn(2, 1, |i, _| i as Float);
        let c = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as Float);
        let all = Matrix::hconcat_all(&[&a, &b, &c]);
        assert_eq!(all, a.hconcat(&b).hconcat(&c));
    }

    #[test]
    fn vconcat_stacks_rows() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as Float);
        let b = Matrix::from_fn(1, 3, |_, j| j as Float);
        let c = a.vconcat(&b);
        assert_eq!(c.shape(), (3, 3));
        assert_eq!(c.row(2), b.row(0));
    }

    #[test]
    fn gather_rows_allows_repeats() {
        let m = Matrix::from_fn(4, 2, |i, _| i as Float);
        let g = m.gather_rows(&[3, 0, 3]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as Float);
        let doubled = a.map(|x| 2.0 * x);
        assert_eq!(doubled[(1, 1)], 4.0);
        let summed = a.zip(&doubled, |x, y| x + y);
        assert_eq!(summed[(1, 1)], 6.0);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(m.sum(), -2.0);
        assert_eq!(m.mean(), -0.5);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - (30.0f32).sqrt()).abs() < 1e-6);
        assert!(m.all_finite());
    }

    #[test]
    fn set_row_overwrites_one_row() {
        let mut m = Matrix::zeros(3, 2);
        m.set_row(1, &[7.0, 8.0]);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 7.0, 8.0, 0.0, 0.0]);
    }
}

//! Sparse (CSR) QUBO representation.
//!
//! The paper's GPU kernel is deliberately dense — every flip streams a
//! full matrix row, which is exactly what keeps 1024 threads busy and
//! the memory system saturated. On a CPU, however, sparse instances
//! (G-set graphs have ~0.5 % density) reward an O(degree) update. This
//! module provides the compressed-row form used by
//! `qubo_search::sparse::SparseDeltaTracker`; the dense/sparse trade-off
//! is measured in the `sparse_vs_dense` benchmark.

use crate::matrix::{check_size, DenseRows, Qubo, QuboError};
use crate::{BitVec, Energy};

/// A QUBO in compressed-sparse-row form: for each row `k`, the non-zero
/// off-diagonal entries `(j, W_kj)` plus the diagonal `W_kk`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseQubo {
    n: usize,
    /// CSR row starts into `cols`/`vals`, length `n + 1`.
    row_start: Vec<u32>,
    /// Column indices of non-zero off-diagonal entries.
    cols: Vec<u32>,
    /// Their weights.
    vals: Vec<i16>,
    /// Diagonal weights.
    diag: Vec<i16>,
}

impl SparseQubo {
    /// The sparse form of `q`: a copy of the CSR matrix it holds, if it
    /// holds one, else built from its dense rows
    /// ([`SparseQubo::from_rows`]) without keeping the result in `q`.
    /// Never densifies a CSR-built instance.
    #[must_use]
    pub fn from_dense(q: &Qubo) -> Self {
        match q.held_csr() {
            Some(s) => s.clone(),
            None => Self::from_rows(q.dense()),
        }
    }

    /// Builds the sparse form of dense rows: an O(n²) scan that skips
    /// all-zero [`crate::ROW_LANE`] chunks, plus O(nnz) writes.
    pub(crate) fn from_rows(q: &DenseRows) -> Self {
        let n = q.n();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_start.push(0u32);
        for i in 0..n {
            for (j, w) in q.row_nonzeros(i, 0) {
                if j != i {
                    cols.push(j as u32);
                    vals.push(w);
                }
            }
            diag.push(q.diag(i));
            row_start.push(cols.len() as u32);
        }
        Self {
            n,
            row_start,
            cols,
            vals,
            diag,
        }
    }

    /// Builds directly from sparse triplets (`i < j` pairs may appear in
    /// any order; duplicates sum; both triangle orders accepted).
    ///
    /// O(n + nnz) memory and O(n + Σ_rows deg·log deg) time: the
    /// off-diagonal triplets are bucketed by row (both orientations),
    /// each bucket is sorted by column and folded. Sums accumulate in
    /// `i64`, so only the final weight of a cell must fit `i16`; the
    /// first cell that does not, in row-major order of the full
    /// matrix, is reported.
    ///
    /// # Errors
    /// Same domain as [`Qubo`]: size in `1..=MAX_BITS`, indices in
    /// range, accumulated weights within `i16`.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, i16)]) -> Result<Self, QuboError> {
        check_size(n)?;
        // Pass 1: validate, accumulate the diagonal, and count each
        // row's off-diagonal entries (shifted by one for the prefix sum).
        let mut diag_acc = vec![0i64; n];
        let mut bucket = vec![0usize; n + 1];
        for &(i, j, w) in triplets {
            if i >= n {
                return Err(QuboError::IndexOutOfRange(i));
            }
            if j >= n {
                return Err(QuboError::IndexOutOfRange(j));
            }
            if i == j {
                // invariant: i < n checked above; diag_acc has length n.
                diag_acc[i] += i64::from(w);
            } else {
                // invariant: i, j < n checked above; bucket has n + 1 slots.
                bucket[i + 1] += 1;
                bucket[j + 1] += 1;
            }
        }
        for k in 0..n {
            // invariant: k + 1 ≤ n < bucket.len().
            bucket[k + 1] += bucket[k];
        }
        // Pass 2: scatter both orientations into their row buckets.
        // invariant: bucket has n + 1 entries, the last is the total.
        let mut entries = vec![(0u32, 0i16); bucket[n]];
        let mut cursor = bucket.clone();
        for &(i, j, w) in triplets {
            if i != j {
                for (r, c) in [(i, j), (j, i)] {
                    // invariant: r < n (validated in pass 1) and the
                    // cursor stays below bucket[r + 1] by the counts.
                    entries[cursor[r]] = (c as u32, w);
                    cursor[r] += 1;
                }
            }
        }
        // Pass 3: per row, check the diagonal (it precedes every
        // surviving column, since a column j < i of row i was already
        // checked as column i of row j), then fold each column's run.
        // Folding only shrinks the entry count, so one exact-capacity
        // allocation each holds every surviving column and weight.
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        let mut diag = Vec::with_capacity(n);
        row_start.push(0u32);
        for i in 0..n {
            // invariant: i < n = diag_acc.len() by the loop bound.
            let d16 = i16::try_from(diag_acc[i]).map_err(|_| QuboError::WeightOverflow(i, i))?;
            diag.push(d16);
            // invariant: bucket[i] ≤ bucket[i + 1] ≤ entries.len().
            let row = &mut entries[bucket[i]..bucket[i + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            for run in row.chunk_by(|a, b| a.0 == b.0) {
                let sum: i64 = run.iter().map(|&(_, w)| i64::from(w)).sum();
                if sum != 0 {
                    // invariant: runs are non-empty slices.
                    let j = run[0].0;
                    let w16 =
                        i16::try_from(sum).map_err(|_| QuboError::WeightOverflow(i, j as usize))?;
                    cols.push(j);
                    vals.push(w16);
                }
            }
            row_start.push(cols.len() as u32);
        }
        Ok(Self {
            n,
            row_start,
            cols,
            vals,
            diag,
        })
    }

    /// Number of bits.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored non-zero off-diagonal entries (both triangles).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Diagonal weight `W_kk`.
    #[must_use]
    #[inline]
    pub fn diag(&self, k: usize) -> i16 {
        // invariant: callers pass k < n; diag has length n.
        self.diag[k]
    }

    /// The non-zero off-diagonal entries of row `k` as `(column, weight)`
    /// pairs — the O(degree) scan of the sparse flip update.
    #[inline]
    pub fn row(&self, k: usize) -> impl Iterator<Item = (usize, i16)> + '_ {
        // invariant: k < n and row_start has n + 1 entries.
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        // invariant: lo ≤ hi ≤ cols.len() by CSR construction.
        self.cols[lo..hi]
            .iter()
            // invariant: vals is parallel to cols (same length).
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Row `k` as parallel column/weight slices — the zero-abstraction
    /// form of [`SparseQubo::row`] for hot loops that want to control
    /// their own iteration (unrolling, index arithmetic).
    #[must_use]
    #[inline]
    pub fn row_parts(&self, k: usize) -> (&[u32], &[i16]) {
        // invariant: k < n and row_start has n + 1 entries.
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        // invariant: lo ≤ hi ≤ cols.len() = vals.len() by construction.
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// The CSR arrays: row starts (length `n + 1`), then the column
    /// indices and weights of every stored off-diagonal entry, row after
    /// row.
    pub(crate) fn arrays(&self) -> (&[u32], &[u32], &[i16]) {
        (&self.row_start, &self.cols, &self.vals)
    }

    /// Weight `W_ij`: the diagonal, or a binary search of row `i`'s
    /// sorted columns (zero when `j` is not stored).
    pub(crate) fn get(&self, i: usize, j: usize) -> i16 {
        if i == j {
            return self.diag(i);
        }
        let (cols, vals) = self.row_parts(i);
        match cols.binary_search(&(j as u32)) {
            // invariant: vals is parallel to cols, so a found index is
            // in bounds of vals.
            Ok(p) => vals[p],
            Err(_) => 0,
        }
    }

    /// The non-zero upper-triangle cells `(i, j, W_ij)`, `i ≤ j`, in
    /// row-major order: per row the diagonal, then the stored columns
    /// above it (columns are sorted).
    pub(crate) fn upper_cells(&self) -> impl Iterator<Item = (usize, usize, i16)> + '_ {
        (0..self.n).flat_map(move |i| {
            let (cols, vals) = self.row_parts(i);
            let above = cols.partition_point(|&c| (c as usize) < i);
            // invariant: above ≤ cols.len() = vals.len() (partition_point).
            let (cols, vals) = (&cols[above..], &vals[above..]);
            let d = self.diag(i);
            let diag = (d != 0).then_some((i, i, d));
            diag.into_iter().chain(
                cols.iter()
                    .zip(vals)
                    .map(move |(&j, &w)| (i, j as usize, w)),
            )
        })
    }

    /// Heap bytes of the CSR arrays (allocated capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.row_start.capacity() * std::mem::size_of::<u32>()
            + self.cols.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<i16>()
            + self.diag.capacity() * std::mem::size_of::<i16>()
    }

    /// Degree (non-zero off-diagonals) of row `k`.
    #[must_use]
    pub fn degree(&self, k: usize) -> usize {
        // invariant: k < n and row_start has n + 1 entries.
        (self.row_start[k + 1] - self.row_start[k]) as usize
    }

    /// Reference energy `E(X)` (O(nnz + n)).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> Energy {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let mut e = 0i64;
        for i in 0..self.n {
            if !x.get(i) {
                continue;
            }
            // invariant: i < n = diag.len() by the loop bound.
            e += i64::from(self.diag[i]);
            for (j, w) in self.row(i) {
                if x.get(j) {
                    e += i64::from(w);
                }
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_random(n: usize, nnz_pairs: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Qubo::zero(n).unwrap();
        for _ in 0..nnz_pairs {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            q.set(i, j, rng.gen_range(-50..=50));
        }
        q
    }

    #[test]
    fn from_dense_matches_energies() {
        let q = sparse_random(40, 80, 1);
        let s = SparseQubo::from_dense(&q);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let x = BitVec::random(40, &mut rng);
            assert_eq!(s.energy(&x), q.energy(&x));
        }
        assert_eq!(s.n(), 40);
    }

    #[test]
    fn rows_are_symmetric_views() {
        let q = sparse_random(20, 30, 3);
        let s = SparseQubo::from_dense(&q);
        for i in 0..20 {
            for (j, w) in s.row(i) {
                assert_eq!(q.get(i, j), w);
                assert!(s.row(j).any(|(jj, ww)| jj == i && ww == w), "({i},{j})");
            }
            assert_eq!(s.degree(i), s.row(i).count());
        }
    }

    #[test]
    fn from_triplets_accumulates_both_orders() {
        let s = SparseQubo::from_triplets(4, &[(0, 2, 3), (2, 0, 4), (1, 1, -5)]).unwrap();
        assert_eq!(s.nnz(), 2); // (0,2) and (2,0) views of one coupler
        assert_eq!(s.diag(1), -5);
        assert!(s.row(0).any(|(j, w)| j == 2 && w == 7));
        assert!(s.row(2).any(|(j, w)| j == 0 && w == 7));
    }

    #[test]
    fn from_triplets_validates() {
        assert!(matches!(
            SparseQubo::from_triplets(0, &[]),
            Err(QuboError::BadSize(0))
        ));
        assert!(matches!(
            SparseQubo::from_triplets(2, &[(0, 5, 1)]),
            Err(QuboError::IndexOutOfRange(5))
        ));
        assert!(matches!(
            SparseQubo::from_triplets(2, &[(0, 1, 30_000), (0, 1, 30_000)]),
            Err(QuboError::WeightOverflow(0, 1))
        ));
    }

    #[test]
    fn zero_weights_are_dropped() {
        let s = SparseQubo::from_triplets(3, &[(0, 1, 5), (0, 1, -5)]).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.degree(0), 0);
    }

    #[test]
    fn triplet_and_dense_paths_agree() {
        let triplets = [(0usize, 1usize, 4i16), (1, 2, -3), (0, 0, 7), (2, 3, 1)];
        let s1 = SparseQubo::from_triplets(4, &triplets).unwrap();
        let mut q = Qubo::zero(4).unwrap();
        for &(i, j, w) in &triplets {
            q.set(i, j, q.get(i, j) + w);
        }
        let s2 = SparseQubo::from_dense(&q);
        assert_eq!(s1, s2);
    }

    #[test]
    fn overflow_is_reported_at_the_first_row_major_cell() {
        // Row 0 overflows at its diagonal and at (0, 1): the diagonal
        // comes first in row-major order.
        let t = [
            (0, 1, 30_000),
            (1, 0, 30_000),
            (0, 0, 30_000),
            (0, 0, 30_000),
        ];
        assert_eq!(
            SparseQubo::from_triplets(2, &t),
            Err(QuboError::WeightOverflow(0, 0))
        );
        // An intermediate excursion past i16 is fine if the sum fits.
        let s = SparseQubo::from_triplets(2, &[(0, 1, 30_000), (1, 0, 30_000), (0, 1, -30_000)])
            .unwrap();
        assert!(s.row(0).eq([(1, 30_000)]));
    }
}

//! Symmetric QUBO weight matrices and their dense storage form.

use crate::bitvec::BitVec;
use crate::energy::phi;
use crate::sparse::SparseQubo;
use crate::MAX_BITS;
use rand::Rng;
use std::fmt;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

/// Errors produced when constructing a [`Qubo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuboError {
    /// The problem has zero bits or exceeds [`MAX_BITS`].
    BadSize(usize),
    /// The provided dense matrix is not `n × n`.
    BadShape {
        /// Number of provided entries.
        got: usize,
        /// Number of expected entries (`n²`).
        expected: usize,
    },
    /// The provided dense matrix is not symmetric at `(i, j)`.
    NotSymmetric(usize, usize),
    /// A triplet refers to a bit index `>= n`.
    IndexOutOfRange(usize),
    /// Accumulated weight at `(i, j)` overflows the 16-bit weight range.
    WeightOverflow(usize, usize),
}

impl fmt::Display for QuboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadSize(n) => write!(f, "problem size {n} not in 1..={MAX_BITS}"),
            Self::BadShape { got, expected } => {
                write!(f, "dense matrix has {got} entries, expected {expected}")
            }
            Self::NotSymmetric(i, j) => write!(f, "matrix not symmetric at ({i}, {j})"),
            Self::IndexOutOfRange(i) => write!(f, "bit index {i} out of range"),
            Self::WeightOverflow(i, j) => {
                write!(f, "accumulated weight at ({i}, {j}) overflows i16")
            }
        }
    }
}

impl std::error::Error for QuboError {}

/// Row stride granularity in `i16` elements: 32 × 2 B = one 64-byte
/// cache line, and a multiple of every SIMD lane count we dispatch to,
/// so lane-wise kernels never straddle a row boundary.
pub const ROW_LANE: usize = 32;

/// Byte alignment of row 0 (and, since the stride is a [`ROW_LANE`]
/// multiple, of every row).
pub const ROW_ALIGN_BYTES: usize = ROW_LANE * 2;

/// Side of the square tiles [`Qubo::from_upper`] mirrors the lower
/// triangle in: one aligned cache line per tile row (a [`ROW_LANE`]
/// chunk), so a tile is 32 source lines and 32 destination lines, and
/// its transpose happens in a 2 KB stack buffer.
const MIRROR_TILE: usize = ROW_LANE;

/// Checks a problem size against the supported range `1..=MAX_BITS`.
pub(crate) fn check_size(n: usize) -> Result<(), QuboError> {
    if n == 0 || n > MAX_BITS {
        return Err(QuboError::BadSize(n));
    }
    Ok(())
}

/// The dense storage form of a [`Qubo`]: all `n × n` weights, row-major.
///
/// The layout mirrors the GPU global-memory layout in the paper: the hot
/// operation of the incremental search is reading one full row `W_k`
/// contiguously (symmetry makes the column `W_{·k}` equal to the row
/// `W_{k·}`). Deviating from the paper's plain `n × n` square, rows are
/// stored at a stride rounded up to [`ROW_LANE`] elements with row 0
/// aligned to [`ROW_ALIGN_BYTES`]; the padding tail of every row is
/// zero. [`DenseRows::row`] returns exactly the `n` logical weights,
/// while [`DenseRows::row_padded`] exposes the full stride for lane-wise
/// kernels (see DESIGN.md: zero pad weights contribute nothing to any
/// Δ, so Lemmas 1–3 accounting is unchanged).
///
/// Obtained through [`Qubo::dense`]; the flip kernels hold this view, so
/// the per-flip path never reaches the code that builds it.
pub struct DenseRows {
    n: usize,
    /// Elements between consecutive row starts (`ROW_LANE` multiple).
    stride: usize,
    /// Element offset of row 0 inside `w` (aligns row 0 to 64 bytes).
    off: usize,
    w: Box<[i16]>,
}

impl Clone for DenseRows {
    fn clone(&self) -> Self {
        // A fresh allocation lands at a different address, so the
        // aligning offset must be recomputed and rows re-copied; a
        // derived byte-for-byte clone would silently misalign.
        let mut c = Self::zeroed(self.n);
        for k in 0..self.n {
            let base = c.idx(k, 0);
            c.w[base..base + self.n].copy_from_slice(self.row(k));
        }
        c
    }
}

impl DenseRows {
    /// All-zero rows for an `n`-bit problem (`n` already checked). The
    /// buffer is over-allocated by `ROW_LANE − 1` elements so the offset
    /// can align row 0 to [`ROW_ALIGN_BYTES`] without unsafe allocation
    /// APIs.
    fn zeroed(n: usize) -> Self {
        let stride = n.div_ceil(ROW_LANE) * ROW_LANE;
        let w = vec![0i16; n * stride + ROW_LANE - 1].into_boxed_slice();
        // `Box<[i16]>` is at least 2-byte aligned, so the byte remainder
        // is even and the element offset lands in 0..ROW_LANE.
        let addr = w.as_ptr() as usize;
        let off = ((ROW_ALIGN_BYTES - addr % ROW_ALIGN_BYTES) % ROW_ALIGN_BYTES) / 2;
        Self { n, stride, off, w }
    }

    /// Densifies a CSR instance: one zeroed padded allocation, then one
    /// write per stored entry — O(nnz) work on top of the allocation,
    /// whose untouched pages stay zero.
    fn from_csr(s: &SparseQubo) -> Self {
        let mut q = Self::zeroed(s.n());
        for i in 0..q.n {
            let d = q.idx(i, i);
            q.w[d] = s.diag(i);
            let base = q.idx(i, 0);
            let (cols, vals) = s.row_parts(i);
            for (&j, &v) in cols.iter().zip(vals) {
                q.w[base + j as usize] = v;
            }
        }
        q
    }

    /// Allocates an `n`-bit instance (`n` already checked), lets `fill`
    /// write each row's upper part `W_i,i..n` in row order, and
    /// mirrors the lower triangle from it.
    ///
    /// The mirror walks [`MIRROR_TILE`]-square tiles. A diagonal tile
    /// is mirrored in place, cell by cell. An off-diagonal tile (rows
    /// `ti..`, columns `tj..`, `tj > ti`) is read row by row into a
    /// stack buffer, transposed there, and written row by row to rows
    /// `tj..`, columns `ti..`; `split_at_mut` at row `ti + MIRROR_TILE`
    /// gives the source band and every destination row as disjoint
    /// slices. Only contiguous tile rows touch the matrix, so the
    /// column-order walk that aliases L1 sets at power-of-two strides
    /// happens in the buffer.
    fn fill_upper(n: usize, mut fill: impl FnMut(&mut [i16])) -> Self {
        const T: usize = MIRROR_TILE;
        let mut q = Self::zeroed(n);
        for i in 0..n {
            let (a, b) = (q.idx(i, i), q.idx(i, n));
            fill(&mut q.w[a..b]);
        }
        let (stride, off) = (q.stride, q.off);
        let mut tile = [[0i16; T]; T];
        for ti in (0..n).step_by(T) {
            let h = T.min(n - ti);
            for i in ti..ti + h {
                for j in i + 1..ti + h {
                    let v = q.w[q.idx(i, j)];
                    let d = q.idx(j, i);
                    q.w[d] = v;
                }
            }
            let (band, below) = q.w[off..].split_at_mut((ti + h) * stride);
            for tj in (ti + h..n).step_by(T) {
                let w = T.min(n - tj);
                for (r, i) in (ti..ti + h).enumerate() {
                    let src = &band[i * stride + tj..i * stride + tj + w];
                    for (c, &v) in src.iter().enumerate() {
                        tile[c][r] = v;
                    }
                }
                for (c, row) in tile.iter().take(w).enumerate() {
                    let at = (tj + c - (ti + h)) * stride + ti;
                    below[at..at + h].copy_from_slice(&row[..h]);
                }
            }
        }
        q
    }

    /// Number of bits (variables) `n`.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element index of `W_ij` inside the padded backing buffer.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        self.off + i * self.stride + j
    }

    /// Weight `W_ij`.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> i16 {
        self.w[self.idx(i, j)]
    }

    fn set(&mut self, i: usize, j: usize, v: i16) {
        let a = self.idx(i, j);
        let b = self.idx(j, i);
        self.w[a] = v;
        self.w[b] = v;
    }

    /// Row `W_k` as a contiguous slice of exactly `n` weights — the hot
    /// read of the Δ update.
    #[must_use]
    #[inline]
    pub fn row(&self, k: usize) -> &[i16] {
        let base = self.idx(k, 0);
        &self.w[base..base + self.n]
    }

    /// Row `W_k` including its zero padding tail: length
    /// [`DenseRows::stride`], starting on a [`ROW_ALIGN_BYTES`]
    /// boundary. Lane-wise kernels read this so fixed-width chunks never
    /// straddle a row; the pad weights are zero and contribute nothing
    /// to any Δ.
    #[must_use]
    #[inline]
    pub fn row_padded(&self, k: usize) -> &[i16] {
        let base = self.idx(k, 0);
        &self.w[base..base + self.stride]
    }

    /// Elements between consecutive row starts: `n` rounded up to a
    /// [`ROW_LANE`] multiple.
    #[must_use]
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Diagonal weight `W_kk` (equal to `Δ_k(0)`).
    #[must_use]
    #[inline]
    pub fn diag(&self, k: usize) -> i16 {
        self.w[self.idx(k, k)]
    }

    /// The non-zero weights `(j, W_kj)` of row `k` with `j ≥ from`, in
    /// column order. The scan tests whole [`ROW_LANE`] chunks of the
    /// padded row for zero first, so a sparse row costs one vector OR
    /// per 32 columns plus O(non-zeros); pad lanes are zero and never
    /// yielded.
    pub(crate) fn row_nonzeros(
        &self,
        k: usize,
        from: usize,
    ) -> impl Iterator<Item = (usize, i16)> + '_ {
        let first = from / ROW_LANE * ROW_LANE;
        self.row_padded(k)[first..]
            .chunks_exact(ROW_LANE)
            .enumerate()
            .filter(|(_, chunk)| chunk.iter().fold(0, |acc, &w| acc | w) != 0)
            .flat_map(move |(c, chunk)| {
                let base = first + c * ROW_LANE;
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(lane, &w)| (base + lane, w))
                    .filter(move |&(j, w)| w != 0 && j >= from)
            })
    }

    /// The non-zero upper-triangle cells `(i, j, W_ij)`, `i ≤ j`, in
    /// row-major order.
    fn upper_cells(&self) -> impl Iterator<Item = (usize, usize, i16)> + '_ {
        (0..self.n).flat_map(move |i| self.row_nonzeros(i, i).map(move |(j, w)| (i, j, w)))
    }

    /// O(|ones|²) reference energy over the rows.
    fn energy(&self, x: &BitVec) -> i64 {
        let ones: Vec<usize> = x.iter_ones().collect();
        let mut e = 0i64;
        for &i in &ones {
            let row = self.row(i);
            for &j in &ones {
                e += i64::from(row[j]);
            }
        }
        e
    }

    /// Bytes of the padded backing buffer.
    fn heap_bytes(&self) -> usize {
        self.w.len() * std::mem::size_of::<i16>()
    }
}

/// The weights in the form the constructor received, plus the other
/// form once something has asked for it.
#[derive(Clone)]
enum Weights {
    /// Built dense; the CSR form is derived on first sparse use, and
    /// the coupler count (an O(n²) scan) on its first query.
    Dense {
        rows: DenseRows,
        csr: OnceLock<Arc<SparseQubo>>,
        couplers: OnceLock<usize>,
    },
    /// Built from CSR; the dense rows are derived on first dense use.
    Sparse {
        csr: Arc<SparseQubo>,
        rows: OnceLock<DenseRows>,
    },
}

/// An instance of a QUBO problem: an `n × n` symmetric matrix of 16-bit
/// weights `W = (W_ij)`.
///
/// The objective is to find an `n`-bit vector `X` minimizing
/// `E(X) = Xᵀ W X = Σ_{i,j} W_ij x_i x_j` (Eq. (1)).
///
/// An instance keeps its weights in the form its constructor received:
/// padded dense rows ([`DenseRows`]) from [`Qubo::zero`],
/// [`Qubo::from_dense`], [`Qubo::from_upper`] and [`Qubo::random`]; one
/// shared CSR matrix ([`SparseQubo`]) from [`Qubo::from_triplets`] and
/// [`Qubo::from_sparse`]. The other form is derived at most once, on
/// first use ([`Qubo::dense`], [`Qubo::csr`]), and kept. Queries that do
/// not depend on the layout — [`Qubo::get`], [`Qubo::diag`],
/// [`Qubo::energy`], [`Qubo::coupler_count`], [`Qubo::content_hash`],
/// `==` — answer from the form the constructor built, so a sparse
/// instance that only ever meets the CSR flip tier never costs `n²`
/// memory.
#[derive(Clone)]
pub struct Qubo {
    n: usize,
    weights: Weights,
}

impl PartialEq for Qubo {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality over the canonical cell stream: storage form,
        // stride and alignment never enter it.
        self.n == other.n && self.upper_cells().eq(other.upper_cells())
    }
}

impl Eq for Qubo {}

impl Default for Qubo {
    /// The 1-bit all-zero instance: the smallest valid problem, for
    /// placeholders that must hold some matrix.
    fn default() -> Self {
        Self::with_rows(DenseRows::zeroed(1))
    }
}

impl Qubo {
    /// A dense-built instance.
    fn with_rows(rows: DenseRows) -> Self {
        Self {
            n: rows.n,
            weights: Weights::Dense {
                rows,
                csr: OnceLock::new(),
                couplers: OnceLock::new(),
            },
        }
    }

    /// A CSR-built instance.
    fn with_csr(csr: Arc<SparseQubo>) -> Self {
        Self {
            n: csr.n(),
            weights: Weights::Sparse {
                csr,
                rows: OnceLock::new(),
            },
        }
    }

    /// Creates a QUBO with all-zero weights.
    ///
    /// # Errors
    /// Returns [`QuboError::BadSize`] if `n == 0` or `n > MAX_BITS`.
    pub fn zero(n: usize) -> Result<Self, QuboError> {
        check_size(n)?;
        Ok(Self::with_rows(DenseRows::zeroed(n)))
    }

    /// Creates a QUBO from a dense row-major matrix, validating symmetry.
    ///
    /// # Errors
    /// [`QuboError::BadShape`] if `w.len() != n²`,
    /// [`QuboError::NotSymmetric`] if `w[i][j] != w[j][i]`.
    pub fn from_dense(n: usize, w: Vec<i16>) -> Result<Self, QuboError> {
        check_size(n)?;
        if w.len() != n * n {
            return Err(QuboError::BadShape {
                got: w.len(),
                expected: n * n,
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if w[i * n + j] != w[j * n + i] {
                    return Err(QuboError::NotSymmetric(i, j));
                }
            }
        }
        let mut rows = DenseRows::zeroed(n);
        for k in 0..n {
            let base = rows.idx(k, 0);
            rows.w[base..base + n].copy_from_slice(&w[k * n..(k + 1) * n]);
        }
        Ok(Self::with_rows(rows))
    }

    /// Creates a QUBO from fixed-size rows — convenient in tests and docs.
    ///
    /// # Errors
    /// Same as [`Qubo::from_dense`].
    pub fn from_rows<const N: usize>(n: usize, rows: &[[i16; N]]) -> Result<Self, QuboError> {
        let mut w = Vec::with_capacity(n * n);
        for row in rows {
            w.extend_from_slice(row);
        }
        Self::from_dense(n, w)
    }

    /// A CSR-built instance holding a copy of `s`: O(n + nnz), no dense
    /// rows until something asks for them ([`Qubo::dense`]).
    #[must_use]
    pub fn from_sparse(s: &SparseQubo) -> Self {
        Self::with_csr(Arc::new(s.clone()))
    }

    /// Builds an instance from `(i, j, w)` triplets with the
    /// [`SparseQubo::from_triplets`] semantics: either triangle order,
    /// duplicates summed, an accumulated weight outside `i16` reported
    /// as [`QuboError::WeightOverflow`] at its first cell in row-major
    /// order. The instance is CSR-built: memory stays O(n + nnz) until
    /// something asks for the dense rows ([`Qubo::dense`]).
    ///
    /// # Errors
    /// As [`SparseQubo::from_triplets`].
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, i16)]) -> Result<Self, QuboError> {
        SparseQubo::from_triplets(n, triplets).map(|s| Self::with_csr(Arc::new(s)))
    }

    /// Builds an instance from the row-major upper triangle of `W`
    /// (diagonal included, `n·(n+1)/2` weights): each row's upper part
    /// is copied in whole, then the lower triangle is mirrored in
    /// 32 × 32 tiles transposed through a stack buffer, so the matrix
    /// itself is only read and written in whole cache lines.
    ///
    /// # Errors
    /// [`QuboError::BadSize`] for an out-of-range `n`,
    /// [`QuboError::BadShape`] if `upper.len() != n·(n+1)/2`.
    pub fn from_upper(n: usize, upper: &[i16]) -> Result<Self, QuboError> {
        check_size(n)?;
        let expected = n * (n + 1) / 2;
        if upper.len() != expected {
            return Err(QuboError::BadShape {
                got: upper.len(),
                expected,
            });
        }
        let mut rest = upper;
        Ok(Self::with_rows(DenseRows::fill_upper(n, |row| {
            let (head, tail) = rest.split_at(row.len());
            row.copy_from_slice(head);
            rest = tail;
        })))
    }

    /// Creates a synthetic random problem: every weight drawn uniformly
    /// from the full 16-bit range `[-32768, 32767]` with `W_ij = W_ji`
    /// (§4.1.3 of the paper). Weights are drawn row by row over the
    /// upper triangle (`i ≤ j`).
    ///
    /// # Panics
    /// Panics if `n` is out of range (synthetic generators are test/bench
    /// entry points where a panic is the right failure mode).
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        // abs-lint: allow(no-unwrap) -- documented Panics contract: synthetic generator entry point
        check_size(n).expect("size in range");
        Self::with_rows(DenseRows::fill_upper(n, |row| {
            row.iter_mut().for_each(|v| *v = rng.gen());
        }))
    }

    /// Number of bits (variables) `n`.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The padded dense rows, built from the CSR form on the first call
    /// for a CSR-built instance (O(n²) memory, O(nnz) writes) and kept.
    #[must_use]
    pub fn dense(&self) -> &DenseRows {
        match &self.weights {
            Weights::Dense { rows, .. } => rows,
            Weights::Sparse { csr, rows } => rows.get_or_init(|| DenseRows::from_csr(csr)),
        }
    }

    /// The shared CSR form, built from the dense rows on the first call
    /// for a dense-built instance (an O(n²) chunked scan) and kept.
    #[must_use]
    pub fn csr(&self) -> &Arc<SparseQubo> {
        match &self.weights {
            Weights::Sparse { csr, .. } => csr,
            Weights::Dense { rows, csr, .. } => {
                csr.get_or_init(|| Arc::new(SparseQubo::from_rows(rows)))
            }
        }
    }

    /// The CSR form if the instance holds one already.
    pub(crate) fn held_csr(&self) -> Option<&SparseQubo> {
        match &self.weights {
            Weights::Sparse { csr, .. } => Some(csr),
            Weights::Dense { csr, .. } => csr.get().map(|s| &**s),
        }
    }

    /// Weight `W_ij`: an index into the dense rows, or a binary search
    /// of CSR row `i` on a CSR-built instance.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i16 {
        match &self.weights {
            Weights::Dense { rows, .. } => rows.get(i, j),
            Weights::Sparse { csr, .. } => csr.get(i, j),
        }
    }

    /// Sets `W_ij` and `W_ji` simultaneously, keeping the matrix
    /// symmetric. The instance becomes dense-built (densifying a
    /// CSR-built one first) and drops any CSR form and coupler count,
    /// which would be stale.
    pub fn set(&mut self, i: usize, j: usize, v: i16) {
        if let Weights::Sparse { csr, rows } = &mut self.weights {
            let rows = rows.take().unwrap_or_else(|| DenseRows::from_csr(csr));
            self.weights = Weights::Dense {
                rows,
                csr: OnceLock::new(),
                couplers: OnceLock::new(),
            };
        }
        if let Weights::Dense {
            rows,
            csr,
            couplers,
        } = &mut self.weights
        {
            csr.take();
            couplers.take();
            rows.set(i, j, v);
        }
    }

    /// Diagonal weight `W_kk` (equal to `Δ_k(0)`).
    #[must_use]
    #[inline]
    pub fn diag(&self, k: usize) -> i16 {
        match &self.weights {
            Weights::Dense { rows, .. } => rows.diag(k),
            Weights::Sparse { csr, .. } => csr.diag(k),
        }
    }

    /// Number of non-zero off-diagonal couplers `(i < j)`: O(1) on the
    /// CSR form; on dense rows a chunked scan, run on the first call and
    /// kept until the next [`Qubo::set`] (every session start asks, and
    /// a cached instance is started many times).
    #[must_use]
    pub fn coupler_count(&self) -> usize {
        match &self.weights {
            Weights::Dense { rows, couplers, .. } => *couplers.get_or_init(|| {
                (0..self.n)
                    .map(|i| rows.row_nonzeros(i, i + 1).count())
                    .sum()
            }),
            // CSR stores both triangles; each coupler appears twice.
            Weights::Sparse { csr, .. } => csr.nnz() / 2,
        }
    }

    /// Heap bytes of the storage forms the instance holds: the one its
    /// constructor built plus a derived one, if something asked for it.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.weights {
            Weights::Dense { rows, csr, .. } => {
                rows.heap_bytes() + csr.get().map_or(0, |s| s.heap_bytes())
            }
            Weights::Sparse { csr, rows } => {
                csr.heap_bytes() + rows.get().map_or(0, DenseRows::heap_bytes)
            }
        }
    }

    /// The non-zero upper-triangle cells `(i, j, W_ij)`, `i ≤ j`, in
    /// row-major order, read from whichever form the instance was built
    /// in — the canonical stream behind [`Qubo::content_hash`] and `==`.
    pub(crate) fn upper_cells(&self) -> impl Iterator<Item = (usize, usize, i16)> + '_ {
        let (rows, csr) = match &self.weights {
            Weights::Dense { rows, .. } => (Some(rows), None),
            Weights::Sparse { csr, .. } => (None, Some(&**csr)),
        };
        let dense = rows.into_iter().flat_map(DenseRows::upper_cells);
        dense.chain(csr.into_iter().flat_map(SparseQubo::upper_cells))
    }

    /// Reference energy function `E(X) = Σ_{i,j} W_ij x_i x_j` (Eq. (1)):
    /// O(|ones|²) over dense rows, O(n + nnz) over the CSR form.
    ///
    /// Used for initialization, verification, and as the "naive" cost
    /// model; the incremental search never calls it.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        match &self.weights {
            Weights::Dense { rows, .. } => rows.energy(x),
            Weights::Sparse { csr, .. } => csr.energy(x),
        }
    }

    /// Reference `Δ_k(X) = E(flip_k(X)) − E(X)` computed directly from
    /// Eq. (4): `Δ_k = φ(x_k)·(2·Σ_{i≠k} W_ki x_i + W_kk)`. O(n).
    ///
    /// # Panics
    /// Panics if `x.len() != n` or `k >= n`.
    #[must_use]
    pub fn delta(&self, x: &BitVec, k: usize) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        assert!(k < self.n, "bit index out of range");
        let s: i64 = match &self.weights {
            Weights::Dense { rows, .. } => {
                let row = rows.row(k);
                x.iter_ones()
                    .filter(|&i| i != k)
                    .map(|i| i64::from(row[i]))
                    .sum()
            }
            Weights::Sparse { csr, .. } => csr
                .row(k)
                .filter(|&(j, _)| x.get(j))
                .map(|(_, w)| i64::from(w))
                .sum(),
        };
        i64::from(phi(x.get(k))) * (2 * s + i64::from(self.diag(k)))
    }

    /// A conservative bound on `|E(X)|` over all `X`, useful for sizing
    /// penalty weights: `Σ_{i,j} |W_ij|`.
    #[must_use]
    pub fn energy_bound(&self) -> i64 {
        self.upper_cells()
            .map(|(i, j, w)| i64::from(w).abs() * if i == j { 1 } else { 2 })
            .sum()
    }

    /// The largest absolute weight `max |W_ij|`.
    #[must_use]
    pub fn max_abs_weight(&self) -> i64 {
        self.upper_cells()
            .map(|(_, _, w)| i64::from(w).abs())
            .max()
            .unwrap_or(0)
    }

    /// 256-bit content digest over the *canonical* form of the
    /// instance: `n`, then one packed word `(i·n + j) << 16 | (W_ij as
    /// u16)` per non-zero upper-triangle cell `W_ij (i ≤ j)` in
    /// row-major order. Zero cells are implied by their absence, so the
    /// digest costs a chunked zero scan of dense rows (or a walk of the
    /// CSR form) plus O(non-zeros) absorptions. Padding, stride and
    /// storage form never enter the digest, so two logically equal
    /// instances always hash equal regardless of how they were built;
    /// any single-weight change — including a zero ↔ non-zero flip or
    /// moving a weight to another cell — changes the absorbed stream and
    /// so the digest. (`i·n + j < 2³⁰` at [`MAX_BITS`], so the packing
    /// is injective.)
    ///
    /// The construction is BLAKE-inspired but *not* cryptographic
    /// (this crate takes no dependencies): four independently seeded
    /// 64-bit lanes absorb the stream through a splitmix64-style
    /// permutation and are finalised with the absorbed length. It is a
    /// cache/dedup key, not an integrity guarantee.
    ///
    /// Each storage form has its own direct loop over its rows (no
    /// iterator chain per cell), and the lanes stay scalar: see
    /// `ContentLanes` for why.
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut lanes = ContentLanes::new();
        lanes.absorb(self.n as u64);
        match &self.weights {
            Weights::Dense { rows, .. } => lanes.absorb_rows(rows),
            Weights::Sparse { csr, .. } => lanes.absorb_csr(csr),
        }
        lanes.finish()
    }
}

impl fmt::Debug for Qubo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Qubo(n={}, couplers={})", self.n, self.coupler_count())
    }
}

/// 256-bit instance digest returned by [`Qubo::content_hash`].
///
/// Used as the key of the solve server's warm-start cache and for
/// request dedup: equal digests ⇒ same canonical upper triangle (up to
/// the collision resistance of a 256-bit non-cryptographic mix).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash([u64; 4]);

impl ContentHash {
    /// The four 64-bit lanes of the digest.
    #[must_use]
    pub fn as_words(&self) -> [u64; 4] {
        self.0
    }

    /// Lowercase 64-character hex rendering (lane 0 first).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for lane in self.0 {
            for shift in (0..16).rev() {
                let nibble = (lane >> (shift * 4)) & 0xf;
                s.push(char::from_digit(nibble as u32, 16).unwrap_or('0'));
            }
        }
        s
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The digest word of a non-zero cell `W_ij` at flat index `cell =
/// i·n + j`: the index above the weight. The weight widens through `u16`
/// so it occupies exactly the low 16 bits, on every platform.
#[inline]
fn pack(cell: usize, w: i16) -> u64 {
    (cell as u64) << 16 | u64::from(w as u16)
}

/// Four chained 64-bit absorption lanes (the BLAKE-inspired sponge
/// behind [`Qubo::content_hash`]).
///
/// The lanes are four scalar fields, and every absorb step passes each
/// new lane state through [`black_box`]. Each lane is a serial chain of
/// multiplies, and the four chains are independent, so a core overlaps
/// them. Left alone, LLVM's SLP vectorizer packs the four lanes into one
/// vector multiply instead; with `target-cpu=native` on AVX-512DQ that
/// is a `vpmullq` (15-cycle latency) on the serial chain, and the digest
/// ran 2.5–3× slower than the scalar chains. An array-backed state was
/// still packed. The barrier costs one register spill per lane and step
/// and keeps the digest within a small factor of one bare `mix64` chain
/// (`BENCH_ingest.json`).
struct ContentLanes {
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
    absorbed: u64,
}

/// splitmix64 finalisation permutation (Steele et al.); full-avalanche
/// on 64 bits, which is what makes single-weight flips visible in
/// every lane.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ContentLanes {
    /// Distinct lane seeds (digits of φ, π, e, √2) and per-lane odd
    /// multipliers decorrelate the four lanes over the same stream.
    const SEEDS: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0x2430_54a5_4de6_37c7,
        0xadb7_2dbf_5a27_91cd,
        0x6a09_e667_f3bc_c909,
    ];
    const MULS: [u64; 4] = [
        0xff51_afd7_ed55_8ccd,
        0xc4ce_b9fe_1a85_ec53,
        0x9e6c_63d0_876a_8f29,
        0xd6e8_feb8_6659_fd93,
    ];

    fn new() -> Self {
        let [s0, s1, s2, s3] = Self::SEEDS;
        Self {
            s0,
            s1,
            s2,
            s3,
            absorbed: 0,
        }
    }

    /// One lane's absorb step, behind the vectorization barrier.
    #[inline]
    fn step(state: u64, word: u64, mul: u64, absorbed: u64) -> u64 {
        black_box(mix64(state ^ word.wrapping_mul(mul).wrapping_add(absorbed)))
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.absorbed = self.absorbed.wrapping_add(1);
        let k = self.absorbed;
        let [m0, m1, m2, m3] = Self::MULS;
        self.s0 = Self::step(self.s0, word, m0, k);
        self.s1 = Self::step(self.s1, word, m1, k);
        self.s2 = Self::step(self.s2, word, m2, k);
        self.s3 = Self::step(self.s3, word, m3, k);
    }

    fn absorb_all(&mut self, words: &[u64]) {
        words.iter().for_each(|&w| self.absorb(w));
    }

    /// Absorbs the non-zero upper-triangle cells of dense rows, in
    /// row-major order. Whole zero chunks of a padded row are skipped;
    /// pad lanes are zero and never absorbed.
    fn absorb_rows(&mut self, rows: &DenseRows) {
        let n = rows.n;
        for i in 0..n {
            let first = i / ROW_LANE * ROW_LANE;
            let chunks = rows.row_padded(i)[first..].chunks_exact(ROW_LANE);
            for (c, chunk) in chunks.enumerate() {
                if chunk.iter().fold(0, |acc, &w| acc | w) == 0 {
                    continue;
                }
                let j0 = first + c * ROW_LANE;
                for (lane, &w) in chunk.iter().enumerate() {
                    let j = j0 + lane;
                    if w != 0 && j >= i {
                        self.absorb(pack(i * n + j, w));
                    }
                }
            }
        }
    }

    /// Absorbs the non-zero upper-triangle cells of a CSR matrix, in
    /// row-major order: per row the diagonal, then the stored columns
    /// above it.
    ///
    /// G-set rows hold a handful of entries, and per-row search and
    /// loop-exit branches mispredict often enough to cost more than the
    /// absorbs. A row of at most `WINDOW` entries is therefore staged
    /// without branches: every entry of a fixed window from the row's
    /// start is written to a stack buffer, and the stage length moves
    /// past those of the row that lie above the diagonal. The stage is
    /// absorbed when it fills. A longer row, or one too near the end of
    /// the arrays for a full window, is walked directly.
    fn absorb_csr(&mut self, csr: &SparseQubo) {
        const WINDOW: usize = 8;
        let n = csr.n();
        let (row_start, cols, vals) = csr.arrays();
        let mut stage = [0u64; 64];
        let mut len = 0;
        for i in 0..n {
            let (lo, hi) = (row_start[i] as usize, row_start[i + 1] as usize);
            if len + 1 + WINDOW > stage.len() {
                self.absorb_all(&stage[..len]);
                len = 0;
            }
            let d = csr.diag(i);
            stage[len] = pack(i * n + i, d);
            len += usize::from(d != 0);
            match cols.get(lo..lo + WINDOW).zip(vals.get(lo..lo + WINDOW)) {
                Some((c, v)) if hi - lo <= WINDOW => {
                    for t in 0..WINDOW {
                        stage[len] = pack(i * n + c[t] as usize, v[t]);
                        len += usize::from(t < hi - lo && c[t] as usize > i);
                    }
                }
                _ => {
                    self.absorb_all(&stage[..len]);
                    len = 0;
                    let (c, v) = (&cols[lo..hi], &vals[lo..hi]);
                    let above = c.partition_point(|&j| (j as usize) < i);
                    // invariant: above ≤ c.len() = v.len().
                    for (&j, &w) in c[above..].iter().zip(&v[above..]) {
                        self.absorb(pack(i * n + j as usize, w));
                    }
                }
            }
        }
        self.absorb_all(&stage[..len]);
    }

    fn finish(self) -> ContentHash {
        let len = self.absorbed;
        let state = [self.s0, self.s1, self.s2, self.s3];
        ContentHash(std::array::from_fn(|lane| {
            mix64(state[lane] ^ len.wrapping_mul(Self::MULS[lane]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The exact weight matrix of Fig. 1 in the paper (n = 4).
    pub(crate) fn paper_fig1() -> Qubo {
        Qubo::from_rows(
            4,
            &[[-5, 2, 0, 3], [2, -3, 1, 0], [0, 1, -8, 2], [3, 0, 2, -6]],
        )
        .unwrap()
    }

    #[test]
    fn fig1_energies() {
        let q = paper_fig1();
        // E(0000) = 0; single-bit energies are the diagonal.
        assert_eq!(q.energy(&BitVec::from_bit_str("0000").unwrap()), 0);
        assert_eq!(q.energy(&BitVec::from_bit_str("1000").unwrap()), -5);
        assert_eq!(q.energy(&BitVec::from_bit_str("0100").unwrap()), -3);
        assert_eq!(q.energy(&BitVec::from_bit_str("0010").unwrap()), -8);
        assert_eq!(q.energy(&BitVec::from_bit_str("0001").unwrap()), -6);
        // Pairs count the coupler twice.
        assert_eq!(
            q.energy(&BitVec::from_bit_str("1100").unwrap()),
            -5 - 3 + 2 * 2
        );
        // All ones.
        let all = BitVec::from_bit_str("1111").unwrap();
        // Couplers (0,1)=2, (0,3)=3, (1,2)=1, (2,3)=2; (0,2) and (1,3) are 0.
        assert_eq!(q.energy(&all), -5 - 3 - 8 - 6 + 2 * (2 + 3 + 1 + 2));
    }

    #[test]
    fn delta_matches_energy_difference() {
        let q = paper_fig1();
        for bits in 0u32..16 {
            let x = BitVec::from_bits(&[
                (bits & 1) as u8,
                ((bits >> 1) & 1) as u8,
                ((bits >> 2) & 1) as u8,
                ((bits >> 3) & 1) as u8,
            ]);
            for k in 0..4 {
                let expect = q.energy(&x.flipped(k)) - q.energy(&x);
                assert_eq!(q.delta(&x, k), expect, "bits={bits:04b} k={k}");
            }
        }
    }

    #[test]
    fn from_dense_rejects_asymmetry() {
        let err = Qubo::from_dense(2, vec![0, 1, 2, 0]).unwrap_err();
        assert_eq!(err, QuboError::NotSymmetric(0, 1));
    }

    #[test]
    fn from_dense_rejects_bad_shape() {
        let err = Qubo::from_dense(2, vec![0, 1, 1]).unwrap_err();
        assert!(matches!(
            err,
            QuboError::BadShape {
                got: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(Qubo::zero(0).unwrap_err(), QuboError::BadSize(0));
        assert_eq!(
            Qubo::zero(MAX_BITS + 1).unwrap_err(),
            QuboError::BadSize(MAX_BITS + 1)
        );
        assert!(Qubo::zero(MAX_BITS).is_ok());
        assert_eq!(Qubo::default(), Qubo::zero(1).unwrap());
    }

    #[test]
    fn from_triplets_accumulates_and_symmetrizes() {
        let q = Qubo::from_triplets(3, &[(0, 1, 5), (1, 0, 2), (2, 2, -7)]).unwrap();
        assert_eq!(q.get(0, 1), 7);
        assert_eq!(q.get(1, 0), 7);
        assert_eq!(q.diag(2), -7);
        // The dense matrix is the CSR decode, cell for cell.
        let s = SparseQubo::from_triplets(3, &[(0, 1, 7), (2, 2, -7)]).unwrap();
        assert_eq!(q, Qubo::from_sparse(&s));
        assert_eq!(SparseQubo::from_dense(&q), s);
    }

    /// Asserts that two instances agree on every storage-independent
    /// query.
    fn assert_twins(a: &Qubo, b: &Qubo) {
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.coupler_count(), b.coupler_count());
        assert_eq!(a.energy_bound(), b.energy_bound());
        assert_eq!(a.max_abs_weight(), b.max_abs_weight());
        for k in 0..a.n() {
            assert_eq!(a.diag(k), b.diag(k), "diag {k}");
            for j in 0..a.n() {
                assert_eq!(a.get(k, j), b.get(k, j), "W[{k}][{j}]");
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..8 {
            let x = BitVec::random(a.n(), &mut rng);
            assert_eq!(a.energy(&x), b.energy(&x));
            for k in [0, a.n() / 2, a.n() - 1] {
                assert_eq!(a.delta(&x, k), b.delta(&x, k));
            }
        }
    }

    #[test]
    fn csr_and_dense_built_twins_agree_before_and_after_a_set() {
        // Cells on both sides of a ROW_LANE chunk edge, both triangle
        // orders, diagonals at either end.
        let t = [
            (0, 69, 3),
            (33, 33, -2),
            (5, 34, 1),
            (40, 2, -7),
            (69, 69, 4),
        ];
        let csr = Qubo::from_triplets(70, &t).unwrap();
        let mut dense = Qubo::zero(70).unwrap();
        for &(i, j, w) in &t {
            dense.set(i, j, w);
        }
        let dense_bytes = dense.heap_bytes();
        let held = csr.heap_bytes();
        assert!(held < dense_bytes / 4, "CSR-built: {held} bytes");
        assert_twins(&csr, &dense);
        // None of those queries built another form of either twin.
        assert_eq!(csr.heap_bytes(), held);
        assert_eq!(dense.heap_bytes(), dense_bytes);

        // A set densifies the CSR-built twin and keeps them equal.
        let mut edited = csr.clone();
        edited.set(1, 2, 9);
        dense.set(1, 2, 9);
        assert_eq!(edited.heap_bytes(), dense_bytes, "dense rows only");
        assert_twins(&edited, &dense);
        assert_ne!(edited, csr);
        assert_ne!(edited.content_hash(), csr.content_hash());

        // A set drops a derived CSR form, which would be stale.
        assert_eq!(dense.csr().get(3, 4), 0);
        dense.set(3, 4, 5);
        assert_eq!(dense.csr().get(3, 4), 5);
        assert_eq!(**dense.csr(), SparseQubo::from_dense(&dense));
    }

    #[test]
    fn derived_forms_are_built_once_and_counted() {
        let csr = Qubo::from_triplets(40, &[(0, 39, 3), (7, 7, -1)]).unwrap();
        let sparse_only = csr.heap_bytes();
        assert_eq!(sparse_only, csr.csr().heap_bytes());
        let rows = csr.dense();
        assert!(std::ptr::eq(rows, csr.dense()), "memoized");
        assert_eq!(rows.get(39, 0), 3);
        assert_eq!(
            csr.heap_bytes(),
            sparse_only + 40 * rows.stride() * 2 + 2 * (ROW_LANE - 1)
        );

        let mut dense = Qubo::zero(40).unwrap();
        let before = dense.heap_bytes();
        assert!(Arc::ptr_eq(dense.csr(), dense.csr()), "memoized");
        assert_eq!(dense.heap_bytes(), before + dense.csr().heap_bytes());

        // The dense coupler count is scanned once, kept, and dropped by
        // a set, which may change it.
        let held = |q: &Qubo| match &q.weights {
            Weights::Dense { couplers, .. } => couplers.get().copied(),
            Weights::Sparse { .. } => None,
        };
        dense.set(0, 39, 3);
        dense.set(7, 7, -1);
        assert_eq!(held(&dense), None);
        assert_eq!(dense.coupler_count(), 1);
        assert_eq!(held(&dense), Some(1));
        assert_eq!(dense.coupler_count(), 1);
        dense.set(2, 5, 4);
        assert_eq!(held(&dense), None, "dropped by a set");
        assert_eq!(dense.coupler_count(), 2);
        dense.set(0, 39, 0);
        assert_eq!(dense.coupler_count(), 1);
        assert_eq!(held(&dense), Some(1));
    }

    #[test]
    fn from_triplets_detects_overflow() {
        assert_eq!(
            Qubo::from_triplets(2, &[(0, 0, i16::MAX), (0, 0, 1)]).unwrap_err(),
            QuboError::WeightOverflow(0, 0)
        );
    }

    #[test]
    fn from_triplets_rejects_out_of_range() {
        assert_eq!(
            Qubo::from_triplets(2, &[(2, 0, 1)]).unwrap_err(),
            QuboError::IndexOutOfRange(2)
        );
        assert_eq!(
            Qubo::from_triplets(2, &[(0, 5, 1)]).unwrap_err(),
            QuboError::IndexOutOfRange(5)
        );
    }

    #[test]
    fn from_sparse_keeps_the_padding_contract() {
        let s = SparseQubo::from_triplets(40, &[(0, 39, 3), (33, 33, -2), (5, 34, 1)]).unwrap();
        let q = Qubo::from_sparse(&s);
        assert_eq!(q.get(39, 0), 3);
        assert_eq!(q.diag(33), -2);
        for k in 0..40 {
            let padded = q.dense().row_padded(k);
            assert_eq!(padded.as_ptr() as usize % ROW_ALIGN_BYTES, 0);
            assert!(padded[40..].iter().all(|&v| v == 0), "pad not zero");
        }
        assert_eq!(q.coupler_count(), 2);
    }

    #[test]
    fn from_upper_matches_cell_by_cell_sets_across_tile_edges() {
        // 130 spans five mirror tiles per side, the last one partial;
        // 31..=33 and 63..=65 put a partial tile at either side of a
        // tile edge.
        for n in [1, 2, 31, 32, 33, 63, 64, 65, 130] {
            let upper: Vec<i16> = (0..n * (n + 1) / 2)
                .map(|k| (k as i16).wrapping_mul(7919))
                .collect();
            let mut want = Qubo::zero(n).unwrap();
            let mut k = 0;
            for i in 0..n {
                for j in i..n {
                    want.set(i, j, upper[k]);
                    k += 1;
                }
            }
            let q = Qubo::from_upper(n, &upper).unwrap();
            assert!(q == want, "n = {n}");
            for k in 0..n {
                assert!(
                    q.dense().row_padded(k)[n..].iter().all(|&v| v == 0),
                    "pad not zero"
                );
            }
        }
        assert_eq!(
            Qubo::from_upper(3, &[1, 2, 3]).unwrap_err(),
            QuboError::BadShape {
                got: 3,
                expected: 6
            }
        );
        assert_eq!(Qubo::from_upper(0, &[]).unwrap_err(), QuboError::BadSize(0));
    }

    #[test]
    fn random_keeps_the_row_major_draw_order() {
        // The strided fill `Qubo::random` used before the tiled mirror:
        // same RNG draws, same cells, so seeded instances (and their
        // content hashes) are unchanged.
        for n in [5, 64, 97] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut want = Qubo::zero(n).unwrap();
            for i in 0..n {
                for j in i..n {
                    want.set(i, j, rng.gen());
                }
            }
            let q = Qubo::random(n, &mut StdRng::seed_from_u64(n as u64));
            assert!(q == want, "n = {n}");
        }
    }

    #[test]
    fn row_nonzeros_skips_zero_chunks_and_honours_from() {
        let mut q = Qubo::zero(100).unwrap();
        q.set(3, 3, 4);
        q.set(3, 31, -1);
        q.set(3, 32, 2);
        q.set(3, 99, 7);
        let all: Vec<_> = q.dense().row_nonzeros(3, 0).collect();
        assert_eq!(all, vec![(3, 4), (31, -1), (32, 2), (99, 7)]);
        let tail: Vec<_> = q.dense().row_nonzeros(3, 32).collect();
        assert_eq!(tail, vec![(32, 2), (99, 7)]);
        assert_eq!(q.dense().row_nonzeros(0, 0).count(), 0);
        assert_eq!(q.dense().row_nonzeros(99, 99).count(), 0);
    }

    #[test]
    fn random_is_symmetric_and_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Qubo::random(50, &mut r1);
        let b = Qubo::random(50, &mut r2);
        assert_eq!(a, b);
        for i in 0..50 {
            for j in 0..50 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn energy_bound_bounds_all_energies() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = Qubo::random(8, &mut rng);
        let bound = q.energy_bound();
        for bits in 0u32..256 {
            let x = BitVec::from_bits(&(0..8).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            assert!(q.energy(&x).abs() <= bound);
        }
    }

    #[test]
    fn row_is_contiguous_view() {
        let q = paper_fig1();
        assert_eq!(q.dense().row(2), &[0, 1, -8, 2]);
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1, 4, 31, 32, 33, 100] {
            let q = Qubo::random(n, &mut rng);
            assert_eq!(q.dense().stride() % ROW_LANE, 0);
            assert!(q.dense().stride() >= n && q.dense().stride() < n + ROW_LANE);
            for k in 0..n {
                let padded = q.dense().row_padded(k);
                assert_eq!(padded.as_ptr() as usize % ROW_ALIGN_BYTES, 0, "n={n} k={k}");
                assert_eq!(padded.len(), q.dense().stride());
                assert_eq!(&padded[..n], q.dense().row(k));
                assert!(padded[n..].iter().all(|&v| v == 0), "pad not zero");
            }
        }
    }

    #[test]
    fn clone_and_eq_are_logical() {
        let mut rng = StdRng::seed_from_u64(12);
        let q = Qubo::random(33, &mut rng);
        let c = q.clone();
        assert_eq!(q, c);
        // The clone is re-aligned, so its rows satisfy the same
        // alignment contract regardless of the new allocation address.
        for k in 0..33 {
            assert_eq!(
                c.dense().row_padded(k).as_ptr() as usize % ROW_ALIGN_BYTES,
                0
            );
        }
        let mut d = q.clone();
        d.set(0, 1, i16::MAX);
        assert_ne!(q, d);
    }

    #[test]
    fn delta_bound_bounds_all_deltas() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = Qubo::random(8, &mut rng);
        let bound = crate::InstanceStats::of(&q).max_abs_delta;
        for bits in 0u32..256 {
            let x = BitVec::from_bits(&(0..8).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            for k in 0..8 {
                assert!(q.delta(&x, k).abs() <= bound, "bits={bits:08b} k={k}");
            }
        }
        assert!(bound <= 2 * 8 * q.max_abs_weight());
    }

    #[test]
    fn delta_bound_is_tight_on_fig1() {
        // Row 3 of Fig. 1: |−6| + 2·(3 + 0 + 2) = 16; rows 0–2 give
        // 15, 9, 14 — the max is 16.
        let q = paper_fig1();
        assert_eq!(crate::InstanceStats::of(&q).max_abs_delta, 16);
        assert_eq!(q.max_abs_weight(), 8);
    }

    #[test]
    fn content_hash_is_canonical_over_logical_equality() {
        // Two construction paths for the same instance (dense rows vs
        // triplets) must digest identically: the hash reads the
        // canonical upper triangle, never the physical layout.
        let q = paper_fig1();
        let mut triplets = Vec::new();
        for i in 0..4 {
            for j in i..4 {
                triplets.push((i, j, q.get(i, j)));
            }
        }
        let twin = Qubo::from_triplets(4, &triplets).unwrap();
        assert_eq!(q, twin);
        assert_eq!(q.content_hash(), twin.content_hash());
        assert_eq!(q.content_hash().to_hex().len(), 64);
    }

    #[test]
    fn content_hash_absorbs_positions_not_just_weights() {
        // The stream is one packed word per non-zero cell, so a weight
        // that moves, or a zero that becomes non-zero, changes it.
        let mut a = Qubo::zero(40).unwrap();
        a.set(1, 2, 5);
        let mut moved = Qubo::zero(40).unwrap();
        moved.set(1, 3, 5);
        let mut extra = a.clone();
        extra.set(39, 39, 1);
        let h = a.content_hash();
        assert_ne!(h, moved.content_hash());
        assert_ne!(h, extra.content_hash());
        // The packing keys cells by `i·n + j`: the same (i, j, w) in a
        // different n must not collide either.
        let mut b = Qubo::zero(41).unwrap();
        b.set(1, 2, 5);
        assert_ne!(h, b.content_hash());
    }

    #[test]
    fn content_hash_separates_mutations_and_sizes() {
        let mut rng = StdRng::seed_from_u64(9);
        let q = Qubo::random(16, &mut rng);
        let base = q.content_hash();
        // Same n, one weight nudged: must miss (the staleness
        // regression the warm-start cache depends on).
        let mut mutated = q.clone();
        mutated.set(3, 7, mutated.get(3, 7).wrapping_add(1));
        assert_ne!(base, mutated.content_hash());
        // Diagonal-only mutation too.
        let mut diag = q.clone();
        diag.set(5, 5, diag.get(5, 5).wrapping_add(1));
        assert_ne!(base, diag.content_hash());
        // Different n, all-zero weights: n itself is absorbed.
        assert_ne!(
            Qubo::zero(4).unwrap().content_hash(),
            Qubo::zero(5).unwrap().content_hash()
        );
        // -1 must not collide with a large positive weight.
        let mut neg = Qubo::zero(2).unwrap();
        neg.set(0, 1, -1);
        let mut pos = Qubo::zero(2).unwrap();
        pos.set(0, 1, i16::MAX);
        assert_ne!(neg.content_hash(), pos.content_hash());
    }

    /// A CSR-built Max-Cut stand-in in the G-set mould: `n` vertices,
    /// `m` random ±1 edges, `W_uv = w` and `−w` on both diagonals.
    fn gset_stand_in(n: usize, m: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Vec::with_capacity(3 * m);
        while t.len() < 3 * m {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let w = if rng.gen::<bool>() { 1 } else { -1 };
            if u != v {
                t.extend([(u, v, w), (u, u, -w), (v, v, -w)]);
            }
        }
        Qubo::from_triplets(n, &t).unwrap()
    }

    #[test]
    fn content_hash_matches_its_golden_values() {
        // Pinned digests: the warm-start cache and the end-to-end bench's
        // input fingerprints key on these, so a change to the canonical
        // stream, the lane constants or the absorb order shows up here.
        let cases = [
            (
                "fig1",
                paper_fig1(),
                "8a1e1f55348af4ed012aa6e8045d82552ef5e0bd56adf1852332fc64d05ed720",
            ),
            (
                "random-64",
                Qubo::random(64, &mut StdRng::seed_from_u64(64)),
                "5706f045e21d262d4d37762ccfa85e89903650789f2f92d957c588976265dab8",
            ),
            (
                "random-1024",
                Qubo::random(1024, &mut StdRng::seed_from_u64(1024)),
                "01d7af132d552eadb006ef187ff28f4872d009c5348b076f7c27264ce543bf3b",
            ),
            (
                "gset-stand-in",
                gset_stand_in(800, 2400, 55),
                "1463cc3b4e8c1eed5598a54cfde2116e9cf3baf71e667b6cc0c4f0b0bd4b24be",
            ),
            (
                "zero-1",
                Qubo::zero(1).unwrap(),
                "ff07610740843fe48fdbee149708b3acb36f528710e9284f4e39d43d87158fe2",
            ),
        ];
        for (name, q, want) in cases {
            assert_eq!(q.content_hash().to_hex(), want, "{name}");
        }
    }

    #[test]
    fn csr_and_dense_digests_agree_at_every_row_length() {
        // Rows from empty to well past the CSR arm's staging window, zero
        // and non-zero diagonals, and the last rows of the arrays (where
        // a full window runs off their end).
        let mut rng = StdRng::seed_from_u64(21);
        for per_mille in [20, 100, 250, 600, 1000] {
            let n = 45;
            let mut t = Vec::new();
            let mut dense = Qubo::zero(n).unwrap();
            for i in 0..n {
                for j in i..n {
                    if rng.gen_range(0..1000) < per_mille {
                        let w = rng.gen_range(1..=9) * if rng.gen::<bool>() { 1 } else { -1 };
                        t.push(if rng.gen::<bool>() {
                            (i, j, w)
                        } else {
                            (j, i, w)
                        });
                        dense.set(i, j, w);
                    }
                }
            }
            let csr = Qubo::from_triplets(n, &t).unwrap();
            assert_eq!(csr.content_hash(), dense.content_hash(), "{per_mille}‰");
            assert_twins(&csr, &dense);
        }
    }

    #[test]
    fn content_hash_is_stable_across_calls_and_hex_round_trips() {
        let mut rng = StdRng::seed_from_u64(11);
        let q = Qubo::random(32, &mut rng);
        let h = q.content_hash();
        assert_eq!(h, q.content_hash());
        assert_eq!(h, q.clone().content_hash());
        let hex = h.to_hex();
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{h}"), hex);
        assert_eq!(format!("{h:?}"), format!("ContentHash({hex})"));
    }
}

//! Dense symmetric QUBO weight matrices.

use crate::bitvec::BitVec;
use crate::energy::phi;
use crate::sparse::SparseQubo;
use crate::MAX_BITS;
use rand::Rng;
use std::fmt;

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
/// triangle in: a 64 × 64 tile of `i16` reads 64 row segments of two
/// cache lines each and writes as many, well inside L1.
const MIRROR_TILE: usize = 64;

/// Checks a problem size against the supported range `1..=MAX_BITS`.
pub(crate) fn check_size(n: usize) -> Result<(), QuboError> {
    if n == 0 || n > MAX_BITS {
        return Err(QuboError::BadSize(n));
    }
    Ok(())
}

/// Allocates a zeroed padded backing buffer for an `n`-bit problem:
/// `(stride, element offset of row 0, buffer)`. The buffer is
/// over-allocated by `ROW_LANE − 1` elements so the offset can align
/// row 0 to [`ROW_ALIGN_BYTES`] without unsafe allocation APIs.
fn padded_alloc(n: usize) -> (usize, usize, Box<[i16]>) {
    let stride = n.div_ceil(ROW_LANE) * ROW_LANE;
    let w = vec![0i16; n * stride + ROW_LANE - 1].into_boxed_slice();
    // `Box<[i16]>` is at least 2-byte aligned, so the byte remainder is
    // even and the element offset lands in 0..ROW_LANE.
    let addr = w.as_ptr() as usize;
    let off = ((ROW_ALIGN_BYTES - addr % ROW_ALIGN_BYTES) % ROW_ALIGN_BYTES) / 2;
    (stride, off, w)
}

/// An instance of a QUBO problem: an `n × n` symmetric matrix of 16-bit
/// weights `W = (W_ij)`, stored dense row-major.
///
/// The objective is to find an `n`-bit vector `X` minimizing
/// `E(X) = Xᵀ W X = Σ_{i,j} W_ij x_i x_j` (Eq. (1)).
///
/// The dense layout mirrors the GPU global-memory layout in the paper:
/// the hot operation of the incremental search is reading one full row
/// `W_k` contiguously (symmetry makes the column `W_{·k}` equal to the
/// row `W_{k·}`). Deviating from the paper's plain `n × n` square, rows
/// are stored at a stride rounded up to [`ROW_LANE`] elements with row 0
/// aligned to [`ROW_ALIGN_BYTES`]; the padding tail of every row is
/// zero. [`Qubo::row`] still returns exactly the `n` logical weights,
/// while [`Qubo::row_padded`] exposes the full stride for lane-wise
/// kernels (see DESIGN.md: zero pad weights contribute nothing to any
/// Δ, so Lemmas 1–3 accounting is unchanged).
pub struct Qubo {
    n: usize,
    /// Elements between consecutive row starts (`ROW_LANE` multiple).
    stride: usize,
    /// Element offset of row 0 inside `w` (aligns row 0 to 64 bytes).
    off: usize,
    w: Box<[i16]>,
}

impl Clone for Qubo {
    fn clone(&self) -> Self {
        // A fresh allocation lands at a different address, so the
        // aligning offset must be recomputed and rows re-copied; a
        // derived byte-for-byte clone would silently misalign.
        let (stride, off, mut w) = padded_alloc(self.n);
        for k in 0..self.n {
            let base = off + k * stride;
            w[base..base + self.n].copy_from_slice(self.row(k));
        }
        Self {
            n: self.n,
            stride,
            off,
            w,
        }
    }
}

impl PartialEq for Qubo {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: the aligning offset (and thus the slack
        // region) differs between allocations of equal problems.
        self.n == other.n && (0..self.n).all(|k| self.row(k) == other.row(k))
    }
}

impl Eq for Qubo {}

impl Default for Qubo {
    /// The 1-bit all-zero instance: the smallest valid problem, for
    /// placeholders that must hold some matrix.
    fn default() -> Self {
        Self::fill_upper(1, |_| {})
    }
}

impl Qubo {
    /// Creates a QUBO with all-zero weights.
    ///
    /// # Errors
    /// Returns [`QuboError::BadSize`] if `n == 0` or `n > MAX_BITS`.
    pub fn zero(n: usize) -> Result<Self, QuboError> {
        check_size(n)?;
        let (stride, off, w) = padded_alloc(n);
        Ok(Self { n, stride, off, w })
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
        let mut q = Self::zero(n)?;
        for k in 0..n {
            let base = q.off + k * q.stride;
            q.w[base..base + n].copy_from_slice(&w[k * n..(k + 1) * n]);
        }
        Ok(q)
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

    /// Densifies a CSR instance: one zeroed padded allocation, then one
    /// write per stored entry — O(nnz) work on top of the allocation,
    /// whose untouched pages stay zero.
    #[must_use]
    pub fn from_sparse(s: &SparseQubo) -> Self {
        // A `SparseQubo` only exists for sizes in 1..=MAX_BITS, so no
        // size check is needed here.
        let n = s.n();
        let (stride, off, w) = padded_alloc(n);
        let mut q = Self { n, stride, off, w };
        for i in 0..n {
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

    /// Builds an instance from `(i, j, w)` triplets with the
    /// [`SparseQubo::from_triplets`] semantics: either triangle order,
    /// duplicates summed, an accumulated weight outside `i16` reported
    /// as [`QuboError::WeightOverflow`] at its first cell in row-major
    /// order. Memory stays O(nnz) until the dense matrix itself is
    /// allocated.
    ///
    /// # Errors
    /// As [`SparseQubo::from_triplets`].
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, i16)]) -> Result<Self, QuboError> {
        SparseQubo::from_triplets(n, triplets).map(|s| Self::from_sparse(&s))
    }

    /// Builds an instance from the row-major upper triangle of `W`
    /// (diagonal included, `n·(n+1)/2` weights): each row's upper part
    /// is copied in whole, then the lower triangle is mirrored in
    /// 64 × 64 tiles so both the reads and the strided writes stay
    /// cache-resident.
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
        Ok(Self::fill_upper(n, |row| {
            let (head, tail) = rest.split_at(row.len());
            row.copy_from_slice(head);
            rest = tail;
        }))
    }

    /// Allocates an `n`-bit instance (`n` already checked), lets `fill`
    /// write each row's upper part `W_i,i..n` in row order, and
    /// mirrors the lower triangle from it.
    fn fill_upper(n: usize, mut fill: impl FnMut(&mut [i16])) -> Self {
        let (stride, off, w) = padded_alloc(n);
        let mut q = Self { n, stride, off, w };
        for i in 0..n {
            let (a, b) = (q.idx(i, i), q.idx(i, n));
            fill(&mut q.w[a..b]);
        }
        for ti in (0..n).step_by(MIRROR_TILE) {
            for tj in (ti..n).step_by(MIRROR_TILE) {
                for i in ti..(ti + MIRROR_TILE).min(n) {
                    for j in tj.max(i + 1)..(tj + MIRROR_TILE).min(n) {
                        let v = q.w[q.idx(i, j)];
                        let d = q.idx(j, i);
                        q.w[d] = v;
                    }
                }
            }
        }
        q
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
        Self::fill_upper(n, |row| row.iter_mut().for_each(|v| *v = rng.gen()))
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
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i16 {
        self.w[self.idx(i, j)]
    }

    /// Sets `W_ij` and `W_ji` simultaneously, keeping the matrix symmetric.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i16) {
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
    /// [`Qubo::stride`], starting on a [`ROW_ALIGN_BYTES`] boundary.
    /// Lane-wise kernels read this so fixed-width chunks never straddle
    /// a row; the pad weights are zero and contribute nothing to any Δ.
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

    /// Number of non-zero off-diagonal couplers `(i < j)`.
    #[must_use]
    pub fn coupler_count(&self) -> usize {
        (0..self.n)
            .map(|i| self.row_nonzeros(i, i + 1).count())
            .sum()
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

    /// Reference energy function `E(X) = Σ_{i,j} W_ij x_i x_j` (Eq. (1)).
    ///
    /// O(|ones|²) — used for initialization, verification, and as the
    /// "naive" cost model; the incremental search never calls it.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
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

    /// Reference `Δ_k(X) = E(flip_k(X)) − E(X)` computed directly from
    /// Eq. (4): `Δ_k = φ(x_k)·(2·Σ_{i≠k} W_ki x_i + W_kk)`. O(n).
    ///
    /// # Panics
    /// Panics if `x.len() != n` or `k >= n`.
    #[must_use]
    pub fn delta(&self, x: &BitVec, k: usize) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        assert!(k < self.n, "bit index out of range");
        let row = self.row(k);
        let mut s = 0i64;
        for i in x.iter_ones() {
            if i != k {
                s += i64::from(row[i]);
            }
        }
        i64::from(phi(x.get(k))) * (2 * s + i64::from(self.diag(k)))
    }

    /// A conservative bound on `|E(X)|` over all `X`, useful for sizing
    /// penalty weights: `Σ_{i,j} |W_ij|`.
    #[must_use]
    pub fn energy_bound(&self) -> i64 {
        self.w.iter().map(|&v| i64::from(v).abs()).sum()
    }

    /// The largest absolute weight `max |W_ij|`.
    #[must_use]
    pub fn max_abs_weight(&self) -> i64 {
        self.w
            .iter()
            .map(|&v| i64::from(v).abs())
            .max()
            .unwrap_or(0)
    }

    /// 256-bit content digest over the *canonical* form of the
    /// instance: `n`, then one packed word `(i·n + j) << 16 | (W_ij as
    /// u16)` per non-zero upper-triangle cell `W_ij (i ≤ j)` in
    /// row-major order. Zero cells are implied by their absence, so the
    /// digest costs a chunked zero scan plus O(non-zeros) absorptions.
    /// Padding, stride and storage tier never enter the digest, so two
    /// logically equal instances always hash equal regardless of how
    /// they were built; any single-weight change — including a zero ↔
    /// non-zero flip or moving a weight to another cell — changes the
    /// absorbed stream and so the digest. (`i·n + j < 2³⁰` at
    /// [`MAX_BITS`], so the packing is injective.)
    ///
    /// The construction is BLAKE-inspired but *not* cryptographic
    /// (this crate takes no dependencies): four independently seeded
    /// 64-bit lanes absorb the stream through a splitmix64-style
    /// permutation and are finalised with the absorbed length. It is a
    /// cache/dedup key, not an integrity guarantee.
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut lanes = ContentLanes::new();
        lanes.absorb(self.n as u64);
        for i in 0..self.n {
            for (j, w) in self.row_nonzeros(i, i) {
                // Widen through u16 so the weight occupies exactly the
                // low 16 bits, deterministically on every platform.
                let cell = (i * self.n + j) as u64;
                lanes.absorb(cell << 16 | u64::from(w as u16));
            }
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

/// Four chained 64-bit absorption lanes (the BLAKE-inspired sponge
/// behind [`Qubo::content_hash`]).
struct ContentLanes {
    state: [u64; 4],
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
        Self {
            state: Self::SEEDS,
            absorbed: 0,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.absorbed = self.absorbed.wrapping_add(1);
        for lane in 0..4 {
            let keyed = word
                .wrapping_mul(Self::MULS[lane])
                .wrapping_add(self.absorbed);
            self.state[lane] = mix64(self.state[lane] ^ keyed);
        }
    }

    fn finish(mut self) -> ContentHash {
        let len = self.absorbed;
        for lane in 0..4 {
            self.state[lane] = mix64(self.state[lane] ^ len.wrapping_mul(Self::MULS[lane]));
        }
        ContentHash(self.state)
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
            let padded = q.row_padded(k);
            assert_eq!(padded.as_ptr() as usize % ROW_ALIGN_BYTES, 0);
            assert!(padded[40..].iter().all(|&v| v == 0), "pad not zero");
        }
        assert_eq!(q.coupler_count(), 2);
    }

    #[test]
    fn from_upper_matches_cell_by_cell_sets_across_tile_edges() {
        // 130 spans three mirror tiles per side, the last one partial.
        for n in [1, 2, 63, 64, 65, 130] {
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
                assert!(q.row_padded(k)[n..].iter().all(|&v| v == 0), "pad not zero");
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
        let all: Vec<_> = q.row_nonzeros(3, 0).collect();
        assert_eq!(all, vec![(3, 4), (31, -1), (32, 2), (99, 7)]);
        let tail: Vec<_> = q.row_nonzeros(3, 32).collect();
        assert_eq!(tail, vec![(32, 2), (99, 7)]);
        assert_eq!(q.row_nonzeros(0, 0).count(), 0);
        assert_eq!(q.row_nonzeros(99, 99).count(), 0);
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
        assert_eq!(q.row(2), &[0, 1, -8, 2]);
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1, 4, 31, 32, 33, 100] {
            let q = Qubo::random(n, &mut rng);
            assert_eq!(q.stride() % ROW_LANE, 0);
            assert!(q.stride() >= n && q.stride() < n + ROW_LANE);
            for k in 0..n {
                let padded = q.row_padded(k);
                assert_eq!(padded.as_ptr() as usize % ROW_ALIGN_BYTES, 0, "n={n} k={k}");
                assert_eq!(padded.len(), q.stride());
                assert_eq!(&padded[..n], q.row(k));
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
            assert_eq!(c.row_padded(k).as_ptr() as usize % ROW_ALIGN_BYTES, 0);
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

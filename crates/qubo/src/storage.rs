//! Matrix storage forms and the density-based dispatch between them.
//!
//! The paper's GPU kernel streams dense rows unconditionally — the right
//! call when 1024 threads amortize the O(n) traversal. This CPU
//! reproduction instead carries *two* first-class storage arms:
//!
//! * **Dense** — the padded row-major [`crate::DenseRows`] behind the
//!   SIMD flip tier (O(n) per flip, lane-parallel).
//! * **Sparse** — the CSR [`SparseQubo`] behind the O(degree) flip tier.
//!
//! A [`Qubo`] holds whichever form its constructor received and derives
//! the other on first use, so the dispatch picks a form rather than
//! converting one.
//!
//! [`MatrixStorage`] is the runtime tag naming the arm a search actually
//! ran on. Like `FlipKernel` in `qubo_search`, the chosen arm is recorded
//! in device global memory and exposed as the `abs_matrix_storage` info
//! gauge; `ABS_FORCE_DENSE` / `ABS_FORCE_SPARSE` pin the dispatch for CI
//! and debugging. The default decision compares the instance's coupler
//! density against [`SPARSE_DENSITY_PER_MILLE`], the crossover measured
//! by the `sparse_vs_dense` benchmark (BENCH_sparse.json).
//!
//! [`CouplingMatrix`] is the read-only interface the two forms share —
//! everything the dispatcher (and storage-generic test/bench code) needs
//! without committing to a layout.

use crate::bitvec::BitVec;
use crate::energy::Energy;
use crate::matrix::Qubo;
use crate::sparse::SparseQubo;
use std::sync::OnceLock;

/// Read-only view of a symmetric QUBO coupling matrix, shared by the
/// dense ([`Qubo`]) and CSR ([`SparseQubo`]) storage forms.
///
/// This is the layout-independent surface: size, coupler census (for the
/// density dispatch), the diagonal (`Δ_k(0)`), and the reference energy.
/// The *hot* per-flip row access stays on the concrete types — the dense
/// SIMD arms and the CSR O(degree) arm have deliberately different row
/// shapes, and forcing them through one virtual scan would cost the
/// dense path its codegen.
pub trait CouplingMatrix {
    /// Number of bits (variables) `n`.
    fn n(&self) -> usize;

    /// Number of non-zero off-diagonal couplers, counting each `{i, j}`
    /// pair once. Costs a chunked scan of dense rows (O(n²/32) plus the
    /// non-zeros) and O(1) on CSR; called once per dispatch, never per
    /// flip.
    fn couplers(&self) -> usize;

    /// Diagonal weight `W_kk`.
    fn diag(&self, k: usize) -> i16;

    /// Reference energy `E(X) = Xᵀ W X` (Eq. (1)).
    fn energy(&self, x: &BitVec) -> Energy;

    /// Coupler density in per-mille of the full upper triangle
    /// (`couplers / (n·(n−1)/2) × 1000`), in integer arithmetic so the
    /// device-side dispatch stays float-free. `1000` for `n ≤ 1`.
    fn density_per_mille(&self) -> u64 {
        let n = self.n() as u64;
        let pairs = n * (n - 1) / 2;
        if pairs == 0 {
            return 1000;
        }
        (self.couplers() as u64).saturating_mul(1000) / pairs
    }
}

impl CouplingMatrix for Qubo {
    fn n(&self) -> usize {
        Qubo::n(self)
    }

    fn couplers(&self) -> usize {
        self.coupler_count()
    }

    fn diag(&self, k: usize) -> i16 {
        Qubo::diag(self, k)
    }

    fn energy(&self, x: &BitVec) -> Energy {
        Qubo::energy(self, x)
    }
}

impl CouplingMatrix for SparseQubo {
    fn n(&self) -> usize {
        SparseQubo::n(self)
    }

    fn couplers(&self) -> usize {
        // CSR stores both triangles; each coupler appears twice.
        self.nnz() / 2
    }

    fn diag(&self, k: usize) -> i16 {
        SparseQubo::diag(self, k)
    }

    fn energy(&self, x: &BitVec) -> Energy {
        SparseQubo::energy(self, x)
    }
}

/// Densities at or below this many per-mille of the full upper triangle
/// dispatch to the CSR arm.
///
/// The crossover measured in BENCH_sparse.json (n = 4096, window n/8)
/// puts the O(degree) tier ahead of the dense SIMD tier well past 5 %
/// density; 20 ‰ (2 %) leaves a safety margin for instances whose degree
/// distribution is skewed (a few dense rows pay O(max-degree), not
/// O(avg-degree), on every hit).
pub const SPARSE_DENSITY_PER_MILLE: u64 = 20;

/// The matrix storage arm a search runs on. Recorded per device in
/// global memory (like the flip kernel) and reported through the
/// `abs_matrix_storage` info gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MatrixStorage {
    /// Dense padded rows — the SIMD flip tier's O(n) row stream.
    Dense = 1,
    /// Compressed sparse rows — the O(degree) flip tier.
    Sparse = 2,
}

impl MatrixStorage {
    /// Stable lowercase name for reports and metric labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
        }
    }

    /// Wire encoding for the global-memory slot (`0` is reserved for
    /// "unset": no dispatch recorded yet).
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes [`MatrixStorage::as_u8`]; `None` for `0` ("unset") or any
    /// unknown value.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Dense),
            2 => Some(Self::Sparse),
            _ => None,
        }
    }

    /// The arm pinned by the environment, if any: a non-empty
    /// `ABS_FORCE_DENSE` pins dense, a non-empty `ABS_FORCE_SPARSE` pins
    /// sparse; dense wins when both are set. Cached for the process
    /// lifetime (same contract as `ABS_FORCE_SCALAR`).
    #[must_use]
    pub fn forced() -> Option<Self> {
        static FORCED: OnceLock<Option<MatrixStorage>> = OnceLock::new();
        *FORCED.get_or_init(|| {
            let set = |k: &str| std::env::var_os(k).is_some_and(|v| !v.is_empty());
            if set("ABS_FORCE_DENSE") {
                Some(MatrixStorage::Dense)
            } else if set("ABS_FORCE_SPARSE") {
                Some(MatrixStorage::Sparse)
            } else {
                None
            }
        })
    }

    /// Picks the storage arm for one instance: the forced arm if pinned,
    /// else CSR when the measured coupler density is at or below
    /// [`SPARSE_DENSITY_PER_MILLE`].
    #[must_use]
    pub fn select<M: CouplingMatrix + ?Sized>(m: &M) -> Self {
        if let Some(f) = Self::forced() {
            return f;
        }
        if m.density_per_mille() <= SPARSE_DENSITY_PER_MILLE {
            Self::Sparse
        } else {
            Self::Dense
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_and_wire_encoding_roundtrip() {
        assert_eq!(MatrixStorage::Dense.name(), "dense");
        assert_eq!(MatrixStorage::Sparse.name(), "sparse");
        for s in [MatrixStorage::Dense, MatrixStorage::Sparse] {
            assert_eq!(MatrixStorage::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(MatrixStorage::from_u8(0), None); // reserved "unset"
        assert_eq!(MatrixStorage::from_u8(9), None);
    }

    #[test]
    fn density_is_integer_per_mille_over_the_upper_triangle() {
        // 4 bits, couplers (0,1) and (2,3): 2 of 6 pairs = 333 ‰.
        let s = SparseQubo::from_triplets(4, &[(0, 1, 5), (2, 3, -1)]).unwrap();
        assert_eq!(s.couplers(), 2);
        assert_eq!(s.density_per_mille(), 333);
        // The dense view of the same instance agrees.
        let mut q = Qubo::zero(4).unwrap();
        q.set(0, 1, 5);
        q.set(2, 3, -1);
        assert_eq!(q.couplers(), 2);
        assert_eq!(q.density_per_mille(), 333);
        // Degenerate 1-bit instance counts as fully dense.
        let one = Qubo::zero(1).unwrap();
        assert_eq!(one.density_per_mille(), 1000);
    }

    #[test]
    fn dispatch_follows_the_density_threshold() {
        // A full random matrix is dense; a near-empty one is sparse.
        // (`select` honours the env pins, so only assert the threshold
        // branch when no pin is active — the forced-arm CI runs set one.)
        if MatrixStorage::forced().is_some() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(1);
        let q = Qubo::random(64, &mut rng);
        assert!(q.density_per_mille() > SPARSE_DENSITY_PER_MILLE);
        assert_eq!(MatrixStorage::select(&q), MatrixStorage::Dense);

        let mut s = Qubo::zero(64).unwrap();
        s.set(0, 1, 3);
        assert!(CouplingMatrix::density_per_mille(&s) <= SPARSE_DENSITY_PER_MILLE);
        assert_eq!(MatrixStorage::select(&s), MatrixStorage::Sparse);
    }

    #[test]
    fn dense_and_sparse_views_agree_through_the_trait() {
        let s = SparseQubo::from_triplets(5, &[(0, 2, 7), (1, 1, -4), (3, 4, 2)]).unwrap();
        let mut q = Qubo::zero(5).unwrap();
        q.set(0, 2, 7);
        q.set(1, 1, -4);
        q.set(3, 4, 2);
        assert_eq!(CouplingMatrix::n(&s), CouplingMatrix::n(&q));
        assert_eq!(s.couplers(), q.couplers());
        for k in 0..5 {
            assert_eq!(CouplingMatrix::diag(&s, k), CouplingMatrix::diag(&q, k));
        }
        let x = BitVec::from_bit_str("10101").unwrap();
        assert_eq!(
            CouplingMatrix::energy(&s, &x),
            CouplingMatrix::energy(&q, &x)
        );
    }
}

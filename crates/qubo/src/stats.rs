//! Instance statistics: density, weight distribution, structure.

use crate::matrix::Qubo;

/// Summary statistics of a QUBO instance, as printed by `abs-cli info`
/// and used by the benchmark reports to characterize workloads.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// Problem size in bits.
    pub bits: usize,
    /// Non-zero off-diagonal couplers (i < j).
    pub couplers: usize,
    /// Coupler density: couplers / (n·(n−1)/2).
    pub density: f64,
    /// Non-zero diagonal entries.
    pub diagonals: usize,
    /// Minimum weight anywhere in the matrix.
    pub min_weight: i16,
    /// Maximum weight anywhere in the matrix.
    pub max_weight: i16,
    /// Mean of the non-zero weights (couplers and diagonal, couplers
    /// counted once).
    pub mean_nonzero: f64,
    /// Upper bound on |E(X)| (`Σ|W_ij|` over the full square).
    pub energy_bound: i64,
    /// Bound on the absolute Δ over all single flips from anywhere:
    /// `max_k (2·Σ_{i≠k} |W_ki| + |W_kk|)` — useful for sizing SA
    /// temperatures. Never above `32 768 · 65 535`, the bound the crate
    /// root asserts inside `i32` for every supported size.
    pub max_abs_delta: i64,
}

impl InstanceStats {
    /// Computes statistics for an instance. O(n²) over the dense rows
    /// ([`Qubo::dense`]).
    #[must_use]
    pub fn of(q: &Qubo) -> Self {
        let rows = q.dense();
        let n = q.n();
        let mut couplers = 0usize;
        let mut diagonals = 0usize;
        let mut min_w = i16::MAX;
        let mut max_w = i16::MIN;
        let mut sum_nonzero = 0i64;
        let mut count_nonzero = 0u64;
        let mut max_abs_delta = 0i64;
        for i in 0..n {
            let row = rows.row(i);
            let mut row_abs = 0i64;
            for (j, &w) in row.iter().enumerate() {
                min_w = min_w.min(w);
                max_w = max_w.max(w);
                if j != i {
                    row_abs += i64::from(w).abs();
                }
                if w != 0 {
                    if j == i {
                        diagonals += 1;
                        sum_nonzero += i64::from(w);
                        count_nonzero += 1;
                    } else if j > i {
                        couplers += 1;
                        sum_nonzero += i64::from(w);
                        count_nonzero += 1;
                    }
                }
            }
            max_abs_delta = max_abs_delta.max(2 * row_abs + i64::from(q.diag(i)).abs());
        }
        let pairs = n * n.saturating_sub(1) / 2;
        Self {
            bits: n,
            couplers,
            density: if pairs == 0 {
                0.0
            } else {
                couplers as f64 / pairs as f64
            },
            diagonals,
            min_weight: min_w,
            max_weight: max_w,
            mean_nonzero: if count_nonzero == 0 {
                0.0
            } else {
                sum_nonzero as f64 / count_nonzero as f64
            },
            energy_bound: q.energy_bound(),
            max_abs_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_of_a_small_instance() {
        let q = Qubo::from_rows(3, &[[-5, 2, 0], [2, 0, -1], [0, -1, 7]]).unwrap();
        let s = InstanceStats::of(&q);
        assert_eq!(s.bits, 3);
        assert_eq!(s.couplers, 2); // (0,1) and (1,2)
        assert_eq!(s.diagonals, 2); // -5 and 7
        assert!((s.density - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min_weight, -5);
        assert_eq!(s.max_weight, 7);
        // mean over {-5, 2, -1, 7} = 0.75
        assert!((s.mean_nonzero - 0.75).abs() < 1e-12);
        assert_eq!(s.energy_bound, 5 + 2 + 2 + 1 + 1 + 7);
        // max over rows of 2·Σ|off| + |diag|:
        // row0: 2·2+5=9, row1: 2·3+0=6, row2: 2·1+7=9
        assert_eq!(s.max_abs_delta, 9);
    }

    #[test]
    fn zero_matrix() {
        let q = Qubo::zero(4).unwrap();
        let s = InstanceStats::of(&q);
        assert_eq!(s.couplers, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_nonzero, 0.0);
        assert_eq!(s.max_abs_delta, 0);
    }

    #[test]
    fn dense_random_has_high_density() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = Qubo::random(40, &mut rng);
        let s = InstanceStats::of(&q);
        assert!(s.density > 0.95);
        assert_eq!(s.bits, 40);
        // max |Δ| bounds the reference delta at every state we can try.
        let x = crate::BitVec::random(40, &mut rng);
        for k in 0..40 {
            assert!(q.delta(&x, k).abs() <= s.max_abs_delta);
        }
    }

    #[test]
    fn single_bit_instance() {
        let mut q = Qubo::zero(1).unwrap();
        q.set(0, 0, -3);
        let s = InstanceStats::of(&q);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.diagonals, 1);
        assert_eq!(s.max_abs_delta, 3);
    }
}

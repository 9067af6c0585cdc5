//! Number partitioning as QUBO (Lucas §2.1) — one of the "other
//! applications" the paper's future work points at.
//!
//! Given positive integers `a_1 … a_n`, split them into two sets with
//! minimal difference of sums. With `s_i = ±1` the squared difference is
//! `(Σ a_i s_i)²`; substituting `s_i = 1 − 2·x_i` and dropping the
//! constant, the QUBO below satisfies
//!
//! ```text
//! E(X) = (Σ_i a_i − 2·Σ_{i: x_i=1} a_i)² − (Σ_i a_i)²  = diff² − total²
//! ```
//!
//! so a perfect partition reaches the known optimum `−total²`.

use qubo::{BitVec, Qubo, QuboError};

/// Encodes a number-partitioning instance.
///
/// # Errors
/// [`QuboError::WeightOverflow`] when coefficients exceed 16 bits —
/// values must satisfy `4·a_i·a_j ≤ 32767` and `4·a_i·(total − a_i)
/// ≤ 32767`, so keep `a_i · total ≲ 8000`.
#[allow(clippy::needless_range_loop)] // the (i, j) index pair mirrors W_ij
pub fn to_qubo(values: &[u32]) -> Result<Qubo, QuboError> {
    let n = values.len();
    let mut triplets = Vec::new();
    let total: i64 = values.iter().map(|&v| i64::from(v)).sum();
    for i in 0..n {
        let ai = i64::from(values[i]);
        // Diagonal: 4·a_i² − 4·total·a_i (x² = x).
        let diag = 4 * ai * ai - 4 * total * ai;
        let d16 = i16::try_from(diag).map_err(|_| QuboError::WeightOverflow(i, i))?;
        triplets.push((i, i, d16));
        for j in (i + 1)..n {
            let aj = i64::from(values[j]);
            // Pair coefficient 8·a_i·a_j, double-counted → W = 4·a_i·a_j.
            let w = 4 * ai * aj;
            let w16 = i16::try_from(w).map_err(|_| QuboError::WeightOverflow(i, j))?;
            triplets.push((i, j, w16));
        }
    }
    Qubo::from_triplets(n, &triplets)
}

/// The partition difference `|sum(S₁) − sum(S₀)|` encoded by `x`.
#[must_use]
pub fn difference(values: &[u32], x: &BitVec) -> i64 {
    let total: i64 = values.iter().map(|&v| i64::from(v)).sum();
    let one_side: i64 = values
        .iter()
        .enumerate()
        .filter(|&(i, _)| x.get(i))
        .map(|(_, &v)| i64::from(v))
        .sum();
    (total - 2 * one_side).abs()
}

/// The energy a partition with difference `d` maps to: `d² − total²`.
#[must_use]
pub fn difference_to_energy(values: &[u32], d: i64) -> i64 {
    let total: i64 = values.iter().map(|&v| i64::from(v)).sum();
    d * d - total * total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_equals_difference_identity() {
        let values = [3u32, 1, 1, 2, 2, 1];
        let q = to_qubo(&values).unwrap();
        for bits in 0u32..64 {
            let x = BitVec::from_bits(&(0..6).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            let d = difference(&values, &x);
            assert_eq!(
                q.energy(&x),
                difference_to_energy(&values, d),
                "bits={bits:06b}"
            );
        }
    }

    #[test]
    fn perfect_partition_is_the_optimum() {
        let values = [3u32, 1, 1, 2, 2, 1]; // total 10, perfect split exists
        let q = to_qubo(&values).unwrap();
        let opt = (0u32..64)
            .map(|bits| {
                let x =
                    BitVec::from_bits(&(0..6).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
                q.energy(&x)
            })
            .min()
            .unwrap();
        assert_eq!(opt, difference_to_energy(&values, 0));
    }

    #[test]
    fn odd_total_cannot_be_perfect() {
        let values = [4u32, 3, 2]; // total 9: best difference is 1
        let q = to_qubo(&values).unwrap();
        let opt = (0u32..8)
            .map(|bits| {
                let x = BitVec::from_bits(&[
                    (bits & 1) as u8,
                    ((bits >> 1) & 1) as u8,
                    ((bits >> 2) & 1) as u8,
                ]);
                q.energy(&x)
            })
            .min()
            .unwrap();
        assert_eq!(opt, difference_to_energy(&values, 1));
    }

    #[test]
    fn overflow_is_reported() {
        let values = [200u32, 200, 200];
        assert!(matches!(
            to_qubo(&values).unwrap_err(),
            QuboError::WeightOverflow(..)
        ));
    }
}

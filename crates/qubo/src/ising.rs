//! The Ising-model formulation and exact conversions to/from QUBO.
//!
//! The Ising Hamiltonian used in the paper is
//! `H(S) = −Σ_{i<j} J_ij s_i s_j − Σ_i h_i s_i` over spins `s_i = ±1`.
//! QUBO bits map to spins through `s_i = φ(x_i) = 1 − 2·x_i`, so a
//! [`crate::BitVec`] doubles as a spin configuration (bit 0 ↦ spin +1,
//! bit 1 ↦ spin −1).

use crate::bitvec::BitVec;
use crate::energy::{phi, Energy};
use crate::matrix::{Qubo, QuboError};

/// A fully-connected Ising model with integer couplings.
///
/// Couplings are stored as `i64` because exact QUBO→Ising conversion of
/// 16-bit-weight problems introduces a factor of 4 (see
/// [`Ising::from_qubo`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ising {
    n: usize,
    /// External field `h_i`.
    h: Vec<i64>,
    /// Dense symmetric couplings `J_ij` with zero diagonal.
    j: Vec<i64>,
    /// Constant added to the Hamiltonian (tracks the QUBO offset).
    offset: i64,
}

impl Ising {
    /// Creates an `n`-spin model with zero fields, couplings, and offset.
    #[must_use]
    pub fn zero(n: usize) -> Self {
        Self {
            n,
            h: vec![0; n],
            j: vec![0; n * n],
            offset: 0,
        }
    }

    /// Number of spins.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// External field `h_i`.
    #[must_use]
    pub fn h(&self, i: usize) -> i64 {
        self.h[i]
    }

    /// Coupling `J_ij` (symmetric, zero on the diagonal).
    #[must_use]
    pub fn j(&self, i: usize, j: usize) -> i64 {
        self.j[i * self.n + j]
    }

    /// Constant offset of the Hamiltonian.
    #[must_use]
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Sets `h_i`.
    pub fn set_h(&mut self, i: usize, v: i64) {
        self.h[i] = v;
    }

    /// Sets `J_ij = J_ji` (ignores `i == j`, the diagonal stays zero).
    pub fn set_j(&mut self, i: usize, jdx: usize, v: i64) {
        if i != jdx {
            self.j[i * self.n + jdx] = v;
            self.j[jdx * self.n + i] = v;
        }
    }

    /// Hamiltonian `H(S) = offset − Σ_{i<j} J_ij s_i s_j − Σ_i h_i s_i`
    /// where the spin configuration is encoded as bits (`s_i = φ(x_i)`).
    ///
    /// # Panics
    /// Panics if `spins.len() != n`.
    #[must_use]
    pub fn hamiltonian(&self, spins: &BitVec) -> Energy {
        assert_eq!(spins.len(), self.n, "spin configuration length mismatch");
        let mut e = self.offset;
        for i in 0..self.n {
            let si = i64::from(phi(spins.get(i)));
            e -= self.h[i] * si;
            for jdx in (i + 1)..self.n {
                let sj = i64::from(phi(spins.get(jdx)));
                e -= self.j[i * self.n + jdx] * si * sj;
            }
        }
        e
    }

    /// Exact conversion from a QUBO instance.
    ///
    /// The returned model satisfies `H(S) = 4·E(X)` for `s_i = φ(x_i)`;
    /// the factor 4 keeps every coupling integral (`x = (1−s)/2`
    /// introduces quarters otherwise). Couplings become
    /// `J_ij = −2·W_ij`, fields `h_i = 2·Σ_j W_ij`, and the offset is
    /// `Σ_{i,j} W_ij + Σ_i W_ii`.
    #[must_use]
    pub fn from_qubo(q: &Qubo) -> Self {
        let n = q.n();
        let mut ising = Self::zero(n);
        let mut total = 0i64;
        let mut trace = 0i64;
        for i in 0..n {
            let mut row_sum = 0i64;
            for jdx in 0..n {
                let w = i64::from(q.get(i, jdx));
                row_sum += w;
                total += w;
                if i != jdx {
                    ising.j[i * n + jdx] = -2 * w;
                }
            }
            trace += i64::from(q.diag(i));
            ising.h[i] = 2 * row_sum;
        }
        ising.offset = total + trace;
        ising
    }

    /// Exact conversion to a QUBO instance.
    ///
    /// The returned problem satisfies
    /// `H(S) = E(X) + returned_offset` for `s_i = φ(x_i)`:
    /// `W_ij = −2·J_ij` (i ≠ j, counted once in each triangle, i.e. the
    /// QUBO double-sum contributes `−4·J_ij` per pair, matching the
    /// expansion of `s_i s_j`), and
    /// `W_ii = 2·h_i + 2·Σ_{j≠i} J_ij`.
    ///
    /// # Errors
    /// [`QuboError::WeightOverflow`] if a weight exceeds the 16-bit range.
    pub fn to_qubo(&self) -> Result<(Qubo, i64), QuboError> {
        let n = self.n;
        let mut triplets = Vec::new();
        let mut pair_sum = 0i64;
        let mut h_sum = 0i64;
        for i in 0..n {
            let mut jrow = 0i64;
            for jdx in 0..n {
                if i == jdx {
                    continue;
                }
                let jij = self.j[i * n + jdx];
                jrow += jij;
                if i < jdx {
                    pair_sum += jij;
                    let w = -2 * jij;
                    let w16 = i16::try_from(w).map_err(|_| QuboError::WeightOverflow(i, jdx))?;
                    triplets.push((i, jdx, w16));
                }
            }
            h_sum += self.h[i];
            let diag = 2 * self.h[i] + 2 * jrow;
            let d16 = i16::try_from(diag).map_err(|_| QuboError::WeightOverflow(i, i))?;
            triplets.push((i, i, d16));
        }
        let offset = self.offset - pair_sum - h_sum;
        Ok((Qubo::from_triplets(n, &triplets)?, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_configs(n: usize) -> impl Iterator<Item = BitVec> {
        (0u32..(1 << n)).map(move |bits| {
            BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>())
        })
    }

    #[test]
    fn hamiltonian_of_small_model() {
        // Two ferromagnetically coupled spins: aligned states are lower.
        let mut m = Ising::zero(2);
        m.set_j(0, 1, 1);
        let up_up = BitVec::from_bit_str("00").unwrap(); // s = (+1, +1)
        let up_down = BitVec::from_bit_str("01").unwrap(); // s = (+1, −1)
        assert_eq!(m.hamiltonian(&up_up), -1);
        assert_eq!(m.hamiltonian(&up_down), 1);
    }

    #[test]
    fn field_prefers_aligned_spin() {
        let mut m = Ising::zero(1);
        m.set_h(0, 3);
        let up = BitVec::from_bit_str("0").unwrap(); // s = +1
        let down = BitVec::from_bit_str("1").unwrap(); // s = −1
        assert_eq!(m.hamiltonian(&up), -3);
        assert_eq!(m.hamiltonian(&down), 3);
    }

    #[test]
    fn diagonal_stays_zero() {
        let mut m = Ising::zero(3);
        m.set_j(1, 1, 42);
        assert_eq!(m.j(1, 1), 0);
    }

    #[test]
    fn qubo_to_ising_is_4x_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let mut q = Qubo::zero(6).unwrap();
            for i in 0..6 {
                for j in i..6 {
                    q.set(i, j, rng.gen_range(-50..=50));
                }
            }
            let ising = Ising::from_qubo(&q);
            for x in all_configs(6) {
                assert_eq!(ising.hamiltonian(&x), 4 * q.energy(&x), "x={x}");
            }
        }
    }

    #[test]
    fn ising_to_qubo_is_exact_with_offset() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let mut m = Ising::zero(5);
            for i in 0..5 {
                m.set_h(i, rng.gen_range(-20..=20));
                for j in (i + 1)..5 {
                    m.set_j(i, j, rng.gen_range(-20..=20));
                }
            }
            let (q, offset) = m.to_qubo().unwrap();
            for x in all_configs(5) {
                assert_eq!(m.hamiltonian(&x), q.energy(&x) + offset, "x={x}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_ordering_of_states() {
        // qubo -> ising -> qubo yields energies scaled by 4 plus an offset,
        // so the argmin is preserved.
        let mut rng = StdRng::seed_from_u64(17);
        let mut q = Qubo::zero(5).unwrap();
        for i in 0..5 {
            for j in i..5 {
                q.set(i, j, rng.gen_range(-30..=30));
            }
        }
        let (q2, offset) = Ising::from_qubo(&q).to_qubo().unwrap();
        for x in all_configs(5) {
            assert_eq!(q2.energy(&x) + offset, 4 * q.energy(&x));
        }
    }

    #[test]
    fn to_qubo_reports_overflow() {
        let mut m = Ising::zero(2);
        m.set_j(0, 1, i64::from(i16::MAX)); // -2*J overflows i16
        assert!(matches!(
            m.to_qubo().unwrap_err(),
            QuboError::WeightOverflow(0, 1)
        ));
    }
}

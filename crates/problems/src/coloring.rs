//! Graph `k`-coloring as QUBO (Lucas §6.1).
//!
//! Bit `v·k + c` means "vertex `v` has color `c`". With penalty `A` the
//! (×2-scaled, to keep the double-counted off-diagonals integral)
//! energy is
//!
//! ```text
//! E(X) = 2·A·(one-hot violations) + 2·A·(monochromatic edges) − 2·A·|V|
//! ```
//!
//! so `X` encodes a proper `k`-coloring iff `E(X) = −2·A·|V|`, the
//! known optimum. This is a pure feasibility problem — the QUBO ground
//! state *is* the certificate.

use crate::graph::Graph;
use qubo::{BitVec, Qubo, QuboError};

/// Default penalty weight.
pub const DEFAULT_PENALTY: i64 = 4;

/// A `k`-coloring instance encoded as QUBO, with decoding helpers.
#[derive(Clone, Debug)]
pub struct ColoringQubo {
    qubo: Qubo,
    n_vertices: usize,
    k: usize,
    penalty: i64,
}

impl ColoringQubo {
    /// The underlying QUBO.
    #[must_use]
    pub fn qubo(&self) -> &Qubo {
        &self.qubo
    }

    /// Bit index of "vertex `v` has color `c`".
    #[must_use]
    pub fn bit(&self, v: usize, c: usize) -> usize {
        debug_assert!(v < self.n_vertices && c < self.k);
        v * self.k + c
    }

    /// The energy of every proper coloring: `−2·A·|V|`.
    #[must_use]
    pub fn proper_energy(&self) -> i64 {
        -2 * self.penalty * self.n_vertices as i64
    }

    /// Encodes an explicit coloring (`colors[v] ∈ 0..k`).
    ///
    /// # Panics
    /// Panics on a bad length or color index.
    #[must_use]
    pub fn encode(&self, colors: &[usize]) -> BitVec {
        assert_eq!(colors.len(), self.n_vertices);
        let mut x = BitVec::zeros(self.n_vertices * self.k);
        for (v, &c) in colors.iter().enumerate() {
            assert!(c < self.k, "color {c} out of range");
            x.set(self.bit(v, c), true);
        }
        x
    }

    /// Decodes a bit vector into a coloring, or `None` if any vertex is
    /// not exactly-one-hot.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    #[must_use]
    pub fn decode(&self, x: &BitVec) -> Option<Vec<usize>> {
        assert_eq!(x.len(), self.n_vertices * self.k);
        let mut colors = Vec::with_capacity(self.n_vertices);
        for v in 0..self.n_vertices {
            let mut chosen = None;
            for c in 0..self.k {
                if x.get(self.bit(v, c)) {
                    if chosen.is_some() {
                        return None;
                    }
                    chosen = Some(c);
                }
            }
            colors.push(chosen?);
        }
        Some(colors)
    }
}

/// Encodes `k`-coloring of `g` with penalty `a`.
///
/// # Errors
/// [`QuboError`] if `k == 0`, the bit count exceeds the limit, or
/// weights overflow.
pub fn to_qubo(g: &Graph, k: usize, a: i64) -> Result<ColoringQubo, QuboError> {
    if k == 0 {
        return Err(QuboError::BadSize(0));
    }
    let nv = g.n();
    let bits = nv * k;
    let mut triplets = Vec::new();
    let as16 = |v: i64| i16::try_from(v).map_err(|_| QuboError::WeightOverflow(0, 0));
    let bit = |v: usize, c: usize| v * k + c;
    // One-hot per vertex (×2 scaling): diag −2A, in-vertex pairs +2A.
    for v in 0..nv {
        for c in 0..k {
            triplets.push((bit(v, c), bit(v, c), as16(-2 * a)?));
            for c2 in (c + 1)..k {
                triplets.push((bit(v, c), bit(v, c2), as16(2 * a)?));
            }
        }
    }
    // Monochromatic-edge penalty: pair +A (double-counted → 2A).
    for (u, v, _) in g.edges() {
        for c in 0..k {
            triplets.push((bit(u, c), bit(v, c), as16(a)?));
        }
    }
    Ok(ColoringQubo {
        qubo: Qubo::from_triplets(bits, &triplets)?,
        n_vertices: nv,
        k,
        penalty: a,
    })
}

/// Counts monochromatic edges of an explicit coloring.
#[must_use]
pub fn conflicts(g: &Graph, colors: &[usize]) -> usize {
    g.edges()
        .filter(|&(u, v, _)| colors[u] == colors[v])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    }

    #[test]
    fn proper_colorings_hit_the_known_optimum() {
        let g = triangle();
        let cq = to_qubo(&g, 3, DEFAULT_PENALTY).unwrap();
        let proper = cq.encode(&[0, 1, 2]);
        assert_eq!(cq.qubo().energy(&proper), cq.proper_energy());
        // And it is the global optimum (exhaustive over 9 bits).
        let n = cq.qubo().n();
        let min = (0u32..(1 << n))
            .map(|bits| {
                let x =
                    BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
                cq.qubo().energy(&x)
            })
            .min()
            .unwrap();
        assert_eq!(min, cq.proper_energy());
    }

    #[test]
    fn two_coloring_a_triangle_is_infeasible() {
        // χ(K₃) = 3: with k = 2 no assignment reaches the proper energy.
        let g = triangle();
        let cq = to_qubo(&g, 2, DEFAULT_PENALTY).unwrap();
        let n = cq.qubo().n();
        let min = (0u32..(1 << n))
            .map(|bits| {
                let x =
                    BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
                cq.qubo().energy(&x)
            })
            .min()
            .unwrap();
        assert!(min > cq.proper_energy());
    }

    #[test]
    fn encode_decode_roundtrip_and_conflicts() {
        let g = triangle();
        let cq = to_qubo(&g, 3, DEFAULT_PENALTY).unwrap();
        let colors = vec![0, 1, 0];
        let x = cq.encode(&colors);
        assert_eq!(cq.decode(&x).unwrap(), colors);
        assert_eq!(conflicts(&g, &colors), 1);
        assert_eq!(conflicts(&g, &[0, 1, 2]), 0);
    }

    #[test]
    fn decode_rejects_non_one_hot() {
        let g = triangle();
        let cq = to_qubo(&g, 2, DEFAULT_PENALTY).unwrap();
        assert!(cq.decode(&BitVec::zeros(6)).is_none());
        let mut x = cq.encode(&[0, 1, 0]);
        x.set(cq.bit(0, 1), true); // vertex 0 has two colors
        assert!(cq.decode(&x).is_none());
    }

    #[test]
    fn zero_colors_rejected() {
        let g = triangle();
        assert!(matches!(
            to_qubo(&g, 0, DEFAULT_PENALTY).unwrap_err(),
            QuboError::BadSize(0)
        ));
    }

    #[test]
    fn conflict_energy_accounting() {
        // Each monochromatic edge costs exactly 2·A above proper.
        let g = triangle();
        let cq = to_qubo(&g, 3, DEFAULT_PENALTY).unwrap();
        let one_conflict = cq.encode(&[0, 0, 1]);
        assert_eq!(
            cq.qubo().energy(&one_conflict),
            cq.proper_energy() + 2 * DEFAULT_PENALTY
        );
        let all_same = cq.encode(&[2, 2, 2]);
        assert_eq!(
            cq.qubo().energy(&all_same),
            cq.proper_energy() + 3 * 2 * DEFAULT_PENALTY
        );
    }
}

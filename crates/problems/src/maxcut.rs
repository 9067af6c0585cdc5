//! Max-Cut as QUBO (Eq. (17), Fig. 6).
//!
//! A bit per vertex splits the graph into `V₀ = {i : x_i = 0}` and
//! `V₁ = {i : x_i = 1}`. With weights
//!
//! ```text
//! W_ij = G_ij            (i ≠ j)
//! W_ii = −Σ_k G_ik       (the negated weighted degree)
//! ```
//!
//! the QUBO energy equals the *negated* cut weight: minimizing `E`
//! maximizes the cut.

use crate::graph::Graph;
use qubo::{BitVec, Qubo, QuboError, SparseQubo};

/// Encodes Max-Cut on `g` as a QUBO with `E(X) = −cut(X)`.
///
/// # Errors
/// [`QuboError`] if the graph is too large or a weighted degree
/// overflows the 16-bit weight range.
pub fn to_qubo(g: &Graph) -> Result<Qubo, QuboError> {
    let mut triplets = Vec::new();
    for (u, v, w) in g.edges() {
        let w16 = i16::try_from(w).map_err(|_| QuboError::WeightOverflow(u, v))?;
        triplets.push((u, v, w16));
    }
    for v in 0..g.n() {
        let d = g.weighted_degree(v);
        let d16 = i16::try_from(-d).map_err(|_| QuboError::WeightOverflow(v, v))?;
        triplets.push((v, v, d16));
    }
    Qubo::from_triplets(g.n(), &triplets)
}

/// Encodes Max-Cut on `g` directly as a CSR [`SparseQubo`] with
/// `E(X) = −cut(X)` — the same weights as [`to_qubo`] without ever
/// materializing the O(n²) dense matrix, so G-set-scale sparse graphs
/// go straight to the O(degree) flip tier.
///
/// # Errors
/// [`QuboError`] if the graph is too large or a weight / weighted degree
/// overflows the 16-bit weight range.
pub fn to_sparse_qubo(g: &Graph) -> Result<SparseQubo, QuboError> {
    let mut triplets = Vec::with_capacity(g.edge_count() + g.n());
    for (u, v, w) in g.edges() {
        let w16 = i16::try_from(w).map_err(|_| QuboError::WeightOverflow(u, v))?;
        triplets.push((u, v, w16));
    }
    for v in 0..g.n() {
        let d = g.weighted_degree(v);
        let d16 = i16::try_from(-d).map_err(|_| QuboError::WeightOverflow(v, v))?;
        triplets.push((v, v, d16));
    }
    SparseQubo::from_triplets(g.n(), &triplets)
}

/// Cut weight of the partition encoded by `x`: the total weight of edges
/// with endpoints on opposite sides.
///
/// # Panics
/// Panics if `x.len() != g.n()`.
#[must_use]
pub fn cut_value(g: &Graph, x: &BitVec) -> i64 {
    assert_eq!(x.len(), g.n(), "partition length mismatch");
    g.edges()
        .filter(|&(u, v, _)| x.get(u) != x.get(v))
        .map(|(_, _, w)| i64::from(w))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 5-vertex unit-weight graph where the partition `X = 01001`
    /// (i.e. `V₁ = {1, 4}`) cuts five edges, reproducing Fig. 6's
    /// `E(01001) = −5`.
    fn fig6_like_graph() -> Graph {
        Graph::from_edges(
            5,
            &[
                (1, 0, 1),
                (1, 2, 1),
                (1, 3, 1),
                (4, 0, 1),
                (4, 2, 1),
                (0, 2, 1), // uncut edge inside V₀
            ],
        )
    }

    #[test]
    fn paper_fig6() {
        let g = fig6_like_graph();
        let q = to_qubo(&g).unwrap();
        let x = BitVec::from_bit_str("01001").unwrap();
        assert_eq!(cut_value(&g, &x), 5);
        assert_eq!(q.energy(&x), -5);
    }

    #[test]
    fn energy_is_negated_cut_for_all_partitions() {
        let mut rng = StdRng::seed_from_u64(1);
        // Random weighted graph, including negative weights (G6-style).
        let mut g = Graph::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                if rng.gen_bool(0.5) {
                    g.add_edge(u, v, rng.gen_range(-5..=5));
                }
            }
        }
        let q = to_qubo(&g).unwrap();
        for bits in 0u32..256 {
            let x = BitVec::from_bits(&(0..8).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            assert_eq!(q.energy(&x), -cut_value(&g, &x), "bits={bits:08b}");
        }
    }

    #[test]
    fn empty_and_full_partitions_cut_nothing() {
        let g = fig6_like_graph();
        let q = to_qubo(&g).unwrap();
        let zeros = BitVec::zeros(5);
        let ones = BitVec::from_bit_str("11111").unwrap();
        assert_eq!(q.energy(&zeros), 0);
        assert_eq!(q.energy(&ones), 0);
        assert_eq!(cut_value(&g, &zeros), 0);
    }

    #[test]
    fn complement_partition_has_equal_cut() {
        let g = fig6_like_graph();
        let q = to_qubo(&g).unwrap();
        let x = BitVec::from_bit_str("01101").unwrap();
        let mut xc = x.clone();
        for i in 0..5 {
            xc.flip(i);
        }
        assert_eq!(q.energy(&x), q.energy(&xc));
    }

    #[test]
    fn triangle_max_cut_is_two() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let q = to_qubo(&g).unwrap();
        let best = (0u32..8)
            .map(|b| {
                let x =
                    BitVec::from_bits(&[(b & 1) as u8, ((b >> 1) & 1) as u8, ((b >> 2) & 1) as u8]);
                q.energy(&x)
            })
            .min()
            .unwrap();
        assert_eq!(best, -2);
    }

    #[test]
    fn sparse_encoding_matches_the_dense_encoding() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Graph::new(10);
        for u in 0..10 {
            for v in (u + 1)..10 {
                if rng.gen_bool(0.3) {
                    g.add_edge(u, v, rng.gen_range(-7..=7));
                }
            }
        }
        let q = to_qubo(&g).unwrap();
        let s = to_sparse_qubo(&g).unwrap();
        assert_eq!(s.n(), q.n());
        assert_eq!(s.nnz() / 2, q.coupler_count());
        for _ in 0..50 {
            let x = BitVec::random(10, &mut rng);
            assert_eq!(s.energy(&x), q.energy(&x));
            assert_eq!(s.energy(&x), -cut_value(&g, &x));
        }
    }

    #[test]
    fn sparse_encoding_reports_degree_overflow() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 30_000);
        g.add_edge(0, 2, 30_000);
        assert!(matches!(
            to_sparse_qubo(&g).unwrap_err(),
            QuboError::WeightOverflow(0, 0)
        ));
    }

    #[test]
    fn degree_overflow_reported() {
        // One vertex with weighted degree > 32767.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 30_000);
        g.add_edge(0, 2, 30_000);
        assert!(matches!(
            to_qubo(&g).unwrap_err(),
            QuboError::WeightOverflow(0, 0)
        ));
    }
}

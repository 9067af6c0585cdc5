//! Minimum vertex cover as QUBO (Lucas §4.3) — a second "other
//! application" exercising the public API.
//!
//! Minimize `Σ_i x_i` subject to every edge having a covered endpoint.
//! With penalty `A` per uncovered edge, the (×2-scaled, to keep the
//! double-counted off-diagonals integral) energy is
//!
//! ```text
//! E(X) = 2·|cover| + 2·A·(uncovered edges) − 2·A·|E_total|·0 …
//! ```
//!
//! concretely: `E(X) = 2·Σ x_i + 2·A·Σ_{(u,v)} (1−x_u)(1−x_v) − 2·A·|E|`
//! with the constant folded out, so a *valid* cover satisfies
//! `E(X) = 2·|cover| − 2·A·|E|`.

use crate::graph::Graph;
use qubo::{BitVec, Qubo, QuboError};

/// Default penalty: must exceed 1 (the cost of adding one vertex);
/// Lucas recommends a comfortable margin.
pub const DEFAULT_PENALTY: i64 = 8;

/// Encodes minimum vertex cover on `g` with penalty `a` per uncovered
/// edge. `E(X) = 2·|cover| + 2·a·uncovered − 2·a·|E|`.
///
/// # Errors
/// [`QuboError`] on weight overflow (high-degree vertices with a large
/// penalty).
pub fn to_qubo(g: &Graph, a: i64) -> Result<Qubo, QuboError> {
    let mut triplets = Vec::new();
    let as16 =
        |v: i64, i: usize, j: usize| i16::try_from(v).map_err(|_| QuboError::WeightOverflow(i, j));
    // Cost term 2·Σ x_i.
    for v in 0..g.n() {
        triplets.push((v, v, as16(2, v, v)?));
    }
    // Penalty 2·a·(1 − x_u)(1 − x_v) per edge: constant dropped,
    // −2a on each endpoint diagonal, +2a pair (double-counted → W = a).
    for (u, v, _) in g.edges() {
        triplets.push((u, u, as16(-2 * a, u, u)?));
        triplets.push((v, v, as16(-2 * a, v, v)?));
        triplets.push((u, v, as16(a, u, v)?));
    }
    Qubo::from_triplets(g.n(), &triplets)
}

/// `true` if the vertex set `{i : x_i = 1}` covers every edge.
#[must_use]
pub fn is_cover(g: &Graph, x: &BitVec) -> bool {
    g.edges().all(|(u, v, _)| x.get(u) || x.get(v))
}

/// Number of uncovered edges.
#[must_use]
pub fn uncovered(g: &Graph, x: &BitVec) -> usize {
    g.edges()
        .filter(|&(u, v, _)| !x.get(u) && !x.get(v))
        .count()
}

/// The energy a valid cover of size `k` maps to.
#[must_use]
pub fn cover_to_energy(g: &Graph, a: i64, k: usize) -> i64 {
    2 * k as i64 - 2 * a * g.edge_count() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    #[test]
    fn energy_identity_over_all_subsets() {
        let g = path4();
        let a = DEFAULT_PENALTY;
        let q = to_qubo(&g, a).unwrap();
        for bits in 0u32..16 {
            let x = BitVec::from_bits(&(0..4).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            let expect = 2 * x.count_ones() as i64 + 2 * a * uncovered(&g, &x) as i64
                - 2 * a * g.edge_count() as i64;
            assert_eq!(q.energy(&x), expect, "bits={bits:04b}");
        }
    }

    #[test]
    fn optimum_is_the_minimum_cover() {
        // Path 0-1-2-3: minimum cover {1, 2}, size 2.
        let g = path4();
        let q = to_qubo(&g, DEFAULT_PENALTY).unwrap();
        let (best_e, best_x) = (0u32..16)
            .map(|bits| {
                let x =
                    BitVec::from_bits(&(0..4).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
                (q.energy(&x), x)
            })
            .min_by_key(|(e, _)| *e)
            .unwrap();
        assert!(is_cover(&g, &best_x));
        assert_eq!(best_x.count_ones(), 2);
        assert_eq!(best_e, cover_to_energy(&g, DEFAULT_PENALTY, 2));
    }

    #[test]
    fn star_graph_cover_is_the_hub() {
        let g = Graph::from_edges(5, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        let q = to_qubo(&g, DEFAULT_PENALTY).unwrap();
        let hub_only = BitVec::from_bit_str("10000").unwrap();
        assert!(is_cover(&g, &hub_only));
        // No subset beats covering with just the hub.
        for bits in 0u32..32 {
            let x = BitVec::from_bits(&(0..5).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            assert!(q.energy(&x) >= q.energy(&hub_only), "bits={bits:05b}");
        }
    }

    #[test]
    fn weak_penalty_can_be_cheated() {
        // With a = 0 the empty set is "optimal" — documents why the
        // penalty must exceed the per-vertex cost.
        let g = path4();
        let q = to_qubo(&g, 0).unwrap();
        let empty = BitVec::zeros(4);
        assert_eq!(q.energy(&empty), 0);
        assert!(!is_cover(&g, &empty));
        let full = BitVec::from_bit_str("1111").unwrap();
        assert!(q.energy(&full) > q.energy(&empty));
    }
}

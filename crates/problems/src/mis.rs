//! Maximum independent set as QUBO (Lucas §4.2).
//!
//! Select the largest vertex set with no internal edge:
//!
//! ```text
//! E(X) = −|S| + 2·A·(edges inside S),      S = {v : x_v = 1}
//! ```
//!
//! (`W_vv = −1`, `W_uv = A` per edge; the QUBO double-count supplies the
//! factor 2). Any `A ≥ 1` makes dropping an endpoint of a violated edge
//! profitable, so the optimum is `−α(G)`, the negated independence
//! number.

use crate::graph::Graph;
use qubo::{BitVec, Qubo, QuboError};

/// Default penalty (Lucas requires `A ≥ 1`; 2 gives slack).
pub const DEFAULT_PENALTY: i64 = 2;

/// Encodes maximum independent set on `g`.
///
/// # Errors
/// [`QuboError`] on weight overflow.
pub fn to_qubo(g: &Graph, a: i64) -> Result<Qubo, QuboError> {
    let mut triplets = Vec::new();
    let a16 = i16::try_from(a).map_err(|_| QuboError::WeightOverflow(0, 0))?;
    for v in 0..g.n() {
        triplets.push((v, v, -1));
    }
    for (u, v, _) in g.edges() {
        triplets.push((u, v, a16));
    }
    Qubo::from_triplets(g.n(), &triplets)
}

/// `true` if `{v : x_v = 1}` is an independent set.
#[must_use]
pub fn is_independent(g: &Graph, x: &BitVec) -> bool {
    g.edges().all(|(u, v, _)| !(x.get(u) && x.get(v)))
}

/// Number of edges with both endpoints selected.
#[must_use]
pub fn violations(g: &Graph, x: &BitVec) -> usize {
    g.edges().filter(|&(u, v, _)| x.get(u) && x.get(v)).count()
}

/// The energy an independent set of size `k` maps to (`−k`).
#[must_use]
pub fn set_size_to_energy(k: usize) -> i64 {
    -(k as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_subsets(n: usize) -> impl Iterator<Item = BitVec> {
        (0u32..(1 << n)).map(move |bits| {
            BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>())
        })
    }

    #[test]
    fn energy_identity() {
        let g = Graph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let q = to_qubo(&g, DEFAULT_PENALTY).unwrap();
        for x in all_subsets(5) {
            let expect = -(x.count_ones() as i64) + 2 * DEFAULT_PENALTY * violations(&g, &x) as i64;
            assert_eq!(q.energy(&x), expect, "x={x}");
        }
    }

    #[test]
    fn c5_independence_number_is_two() {
        // The 5-cycle has α = 2.
        let g = Graph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let q = to_qubo(&g, DEFAULT_PENALTY).unwrap();
        let (best_e, best_x) = all_subsets(5)
            .map(|x| (q.energy(&x), x))
            .min_by_key(|(e, _)| *e)
            .unwrap();
        assert_eq!(best_e, set_size_to_energy(2));
        assert!(is_independent(&g, &best_x));
        assert_eq!(best_x.count_ones(), 2);
    }

    #[test]
    fn edgeless_graph_selects_everything() {
        let g = Graph::new(6);
        let q = to_qubo(&g, DEFAULT_PENALTY).unwrap();
        let all = BitVec::from_bit_str("111111").unwrap();
        assert_eq!(q.energy(&all), -6);
        assert!(is_independent(&g, &all));
    }

    #[test]
    fn penalty_one_is_still_sound() {
        // A = 1: the bound case of Lucas's condition — optima are still
        // independent sets on a triangle.
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let q = to_qubo(&g, 1).unwrap();
        let (best_e, best_x) = all_subsets(3)
            .map(|x| (q.energy(&x), x))
            .min_by_key(|(e, _)| *e)
            .unwrap();
        assert_eq!(best_e, -1);
        assert!(is_independent(&g, &best_x));
    }
}

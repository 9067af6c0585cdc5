//! The traveling salesman problem as QUBO (§4.1.2, Fig. 7).
//!
//! A `c`-city symmetric TSP becomes a `(c−1)²`-bit QUBO [Lucas 2014]:
//! one city is pinned to position 0 (the paper pins city E; we pin city
//! 0 — the encodings are isomorphic under relabeling), and bit
//! `(i−1)·(c−1) + (j−1)` means "city `i` is visited at position `j`"
//! for `i, j ∈ {1, …, c−1}`.
//!
//! Row/column one-hot constraints carry a penalty `A = 2·d_max` ("twice
//! as much as the maximum distance"). Because the QUBO energy
//! double-counts off-diagonal weights, all coefficients are scaled by 2
//! to stay integral, so for a **valid** tour
//!
//! ```text
//! E(X) = 2·length(X) − 4·A·(c−1)
//! ```
//!
//! ([`TspQubo::energy_to_length`] inverts this). Any two distinct valid
//! tours differ in ≥ 4 bits, which is what makes TSP QUBOs hard for
//! single-flip local search — the paper's motivation for the GA layer.

use qubo::{BitVec, Energy, Qubo, QuboError};

/// A symmetric TSP instance with integer distances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TspInstance {
    name: String,
    c: usize,
    /// Row-major `c × c` distance matrix (symmetric, zero diagonal).
    dist: Vec<u32>,
}

impl TspInstance {
    /// Builds an instance from 2-D points with rounded Euclidean
    /// distances (TSPLIB `EUC_2D` convention: `round(sqrt(dx²+dy²))`).
    ///
    /// # Panics
    /// Panics with fewer than 3 cities.
    #[must_use]
    pub fn from_points(name: &str, points: &[(f64, f64)]) -> Self {
        let c = points.len();
        assert!(c >= 3, "TSP needs at least 3 cities");
        let mut dist = vec![0u32; c * c];
        for i in 0..c {
            for j in 0..c {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                dist[i * c + j] = (dx * dx + dy * dy).sqrt().round() as u32;
            }
        }
        Self {
            name: name.to_owned(),
            c,
            dist,
        }
    }

    /// Builds an instance from an explicit symmetric distance matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `c × c` symmetric with zero diagonal,
    /// or `c < 3`.
    #[must_use]
    pub fn from_matrix(name: &str, c: usize, dist: Vec<u32>) -> Self {
        assert!(c >= 3, "TSP needs at least 3 cities");
        assert_eq!(dist.len(), c * c, "distance matrix shape");
        for i in 0..c {
            assert_eq!(dist[i * c + i], 0, "non-zero diagonal at {i}");
            for j in 0..c {
                assert_eq!(dist[i * c + j], dist[j * c + i], "asymmetric at ({i},{j})");
            }
        }
        Self {
            name: name.to_owned(),
            c,
            dist,
        }
    }

    /// Instance name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cities `c`.
    #[must_use]
    pub fn cities(&self) -> usize {
        self.c
    }

    /// Number of QUBO bits, `(c−1)²`.
    #[must_use]
    pub fn bits(&self) -> usize {
        (self.c - 1) * (self.c - 1)
    }

    /// Distance between cities `i` and `j`.
    #[must_use]
    pub fn d(&self, i: usize, j: usize) -> u32 {
        self.dist[i * self.c + j]
    }

    /// Largest pairwise distance.
    #[must_use]
    pub fn max_distance(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// Length of a tour given as a permutation of `0..c` (the closing
    /// edge back to the start is included).
    ///
    /// # Panics
    /// Panics if `tour` is not a permutation of `0..c`.
    #[must_use]
    pub fn tour_length(&self, tour: &[usize]) -> u64 {
        assert_eq!(tour.len(), self.c, "tour must visit every city");
        let mut seen = vec![false; self.c];
        for &t in tour {
            assert!(!seen[t], "city {t} repeated");
            seen[t] = true;
        }
        let mut len = 0u64;
        for k in 0..self.c {
            len += u64::from(self.d(tour[k], tour[(k + 1) % self.c]));
        }
        len
    }
}

/// A TSP encoded as QUBO, with decoding helpers.
#[derive(Clone, Debug)]
pub struct TspQubo {
    qubo: Qubo,
    c: usize,
    penalty: i64,
}

impl TspQubo {
    /// The underlying QUBO problem.
    #[must_use]
    pub fn qubo(&self) -> &Qubo {
        &self.qubo
    }

    /// The one-hot penalty weight `A = 2·d_max`.
    #[must_use]
    pub fn penalty(&self) -> i64 {
        self.penalty
    }

    /// Bit index of "city `i` at position `j`" (`1 ≤ i, j < c`).
    #[must_use]
    pub fn bit(&self, city: usize, pos: usize) -> usize {
        debug_assert!((1..self.c).contains(&city) && (1..self.c).contains(&pos));
        (city - 1) * (self.c - 1) + (pos - 1)
    }

    /// Encodes a tour (a permutation of `0..c` starting with city 0)
    /// into its bit vector.
    ///
    /// # Panics
    /// Panics if `tour[0] != 0` or `tour` is not a permutation.
    #[must_use]
    pub fn encode(&self, tour: &[usize]) -> BitVec {
        assert_eq!(tour.len(), self.c);
        assert_eq!(tour[0], 0, "tours are rooted at city 0");
        let mut x = BitVec::zeros((self.c - 1) * (self.c - 1));
        for (pos, &city) in tour.iter().enumerate().skip(1) {
            x.set(self.bit(city, pos), true);
        }
        x
    }

    /// Decodes a bit vector into a tour, or `None` when any one-hot
    /// constraint is violated.
    ///
    /// # Panics
    /// Panics if `x.len() != (c−1)²`.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // index loops mirror the (city, pos) grid
    pub fn decode(&self, x: &BitVec) -> Option<Vec<usize>> {
        let m = self.c - 1;
        assert_eq!(x.len(), m * m, "bit vector length mismatch");
        let mut tour = vec![0usize; self.c];
        let mut used = vec![false; self.c];
        for pos in 1..self.c {
            let mut city_at = None;
            for city in 1..self.c {
                if x.get(self.bit(city, pos)) {
                    if city_at.is_some() || used[city] {
                        return None;
                    }
                    city_at = Some(city);
                    used[city] = true;
                }
            }
            tour[pos] = city_at?;
        }
        Some(tour)
    }

    /// Converts a *valid-tour* energy back to the tour length:
    /// `length = (E + 4·A·(c−1)) / 2`.
    #[must_use]
    pub fn energy_to_length(&self, e: Energy) -> i64 {
        (e + 4 * self.penalty * (self.c as i64 - 1)) / 2
    }

    /// The energy a tour of length `len` maps to (inverse of
    /// [`TspQubo::energy_to_length`]).
    #[must_use]
    pub fn length_to_energy(&self, len: i64) -> Energy {
        2 * len - 4 * self.penalty * (self.c as i64 - 1)
    }
}

/// Encodes a TSP instance as QUBO.
///
/// # Errors
/// [`QuboError`] if `(c−1)²` exceeds the size limit or coefficients
/// overflow 16-bit weights (distances must satisfy `4·d_max ≤ 32767`).
pub fn to_qubo(inst: &TspInstance) -> Result<TspQubo, QuboError> {
    let c = inst.c;
    let m = c - 1;
    let a = 2 * i64::from(inst.max_distance()); // penalty A
    let bits = m * m;
    let mut triplets = Vec::new();
    let bit = |city: usize, pos: usize| (city - 1) * m + (pos - 1);
    let as16 =
        |v: i64, i: usize, j: usize| i16::try_from(v).map_err(|_| QuboError::WeightOverflow(i, j));

    // One-hot penalties (scaled ×2): each bit participates in one city
    // row and one position column: diagonal −2A each, i.e. −4A total;
    // in-row and in-column pairs +2A.
    for i in 1..c {
        for j in 1..c {
            triplets.push((bit(i, j), bit(i, j), as16(-4 * a, i, j)?));
        }
    }
    for i in 1..c {
        for j1 in 1..c {
            for j2 in (j1 + 1)..c {
                triplets.push((bit(i, j1), bit(i, j2), as16(2 * a, i, j1)?)); // row
                triplets.push((bit(j1, i), bit(j2, i), as16(2 * a, j1, i)?)); // column
            }
        }
    }

    // Distance terms (scaled ×2 → off-diagonal W = d, diagonal W = 2d).
    for u in 1..c {
        for v in 1..c {
            if u == v {
                continue;
            }
            let d = i64::from(inst.d(u, v));
            if d == 0 {
                continue;
            }
            for j in 1..(c - 1) {
                triplets.push((bit(u, j), bit(v, j + 1), as16(d, u, v)?));
            }
        }
    }
    for u in 1..c {
        let d0 = i64::from(inst.d(0, u));
        if d0 != 0 {
            triplets.push((bit(u, 1), bit(u, 1), as16(2 * d0, 0, u)?));
            triplets.push((bit(u, c - 1), bit(u, c - 1), as16(2 * d0, u, 0)?));
        }
    }

    Ok(TspQubo {
        qubo: Qubo::from_triplets(bits, &triplets)?,
        c,
        penalty: a,
    })
}

/// Exact TSP by Held–Karp dynamic programming (`c ≤ 20`). Returns the
/// optimal tour (rooted at city 0) and its length.
///
/// # Panics
/// Panics if `c > 20`.
#[must_use]
pub fn held_karp(inst: &TspInstance) -> (Vec<usize>, u64) {
    let c = inst.c;
    assert!(c <= 20, "Held–Karp limited to 20 cities");
    let m = c - 1; // cities 1..c mapped to 0..m in the mask
    let full = 1usize << m;
    const INF: u64 = u64::MAX / 4;
    // dp[mask][i]: min cost path 0 → … → (i+1) visiting exactly `mask`.
    let mut dp = vec![INF; full * m];
    let mut parent = vec![usize::MAX; full * m];
    for i in 0..m {
        dp[(1 << i) * m + i] = u64::from(inst.d(0, i + 1));
    }
    for mask in 1..full {
        for i in 0..m {
            if mask & (1 << i) == 0 {
                continue;
            }
            let cur = dp[mask * m + i];
            if cur >= INF {
                continue;
            }
            for j in 0..m {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let nm = mask | (1 << j);
                let cand = cur + u64::from(inst.d(i + 1, j + 1));
                if cand < dp[nm * m + j] {
                    dp[nm * m + j] = cand;
                    parent[nm * m + j] = i;
                }
            }
        }
    }
    let mut best = INF;
    let mut last = 0usize;
    for i in 0..m {
        let total = dp[(full - 1) * m + i] + u64::from(inst.d(i + 1, 0));
        if total < best {
            best = total;
            last = i;
        }
    }
    // Reconstruct.
    let mut tour = vec![0usize; c];
    let mut mask = full - 1;
    let mut i = last;
    for pos in (1..c).rev() {
        tour[pos] = i + 1;
        let p = parent[mask * m + i];
        mask &= !(1 << i);
        if p == usize::MAX {
            break;
        }
        i = p;
    }
    (tour, best)
}

/// Nearest-neighbour construction followed by 2-opt improvement — the
/// classical heuristic used to set reference values for instances too
/// large for Held–Karp.
#[must_use]
pub fn two_opt(inst: &TspInstance) -> (Vec<usize>, u64) {
    let c = inst.c;
    // Nearest neighbour from city 0.
    let mut tour = Vec::with_capacity(c);
    let mut used = vec![false; c];
    tour.push(0);
    used[0] = true;
    let mut cur = 0;
    for _ in 1..c {
        let Some(next) = (0..c).filter(|&v| !used[v]).min_by_key(|&v| inst.d(cur, v)) else {
            break; // unreachable: each pass marks exactly one of c cities used
        };
        used[next] = true;
        tour.push(next);
        cur = next;
    }
    // 2-opt until local optimum.
    let mut improved = true;
    while improved {
        improved = false;
        for a in 0..c - 1 {
            for b in a + 2..c {
                if a == 0 && b == c - 1 {
                    continue; // same edge
                }
                let (pa, na) = (tour[a], tour[a + 1]);
                let (pb, nb) = (tour[b], tour[(b + 1) % c]);
                let before = u64::from(inst.d(pa, na)) + u64::from(inst.d(pb, nb));
                let after = u64::from(inst.d(pa, pb)) + u64::from(inst.d(na, nb));
                if after < before {
                    tour[a + 1..=b].reverse();
                    improved = true;
                }
            }
        }
    }
    let len = inst.tour_length(&tour);
    (tour, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn square5() -> TspInstance {
        // 5 cities: a unit square plus its centre.
        TspInstance::from_points(
            "square5",
            &[
                (0.0, 0.0),
                (100.0, 0.0),
                (100.0, 100.0),
                (0.0, 100.0),
                (50.0, 50.0),
            ],
        )
    }

    fn random_instance(c: usize, seed: u64) -> TspInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..c)
            .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        TspInstance::from_points("rnd", &pts)
    }

    #[test]
    fn paper_fig7_shape() {
        // A 5-city TSP occupies (c−1)² = 16 bits, one city pinned.
        let inst = square5();
        assert_eq!(inst.bits(), 16);
        let tq = to_qubo(&inst).unwrap();
        assert_eq!(tq.qubo().n(), 16);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let inst = square5();
        let tq = to_qubo(&inst).unwrap();
        let tour = vec![0, 2, 4, 1, 3];
        let x = tq.encode(&tour);
        assert_eq!(x.count_ones(), 4);
        assert_eq!(tq.decode(&x).unwrap(), tour);
    }

    #[test]
    fn invalid_assignments_decode_to_none() {
        let inst = square5();
        let tq = to_qubo(&inst).unwrap();
        // All zeros: no city at any position.
        assert!(tq.decode(&BitVec::zeros(16)).is_none());
        // Duplicate city.
        let mut x = tq.encode(&[0, 1, 2, 3, 4]);
        x.set(tq.bit(1, 3), true); // city 1 also at position 3
        assert!(tq.decode(&x).is_none());
    }

    #[test]
    fn valid_tour_energy_maps_to_length() {
        let inst = square5();
        let tq = to_qubo(&inst).unwrap();
        for tour in [
            vec![0, 1, 2, 3, 4],
            vec![0, 4, 2, 1, 3],
            vec![0, 3, 2, 1, 4],
        ] {
            let x = tq.encode(&tour);
            let e = tq.qubo().energy(&x);
            assert_eq!(
                tq.energy_to_length(e),
                inst.tour_length(&tour) as i64,
                "tour {tour:?}"
            );
            assert_eq!(tq.length_to_energy(inst.tour_length(&tour) as i64), e);
        }
    }

    #[test]
    fn qubo_optimum_is_the_optimal_tour() {
        // Exhaustive check on 4 cities (9 bits): the minimum-energy bit
        // vector decodes to a tour of Held–Karp-optimal length.
        let inst = random_instance(4, 1);
        let tq = to_qubo(&inst).unwrap();
        let n = tq.qubo().n();
        assert_eq!(n, 9);
        let mut best_e = Energy::MAX;
        let mut best_x = BitVec::zeros(n);
        for bits in 0u32..(1 << n) {
            let x = BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            let e = tq.qubo().energy(&x);
            if e < best_e {
                best_e = e;
                best_x = x;
            }
        }
        let tour = tq.decode(&best_x).expect("optimum must be a valid tour");
        let (_, opt) = held_karp(&inst);
        assert_eq!(inst.tour_length(&tour), opt);
        assert_eq!(tq.energy_to_length(best_e), opt as i64);
    }

    #[test]
    fn invalid_solutions_cost_more_than_any_tour() {
        // The penalty A = 2·d_max guarantees that dropping a constraint
        // never pays: the best invalid assignment is worse than the
        // worst valid tour.
        let inst = random_instance(4, 2);
        let tq = to_qubo(&inst).unwrap();
        let n = tq.qubo().n();
        let mut best_invalid = Energy::MAX;
        let mut worst_valid = Energy::MIN;
        for bits in 0u32..(1 << n) {
            let x = BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            let e = tq.qubo().energy(&x);
            if tq.decode(&x).is_some() {
                worst_valid = worst_valid.max(e);
            } else {
                best_invalid = best_invalid.min(e);
            }
        }
        assert!(
            best_invalid > worst_valid,
            "invalid {best_invalid} ≤ valid {worst_valid}"
        );
    }

    #[test]
    fn distinct_tours_differ_in_at_least_4_bits() {
        let inst = square5();
        let tq = to_qubo(&inst).unwrap();
        let tours = [
            vec![0, 1, 2, 3, 4],
            vec![0, 2, 1, 3, 4],
            vec![0, 4, 3, 2, 1],
            vec![0, 1, 3, 2, 4],
        ];
        for a in &tours {
            for b in &tours {
                if a != b {
                    let ha = tq.encode(a).hamming(&tq.encode(b));
                    assert!(ha >= 4, "{a:?} vs {b:?}: HD {ha}");
                }
            }
        }
    }

    #[test]
    fn held_karp_matches_brute_force() {
        let inst = random_instance(7, 3);
        let (tour, len) = held_karp(&inst);
        assert_eq!(inst.tour_length(&tour), len);
        // Brute force over all permutations of 6 cities.
        let mut perm: Vec<usize> = (1..7).collect();
        let mut best = u64::MAX;
        permute(&mut perm, 0, &mut |p| {
            let mut t = vec![0];
            t.extend_from_slice(p);
            best = best.min(inst.tour_length(&t));
        });
        assert_eq!(len, best);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn two_opt_is_valid_and_no_worse_than_greedy_start() {
        let inst = random_instance(30, 4);
        let (tour, len) = two_opt(&inst);
        assert_eq!(inst.tour_length(&tour), len);
        let (_, opt_small) = held_karp(&random_instance(9, 5));
        let (_, heur_small) = two_opt(&random_instance(9, 5));
        assert!(heur_small >= opt_small);
        assert!(
            heur_small as f64 <= opt_small as f64 * 1.25,
            "2-opt far off"
        );
    }

    #[test]
    #[should_panic(expected = "at least 3 cities")]
    fn too_few_cities_rejected() {
        let _ = TspInstance::from_points("tiny", &[(0.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetric_matrix_rejected() {
        let _ = TspInstance::from_matrix("bad", 3, vec![0, 1, 2, 9, 0, 3, 2, 3, 0]);
    }
}

//! Property-based tests of the core invariants, across crates.

use proptest::prelude::*;
use qubo::{format, BitVec, Ising, Qubo};
use qubo_ga::{InsertOutcome, SolutionPool};
use qubo_search::{straight_search, DeltaTracker};

/// Strategy: a small random symmetric QUBO.
fn arb_qubo(max_n: usize) -> impl Strategy<Value = Qubo> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-100i16..=100, n * (n + 1) / 2).prop_map(move |tri| {
            let mut q = Qubo::zero(n).expect("size");
            let mut it = tri.into_iter();
            for i in 0..n {
                for j in i..n {
                    q.set(i, j, it.next().expect("enough"));
                }
            }
            q
        })
    })
}

/// Strategy: a bit vector of the given length.
fn arb_bits(n: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), n).prop_map(|bs| {
        let mut v = BitVec::zeros(bs.len());
        for (i, b) in bs.iter().enumerate() {
            v.set(i, *b);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (5): for every state and bit, E(flip_k(X)) = E(X) + Δ_k(X).
    #[test]
    fn delta_is_the_energy_difference(q in arb_qubo(12), seed in any::<u64>()) {
        let n = q.n();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let x = BitVec::random(n, &mut rng);
        for k in 0..n {
            prop_assert_eq!(
                q.energy(&x) + q.delta(&x, k),
                q.energy(&x.flipped(k))
            );
        }
    }

    /// The incremental tracker never drifts from the O(n²) reference,
    /// no matter the flip sequence.
    #[test]
    fn tracker_matches_reference_after_any_walk(
        q in arb_qubo(10),
        walk in proptest::collection::vec(0usize..10, 0..60),
    ) {
        let n = q.n();
        let mut t = DeltaTracker::new(&q);
        for &k in &walk {
            t.flip(k % n);
        }
        prop_assert_eq!(t.energy(), q.energy(t.x()));
        for i in 0..n {
            prop_assert_eq!(i64::from(t.deltas()[i]), q.delta(t.x(), i));
        }
    }

    /// Straight search reaches any target in exactly Hamming-distance
    /// flips and lands with the exact energy.
    #[test]
    fn straight_search_reaches_any_target(q in arb_qubo(10), seed in any::<u64>()) {
        let n = q.n();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let target = BitVec::random(n, &mut rng);
        let mut t = DeltaTracker::new(&q);
        let hd = t.x().hamming(&target) as u64;
        prop_assert_eq!(straight_search(&mut t, &target), hd);
        prop_assert_eq!(t.x(), &target);
        prop_assert_eq!(t.energy(), q.energy(&target));
    }

    /// The tracker's best is a lower bound on everything it visited.
    #[test]
    fn best_is_min_over_visited(
        q in arb_qubo(8),
        walk in proptest::collection::vec(0usize..8, 1..40),
    ) {
        let n = q.n();
        let mut t = DeltaTracker::new(&q);
        let mut visited_min = q.energy(t.x());
        for &k in &walk {
            t.flip(k % n);
            visited_min = visited_min.min(t.energy());
        }
        prop_assert!(t.best().1 <= visited_min);
        prop_assert_eq!(t.best().1, q.energy(t.best().0));
    }

    /// Pool: sorted, distinct, bounded — under any insertion sequence.
    #[test]
    fn pool_invariants_under_random_inserts(
        items in proptest::collection::vec((any::<i32>(), 0u8..=255), 1..80),
    ) {
        let mut pool = SolutionPool::empty(16);
        for (e, bits) in items {
            let x = BitVec::from_bits(&[
                bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1,
                (bits >> 4) & 1, (bits >> 5) & 1, (bits >> 6) & 1, (bits >> 7) & 1,
            ]);
            let _ = pool.insert(x, i64::from(e));
            pool.assert_invariants();
        }
        prop_assert!(pool.len() <= 16);
    }

    /// Inserting the same solution twice is always a duplicate.
    #[test]
    fn pool_detects_duplicates(e in any::<i32>(), bits in 0u8..=255) {
        let x = BitVec::from_bits(&[
            bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1,
            (bits >> 4) & 1, (bits >> 5) & 1, (bits >> 6) & 1, (bits >> 7) & 1,
        ]);
        let mut pool = SolutionPool::empty(4);
        prop_assert_eq!(pool.insert(x.clone(), i64::from(e)), InsertOutcome::Inserted);
        prop_assert_eq!(pool.insert(x, i64::from(e)), InsertOutcome::Duplicate);
    }

    /// .qubo text format round-trips every problem exactly.
    #[test]
    fn format_roundtrip(q in arb_qubo(10)) {
        let text = format::to_string(&q);
        let back = format::parse(&text).expect("own output parses");
        prop_assert_eq!(q, back);
    }

    /// QUBO → Ising → QUBO preserves energies (×4, plus offset).
    #[test]
    fn ising_roundtrip_preserves_energies(q in arb_qubo(7), seed in any::<u64>()) {
        let ising = Ising::from_qubo(&q);
        let (q2, offset) = ising.to_qubo().expect("weights fit");
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        for _ in 0..10 {
            let x = BitVec::random(q.n(), &mut rng);
            prop_assert_eq!(q2.energy(&x) + offset, 4 * q.energy(&x));
        }
    }

    /// Hamming distance is a metric on bit vectors (triangle inequality).
    #[test]
    fn hamming_triangle_inequality(
        a in arb_bits(24), b in arb_bits(24), c in arb_bits(24),
    ) {
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
    }

    /// flip is an involution and count_ones tracks it.
    #[test]
    fn flip_involution(x in arb_bits(40), k in 0usize..40) {
        let mut y = x.clone();
        let ones = y.count_ones();
        y.flip(k);
        prop_assert_eq!(y.count_ones(), if x.get(k) { ones - 1 } else { ones + 1 });
        y.flip(k);
        prop_assert_eq!(&y, &x);
    }
}

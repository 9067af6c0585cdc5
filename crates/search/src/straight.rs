//! Straight search: walking from a known solution to a target
//! (Algorithm 5, Figs. 3–4).
//!
//! Combining GA with a local search would normally force each local
//! search to start from a brand-new solution, requiring an O(n²) energy
//! initialization and destroying the O(1) search efficiency. The straight
//! search avoids this: starting from the device's *current* solution `C`
//! (whose `E` and `Δ` vector are known), it flips one differing bit per
//! step — always the one with minimum `Δ` among the bits where `C` and
//! the target `T` still differ — until `C = T`. The number of flips is
//! exactly the Hamming distance, every intermediate solution is a
//! legitimate search point (best-tracking stays on), and revisiting is
//! impossible because the Hamming distance to `T` strictly decreases.

use crate::tracker::SearchTracker;
use qubo::{BitVec, MAX_BITS};

/// Words in the stack-resident differing-bit scratch: enough for the
/// largest supported problem (`MAX_BITS / 64` u64s = 4 KiB), so the
/// device hot path never allocates.
const DIFF_WORDS: usize = MAX_BITS / 64;

/// Walks the tracker from its current solution to `target`, greedily
/// flipping the minimum-`Δ` differing bit at each step (the leftmost
/// one on ties). Returns the number of flips performed (the initial
/// Hamming distance).
///
/// The differing-bit set is materialized once as packed words (one XOR
/// pass, [`BitVec::diff_words_into`]) into a fixed stack scratch, and
/// the storage arm's [`SearchTracker::straight_walk`] selects and
/// flips: the dense arm runs a lane-wise masked argmin with the diff
/// words as lane masks, the CSR arm keeps one masked minimum per diff
/// word. Both pick exactly the bit [`walk_bits`] picks. The flip count
/// is asserted equal to the popcount Hamming distance (§3.1: a straight
/// search costs exactly `hamming(C, T)` flips).
///
/// Generic over [`SearchTracker`], and thereby over both storage arms.
///
/// # Panics
/// Panics if `target.len()` differs from the tracker's problem size.
pub fn straight_search<T: SearchTracker + ?Sized>(tracker: &mut T, target: &BitVec) -> u64 {
    walk_to(tracker, target, T::straight_walk)
}

/// [`straight_search`] pinned to the bit walk ([`walk_bits`]) whatever
/// the tracker's arm: the oracle the dispatched walks are checked and
/// benchmarked against.
///
/// # Panics
/// Panics if `target.len()` differs from the tracker's problem size.
pub fn straight_search_reference<T: SearchTracker + ?Sized>(
    tracker: &mut T,
    target: &BitVec,
) -> u64 {
    walk_to(tracker, target, walk_bits::<T>)
}

/// Builds the diff words, runs `walk` over them, and checks its flip
/// count against the popcount Hamming distance.
fn walk_to<T: SearchTracker + ?Sized>(
    tracker: &mut T,
    target: &BitVec,
    walk: impl FnOnce(&mut T, &mut [u64]) -> u64,
) -> u64 {
    assert_eq!(
        target.len(),
        tracker.n(),
        "target length does not match problem size"
    );
    let mut diff = [0u64; DIFF_WORDS];
    // invariant: n <= MAX_BITS, so ceil(n/64) <= DIFF_WORDS words.
    let nw = tracker.x().diff_words_into(target, &mut diff);
    let expected: u64 = diff[..nw].iter().map(|w| u64::from(w.count_ones())).sum();
    // invariant: nw <= DIFF_WORDS, returned by diff_words_into.
    let flips = walk(tracker, &mut diff[..nw]);
    assert_eq!(
        flips, expected,
        "straight search must cost exactly the popcount Hamming distance"
    );
    flips
}

/// The bit walk: each step visits every remaining differing bit via
/// `trailing_zeros` over the packed `diff` words, flips the leftmost
/// minimum-`Δ` one and clears its bit, until `diff` is all zero.
/// Returns the flips performed. O(HD) per step, O(HD²) per walk — the
/// [`crate::FlipKernel::Scalar`] arm's path, the path below one diff
/// word (where a walk covers at most 63 bits), and the oracle of every
/// faster [`SearchTracker::straight_walk`].
///
/// Never inlined: the oracle and every arm that dispatches to it run one
/// copy of the loop, so a `Scalar` walk costs what the oracle costs.
#[inline(never)]
pub fn walk_bits<T: SearchTracker + ?Sized>(tracker: &mut T, diff: &mut [u64]) -> u64 {
    let mut flips = 0u64;
    loop {
        let mut best: Option<(usize, i32)> = None;
        for (wi, &word) in diff.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let i = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                // invariant: diff bits come from words of length-n vectors,
                // so i < n = deltas().len().
                let d = tracker.deltas()[i];
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        let Some((k, _)) = best else {
            return flips; // X = T
        };
        tracker.flip(k);
        // invariant: k < n <= 64 * diff.len(), so k / 64 < diff.len().
        diff[k / 64] &= !(1u64 << (k % 64));
        flips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::DeltaTracker;
    use qubo::Qubo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    #[test]
    fn reaches_target_in_hamming_distance_flips() {
        let q = random_qubo(50, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let target = BitVec::random(50, &mut rng);
        let mut t = DeltaTracker::new(&q);
        let hd = t.x().hamming(&target) as u64;
        let flips = straight_search(&mut t, &target);
        assert_eq!(flips, hd);
        assert_eq!(t.x(), &target);
        assert_eq!(t.energy(), q.energy(&target));
        t.verify();
    }

    #[test]
    fn noop_when_already_at_target() {
        let q = random_qubo(10, 3);
        let mut t = DeltaTracker::new(&q);
        let target = BitVec::zeros(10);
        assert_eq!(straight_search(&mut t, &target), 0);
        assert_eq!(t.flips(), 0);
    }

    #[test]
    fn energy_known_at_target_without_full_evaluation() {
        // The whole point: after a straight search the tracker knows
        // E(T) and all Δ_i(T) without any O(n²) work. Verify against the
        // reference on a chain of targets (Fig. 4's iterated pattern).
        let q = random_qubo(40, 4);
        let mut t = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let target = BitVec::random(40, &mut rng);
            straight_search(&mut t, &target);
            assert_eq!(t.energy(), q.energy(&target));
        }
        t.verify();
    }

    #[test]
    fn best_tracking_stays_active_during_walk() {
        // Somewhere on the walk (or its evaluated neighbourhood) there may
        // be a solution better than both endpoints; the tracker's best
        // must be at least as good as every intermediate solution.
        let q = random_qubo(30, 6);
        let mut t = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(7);
        let target = BitVec::random(30, &mut rng);
        straight_search(&mut t, &target);
        let (bx, be) = t.best();
        assert_eq!(be, q.energy(bx));
        assert!(be <= 0); // E(0) = 0 was visited
        assert!(be <= q.energy(&target));
    }

    #[test]
    fn greedy_choice_picks_min_delta_first() {
        // Two differing bits with distinct Δ: the lower-Δ one must be
        // flipped first.
        let q = Qubo::from_rows(2, &[[5, 0], [0, -9]]).unwrap();
        let mut t = DeltaTracker::new(&q);
        let target = BitVec::from_bit_str("11").unwrap();
        // Δ = (5, −9): bit 1 first.
        let e_after_first: i64;
        {
            // Peek by single-stepping: run straight_search one flip at a
            // time via a 1-differing-bit target.
            let mut probe = DeltaTracker::new(&q);
            straight_search(&mut probe, &BitVec::from_bit_str("01").unwrap());
            e_after_first = probe.energy();
        }
        straight_search(&mut t, &target);
        assert_eq!(e_after_first, -9, "min-Δ bit flipped first");
        assert_eq!(t.energy(), q.energy(&target));
    }

    #[test]
    #[should_panic(expected = "target length")]
    fn length_mismatch_panics() {
        let q = random_qubo(8, 8);
        let mut t = DeltaTracker::new(&q);
        let target = BitVec::zeros(9);
        let _ = straight_search(&mut t, &target);
    }
}

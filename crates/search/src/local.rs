//! The forced-flip local search driver (second loop of Algorithm 4).

use crate::policy::SelectionPolicy;
use crate::tracker::SearchTracker;

/// Runs `steps` forced flips from the tracker's current solution, choosing
/// each bit with `policy`. Returns the number of flips performed
/// (always `steps`; the count is returned for symmetry with
/// [`crate::straight_search`], whose length is data-dependent).
///
/// Best-solution tracking happens inside the tracker: every flip
/// evaluates all `n` neighbours of the new solution (Theorem 1), so the
/// search may discover — and record — solutions it never visits.
///
/// When the policy exposes its windows via
/// [`SelectionPolicy::next_window`] (the paper's window policy and the
/// greedy policy do), the loop runs *fused*: each step is one
/// [`SearchTracker::flip_select`] call, so the flip's Δ-update pass and
/// the next selection's window scan touch the Δ vector while it is hot,
/// and no full second traversal happens per flip. Policies without
/// windows (random, Metropolis) fall back to the classic
/// select-then-flip pair. The chosen flip sequence is bit-for-bit
/// identical either way.
///
/// Generic over [`SearchTracker`], so the same driver runs the dense
/// SIMD arm and the CSR O(degree) arm — both monomorphize to direct
/// calls on the concrete tracker.
///
/// The device runs this with a *fixed* number of flips per bulk-search
/// iteration (Step 4b), so that the resulting solution `C'` is a valid
/// known starting point for the next straight search and the O(1) search
/// efficiency is preserved across iterations (Fig. 4).
pub fn local_search<T: SearchTracker + ?Sized, P: SelectionPolicy + ?Sized>(
    tracker: &mut T,
    policy: &mut P,
    steps: usize,
) -> u64 {
    if steps == 0 {
        return 0;
    }
    let n = tracker.n();
    // Steady state holds one *pending* flip `k`: each iteration commits
    // it fused with the next selection. The first selection has no
    // pending flip and the last flip has no next selection.
    let mut k = match policy.next_window(n) {
        Some((a, l)) => tracker.select_in_window(a, l),
        None => policy.select(tracker.deltas(), tracker.x()),
    };
    for _ in 1..steps {
        k = match policy.next_window(n) {
            Some((a, l)) => tracker.flip_select(k, (a, l)),
            None => {
                tracker.flip(k);
                policy.select(tracker.deltas(), tracker.x())
            }
        };
    }
    tracker.flip(k);
    steps as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyPolicy, MetropolisPolicy, RandomPolicy, WindowMinPolicy};
    use crate::simd::FlipKernel;
    use crate::tracker::DeltaTracker;
    use qubo::{BitVec, Qubo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    #[test]
    fn runs_exactly_requested_steps() {
        let q = random_qubo(24, 1);
        let mut t = DeltaTracker::new(&q);
        let mut p = WindowMinPolicy::new(4);
        assert_eq!(local_search(&mut t, &mut p, 37), 37);
        assert_eq!(t.flips(), 37);
        t.verify();
    }

    #[test]
    fn greedy_descent_reaches_a_one_flip_local_minimum() {
        // Greedy forced flips oscillate at a local minimum (they must
        // flip something), but the *best* recorded solution must be
        // 1-flip optimal once enough steps have run.
        let q = random_qubo(16, 2);
        let mut t = DeltaTracker::new(&q);
        let mut p = GreedyPolicy;
        local_search(&mut t, &mut p, 400);
        let (bx, be) = t.best();
        assert_eq!(be, q.energy(bx));
        for i in 0..16 {
            assert!(
                q.energy(&bx.flipped(i)) >= be,
                "best is not 1-flip optimal at bit {i}"
            );
        }
    }

    #[test]
    fn window_search_improves_over_start() {
        let q = random_qubo(64, 3);
        let mut t = DeltaTracker::new(&q);
        let e0 = t.energy();
        let mut p = WindowMinPolicy::new(8);
        local_search(&mut t, &mut p, 1000);
        assert!(t.best().1 <= e0);
        t.verify();
    }

    #[test]
    fn deterministic_for_deterministic_policy() {
        let q = random_qubo(32, 4);
        let run = |steps: usize| -> (i64, BitVec) {
            let mut t = DeltaTracker::new(&q);
            let mut p = WindowMinPolicy::new(5);
            local_search(&mut t, &mut p, steps);
            let (bx, be) = t.best();
            (be, bx.clone())
        };
        assert_eq!(run(500), run(500));
    }

    #[test]
    fn zero_steps_is_a_no_op() {
        let q = random_qubo(8, 5);
        let mut t = DeltaTracker::new(&q);
        let before = t.x().clone();
        let mut p = GreedyPolicy;
        assert_eq!(local_search(&mut t, &mut p, 0), 0);
        assert_eq!(t.x(), &before);
    }

    /// The seed-era driver, kept as the reference for trajectory
    /// equivalence: select with the policy's two-call API, then flip.
    fn reference_local_search<P: SelectionPolicy>(
        tracker: &mut DeltaTracker<'_>,
        policy: &mut P,
        steps: usize,
    ) {
        for _ in 0..steps {
            let k = policy.select(tracker.deltas(), tracker.x());
            tracker.flip(k);
        }
    }

    #[test]
    fn fused_driver_matches_select_then_flip_reference() {
        for seed in 0..4u64 {
            let q = random_qubo(48, 10 + seed);
            for window in [1usize, 3, 8, 48, 100] {
                let mut tf = DeltaTracker::new(&q);
                let mut pf = WindowMinPolicy::new(window);
                local_search(&mut tf, &mut pf, 333);

                let mut tr = DeltaTracker::new(&q);
                let mut pr = WindowMinPolicy::new(window);
                reference_local_search(&mut tr, &mut pr, 333);

                assert_eq!(tf.x(), tr.x(), "window={window}");
                assert_eq!(tf.energy(), tr.energy());
                assert_eq!(tf.best().0, tr.best().0);
                assert_eq!(tf.best().1, tr.best().1);
                assert_eq!(tf.flips(), tr.flips());
                assert_eq!(pf.offset(), pr.offset());
                tf.verify();
            }
        }
    }

    #[test]
    fn fused_driver_matches_reference_for_greedy() {
        let q = random_qubo(32, 20);
        let mut tf = DeltaTracker::new(&q);
        local_search(&mut tf, &mut GreedyPolicy, 200);
        let mut tr = DeltaTracker::new(&q);
        reference_local_search(&mut tr, &mut GreedyPolicy, 200);
        assert_eq!(tf.x(), tr.x());
        assert_eq!(tf.best().1, tr.best().1);
    }

    #[test]
    fn windowless_policies_still_run_and_verify() {
        let q = random_qubo(24, 30);
        let mut t = DeltaTracker::new(&q);
        assert_eq!(local_search(&mut t, &mut RandomPolicy::new(9), 100), 100);
        t.verify();
        let mut t2 = DeltaTracker::new(&q);
        let mut mp = MetropolisPolicy::new(50.0, 0.99, 9);
        assert_eq!(local_search(&mut t2, &mut mp, 100), 100);
        t2.verify();
    }

    #[test]
    fn narrow_tracker_follows_the_same_trajectory() {
        // The dispatched lane arm and the scalar arm, driven through the
        // fused loop, walk the same solutions.
        let q = random_qubo(40, 40);
        let mut scalar = DeltaTracker::with_kernel(&q, FlipKernel::Scalar);
        let mut lanes = DeltaTracker::with_kernel(&q, FlipKernel::detect());
        let mut ps = WindowMinPolicy::new(6);
        let mut pl = WindowMinPolicy::new(6);
        local_search(&mut scalar, &mut ps, 500);
        local_search(&mut lanes, &mut pl, 500);
        assert_eq!(scalar.x(), lanes.x());
        assert_eq!(scalar.energy(), lanes.energy());
        assert_eq!(scalar.best().1, lanes.best().1);
        lanes.verify();
    }
}

//! Property-based equivalence tests for the fused flip kernel: the fused
//! single-pass path (`flip_select`, i32 accumulators, two-slice window
//! scan) must be bit-for-bit indistinguishable from the separate
//! select-then-flip formulation it replaced.

use proptest::prelude::*;
use qubo::{BitVec, Qubo};
use qubo_search::{
    local_search, window_argmin, DeltaTracker, FlipKernel, SelectionPolicy, WindowMinPolicy,
};

/// Strategy: a small random symmetric QUBO with weights spanning the full
/// i16 range, so Δ values exercise the upper region the i32 accumulators
/// must hold (`|Δ| ≤ 32768·(2n − 1)`, within i32 for every supported n).
fn arb_qubo(max_n: usize) -> impl Strategy<Value = Qubo> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(i16::MIN..=i16::MAX, n * (n + 1) / 2).prop_map(move |tri| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `flip_select(k, w)` ≡ `flip(k)` then scan window `w`: same chosen
    /// index, same state, same best record, at every step of a walk.
    #[test]
    fn fused_flip_select_equals_separate_calls(
        q in arb_qubo(24),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        let mut fused = DeltaTracker::new(&q);
        let mut twocall = DeltaTracker::new(&q);
        let mut k = (seed as usize) % n;
        let mut s = seed;
        for _ in 0..80 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (s >> 33) as usize % n;
            let l = 1 + (s as usize % n);
            let kf = fused.flip_select(k, (a, l));
            twocall.flip(k);
            let ks = twocall.select_in_window(a, l);
            prop_assert_eq!(kf, ks);
            prop_assert_eq!(fused.x(), twocall.x());
            prop_assert_eq!(fused.energy(), twocall.energy());
            prop_assert_eq!(fused.best().0, twocall.best().0);
            prop_assert_eq!(fused.best().1, twocall.best().1);
            k = kf;
        }
        fused.verify();
    }

    /// The fused `local_search` driver follows exactly the trajectory of
    /// the seed-era loop (`policy.select` then `tracker.flip`, one full
    /// Δ traversal each) for the paper's window policy.
    #[test]
    fn fused_local_search_matches_select_then_flip(
        q in arb_qubo(20),
        window in 1usize..32,
        offset in 0usize..32,
        steps in 0usize..120,
    ) {
        let n = q.n();
        let mut tf = DeltaTracker::new(&q);
        let mut pf = WindowMinPolicy::with_offset(window, offset % n);
        local_search(&mut tf, &mut pf, steps);

        let mut tr = DeltaTracker::new(&q);
        let mut pr = WindowMinPolicy::with_offset(window, offset % n);
        for _ in 0..steps {
            let k = pr.select(tr.deltas(), tr.x());
            tr.flip(k);
        }

        prop_assert_eq!(tf.x(), tr.x());
        prop_assert_eq!(tf.energy(), tr.energy());
        prop_assert_eq!(tf.best().0, tr.best().0);
        prop_assert_eq!(tf.best().1, tr.best().1);
        prop_assert_eq!(tf.flips(), tr.flips());
        prop_assert_eq!(pf.offset(), pr.offset());
        tf.verify();
    }

    /// The narrow (i32) tracker agrees with the wide (i64) reference,
    /// `Qubo::delta` and `Qubo::energy`, at every step of a walk —
    /// including on full-range weights where Δ values sit near the top
    /// of the i32 bound — and the scalar and dispatched arms walk
    /// identically.
    #[test]
    fn narrow_and_wide_accumulators_agree(
        q in arb_qubo(20),
        window in 1usize..16,
        steps in 1usize..150,
    ) {
        let n = q.n();
        let mut scalar = DeltaTracker::with_kernel(&q, FlipKernel::Scalar);
        let mut lanes = DeltaTracker::new(&q);
        let mut ps = WindowMinPolicy::new(window);
        let mut pl = WindowMinPolicy::new(window);
        for _ in 0..steps {
            local_search(&mut scalar, &mut ps, 1);
            local_search(&mut lanes, &mut pl, 1);
            prop_assert_eq!(scalar.x(), lanes.x());
            prop_assert_eq!(scalar.deltas(), lanes.deltas());
            prop_assert_eq!(scalar.best(), lanes.best());
            let x = lanes.x();
            prop_assert_eq!(lanes.energy(), q.energy(x));
            for i in 0..n {
                prop_assert_eq!(i64::from(lanes.deltas()[i]), q.delta(x, i));
            }
            let (bx, be) = lanes.best();
            prop_assert_eq!(be, q.energy(bx));
        }
    }

    /// The two-slice window scan equals the per-element `% n` modular
    /// scan, including first-wins tie-breaks, for arbitrary windows.
    #[test]
    fn two_slice_window_scan_matches_modular_scan(
        deltas in proptest::collection::vec(-50i32..=50, 1..40),
        start in 0usize..40,
        len in 1usize..50,
    ) {
        let n = deltas.len();
        let a = start % n;
        let got = window_argmin(&deltas, a, len);
        let l = len.min(n);
        let mut best_i = a;
        let mut best_d = deltas[a];
        for off in 1..l {
            let i = (a + off) % n;
            if deltas[i] < best_d {
                best_d = deltas[i];
                best_i = i;
            }
        }
        prop_assert_eq!(got, best_i);
    }

    /// Theorem 1 accounting stays consistent between the tracker and a
    /// straight walk: `evaluated() = (flips + 1)·(n + 1)` where flips is
    /// the Hamming distance walked.
    #[test]
    fn evaluated_accounting_matches_walk_length(
        q in arb_qubo(16),
        bits in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let n = q.n();
        let mut target = BitVec::zeros(n);
        for i in 0..n {
            if bits[i % bits.len()] {
                target.flip(i);
            }
        }
        let mut t = DeltaTracker::new(&q);
        let walked = qubo_search::straight_search(&mut t, &target);
        prop_assert_eq!(walked, target.count_ones() as u64);
        prop_assert_eq!(t.evaluated(), (walked + 1) * (n as u64 + 1));
    }
}

//! Property-based equivalence tests for the SIMD flip tier: the lane-wise
//! kernel (and its AVX2 / AVX-512 specializations, where the host
//! supports them) must be bit-for-bit indistinguishable from the scalar
//! fused `i32` path and from the O(n) definition
//! `Δ_k(X) = E(flip_k(X)) − E(X)` it maintains.
//!
//! The suite is kernel-explicit: every arm is constructed by name via
//! `DeltaTracker::with_kernel`, so running it with `ABS_FORCE_SCALAR=1`
//! (the CI weekly job does) still exercises both dispatch arms — only
//! the `detect()`-based default changes.

use proptest::prelude::*;
use qubo::Qubo;
use qubo_search::{DeltaTracker, FlipKernel};

/// Strategy: a small random symmetric QUBO with full-range i16 weights.
/// Sizes deliberately straddle the 8-wide chunk boundary (lane-multiple
/// and non-multiple `n`) so the masked tail path is always exercised.
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

/// The kernel arms available on this host: the portable pair always,
/// plus the intrinsic arms the CPU supports (checked directly, so the
/// suite covers them even when `detect()` is pinned by
/// `ABS_FORCE_SCALAR` or prefers a different arm).
fn arms() -> Vec<FlipKernel> {
    let mut v = vec![FlipKernel::Scalar, FlipKernel::Lanes];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(FlipKernel::Avx2);
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(FlipKernel::Avx512);
            }
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every kernel arm walks the identical trajectory through the fused
    /// flip+select path: same selections, same bits, same energies, same
    /// Δ vectors, same best records — at every step.
    #[test]
    fn all_kernel_arms_walk_identically(
        q in arb_qubo(37),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        let mut trackers: Vec<DeltaTracker<'_>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::with_kernel(&q, k))
            .collect();
        let mut k = (seed as usize) % n;
        let mut s = seed;
        for _ in 0..64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (s >> 33) as usize % n;
            let l = 1 + (s as usize % n);
            let picks: Vec<usize> = trackers
                .iter_mut()
                .map(|t| t.flip_select(k, (a, l)))
                .collect();
            for w in picks.windows(2) {
                prop_assert_eq!(w[0], w[1], "kernel arms disagree on selection");
            }
            let (head, rest) = trackers.split_first().expect("at least scalar");
            for t in rest {
                prop_assert_eq!(head.x(), t.x());
                prop_assert_eq!(head.energy(), t.energy());
                prop_assert_eq!(head.deltas(), t.deltas());
                prop_assert_eq!(head.best().0, t.best().0);
                prop_assert_eq!(head.best().1, t.best().1);
            }
            k = picks[0];
        }
        for t in &trackers {
            t.verify(); // Δ vector vs the O(n) oracle, pads intact
        }
    }

    /// The SIMD arms against the definition directly: after a walk, each
    /// maintained Δ entry equals the naive `E(flip_k(X)) − E(X)` recompute
    /// (the same oracle `naive.rs`'s Algorithm 2 evaluates per flip).
    #[test]
    fn maintained_deltas_match_the_naive_oracle(
        q in arb_qubo(29),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        for kernel in arms() {
            let mut t = DeltaTracker::with_kernel(&q, kernel);
            let mut s = seed;
            for _ in 0..32 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                t.flip((s >> 33) as usize % n);
            }
            prop_assert_eq!(t.energy(), q.energy(t.x()));
            for i in 0..n {
                prop_assert_eq!(i64::from(t.deltas()[i]), q.delta(t.x(), i));
            }
        }
    }

    /// Tail handling around the chunk width: for `n` spanning one full
    /// 8-lane chunk ±2, every arm agrees with the scalar arm and with the
    /// `Qubo::delta` / `Qubo::energy` reference at every step (the masked
    /// tail bits and padded sentinel entries must be inert).
    #[test]
    fn non_lane_multiple_sizes_keep_arms_identical(
        n in 6usize..=10,
        seed in any::<u64>(),
        weights in proptest::collection::vec(i16::MIN..=i16::MAX, 55),
    ) {
        let mut q = Qubo::zero(n).expect("size");
        let mut it = weights.into_iter().cycle();
        for i in 0..n {
            for j in i..n {
                q.set(i, j, it.next().expect("cycled"));
            }
        }
        let mut trackers: Vec<DeltaTracker<'_>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::with_kernel(&q, k))
            .collect();
        let mut s = seed;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (s >> 33) as usize % n;
            for t in &mut trackers {
                t.flip(k);
            }
            let (scalar, rest) = trackers.split_first().expect("scalar arm");
            let x = scalar.x();
            prop_assert_eq!(scalar.energy(), q.energy(x));
            for i in 0..n {
                prop_assert_eq!(i64::from(scalar.deltas()[i]), q.delta(x, i));
            }
            for t in rest {
                prop_assert_eq!(t.x(), x);
                prop_assert_eq!(t.energy(), scalar.energy());
                prop_assert_eq!(t.deltas(), scalar.deltas());
            }
        }
    }
}

/// Toward the i32 Δ bound: a dense max-magnitude problem drives every Δ
/// to the extreme its row allows; the ±2W branchless increments must
/// stay exact there in every arm (no intermediate wrap in
/// `(w2 ^ m) - m`), against the scalar arm and the `Qubo::delta` /
/// `Qubo::energy` reference at every step. (The bound itself, at
/// `n = MAX_BITS`, is reached by the CSR tracker's star-graph test.)
#[test]
fn extreme_weights_at_the_i32_bound_stay_exact() {
    for n in [8usize, 31, 33] {
        let mut q = Qubo::zero(n).expect("size");
        for i in 0..n {
            for j in i..n {
                // Alternate the two extremes so both signs of ±2W appear.
                let w = if (i + j) % 2 == 0 { i16::MAX } else { i16::MIN };
                q.set(i, j, w);
            }
        }
        let mut trackers: Vec<DeltaTracker<'_>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::with_kernel(&q, k))
            .collect();
        // All-ones then back: every coupling contributes at full weight.
        for _pass in 0..2 {
            for k in 0..n {
                for t in &mut trackers {
                    t.flip(k);
                }
                let (scalar, rest) = trackers.split_first().expect("scalar arm");
                let x = scalar.x();
                assert_eq!(scalar.energy(), q.energy(x));
                for i in 0..n {
                    assert_eq!(
                        i64::from(scalar.deltas()[i]),
                        q.delta(x, i),
                        "n={n} k={k} i={i}"
                    );
                }
                for t in rest {
                    assert_eq!(t.x(), x);
                    assert_eq!(t.energy(), scalar.energy());
                    assert_eq!(t.deltas(), scalar.deltas());
                }
            }
        }
        for t in &trackers {
            t.verify();
        }
    }
}

/// `ABS_FORCE_SCALAR` pins runtime dispatch to the scalar arm — the CI
/// weekly job sets it and re-runs this whole suite, so both dispatch
/// outcomes stay covered by the same tests.
#[test]
fn forced_scalar_pins_detection() {
    if std::env::var("ABS_FORCE_SCALAR").is_ok_and(|v| !v.is_empty()) {
        assert_eq!(FlipKernel::detect(), FlipKernel::Scalar);
    } else {
        assert_ne!(FlipKernel::detect(), FlipKernel::Scalar);
    }
}

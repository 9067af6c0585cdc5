//! Property-based equivalence tests for the straight search's selection
//! (Algorithm 5): every storage arm's dispatched walk
//! (`SearchTracker::straight_walk`, reached through `straight_search`)
//! must flip exactly the sequence of the bit-walk oracle
//! (`straight_search_reference`) — the leftmost minimum Δ among the
//! still-differing bits at every step. Tracker state after each walk is
//! compared bit for bit: solution, energy, Δ vector, best record, flips
//! and evaluated count.
//!
//! The dense arm runs on every flip kernel this CPU supports, chosen
//! through `DeltaTracker::with_kernel`; the CSR arm runs on the same
//! instance. Run under `ABS_FORCE_SCALAR=1` as well: the tests that
//! build trackers through `FlipKernel::detect` then cover the scalar
//! dispatch.

use proptest::prelude::*;
use qubo::{BitVec, Qubo, SparseQubo};
use qubo_search::{
    local_search, simd, straight_search, straight_search_reference, DeltaTracker, FlipKernel,
    SearchTracker, SparseDeltaTracker, WindowMinPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sizes around the 64-bit diff-word boundary (and two words past
/// it) that every property visits.
const EDGE_SIZES: [usize; 5] = [1, 63, 64, 65, 130];

/// Every flip kernel this CPU can run.
fn kernels() -> Vec<FlipKernel> {
    let mut k = vec![FlipKernel::Scalar, FlipKernel::Lanes];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        k.push(FlipKernel::Avx2);
        if is_x86_feature_detected!("avx512f") {
            k.push(FlipKernel::Avx512);
        }
    }
    k
}

/// A seeded instance with roughly `per_mille`/1000 of the couplers
/// present and a full diagonal; `per_mille == 0` gives the all-zero
/// matrix, where every Δ ties at 0 and only the leftmost rule decides.
fn instance(n: usize, per_mille: u64, seed: u64) -> Qubo {
    let mut q = Qubo::zero(n).expect("size");
    if per_mille == 0 {
        return q;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        for j in i..n {
            if i == j || rng.gen_range(0..1000) < per_mille {
                // Small alphabet: many equal Δ, so ties are common.
                q.set(i, j, rng.gen_range(-3i16..=3));
            }
        }
    }
    q
}

/// The kinds of target a walk is sent to.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A fresh random solution (Hamming distance ≈ n/2).
    Random,
    /// The tracker's own solution: a zero-length walk.
    Same,
    /// The tracker's solution with one bit flipped.
    OneBit,
}

fn make_target(kind: Target, x: &BitVec, rng: &mut StdRng) -> BitVec {
    let n = x.len();
    match kind {
        Target::Random => BitVec::random(n, rng),
        Target::Same => x.clone(),
        Target::OneBit => x.flipped(rng.gen_range(0..n)),
    }
}

fn assert_same_state<T: SearchTracker>(a: &T, b: &T, what: &str) {
    assert_eq!(a.x(), b.x(), "{what}: solution");
    assert_eq!(a.energy(), b.energy(), "{what}: energy");
    assert_eq!(a.deltas(), b.deltas(), "{what}: Δ vector");
    assert_eq!(a.best().0, b.best().0, "{what}: best solution");
    assert_eq!(a.best().1, b.best().1, "{what}: best energy");
    assert_eq!(a.flips(), b.flips(), "{what}: flips");
    assert_eq!(a.evaluated(), b.evaluated(), "{what}: evaluated");
    assert_eq!(a.work(), b.work(), "{what}: work");
}

/// Runs a chain of walks on `fast` (dispatched) and `slow` (bit-walk
/// oracle) in lock step, with `local_steps` forced flips between walks,
/// and checks the two trackers agree after every walk and every local
/// search.
fn lock_step<T: SearchTracker>(
    mut fast: T,
    mut slow: T,
    kinds: &[Target],
    local_steps: usize,
    seed: u64,
    what: &str,
) {
    let n = fast.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pf = WindowMinPolicy::new(n.div_ceil(8));
    let mut ps = WindowMinPolicy::new(n.div_ceil(8));
    for (step, &kind) in kinds.iter().enumerate() {
        let target = make_target(kind, fast.x(), &mut rng);
        let hd = fast.x().hamming(&target) as u64;
        let ff = straight_search(&mut fast, &target);
        let fs = straight_search_reference(&mut slow, &target);
        let tag = format!("{what} walk {step} ({kind:?})");
        assert_eq!(ff, hd, "{tag}: walk length");
        assert_eq!(fs, hd, "{tag}: oracle walk length");
        assert_eq!(fast.x(), &target, "{tag}: walk ends at the target");
        assert_same_state(&fast, &slow, &tag);
        local_search(&mut fast, &mut pf, local_steps);
        local_search(&mut slow, &mut ps, local_steps);
        assert_same_state(&fast, &slow, &format!("{tag} + local search"));
    }
    fast.verify();
}

/// Both arms on every supported kernel, lock-stepped against the oracle.
fn check_all_arms(q: &Qubo, kinds: &[Target], local_steps: usize, seed: u64) {
    let n = q.n();
    for kernel in kernels() {
        lock_step(
            DeltaTracker::with_kernel(q, kernel),
            DeltaTracker::with_kernel(q, kernel),
            kinds,
            local_steps,
            seed,
            &format!("dense {} n={n}", kernel.name()),
        );
    }
    let s = SparseQubo::from_dense(q);
    lock_step(
        SparseDeltaTracker::new(&s),
        SparseDeltaTracker::new(&s),
        kinds,
        local_steps,
        seed,
        &format!("csr n={n}"),
    );
    // Dense accounting: (flips + 1)·(n + 1) == evaluated after a walk.
    let mut t = DeltaTracker::new(q);
    let target = BitVec::random(n, &mut StdRng::seed_from_u64(seed));
    straight_search(&mut t, &target);
    assert_eq!(t.evaluated(), (t.flips() + 1) * (n as u64 + 1));
}

const MIXED: [Target; 6] = [
    Target::Random,
    Target::OneBit,
    Target::Same,
    Target::Random,
    Target::Random,
    Target::OneBit,
];

#[test]
fn edge_sizes_match_the_oracle_on_every_arm() {
    for (i, &n) in EDGE_SIZES.iter().enumerate() {
        for per_mille in [20u64, 300, 1000] {
            let q = instance(n, per_mille, 11 + i as u64);
            check_all_arms(&q, &MIXED, 3 * n, 100 + n as u64);
        }
    }
}

#[test]
fn all_zero_matrix_walks_leftmost_first() {
    // Every Δ is 0 at every step, so the leftmost rule alone picks each
    // flip. The tracker state cannot show the order (every solution has
    // E = 0), so the selection is also checked directly: the masked
    // argmin of an all-zero Δ is the lowest set bit.
    for &n in &EDGE_SIZES {
        let q = instance(n, 0, 0);
        check_all_arms(&q, &MIXED, n, 7);
        let d = vec![0i32; q.dense().stride()];
        let mut rng = StdRng::seed_from_u64(n as u64);
        for _ in 0..20 {
            let x = BitVec::random(n, &mut rng);
            let mut mask = vec![0u64; n.div_ceil(64)];
            x.diff_words_into(&BitVec::zeros(n), &mut mask);
            let first = x.iter_ones().next();
            assert_eq!(simd::masked_argmin(&d, &mask), first, "n={n}");
        }
    }
    // Zero diagonal with a few couplers: every Δ ties at the start, and
    // the order the ties resolve in changes the rest of the walk, so
    // the lock-stepped state does show a wrong tie-break.
    for &n in &EDGE_SIZES {
        let mut q = instance(n, 50, 13);
        for i in 0..n {
            q.set(i, i, 0);
        }
        check_all_arms(&q, &MIXED, n, 17);
    }
}

#[test]
fn single_bit_and_zero_length_walks() {
    for &n in &EDGE_SIZES {
        let q = instance(n, 500, 3);
        check_all_arms(&q, &[Target::Same, Target::OneBit, Target::Same], 0, 5);
    }
}

#[test]
fn detected_kernel_matches_the_oracle() {
    // Built through FlipKernel::detect, so an ABS_FORCE_SCALAR=1 run
    // checks the scalar dispatch here.
    let q = instance(200, 100, 9);
    lock_step(
        DeltaTracker::new(&q),
        DeltaTracker::new(&q),
        &MIXED,
        64,
        21,
        "dense detected",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sizes, densities and walk chains interleaved with local
    /// search: every arm walks the oracle's flip sequence.
    #[test]
    fn chains_of_walks_match_the_oracle(
        n in 1usize..=300,
        density in 0u64..=1000,
        local_steps in 0usize..=80,
        seed in any::<u64>(),
    ) {
        let q = instance(n, density, seed);
        let kinds: Vec<Target> = (0..5)
            .map(|i| match (seed >> (2 * i)) & 3 {
                0 => Target::OneBit,
                1 => Target::Same,
                _ => Target::Random,
            })
            .collect();
        check_all_arms(&q, &kinds, local_steps, seed);
    }
}

//! The straight search's walk (Algorithm 5) per storage arm: ns per
//! walk flip of the dispatched walk (`straight_search`, which runs the
//! arm's `SearchTracker::straight_walk`) against the bit-walk oracle
//! (`straight_search_reference`, O(HD) per step).
//!
//! Instances: dense random matrices at n ∈ {1024, 2048, 4096} on the
//! detected flip kernel; the same n = 2048 matrix on every other lane
//! kernel the CPU runs (`avx2`, `lanes`: those kernels run the flip and
//! then a separate masked argmin, where AVX-512 fuses the two) and
//! pinned to the `Scalar` kernel (whose dispatched walk *is* the bit
//! walk); and the G55 (n = 5000) and G70 (n = 10 000) Max-Cut stand-ins
//! on the CSR arm.
//!
//! Walks are what a device runs: bulk iterations against a real
//! `SolutionPool` and `TargetGenerator` — reset the best record, walk to
//! the generated target, 256 local-search flips (the device default),
//! report the best to the pool. The walks of a run's first [`WALKS`]
//! iterations are recorded as (start tracker, target) pairs (the
//! `early` window). The pool starts random, so the first walks cross
//! ~n/2 bits and later ones shorten (to ~n/4 by iteration 32 on the
//! dense instances) as searched solutions replace the random start.
//! The end-to-end benchmark's jobs sit in the early window: its traced
//! `gset-sparse` and `dense-rate` jobs finish within a few iterations
//! per block. One ungated `late` row, the detected kernel at n = 2048,
//! records the next [`WALKS`] iterations instead, so the shorter walks
//! of a long run stay tracked. Before any timing, both walks run each
//! recorded chain in lock step and must leave identical tracker state
//! after every walk.
//!
//! Timing is paired: each round times every recorded walk once per arm,
//! from a fresh copy of its start (the copy is not timed), alternating
//! which arm goes first, so host noise lands on both arms alike. A
//! walk's time is its best over the rounds; a row's ns per walk flip is
//! the sum of those bests over the sum of the walks' Hamming distances.
//! `CRITERION_SHIM_SCALE` shrinks the timing budget as it does for the
//! criterion-shim benches (at least [`MIN_ROUNDS`] rounds always run).
//!
//! `main` writes `BENCH_straight.json` at the repo root (override with
//! `BENCH_STRAIGHT_OUT`). Gates, all on early-window rows: the CSR walk
//! ≥ 5× the oracle at n = 5000; the dense walk on the detected kernel
//! ≥ 2× at n = 2048 when that kernel is AVX-512 or AVX2; the `Scalar`
//! arm within 1.02× of the oracle. The other rows are reported only.

use qubo::{BitVec, Qubo, SparseQubo};
use qubo_ga::{GaConfig, SolutionPool, TargetGenerator};
use qubo_problems::{gset, maxcut, random};
use qubo_search::{
    local_search, straight_search, straight_search_reference, DeltaTracker, FlipKernel,
    SearchTracker, SparseDeltaTracker, WindowMinPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pool capacity (`AbsConfig`'s default).
const POOL: usize = 64;
/// Local-search flips per iteration (`DeviceConfig`'s default).
const LOCAL_STEPS: usize = 256;
/// Bulk iterations recorded (and their walks timed) per case.
const WALKS: usize = 48;
/// Timing budget per case at `CRITERION_SHIM_SCALE = 1`.
const BUDGET: Duration = Duration::from_secs(2);
/// Timing rounds that run whatever the budget.
const MIN_ROUNDS: usize = 3;

/// A walk implementation: the dispatched one or the oracle.
type Walk<T> = fn(&mut T, &BitVec) -> u64;

/// One benched instance: its identity and both arms' timings.
struct Case {
    label: String,
    storage: &'static str,
    kernel: &'static str,
    /// Which bulk iterations' walks were recorded: `early` (the first
    /// [`WALKS`]) or `late` (the next [`WALKS`]).
    window: &'static str,
    n: usize,
    walks: usize,
    rounds: usize,
    /// Flips of one pass over the recorded walks (sum of their Hamming
    /// distances).
    flips: u64,
    reference_ns: f64,
    dispatched_ns: f64,
}

/// Runs a device's bulk iterations against a real pool and records the
/// walks of [`WALKS`] of them, after the first `skip`, as
/// `(start tracker, target)` pairs.
fn record_walks<T: SearchTracker + Clone>(t: &mut T, seed: u64, skip: usize) -> Vec<(T, BitVec)> {
    let n = t.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = SolutionPool::random(POOL, n, &mut rng);
    let mut gen = TargetGenerator::new(n, GaConfig::default(), seed ^ 0x5eed);
    let mut policy = WindowMinPolicy::new(n.div_ceil(8));
    let mut walks = Vec::with_capacity(WALKS);
    for iteration in 0..skip + WALKS {
        let target = gen.generate(&pool);
        t.reset_best();
        if iteration >= skip {
            walks.push((t.clone(), target.clone()));
        }
        straight_search(t, &target);
        local_search(t, &mut policy, LOCAL_STEPS);
        let (bx, be) = t.best();
        let _ = pool.insert(bx.clone(), be);
    }
    walks
}

/// The lock-step equality check: from the first recorded start, both
/// walks run the whole recorded chain (each walk followed by the same
/// local search), state compared after every walk.
fn sanity_check<T: SearchTracker + Clone>(walks: &[(T, BitVec)], label: &str) {
    let mut fast = walks[0].0.clone();
    let mut slow = walks[0].0.clone();
    let n = fast.n();
    let mut pf = WindowMinPolicy::new(n.div_ceil(8));
    let mut ps = WindowMinPolicy::new(n.div_ceil(8));
    for (i, (_, target)) in walks.iter().enumerate() {
        fast.reset_best();
        slow.reset_best();
        let ff = straight_search(&mut fast, target);
        let fs = straight_search_reference(&mut slow, target);
        let what = format!("{label} walk {i}");
        assert_eq!(ff, fs, "{what}: flips");
        assert_eq!(fast.x(), slow.x(), "{what}: solution");
        assert_eq!(fast.energy(), slow.energy(), "{what}: energy");
        assert_eq!(fast.deltas(), slow.deltas(), "{what}: Δ vector");
        assert_eq!(fast.best().0, slow.best().0, "{what}: best solution");
        assert_eq!(fast.best().1, slow.best().1, "{what}: best energy");
        assert_eq!(fast.evaluated(), slow.evaluated(), "{what}: evaluated");
        local_search(&mut fast, &mut pf, LOCAL_STEPS);
        local_search(&mut slow, &mut ps, LOCAL_STEPS);
    }
    fast.verify();
    println!(
        "sanity: {label}: dispatched and reference walks agree over {} walks",
        walks.len()
    );
}

/// One timed walk from a fresh copy of its start.
fn time_walk<T: SearchTracker + Clone>(start: &T, target: &BitVec, walk: Walk<T>) -> Duration {
    let mut t = start.clone();
    let t0 = Instant::now();
    black_box(walk(&mut t, black_box(target)));
    let dt = t0.elapsed();
    black_box(t.energy());
    dt
}

/// Paired timing (see the module docs): per walk, the best time over
/// the rounds for each arm. Returns `(reference, dispatched, rounds)`.
fn time_pairs<T: SearchTracker + Clone>(walks: &[(T, BitVec)]) -> (Duration, Duration, usize) {
    let arms: [Walk<T>; 2] = [straight_search_reference::<T>, straight_search::<T>];
    let mut best = vec![[Duration::MAX; 2]; walks.len()];
    let budget = abs_bench::scaled_budget(BUDGET);
    let clock = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || clock.elapsed() < budget {
        for (i, (start, target)) in walks.iter().enumerate() {
            let first = (i + rounds) % 2;
            for arm in [first, 1 - first] {
                // invariant: arm < 2 = arms.len() = best[i].len().
                let dt = time_walk(start, target, arms[arm]);
                best[i][arm] = best[i][arm].min(dt);
            }
        }
        rounds += 1;
    }
    let sum = |arm: usize| best.iter().map(|b| b[arm]).sum::<Duration>();
    (sum(0), sum(1), rounds)
}

/// Records a case's walks, lock-step checks them, then times both arms.
fn run_case<T: SearchTracker + Clone>(
    mut t: T,
    label: String,
    storage: &'static str,
    kernel: &'static str,
    window: &'static str,
    seed: u64,
) -> Case {
    let n = t.n();
    let skip = if window == "late" { WALKS } else { 0 };
    let walks = record_walks(&mut t, seed, skip);
    sanity_check(&walks, &label);
    let flips: u64 = walks.iter().map(|(s, x)| s.x().hamming(x) as u64).sum();
    let (reference, dispatched, rounds) = time_pairs(&walks);
    let per_flip = |d: Duration| d.as_nanos() as f64 / flips as f64;
    let case = Case {
        label,
        storage,
        kernel,
        window,
        n,
        walks: walks.len(),
        rounds,
        flips,
        reference_ns: per_flip(reference),
        dispatched_ns: per_flip(dispatched),
    };
    println!(
        "{:<22} {:>6} flips  reference {:>8.1} ns/flip  dispatched {:>8.1} ns/flip  ({} rounds)",
        case.label, case.flips, case.reference_ns, case.dispatched_ns, case.rounds
    );
    case
}

fn write_report(cases: &[Case]) {
    const CSR_GATE: f64 = 5.0; // CSR walk ≥ 5× the oracle at n = 5000
    const DENSE_GATE: f64 = 2.0; // dense walk ≥ 2× at n = 2048 (AVX-512 / AVX2)
    const SCALAR_GATE: f64 = 1.02; // Scalar arm within 1.02× of the oracle
    let detected = FlipKernel::detect();
    let dense_gated = matches!(detected, FlipKernel::Avx512 | FlipKernel::Avx2);
    let mut rows = Vec::new();
    let (mut csr_5000, mut dense_2048, mut scalar_ratio) = (f64::NAN, f64::NAN, f64::NAN);
    for case in cases {
        let speedup = case.reference_ns / case.dispatched_ns;
        match (case.window, case.storage, case.kernel, case.n) {
            ("early", "csr", _, 5000) => csr_5000 = speedup,
            ("early", "dense", "scalar", 2048) => {
                scalar_ratio = case.dispatched_ns / case.reference_ns;
            }
            ("early", "dense", k, 2048) if k == detected.name() => dense_2048 = speedup,
            _ => {}
        }
        rows.push(format!(
            "    {{\"instance\": \"{label}\", \"storage\": \"{storage}\", \"kernel\": \"{kernel}\", \
             \"window\": \"{window}\", \"n\": {n}, \"walks\": {w}, \"flips\": {f}, \"rounds\": {r}, \
             \"reference_ns_per_flip\": {reference:.1}, \"dispatched_ns_per_flip\": {dispatched:.1}, \
             \"speedup\": {speedup:.3}}}",
            label = case.label,
            storage = case.storage,
            kernel = case.kernel,
            window = case.window,
            n = case.n,
            w = case.walks,
            f = case.flips,
            r = case.rounds,
            reference = case.reference_ns,
            dispatched = case.dispatched_ns,
        ));
    }
    // NaN (an absent cell) must fail every gate, hence the explicit
    // is_nan arms instead of negated comparisons.
    let csr_pass = !csr_5000.is_nan() && csr_5000 >= CSR_GATE;
    let dense_pass = !dense_gated || (!dense_2048.is_nan() && dense_2048 >= DENSE_GATE);
    let scalar_pass = !scalar_ratio.is_nan() && scalar_ratio <= SCALAR_GATE;
    let pass = csr_pass && dense_pass && scalar_pass;
    let json = format!(
        "{{\n  \"bench\": \"straight_walk\",\n  \
         \"metric\": \"ns per walk flip: per-walk best of paired rounds, summed over recorded walks to GA targets\",\n  \
         \"simd_kernel\": \"{kernel}\",\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"gate\": {{\"min_speedup_csr_at_5000\": {CSR_GATE}, \
         \"min_speedup_dense_at_2048\": {DENSE_GATE}, \
         \"dense_gate_applies\": {dense_gated}, \
         \"max_scalar_ratio\": {SCALAR_GATE}, \
         \"speedup_csr_at_5000\": {csr_5000:.3}, \
         \"speedup_dense_at_2048\": {dense_2048:.3}, \
         \"scalar_ratio\": {scalar_ratio:.3}, \
         \"pass\": {pass}}}\n}}\n",
        kernel = detected.name(),
        rows = rows.join(",\n")
    );
    let path = std::env::var("BENCH_STRAIGHT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_straight.json").into()
    });
    std::fs::write(&path, &json).expect("write BENCH_straight.json");
    println!("wrote {path} (gate pass = {pass})");
}

/// A G-set stand-in on the CSR arm (Max-Cut encoding, no dense detour).
fn gset_csr(name: &str) -> SparseQubo {
    let inst = gset::instance(name).expect("catalogued instance");
    maxcut::to_sparse_qubo(&gset::generate_instance(inst, 1)).expect("G-set weights fit i16")
}

/// Every lane kernel this CPU runs (the `Scalar` arm is its own row).
fn lane_kernels() -> Vec<FlipKernel> {
    let mut k = vec![FlipKernel::Lanes];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        k.push(FlipKernel::Avx2);
        if is_x86_feature_detected!("avx512f") {
            k.push(FlipKernel::Avx512);
        }
    }
    k
}

fn main() {
    let mut cases = Vec::new();
    let kernel = FlipKernel::detect();
    let dense = |q: &Qubo, k: FlipKernel, window| {
        run_case(
            DeltaTracker::with_kernel(q, k),
            format!(
                "dense-{}-{}{}",
                q.n(),
                k.name(),
                if window == "late" { "-late" } else { "" }
            ),
            "dense",
            k.name(),
            window,
            q.n() as u64,
        )
    };
    for n in [1024usize, 2048, 4096] {
        // One dense matrix at a time, dropped before the next.
        let q: Qubo = random::generate(n, 1);
        cases.push(dense(&q, kernel, "early"));
        if n == 2048 {
            if kernel != FlipKernel::Scalar {
                for k in lane_kernels().into_iter().filter(|&k| k != kernel) {
                    cases.push(dense(&q, k, "early"));
                }
                cases.push(dense(&q, FlipKernel::Scalar, "early"));
            }
            cases.push(dense(&q, kernel, "late"));
        }
    }
    for name in ["G55", "G70"] {
        let s = gset_csr(name);
        let n = s.n();
        cases.push(run_case(
            SparseDeltaTracker::new(&s),
            format!("csr-{name}-{n}"),
            "csr",
            "csr",
            "early",
            n as u64,
        ));
    }
    write_report(&cases);
}

//! Dense O(n) vs sparse O(degree) fused flip+select across a density
//! sweep — the CPU-side trade-off the paper's GPU design sidesteps (a
//! GPU *wants* the dense row stream; a CPU core doesn't), and the
//! measurement behind `SPARSE_DENSITY_PER_MILLE`'s dispatch threshold.
//!
//! Both arms run the exact workload the vgpu block driver issues: a
//! fused `flip_select` under the window-min policy (ℓ = n/8). The dense
//! arm is the runtime-dispatched SIMD kernel (`DeltaTracker` +
//! [`FlipKernel::detect`]); the sparse arm is the CSR
//! `SparseDeltaTracker` with its bucketed window selection.
//!
//! After measuring, `main` writes the means and speedups to
//! `BENCH_sparse.json` at the repo root (override with
//! `BENCH_SPARSE_OUT`). Three gates at n = 4096:
//!
//! * sparse ≥ 10× the dense SIMD arm at 0.1% density (deg ≈ 4),
//! * sparse ≥ 4× the dense SIMD arm at 0.5% density (deg ≈ 20, the
//!   G-set degree regime), and
//! * the dense SIMD arm at 100% density within 1.02× of the committed
//!   `BENCH_flip.json` `simd` cell (same instance, same schedule) — the
//!   storage abstraction must not tax the dense path.
//!
//! The 0.5% gate is 4×, not the 10× a per-element count suggests: a
//! dense flip streams the row at ~0.14 ns/element through SIMD, while
//! a CSR flip pays ~2 ns per *random* Δ access — on this class of CPU
//! the measured floor of the raw Eq. (16) gather loop alone (no
//! summaries, no best records) already exceeds a tenth of the dense
//! arm at deg ≈ 20. The O(deg)/O(n) asymptotics win 10× only once
//! deg ≈ 4 (0.1%); the gates pin both points so neither regresses.

use criterion::{Bencher, BenchmarkId, Criterion, Throughput};
use qubo::{CouplingMatrix, Qubo, SparseQubo};
use qubo_problems::random;
use qubo_search::{
    DeltaTracker, FlipKernel, SearchTracker, SelectionPolicy, SparseDeltaTracker, WindowMinPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

/// Sweep points in per-mille of off-diagonal couplers present:
/// 0.1%, 0.5%, 2%, 10%, 50%, 100%.
const SWEEP: [u64; 6] = [1, 5, 20, 100, 500, 1000];

const N: usize = 4096;

/// Inverse of the upper-triangle enumeration `offset(i) + (j - i - 1)`
/// with `offset(i) = i(2n - i - 1)/2`: binary-search the row, then the
/// column falls out.
fn unpair(p: usize, n: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid * (2 * n - mid - 1) / 2 <= p {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo, lo + 1 + (p - lo * (2 * n - lo - 1) / 2))
}

/// A seeded instance with an *exact* coupler count: `per_mille`/1000 of
/// the n(n−1)/2 off-diagonal slots, sampled without replacement, plus a
/// fully populated diagonal. At 100% the flip_throughput instance is
/// reused verbatim so the dense-regression gate compares identical
/// workloads.
fn sweep_instance(n: usize, per_mille: u64, seed: u64) -> Qubo {
    if per_mille == 1000 {
        return random::generate(n, 1);
    }
    let max = n * (n - 1) / 2;
    let m = usize::try_from(max as u64 * per_mille / 1000).expect("fits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<u32> = (0..u32::try_from(max).expect("fits")).collect();
    // Partial Fisher–Yates: after m swaps the prefix is an exact
    // m-element sample of the pair space without replacement.
    for t in 0..m {
        let r = rng.gen_range(t..max);
        pairs.swap(t, r);
    }
    let mut q = Qubo::zero(n).expect("size");
    for &p in &pairs[..m] {
        let (i, j) = unpair(p as usize, n);
        let w = loop {
            let w: i16 = rng.gen_range(-64..=64);
            if w != 0 {
                break w;
            }
        };
        q.set(i, j, w);
    }
    for i in 0..n {
        q.set(i, i, rng.gen_range(-64..=64));
    }
    q
}

/// One fused flip+select per iteration under the shared window-min
/// schedule — the identical workload for both storage arms.
fn bench_tracker<T: SearchTracker>(b: &mut Bencher<'_>, t: &mut T, window: usize) {
    let n = t.n();
    let mut p = WindowMinPolicy::new(window);
    let (a, l) = p.next_window(n).expect("window policy");
    let mut k = t.select_in_window(a, l);
    b.iter(|| {
        let (a, l) = p.next_window(n).expect("window policy");
        k = t.flip_select(black_box(k), (a, l));
    });
}

/// Instance metadata carried from the per-density build to the report.
struct Cell {
    pm: u64,
    couplers: usize,
    density_per_mille: u64,
}

fn bench_sweep(c: &mut Criterion) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut g = c.benchmark_group("sparse_sweep");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let window = N / 8;
    for &pm in &SWEEP {
        // One instance at a time, dropped before the next density
        // point: each 32 MB dense matrix then lands in its own fresh
        // mapping, the same hugepage-friendly layout the committed
        // flip_throughput baseline measures against. (Keeping every
        // sweep instance live fragments the heap and taxed the dense
        // stream >15% in TLB misses alone.)
        let q = sweep_instance(N, pm, 0xABB5 + pm);
        let s = SparseQubo::from_dense(&q);
        // Two measurement passes per cell, separated by the other
        // arm's warmup + measurement: the report gates on the per-cell
        // minimum of the pass means, which rejects transient neighbour
        // load on shared hosts.
        for _pass in 0..2 {
            g.throughput(Throughput::Elements(1));
            g.bench_with_input(BenchmarkId::new("dense_simd", pm), &pm, |b, _| {
                let mut t = DeltaTracker::with_kernel(&q, FlipKernel::detect());
                bench_tracker(b, &mut t, window);
            });
            g.bench_with_input(BenchmarkId::new("sparse", pm), &pm, |b, _| {
                let mut t = SparseDeltaTracker::new(&s);
                bench_tracker(b, &mut t, window);
            });
        }
        cells.push(Cell {
            pm,
            couplers: s.nnz() / 2,
            density_per_mille: q.density_per_mille(),
        });
    }
    g.finish();
    cells
}

/// The two benched arms must walk the same trajectory — compare end
/// states after a few thousand fused steps before trusting the timings.
fn sanity_check(q: &Qubo, s: &SparseQubo) {
    let window = q.n() / 8;
    let steps = 5_000usize;
    let mut dense = DeltaTracker::with_kernel(q, FlipKernel::detect());
    let mut sparse = SparseDeltaTracker::new(s);
    let mut pd = WindowMinPolicy::new(window);
    let mut ps = WindowMinPolicy::new(window);
    let (a, l) = pd.next_window(q.n()).expect("window");
    let mut kd = dense.select_in_window(a, l);
    let (a, l) = ps.next_window(q.n()).expect("window");
    let mut ks = sparse.select_in_window(a, l);
    assert_eq!(kd, ks, "initial selection diverged");
    for _ in 0..steps {
        let (a, l) = pd.next_window(q.n()).expect("window");
        kd = dense.flip_select(kd, (a, l));
        let (a, l) = ps.next_window(q.n()).expect("window");
        ks = sparse.flip_select(ks, (a, l));
        assert_eq!(kd, ks, "selection diverged");
    }
    assert_eq!(dense.energy(), sparse.energy(), "energy diverged");
    assert_eq!(dense.best().1, sparse.best().1, "best energy diverged");
    assert_eq!(dense.x(), sparse.x(), "solution diverged");
    sparse.verify();
    println!(
        "sanity: dense simd({}) and sparse CSR agree after {steps} fused steps (E = {})",
        FlipKernel::detect().name(),
        dense.energy()
    );
}

fn mean_ns(c: &Criterion, name: &str) -> f64 {
    // Minimum over the measurement passes (NaN when the cell is absent,
    // which fails every gate comparison).
    c.results
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, m)| m.mean_ns)
        .fold(f64::NAN, f64::min)
}

/// The committed flip_throughput SIMD cell at n = 4096 — the baseline
/// the dense-regression gate compares against.
fn committed_simd_baseline() -> f64 {
    let path = std::env::var("BENCH_FLIP_BASELINE")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flip.json").into());
    let text = std::fs::read_to_string(&path).expect("read BENCH_flip.json");
    let v: serde_json::Value = serde_json::from_str(&text).expect("parse BENCH_flip.json");
    v["sizes"]
        .as_array()
        .expect("sizes array")
        .iter()
        .find(|row| row["n"].as_u64() == Some(N as u64))
        .and_then(|row| row["simd_ns"].as_f64())
        .expect("n = 4096 simd_ns cell")
}

fn write_report(c: &Criterion, cells: &[Cell]) {
    const SPARSE_GATE_1PM: f64 = 10.0; // sparse ≥ 10× dense SIMD at 0.1%
    const SPARSE_GATE_5PM: f64 = 4.0; // sparse ≥ 4× dense SIMD at 0.5%
    const DENSE_GATE: f64 = 1.02; // dense ≤ 1.02× the committed cell
    let kernel = FlipKernel::detect().name();
    let baseline = committed_simd_baseline();
    let mut rows = Vec::new();
    let mut pass = true;
    let mut crossover = 0u64;
    let mut dense_full = f64::NAN;
    for cell in cells {
        let pm = cell.pm;
        let dense = mean_ns(c, &format!("sparse_sweep/dense_simd/{pm}"));
        let sparse = mean_ns(c, &format!("sparse_sweep/sparse/{pm}"));
        let speedup = dense / sparse;
        if speedup >= 1.0 {
            crossover = crossover.max(pm);
        }
        // NaN (an absent cell) must fail the gate, hence the explicit
        // is_nan arms instead of negated comparisons.
        if pm == 1 && (speedup.is_nan() || speedup < SPARSE_GATE_1PM) {
            pass = false;
        }
        if pm == 5 && (speedup.is_nan() || speedup < SPARSE_GATE_5PM) {
            pass = false;
        }
        if pm == 1000 {
            dense_full = dense;
            if dense.is_nan() || dense > DENSE_GATE * baseline {
                pass = false;
            }
        }
        rows.push(format!(
            "    {{\"per_mille\": {pm}, \"couplers\": {cc}, \"density_per_mille\": {dpm}, \
             \"dense_simd_ns\": {dense:.1}, \"sparse_ns\": {sparse:.1}, \
             \"speedup_sparse\": {speedup:.3}}}",
            cc = cell.couplers,
            dpm = cell.density_per_mille
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"sparse_vs_dense\",\n  \"n\": {N},\n  \"policy\": \"window(n/8)\",\n  \
         \"metric\": \"mean ns per fused flip+select\",\n  \
         \"simd_kernel\": \"{kernel}\",\n  \
         \"densities\": [\n{rows}\n  ],\n  \
         \"crossover_per_mille\": {crossover},\n  \
         \"gate\": {{\"min_speedup_sparse_at_1pm\": {SPARSE_GATE_1PM}, \
         \"min_speedup_sparse_at_5pm\": {SPARSE_GATE_5PM}, \
         \"max_dense_regression\": {DENSE_GATE}, \
         \"dense_baseline_simd_ns\": {baseline:.1}, \
         \"dense_simd_ns_at_full\": {dense_full:.1}, \
         \"pass\": {pass}}}\n}}\n",
        rows = rows.join(",\n")
    );
    let path = std::env::var("BENCH_SPARSE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json").into());
    std::fs::write(&path, &json).expect("write BENCH_sparse.json");
    println!("wrote {path} (gate pass = {pass}, crossover \u{2264} {crossover}\u{2030})");
}

fn main() {
    // Lock-step the arms on the two sparsest (gated) instances before
    // trusting any timing; the instances are rebuilt for the sweep so
    // the benched allocations stay fresh (see `bench_sweep`).
    for pm in [1u64, 5] {
        let q = sweep_instance(N, pm, 0xABB5 + pm);
        let s = SparseQubo::from_dense(&q);
        sanity_check(&q, &s);
    }
    let mut c = Criterion::default();
    let cells = bench_sweep(&mut c);
    write_report(&c, &cells);
}

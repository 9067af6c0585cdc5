//! The hot kernel: one forced flip = one row scan updating all Δ plus
//! best tracking. Throughput here, times (n + 1), is the single-block
//! CPU search rate (the per-block analogue of Table 2).
//!
//! Three kernels are compared on identical walks (window policy, ℓ =
//! n/8):
//!
//! * `seed_i64` — the pre-fusion kernel: Eq. (16) update loop, then a
//!   *separate* full-array min pass for best tracking, then a windowed
//!   select with a per-element `% n`.
//! * `fused_i32` — the fused single-pass kernel with `i32`
//!   accumulators, pinned to the scalar arm (`FlipKernel::Scalar`) so
//!   the row keeps measuring the pre-SIMD baseline.
//! * `simd` — the runtime-dispatched lane-wise kernel
//!   ([`FlipKernel::detect`]: the AVX-512 mask-register arm where the
//!   CPU supports it, else the portable lane arm on builds that already
//!   target AVX2, else the AVX2 intrinsic arm, else portable lanes).
//!
//! Timing is paired: the three kernels walk the same trajectory, so
//! each round advances every kernel's walk by the same [`chunk`] of
//! flips, timed per kernel, rotating which kernel goes first. A burst of
//! host noise then lands on one round of every kernel alike instead of
//! on whichever kernel's whole measurement it happened to hit. A
//! kernel's ns per flip is its median over the rounds; a speedup is the
//! median of the per-round ratios. `CRITERION_SHIM_SCALE` shrinks the
//! timing budget (at least [`MIN_ROUNDS`] rounds always run).
//!
//! `main` writes the medians and speedups to `BENCH_flip.json` at the
//! repo root (override with `BENCH_FLIP_OUT`). The perf gates at
//! n ∈ {1024, 4096}: fused_i32 ≥ 1.3× seed, and simd ≥ 1.4× fused_i32.

use criterion::{BenchmarkId, Criterion, Throughput};
use qubo::{BitVec, DenseRows, Qubo};
use qubo_problems::random;
use qubo_search::{DeltaTracker, FlipKernel, SelectionPolicy, WindowMinPolicy};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Paired-timing budget per problem size at `CRITERION_SHIM_SCALE = 1`.
const BUDGET: Duration = Duration::from_secs(3);
/// Timing rounds that run whatever the budget.
const MIN_ROUNDS: usize = 5;
/// Kernel names, in report order.
const KERNELS: [&str; 3] = ["seed_i64", "fused_i32", "simd"];

/// Faithful reproduction of the pre-fusion flip path: the Δ update, the
/// best-neighbour min, and the window selection each traverse the Δ
/// vector (or window) separately, and the window scan indexes with a
/// per-element `% n`. Kept inline here as the benchmark baseline.
struct SeedKernel<'a> {
    rows: &'a DenseRows,
    x: BitVec,
    sign: Vec<i8>,
    e: i64,
    d: Vec<i64>,
    best: BitVec,
    best_e: i64,
    offset: usize,
    window: usize,
}

impl<'a> SeedKernel<'a> {
    fn new(qubo: &'a Qubo, window: usize) -> Self {
        let rows = qubo.dense();
        let n = rows.n();
        let d: Vec<i64> = (0..n).map(|i| i64::from(rows.diag(i))).collect();
        let x = BitVec::zeros(n);
        let mut k = Self {
            rows,
            best: x.clone(),
            x,
            sign: vec![1i8; n],
            e: 0,
            d,
            best_e: 0,
            offset: 0,
            window: window.max(1),
        };
        if let Some((i, &min_d)) = k.d.iter().enumerate().min_by_key(|&(_, &v)| v) {
            if min_d < 0 {
                k.best.flip(i);
                k.best_e = min_d;
            }
        }
        k
    }

    fn select(&mut self) -> usize {
        let n = self.d.len();
        let l = self.window.min(n);
        let a = self.offset % n;
        let mut best_i = a;
        let mut best_d = self.d[a];
        for off in 1..l {
            let i = (a + off) % n;
            if self.d[i] < best_d {
                best_d = self.d[i];
                best_i = i;
            }
        }
        self.offset = (a + l) % n;
        best_i
    }

    fn flip(&mut self, k: usize) {
        let row = self.rows.row(k);
        let d_k_old = self.d[k];
        let e_new = self.e + d_k_old;
        let two_pk = i32::from(self.sign[k]) * 2;
        for ((di, &w), &s) in self.d.iter_mut().zip(row).zip(&self.sign) {
            *di += i64::from(i32::from(w) * i32::from(s) * two_pk);
        }
        self.d[k] = -d_k_old;
        self.sign[k] = -self.sign[k];
        self.x.flip(k);
        self.e = e_new;
        if e_new < self.best_e {
            self.best.copy_from(&self.x);
            self.best_e = e_new;
        }
        let min_d = self.d.iter().copied().min().expect("non-empty");
        if e_new + min_d < self.best_e {
            let i = self.d.iter().position(|&v| v == min_d).expect("exists");
            self.best.copy_from(&self.x);
            self.best.flip(i);
            self.best_e = e_new + min_d;
        }
    }
}

/// One kernel's window-policy walk, advanced a given number of flips
/// per call.
type Walk<'a> = Box<dyn FnMut(usize) + 'a>;

fn seed_walk(q: &Qubo, window: usize) -> Walk<'_> {
    let mut kern = SeedKernel::new(q, window);
    Box::new(move |flips| {
        for _ in 0..flips {
            let k = kern.select();
            kern.flip(black_box(k));
        }
    })
}

fn fused_walk(q: &Qubo, window: usize, kernel: FlipKernel) -> Walk<'_> {
    let n = q.n();
    let mut t = DeltaTracker::with_kernel(q, kernel);
    let mut p = WindowMinPolicy::new(window);
    let (a, l) = p.next_window(n).expect("window policy");
    let mut k = t.select_in_window(a, l);
    Box::new(move |flips| {
        for _ in 0..flips {
            let (a, l) = p.next_window(n).expect("window policy");
            k = t.flip_select(black_box(k), (a, l));
        }
    })
}

/// Flips per round: about 2²⁰ row elements, so a round of the slowest
/// kernel stays near a millisecond at every size.
fn chunk(n: usize) -> usize {
    (1 << 20) / n
}

/// One size's paired measurement: per-kernel ns per flip of every round.
struct Paired {
    n: usize,
    rounds: Vec<[f64; 3]>,
}

impl Paired {
    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// Median ns per flip of kernel `k`.
    fn ns(&self, k: usize) -> f64 {
        Self::median(self.rounds.iter().map(|r| r[k]).collect())
    }

    /// Median over the rounds of `slow`'s time over `fast`'s.
    fn speedup(&self, slow: usize, fast: usize) -> f64 {
        Self::median(self.rounds.iter().map(|r| r[slow] / r[fast]).collect())
    }
}

/// Times the three kernels' walks at size `n` in paired rounds (see the
/// module docs), after one untimed warm-up chunk each.
fn time_paired(n: usize) -> Paired {
    let q = random::generate(n, 1);
    let window = n / 8;
    // One shared instance: the walks read the same rows in the same
    // order, so every kernel finds the walk's rows as warm as it would
    // running alone (separate copies would evict each other's rows at
    // n = 4096 and time DRAM instead). The rotation spreads the cost of
    // the rows a round first reaches over the kernels.
    let mut walks = [
        seed_walk(&q, window),
        fused_walk(&q, window, FlipKernel::Scalar),
        fused_walk(&q, window, FlipKernel::detect()),
    ];
    let flips = chunk(n);
    for walk in &mut walks {
        walk(flips);
    }
    let budget = abs_bench::scaled_budget(BUDGET);
    let clock = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || clock.elapsed() < budget {
        let mut ns = [0.0; 3];
        for i in 0..3 {
            let k = (i + rounds.len()) % 3;
            let t0 = Instant::now();
            walks[k](flips);
            ns[k] = t0.elapsed().as_nanos() as f64 / flips as f64;
        }
        rounds.push(ns);
    }
    let p = Paired { n, rounds };
    for (k, name) in KERNELS.iter().enumerate() {
        println!(
            "tracker_flip/{name}/{n:<5} {:>9.1} ns/flip (median of {} paired rounds)",
            p.ns(k),
            p.rounds.len()
        );
    }
    p
}

fn bench_straight_step(c: &mut Criterion) {
    // One straight-search selection + flip at a large Hamming distance.
    let mut g = c.benchmark_group("straight_step");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [1024usize, 4096] {
        let q = random::generate(n, 2);
        g.throughput(Throughput::Elements((n as u64) + 1));
        g.bench_with_input(BenchmarkId::new("greedy_diff_min", n), &n, |b, _| {
            let mut t = DeltaTracker::new(&q);
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(3);
            let target = qubo::BitVec::random(n, &mut rng);
            b.iter(|| {
                // Pick and flip the min-Δ differing bit; when exhausted,
                // flip toward a fresh far-away point by inverting target
                // membership — keeps distance high without reallocation.
                let mut best: Option<(usize, i32)> = None;
                for i in t.x().iter_diff(&target) {
                    let d = t.deltas()[i];
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                match best {
                    Some((k, _)) => t.flip(k),
                    None => t.flip(0),
                }
                black_box(t.energy());
            });
        });
    }
    g.finish();
}

/// The three kernels must walk the same trajectory — compare end states
/// after a few thousand flips before trusting the timings.
fn sanity_check() {
    let n = 256;
    let q = random::generate(n, 1);
    let window = n / 8;
    let flips = 5_000usize;

    let mut seed = SeedKernel::new(&q, window);
    for _ in 0..flips {
        let k = seed.select();
        seed.flip(k);
    }

    fn run_fused(q: &Qubo, window: usize, flips: usize, kernel: FlipKernel) -> (i64, i64, BitVec) {
        let mut t = DeltaTracker::with_kernel(q, kernel);
        let mut p = WindowMinPolicy::new(window);
        for _ in 0..flips {
            let (a, l) = p.next_window(q.n()).expect("window");
            let k = t.select_in_window(a, l);
            t.flip(k);
        }
        (t.energy(), t.best().1, t.x().clone())
    }

    let (e32, b32, x32) = run_fused(&q, window, flips, FlipKernel::Scalar);
    let (es, bs, xs) = run_fused(&q, window, flips, FlipKernel::detect());
    assert_eq!(seed.e, e32, "fused i32 diverged from the seed kernel");
    assert_eq!(seed.best_e, b32, "fused i32 best diverged");
    assert_eq!(seed.x, x32, "fused i32 solution diverged");
    assert_eq!(e32, es, "simd energy diverged from scalar i32");
    assert_eq!(b32, bs, "simd best diverged from scalar i32");
    assert_eq!(x32, xs, "simd solution diverged from scalar i32");
    println!(
        "sanity: seed, fused_i32, simd({}) agree after {flips} flips (E = {e32})",
        FlipKernel::detect().name()
    );
}

fn write_report(sizes: &[Paired]) {
    const GATE: f64 = 1.3;
    const SIMD_GATE: f64 = 1.4;
    let gate_sizes = [1024usize, 4096];
    let kernel = FlipKernel::detect().name();
    let mut rows = Vec::new();
    let mut pass = true;
    for p in sizes {
        let n = p.n;
        let (seed, f32_ns, simd_ns) = (p.ns(0), p.ns(1), p.ns(2));
        let s32 = p.speedup(0, 1);
        let ssimd = p.speedup(1, 2);
        if gate_sizes.contains(&n) && (s32 < GATE || ssimd < SIMD_GATE) {
            pass = false;
        }
        rows.push(format!(
            "    {{\"n\": {n}, \"window\": {w}, \"rounds\": {r}, \"seed_i64_ns\": {seed:.1}, \
             \"fused_i32_ns\": {f32_ns:.1}, \"simd_ns\": {simd_ns:.1}, \
             \"speedup_fused_i32\": {s32:.3}, \
             \"speedup_simd_vs_fused_i32\": {ssimd:.3}}}",
            w = n / 8,
            r = p.rounds.len()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"flip_throughput\",\n  \"policy\": \"window(n/8)\",\n  \
         \"metric\": \"median ns per flip over paired rounds (one flip evaluates n+1 solutions); \
         speedups are medians of per-round ratios\",\n  \
         \"simd_kernel\": \"{kernel}\",\n  \
         \"sizes\": [\n{rows}\n  ],\n  \
         \"gate\": {{\"min_speedup_fused_i32\": {GATE}, \
         \"min_speedup_simd_vs_fused_i32\": {SIMD_GATE}, \"sizes\": [1024, 4096], \
         \"pass\": {pass}}}\n}}\n",
        rows = rows.join(",\n")
    );
    let path = std::env::var("BENCH_FLIP_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flip.json").into());
    std::fs::write(&path, &json).expect("write BENCH_flip.json");
    println!("wrote {path} (gate pass = {pass})");
}

fn main() {
    sanity_check();
    let sizes: Vec<Paired> = [256usize, 1024, 4096]
        .into_iter()
        .map(time_paired)
        .collect();
    let mut c = Criterion::default();
    bench_straight_step(&mut c);
    write_report(&sizes);
}

//! Cost of the instrumented device hot path: one `bulk_iteration`
//! (straight search to a target + fixed local search) with the telemetry
//! event ring enabled vs disabled.
//!
//! Telemetry records one event per straight walk through a pre-allocated
//! overwrite-oldest ring — no clocks, no allocation, one short critical
//! section per bulk iteration (thousands of flips). The gate asserts the
//! instrumented path stays within 2% of the uninstrumented one, so the
//! observability subsystem can never quietly tax the search rate the
//! paper's Table 2 reproduction depends on.
//!
//! After measuring, `main` writes the means and on/off ratios to
//! `BENCH_telemetry.json` at the repo root (override with
//! `BENCH_TELEMETRY_OUT`).

use criterion::{Bencher, BenchmarkId, Criterion, Throughput};
use qubo::{BitVec, Qubo};
use qubo_problems::random;
use qubo_search::FlipKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use vgpu::{BlockConfig, BlockRunner, GlobalMem, PolicyKind};

const LOCAL_STEPS: usize = 256;
const TARGET_CAP: usize = 4;
const RESULT_CAP: usize = 64;

fn cfg(n: usize) -> BlockConfig {
    BlockConfig {
        local_steps: LOCAL_STEPS,
        window: (n / 8).max(1),
        offset: 0,
        adaptive: None,
        policy: PolicyKind::Window,
        kernel: FlipKernel::detect(),
    }
}

/// One bulk iteration per measured iteration: push a target, walk to it,
/// local-search, store the record. `event_capacity = 0` disables the
/// ring without changing anything else, so both arms run the identical
/// flip trajectory (telemetry is write-only).
fn bench_iteration(b: &mut Bencher<'_>, q: &Qubo, event_capacity: usize) {
    let n = q.n();
    let mem = GlobalMem::with_capacities(TARGET_CAP, RESULT_CAP, event_capacity);
    let mut runner = BlockRunner::dense(q, cfg(n));
    let mut rng = StdRng::seed_from_u64(11);
    let target = BitVec::random(n, &mut rng);
    b.iter(|| {
        mem.push_target(target.clone());
        let flips = runner.bulk_iteration(black_box(&mem));
        black_box(mem.drain_results());
        black_box(flips)
    });
}

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    for n in [1024usize, 4096] {
        let q = random::generate(n, 1);
        g.throughput(Throughput::Elements(LOCAL_STEPS as u64));
        g.bench_with_input(BenchmarkId::new("events_off", n), &n, |b, _| {
            bench_iteration(b, &q, 0);
        });
        g.bench_with_input(BenchmarkId::new("events_on", n), &n, |b, _| {
            bench_iteration(b, &q, vgpu::DEFAULT_EVENT_CAPACITY);
        });
    }
    g.finish();
}

/// Telemetry must be write-only: the instrumented and uninstrumented
/// runners must walk the identical trajectory.
fn sanity_check() {
    let n = 512;
    let q = random::generate(n, 1);
    let mut rng = StdRng::seed_from_u64(11);
    let targets: Vec<BitVec> = (0..20).map(|_| BitVec::random(n, &mut rng)).collect();

    let run = |event_capacity: usize| -> (u64, i64) {
        let mem = GlobalMem::with_capacities(TARGET_CAP, RESULT_CAP, event_capacity);
        let mut runner = BlockRunner::dense(&q, cfg(n));
        let mut flips = 0u64;
        for t in &targets {
            mem.push_target(t.clone());
            flips += runner.bulk_iteration(&mem);
            let _ = mem.drain_results();
        }
        (flips, runner.tracker().best().1)
    };

    let (flips_off, best_off) = run(0);
    let (flips_on, best_on) = run(vgpu::DEFAULT_EVENT_CAPACITY);
    assert_eq!(flips_off, flips_on, "telemetry perturbed the flip count");
    assert_eq!(best_off, best_on, "telemetry perturbed the search result");
    println!("sanity: events on/off trajectories agree ({flips_on} flips, best {best_on})");
}

fn measurement(c: &Criterion, name: &str) -> (f64, f64) {
    c.results
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, m)| (m.mean_ns, m.min_ns))
        .unwrap_or((f64::NAN, f64::NAN))
}

fn write_report(c: &Criterion) {
    // Gate on the fastest observed batch of each arm: both arms run the
    // identical flip trajectory, so min-vs-min isolates the telemetry
    // cost from scheduler and frequency noise that the means absorb.
    const GATE: f64 = 1.02;
    let mut rows = Vec::new();
    let mut pass = true;
    for n in [1024usize, 4096] {
        let (off_mean, off_min) = measurement(c, &format!("telemetry_overhead/events_off/{n}"));
        let (on_mean, on_min) = measurement(c, &format!("telemetry_overhead/events_on/{n}"));
        let ratio = on_min / off_min;
        if ratio > GATE {
            pass = false;
        }
        rows.push(format!(
            "    {{\"n\": {n}, \"local_steps\": {LOCAL_STEPS}, \
             \"events_off_mean_ns\": {off_mean:.1}, \"events_on_mean_ns\": {on_mean:.1}, \
             \"events_off_min_ns\": {off_min:.1}, \"events_on_min_ns\": {on_min:.1}, \
             \"overhead_ratio_min\": {ratio:.4}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \
         \"metric\": \"mean ns per bulk iteration (straight walk + {LOCAL_STEPS}-flip local search)\",\n  \
         \"sizes\": [\n{rows}\n  ],\n  \
         \"gate\": {{\"max_overhead_ratio\": {GATE}, \"sizes\": [1024, 4096], \
         \"pass\": {pass}}}\n}}\n",
        rows = rows.join(",\n")
    );
    let path = std::env::var("BENCH_TELEMETRY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json").into()
    });
    std::fs::write(&path, &json).expect("write BENCH_telemetry.json");
    println!("wrote {path} (gate pass = {pass})");
}

fn main() {
    sanity_check();
    let mut c = Criterion::default();
    bench_overhead(&mut c);
    write_report(&c);
}

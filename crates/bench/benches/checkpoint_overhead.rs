//! Cost of crash-safe sessions: a full solve driven through the
//! [`abs::AbsSession`] poll loop with checkpointing configured at a 1 s
//! stride vs no checkpointing at all, plus the cost of one explicit
//! checkpoint publish (quiesce → encode → fsync → rotate → rename).
//!
//! The gate asserts two things, both ≤ 1.02×:
//! * `stride_ratio` — min solve time with the 1 s stride armed over min
//!   solve time without (the per-poll stride bookkeeping, since these
//!   sub-second solves never reach the stride);
//! * `projected_ratio` — `1 + write_min_ns / 1e9`, the worst-case share
//!   of each wall-clock second one checkpoint publish would consume at
//!   the 1 s stride.
//!
//! After measuring, `main` writes the means and ratios to
//! `BENCH_checkpoint.json` at the repo root (override with
//! `BENCH_CHECKPOINT_OUT`).

use abs::{AbsConfig, AbsSession, SessionStatus, StopCondition};
use criterion::{Bencher, BenchmarkId, Criterion, Throughput};
use qubo_problems::random;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 256;
const FLIPS_BUDGET: u64 = 30_000;
const STRIDE: Duration = Duration::from_secs(1);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abs-bench-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.ckpt"))
}

fn config(ckpt: Option<PathBuf>) -> AbsConfig {
    let mut cfg = AbsConfig::small();
    cfg.seed = 7;
    cfg.stop = StopCondition::flips(FLIPS_BUDGET);
    if let Some(path) = ckpt {
        cfg.checkpoint.out = Some(path);
        cfg.checkpoint.interval = Some(STRIDE);
    }
    cfg
}

/// One full session solve per measured iteration.
fn bench_solve(b: &mut Bencher<'_>, q: &Arc<qubo::Qubo>, ckpt: Option<PathBuf>) {
    b.iter(|| {
        let cfg = config(ckpt.clone());
        let r = AbsSession::start(cfg, black_box(q))
            .expect("start")
            .run_to_completion()
            .expect("solve");
        black_box(r.total_flips)
    });
}

/// One checkpoint publish per measured iteration, on a live session:
/// quiesce every device, snapshot, encode, fsync, rotate, rename.
fn bench_write(b: &mut Bencher<'_>, session: &mut AbsSession) {
    b.iter(|| {
        session.checkpoint_now().expect("checkpoint");
        black_box(session.generation())
    });
}

fn bench_overhead(c: &mut Criterion) {
    let q = Arc::new(random::generate(N, 1));
    let mut g = c.benchmark_group("checkpoint_overhead");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    g.throughput(Throughput::Elements(FLIPS_BUDGET));
    g.bench_with_input(BenchmarkId::new("ckpt_off", N), &N, |b, _| {
        bench_solve(b, &q, None);
    });
    g.bench_with_input(BenchmarkId::new("ckpt_on_1s", N), &N, |b, _| {
        bench_solve(b, &q, Some(scratch("stride")));
    });

    // The publish path, measured on a warmed-up live session.
    let mut cfg = config(Some(scratch("write")));
    cfg.stop = StopCondition::timeout(Duration::from_secs(600));
    let mut session = AbsSession::start(cfg, &q).expect("start");
    for _ in 0..50 {
        assert_eq!(session.poll().expect("poll"), SessionStatus::Running);
    }
    g.bench_with_input(BenchmarkId::new("write", N), &N, |b, _| {
        bench_write(b, &mut session);
    });
    g.finish();
    drop(session.stop().expect("stop"));
}

/// Checkpointing must be write-only for the result: with and without a
/// stride armed, the same seed reaches the same flips budget with an
/// exact audited energy.
fn sanity_check() {
    let q = Arc::new(random::generate(N, 1));
    let off = AbsSession::start(config(None), &q)
        .expect("start")
        .run_to_completion()
        .expect("solve");
    let on = AbsSession::start(config(Some(scratch("sanity"))), &q)
        .expect("start")
        .run_to_completion()
        .expect("solve");
    assert_eq!(off.best_energy, q.energy(&off.best));
    assert_eq!(on.best_energy, q.energy(&on.best));
    assert!(off.total_flips >= FLIPS_BUDGET && on.total_flips >= FLIPS_BUDGET);
    println!(
        "sanity: both arms reached the flips budget (off {} / on {})",
        off.total_flips, on.total_flips
    );
}

fn measurement(c: &Criterion, name: &str) -> (f64, f64) {
    c.results
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, m)| (m.mean_ns, m.min_ns))
        .unwrap_or((f64::NAN, f64::NAN))
}

fn write_report(c: &Criterion) {
    // Min-vs-min, like the telemetry gate: both solve arms run the same
    // seeded workload, so the minima isolate the stride cost from
    // scheduler and frequency noise.
    const GATE: f64 = 1.02;
    let (off_mean, off_min) = measurement(c, &format!("checkpoint_overhead/ckpt_off/{N}"));
    let (on_mean, on_min) = measurement(c, &format!("checkpoint_overhead/ckpt_on_1s/{N}"));
    let (write_mean, write_min) = measurement(c, &format!("checkpoint_overhead/write/{N}"));
    let stride_ratio = on_min / off_min;
    let projected_ratio = 1.0 + write_min / 1e9;
    let pass = stride_ratio <= GATE && projected_ratio <= GATE;
    let json = format!(
        "{{\n  \"bench\": \"checkpoint_overhead\",\n  \
         \"metric\": \"ns per {FLIPS_BUDGET}-flip session solve (n = {N}) and ns per checkpoint publish\",\n  \
         \"solve\": {{\"ckpt_off_mean_ns\": {off_mean:.1}, \"ckpt_on_1s_mean_ns\": {on_mean:.1}, \
         \"ckpt_off_min_ns\": {off_min:.1}, \"ckpt_on_1s_min_ns\": {on_min:.1}, \
         \"stride_ratio_min\": {stride_ratio:.4}}},\n  \
         \"publish\": {{\"write_mean_ns\": {write_mean:.1}, \"write_min_ns\": {write_min:.1}, \
         \"projected_ratio_at_1s\": {projected_ratio:.4}}},\n  \
         \"gate\": {{\"max_overhead_ratio\": {GATE}, \"stride\": \"1s\", \"pass\": {pass}}}\n}}\n"
    );
    let path = std::env::var("BENCH_CHECKPOINT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checkpoint.json").into()
    });
    std::fs::write(&path, &json).expect("write BENCH_checkpoint.json");
    println!("wrote {path} (gate pass = {pass})");
}

fn main() {
    sanity_check();
    let mut c = Criterion::default();
    bench_overhead(&mut c);
    write_report(&c);
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("abs-bench-ckpt-{}", std::process::id())),
    );
}

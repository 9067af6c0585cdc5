//! The cost of knowing an energy: O(n²) from-scratch evaluation
//! (Eq. (1)) vs O(n) incremental arrival by straight search — the gap
//! the whole paper is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qubo::BitVec;
use qubo_problems::random;
use qubo_search::{straight_search, DeltaTracker};
use std::hint::black_box;
use std::time::Duration;

fn bench_energy_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("energy_of_target");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [512usize, 2048] {
        let q = random::generate(n, 1);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(2);
        let target = BitVec::random(n, &mut rng);

        // From scratch: the O(n²) double sum every naive GA × local
        // search restart would pay — and it prices exactly ONE solution.
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("from_scratch_On2", n), &n, |b, _| {
            b.iter(|| black_box(q.energy(&target)));
        });

        // Incremental: walk there by straight search (O(HD·n)), getting
        // E *and* the full Δ vector *and* HD·(n+1) evaluated solutions —
        // compare elem/s, not raw time: this is Theorem 1 in the flesh.
        let hd = target.count_ones() as u64;
        g.throughput(Throughput::Elements(hd * (n as u64 + 1)));
        g.bench_with_input(BenchmarkId::new("straight_search_OHDn", n), &n, |b, _| {
            b.iter(|| {
                let mut t = DeltaTracker::new(&q);
                straight_search(&mut t, &target);
                black_box(t.energy())
            });
        });

        // Single delta lookup once tracked: O(1).
        let tracker = DeltaTracker::at(&q, &target);
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("tracked_delta_O1", n), &n, |b, _| {
            let mut k = 0usize;
            b.iter(|| {
                k = (k + 1) % n;
                black_box(tracker.energy() + i64::from(tracker.deltas()[k]))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_energy_paths);
criterion_main!(benches);

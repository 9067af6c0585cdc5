//! The telemetry subsystem against the rest of the workspace: exact
//! agreement between the metrics snapshot and the solve result, the
//! aggregator's evaluated-count accounting vs a manually driven block,
//! and the Theorem 1 search-efficiency gauge.

use abs::{Abs, AbsConfig, AbsSession, StopCondition};
use abs_telemetry::{Aggregator, DeviceSample, HostSample};
use qubo::BitVec;
use qubo_search::DeltaTracker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use vgpu::{BlockConfig, BlockRunner, GlobalMem, PolicyKind};

fn solve(n: usize, seed: u64) -> abs::SolveResult {
    let problem = qubo_problems::random::generate(n, seed);
    let mut config = AbsConfig::small();
    config.seed = seed;
    config.stop = StopCondition::flips(150_000);
    Abs::new(config)
        .expect("valid config")
        .solve(&problem)
        .expect("solve")
}

#[test]
fn snapshot_totals_equal_solve_result_fields_exactly() {
    let r = solve(64, 3);
    let m = &r.metrics;
    assert_eq!(m.counter_total("abs_flips_total"), r.total_flips);
    assert_eq!(m.counter_total("abs_evaluated_total"), r.evaluated);
    assert_eq!(m.counter_total("abs_iterations_total"), r.iterations);
    assert_eq!(
        m.counter_total("abs_results_received_total"),
        r.results_received
    );
    assert_eq!(
        m.counter_total("abs_results_inserted_total"),
        r.results_inserted
    );
    assert_eq!(
        m.counter_total("abs_rejected_records_total"),
        r.rejected_records
    );
    assert_eq!(
        m.counter_total("abs_requeued_targets_total"),
        r.requeued_targets
    );
    // The rate gauge is computed from the identical (evaluated, elapsed)
    // pair the result uses, so it matches bit-for-bit, not within eps.
    assert_eq!(m.gauge("abs_search_rate"), Some(r.search_rate));
    // Pool accounting: every received record was inserted, counted as a
    // duplicate, or rejected as worse. The initial random fill also goes
    // through insert(), adding pool_size (32 in the small preset) seed
    // operations on top of the received records.
    let ops = m.counter_total("abs_pool_ops_total");
    let seeded = 32u64;
    assert_eq!(
        ops,
        r.results_received - m.counter_total("abs_host_rejected_total") + seeded
    );
    assert_eq!(
        m.counter_with("abs_pool_ops_total", "op", "inserted"),
        Some(r.results_inserted + seeded)
    );
}

/// The same exact agreement after an *early* `stop()`: the session must
/// drain the device event rings before the final snapshot, so cutting a
/// run short never leaves the metrics behind the scalar result.
#[test]
fn snapshot_totals_equal_solve_result_fields_after_early_stop() {
    let problem = std::sync::Arc::new(qubo_problems::random::generate(64, 7));
    let mut config = AbsConfig::small();
    config.seed = 7;
    config.stop = StopCondition::flips(u64::MAX); // never met: we stop it
    let mut session = AbsSession::start(config, &problem).expect("start");
    // At least 40 rounds, and on until a device has reported a finished
    // iteration (whose straight walk is then in its event ring) — on one
    // CPU the device threads may not have run at all after 40 yields.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut rounds = 0;
    while rounds < 40 || session.best().is_none() {
        session.poll().expect("poll");
        rounds += 1;
        assert!(Instant::now() < deadline, "no device reported in 20 s");
    }
    let r = session.stop().expect("stop");
    let m = &r.metrics;
    assert_eq!(m.counter_total("abs_flips_total"), r.total_flips);
    assert_eq!(m.counter_total("abs_evaluated_total"), r.evaluated);
    assert_eq!(m.counter_total("abs_iterations_total"), r.iterations);
    assert_eq!(
        m.counter_total("abs_results_received_total"),
        r.results_received
    );
    assert_eq!(
        m.counter_total("abs_results_inserted_total"),
        r.results_inserted
    );
    assert_eq!(m.gauge("abs_search_rate"), Some(r.search_rate));
    // The early-stopped accounting is still exact, not merely agreeing:
    // the dense Theorem-1 projection holds at the quiesced counters.
    assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 65);
    // Event histograms came along in the final drain.
    let walks = m
        .histogram("abs_straight_walk_length")
        .expect("walk histogram");
    assert!(walks.count > 0, "early stop dropped the event rings");
}

#[test]
fn event_histograms_are_populated_and_walks_are_bounded() {
    let r = solve(64, 5);
    let walks = r
        .metrics
        .histogram("abs_straight_walk_length")
        .expect("walk histogram");
    assert!(walks.count > 0, "no straight walks recorded");
    // A straight walk's length is the Hamming distance to the target,
    // bounded by n (§3.1).
    assert!(walks.sum <= walks.count * 64);
    let windows = r
        .metrics
        .histogram("abs_window_length")
        .expect("window histogram");
    assert!(windows.count > 0, "no window assignments recorded");
}

/// Theorem 1: work per evaluated solution is O(1) — the efficiency
/// gauge must sit just below 1 and stay flat as n grows.
#[test]
fn search_efficiency_gauge_is_flat_across_n() {
    let mut effs = Vec::new();
    for n in [64usize, 128, 256] {
        let r = solve(n, 11);
        let eff = r
            .metrics
            .gauge("abs_search_efficiency")
            .expect("efficiency gauge");
        let expected = n as f64 / (n as f64 + 1.0);
        assert!(
            eff > 0.0 && eff <= 1.0,
            "efficiency out of range at n={n}: {eff}"
        );
        // The solver's evaluated count adds live search units on top of
        // flips, so the gauge sits at or below n/(n+1), but within a few
        // percent of it once the flip budget dwarfs the unit count.
        assert!(
            eff <= expected + 1e-9 && eff > 0.9 * expected,
            "efficiency far from n/(n+1) at n={n}: {eff} vs {expected}"
        );
        effs.push(eff);
    }
    let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = effs.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max - min < 0.05,
        "efficiency not flat across n: {effs:?} (Theorem 1 says O(1))"
    );
}

/// The aggregator's evaluated accounting against a manually driven
/// block: `(flips + units) * (n + 1)` with the tracker's own counters.
#[test]
fn aggregator_evaluated_matches_delta_tracker() {
    let n = 48;
    let q = qubo_problems::random::generate(n, 2);
    let mem = GlobalMem::with_capacities(4, 16, 128);
    let mut runner = BlockRunner::dense(
        &q,
        BlockConfig {
            local_steps: 100,
            window: 8,
            offset: 0,
            adaptive: None,
            policy: PolicyKind::Window,
            kernel: qubo_search::FlipKernel::detect(),
        },
    );
    let mut rng = StdRng::seed_from_u64(9);
    let mut flips = 0u64;
    for _ in 0..5 {
        mem.push_target(BitVec::random(n, &mut rng));
        flips += runner.bulk_iteration(&mem);
    }
    mem.add_units(1);

    let mut agg = Aggregator::new(1, n);
    agg.poll(
        &[DeviceSample {
            flips: mem.total_flips(),
            units: mem.total_units(),
            evaluated: mem.total_evaluated(n),
            storage: mem.matrix_storage_name(),
            iterations: mem.total_iterations(),
            results: mem.counter(),
            rejected_records: 0,
            dropped_targets: 0,
            overflow_results: 0,
            dead_blocks: 0,
            total_blocks: 1,
            health: "healthy",
            kernel: mem.flip_kernel_name(),
            events: mem.drain_events().events,
            events_written: 0,
            events_overwritten: 0,
        }],
        &HostSample {
            elapsed_secs: 1.0,
            ..HostSample::default()
        },
    );
    let snap = agg.snapshot();

    // The tracker's own ledger: evaluated() counts (flips + 1) * (n+1)
    // for the one live unit this block represents.
    let tracker: &DeltaTracker<'_> = runner.tracker();
    assert_eq!(tracker.flips(), flips);
    assert_eq!(mem.total_flips(), flips);
    assert_eq!(
        snap.counter_total("abs_evaluated_total"),
        tracker.evaluated(),
        "aggregator evaluated must equal the tracker's ledger"
    );
    assert_eq!(
        snap.counter_total("abs_telemetry_events_total"),
        0,
        "written counter passed as 0 in this hand-built sample"
    );
    // One straight-walk event per target.
    let walks = snap
        .histogram("abs_straight_walk_length")
        .expect("walk histogram");
    assert_eq!(walks.count, 5);
}

#[test]
fn periodic_metrics_file_appears_during_the_run() {
    let dir = std::env::temp_dir().join("abs-integration-telemetry");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("periodic.prom");
    let _ = std::fs::remove_file(&path);
    let problem = qubo_problems::random::generate(64, 13);
    let mut config = AbsConfig::small();
    config.stop = StopCondition::timeout(Duration::from_millis(300));
    config.metrics.out = Some(path.clone());
    config.metrics.interval = Some(Duration::from_millis(30));
    let _ = Abs::new(config)
        .expect("valid config")
        .solve(&problem)
        .expect("solve");
    let text = std::fs::read_to_string(&path).expect("periodic metrics file");
    let samples = abs_telemetry::expose::parse_prometheus(&text).expect("valid Prometheus text");
    assert!(samples > 10);
}

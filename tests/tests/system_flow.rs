//! End-to-end system tests: the full Fig. 5 flow — host GA, target and
//! solution buffers, asynchronous blocks — on real problems.

use abs::{Abs, AbsConfig, StopCondition};
use qubo::{BitVec, Qubo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use vgpu::{BlockConfig, BlockRunner, GlobalMem};

fn random_qubo(n: usize, seed: u64) -> Qubo {
    let mut rng = StdRng::seed_from_u64(seed);
    Qubo::random(n, &mut rng)
}

#[test]
fn abs_reaches_exact_optimum_on_18_bits() {
    let q = random_qubo(18, 1);
    let truth = qubo_baselines::exact::solve(&q);
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::target(truth.best_energy).with_timeout(Duration::from_secs(30));
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(r.reached_target, "ABS missed optimum {}", truth.best_energy);
    assert_eq!(r.best_energy, truth.best_energy);
    assert_eq!(r.best_energy, q.energy(&r.best));
}

#[test]
fn abs_beats_every_baseline_at_matched_budget() {
    // One modest budget, one harder instance: ABS (GA + bulk forced-flip
    // search) should match or beat SA, tabu, greedy, and random.
    let q = random_qubo(192, 2);
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::flips(400_000);
    let abs_r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");

    let sa = qubo_baselines::sa::solve(
        &q,
        &qubo_baselines::sa::SaConfig::for_instance(&q, 400_000, 3),
    );
    let tabu = qubo_baselines::tabu::solve(
        &q,
        &qubo_baselines::tabu::TabuConfig {
            tenure: 16,
            steps: 50_000,
            seed: 3,
        },
    );
    let greedy = qubo_baselines::greedy::solve(&q, 40, 3);
    let random = qubo_baselines::random::solve(&q, 5_000, 3);

    assert!(abs_r.best_energy <= sa.best_energy, "lost to SA");
    assert!(
        abs_r.best_energy <= tabu.best_energy * 99 / 100,
        "far behind tabu"
    );
    assert!(abs_r.best_energy <= greedy.best_energy, "lost to greedy");
    assert!(abs_r.best_energy < random.best_energy, "lost to random!");
}

#[test]
fn host_device_flow_through_global_memory() {
    // Drive the §3 protocol by hand: host seeds targets, a block consumes
    // them, the host polls the counter and drains — no direct coupling.
    let q = random_qubo(40, 4);
    let mem = Arc::new(GlobalMem::new());
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..3 {
        mem.push_target(BitVec::random(40, &mut rng));
    }
    let mut block = BlockRunner::dense(
        &q,
        BlockConfig {
            local_steps: 64,
            window: 8,
            offset: 0,
            adaptive: None,
            policy: vgpu::PolicyKind::Window,
            kernel: qubo_search::FlipKernel::detect(),
        },
    );
    assert_eq!(mem.counter(), 0);
    for expect in 1..=3u64 {
        block.bulk_iteration(&mem);
        assert_eq!(mem.counter(), expect);
    }
    assert_eq!(mem.pending_targets(), 0);
    let results = mem.drain_results();
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.energy, q.energy(&r.x), "device-reported energy exact");
    }
    // Straight searches + 3 × 64 local flips were all accounted.
    assert!(mem.total_flips() >= 3 * 64);
}

#[test]
fn multi_device_results_all_flow_to_one_pool() {
    let q = random_qubo(64, 6);
    let mut cfg = AbsConfig::small();
    cfg.machine.num_devices = 4;
    cfg.machine.device.blocks_override = Some(2);
    cfg.stop = StopCondition::flips(80_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(r.results_received >= 8, "every device must report");
    assert_eq!(r.best_energy, q.energy(&r.best));
}

#[test]
fn search_rate_accounting_is_consistent() {
    let n = 100;
    let q = random_qubo(n, 7);
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::flips(30_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    // n + 1 evaluations per flip *and* per initialized search unit —
    // the same projection as `GlobalMem::total_evaluated`, so a
    // quarantined unit would leave the numerator (none here).
    assert_eq!(
        r.evaluated,
        (r.total_flips + r.search_units) * (n as u64 + 1)
    );
    let implied = r.evaluated as f64 / r.elapsed.as_secs_f64();
    let rel = (r.search_rate - implied).abs() / implied;
    assert!(
        rel < 1e-6,
        "search_rate inconsistent with evaluated/elapsed"
    );
}

#[test]
fn repeated_solves_with_one_solver_are_independent() {
    let q1 = random_qubo(32, 8);
    let q2 = random_qubo(32, 9);
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::flips(20_000);
    let solver = Abs::new(cfg).expect("valid config");
    let r1 = solver.solve(&q1).expect("solve");
    let r2 = solver.solve(&q2).expect("solve");
    assert_eq!(r1.best_energy, q1.energy(&r1.best));
    assert_eq!(r2.best_energy, q2.energy(&r2.best));
}

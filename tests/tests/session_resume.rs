//! End-to-end crash/resume determinism: on a small instance whose true
//! optimum is known by exhaustive enumeration (`qubo_baselines::exact`),
//! a straight solve-to-completion and a checkpoint-then-resume solve
//! must *both* land on that optimum, with exact audited energies,
//! monotone improvement histories, and exact cumulative accounting
//! across the process-boundary simulation.

use abs::{AbsConfig, AbsSession, SessionStatus, StopCondition};
use std::time::Duration;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("abs-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("session.ckpt")
}

fn assert_monotone_history(r: &abs::SolveResult) {
    for w in r.history.windows(2) {
        assert!(
            w[1].energy < w[0].energy,
            "history must strictly improve: {:?}",
            r.history
        );
        assert!(
            w[1].elapsed_ns >= w[0].elapsed_ns,
            "history timestamps must be cumulative across resumes: {:?}",
            r.history
        );
    }
}

#[test]
fn straight_and_resumed_solves_both_reach_the_brute_force_optimum() {
    let q = std::sync::Arc::new(qubo_problems::random::generate(14, 11));
    let optimum = qubo_baselines::exact::solve(&q).best_energy;

    // Arm 1: one uninterrupted session, run to the known optimum.
    let mut cfg = AbsConfig::small();
    cfg.seed = 11;
    cfg.stop = StopCondition::target(optimum).with_timeout(Duration::from_secs(30));
    let straight = AbsSession::start(cfg.clone(), &q)
        .expect("start")
        .run_to_completion()
        .expect("solve");
    assert!(straight.reached_target, "straight run missed the optimum");
    assert_eq!(straight.best_energy, optimum);
    assert_eq!(q.energy(&straight.best), optimum, "energy must audit");
    assert_monotone_history(&straight);

    // Arm 2: same seed, but the first life is cut short right after a
    // checkpoint; the second life resumes from disk and finishes.
    let ckpt = temp_path("determinism");
    let mut first_cfg = cfg.clone();
    first_cfg.checkpoint.out = Some(ckpt.clone());
    first_cfg.stop = StopCondition::flips(3_000); // stop well short of done
    let mut session = AbsSession::start(first_cfg, &q).expect("start");
    while session.poll().expect("poll") == SessionStatus::Running {}
    session.checkpoint_now().expect("checkpoint");
    assert_eq!(session.generation(), 1);
    let partial = session.stop().expect("stop");
    assert_eq!(q.energy(&partial.best), partial.best_energy);

    let mut resume_cfg = cfg;
    resume_cfg.checkpoint.out = Some(ckpt.clone());
    let resumed = AbsSession::resume(resume_cfg, &q, &ckpt)
        .expect("resume")
        .run_to_completion()
        .expect("solve");
    assert!(resumed.reached_target, "resumed run missed the optimum");
    assert_eq!(resumed.best_energy, optimum);
    assert_eq!(q.energy(&resumed.best), optimum, "energy must audit");
    assert_monotone_history(&resumed);

    // Cumulative exactness across the resume: the telemetry totals and
    // the scalar result agree, and the dense Theorem-1 projection holds
    // for the combined lives (baseline units + re-registered blocks).
    assert_eq!(
        resumed.metrics.counter_total("abs_flips_total"),
        resumed.total_flips
    );
    assert_eq!(
        resumed.evaluated,
        (resumed.total_flips + resumed.search_units) * (q.n() as u64 + 1)
    );
    assert!(
        resumed.total_flips >= 3_000,
        "accounting must be cumulative"
    );

    let _ = std::fs::remove_dir_all(ckpt.parent().unwrap());
}

#[test]
fn resume_is_reproducible_from_the_same_checkpoint() {
    // Two resumes from the *same* frozen checkpoint restore identical
    // host state: same pool, same RNG streams, same incumbent.
    let q = std::sync::Arc::new(qubo_problems::random::generate(24, 5));
    let mut cfg = AbsConfig::small();
    cfg.seed = 5;
    let ckpt = temp_path("replay");
    let mut first_cfg = cfg.clone();
    first_cfg.checkpoint.out = Some(ckpt.clone());
    first_cfg.stop = StopCondition::flips(5_000);
    let mut session = AbsSession::start(first_cfg, &q).expect("start");
    while session.poll().expect("poll") == SessionStatus::Running {}
    session.checkpoint_now().expect("checkpoint");
    drop(session.stop().expect("stop"));

    let restore = || {
        let mut c = cfg.clone();
        c.stop = StopCondition::flips(5_001); // already met: stop at once
        let session = AbsSession::resume(c, &q, &ckpt).expect("resume");
        // The baseline alone: `total_flips` adds the live device
        // counters, which move as soon as the resumed machine starts.
        let flips = session.baseline_flips();
        let r = session.run_to_completion().expect("solve");
        (flips, r.best, r.best_energy, r.results_inserted)
    };
    let a = restore();
    let b = restore();
    assert_eq!(a.0, b.0, "restored flip baseline must be identical");
    let saved: u64 = abs::load_checkpoint(&ckpt, None)
        .expect("checkpoint loads")
        .0
        .devices
        .iter()
        .map(|d| d.flips)
        .sum();
    assert_eq!(a.0, saved, "the baseline is the checkpoint's flip count");
    assert_eq!(a.1, b.1, "restored incumbent must be identical");
    assert_eq!(a.2, b.2);
    assert_eq!(q.energy(&a.1), a.2, "restored best must audit exactly");

    let _ = std::fs::remove_dir_all(ckpt.parent().unwrap());
}

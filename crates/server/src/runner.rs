//! The solver workers: N threads, each driving one live
//! [`abs::AbsSession`] at a time over a shared [`vgpu::DevicePool`].
//!
//! The paper's host drives a single bulk-search machine; PR 9 kept
//! that shape (one worker, whole machine). This runner generalises it:
//! jobs are claimed off the bounded queue in FIFO order by a small
//! pool of workers, and each claimed job *leases* its device/block
//! geometry from the shared pool before its session starts — N
//! concurrent sessions, bounded by pool capacity, each on its own
//! freshly-allocated `GlobalMem` regions (isolation is structural; see
//! `vgpu::pool`). Every lease is acquired and released in exactly one
//! place in this file — the `pool-lease-discipline` lint rule holds us
//! to that.
//!
//! Before leasing, the worker digests the instance
//! ([`qubo::Qubo::content_hash`]) and consults the shared
//! [`abs::ProblemCache`]: a repeat submission reuses the cached decoded
//! matrix and seeds the GA pool from the best solutions of earlier
//! solves, so it starts from incumbents, not random bits. Finished
//! jobs record their best back into the cache.
//!
//! A worker owns every phase transition out of `Running` for the jobs
//! it claims:
//!
//! * a stop condition (or watchdog deadline with an incumbent) ends the
//!   job `done`;
//! * a poll error — including a refused checkpoint write, which
//!   [`abs::AbsSession::poll`] surfaces as `Err(Checkpoint)` — ends it
//!   `failed` with the reason in the status body;
//! * a `DELETE`-flagged cancel is honoured at the next poll round,
//!   keeping the partial result;
//! * a drain checkpoints the session to the spool and parks the job
//!   `interrupted` for `--resume-jobs`.
//!
//! Between poll rounds the worker appends progress events (monotone
//! best energy — it reads the session incumbent, which only improves)
//! and publishes the live aggregator snapshot for `GET /metrics`
//! (last writer wins across workers).

use crate::job::{JobId, JobPhase, JobResult, JobStore, ProgressEvent};
use crate::metrics::ServerMetrics;
use crate::spec::JobSpec;
use crate::spool;
use abs::{AbsConfig, AbsSession, ProblemCache, SessionStatus, SolveResult, StopCondition};
use qubo::{ContentHash, Qubo};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vgpu::{DevicePool, LeaseRequest, PoolConfig};

/// Progress-event / live-metrics cadence while a job runs.
const EVENT_STRIDE: Duration = Duration::from_millis(100);
/// Default spool checkpoint stride when the job does not pick one.
const DEFAULT_CKPT_INTERVAL: Duration = Duration::from_millis(250);
/// Distinct instances the warm-start cache retains (LRU beyond this).
pub const CACHE_CAPACITY: usize = 64;

/// Scheduling state shared by every solver worker: the device pool
/// capacity is leased from and the content-addressed warm-start cache.
pub struct Scheduler {
    /// Shared device/block capacity.
    pub pool: Arc<DevicePool>,
    /// Warm-start cache keyed by instance digest.
    pub cache: Arc<ProblemCache>,
}

impl Scheduler {
    /// Builds the shared scheduler for a server instance.
    #[must_use]
    pub fn new(pool_config: PoolConfig) -> Arc<Self> {
        Arc::new(Self {
            pool: Arc::new(DevicePool::new(pool_config)),
            cache: Arc::new(ProblemCache::new(CACHE_CAPACITY)),
        })
    }
}

/// Spawns solver worker `index`. Each worker exits when the store
/// drains.
pub fn spawn(
    store: Arc<JobStore>,
    metrics: Arc<ServerMetrics>,
    spool_dir: Option<PathBuf>,
    scheduler: Arc<Scheduler>,
    index: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("abs-solver-{index}"))
        .spawn(move || worker_loop(&store, &metrics, spool_dir.as_deref(), &scheduler))
        .unwrap_or_else(|e| panic!("spawning solver worker {index} failed: {e}"))
}

fn worker_loop(
    store: &JobStore,
    metrics: &ServerMetrics,
    spool_dir: Option<&Path>,
    scheduler: &Scheduler,
) {
    while let Some(id) = store.claim_next() {
        metrics.job_started();
        metrics.queue_depth.set(store.queue_len() as f64);
        run_job(store, metrics, spool_dir, scheduler, id);
        metrics.job_finished();
        metrics.queue_depth.set(store.queue_len() as f64);
    }
}

/// Maps a job spec onto a solver configuration. Public to the crate so
/// the acceptance suite's bit-for-bit twin uses literally this mapping.
/// The pool grants exactly this geometry whenever its per-job budget
/// allows (the default server pool's budget is its whole capacity), so
/// a leased session is the same session a direct run would build.
#[must_use]
pub fn solver_config(spec: &JobSpec, ckpt_out: Option<PathBuf>) -> AbsConfig {
    let mut cfg = AbsConfig::small();
    cfg.seed = spec.config.seed;
    let mut stop = StopCondition::timeout(Duration::from_millis(spec.config.timeout_ms.max(1)));
    if let Some(t) = spec.config.target {
        stop = stop.with_target(t);
    }
    cfg.stop = stop;
    if let Some(d) = spec.config.devices {
        cfg.machine.num_devices = d.max(1);
    }
    if let Some(b) = spec.config.blocks {
        cfg.machine.device.blocks_override = Some(b.max(1));
    }
    if let Some(ms) = spec.config.deadline_ms {
        cfg.watchdog.hard_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(out) = ckpt_out {
        cfg.checkpoint.out = Some(out);
        cfg.checkpoint.interval = Some(
            spec.config
                .checkpoint_interval_ms
                .map_or(DEFAULT_CKPT_INTERVAL, Duration::from_millis),
        );
    }
    if let Some(at) = spec.config.deny_checkpoint_write {
        cfg.machine.device.fault = Some(Arc::new(vgpu::FaultPlan::default().deny_write(at)));
    }
    cfg
}

fn run_job(
    store: &JobStore,
    metrics: &ServerMetrics,
    spool_dir: Option<&Path>,
    scheduler: &Scheduler,
    id: JobId,
) {
    // Take the problem handle and the knobs, not the spec: its body can
    // be megabytes, and the store keeps it until the job ends.
    let ckpt_out = spool_dir.map(|d| spool::ckpt_file(d, id));
    let Some((submitted, job_config, resume_from, mut cfg)) = store.with_job(id, |j| {
        (
            Arc::clone(&j.spec.problem),
            j.spec.config.clone(),
            j.resume_from.clone(),
            solver_config(&j.spec, ckpt_out),
        )
    }) else {
        return;
    };

    // Warm start: a repeat instance reuses the cached decoded matrix
    // and seeds the GA pool from prior incumbents. Resumed jobs skip
    // seeding — their checkpoint already carries a better pool.
    let hash = submitted.content_hash();
    let fresh_start = resume_from.is_none();
    let (problem, seeds) = match scheduler.cache.lookup(&hash) {
        Some(hit) if job_config.warm_start && fresh_start => (hit.problem, hit.seeds),
        Some(hit) => (hit.problem, Vec::new()),
        None => {
            scheduler.cache.admit(hash, &submitted);
            (submitted, Vec::new())
        }
    };
    let warm_started = !seeds.is_empty();
    cfg.apply_warm_seeds(seeds);
    store.update(id, |j| {
        j.problem_hash = Some(hash.to_hex());
        j.warm_started = warm_started;
    });

    // Lease exactly the geometry the config asks for; the session then
    // runs on what was actually granted. This is the single acquire
    // site, paired with the single release below (lint-enforced).
    let lease = scheduler.pool.acquire_lease(&LeaseRequest {
        tenant: &job_config.tenant,
        priority: job_config.priority,
        devices: cfg.machine.num_devices,
        blocks_per_device: cfg.machine.device.blocks_override.unwrap_or(1),
    });
    metrics.set_pool_leased(&scheduler.pool.leased_by_tenant());
    cfg.apply_lease(lease.geometry().devices, lease.geometry().blocks_per_device);

    drive_session(
        store,
        metrics,
        spool_dir,
        scheduler,
        id,
        cfg,
        &problem,
        hash,
        resume_from,
    );

    scheduler.pool.release_lease(lease);
    metrics.set_pool_leased(&scheduler.pool.leased_by_tenant());
}

/// Runs the session for one claimed job to whatever end it meets. The
/// caller holds the pool lease across this entire function.
#[allow(clippy::too_many_arguments)]
fn drive_session(
    store: &JobStore,
    metrics: &ServerMetrics,
    spool_dir: Option<&Path>,
    scheduler: &Scheduler,
    id: JobId,
    cfg: AbsConfig,
    problem: &Arc<Qubo>,
    hash: ContentHash,
    resume_from: Option<PathBuf>,
) {
    let keep = cfg.checkpoint.keep.max(1);
    let started = match resume_from {
        Some(path) => AbsSession::resume(cfg, problem, &path),
        None => AbsSession::start(cfg, problem),
    };
    let mut session = match started {
        Ok(s) => s,
        Err(e) => {
            finish_failed(store, metrics, spool_dir, id, keep, &e.to_string());
            return;
        }
    };

    let mut last_emit = Instant::now() - EVENT_STRIDE;
    let mut last_best: Option<i64> = None;
    loop {
        if store.with_job(id, |j| j.cancel_requested) == Some(true) {
            let result = session.stop().ok().map(job_result);
            store.update(id, |j| {
                j.phase = JobPhase::Cancelled;
                j.result = result;
            });
            metrics.jobs_cancelled.inc();
            cleanup_spool(spool_dir, id, keep);
            return;
        }
        if store.draining() {
            // Park the job in the spool for `--resume-jobs`. A refused
            // drain checkpoint fails the job instead of interrupting it:
            // a manifest entry without a checkpoint would resume wrong.
            if session.config().checkpoint.out.is_some() {
                if let Err(e) = session.checkpoint_now() {
                    finish_failed(store, metrics, spool_dir, id, keep, &e.to_string());
                    return;
                }
            }
            store.update(id, |j| j.phase = JobPhase::Interrupted);
            metrics.jobs_interrupted.inc();
            return;
        }
        match session.poll() {
            Err(e) => {
                finish_failed(store, metrics, spool_dir, id, keep, &e.to_string());
                return;
            }
            Ok(SessionStatus::StopConditionMet) => {
                emit_event(store, metrics, id, &session);
                match session.stop() {
                    Ok(sr) => {
                        scheduler
                            .cache
                            .record_best(hash, problem, sr.best_energy, &sr.best);
                        store.update(id, |j| {
                            j.phase = JobPhase::Done;
                            j.result = Some(job_result(sr));
                        });
                        metrics.jobs_done.inc();
                        cleanup_spool(spool_dir, id, keep);
                    }
                    Err(e) => {
                        finish_failed(store, metrics, spool_dir, id, keep, &e.to_string());
                    }
                }
                return;
            }
            Ok(SessionStatus::Running) => {
                let best = session.best().map(|(_, e)| e);
                if best != last_best || last_emit.elapsed() >= EVENT_STRIDE {
                    last_best = best;
                    last_emit = Instant::now();
                    emit_event(store, metrics, id, &session);
                }
            }
        }
    }
}

fn emit_event(store: &JobStore, metrics: &ServerMetrics, id: JobId, session: &AbsSession) {
    let event = ProgressEvent {
        seq: 0, // assigned under the store lock below
        elapsed_ms: u64::try_from(session.total_elapsed().as_millis()).unwrap_or(u64::MAX),
        best_energy: session.best().map(|(_, e)| e),
        flips: session.total_flips(),
    };
    metrics.publish_live(session.metrics_snapshot());
    store.update(id, move |j| {
        let mut event = event;
        event.seq = j.events.len() as u64;
        j.events.push(event);
    });
}

fn finish_failed(
    store: &JobStore,
    metrics: &ServerMetrics,
    spool_dir: Option<&Path>,
    id: JobId,
    keep: usize,
    reason: &str,
) {
    let reason = reason.to_string();
    store.update(id, move |j| {
        j.phase = JobPhase::Failed;
        j.error = Some(reason);
    });
    metrics.jobs_failed.inc();
    cleanup_spool(spool_dir, id, keep);
}

fn cleanup_spool(spool_dir: Option<&Path>, id: JobId, keep: usize) {
    if let Some(dir) = spool_dir {
        spool::remove_job_files(dir, id, keep);
    }
}

fn job_result(sr: SolveResult) -> JobResult {
    let solution: String = (0..sr.best.len())
        .map(|i| if sr.best.get(i) { '1' } else { '0' })
        .collect();
    JobResult {
        best_energy: sr.best_energy,
        solution,
        reached_target: sr.reached_target,
        elapsed_ms: u64::try_from(sr.elapsed.as_millis()).unwrap_or(u64::MAX),
        total_flips: sr.total_flips,
        search_units: sr.search_units,
        evaluated: sr.evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn dense_spec(extra: &str) -> JobSpec {
        parse_spec(&format!(
            r#"{{"problem": {{"format": "dense", "n": 2, "upper": [-1, 2, -1]}}{extra}}}"#
        ))
        .unwrap()
    }

    fn scheduler() -> Arc<Scheduler> {
        Scheduler::new(PoolConfig::default())
    }

    fn wait_terminal(store: &JobStore, id: JobId) {
        loop {
            let (_, phase, _) = store
                .wait_events(id, usize::MAX, Duration::from_millis(50))
                .unwrap();
            if phase.is_terminal() {
                break;
            }
        }
    }

    #[test]
    fn config_mapping_honours_overrides() {
        let spec = dense_spec(
            r#", "config": {"seed": 5, "timeout_ms": 40, "target": -2,
                 "devices": 2, "blocks": 4, "deadline_ms": 900,
                 "checkpoint_interval_ms": 30}"#,
        );
        let cfg = solver_config(&spec, Some(PathBuf::from("/tmp/x.ckpt")));
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.stop.timeout, Some(Duration::from_millis(40)));
        assert_eq!(cfg.stop.target_energy, Some(-2));
        assert_eq!(cfg.machine.num_devices, 2);
        assert_eq!(cfg.machine.device.blocks_override, Some(4));
        assert_eq!(cfg.watchdog.hard_timeout, Some(Duration::from_millis(900)));
        assert_eq!(cfg.checkpoint.interval, Some(Duration::from_millis(30)));
        assert!(cfg.machine.device.fault.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn no_spool_means_no_checkpointing() {
        let cfg = solver_config(&dense_spec(""), None);
        assert!(cfg.checkpoint.out.is_none());
        assert!(cfg.checkpoint.interval.is_none());
    }

    #[test]
    fn default_pool_grants_the_default_job_geometry_exactly() {
        // The bit-for-bit acceptance twin depends on this: the default
        // server pool's per-job budget must never clamp the default
        // (or any explicitly requested, in-capacity) job shape.
        let sched = scheduler();
        let cfg = solver_config(&dense_spec(""), None);
        let granted = sched.pool.clamp(
            cfg.machine.num_devices,
            cfg.machine.device.blocks_override.unwrap_or(1),
        );
        assert_eq!(granted.devices, cfg.machine.num_devices);
        assert_eq!(
            Some(granted.blocks_per_device),
            cfg.machine.device.blocks_override
        );
    }

    #[test]
    fn worker_runs_a_tiny_job_to_done() {
        let store = Arc::new(JobStore::new(4));
        let metrics = Arc::new(ServerMetrics::new());
        let spec = dense_spec(r#", "config": {"timeout_ms": 200, "target": -2}"#);
        let id = store.submit(spec, None, None).unwrap();
        let handle = spawn(
            Arc::clone(&store),
            Arc::clone(&metrics),
            None,
            scheduler(),
            0,
        );
        wait_terminal(&store, id);
        store.begin_drain();
        handle.join().unwrap();
        let (phase, result) = store.with_job(id, |j| (j.phase, j.result.clone())).unwrap();
        assert_eq!(phase, JobPhase::Done);
        let result = result.unwrap();
        // n = 2, Q = [[-1, 2], [_, -1]]: the optimum sets exactly one
        // bit (E = -1); the -2 target is unreachable so the timeout
        // ends the job, and the incumbent must still be exact.
        assert_eq!(result.best_energy, -1);
        assert!(!result.reached_target);
        assert!(result.solution == "10" || result.solution == "01");
        assert_eq!(metrics.jobs_done.get(), 1);
        assert_eq!(metrics.jobs_running.get(), 0.0, "lease count drained");
    }

    #[test]
    fn repeat_job_warm_starts_from_the_cache() {
        let store = Arc::new(JobStore::new(4));
        let metrics = Arc::new(ServerMetrics::new());
        let sched = scheduler();
        let body = r#", "config": {"timeout_ms": 150, "target": -1, "seed": 3}"#;
        let first = store.submit(dense_spec(body), None, None).unwrap();
        let handle = spawn(
            Arc::clone(&store),
            Arc::clone(&metrics),
            None,
            Arc::clone(&sched),
            0,
        );
        wait_terminal(&store, first);
        let cold = store
            .with_job(first, |j| (j.warm_started, j.problem_hash.clone()))
            .unwrap();
        assert!(!cold.0, "first sight of an instance is a cold start");
        let cold_hash = cold.1.expect("hash set when claimed");
        assert_eq!(sched.cache.stats().entries, 1);

        // Same matrix again: must hit and seed from the incumbent.
        let second = store.submit(dense_spec(body), None, None).unwrap();
        wait_terminal(&store, second);
        let warm = store
            .with_job(second, |j| {
                (j.warm_started, j.problem_hash.clone(), j.result.clone())
            })
            .unwrap();
        assert!(warm.0, "repeat POST of the same W must warm-start");
        assert_eq!(warm.1, Some(cold_hash));
        assert_eq!(warm.2.unwrap().best_energy, -1);

        // A different matrix (same n) must not hit.
        let other = parse_spec(
            r#"{"problem": {"format": "dense", "n": 2, "upper": [-1, 3, -1]},
                "config": {"timeout_ms": 150, "target": -1}}"#,
        )
        .unwrap();
        let third = store.submit(other, None, None).unwrap();
        wait_terminal(&store, third);
        assert_eq!(store.with_job(third, |j| j.warm_started), Some(false));

        store.begin_drain();
        handle.join().unwrap();
        let pool_stats = sched.pool.stats();
        assert_eq!(pool_stats.granted, 3);
        assert_eq!(pool_stats.released, 3);
        assert_eq!(pool_stats.reclaimed, 0);
        assert_eq!(pool_stats.free_blocks, pool_stats.capacity_blocks);
    }

    #[test]
    fn warm_start_opt_out_is_honoured() {
        let store = Arc::new(JobStore::new(4));
        let metrics = Arc::new(ServerMetrics::new());
        let sched = scheduler();
        let handle = spawn(
            Arc::clone(&store),
            Arc::clone(&metrics),
            None,
            Arc::clone(&sched),
            0,
        );
        let a = store
            .submit(
                dense_spec(r#", "config": {"timeout_ms": 100, "target": -1}"#),
                None,
                None,
            )
            .unwrap();
        wait_terminal(&store, a);
        let b = store
            .submit(
                dense_spec(r#", "config": {"timeout_ms": 100, "target": -1, "warm_start": false}"#),
                None,
                None,
            )
            .unwrap();
        wait_terminal(&store, b);
        assert_eq!(
            store.with_job(b, |j| j.warm_started),
            Some(false),
            "warm_start: false must cold-start even on a cache hit"
        );
        store.begin_drain();
        handle.join().unwrap();
    }
}

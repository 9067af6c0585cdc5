//! The job state machine and bounded-admission store.
//!
//! ```text
//!            submit               claim              stop conditions
//! client ──► Queued ──────────► Running ──────────► Done
//!               │                  │ ├─ poll error ► Failed { reason }
//!               │ DELETE           │ ├─ DELETE     ► Cancelled
//!               ▼                  │ └─ drain      ► Interrupted (spooled)
//!            Cancelled ◄───────────┘
//! ```
//!
//! Admission is a bounded queue: when `queue_depth` jobs are already
//! waiting, `submit` refuses with [`AdmitError::QueueFull`] (HTTP 429)
//! instead of buffering unboundedly — the paper's host runs one solve
//! at a time, and the serving layer keeps that property per job slot
//! rather than oversubscribing the machine. During drain every submit
//! refuses with [`AdmitError::Draining`] (HTTP 503).
//!
//! All transitions go through one mutex; a condvar wakes both the
//! solver worker (new work) and event streamers (new progress).
//!
//! A job entering a terminal phase releases its problem: the verbatim
//! body becomes empty and the decoded matrix becomes one shared 1-bit
//! placeholder, so a long-running server's memory does not grow with
//! every finished job. The status body reads only the result, hash,
//! config, events and error, which stay. Queued, running and
//! interrupted jobs keep everything.

use crate::spec::JobSpec;
use qubo::Qubo;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Monotone job identifier, 1-based.
pub type JobId = u64;

/// Where a job sits in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the bounded queue.
    Queued,
    /// Owned by the solver worker; an `AbsSession` is live.
    Running,
    /// Stop condition met; `result` is populated.
    Done,
    /// The session refused to start or a poll errored; `error` says why.
    Failed,
    /// Cancelled by `DELETE` (queued or mid-solve; a mid-solve cancel
    /// still carries the partial result).
    Cancelled,
    /// Checkpointed to the spool during drain; a restarted server with
    /// `--resume-jobs` re-queues it with its baseline intact.
    Interrupted,
}

impl JobPhase {
    /// Stable lowercase label used in every JSON body.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
            Self::Interrupted => "interrupted",
        }
    }

    /// Terminal phases never change again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed | Self::Cancelled)
    }
}

/// One progress sample on the event stream. `best_energy` is monotone
/// non-increasing over `seq` by construction: it is read from the
/// session's incumbent, which only improves.
#[derive(Clone, Debug, Serialize)]
pub struct ProgressEvent {
    /// Position in the job's event log, 0-based.
    pub seq: u64,
    /// Cumulative solve wall-clock (across resumes) in milliseconds.
    pub elapsed_ms: u64,
    /// Incumbent best energy, absent until the first record arrives.
    pub best_energy: Option<i64>,
    /// Cumulative device flips.
    pub flips: u64,
}

/// The final accounting of a finished (or cancelled-with-partial) job.
#[derive(Clone, Debug, Serialize)]
pub struct JobResult {
    /// Best energy found.
    pub best_energy: i64,
    /// Best solution as a `0`/`1` string, bit 0 first.
    pub solution: String,
    /// Whether the target energy (if any) was reached.
    pub reached_target: bool,
    /// Cumulative wall-clock milliseconds (across resumes).
    pub elapsed_ms: u64,
    /// Cumulative device flips.
    pub total_flips: u64,
    /// Search units started (the `m` of the Theorem-1 projection).
    pub search_units: u64,
    /// Solutions evaluated; dense arms satisfy
    /// `evaluated == (total_flips + search_units) * (n + 1)` exactly,
    /// including across a drain/resume cycle.
    pub evaluated: u64,
}

/// One job record.
#[derive(Debug)]
pub struct Job {
    /// Identifier (also the spool file stem).
    pub id: JobId,
    /// Parsed submission. Once the job is terminal, `body` is empty and
    /// `problem` is the store's shared 1-bit placeholder.
    pub spec: JobSpec,
    /// Current phase.
    pub phase: JobPhase,
    /// Set by `DELETE`; the solver worker honours it at the next poll.
    pub cancel_requested: bool,
    /// Progress log, append-only.
    pub events: Vec<ProgressEvent>,
    /// Failure reason when `phase == Failed`.
    pub error: Option<String>,
    /// Final accounting when terminal (Done, or Cancelled mid-solve).
    pub result: Option<JobResult>,
    /// Checkpoint to resume from (jobs restored via `--resume-jobs`).
    pub resume_from: Option<PathBuf>,
    /// Canonical instance digest (hex), set when the worker claims the
    /// job — the warm-start cache key, exposed in the status body.
    pub problem_hash: Option<String>,
    /// Whether the session was seeded from cached incumbents.
    pub warm_started: bool,
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is full: HTTP 429.
    QueueFull,
    /// The server is draining after SIGINT/SIGTERM: HTTP 503.
    Draining,
}

#[derive(Default)]
struct Inner {
    jobs: BTreeMap<JobId, Job>,
    queue: VecDeque<JobId>,
    next_id: JobId,
    draining: bool,
    /// Σ [`JobStore::held_bytes`] over `jobs`.
    retained: usize,
}

/// The shared job table: one mutex, one condvar.
pub struct JobStore {
    inner: Mutex<Inner>,
    cv: Condvar,
    queue_depth: usize,
    /// What a terminal job's `spec.problem` points at.
    released: Arc<Qubo>,
}

/// Poison-tolerant lock: a panicking HTTP worker must not wedge the
/// whole server, and every invariant here is re-checked by readers.
fn lock<'a>(m: &'a Mutex<Inner>) -> MutexGuard<'a, Inner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl JobStore {
    /// Creates a store admitting at most `queue_depth` queued jobs.
    #[must_use]
    pub fn new(queue_depth: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                next_id: 1,
                ..Inner::default()
            }),
            cv: Condvar::new(),
            queue_depth: queue_depth.max(1),
            released: Arc::new(Qubo::default()),
        }
    }

    /// Request body plus matrix bytes `job` keeps alive; the shared
    /// placeholder counts nothing.
    fn held_bytes(&self, job: &Job) -> usize {
        let p = &job.spec.problem;
        let matrix = if Arc::ptr_eq(p, &self.released) {
            0
        } else {
            p.n() * p.stride() * std::mem::size_of::<i16>()
        };
        job.spec.body.len() + matrix
    }

    /// Applies `f` to the job under the lock. Every phase change goes
    /// through here, so this is the one place a job that has become
    /// terminal gives up its body and matrix.
    fn apply<R>(&self, g: &mut Inner, id: JobId, f: impl FnOnce(&mut Job) -> R) -> Option<R> {
        let job = g.jobs.get_mut(&id)?;
        let before = self.held_bytes(job);
        let out = f(job);
        if job.phase.is_terminal() {
            job.spec.body = String::new();
            job.spec.problem = Arc::clone(&self.released);
        }
        let after = self.held_bytes(job);
        g.retained = g.retained + after - before;
        Some(out)
    }

    /// Body plus matrix bytes the store holds across all jobs — the
    /// `abs_server_retained_bytes` gauge.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        lock(&self.inner).retained
    }

    /// Admits a job, or refuses when the queue is full / draining.
    ///
    /// `fixed_id` preserves identifiers across a `--resume-jobs`
    /// restart; fresh submissions pass `None`. Restores bypass the
    /// queue bound — they were admitted once already, and a drained
    /// predecessor can leave `depth + 1` non-terminal jobs (the one
    /// that was running plus a full queue).
    ///
    /// # Errors
    /// [`AdmitError`] as above.
    pub fn submit(
        &self,
        spec: JobSpec,
        resume_from: Option<PathBuf>,
        fixed_id: Option<JobId>,
    ) -> Result<JobId, AdmitError> {
        let mut g = lock(&self.inner);
        if g.draining {
            return Err(AdmitError::Draining);
        }
        if fixed_id.is_none() && g.queue.len() >= self.queue_depth {
            return Err(AdmitError::QueueFull);
        }
        let id = match fixed_id {
            Some(id) => {
                g.next_id = g.next_id.max(id + 1);
                id
            }
            None => {
                let id = g.next_id;
                g.next_id += 1;
                id
            }
        };
        let job = Job {
            id,
            spec,
            phase: JobPhase::Queued,
            cancel_requested: false,
            events: Vec::new(),
            error: None,
            result: None,
            resume_from,
            problem_hash: None,
            warm_started: false,
        };
        g.retained += self.held_bytes(&job);
        g.jobs.insert(id, job);
        g.queue.push_back(id);
        self.cv.notify_all();
        Ok(id)
    }

    /// Blocks until a queued job is available (marking it Running and
    /// returning its id) or the store starts draining (`None`).
    pub fn claim_next(&self) -> Option<JobId> {
        let mut g = lock(&self.inner);
        loop {
            if g.draining {
                return None;
            }
            if let Some(id) = g.queue.pop_front() {
                let claimed = self.apply(&mut g, id, |job| {
                    // A queued job cancelled before its turn never runs.
                    job.phase = if job.cancel_requested {
                        JobPhase::Cancelled
                    } else {
                        JobPhase::Running
                    };
                    job.phase == JobPhase::Running
                });
                self.cv.notify_all();
                if claimed == Some(true) {
                    return Some(id);
                }
            } else {
                g = self
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// Flips the store into drain mode: submissions refuse, the worker
    /// stops claiming, event streams close out.
    pub fn begin_drain(&self) {
        lock(&self.inner).draining = true;
        self.cv.notify_all();
    }

    /// Whether drain mode is active.
    #[must_use]
    pub fn draining(&self) -> bool {
        lock(&self.inner).draining
    }

    /// Runs `f` over the job, if it exists.
    pub fn with_job<R>(&self, id: JobId, f: impl FnOnce(&Job) -> R) -> Option<R> {
        lock(&self.inner).jobs.get(&id).map(f)
    }

    /// Mutates the job and wakes event waiters. A job that `f` moves
    /// into a terminal phase releases its problem (module docs).
    pub fn update<R>(&self, id: JobId, f: impl FnOnce(&mut Job) -> R) -> Option<R> {
        let out = self.apply(&mut lock(&self.inner), id, f);
        self.cv.notify_all();
        out
    }

    /// Requests cancellation. A queued job is cancelled on the spot; a
    /// running one is flagged for the solver worker's next poll round.
    /// Returns the phase after the request, `None` for an unknown id.
    pub fn cancel(&self, id: JobId) -> Option<JobPhase> {
        let mut g = lock(&self.inner);
        let phase = self.apply(&mut g, id, |job| match job.phase {
            JobPhase::Queued => {
                job.cancel_requested = true;
                job.phase = JobPhase::Cancelled;
                JobPhase::Cancelled
            }
            JobPhase::Running => {
                job.cancel_requested = true;
                JobPhase::Running
            }
            other => other,
        })?;
        if phase == JobPhase::Cancelled {
            g.queue.retain(|&q| q != id);
        }
        self.cv.notify_all();
        Some(phase)
    }

    /// 0-based position in the wait queue, for status bodies.
    #[must_use]
    pub fn queue_position(&self, id: JobId) -> Option<usize> {
        lock(&self.inner).queue.iter().position(|&q| q == id)
    }

    /// Number of queued (not running) jobs.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// Waits up to `timeout` for events past `from_seq` or a phase
    /// change, then returns `(new events, phase, draining)`. `None` for
    /// an unknown id.
    pub fn wait_events(
        &self,
        id: JobId,
        from_seq: usize,
        timeout: Duration,
    ) -> Option<(Vec<ProgressEvent>, JobPhase, bool)> {
        let mut g = lock(&self.inner);
        {
            let job = g.jobs.get(&id)?;
            if job.events.len() <= from_seq && !job.phase.is_terminal() && !g.draining {
                let (g2, _timed_out) = self
                    .cv
                    .wait_timeout(g, timeout)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                g = g2;
            }
        }
        let draining = g.draining;
        let job = g.jobs.get(&id)?;
        let fresh = job.events.get(from_seq..).unwrap_or(&[]).to_vec();
        Some((fresh, job.phase, draining))
    }

    /// Ids and phases of every non-terminal job, in id order — the
    /// drain manifest.
    #[must_use]
    pub fn non_terminal(&self) -> Vec<(JobId, JobPhase)> {
        lock(&self.inner)
            .jobs
            .values()
            .filter(|j| !j.phase.is_terminal())
            .map(|j| (j.id, j.phase))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn spec() -> JobSpec {
        parse_spec(r#"{"problem": {"format": "dense", "n": 1, "upper": [-1]}}"#).unwrap()
    }

    #[test]
    fn bounded_queue_admits_then_refuses() {
        let store = JobStore::new(2);
        let a = store.submit(spec(), None, None).unwrap();
        assert_eq!(a, 1);
        // Claim moves job 1 out of the queue: capacity counts *waiting*
        // jobs only.
        assert_eq!(store.claim_next(), Some(1));
        store.submit(spec(), None, None).unwrap();
        store.submit(spec(), None, None).unwrap();
        assert_eq!(
            store.submit(spec(), None, None).unwrap_err(),
            AdmitError::QueueFull
        );
        store.begin_drain();
        assert_eq!(
            store.submit(spec(), None, None).unwrap_err(),
            AdmitError::Draining
        );
        assert_eq!(store.claim_next(), None);
    }

    #[test]
    fn queued_cancel_never_runs() {
        let store = JobStore::new(4);
        let id = store.submit(spec(), None, None).unwrap();
        assert_eq!(store.cancel(id), Some(JobPhase::Cancelled));
        assert_eq!(store.queue_len(), 0);
        store.begin_drain();
        assert_eq!(store.claim_next(), None);
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Cancelled));
    }

    #[test]
    fn running_cancel_sets_the_flag_only() {
        let store = JobStore::new(4);
        let id = store.submit(spec(), None, None).unwrap();
        assert_eq!(store.claim_next(), Some(id));
        assert_eq!(store.cancel(id), Some(JobPhase::Running));
        assert_eq!(store.with_job(id, |j| j.cancel_requested), Some(true));
    }

    #[test]
    fn fixed_ids_advance_the_counter() {
        let store = JobStore::new(8);
        assert_eq!(store.submit(spec(), None, Some(7)).unwrap(), 7);
        assert_eq!(store.submit(spec(), None, None).unwrap(), 8);
    }

    #[test]
    fn queue_position_recomputes_under_concurrent_dequeues() {
        // Several solver workers claim off the same queue at once; any
        // job still queued must report a 0-based position consistent
        // with the *current* queue, never a stale pre-claim index.
        use std::sync::Arc;
        let store = Arc::new(JobStore::new(16));
        let ids: Vec<JobId> = (0..8)
            .map(|_| store.submit(spec(), None, None).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.queue_position(id), Some(i));
        }
        // Four concurrent claimers dequeue two jobs each.
        let mut claimers = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            claimers.push(std::thread::spawn(move || {
                [store.claim_next().unwrap(), store.claim_next().unwrap()]
            }));
        }
        let mut claimed: Vec<JobId> = claimers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        claimed.sort_unstable();
        // FIFO across workers: the eight oldest jobs were claimed,
        // each exactly once.
        assert_eq!(claimed, ids);
        // Fill in behind the concurrent dequeues and check positions
        // recompute from scratch.
        let late_a = store.submit(spec(), None, None).unwrap();
        let late_b = store.submit(spec(), None, None).unwrap();
        assert_eq!(store.queue_position(late_a), Some(0));
        assert_eq!(store.queue_position(late_b), Some(1));
        for &id in &ids {
            assert_eq!(
                store.queue_position(id),
                None,
                "a claimed job must leave the queue entirely"
            );
            assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Running));
        }
        // A cancellation in the middle shifts later positions down.
        assert_eq!(store.cancel(late_a), Some(JobPhase::Cancelled));
        assert_eq!(store.queue_position(late_b), Some(0));
    }

    /// Whether the job still holds its submitted body and matrix.
    fn holds_problem(store: &JobStore, id: JobId) -> bool {
        store
            .with_job(id, |j| {
                !j.spec.body.is_empty() && !Arc::ptr_eq(&j.spec.problem, &store.released)
            })
            .unwrap()
    }

    fn one_job_bytes() -> usize {
        let s = spec();
        s.body.len() + s.problem.n() * s.problem.stride() * 2
    }

    #[test]
    fn every_terminal_path_releases_body_and_problem() {
        let store = JobStore::new(16);
        let per_job = one_job_bytes();
        // Done, Failed and a mid-solve Cancelled: the worker's updates.
        for end in [JobPhase::Done, JobPhase::Failed, JobPhase::Cancelled] {
            let id = store.submit(spec(), None, None).unwrap();
            assert_eq!(store.claim_next(), Some(id));
            assert!(holds_problem(&store, id), "a running job keeps it");
            assert_eq!(store.retained_bytes(), per_job);
            store.update(id, |j| j.phase = end);
            assert!(!holds_problem(&store, id), "{end:?} must release");
            store
                .with_job(id, |j| {
                    assert!(j.spec.body.is_empty());
                    assert!(Arc::ptr_eq(&j.spec.problem, &store.released));
                })
                .unwrap();
            assert_eq!(store.retained_bytes(), 0);
        }
        // A queued job cancelled by DELETE.
        let id = store.submit(spec(), None, None).unwrap();
        assert_eq!(store.cancel(id), Some(JobPhase::Cancelled));
        assert!(!holds_problem(&store, id));
        assert_eq!(store.retained_bytes(), 0);
        // A queued job flagged for cancellation, skipped by the claim.
        let flagged = store.submit(spec(), None, None).unwrap();
        let next = store.submit(spec(), None, None).unwrap();
        store.update(flagged, |j| j.cancel_requested = true);
        assert_eq!(store.claim_next(), Some(next));
        assert_eq!(
            store.with_job(flagged, |j| j.phase),
            Some(JobPhase::Cancelled)
        );
        assert!(!holds_problem(&store, flagged));
        assert!(holds_problem(&store, next));
        assert_eq!(store.retained_bytes(), per_job);
        // Config, hash and result survive the release.
        store.update(next, |j| {
            j.problem_hash = Some("ab".into());
            j.phase = JobPhase::Done;
        });
        store
            .with_job(next, |j| {
                assert_eq!(j.problem_hash.as_deref(), Some("ab"));
                assert_eq!(j.spec.config.tenant, "default");
            })
            .unwrap();
        assert_eq!(store.retained_bytes(), 0);
    }

    #[test]
    fn queued_and_interrupted_jobs_keep_their_problem() {
        let store = JobStore::new(4);
        let per_job = one_job_bytes();
        let running = store.submit(spec(), None, None).unwrap();
        let queued = store.submit(spec(), None, None).unwrap();
        assert_eq!(store.retained_bytes(), 2 * per_job);
        assert_eq!(store.claim_next(), Some(running));
        store.update(running, |j| j.phase = JobPhase::Interrupted);
        assert!(holds_problem(&store, running));
        assert!(holds_problem(&store, queued));
        // DELETE on an interrupted job changes nothing.
        assert_eq!(store.cancel(running), Some(JobPhase::Interrupted));
        assert!(holds_problem(&store, running));
        assert_eq!(store.retained_bytes(), 2 * per_job);
    }

    #[test]
    fn wait_events_returns_fresh_suffix() {
        let store = JobStore::new(4);
        let id = store.submit(spec(), None, None).unwrap();
        store.update(id, |j| {
            j.events.push(ProgressEvent {
                seq: 0,
                elapsed_ms: 1,
                best_energy: Some(-1),
                flips: 10,
            });
            j.phase = JobPhase::Done;
        });
        let (events, phase, draining) =
            store.wait_events(id, 0, Duration::from_millis(10)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(phase, JobPhase::Done);
        assert!(!draining);
        let (events, _, _) = store.wait_events(id, 1, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
    }
}

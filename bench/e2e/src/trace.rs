//! The traced pass: an in-process replay of what a job goes through in
//! `abs-server` — the submit handler's `parse_spec` and admission, then
//! `runner::run_job` and `drive_session` call for call, on a real
//! `JobStore`, `ServerMetrics`, `ProblemCache` and `DevicePool` — with a
//! span around each stage. It runs after the live server has stopped, so
//! it has the machine to itself.
//!
//! Every job is replayed with spans on and spans off, alternating which
//! goes first; the measured on/off wall-time ratio is the tracing overhead
//! (see [`run`]). Spans (name, start, end, parent, job) are kept in memory
//! and written to `bench/e2e/out/trace-<workload>-<seed>.json` at the end;
//! a span's self time is its duration minus its children's.

use crate::live::LiveRun;
use crate::procfs::ThreadClock;
use crate::report::{int, num, obj};
use crate::stats::{interquartile_mean, median, percentile, quartiles};
use crate::workload::{Failure, Job, Plan, Workload, SERVER_FLAGS};
use abs::{AbsSession, SessionStatus, SolveResult};
use abs_server::job::{JobPhase, JobResult, JobStore, ProgressEvent};
use abs_server::metrics::ServerMetrics;
use abs_server::runner::{solver_config, Scheduler};
use abs_server::spec::parse_spec;
use qubo::{MatrixStorage, Qubo, SparseQubo};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vgpu::LeaseRequest;

/// Times tiny-open replays its `low` rung: about a thousand overhead
/// samples, as its jobs last a tenth of a millisecond.
const TINY_ROUNDS: usize = 8;
/// The thread's CPU clock is read around one replayed search in this
/// many (`host_cpu_frac` pools them), on gset-sparse and dense-rate only.
/// tiny-open's searches and warm-repeat's repeats last at most a few
/// milliseconds, about the scheduler tick a reading may lag by: pooled
/// over warm-repeat's repeats the fraction read 1.5.
const CLOCK_SAMPLE: usize = 4;
/// The runner's progress-event cadence, mirrored by the replay loop.
const EVENT_STRIDE: Duration = Duration::from_millis(100);
/// One poll in this many is timed; `poll_frac` scales the sample back up.
/// Timing every poll would add two clock reads to a loop whose pace
/// decides how much CPU the device workers get.
const POLL_SAMPLE: u64 = 16;
/// Stage spans must cover at least this share of a job's wall time in
/// nine traced jobs out of ten. Among thousands of quarter-millisecond
/// jobs a few always lose some microseconds to an interrupt that lands
/// between two spans; a gap in the spans' structure shows in every job.
const STAGE_SUM_MIN: f64 = 0.98;
/// The interquartile mean of the overhead samples (see [`run`]) may be at
/// most this.
const OVERHEAD_MAX: f64 = 1.02;

/// Closed-loop jobs replayed, in workload job order (tiny-open replays its
/// `low` rung instead). Each job is replayed four times, so this is also
/// the number of overhead samples. On a busy two-core host a sample
/// scatters by 3–6 %; these counts keep the scatter of their interquartile
/// mean under 1 %, half the 2 % the gate allows, and every traced run
/// under two minutes.
fn traced_jobs(w: Workload) -> usize {
    match w {
        Workload::GsetSparse => 24,
        Workload::DenseRate => 48,
        Workload::WarmRepeat => 96,
        Workload::TinyOpen => 0,
    }
}

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Collects spans and reads the thread's CPU clock when on; a
/// pass-through when off.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    clock: Option<ThreadClock>,
}

/// Spans a replayed job opens (13 at most today), with room to spare.
const SPANS_PER_JOB: usize = 24;

impl Tracer {
    /// A tracer with room for `jobs` jobs' spans: growing the span list
    /// mid-job would copy it inside the job's wall time. The room is
    /// written once up front, so no job pays to fault its pages in.
    fn new(on: bool, jobs: usize) -> Self {
        let epoch = Instant::now();
        let room = if on { jobs * SPANS_PER_JOB } else { 0 };
        let blank = Span {
            name: "",
            job: 0,
            parent: None,
            start: Duration::ZERO,
            end: Duration::ZERO,
        };
        let mut spans = Vec::with_capacity(room);
        spans.resize(room, blank);
        spans.clear();
        Self {
            on,
            epoch,
            spans,
            clock: on.then(ThreadClock::open).and_then(Result::ok),
        }
    }

    /// The replaying thread's CPU time, when tracing.
    fn cpu_s(&self) -> Option<f64> {
        self.clock.as_ref().map(ThreadClock::cpu_s)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed();
        let job = parent.map_or(0, |p| self.spans[p].job);
        self.spans.push(Span {
            name,
            job,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    fn span<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, parent);
        let out = f();
        self.close(s);
        out
    }

    /// Stamps the job id (known once admitted) on `root` and its spans.
    fn set_job(&mut self, root: Option<usize>, job: u64) {
        if let Some(r) = root {
            for s in &mut self.spans[r..] {
                s.job = job;
            }
        }
    }

    fn duration(&self, i: usize) -> f64 {
        (self.spans[i].end - self.spans[i].start).as_secs_f64()
    }
}

/// The server-side state a replayed job runs against.
struct Host {
    store: JobStore,
    metrics: ServerMetrics,
    sched: Arc<Scheduler>,
    /// Stands in for a finished job's problem (see [`Host::release`]).
    blank: Arc<Qubo>,
}

impl Host {
    fn new() -> Self {
        let flags: Vec<String> = SERVER_FLAGS.iter().map(|s| (*s).to_string()).collect();
        let config = abs_server::args::parse(&flags)
            .ok()
            .flatten()
            .expect("the benchmark's server flags parse");
        Self {
            store: JobStore::new(config.queue_depth),
            metrics: ServerMetrics::new(),
            sched: Scheduler::new(config.pool_config()),
            blank: Arc::new(
                qubo::json::parse_problem(r#"{"format": "dense", "n": 1, "upper": [0]}"#)
                    .expect("a one-bit problem decodes"),
            ),
        }
    }

    /// Drops a finished job's request body and decoded problem. The server
    /// keeps both for as long as it runs (a gset-sparse job holds 50 MB);
    /// a replay of a hundred jobs would hold gigabytes.
    fn release(&self, id: u64) {
        self.store.update(id, |j| {
            j.spec.body = String::new();
            j.spec.problem = Arc::clone(&self.blank);
        });
    }
}

/// What one replayed job measured; the replay loop keeps only its
/// [`Sample`].
struct JobTrace {
    id: u64,
    wall_s: f64,
    search_s: f64,
    polls: u64,
    /// Σ poll() time, scaled up from the sampled polls.
    poll_s: f64,
    /// CPU time of the driving thread during the search, when read.
    host_cpu_s: Option<f64>,
    devices: usize,
    result: SolveResult,
    warm_started: bool,
    problem: Arc<Qubo>,
}

/// The figures the per-layer metrics need from one traced job. The replay
/// loop drops every [`JobTrace`] at once, spans on or off: keeping only
/// the traced side's results made the next replays allocate afresh and
/// read 0.6 % slower on that side alone.
#[derive(Clone, Copy)]
struct Sample {
    wall_s: f64,
    search_s: f64,
    polls: u64,
    poll_s: f64,
    host_cpu_s: Option<f64>,
    devices: usize,
    /// Flip coordinate of the last history point.
    flips_to_target: u64,
    /// History points: improvements the host audited.
    improvements: usize,
    insertion_ratio: f64,
}

impl JobTrace {
    fn sample(&self) -> Sample {
        let r = &self.result;
        Sample {
            wall_s: self.wall_s,
            search_s: self.search_s,
            polls: self.polls,
            poll_s: self.poll_s,
            host_cpu_s: self.host_cpu_s,
            devices: self.devices,
            flips_to_target: r.history.last().map_or(0, |h| h.flips),
            improvements: r.history.len(),
            insertion_ratio: r.results_inserted as f64 / r.results_received.max(1) as f64,
        }
    }
}

/// Replays `job` on `host`; `clock` reads the thread's CPU clock around
/// the search.
fn replay(t: &mut Tracer, host: &Host, job: &Job, clock: bool) -> Result<JobTrace, String> {
    let t0 = Instant::now();
    let root = t.open("job", None);
    // routes::handle_submit decodes the body ...
    let spec = t
        .span("server.spec.parse", root, || parse_spec(&job.body))
        .map_err(|e| e.to_string())?;
    // ... and admits it; the worker claims it, clones the spec and maps
    // its config (runner::worker_loop, then run_job).
    let (id, spec, mut cfg) = t
        .span("server.runner.claim", root, || {
            let id = host.store.submit(spec, None, None).ok()?;
            let claimed = host.store.claim_next()?;
            host.metrics.job_started();
            let spec = host.store.with_job(claimed, |j| j.spec.clone())?;
            let cfg = solver_config(&spec, None);
            Some((id, spec, cfg))
        })
        .ok_or("the replayed job was not admitted and claimed")?;
    t.set_job(root, id);
    let hash = t.span("qubo.content_hash", root, || spec.problem.content_hash());
    let hit = t.span("core.cache.lookup", root, || host.sched.cache.lookup(&hash));
    let (problem, seeds) = match hit {
        Some(hit) if spec.config.warm_start => (hit.problem, hit.seeds),
        Some(hit) => (hit.problem, Vec::new()),
        None => {
            t.span("core.cache.admit", root, || {
                host.sched.cache.admit(hash, &spec.problem)
            });
            (Arc::clone(&spec.problem), Vec::new())
        }
    };
    let warm_started = !seeds.is_empty();
    cfg.apply_warm_seeds(seeds);
    t.span("server.runner.record", root, || {
        host.store.update(id, |j| {
            j.problem_hash = Some(hash.to_hex());
            j.warm_started = warm_started;
        });
    });
    let lease = t.span("vgpu.pool.lease", root, || {
        let lease = host.sched.pool.acquire_lease(&LeaseRequest {
            tenant: &spec.config.tenant,
            priority: spec.config.priority,
            devices: cfg.machine.num_devices,
            blocks_per_device: cfg.machine.device.blocks_override.unwrap_or(1),
        });
        host.metrics
            .set_pool_leased(&host.sched.pool.leased_by_tenant());
        lease
    });
    let devices = lease.geometry().devices;
    cfg.apply_lease(devices, lease.geometry().blocks_per_device);

    // drive_session
    let mut session = t
        .span("core.session.start", root, || {
            AbsSession::start(cfg, &problem)
        })
        .map_err(|e| e.to_string())?;
    let search = t.open("core.session.search", root);
    let search_t0 = Instant::now();
    let cpu0 = if clock { t.cpu_s() } else { None };
    let (mut polls, mut first_ns, mut sampled_ns) = (0u64, 0u128, 0u128);
    let mut last_emit = Instant::now() - EVENT_STRIDE;
    let mut last_best = None;
    loop {
        // The cancel and drain checks the runner makes every round; the
        // replay never sets either.
        let _ = host.store.with_job(id, |j| j.cancel_requested);
        let _ = host.store.draining();
        let timed = t.on && polls % POLL_SAMPLE == 0;
        let p0 = timed.then(Instant::now);
        let status = session.poll().map_err(|e| e.to_string())?;
        if let Some(p0) = p0 {
            // The first poll counts once: it is often a session's longest,
            // and taken as one poll in 16 it made the poll time exceed the
            // search time.
            match polls {
                0 => first_ns = p0.elapsed().as_nanos(),
                _ => sampled_ns += p0.elapsed().as_nanos(),
            }
        }
        polls += 1;
        if status == SessionStatus::StopConditionMet {
            emit_event(host, id, &session);
            break;
        }
        let best = session.best().map(|(_, e)| e);
        if best != last_best || last_emit.elapsed() >= EVENT_STRIDE {
            last_best = best;
            last_emit = Instant::now();
            emit_event(host, id, &session);
        }
    }
    let host_cpu_s = cpu0.and_then(|c0| Some(t.cpu_s()? - c0));
    let search_s = search_t0.elapsed().as_secs_f64();
    t.close(search);
    let result = t
        .span("core.session.stop", root, || session.stop())
        .map_err(|e| e.to_string())?;
    t.span("core.cache.record_best", root, || {
        host.sched
            .cache
            .record_best(hash, &problem, result.best_energy, &result.best);
    });
    t.span("server.runner.finish", root, || {
        let body = job_result(&result);
        host.store.update(id, |j| {
            j.phase = JobPhase::Done;
            j.result = Some(body);
        });
        host.metrics.jobs_done.inc();
        host.sched.pool.release_lease(lease);
        host.metrics
            .set_pool_leased(&host.sched.pool.leased_by_tenant());
        host.metrics.job_finished();
    });
    t.close(root);
    Ok(JobTrace {
        id,
        wall_s: t0.elapsed().as_secs_f64(),
        search_s,
        polls,
        poll_s: (first_ns as f64 + sampled_ns as f64 * POLL_SAMPLE as f64) * 1e-9,
        host_cpu_s,
        devices,
        result,
        warm_started,
        problem,
    })
}

/// `runner::emit_event`: a progress event plus the live metrics snapshot.
fn emit_event(host: &Host, id: u64, session: &AbsSession) {
    let event = ProgressEvent {
        seq: 0,
        elapsed_ms: u64::try_from(session.total_elapsed().as_millis()).unwrap_or(u64::MAX),
        best_energy: session.best().map(|(_, e)| e),
        flips: session.total_flips(),
    };
    host.metrics.publish_live(session.metrics_snapshot());
    host.store.update(id, move |j| {
        let mut event = event;
        event.seq = j.events.len() as u64;
        j.events.push(event);
    });
}

/// `runner::job_result`: the body `GET /jobs/{id}` reports.
fn job_result(r: &SolveResult) -> JobResult {
    JobResult {
        best_energy: r.best_energy,
        solution: (0..r.best.len())
            .map(|i| if r.best.get(i) { '1' } else { '0' })
            .collect(),
        reached_target: r.reached_target,
        elapsed_ms: u64::try_from(r.elapsed.as_millis()).unwrap_or(u64::MAX),
        total_flips: r.total_flips,
        search_units: r.search_units,
        evaluated: r.evaluated,
    }
}

/// The status body the server would send, so replayed answers go through
/// the same oracle as live ones.
fn status_body(r: &SolveResult, warm_started: bool) -> Result<Value, String> {
    let result = serde_json::to_string(&job_result(r)).expect("shim never fails");
    let v = serde_json::from_str(&result).map_err(|e| e.to_string())?;
    Ok(obj(vec![
        ("state", Value::String("done".into())),
        ("warm_started", Value::Bool(warm_started)),
        ("result", v),
    ]))
}

/// The traced pass's per-layer metrics, oracle findings and details.
pub struct Traced {
    /// `(name, value)`, in PER_LAYER order after the untraced readings.
    pub metrics: Vec<(String, f64)>,
    /// Wrong answers found by the oracle during the replay.
    pub wrong: Vec<String>,
    /// Span summary and integrity checks.
    pub details: Value,
}

/// Replays the workload's first jobs with spans on and off, checks trace
/// integrity and tracing overhead, and writes the span file.
///
/// Each job is replayed four times on one host, so a warm-repeat job
/// meets the cache the way it did live: spans on, off, off, on, or the
/// mirror image, alternating from job to job. Whatever a job's later
/// replays gain from its earlier ones then falls on both sides alike.
///
/// A session's own length (the `SolveResult::elapsed` clock, from the end
/// of `AbsSession::start` to the join in `stop`) is set by the search, not
/// by tracing: each session stops when the GA happens to reach its
/// target, 0.05–0.17 s in on gset-sparse and dense-rate, which spreads a
/// plain wall-time ratio's quartiles about 10 % apart. The overhead sample
/// therefore gives the spans-on side the spans-off side's session clock:
/// it is the on side's wall time outside its session plus the off side's
/// session time, over the off side's wall time. Every span boundary lies
/// outside the session clock; inside it the replay adds only one poll
/// timer in 16 and, on a quarter of the gset-sparse and dense-rate jobs,
/// two thread-clock reads, on the host thread, which does none of the
/// flips. The plain wall-time ratio is reported beside it.
///
/// # Errors
/// A replayed job that errors, a breached integrity or overhead check, or
/// an unwritable span file.
pub fn run(plan: &mut Plan, live: &LiveRun) -> Result<Traced, String> {
    let tiny = plan.workload == Workload::TinyOpen;
    let long_searches = matches!(plan.workload, Workload::GsetSparse | Workload::DenseRate);
    let (count, rounds) = if tiny {
        (live.rung(0).len(), TINY_ROUNDS)
    } else {
        (traced_jobs(plan.workload), 1)
    };
    plan.forget_feedback();
    let host = Host::new();
    let mut tracer = Tracer::new(true, 2 * count * rounds);
    let mut untraced = Tracer::new(false, 0);
    let mut jobs: Vec<Sample> = Vec::with_capacity(2 * count * rounds);
    // The first traced job's problem and answer, for the audit timing.
    let mut first = None;
    let mut ratios = Vec::with_capacity(count * rounds);
    let mut wall_ratios = Vec::with_capacity(count * rounds);
    let mut wrong = Vec::new();
    let mut missed = 0usize;
    for quad in 0..count * rounds {
        let k = quad % count;
        let job = plan.job(k, false);
        // [spans off, spans on] sums of wall and session time.
        let (mut wall, mut session) = ([0.0; 2], [0.0; 2]);
        let order = if quad % 2 == 0 {
            [true, false, false, true]
        } else {
            [false, true, true, false]
        };
        for on in order {
            let (t, clock) = if on {
                (
                    &mut tracer,
                    long_searches && jobs.len().is_multiple_of(CLOCK_SAMPLE),
                )
            } else {
                (&mut untraced, false)
            };
            let jt = replay(t, &host, &job, clock)?;
            match job.check(&status_body(&jt.result, jt.warm_started)?) {
                Ok(o) => plan.record(&job, &o),
                Err(Failure::Wrong(w)) => wrong.push(format!("replayed job {k}: {w}")),
                Err(Failure::Failed(_)) => missed += 1,
            }
            wall[usize::from(on)] += jt.wall_s;
            session[usize::from(on)] += jt.result.elapsed.as_secs_f64();
            if on {
                // The per-job figures describe the jobs whose latency the
                // live run times (warm-repeat: the repeats, not the 1 s
                // cold jobs).
                if job.timed {
                    jobs.push(jt.sample());
                }
                if first.is_none() {
                    first = Some((Arc::clone(&jt.problem), jt.result.best.clone()));
                }
            }
            host.release(jt.id);
        }
        ratios.push((wall[1] - session[1] + session[0]) / wall[0]);
        wall_ratios.push(wall[1] / wall[0]);
    }
    drop(host);

    let roots: Vec<usize> = (0..tracer.spans.len())
        .filter(|&i| tracer.spans[i].parent.is_none())
        .collect();
    let mut children = vec![0.0; tracer.spans.len()];
    for (i, s) in tracer.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p] += tracer.duration(i);
        }
    }
    // Integrity: the stage spans of a job tile its wall time.
    let coverage: Vec<f64> = roots
        .iter()
        .map(|&r| children[r] / tracer.duration(r))
        .collect();
    let stage_sum = percentile(&coverage, 10.0);
    let overhead = interquartile_mean(&ratios);
    let spread = |r: &[f64]| {
        let [q1, m, q3] = quartiles(r).unwrap_or([f64::NAN; 3]);
        Value::Array(vec![num(q1), num(m), num(q3)])
    };

    let per_job = |f: &dyn Fn(&Sample) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let stage = |name: &str| {
        let d: Vec<f64> = (0..tracer.spans.len())
            .filter(|&i| tracer.spans[i].name == name)
            .map(|i| tracer.duration(i))
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    // One timed full-energy audit and one CSR conversion of the first
    // job's problem, scaled by how often a job pays them: the host audits
    // every improvement, and every device of a sparse job converts.
    let (problem, best) = first.ok_or("no jobs to trace")?;
    let a0 = Instant::now();
    std::hint::black_box(problem.energy(&best));
    let audit_s = a0.elapsed().as_secs_f64();
    let csr_s = if MatrixStorage::select(problem.as_ref()) == MatrixStorage::Sparse {
        let c0 = Instant::now();
        std::hint::black_box(SparseQubo::from_dense(&problem));
        c0.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let metrics = [
        ("server.spec.parse_s", stage("server.spec.parse")),
        ("qubo.content_hash_s", stage("qubo.content_hash")),
        ("core.cache.lookup_s", stage("core.cache.lookup")),
        ("core.cache.record_best_s", stage("core.cache.record_best")),
        ("vgpu.pool.lease_s", stage("vgpu.pool.lease")),
        ("core.session.start_s", stage("core.session.start")),
        ("core.session.stop_s", stage("core.session.stop")),
        ("core.session.search_s", per_job(&|j| j.search_s)),
        ("core.session.poll_calls", per_job(&|j| j.polls as f64)),
        // Pooled over every job, not a median of per-job shares: one poll
        // in 16 is timed, and the rare polls that audit an improvement
        // last milliseconds, so most jobs' scaled sums miss them and a few
        // count them sixteenfold.
        (
            "core.session.poll_frac",
            jobs.iter().map(|j| j.poll_s).sum::<f64>()
                / jobs.iter().map(|j| j.search_s).sum::<f64>(),
        ),
        ("core.session.host_cpu_frac", host_cpu_frac(&jobs)),
        (
            "core.session.flips_to_target",
            per_job(&|j| j.flips_to_target as f64),
        ),
        ("ga.insertion_ratio", per_job(&|j| j.insertion_ratio)),
        (
            "qubo.energy_audit_s",
            per_job(&|j| j.improvements as f64 * audit_s),
        ),
        (
            "qubo.sparse_from_dense_s",
            per_job(&|j| j.devices as f64 * csr_s),
        ),
        ("trace.stage_sum_ratio", stage_sum),
        ("trace.overhead_ratio", overhead),
    ];

    let path = write_spans(&tracer, plan)?;
    let details = obj(vec![
        ("jobs", int(jobs.len() as u64)),
        ("missed_target", int(missed as u64)),
        ("wall_s_p50", num(per_job(&|j| j.wall_s))),
        (
            "stage_sum_lowest_job",
            num(coverage.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("overhead_samples", int(ratios.len() as u64)),
        ("overhead_ratio_quartiles", spread(&ratios)),
        ("wall_ratio_quartiles", spread(&wall_ratios)),
        ("self_time_s", self_times(&tracer)),
        ("spans_file", Value::String(path)),
    ]);
    if !(STAGE_SUM_MIN..=1.0).contains(&stage_sum) {
        return Err(format!(
            "stage spans cover only {stage_sum:.4} of the wall time of one traced job in ten"
        ));
    }
    if overhead > OVERHEAD_MAX {
        return Err(format!(
            "tracing overhead {overhead:.4}x exceeds {OVERHEAD_MAX}x"
        ));
    }
    Ok(Traced {
        metrics: metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        wrong,
        details,
    })
}

/// Σ CPU of the driving thread over Σ search time, pooled over the jobs
/// whose thread clock was read (each reading may lag by a scheduler tick,
/// an error that averages out in the sum but not in a short job); 0 when
/// none was.
fn host_cpu_frac(jobs: &[Sample]) -> f64 {
    let read: Vec<(f64, f64)> = jobs
        .iter()
        .filter_map(|j| Some((j.host_cpu_s?, j.search_s)))
        .collect();
    if read.is_empty() {
        return 0.0;
    }
    read.iter().map(|r| r.0).sum::<f64>() / read.iter().map(|r| r.1).sum::<f64>()
}

/// Per span name: count, total and self time (duration minus children).
fn self_times(t: &Tracer) -> Value {
    let mut child_time = vec![0.0; t.spans.len()];
    for (i, s) in t.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child_time[p] += t.duration(i);
        }
    }
    let mut by_name: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (i, s) in t.spans.iter().enumerate() {
        let d = t.duration(i);
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += d;
                e.3 += d - child_time[i];
            }
            None => by_name.push((s.name, 1, d, d - child_time[i])),
        }
    }
    Value::Object(
        by_name
            .into_iter()
            .map(|(name, count, total, own)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("count", int(count as u64)),
                        ("total_s", num(total)),
                        ("self_s", num(own)),
                    ]),
                )
            })
            .collect(),
    )
}

fn write_spans(t: &Tracer, plan: &Plan) -> Result<String, String> {
    let dir = std::path::Path::new("bench/e2e/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-{}.json",
        plan.workload.name(),
        plan.seed()
    ));
    let spans = t
        .spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::String(s.name.into())),
                ("job", int(s.job)),
                ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                ("start_s", num(s.start.as_secs_f64())),
                ("end_s", num(s.end.as_secs_f64())),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("spans", Value::Array(spans)),
        ("self_time_s", self_times(t)),
    ]);
    let text = serde_json::to_string(&doc).expect("shim never fails");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

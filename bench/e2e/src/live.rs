//! Drives one workload against a live `abs-server` over sockets and turns
//! what it saw into the end-to-end metrics and the untraced per-layer
//! readings (HTTP timings, result bodies, `/proc`).

use crate::http::{self, Server};
use crate::procfs::{self, ProcSample};
use crate::stats::{median, percentile};
use crate::workload::{Failure, Job, Outcome, Plan, Workload, SERVER_FLAGS, WARMUP_JOBS};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server spawns timed for `setup_s`; the last one serves the workload.
const SETUP_SPAWNS: usize = 15;
/// Tail latency limit of the open loop's `max_rate_ok`.
const LATENCY_LIMIT_S: f64 = 0.050;
/// The open loop's rungs: label, fixed offered rate (jobs/s) and share of
/// the measured time. The current code meets the latency limit at `low`
/// and `mid` and misses it at `high`.
pub const RUNGS: [(&str, f64, f64); 3] = [
    ("low", 25.0, 0.25),
    ("mid", 100.0, 0.5),
    ("high", 300.0, 0.25),
];
/// The rung whose latencies are tiny-open's gated `latency_*` metrics. It
/// gets half the measured time, so its tail rests on about a thousand
/// jobs: with a third, its p90 moved by up to 13 % between runs.
const GATED_RUNG: usize = 1;
/// Result checks in flight at once after an open-loop rung.
const FETCH_BATCH: usize = 32;

/// One submitted job, as the client saw it.
pub struct Record {
    /// From when the job was due (closed loop: the POST write) to its
    /// `end` frame.
    pub latency_s: f64,
    /// POST round trip (written to 201 read).
    pub post_s: f64,
    /// `GET /jobs/{id}` round trip of the finished job.
    pub status_s: f64,
    /// How late the open-loop generator wrote the POST.
    pub lag_s: f64,
    /// Open-loop rung, 0 for closed loops.
    pub rung: usize,
    /// Whether its latency counts in the statistics.
    pub timed: bool,
    /// The checked result, or why there is none.
    pub result: Result<Outcome, Failure>,
}

/// Everything one live run measured.
pub struct LiveRun {
    /// Measured jobs (warm-ups excluded).
    pub records: Vec<Record>,
    /// Warm-up jobs that failed (they still count as attempted).
    pub warmup_failures: Vec<Failure>,
    /// Median server set-up time over the spawns.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// `/proc` readings around the measured phase.
    pub before: ProcSample,
    /// See `before`.
    pub after: ProcSample,
    /// Server `VmHWM` at the end of the workload.
    pub peak_rss_mb: f64,
}

/// Spawns the server [`SETUP_SPAWNS`] times, then runs the workload on
/// the last one for `seconds`.
///
/// # Errors
/// A server that cannot be started or read.
pub fn run(bin: &Path, plan: &mut Plan, seconds: f64) -> std::io::Result<LiveRun> {
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        // Kill and reap the previous server before the next spawn.
        drop(server.take());
        let (s, took) = Server::start(bin, &SERVER_FLAGS)?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let port = server.port;

    let mut warmup_failures = Vec::new();
    for k in 0..WARMUP_JOBS {
        let job = plan.job(k, true);
        let rec = closed_job(port, &job);
        match rec.result {
            Ok(o) => plan.record(&job, &o),
            Err(f) => warmup_failures.push(f),
        }
    }

    let before = procfs::sample(server.pid())?;
    let t0 = Instant::now();
    let records = if plan.workload == Workload::TinyOpen {
        open_loop(port, plan, seconds)
    } else {
        closed_loop(port, plan)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let after = procfs::sample(server.pid())?;
    Ok(LiveRun {
        records,
        warmup_failures,
        setup_s: median(&setups),
        wall_s,
        before,
        after,
        peak_rss_mb: procfs::peak_rss_mb(server.pid()).unwrap_or(f64::NAN),
    })
}

impl Record {
    fn new(timed: bool, result: Result<Outcome, Failure>) -> Self {
        Self {
            latency_s: 0.0,
            post_s: 0.0,
            status_s: 0.0,
            lag_s: 0.0,
            rung: 0,
            timed,
            result,
        }
    }
}

fn failed(latency_s: f64, why: String) -> Record {
    Record {
        latency_s,
        ..Record::new(true, Err(Failure::Failed(why)))
    }
}

/// POST, follow the event stream to its end frame, then fetch and check
/// the result.
fn closed_job(port: u16, job: &Job) -> Record {
    let t0 = Instant::now();
    let posted = http::request(port, "POST", "/jobs", job.body.as_bytes());
    let post_s = t0.elapsed().as_secs_f64();
    let id = match posted {
        Ok((201, body)) => http::job_id(&body),
        Ok((code, body)) => return failed(post_s, format!("POST answered {code}: {body}")),
        Err(e) => return failed(post_s, format!("POST: {e}")),
    };
    let Some(id) = id else {
        return failed(post_s, "201 without a job id".into());
    };
    let mut rec = finish(port, id, job, t0);
    rec.post_s = post_s;
    rec
}

/// Follows job `id` (due at `due`) to its end frame, then fetches and
/// checks its result.
fn finish(port: u16, id: u64, job: &Job, due: Instant) -> Record {
    let end = http::follow_events(port, id);
    let latency_s = due.elapsed().as_secs_f64();
    match end {
        Ok(()) => {
            let mut rec = fetch(port, id, job);
            rec.latency_s = latency_s;
            rec
        }
        Err(e) => failed(latency_s, format!("event stream: {e}")),
    }
}

/// `GET /jobs/{id}` of a finished job, checked against the oracle.
fn fetch(port: u16, id: u64, job: &Job) -> Record {
    let t0 = Instant::now();
    let got = http::request(port, "GET", &format!("/jobs/{id}"), b"");
    Record {
        status_s: t0.elapsed().as_secs_f64(),
        ..Record::new(job.timed, checked(job, got))
    }
}

/// A status answer, checked against the job's oracle.
fn checked(job: &Job, got: std::io::Result<(u16, String)>) -> Result<Outcome, Failure> {
    match got {
        Ok((200, body)) => serde_json::from_str(&body)
            .map_err(|e| Failure::Wrong(format!("status body: {e}")))
            .and_then(|v| job.check(&v)),
        Ok((code, body)) => Err(Failure::Failed(format!("GET answered {code}: {body}"))),
        Err(e) => Err(Failure::Failed(format!("GET: {e}"))),
    }
}

/// One client, one job at a time, through the workload's fixed job list.
fn closed_loop(port: u16, plan: &mut Plan) -> Vec<Record> {
    (0..plan.workload.closed_jobs())
        .map(|k| {
            let job = plan.job(k, false);
            let rec = closed_job(port, &job);
            if let Ok(o) = &rec.result {
                plan.record(&job, o);
            }
            rec
        })
        .collect()
}

/// Fixed-rate rungs. A sender thread writes each POST when it is due and
/// never waits for the reply; this thread reads the 201s and follows each
/// job's event stream in submission order. With one solver worker jobs
/// finish in FIFO order, so following one stream at a time records every
/// end frame as it happens while holding at most two connections.
/// Results are fetched and checked after each rung, off the timed path.
fn open_loop(port: u16, plan: &mut Plan, seconds: f64) -> Vec<Record> {
    let mut records = Vec::new();
    let mut next = 0usize;
    for (rung, &(_, rate, share)) in RUNGS.iter().enumerate() {
        let count = (rate * share * seconds).round() as usize;
        let jobs: Vec<Job> = (next..next + count).map(|k| plan.job(k, false)).collect();
        next += count;
        let (tx, rx) = mpsc::channel();
        let start = Instant::now() + Duration::from_millis(20);
        let sender_jobs = &jobs;
        let mut followed: Vec<(Option<u64>, Record)> = std::thread::scope(|s| {
            // `move` hands the sender `tx`, so the channel closes when it
            // has written its last POST.
            s.spawn(move || {
                for (i, job) in sender_jobs.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lag = Instant::now().duration_since(due);
                    let sent = http::send(port, "POST", "/jobs", job.body.as_bytes());
                    if tx.send((due, lag, Instant::now(), sent)).is_err() {
                        return;
                    }
                }
            });
            rx.iter()
                .map(|(due, lag, written, sent)| {
                    let reply = sent.and_then(http::receive);
                    let post_s = written.elapsed().as_secs_f64();
                    let (id, mut rec) = match reply {
                        Ok((201, body)) => match http::job_id(&body) {
                            Some(id) => (Some(id), finish_stream(port, id, due)),
                            None => (None, failed(post_s, "201 without a job id".into())),
                        },
                        Ok((code, body)) => (
                            None,
                            failed(post_s, format!("POST answered {code}: {body}")),
                        ),
                        Err(e) => (None, failed(post_s, format!("POST: {e}"))),
                    };
                    rec.post_s = post_s;
                    rec.lag_s = lag.as_secs_f64();
                    rec.rung = rung;
                    (id, rec)
                })
                .collect()
        });
        // Check every result after the rung, off the timed path: the
        // first batch one request at a time (they time `status_s`), the
        // rest with a batch of connections in flight, so thousands of
        // checks do not each wait out the server's accept poll.
        let pending: Vec<(usize, u64)> = followed
            .iter()
            .enumerate()
            .filter_map(|(i, (id, rec))| Some((i, (*id).filter(|_| rec.result.is_ok())?)))
            .collect();
        for (b, batch) in pending.chunks(FETCH_BATCH).enumerate() {
            if b == 0 {
                for &(i, id) in batch {
                    let r = fetch(port, id, &jobs[i]);
                    followed[i].1.status_s = r.status_s;
                    followed[i].1.result = r.result;
                }
                continue;
            }
            let sent: Vec<_> = batch
                .iter()
                .map(|&(i, id)| (i, http::send(port, "GET", &format!("/jobs/{id}"), b"")))
                .collect();
            for (i, s) in sent {
                followed[i].1.status_s = f64::NAN;
                followed[i].1.result = checked(&jobs[i], s.and_then(http::receive));
            }
        }
        records.extend(followed.into_iter().map(|(_, r)| r));
    }
    records
}

/// Follows a stream only; the result is fetched later.
fn finish_stream(port: u16, id: u64, due: Instant) -> Record {
    let end = http::follow_events(port, id);
    let latency_s = due.elapsed().as_secs_f64();
    match end {
        Ok(()) => Record {
            latency_s,
            ..Record::new(true, Ok(Outcome::default()))
        },
        Err(e) => failed(latency_s, format!("event stream: {e}")),
    }
}

/// Latency statistics of one group of records.
pub struct Latency {
    /// Median of the successful jobs' latencies.
    pub p50_s: f64,
    /// The workload's tail percentile of the same.
    pub tail_s: f64,
    /// Samples behind both.
    pub samples: usize,
    /// Whether the tail meets [`LATENCY_LIMIT_S`] with no failures.
    pub meets_limit: bool,
}

/// p50 and tail over `records` (failures count as missing the limit).
#[must_use]
pub fn latency(records: &[&Record], tail_pct: u32) -> Latency {
    let ok: Vec<f64> = records
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.latency_s)
        .collect();
    let tail_s = percentile(&ok, f64::from(tail_pct));
    Latency {
        p50_s: median(&ok),
        tail_s,
        samples: ok.len(),
        meets_limit: ok.len() == records.len() && tail_s <= LATENCY_LIMIT_S,
    }
}

impl LiveRun {
    /// Timed records (the latency population).
    pub fn timed(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.timed)
    }

    /// Timed records of one open-loop rung.
    #[must_use]
    pub fn rung(&self, rung: usize) -> Vec<&Record> {
        self.timed().filter(|r| r.rung == rung).collect()
    }

    /// The records the workload's `latency_*` metrics describe.
    #[must_use]
    pub fn gated(&self, workload: Workload) -> Vec<&Record> {
        if workload == Workload::TinyOpen {
            self.rung(GATED_RUNG)
        } else {
            self.timed().collect()
        }
    }

    /// Successful outcomes of the measured phase.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.records.iter().filter_map(|r| r.result.as_ref().ok())
    }

    /// Open loop: the highest rung meeting the latency limit with no
    /// failures and no growing generator lag (the median lag of its last
    /// quarter exceeds that of its first by over 5 ms).
    #[must_use]
    pub fn max_rate_ok(&self, tail_pct: u32) -> Option<usize> {
        (0..RUNGS.len()).rev().find(|&r| {
            let recs = self.rung(r);
            let lags: Vec<f64> = recs.iter().map(|x| x.lag_s).collect();
            let quarter = (lags.len() / 4).max(1);
            let growing = lags.len() >= 8
                && median(&lags[lags.len() - quarter..]) > median(&lags[..quarter]) + 0.005;
            !recs.is_empty() && latency(&recs, tail_pct).meets_limit && !growing
        })
    }
}

//! End-to-end acceptance of the job server: the real binary, real
//! sockets, real signals.
//!
//! Each test spawns `abs-server` on an ephemeral port (parsed from its
//! startup line) and speaks raw HTTP/1.1 over `TcpStream`. Covered:
//! bounded-queue 429s, SSE monotonicity, bit-for-bit agreement with a
//! direct `AbsSession` on the same seed, mid-solve cancellation,
//! checkpoint-write failures surfacing as `failed`, SIGTERM drain plus
//! `--resume-jobs` with the `(flips + units) · (n + 1)` accounting
//! intact, a live `/metrics` exposition that parses, and the PR-10
//! scheduler: two jobs running simultaneously on the shared device
//! pool with bit-for-bit isolated results, a SIGTERM drain that spools
//! *every* in-flight job, and warm starts from the content-hash cache
//! (repeat POST hits, mutated-matrix POST misses).

use abs_server::runner::solver_config;
use abs_server::spec::parse_spec;
use qubo::{BitVec, Qubo};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_abs-server");

/// A spawned server, killed on drop unless the test already waited it
/// out.
struct Server {
    child: Child,
    port: u16,
}

impl Server {
    fn spawn(extra_args: &[&str]) -> Self {
        let mut child = Command::new(BIN)
            .args(["--addr", "127.0.0.1", "--port", "0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn abs-server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("startup line");
        // "abs-server listening on http://127.0.0.1:PORT"
        let port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("unparseable startup line {line:?}"));
        // Keep draining stdout so the child never blocks on the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        Self { child, port }
    }

    /// Sends SIGTERM and waits for a clean (code 0) drain.
    fn sigterm_and_wait(mut self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill -TERM");
        assert!(status.success());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "drain must exit 0, got {status:?}");
                return;
            }
            assert!(Instant::now() < deadline, "server did not drain in time");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request over a fresh connection; returns `(status, body)`.
fn http(port: u16, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to abs-server");
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get_json(port: u16, path: &str) -> (u16, serde_json::Value) {
    let (status, body) = http(port, "GET", path, None);
    let value = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("bad JSON from {path}: {e}: {body:?}"));
    (status, value)
}

/// Polls `GET /jobs/{id}` until the job's state is in `until`.
fn wait_state(port: u16, id: u64, until: &[&str], timeout: Duration) -> serde_json::Value {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, v) = get_json(port, &format!("/jobs/{id}"));
        assert_eq!(status, 200);
        let state = v.get("state").and_then(|s| s.as_str()).unwrap_or("");
        if until.contains(&state) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state:?}, wanted one of {until:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Serializes a dense problem as the JSON codec's upper triangle.
fn dense_problem_json(q: &Qubo) -> String {
    let n = q.n();
    let mut upper = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in i..n {
            upper.push(q.get(i, j).to_string());
        }
    }
    format!(
        "{{\"format\": \"dense\", \"n\": {n}, \"upper\": [{}]}}",
        upper.join(", ")
    )
}

/// First seed from 11 whose 14-bit instance has a *unique* optimum, so
/// "bit-for-bit" is well-defined: any solver that reaches the optimal
/// energy must hold exactly these bits.
fn unique_optimum_instance() -> (Qubo, i64, String) {
    unique_optimum_instance_from(11)
}

/// As above, scanning seeds from `start` — lets tests pick *distinct*
/// unique-optimum instances.
fn unique_optimum_instance_from(start: u64) -> (Qubo, i64, String) {
    for seed in start.. {
        let q = qubo_problems::random::generate(14, seed);
        let mut best = i64::MAX;
        let mut arg = 0u32;
        let mut ties = 0u32;
        for bits in 0..(1u32 << 14) {
            let x = assignment(bits, 14);
            let e = q.energy(&x);
            if e < best {
                best = e;
                arg = bits;
                ties = 1;
            } else if e == best {
                ties += 1;
            }
        }
        if ties == 1 {
            let solution: String = (0..14)
                .map(|i| if (arg >> i) & 1 == 1 { '1' } else { '0' })
                .collect();
            return (q, best, solution);
        }
    }
    unreachable!("some seed yields a unique optimum");
}

fn assignment(bits: u32, n: usize) -> BitVec {
    let mut x = BitVec::zeros(n);
    for i in 0..n {
        x.set(i, (bits >> i) & 1 == 1);
    }
    x
}

#[test]
fn solve_matches_direct_session_bit_for_bit() {
    let (q, optimum, solution) = unique_optimum_instance();
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 7, \"target\": {optimum}, \"timeout_ms\": 30000}}}}",
        dense_problem_json(&q)
    );

    let server = Server::spawn(&[]);
    let (status, created) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201, "{created}");
    let done = wait_state(server.port, 1, &["done", "failed"], Duration::from_secs(40));
    assert_eq!(done.get("state").and_then(|s| s.as_str()), Some("done"));
    let result = done.get("result").expect("result present");
    assert_eq!(
        result.get("best_energy").and_then(|v| v.as_i64()),
        Some(optimum)
    );
    assert_eq!(
        result.get("reached_target").and_then(|v| v.as_bool()),
        Some(true)
    );
    let served_solution = result
        .get("solution")
        .and_then(|v| v.as_str())
        .expect("solution string")
        .to_string();
    assert_eq!(
        served_solution, solution,
        "server must land on the unique optimum"
    );

    // The direct twin: same payload through the same config mapping.
    let spec = parse_spec(&body).expect("spec parses");
    let cfg = solver_config(&spec, None);
    let direct = abs::AbsSession::start(cfg, &spec.problem)
        .expect("direct session")
        .run_to_completion()
        .expect("direct solve");
    assert_eq!(direct.best_energy, optimum);
    let direct_solution: String = (0..direct.best.len())
        .map(|i| if direct.best.get(i) { '1' } else { '0' })
        .collect();
    assert_eq!(
        direct_solution, served_solution,
        "bit-for-bit with the direct session"
    );
}

#[test]
fn full_queue_refuses_with_429() {
    // One solver worker, or the second job would be claimed instead of
    // waiting in the (depth-1) queue.
    let server = Server::spawn(&["--queue-depth", "1", "--solver-workers", "1"]);
    let q = qubo_problems::random::generate(16, 2);
    let slow = format!(
        "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 20000}}}}",
        dense_problem_json(&q)
    );
    let slow = slow.as_str();
    let (status, _) = http(server.port, "POST", "/jobs", Some(slow));
    assert_eq!(status, 201);
    // Job 1 must be claimed (leave the queue) before the queue can hold
    // job 2.
    wait_state(server.port, 1, &["running"], Duration::from_secs(10));
    let (status, _) = http(server.port, "POST", "/jobs", Some(slow));
    assert_eq!(status, 201, "one job may wait");
    let (status, body) = http(server.port, "POST", "/jobs", Some(slow));
    assert_eq!(status, 429, "the bounded queue must refuse: {body}");
    assert!(body.contains("queue"), "{body}");

    // Queued job reports its position; both cancel cleanly.
    let (_, v) = get_json(server.port, "/jobs/2");
    assert_eq!(v.get("queue_position").and_then(|p| p.as_u64()), Some(0));
    let (status, _) = http(server.port, "DELETE", "/jobs/2", None);
    assert_eq!(status, 200);
    let (status, _) = http(server.port, "DELETE", "/jobs/1", None);
    assert_eq!(status, 202);
    wait_state(server.port, 1, &["cancelled"], Duration::from_secs(10));
}

#[test]
fn delete_cancels_a_running_job_promptly() {
    let server = Server::spawn(&[]);
    let q = qubo_problems::random::generate(32, 5);
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 30000}}}}",
        dense_problem_json(&q)
    );
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    wait_state(server.port, 1, &["running"], Duration::from_secs(10));
    let started = Instant::now();
    let (status, body) = http(server.port, "DELETE", "/jobs/1", None);
    assert_eq!(status, 202, "{body}");
    let v = wait_state(server.port, 1, &["cancelled"], Duration::from_secs(5));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancel must land within a poll stride, took {:?}",
        started.elapsed()
    );
    // A mid-solve cancel keeps the partial result.
    assert!(v.get("result").is_some(), "partial result retained: {v:?}");
    // Cancelling again is idempotent and settled.
    let (status, _) = http(server.port, "DELETE", "/jobs/1", None);
    assert_eq!(status, 200);
}

#[test]
fn sse_stream_is_monotone_and_ends_with_state() {
    let server = Server::spawn(&[]);
    let q = qubo_problems::random::generate(48, 3);
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 1500}}}}",
        dense_problem_json(&q)
    );
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);

    // Stream until the server closes the connection at job end.
    let mut stream = TcpStream::connect(("127.0.0.1", server.port)).expect("connect");
    stream
        .write_all(b"GET /jobs/1/events HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read stream");
    assert!(raw.contains("text/event-stream"), "{raw:?}");

    let mut seqs = Vec::new();
    let mut bests = Vec::new();
    let mut flips = Vec::new();
    let mut end_state = None;
    let frames = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    for frame in frames.split("\n\n") {
        let mut event = "";
        let mut data = "";
        for line in frame.lines() {
            if let Some(v) = line.strip_prefix("event: ") {
                event = v;
            } else if let Some(v) = line.strip_prefix("data: ") {
                data = v;
            }
        }
        match event {
            "progress" => {
                let v: serde_json::Value = serde_json::from_str(data).expect("progress JSON");
                seqs.push(v.get("seq").and_then(|x| x.as_u64()).expect("seq"));
                if let Some(e) = v.get("best_energy").and_then(|x| x.as_i64()) {
                    bests.push(e);
                }
                flips.push(v.get("flips").and_then(|x| x.as_u64()).expect("flips"));
            }
            "end" => {
                let v: serde_json::Value = serde_json::from_str(data).expect("end JSON");
                end_state = v.get("state").and_then(|s| s.as_str()).map(String::from);
            }
            _ => {}
        }
    }
    assert!(!seqs.is_empty(), "at least one progress event: {raw:?}");
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "seq gap-free and increasing: {seqs:?}"
    );
    assert!(
        bests.windows(2).all(|w| w[1] <= w[0]),
        "best energy monotone non-increasing: {bests:?}"
    );
    assert!(
        flips.windows(2).all(|w| w[1] >= w[0]),
        "flips monotone non-decreasing: {flips:?}"
    );
    assert_eq!(end_state.as_deref(), Some("done"), "{raw:?}");
}

#[test]
fn denied_checkpoint_write_fails_the_job_loudly() {
    let spool = temp_dir("deny");
    let server = Server::spawn(&["--spool", spool.to_str().expect("utf-8 path")]);
    let q = qubo_problems::random::generate(24, 9);
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 20000,
           \"checkpoint_interval_ms\": 1, \"deny_checkpoint_write\": 0}}}}",
        dense_problem_json(&q)
    );
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    let v = wait_state(server.port, 1, &["failed", "done"], Duration::from_secs(20));
    assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("failed"));
    let reason = v
        .get("error")
        .and_then(|e| e.as_str())
        .expect("error reason");
    assert!(
        reason.contains("injected write denial"),
        "the checkpoint I/O error must reach the status body: {reason:?}"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn sigterm_drains_and_resume_preserves_accounting() {
    let spool = temp_dir("drain");
    let spool_arg = spool.to_str().expect("utf-8 path");
    let server = Server::spawn(&["--spool", spool_arg]);
    let port_a = server.port;

    let q = qubo_problems::random::generate(32, 5);
    let n = q.n() as u64;
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 3, \"timeout_ms\": 4000,
           \"checkpoint_interval_ms\": 25}}}}",
        dense_problem_json(&q)
    );
    let (status, _) = http(port_a, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    wait_state(port_a, 1, &["running"], Duration::from_secs(10));
    // Let it accrue some progress (and at least one stride checkpoint).
    std::thread::sleep(Duration::from_millis(400));
    server.sigterm_and_wait();
    assert!(
        spool.join("jobs.json").exists(),
        "drain must leave a manifest"
    );
    assert!(spool.join("1.ckpt").exists(), "drain must checkpoint job 1");

    // Restart from the spool; the job keeps its id and finishes its
    // remaining budget.
    let server = Server::spawn(&["--spool", spool_arg, "--resume-jobs"]);
    let v = wait_state(server.port, 1, &["done", "failed"], Duration::from_secs(30));
    assert_eq!(
        v.get("state").and_then(|s| s.as_str()),
        Some("done"),
        "{v:?}"
    );
    let result = v.get("result").expect("result");
    let flips = result
        .get("total_flips")
        .and_then(|x| x.as_u64())
        .expect("flips");
    let units = result
        .get("search_units")
        .and_then(|x| x.as_u64())
        .expect("units");
    let evaluated = result
        .get("evaluated")
        .and_then(|x| x.as_u64())
        .expect("evaluated");
    let elapsed = result
        .get("elapsed_ms")
        .and_then(|x| x.as_u64())
        .expect("elapsed");
    assert_eq!(
        evaluated,
        (flips + units) * (n + 1),
        "cumulative Theorem-1 accounting must survive the restart"
    );
    assert!(
        elapsed >= 4000,
        "elapsed is cumulative across the drain ({elapsed}ms)"
    );
    assert!(flips > 0 && units > 0);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn metrics_endpoint_serves_live_valid_prometheus() {
    let server = Server::spawn(&[]);
    let q = qubo_problems::random::generate(32, 8);
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 2000}}}}",
        dense_problem_json(&q)
    );
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    wait_state(server.port, 1, &["running"], Duration::from_secs(10));
    // Give the worker an event stride to publish a live snapshot.
    std::thread::sleep(Duration::from_millis(300));

    let (status, text) = http(server.port, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let samples = abs_telemetry::expose::parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("/metrics must parse: {e}\n{text}"));
    assert!(samples > 0);
    assert!(text.contains("abs_server_jobs_submitted_total 1"), "{text}");
    assert!(
        text.contains("abs_flips_total"),
        "live solver families must be exposed mid-solve"
    );
    wait_state(server.port, 1, &["done"], Duration::from_secs(20));
}

#[test]
fn bad_requests_are_typed() {
    let server = Server::spawn(&[]);
    let (status, body) = http(server.port, "POST", "/jobs", Some("{\"problem\": 3}"));
    assert_eq!(status, 400, "{body}");
    let (status, _) = http(server.port, "GET", "/jobs/99", None);
    assert_eq!(status, 404);
    let (status, _) = http(server.port, "PUT", "/jobs/1", None);
    assert_eq!(status, 405);
    let (status, _) = http(server.port, "GET", "/nope", None);
    assert_eq!(status, 404);
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    // ~100 KB of `[`: far under the body cap, far deeper than any
    // handler thread's stack could recurse.
    let server = Server::spawn(&[]);
    for body in [
        format!("{{\"problem\": {}", "[".repeat(100_000)),
        format!(
            "{{\"problem\": {{\"format\": \"dense\", \"n\": 1, \"upper\": [1]}}, \"config\": {}",
            "{\"a\": ".repeat(100_000)
        ),
    ] {
        let (status, text) = http(server.port, "POST", "/jobs", Some(&body));
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("invalid JSON"), "{text}");
    }
    let (status, _) = http(server.port, "GET", "/metrics", None);
    assert_eq!(status, 200, "the server must outlive a hostile body");
}

#[test]
fn concurrent_jobs_run_simultaneously() {
    // Two solver workers share the device pool: two submitted jobs
    // must both be observably `running` at the same instant, and the
    // serving metrics must count them truthfully.
    let server = Server::spawn(&["--solver-workers", "2"]);
    let q1 = qubo_problems::random::generate(48, 21);
    let q2 = qubo_problems::random::generate(48, 22);
    for q in [&q1, &q2] {
        let body = format!(
            "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 20000, \"tenant\": \"stress\"}}}}",
            dense_problem_json(q)
        );
        let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
        assert_eq!(status, 201);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, a) = get_json(server.port, "/jobs/1");
        let (_, b) = get_json(server.port, "/jobs/2");
        let running =
            |v: &serde_json::Value| v.get("state").and_then(|s| s.as_str()) == Some("running");
        if running(&a) && running(&b) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "both jobs must run simultaneously: {a:?} / {b:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A job reads `running` as soon as a worker claims it; the worker
    // then bumps the gauge and takes its lease, which on one CPU may not
    // have happened yet. Wait for both, bounded.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, text) = http(server.port, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let counted = text.contains("abs_server_jobs_running 2");
        let leased = text.contains("abs_pool_blocks_leased{tenant=\"stress\"} 16");
        if counted && leased {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the gauge must count concurrent sessions, not saturate at 1 \
             ({counted}), and two 8-block leases aggregate per tenant \
             ({leased}): {text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for id in [1, 2] {
        let (status, _) = http(server.port, "DELETE", &format!("/jobs/{id}"), None);
        assert_eq!(status, 202);
        wait_state(server.port, id, &["cancelled"], Duration::from_secs(10));
    }
}

#[test]
fn concurrent_results_match_direct_sessions_bit_for_bit() {
    // Two *different* unique-optimum instances solved concurrently on
    // the shared pool: each must land on exactly the bits a direct,
    // exclusive session finds — tenant isolation means no cross-talk
    // in results, not just in memory.
    let (qa, opt_a, _) = unique_optimum_instance_from(11);
    let (qb, opt_b, _) = unique_optimum_instance_from(101);
    assert_ne!(
        qa.content_hash(),
        qb.content_hash(),
        "the two instances must be distinct"
    );
    let body_a = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 7, \"target\": {opt_a}, \"timeout_ms\": 30000}}}}",
        dense_problem_json(&qa)
    );
    let body_b = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 9, \"target\": {opt_b}, \"timeout_ms\": 30000}}}}",
        dense_problem_json(&qb)
    );

    let server = Server::spawn(&["--solver-workers", "2"]);
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body_a));
    assert_eq!(status, 201);
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body_b));
    assert_eq!(status, 201);

    let mut served = Vec::new();
    for (id, optimum) in [(1u64, opt_a), (2u64, opt_b)] {
        let done = wait_state(
            server.port,
            id,
            &["done", "failed"],
            Duration::from_secs(40),
        );
        assert_eq!(done.get("state").and_then(|s| s.as_str()), Some("done"));
        let result = done.get("result").expect("result present");
        assert_eq!(
            result.get("best_energy").and_then(|v| v.as_i64()),
            Some(optimum)
        );
        served.push(
            result
                .get("solution")
                .and_then(|v| v.as_str())
                .expect("solution")
                .to_string(),
        );
    }

    for (body, expect) in [(&body_a, &served[0]), (&body_b, &served[1])] {
        let spec = parse_spec(body).expect("spec parses");
        let cfg = solver_config(&spec, None);
        let direct = abs::AbsSession::start(cfg, &spec.problem)
            .expect("direct session")
            .run_to_completion()
            .expect("direct solve");
        let direct_solution: String = (0..direct.best.len())
            .map(|i| if direct.best.get(i) { '1' } else { '0' })
            .collect();
        assert_eq!(
            direct_solution, **expect,
            "a pooled concurrent session must be bit-for-bit a direct one"
        );
    }
}

#[test]
fn concurrent_drain_spools_every_in_flight_job() {
    let spool = temp_dir("drain-all");
    let spool_arg = spool.to_str().expect("utf-8 path");
    let server = Server::spawn(&["--spool", spool_arg, "--solver-workers", "2"]);
    let port = server.port;
    for seed in [31, 32] {
        let q = qubo_problems::random::generate(32, seed);
        let body = format!(
            "{{\"problem\": {}, \"config\": {{\"timeout_ms\": 8000,
               \"checkpoint_interval_ms\": 25}}}}",
            dense_problem_json(&q)
        );
        let (status, _) = http(port, "POST", "/jobs", Some(&body));
        assert_eq!(status, 201);
    }
    wait_state(port, 1, &["running"], Duration::from_secs(10));
    wait_state(port, 2, &["running"], Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(400));
    server.sigterm_and_wait();

    let manifest = std::fs::read_to_string(spool.join("jobs.json")).expect("manifest");
    for id in [1, 2] {
        assert!(
            manifest.contains(&format!("\"id\": {id}"))
                || manifest.contains(&format!("\"id\":{id}")),
            "job {id} must be in the drain manifest: {manifest}"
        );
        assert!(
            spool.join(format!("{id}.ckpt")).exists(),
            "drain must checkpoint job {id}"
        );
    }

    // Both resume and finish on a restarted server.
    let server = Server::spawn(&[
        "--spool",
        spool_arg,
        "--resume-jobs",
        "--solver-workers",
        "2",
    ]);
    for id in [1, 2] {
        let v = wait_state(
            server.port,
            id,
            &["done", "failed"],
            Duration::from_secs(30),
        );
        assert_eq!(
            v.get("state").and_then(|s| s.as_str()),
            Some("done"),
            "{v:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn warm_start_repeat_submission_hits_cache_and_stays_exact() {
    // Warm-start correctness: a cached-seed solve on a unique-optimum
    // instance must land bit-for-bit where the cold start landed, the
    // repeat POST must actually hit the cache, and a mutated matrix of
    // the same n must MISS (hash staleness regression).
    let (q, optimum, solution) = unique_optimum_instance();
    let body = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 7, \"target\": {optimum}, \"timeout_ms\": 30000}}}}",
        dense_problem_json(&q)
    );
    let server = Server::spawn(&[]);

    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    let cold = wait_state(server.port, 1, &["done", "failed"], Duration::from_secs(40));
    assert_eq!(cold.get("state").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(
        cold.get("warm_started").and_then(|v| v.as_bool()),
        Some(false),
        "first sight of the instance is a cold start: {cold:?}"
    );
    let cold_hash = cold
        .get("problem_hash")
        .and_then(|v| v.as_str())
        .expect("hash exposed")
        .to_string();

    // Repeat POST of the same problem: must start from the cached
    // incumbent (which *is* the unique optimum) and return it exactly.
    let (status, _) = http(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 201);
    let warm = wait_state(server.port, 2, &["done", "failed"], Duration::from_secs(40));
    assert_eq!(warm.get("state").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(
        warm.get("warm_started").and_then(|v| v.as_bool()),
        Some(true),
        "repeat POST of the same W must warm-start: {warm:?}"
    );
    assert_eq!(
        warm.get("problem_hash").and_then(|v| v.as_str()),
        Some(cold_hash.as_str()),
        "same matrix, same digest"
    );
    let warm_result = warm.get("result").expect("result");
    assert_eq!(
        warm_result.get("best_energy").and_then(|v| v.as_i64()),
        Some(optimum)
    );
    assert_eq!(
        warm_result.get("solution").and_then(|v| v.as_str()),
        Some(solution.as_str()),
        "warm start must be bit-for-bit as good as cold on a unique optimum"
    );
    assert_eq!(
        warm_result.get("reached_target").and_then(|v| v.as_bool()),
        Some(true)
    );

    // Mutate one weight (same n): different digest, must MISS.
    let mut mutated = q.clone();
    mutated.set(3, 9, mutated.get(3, 9).wrapping_add(1));
    let mutated_body = format!(
        "{{\"problem\": {}, \"config\": {{\"seed\": 7, \"timeout_ms\": 2000}}}}",
        dense_problem_json(&mutated)
    );
    let (status, _) = http(server.port, "POST", "/jobs", Some(&mutated_body));
    assert_eq!(status, 201);
    let miss = wait_state(server.port, 3, &["done", "failed"], Duration::from_secs(20));
    assert_eq!(
        miss.get("warm_started").and_then(|v| v.as_bool()),
        Some(false),
        "a mutated W with the same n must MISS the cache: {miss:?}"
    );
    assert_ne!(
        miss.get("problem_hash").and_then(|v| v.as_str()),
        Some(cold_hash.as_str()),
        "mutation must change the digest"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abs-server-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

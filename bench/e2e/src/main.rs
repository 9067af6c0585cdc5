//! `abs-e2e`: the end-to-end job benchmark of `abs-server`.
//!
//! Run from the repository root (see README.md):
//!
//! ```text
//! abs-e2e --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! abs-e2e run   --seed N [--runs K] [--seconds S] [--out FILE]
//! abs-e2e trace --seed N [--runs K] [--seconds S] [--out FILE]
//! abs-e2e compare A.json B.json [--cross-host]
//! abs-e2e pair ROOT_A ROOT_B [--runs K] [--seed N] [--workload W] [--seconds S]
//!              --out-a A.json --out-b B.json
//! ```
//!
//! The first form runs one workload and prints, last, the one-line JSON
//! summary (`correct`, `attempted`, `failed`, `metrics`); `run` and
//! `trace` loop over every workload and seed and print one
//! `workload metric value unit` line per metric. Every mode exits
//! non-zero on a wrong answer.

mod compare;
mod http;
mod live;
mod procfs;
mod report;
mod stats;
mod trace;
mod workload;

use live::{latency, LiveRun, RUNGS};
use report::{int, num, obj, Fingerprint, RunReport};
use serde_json::Value;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Failure, Plan, Workload};

/// Measured seconds per workload run (BENCHMARK.json `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "\
usage: abs-e2e --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
       abs-e2e run   --seed N [--runs K] [--seconds S] [--out FILE]
       abs-e2e trace --seed N [--runs K] [--seconds S] [--out FILE]
       abs-e2e compare A.json B.json [--cross-host]
       abs-e2e pair ROOT_A ROOT_B [--runs K] [--seed N] [--workload W] [--seconds S]
                    --out-a A.json --out-b B.json
workloads: gset-sparse dense-rate tiny-open warm-repeat
Run from the repository root.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("abs-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => sweep(&Opts::parse(&args[1..], SWEEP_KEYS)?, false),
        Some("trace") => sweep(&Opts::parse(&args[1..], SWEEP_KEYS)?, true),
        Some("compare") => compare::main(&args[1..]),
        Some("pair") => pair(&Opts::parse(&args[1..], PAIR_KEYS)?),
        Some(flag) if flag.starts_with("--") => single(&Opts::parse(args, SINGLE_KEYS)?),
        _ => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

const SINGLE_KEYS: &[&str] = &["workload", "seed", "seconds", "trace", "out"];
const SWEEP_KEYS: &[&str] = &["workload", "seed", "runs", "seconds", "out"];
const PAIR_KEYS: &[&str] = &["workload", "seed", "runs", "seconds", "out-a", "out-b"];

/// `--key value` options plus positional arguments.
struct Opts {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Opts {
    /// Parses `args`, refusing any option not in `keys` (a misspelled
    /// option must not silently run with its default).
    fn parse(args: &[String], keys: &[&str]) -> Result<Self, String> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if !keys.contains(&key) => {
                    return Err(format!("unknown option --{key}\n{USAGE}"));
                }
                Some(key) => {
                    let v = it.next().ok_or(format!("--{key} needs a value"))?;
                    named.insert(key.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Self { named, positional })
    }

    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(a) => Err(format!("unexpected argument {a:?}\n{USAGE}")),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} needs a whole number"))
        })
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("workload")
            .map(|w| Workload::parse(w).ok_or(format!("unknown workload {w:?}\n{USAGE}")))
            .transpose()
    }
}

/// One workload, one seed: the form BENCHMARK.json's `command` takes.
fn single(opts: &Opts) -> Result<ExitCode, String> {
    opts.no_positional()?;
    let workload = opts.workload()?.ok_or("--workload is required")?;
    let seed = opts.num("seed", 1)?;
    let seconds = opts.num("seconds", DEFAULT_SECONDS)?;
    let traced = match opts.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let bin = server_binary()?;
    let report = run_workload(&bin, workload, seed, seconds, traced)?;
    print_lines(&report);
    if let Some(out) = opts.get("out") {
        report::write_set(out, std::slice::from_ref(&report)).map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{}", report.summary_line());
    Ok(exit_code(&[report]))
}

/// `run` / `trace`: every workload for `--runs` consecutive seeds.
fn sweep(opts: &Opts, traced: bool) -> Result<ExitCode, String> {
    opts.no_positional()?;
    let seed = opts.num("seed", 1)?;
    let runs = opts.num("runs", 1)?;
    let seconds = opts.num("seconds", DEFAULT_SECONDS)?;
    let only = opts.workload()?;
    let bin = server_binary()?;
    let mut reports = Vec::new();
    for s in seed..seed + runs {
        for w in Workload::ALL
            .into_iter()
            .filter(|w| only.is_none_or(|o| o == *w))
        {
            let report = run_workload(&bin, w, s, seconds, traced)?;
            print_lines(&report);
            reports.push(report);
        }
    }
    if let Some(out) = opts.get("out") {
        report::write_set(out, &reports).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(exit_code(&reports))
}

/// Non-zero when any output failed the oracle.
fn exit_code(reports: &[RunReport]) -> ExitCode {
    for r in reports {
        for w in &r.wrong {
            eprintln!("abs-e2e: {} seed {}: WRONG ANSWER: {w}", r.workload, r.seed);
        }
    }
    if reports.iter().all(RunReport::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_lines(r: &RunReport) {
    for (name, value) in &r.metrics {
        let unit = report::find(name).map_or("", |s| s.unit);
        println!("{} {name} {value} {unit}", r.workload);
    }
    println!(
        "{} fail_frac {} ratio",
        r.workload,
        r.failed as f64 / r.attempted.max(1) as f64
    );
}

/// Builds `abs-server` from the checkout in the working directory and
/// returns the binary's path.
fn server_binary() -> Result<PathBuf, String> {
    if !Path::new("crates/server/Cargo.toml").is_file() {
        return Err("no crates/server here: run from the repository root".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "abs-server",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building abs-server failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("abs-server"))
}

/// Generates the inputs, drives the live server, checks every result,
/// and (traced) replays the jobs in-process with spans.
fn run_workload(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let t0 = Instant::now();
    let mut plan = Plan::new(workload, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let live = live::run(bin, &mut plan, seconds as f64)
        .map_err(|e| format!("{}: {e}", workload.name()))?;

    let mut wrong = Vec::new();
    let mut failed = 0;
    let failures = live
        .records
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .chain(&live.warmup_failures);
    for f in failures {
        failed += 1;
        match f {
            Failure::Wrong(w) => wrong.push(w.clone()),
            Failure::Failed(why) => eprintln!("abs-e2e: {}: job failed: {why}", workload.name()),
        }
    }
    let mut fingerprint = Fingerprint::host();
    fingerprint.storage = plan.inputs().next().map_or("", |i| i.storage).to_string();
    fingerprint.inputs = plan.inputs().map(|i| i.hash.clone()).collect();

    let gated = latency(&live.gated(workload), workload.tail_percentile());
    let mut details = vec![
        ("seconds", int(seconds)),
        ("generate_s", num(generate_s)),
        ("measured_wall_s", num(live.wall_s)),
        (
            "tail_percentile",
            int(u64::from(workload.tail_percentile())),
        ),
        ("latency_samples", int(gated.samples as u64)),
        // The highest percentile these samples support (at least ten
        // beyond it); the reported one must not exceed it.
        (
            "tail_supported_up_to",
            stats::tail_percentile(gated.samples).map_or(Value::Null, |p| int(u64::from(p))),
        ),
    ];
    if workload == Workload::TinyOpen {
        details.push(("rungs", rung_table(&live, workload)));
    }
    let mut report = RunReport {
        workload: workload.name().to_string(),
        seed,
        traced,
        fingerprint,
        attempted: live.records.len() + workload::WARMUP_JOBS,
        failed,
        wrong,
        metrics: Vec::new(),
        details: Value::Null,
        pair: None,
    };
    if traced {
        report.metrics = untraced_layers(workload, &live);
        let replay =
            trace::run(&mut plan, &live).map_err(|e| format!("{}: trace: {e}", workload.name()))?;
        report.wrong.extend(replay.wrong.iter().cloned());
        report.metrics.extend(replay.metrics);
        details.push(("trace", replay.details));
    } else {
        report.metrics = end_to_end(&live, &gated);
    }
    report.details = obj(details);
    Ok(report)
}

fn end_to_end(live: &LiveRun, gated: &live::Latency) -> Vec<(String, f64)> {
    let done = live.outcomes().count();
    let completed = done.max(1) as f64;
    vec![
        ("setup_s".into(), live.setup_s),
        ("latency_p50_s".into(), gated.p50_s),
        ("latency_tail_s".into(), gated.tail_s),
        ("jobs_per_s".into(), done as f64 / live.wall_s),
        ("peak_rss_mb".into(), live.peak_rss_mb),
        (
            "cpu_s_per_job".into(),
            (live.after.process_cpu_s - live.before.process_cpu_s) / completed,
        ),
    ]
}

/// The per-layer readings taken from outside the live server.
fn untraced_layers(workload: Workload, live: &LiveRun) -> Vec<(String, f64)> {
    let done: Vec<_> = live.outcomes().collect();
    let jobs = done.len();
    // The request-level readings describe the gated population (tiny-open:
    // its gated rung, not the overloaded one).
    let gated = live.gated(workload);
    let ok = || gated.iter().filter(|r| r.result.is_ok());
    let post: Vec<f64> = ok().map(|r| r.post_s).collect();
    let status: Vec<f64> = ok().map(|r| r.status_s).filter(|s| s.is_finite()).collect();
    let overhead: Vec<f64> = ok()
        .filter_map(|r| r.result.as_ref().ok().map(|o| r.latency_s - o.elapsed_s))
        .collect();
    let http = live.after.http.per_job_since(live.before.http, jobs);
    let runner = live.after.solver.per_job_since(live.before.solver, jobs);
    let device_cpu = live.after.device_cpu_s() - live.before.device_cpu_s();
    let flips: f64 = done.iter().map(|o| o.flips as f64).sum();
    let evaluated: f64 = done.iter().map(|o| o.evaluated as f64).sum();
    let elapsed: f64 = done.iter().map(|o| o.elapsed_s).sum();
    let lags: Vec<f64> = live.records.iter().map(|r| r.lag_s).collect();
    // Every gated job stops at its target, so its session time is the
    // time to that target.
    let to_target: Vec<f64> = ok()
        .filter_map(|r| r.result.as_ref().ok().map(|o| o.elapsed_s))
        .collect();
    let open = workload == Workload::TinyOpen;
    let rung = |r: usize| latency(&live.rung(r), workload.tail_percentile());
    let base = [
        ("server.http.post_s", median(&post)),
        ("server.http.status_s", median(&status)),
        ("server.overhead_s", median(&overhead)),
        ("server.http.cpu_s", http.cpu_s),
        ("server.http.runq_s", http.runq_s),
        ("server.runner.cpu_s", runner.cpu_s),
        ("server.runner.runq_s", runner.runq_s),
        ("vgpu.device.cpu_s", device_cpu / jobs.max(1) as f64),
        ("search.evaluated_per_s", evaluated / elapsed.max(1e-9)),
        ("search.time_to_target_s", median(&to_target)),
        ("search.flips_per_s", flips / elapsed.max(1e-9)),
        ("search.ns_per_flip_cpu", device_cpu * 1e9 / flips.max(1.0)),
        (
            "core.cache.hit_ratio",
            done.iter().filter(|o| o.warm_started).count() as f64 / jobs.max(1) as f64,
        ),
        (
            "client.generator_lag_max_s",
            lags.iter().copied().fold(0.0, f64::max),
        ),
        (
            "client.generator_lag_p50_s",
            if open { median(&lags) } else { 0.0 },
        ),
        (
            "client.max_rate_ok",
            live.max_rate_ok(workload.tail_percentile())
                .map_or(0.0, |r| RUNGS[r].1),
        ),
    ];
    let mut m: Vec<(String, f64)> = base.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    for (stat, tail) in [("latency_p50_s", false), ("latency_tail_s", true)] {
        for (r, (label, _, _)) in RUNGS.iter().enumerate() {
            let l = rung(r);
            let v = match (open, tail) {
                (false, _) => 0.0,
                (true, false) => l.p50_s,
                (true, true) => l.tail_s,
            };
            m.push((format!("{stat}.{label}"), v));
        }
    }
    m
}

/// tiny-open's per-rung latencies, sample counts and generator lag.
fn rung_table(live: &LiveRun, workload: Workload) -> Value {
    let max_ok = live.max_rate_ok(workload.tail_percentile());
    Value::Array(
        RUNGS
            .iter()
            .enumerate()
            .map(|(r, &(label, rate, _))| {
                let recs = live.rung(r);
                let l = latency(&recs, workload.tail_percentile());
                let lags: Vec<f64> = recs.iter().map(|x| x.lag_s).collect();
                obj(vec![
                    ("rung", Value::String(label.into())),
                    ("rate", num(rate)),
                    ("jobs", int(recs.len() as u64)),
                    ("latency_p50_s", num(l.p50_s)),
                    ("latency_tail_s", num(l.tail_s)),
                    ("generator_lag_p50_s", num(median(&lags))),
                    ("generator_lag_max_s", num(percentile(&lags, 100.0))),
                    ("meets_limit", Value::Bool(l.meets_limit)),
                    ("max_rate_ok", Value::Bool(max_ok == Some(r))),
                ])
            })
            .collect(),
    )
}

/// `pair`: alternates two checkouts' benchmark runs, the same seed per
/// pair, swapping which side goes first every pair.
fn pair(opts: &Opts) -> Result<ExitCode, String> {
    let [root_a, root_b] = opts.positional.as_slice() else {
        return Err(format!("pair needs two checkout roots\n{USAGE}"));
    };
    let runs = opts.num("runs", 10)?;
    let seed = opts.num("seed", 1)?;
    let seconds = opts.num("seconds", DEFAULT_SECONDS)?;
    let out_a = opts.get("out-a").ok_or("--out-a is required")?;
    let out_b = opts.get("out-b").ok_or("--out-b is required")?;
    let workloads: Vec<Workload> = match opts.workload()? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let (mut set_a, mut set_b) = (Vec::new(), Vec::new());
    for i in 0..runs {
        for &w in &workloads {
            let a_first = i % 2 == 0;
            let order = if a_first {
                [(root_a, true), (root_b, false)]
            } else {
                [(root_b, false), (root_a, true)]
            };
            for (k, (root, is_a)) in order.into_iter().enumerate() {
                let mut r = run_checkout(root, w, seed + i, seconds)?;
                r.pair = Some((i, k == 0));
                print_lines(&r);
                if is_a {
                    set_a.push(r)
                } else {
                    set_b.push(r)
                }
            }
        }
    }
    report::write_set(out_a, &set_a).map_err(|e| format!("{out_a}: {e}"))?;
    report::write_set(out_b, &set_b).map_err(|e| format!("{out_b}: {e}"))?;
    let all: Vec<RunReport> = set_a.into_iter().chain(set_b).collect();
    Ok(exit_code(&all))
}

/// Runs one workload with the benchmark of the checkout at `root`.
fn run_checkout(root: &str, w: Workload, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let root = std::fs::canonicalize(root).map_err(|e| format!("{root}: {e}"))?;
    let out = root.join("bench/e2e/out/pair.json");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&root)
        // Each side builds in its own checkout.
        .env("CARGO_TARGET_DIR", root.join("target"))
        .args([
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "bench/e2e/Cargo.toml",
            "--",
        ])
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo in {}: {e}", root.display()))?;
    let runs = report::read_set(&out.to_string_lossy())?;
    let _ = std::fs::remove_file(&out);
    match (status.success(), runs.into_iter().next()) {
        (_, Some(r)) => Ok(r),
        (ok, None) => Err(format!(
            "{}: {} produced no report (exit ok: {ok})",
            root.display(),
            w.name()
        )),
    }
}

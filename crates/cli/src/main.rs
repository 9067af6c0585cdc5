//! `abs-cli` — solve QUBO problems from the command line.
//!
//! ```text
//! abs-cli solve <file.qubo> [--timeout-ms N] [--target E] [--devices D]
//!                           [--blocks B] [--seed S] [--json]
//! abs-cli random <bits>     [--timeout-ms N] [--seed S] [--json]
//! abs-cli gset <name>       [--timeout-ms N] [--seed S] [--json]
//! abs-cli tsp <name>        [--timeout-ms N] [--seed S] [--json]
//! abs-cli info <file.qubo>
//! abs-cli verify <file.qubo> <file.sol>
//! ```
//!
//! Exit code 0 on success, 2 on usage errors, 1 on runtime errors.
//! SIGINT/SIGTERM stop the solve gracefully: the session checkpoints
//! (when `--checkpoint-out` is set) and the partial result is reported
//! with exit code 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abs::{AbsConfig, AbsError, AbsSession, SessionStatus, StopCondition};
use abs_server::signals;
use qubo::{format, Qubo};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use vgpu::FaultPlan;

mod args;
mod output;

use args::{Command, Options};

/// A CLI failure with its exit code: usage errors (bad flags, invalid
/// configurations, mismatched inputs) exit 2, runtime failures (I/O,
/// all devices dead) exit 1.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            Self::Usage(m) | Self::Runtime(m) => m,
        }
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            Self::Usage(_) => ExitCode::from(2),
            Self::Runtime(_) => ExitCode::FAILURE,
        }
    }
}

impl From<AbsError> for CliError {
    fn from(e: AbsError) -> Self {
        if e.is_usage() {
            Self::Usage(e.to_string())
        } else {
            Self::Runtime(e.to_string())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
        Ok(None) => {
            println!("{}", args::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Some((cmd, opts))) => match run(cmd, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {}", e.message());
                e.exit_code()
            }
        },
    }
}

/// Wraps a plain message as a runtime error (the default severity for
/// pre-solve failures like unreadable files and unknown instances).
fn rt(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

fn run(cmd: Command, opts: &Options) -> Result<(), CliError> {
    match cmd {
        Command::Info { path } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| rt(format!("cannot read {path}: {e}")))?;
            let q = format::parse(&text).map_err(|e| rt(e.to_string()))?;
            let s = qubo::InstanceStats::of(&q);
            println!("file:         {path}");
            println!("bits:         {}", s.bits);
            println!(
                "couplers:     {} (density {:.2} %)",
                s.couplers,
                s.density * 100.0
            );
            println!("diagonals:    {}", s.diagonals);
            println!(
                "weight range: [{}, {}]  mean non-zero {:.2}",
                s.min_weight, s.max_weight, s.mean_nonzero
            );
            println!("|E| bound:    {}", s.energy_bound);
            println!("max |Δ|:      {}", s.max_abs_delta);
            Ok(())
        }
        Command::Verify { problem, solution } => {
            let ptext = std::fs::read_to_string(&problem)
                .map_err(|e| rt(format!("cannot read {problem}: {e}")))?;
            let q = format::parse(&ptext).map_err(|e| rt(e.to_string()))?;
            let stext = std::fs::read_to_string(&solution)
                .map_err(|e| rt(format!("cannot read {solution}: {e}")))?;
            let (x, claimed) = format::parse_solution(&stext).map_err(|e| rt(e.to_string()))?;
            if x.len() != q.n() {
                return Err(CliError::Usage(format!(
                    "solution has {} bits, instance has {}",
                    x.len(),
                    q.n()
                )));
            }
            let actual = q.energy(&x);
            println!("claimed energy: {claimed}");
            println!("actual energy:  {actual}");
            if actual == claimed {
                println!("VERIFIED");
                Ok(())
            } else {
                Err(rt("energy mismatch"))
            }
        }
        Command::Solve { path } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| rt(format!("cannot read {path}: {e}")))?;
            let q = if opts.problem_json {
                qubo::json::parse_problem(&text).map_err(|e| rt(e.to_string()))?
            } else {
                format::parse(&text).map_err(|e| rt(e.to_string()))?
            };
            solve_and_report(&Arc::new(q), opts, &path)
        }
        Command::Random { bits } => {
            let q = qubo_problems::random::generate(bits, opts.seed);
            solve_and_report(&Arc::new(q), opts, &format!("random-{bits}"))
        }
        Command::Gset { name } => {
            let inst = qubo_problems::gset::instance(&name)
                .ok_or_else(|| CliError::Usage(format!("unknown G-set instance {name:?}")))?;
            let g = qubo_problems::gset::generate_instance(inst, opts.seed);
            let q = qubo_problems::maxcut::to_qubo(&g).map_err(|e| rt(e.to_string()))?;
            solve_and_report(&Arc::new(q), opts, &format!("gset-{name}"))
        }
        Command::Tsp { name } => {
            let inst = qubo_problems::tsplib::entry(&name)
                .ok_or_else(|| CliError::Usage(format!("unknown TSPLIB instance {name:?}")))?;
            let tsp = qubo_problems::tsplib::instance(inst.name);
            let tq = qubo_problems::tsp::to_qubo(&tsp).map_err(|e| rt(e.to_string()))?;
            solve_and_report(&Arc::new(tq.qubo().clone()), opts, &format!("tsp-{name}"))
        }
        Command::Serve { args } => {
            let config = match abs_server::args::parse(&args).map_err(CliError::Usage)? {
                None => {
                    print!("{}", abs_server::args::USAGE);
                    return Ok(());
                }
                Some(config) => config,
            };
            abs_server::run(&config).map_err(|e| rt(e.to_string()))
        }
    }
}

fn solve_and_report(q: &Arc<Qubo>, opts: &Options, label: &str) -> Result<(), CliError> {
    let mut config = match opts.preset.as_deref() {
        Some("maxcut") => abs::presets::maxcut(),
        Some("tsp") => abs::presets::tsp(q.n()),
        Some("random") => abs::presets::random(q.n()),
        _ => AbsConfig::small(),
    };
    config.seed = opts.seed;
    if let Some(d) = opts.devices {
        config.machine.num_devices = d;
    }
    if let Some(b) = opts.blocks {
        config.machine.device.blocks_override = Some(b);
    }
    let mut stop = StopCondition::timeout(Duration::from_millis(opts.timeout_ms));
    if let Some(t) = opts.target {
        stop = stop.with_target(t);
    }
    config.stop = stop;
    if let Some(ms) = opts.hard_timeout_ms {
        config.watchdog.hard_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(k) = opts.audit_stride {
        config.watchdog.audit_stride = k;
    }
    if let Some(seed) = opts.fault_seed {
        let devices = config.machine.num_devices;
        let blocks = config.machine.device.blocks_override.unwrap_or(8);
        config.machine.device.fault = Some(Arc::new(FaultPlan::scatter(seed, devices, blocks)));
    }
    if let Some(path) = &opts.metrics_out {
        config.metrics.out = Some(std::path::PathBuf::from(path));
        config.metrics.interval = opts.metrics_interval_ms.map(Duration::from_millis);
    }
    if let Some(path) = &opts.checkpoint_out {
        config.checkpoint.out = Some(std::path::PathBuf::from(path));
        config.checkpoint.interval = opts.checkpoint_interval_ms.map(Duration::from_millis);
    }
    if let Some(k) = opts.checkpoint_keep {
        config.checkpoint.keep = k;
    }

    // The solve runs as an explicit session so SIGINT/SIGTERM can stop
    // it gracefully: checkpoint (if configured), then stop and report.
    signals::install();
    let mut session = match &opts.resume {
        Some(path) => AbsSession::resume(config, q, std::path::Path::new(path))?,
        None => AbsSession::start(config, q)?,
    };
    let mut interrupted = false;
    let result = loop {
        if signals::interrupted() {
            interrupted = true;
            if session.config().checkpoint.out.is_some() {
                session.checkpoint_now()?;
            }
            break session.stop()?;
        }
        if session.poll()? == SessionStatus::StopConditionMet {
            break session.stop()?;
        }
    };
    if interrupted {
        eprintln!(
            "interrupted: session stopped gracefully{}",
            if opts.checkpoint_out.is_some() {
                " (checkpoint written; resume with --resume)"
            } else {
                ""
            }
        );
    }
    if let Some(path) = &opts.metrics_out {
        // The solver already wrote the file best-effort; rewrite it
        // here so I/O failures surface as a CLI error.
        abs::write_metrics(std::path::Path::new(path), &result.metrics)
            .map_err(|e| rt(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &opts.save {
        std::fs::write(
            path,
            format::solution_to_string(&result.best, result.best_energy),
        )
        .map_err(|e| rt(format!("cannot write {path}: {e}")))?;
    }
    if opts.json {
        println!("{}", output::to_json(label, q, &result).map_err(rt)?);
    } else {
        output::print_human(label, q, &result);
        if opts.metrics_out.is_some() {
            output::print_metrics(&result);
        }
    }
    Ok(())
}

//! Solve-as-a-service: the ABS job server (DESIGN.md §12).
//!
//! `abs-server` (or `abs serve`) exposes the solver over HTTP/JSON:
//! jobs are submitted with `POST /jobs`, watched with `GET /jobs/{id}`
//! and an SSE progress stream, cancelled with `DELETE`, and observed
//! live through `GET /metrics`. Admission is a bounded queue (429 when
//! full); up to `--solver-workers` concurrent [`abs::AbsSession`]s
//! run, each leasing its device/block geometry from a shared
//! [`vgpu::DevicePool`] and warm-starting repeat instances from the
//! content-addressed [`abs::ProblemCache`] (DESIGN.md §13). On
//! SIGINT/SIGTERM the server *drains*: every in-flight job checkpoints
//! to the spool and a restarted server picks them all back up with
//! `--resume-jobs`, cumulative accounting intact.
//!
//! The whole stack is std-only — hand-rolled HTTP/1.1 over blocking
//! sockets with a small worker pool — because the workspace builds
//! offline with no async runtime available; see `http.rs` and
//! DESIGN.md §12 for the trade-off.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod http;
pub mod job;
pub mod metrics;
pub mod routes;
pub mod runner;
pub mod signals;
pub mod spec;
pub mod spool;

use job::{JobPhase, JobStore};
use metrics::ServerMetrics;
use routes::AppState;
use spool::ManifestEntry;
use std::io::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the drain waker checks the shutdown flag.
const SIGNAL_POLL: Duration = Duration::from_millis(5);
/// Pause after a failed `accept` (say `EMFILE`) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Server settings (the `abs-server` command line maps 1:1 onto this).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address.
    pub addr: String,
    /// Bind port; `0` picks an ephemeral port (printed on startup).
    pub port: u16,
    /// Bounded admission: queued jobs beyond this refuse with 429.
    pub queue_depth: usize,
    /// HTTP worker threads (SSE streams occupy one each while open).
    pub http_workers: usize,
    /// Spool directory for drain checkpoints and job bodies.
    pub spool: Option<PathBuf>,
    /// Reload the spool manifest left by a drained predecessor.
    pub resume_jobs: bool,
    /// Concurrent solver sessions (each worker drives one at a time).
    pub solver_workers: usize,
    /// Logical devices in the shared pool.
    pub pool_devices: usize,
    /// Block capacity per pool device.
    pub pool_blocks: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".into(),
            port: 0,
            queue_depth: 8,
            http_workers: 4,
            spool: None,
            resume_jobs: false,
            solver_workers: 2,
            pool_devices: 4,
            pool_blocks: 16,
        }
    }
}

impl ServerConfig {
    /// Pool geometry derived from the flags. The per-job budget is the
    /// whole capacity: the pool throttles *admission* of concurrent
    /// sessions, it never reshapes an in-capacity job (which keeps
    /// leased sessions bit-for-bit equal to direct ones).
    #[must_use]
    pub fn pool_config(&self) -> vgpu::PoolConfig {
        let devices = self.pool_devices.max(1);
        let blocks = self.pool_blocks.max(1);
        vgpu::PoolConfig {
            num_devices: devices,
            blocks_per_device: blocks,
            max_lease_blocks: devices * blocks,
            min_lease_blocks: 1,
        }
    }
}

/// Why the server could not run (startup or drain).
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listen socket failed.
    Bind(std::io::Error),
    /// The spool directory could not be created or written.
    Spool(std::io::Error),
    /// `--resume-jobs` was passed without `--spool`.
    ResumeNeedsSpool,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind(e) => write!(f, "binding listen socket: {e}"),
            Self::Spool(e) => write!(f, "spool directory: {e}"),
            Self::ResumeNeedsSpool => write!(f, "--resume-jobs requires --spool"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Runs the server until SIGINT/SIGTERM, then drains: stops accepting,
/// checkpoints the in-flight job, writes the spool manifest, and
/// returns.
///
/// # Errors
/// [`ServerError`] on startup problems; a clean drain is `Ok`.
pub fn run(config: &ServerConfig) -> Result<(), ServerError> {
    signals::install();
    if config.resume_jobs && config.spool.is_none() {
        return Err(ServerError::ResumeNeedsSpool);
    }
    if let Some(dir) = &config.spool {
        std::fs::create_dir_all(dir).map_err(ServerError::Spool)?;
    }

    let store = Arc::new(JobStore::new(config.queue_depth));
    let metrics = Arc::new(ServerMetrics::new());
    if config.resume_jobs {
        if let Some(dir) = &config.spool {
            resume_jobs(&store, dir)?;
        }
    }

    let listener =
        TcpListener::bind((config.addr.as_str(), config.port)).map_err(ServerError::Bind)?;
    let local = listener.local_addr().map_err(ServerError::Bind)?;
    // The acceptance suite parses this exact line for the port.
    println!("abs-server listening on http://{local}");
    let _ = std::io::stdout().flush();

    let scheduler = runner::Scheduler::new(config.pool_config());
    let mut solvers = Vec::new();
    for i in 0..config.solver_workers.max(1) {
        solvers.push(runner::spawn(
            Arc::clone(&store),
            Arc::clone(&metrics),
            config.spool.clone(),
            Arc::clone(&scheduler),
            i,
        ));
    }

    let (tx, rx) = mpsc::channel::<std::net::TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut http_workers = Vec::new();
    for i in 0..config.http_workers.max(1) {
        let rx = Arc::clone(&rx);
        let state = AppState {
            store: Arc::clone(&store),
            metrics: Arc::clone(&metrics),
            spool: config.spool.clone(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("abs-http-{i}"))
            .spawn(move || loop {
                let next = rx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv();
                match next {
                    Ok(stream) => routes::serve_connection(stream, &state),
                    Err(_) => return, // sender dropped: drain
                }
            })
            .map_err(ServerError::Bind)?;
        http_workers.push(handle);
    }

    // The accept loop blocks until a connection arrives; on a signal the
    // waker's own connection is what makes `accept` return.
    let (accepting, accept_done) = mpsc::channel::<()>();
    let waker = spawn_drain_waker(wake_addr(local), accept_done).map_err(ServerError::Bind)?;
    loop {
        let accepted = listener.accept();
        if signals::interrupted() {
            break; // the waker's connection (or a late client) goes unserved
        }
        match accepted {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    drop(accepting);
    let _ = waker.join();

    // Drain: refuse new work, let every worker checkpoint its job,
    // release the HTTP pool (open SSE streams see `draining` and close
    // themselves).
    store.begin_drain();
    drop(tx);
    for solver in solvers {
        let _ = solver.join();
    }
    for handle in http_workers {
        let _ = handle.join();
    }

    let mut spooled = 0usize;
    if let Some(dir) = &config.spool {
        let entries: Vec<ManifestEntry> = store
            .non_terminal()
            .into_iter()
            .filter_map(|(id, phase)| {
                let state = match phase {
                    JobPhase::Queued => "queued",
                    JobPhase::Interrupted => "interrupted",
                    _ => return None,
                };
                Some(ManifestEntry {
                    id,
                    state: state.into(),
                })
            })
            .collect();
        spooled = entries.len();
        spool::write_manifest(dir, &entries).map_err(ServerError::Spool)?;
    }
    println!("abs-server drained; {spooled} job(s) spooled");
    Ok(())
}

/// Where the drain waker connects: the listener's own address, with an
/// unspecified bind (`0.0.0.0`, `::`) mapped to loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Spawns the thread that turns SIGINT/SIGTERM into a wake-up of the
/// blocked accept loop. The signal handler only sets a flag, and a
/// blocking `accept` restarts after the handler returns, so this thread
/// reads the flag every [`SIGNAL_POLL`] and, once it is set, connects to
/// the listener. It repeats the connect until the loop has exited
/// (`accept_done` disconnects), so a refused attempt cannot strand the
/// drain.
fn spawn_drain_waker(
    addr: SocketAddr,
    accept_done: mpsc::Receiver<()>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("abs-drain-waker".into())
        .spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = accept_done.recv_timeout(SIGNAL_POLL) {
                if signals::interrupted() {
                    let _ = TcpStream::connect(addr);
                }
            }
        })
}

/// Reloads the drain manifest: queued jobs re-queue fresh, interrupted
/// jobs resume from their checkpoint with identifiers preserved.
fn resume_jobs(store: &JobStore, dir: &std::path::Path) -> Result<(), ServerError> {
    let entries = spool::take_manifest(dir).map_err(ServerError::Spool)?;
    for entry in entries {
        let body = match std::fs::read_to_string(spool::job_file(dir, entry.id)) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("abs-server: skipping job {}: reading body: {e}", entry.id);
                continue;
            }
        };
        let spec = match spec::parse_spec(&body) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("abs-server: skipping job {}: {e}", entry.id);
                continue;
            }
        };
        let resume_from = if entry.state == "interrupted" {
            let ckpt = spool::ckpt_file(dir, entry.id);
            ckpt.exists().then_some(ckpt)
        } else {
            None
        };
        // Restores bypass the admission bound — these jobs were already
        // admitted by the drained predecessor.
        if let Err(e) = store.submit(spec, resume_from, Some(entry.id)) {
            eprintln!("abs-server: skipping job {}: {e:?}", entry.id);
        }
    }
    Ok(())
}

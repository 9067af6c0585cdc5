//! One virtual GPU: a scheduler multiplexing logical blocks onto worker
//! OS threads.
//!
//! The scheduler is fault-tolerant: every block iteration runs inside
//! `catch_unwind`, and a panicking block is **quarantined** — removed
//! from the schedule, its search unit retired from the evaluated-count
//! projection, and its death recorded in the device's
//! [`crate::health::DeviceHealth`] region — while the remaining blocks
//! keep searching. A device whose blocks all die (or whose run exits
//! while the host is still polling) shows up as
//! [`crate::health::HealthStatus::Dead`], which the host watchdog reads
//! to requeue the device's work instead of polling a frozen counter
//! forever.

use crate::block::{AdaptiveConfig, BlockConfig, BlockRunner, PolicyKind, WindowSchedule};
use crate::buffers::{GlobalMem, SolutionRecord, DEFAULT_BUFFER_CAPACITY, DEFAULT_EVENT_CAPACITY};
use crate::fault::{self, Corruption, FaultPlan, InjectedPanic};
use crate::occupancy::{full_occupancy_configs, occupancy, OccupancyError};
use crate::spec::DeviceSpec;
use abs_telemetry::Event;
use qubo::{BitVec, Energy, MatrixStorage, Qubo, SparseQubo};
use qubo_search::{FlipKernel, SearchTracker};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Configuration of one virtual device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Hardware resource model (defaults to the RTX 2080 Ti).
    pub spec: DeviceSpec,
    /// Bits per thread `p`; `None` selects the 100 %-occupancy
    /// configuration with the most active blocks (the paper's best-
    /// performing choice for most sizes).
    pub bits_per_thread: Option<u32>,
    /// Overrides the number of logical blocks (tests and small problems;
    /// `None` derives the count from the occupancy calculator).
    pub blocks_override: Option<usize>,
    /// Worker OS threads simulating the SMs of this device.
    pub workers: usize,
    /// Local-search flips per bulk iteration (§3.2 Step 4b).
    pub local_steps: usize,
    /// Window-length assignment across blocks.
    pub windows: WindowSchedule,
    /// Optional future-work adaptive window switching, applied to every
    /// block (see [`AdaptiveConfig`]).
    pub adaptive: Option<AdaptiveConfig>,
    /// Selection algorithms cycled across blocks (§5 future work:
    /// heterogeneous devices). Empty = every block runs the paper's
    /// window policy.
    pub policy_mix: Vec<PolicyKind>,
    /// Capacity of the host→device target buffer (overflow evicts the
    /// oldest pending target).
    pub target_capacity: usize,
    /// Capacity of the device→host result buffer (overflow keeps the
    /// best records).
    pub result_capacity: usize,
    /// Capacity of the telemetry event ring (0 disables event
    /// recording entirely; the statistics counters keep working).
    pub event_capacity: usize,
    /// Deterministic fault plan for failure rehearsal; `None` (the
    /// production default) injects nothing and costs one `Option` check
    /// per block iteration.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            spec: DeviceSpec::default(),
            bits_per_thread: None,
            blocks_override: None,
            workers: 1,
            local_steps: 256,
            windows: WindowSchedule::PowersOfTwo,
            adaptive: None,
            policy_mix: Vec::new(),
            target_capacity: DEFAULT_BUFFER_CAPACITY,
            result_capacity: DEFAULT_BUFFER_CAPACITY,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            fault: None,
        }
    }
}

/// Reasons a device cannot derive a block count for a problem size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// The explicitly requested `bits_per_thread` cannot be launched for
    /// this `n`.
    Infeasible {
        /// The requested bits per thread.
        bits_per_thread: u32,
        /// The problem size.
        n: usize,
        /// Why the occupancy calculator refused it.
        cause: OccupancyError,
    },
    /// No 100 %-occupancy configuration exists for this `n` on this
    /// hardware (n > 32 k on Turing).
    NoFullOccupancy {
        /// The problem size.
        n: usize,
        /// The device model name.
        device: String,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible {
                bits_per_thread,
                n,
                cause,
            } => write!(
                f,
                "infeasible bits_per_thread={bits_per_thread} for n={n}: {cause}"
            ),
            Self::NoFullOccupancy { n, device } => {
                write!(f, "no 100% occupancy configuration for n={n} on {device}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// The instance a machine's devices search, in the storage arm picked
/// once for the whole machine: every device of a sparse machine shares
/// one CSR matrix, every device of a dense one the same padded rows.
#[derive(Clone, Debug)]
pub enum DeviceMatrix {
    /// Dense padded rows — the SIMD flip tier.
    Dense(Arc<Qubo>),
    /// Compressed sparse rows — the O(degree) flip tier.
    Sparse(Arc<SparseQubo>),
}

impl DeviceMatrix {
    /// Runs the storage dispatch once ([`MatrixStorage::select`], by
    /// coupler density, pinnable via `ABS_FORCE_DENSE` /
    /// `ABS_FORCE_SPARSE`) and picks that form of `q`. The sparse arm
    /// shares the CSR matrix `q` holds ([`Qubo::csr`], derived once for a
    /// dense-built instance); the dense arm shares `q` itself, with its
    /// rows built here ([`Qubo::dense`]), on the host, before any device
    /// starts.
    #[must_use]
    pub fn from_problem(q: &Arc<Qubo>) -> Self {
        match MatrixStorage::select(q.as_ref()) {
            MatrixStorage::Sparse => Self::Sparse(Arc::clone(q.csr())),
            MatrixStorage::Dense => {
                let _ = q.dense();
                Self::Dense(Arc::clone(q))
            }
        }
    }

    /// The storage arm.
    #[must_use]
    pub fn storage(&self) -> MatrixStorage {
        match self {
            Self::Dense(_) => MatrixStorage::Dense,
            Self::Sparse(_) => MatrixStorage::Sparse,
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Self::Dense(q) => q.n(),
            Self::Sparse(s) => s.n(),
        }
    }

    /// Reference energy `E(X)` on the stored arm: O(|ones|²) dense,
    /// O(n + nnz) sparse.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> Energy {
        match self {
            Self::Dense(q) => q.energy(x),
            Self::Sparse(s) => s.energy(x),
        }
    }
}

/// One virtual GPU: its global memory plus the scheduler state.
pub struct Device {
    config: DeviceConfig,
    /// Index of this device within its machine (scopes fault plans).
    index: usize,
    mem: Arc<GlobalMem>,
}

impl Device {
    /// Creates a device with fresh (empty) global memory, as device 0.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_index(config, 0)
    }

    /// Creates a device with fresh global memory and an explicit machine
    /// index (the index scopes [`FaultPlan`] entries).
    #[must_use]
    pub fn with_index(config: DeviceConfig, index: usize) -> Self {
        let mem = Arc::new(GlobalMem::with_capacities(
            config.target_capacity,
            config.result_capacity,
            config.event_capacity,
        ));
        Self { config, index, mem }
    }

    /// The device's global memory region (shared with the host).
    #[must_use]
    pub fn mem(&self) -> &Arc<GlobalMem> {
        &self.mem
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// This device's index within its machine.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of logical blocks this device runs for an `n`-bit problem.
    ///
    /// # Errors
    /// [`ResolveError`] if an explicit `bits_per_thread` is infeasible
    /// for `n`, or if no 100 %-occupancy configuration exists
    /// (n > 32 k on Turing).
    pub fn resolve_blocks(&self, n: usize) -> Result<usize, ResolveError> {
        if let Some(b) = self.config.blocks_override {
            return Ok(b.max(1));
        }
        let occ = match self.config.bits_per_thread {
            Some(p) => {
                occupancy(&self.config.spec, n, p).map_err(|cause| ResolveError::Infeasible {
                    bits_per_thread: p,
                    n,
                    cause,
                })?
            }
            None => full_occupancy_configs(&self.config.spec, n)
                .into_iter()
                .max_by_key(|o| o.blocks_per_gpu)
                .ok_or_else(|| ResolveError::NoFullOccupancy {
                    n,
                    device: self.config.spec.name.to_string(),
                })?,
        };
        Ok(occ.blocks_per_gpu as usize)
    }

    /// Runs the device until the host raises the stop flag in its global
    /// memory. Blocks are distributed round-robin over `workers` OS
    /// threads; each worker cycles through its blocks, running one bulk
    /// iteration at a time, so all logical blocks make progress
    /// regardless of how few OS threads back them.
    ///
    /// Fault tolerance: a block whose iteration panics is quarantined
    /// (removed from the schedule, unit retired, death recorded in the
    /// health region) and the worker moves on. If the run ends while the
    /// host has not requested a stop — all blocks dead, or the launch
    /// configuration is infeasible — the health region reports the
    /// device as dead so the host watchdog can take over its work.
    ///
    /// The storage arm arrives already picked ([`DeviceMatrix::from_problem`]
    /// runs once per machine): on the sparse arm every block runs the
    /// O(degree) flip tier over the shared CSR matrix. On the dense arm
    /// the flip kernel is detected once per run ([`FlipKernel::detect`])
    /// and shared by every block. Both choices are published in global
    /// memory ([`GlobalMem::matrix_storage_name`],
    /// [`GlobalMem::flip_kernel_name`]) for host telemetry. The flip
    /// trajectories are identical for every storage/kernel combination.
    pub fn run(&self, matrix: &DeviceMatrix) {
        self.mem.set_matrix_storage(matrix.storage());
        match matrix {
            DeviceMatrix::Sparse(sq) => {
                // The CSR arm is scalar-only (its hot loop is an
                // irregular gather, not a lane-parallel row stream):
                // record the truth in the kernel slot too.
                self.mem.set_flip_kernel(FlipKernel::Scalar);
                self.run_blocks(sq.n(), FlipKernel::Scalar, |c| BlockRunner::sparse(sq, c));
            }
            DeviceMatrix::Dense(qubo) => {
                let kernel = FlipKernel::detect();
                self.mem.set_flip_kernel(kernel);
                self.run_blocks(qubo.n(), kernel, |c| BlockRunner::dense(qubo, c));
            }
        }
        if !self.mem.stopped() {
            self.mem.health().record_dead_exit();
        }
    }

    fn run_blocks<T, F>(&self, n: usize, kernel: FlipKernel, make: F)
    where
        T: SearchTracker,
        F: Fn(BlockConfig) -> BlockRunner<T> + Sync,
    {
        let Ok(total_blocks) = self.resolve_blocks(n) else {
            // Callers that want the cause use `resolve_blocks` up front
            // (the `abs` host does); here the device just reports itself
            // dead through the health region and parks.
            return;
        };
        self.mem.set_expected_len(n);
        self.mem.health().set_total_blocks(total_blocks as u64);
        if self.config.fault.is_some() {
            fault::install_quiet_panic_hook();
        }
        let workers = self.config.workers.max(1).min(total_blocks);
        let mem = &self.mem;
        let cfg = &self.config;
        let device = self.index;
        let make = &make;
        std::thread::scope(|s| {
            for w in 0..workers {
                // Announce the worker to the host's quiesce predicate
                // before it is spawned, so a checkpoint taken while it is
                // still being scheduled waits for it (and for its
                // add_units) instead of snapshotting a partial roster.
                // Signed off on every exit path below.
                mem.worker_enter();
                s.spawn(move || {
                    /// A scheduled block plus its identity and progress.
                    struct Slot<T: SearchTracker> {
                        runner: BlockRunner<T>,
                        block: usize,
                        iters: u64,
                    }
                    let mut slots: Vec<Slot<T>> = (w..total_blocks)
                        .step_by(workers)
                        .map(|b| Slot {
                            runner: make(BlockConfig {
                                local_steps: cfg.local_steps,
                                window: cfg.windows.window_for(b, n),
                                // Prime-stride offsets desynchronize
                                // blocks that share a window length.
                                offset: (b * 97) % n,
                                adaptive: cfg.adaptive,
                                policy: if cfg.policy_mix.is_empty() {
                                    PolicyKind::Window
                                } else {
                                    cfg.policy_mix[b % cfg.policy_mix.len()].clone()
                                },
                                kernel,
                            }),
                            block: b,
                            iters: 0,
                        })
                        .collect();
                    mem.add_units(slots.len() as u64);
                    for slot in &slots {
                        if let Some(w) = slot.runner.window() {
                            mem.record_event(Event::window_assign(w as u64));
                        }
                    }
                    let plan = cfg.fault.as_deref();
                    'outer: while !mem.stopped() {
                        if slots.is_empty() {
                            break;
                        }
                        let mut i = 0;
                        while i < slots.len() {
                            if mem.stopped() {
                                break 'outer;
                            }
                            // Checkpoint quiesce barrier: park here (an
                            // iteration boundary, so per-block counters
                            // are consistent) while the host snapshots.
                            mem.pause_point();
                            if let Some(plan) = plan {
                                if plan.stalled(device, mem.total_iterations()) {
                                    // Simulated hang: frozen, but still
                                    // responsive to the stop flag so the
                                    // machine's join completes.
                                    while !mem.stopped() {
                                        std::thread::yield_now();
                                    }
                                    break 'outer;
                                }
                                if let Some(count) = plan.take_drop(device, mem.total_iterations())
                                {
                                    for _ in 0..count {
                                        let _ = mem.pop_target();
                                    }
                                }
                            }
                            let (block, iters) = (slots[i].block, slots[i].iters);
                            let mid_panic = plan.and_then(|p| {
                                p.take_panic(device, block, iters)
                                    .then_some(InjectedPanic { device, block })
                            });
                            let outcome = {
                                let slot = &mut slots[i];
                                catch_unwind(AssertUnwindSafe(|| {
                                    slot.runner.bulk_iteration_injected(mem, mid_panic)
                                }))
                            };
                            match outcome {
                                Ok(_flips) => {
                                    if let Some(plan) = plan {
                                        if let Some(c) = plan.take_corruption(device, block, iters)
                                        {
                                            push_corrupted(mem, n, c);
                                        }
                                    }
                                    slots[i].iters += 1;
                                    i += 1;
                                }
                                Err(_payload) => {
                                    // Quarantine: the block leaves the
                                    // schedule; its init unit leaves the
                                    // evaluated projection; its death is
                                    // visible to the host.
                                    let _ = slots.swap_remove(i);
                                    mem.retire_unit();
                                    mem.health().record_dead_block();
                                    mem.record_event(Event::block_death(block as u64));
                                }
                            }
                        }
                    }
                    mem.worker_exit();
                });
            }
        });
    }
}

/// Pushes a deliberately malformed record, rehearsing a corrupted
/// device→host transfer.
fn push_corrupted(mem: &GlobalMem, n: usize, corruption: Corruption) {
    let record = match corruption {
        // Wrong bit-length: rejected by `GlobalMem::push_result`.
        Corruption::WrongLength => SolutionRecord {
            x: BitVec::zeros(n + 1),
            energy: 0,
        },
        // Right length, absurd energy claim: `E(0…0) = 0` exactly, and
        // the claim is impossibly good, so the host's improvement audit
        // always catches it.
        Corruption::WrongEnergy => SolutionRecord {
            x: BitVec::zeros(n),
            energy: qubo::Energy::MIN / 2,
        },
    };
    let _ = mem.push_result(record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    fn matrix(q: &Qubo) -> DeviceMatrix {
        DeviceMatrix::from_problem(&Arc::new(q.clone()))
    }

    fn small_config(blocks: usize, workers: usize) -> DeviceConfig {
        DeviceConfig {
            blocks_override: Some(blocks),
            workers,
            local_steps: 50,
            ..DeviceConfig::default()
        }
    }

    #[test]
    fn resolve_blocks_uses_occupancy_when_not_overridden() {
        let cfg = DeviceConfig {
            bits_per_thread: Some(1),
            ..DeviceConfig::default()
        };
        let d = Device::new(cfg);
        assert_eq!(d.resolve_blocks(1024), Ok(68));
        let auto = Device::new(DeviceConfig::default());
        // Auto picks the max-block 100% configuration: p = 16 → 1088.
        assert_eq!(auto.resolve_blocks(1024), Ok(1088));
    }

    #[test]
    fn resolve_blocks_reports_infeasible_p_as_error() {
        let cfg = DeviceConfig {
            bits_per_thread: Some(1),
            ..DeviceConfig::default()
        };
        let err = Device::new(cfg).resolve_blocks(4096).unwrap_err();
        assert!(matches!(err, ResolveError::Infeasible { .. }));
        assert!(err.to_string().contains("infeasible bits_per_thread=1"));
    }

    #[test]
    fn resolve_blocks_reports_oversized_n_as_error() {
        let d = Device::new(DeviceConfig::default());
        let err = d.resolve_blocks(1 << 20).unwrap_err();
        assert!(matches!(err, ResolveError::NoFullOccupancy { .. }));
        assert!(err.to_string().contains("no 100% occupancy"));
    }

    #[test]
    fn device_runs_until_stopped_and_produces_results() {
        let q = random_qubo(32, 1);
        let d = Device::new(small_config(4, 2));
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            // Host: feed some targets, wait for results, stop.
            let mut rng = StdRng::seed_from_u64(2);
            for _ in 0..8 {
                mem.push_target(BitVec::random(32, &mut rng));
            }
            while mem.counter() < 8 {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        let results = mem.drain_results();
        assert!(results.len() >= 8);
        for r in &results {
            assert_eq!(r.energy, q.energy(&r.x));
        }
        assert!(mem.total_flips() > 0);
        // i16 weights at n=32 always fit i32, so the dispatched kernel is
        // whatever detection picked — never the "unset" placeholder.
        // (Under a forced-sparse pin the CSR arm records scalar instead.)
        if MatrixStorage::forced() != Some(MatrixStorage::Sparse) {
            assert_eq!(mem.flip_kernel_name(), FlipKernel::detect().name());
        }
        use crate::health::HealthStatus;
        assert_eq!(mem.health().status(), HealthStatus::Healthy);
    }

    #[test]
    fn sparse_instance_dispatches_to_the_csr_arm() {
        // A near-empty matrix sits under the density threshold, so the
        // run must record the sparse storage arm (and the scalar kernel
        // slot) and still produce exact results.
        // (`select` honours the env pins; skip under a forced-dense pin.)
        if MatrixStorage::forced() == Some(MatrixStorage::Dense) {
            return;
        }
        let n = 64;
        let mut q = Qubo::zero(n).unwrap();
        q.set(0, 1, -9);
        q.set(5, 40, 4);
        let d = Device::new(small_config(3, 2));
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            let mut rng = StdRng::seed_from_u64(21);
            for _ in 0..6 {
                mem.push_target(BitVec::random(n, &mut rng));
            }
            while mem.counter() < 6 {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        assert_eq!(mem.matrix_storage_name(), "sparse");
        assert_eq!(mem.flip_kernel_name(), "scalar");
        for r in &mem.drain_results() {
            assert_eq!(r.energy, q.energy(&r.x));
        }
        // Degree-honest accounting: far below the dense projection.
        assert!(mem.total_evaluated(n) < (mem.total_flips() + 3) * (n as u64 + 1) / 4);
    }

    #[test]
    fn dense_instance_records_the_dense_arm() {
        if MatrixStorage::forced() == Some(MatrixStorage::Sparse) {
            return;
        }
        let q = random_qubo(32, 9);
        let d = Device::new(small_config(2, 1));
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            while mem.counter() < 2 {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        assert_eq!(mem.matrix_storage_name(), "dense");
    }

    #[test]
    fn all_blocks_progress_with_fewer_workers_than_blocks() {
        let q = random_qubo(16, 3);
        let d = Device::new(small_config(6, 2));
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            // 2 rounds of 6 blocks each → ≥ 12 iterations before stop.
            while mem.total_iterations() < 12 {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        assert!(mem.total_iterations() >= 12);
    }

    #[test]
    fn stop_before_start_exits_immediately() {
        let q = random_qubo(16, 4);
        let d = Device::new(small_config(4, 1));
        d.mem().request_stop();
        d.run(&matrix(&q)); // must return promptly
        assert_eq!(d.mem().total_iterations(), 0);
        use crate::health::HealthStatus;
        assert_eq!(d.mem().health().status(), HealthStatus::Healthy);
    }

    #[test]
    fn panicking_block_is_quarantined_and_the_rest_keep_running() {
        let q = random_qubo(24, 5);
        let mut cfg = small_config(4, 2);
        cfg.fault = Some(Arc::new(FaultPlan::new().panic_block(0, 1, 2)));
        let d = Device::new(cfg);
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            // Wait for the injected death itself (the other worker can
            // produce any number of results before block 1 first runs),
            // then for results to keep flowing long past it.
            while mem.health().dead_blocks() == 0 {
                std::thread::yield_now();
            }
            let after_death = mem.counter() + 40;
            while mem.counter() < after_death {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        use crate::health::HealthStatus;
        assert_eq!(
            mem.health().status(),
            HealthStatus::Degraded {
                dead_blocks: 1,
                total_blocks: 4
            }
        );
        // Evaluated accounting counts surviving units only.
        assert_eq!(mem.total_units(), 3);
        assert_eq!(
            mem.total_evaluated(24),
            (mem.total_flips() + 3) * 25,
            "dead block's init unit must leave the projection"
        );
        for r in &mem.drain_results() {
            assert_eq!(r.energy, q.energy(&r.x), "survivors stay exact");
        }
    }

    #[test]
    fn device_with_all_blocks_dead_exits_and_reports_dead() {
        let q = random_qubo(16, 6);
        let mut cfg = small_config(2, 1);
        cfg.fault = Some(Arc::new(
            FaultPlan::new().panic_block(0, 0, 0).panic_block(0, 1, 0),
        ));
        let d = Device::new(cfg);
        // No host stop: the run must terminate on its own.
        d.run(&matrix(&q));
        use crate::health::HealthStatus;
        assert_eq!(d.mem().health().status(), HealthStatus::Dead);
        assert_eq!(d.mem().health().dead_blocks(), 2);
        assert_eq!(d.mem().total_units(), 0);
    }

    #[test]
    fn stalled_device_freezes_but_honours_stop() {
        let q = random_qubo(16, 7);
        let mut cfg = small_config(3, 2);
        cfg.fault = Some(Arc::new(FaultPlan::new().stall_device(0, 5)));
        let d = Device::new(cfg);
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            while mem.total_iterations() < 5 {
                std::thread::yield_now();
            }
            // Stalled: the counter stops moving; stop still works.
            mem.request_stop();
        });
        // Health shows nothing wrong — stalls are watchdog territory.
        use crate::health::HealthStatus;
        assert_eq!(mem.health().status(), HealthStatus::Healthy);
    }

    #[test]
    fn corrupted_records_are_rejected_on_device_side() {
        let q = random_qubo(16, 8);
        let mut cfg = small_config(2, 1);
        cfg.fault = Some(Arc::new(FaultPlan::new().corrupt_record(
            0,
            0,
            1,
            Corruption::WrongLength,
        )));
        let d = Device::new(cfg);
        let mem = Arc::clone(d.mem());
        std::thread::scope(|s| {
            s.spawn(|| d.run(&matrix(&q)));
            while mem.total_iterations() < 8 {
                std::thread::yield_now();
            }
            mem.request_stop();
        });
        assert_eq!(mem.rejected_records(), 1);
        for r in &mem.drain_results() {
            assert_eq!(r.x.len(), 16, "malformed record never reached the host");
        }
    }
}

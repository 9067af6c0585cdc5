//! Virtual multi-GPU execution substrate.
//!
//! The paper runs the ABS device side on four NVIDIA GeForce RTX 2080 Ti
//! GPUs in CUDA C. This crate substitutes a faithful *virtual* GPU built
//! from OS threads and shared memory:
//!
//! * [`spec`] — the hardware resource description (SM count, register
//!   file, warp/thread/block limits) with the Turing TU102 numbers the
//!   paper quotes.
//! * [`mod@occupancy`] — the occupancy calculator: given a problem size `n`
//!   and *bits per thread* `p`, it derives threads/block, blocks/SM and
//!   active blocks/GPU exactly as CUDA would, reproducing the
//!   configuration columns of Table 2 bit-for-bit.
//! * [`buffers`] — the "global memory" the host and device exchange data
//!   through: a target buffer, a solution buffer, and the atomic counter
//!   the host polls (the `cudaMemcpyAsync` pattern of §3.1 Step 2).
//! * [`block`] — one "CUDA block": a bulk-search unit alternating
//!   straight search and local search (§3.2 Steps 2–5).
//! * [`device`] / [`machine`] — schedulers multiplexing the (hundreds
//!   to thousands of) logical blocks onto worker OS threads, one device
//!   per simulated GPU.
//! * [`timing`] — an analytic GPU cost model calibrated against Table 2,
//!   used to reproduce the *shape* of the paper's search-rate results
//!   where raw CPU throughput cannot.
//!
//! What is preserved by the substitution: the algorithms, the asynchrony
//! (blocks never synchronize with each other or the host), the occupancy
//! arithmetic, and the linear multi-device scaling. What necessarily
//! changes: absolute search rates (CPU ≪ GPU), which the benchmark
//! harness reports honestly alongside the model.
//!
//! # Example
//!
//! ```
//! use vgpu::{occupancy, DeviceSpec, DeviceMatrix, Machine, MachineConfig, DeviceConfig};
//! use qubo::{BitVec, Qubo};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! // Table 2, first row: n = 1024, one bit per thread.
//! let spec = DeviceSpec::rtx_2080_ti();
//! let occ = occupancy(&spec, 1024, 1).unwrap();
//! assert_eq!(occ.threads_per_block, 1024);
//! assert_eq!(occ.blocks_per_gpu, 68);
//! assert_eq!(occ.occupancy, 1.0);
//!
//! // Run a small machine: host pushes a target, devices search.
//! let mut rng = StdRng::seed_from_u64(3);
//! let q = Arc::new(Qubo::random(32, &mut rng));
//! let machine = Machine::new(&MachineConfig {
//!     num_devices: 1,
//!     device: DeviceConfig {
//!         blocks_override: Some(2),
//!         local_steps: 50,
//!         ..DeviceConfig::default()
//!     },
//! });
//! let best = machine.run(&DeviceMatrix::from_problem(&q), |mems| {
//!     mems[0].push_target(BitVec::random(32, &mut rng));
//!     loop {
//!         if mems[0].counter() > 0 {
//!             return mems[0].drain_results()[0].energy;
//!         }
//!         std::thread::yield_now();
//!     }
//! });
//! assert!(best <= 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod buffers;
pub mod device;
pub mod fault;
pub mod health;
pub mod machine;
pub mod occupancy;
pub mod pool;
pub mod spec;
pub mod timing;

pub use block::{AdaptiveConfig, BlockConfig, BlockRunner, PolicyKind, WindowSchedule};
pub use buffers::{GlobalMem, SolutionRecord, DEFAULT_BUFFER_CAPACITY, DEFAULT_EVENT_CAPACITY};
pub use device::{Device, DeviceConfig, DeviceMatrix, ResolveError};
pub use fault::{Corruption, FaultKind, FaultPlan, InjectedPanic};
pub use health::{DeviceHealth, HealthStatus};
pub use machine::{Machine, MachineConfig, RunningMachine};
pub use occupancy::{full_occupancy_configs, occupancy, Occupancy, OccupancyError};
pub use pool::{
    DevicePool, LeaseGeometry, LeaseRequest, PoolConfig, PoolLease, PoolStats, Priority,
};
pub use spec::DeviceSpec;
pub use timing::{TimingModel, PAPER_TABLE2};

//! A multi-GPU machine: several devices running concurrently for one
//! host (Fig. 5).

use crate::buffers::GlobalMem;
use crate::device::{Device, DeviceConfig, DeviceMatrix};
use std::sync::Arc;

/// Configuration of the whole machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of virtual GPUs (the paper uses 1–4).
    pub num_devices: usize,
    /// Per-device configuration template (each device gets a copy).
    pub device: DeviceConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            num_devices: 1,
            device: DeviceConfig::default(),
        }
    }
}

/// A set of virtual devices plus the plumbing to run them together with
/// a host loop.
pub struct Machine {
    devices: Vec<Device>,
}

impl Machine {
    /// Creates the machine.
    ///
    /// # Panics
    /// Panics if `num_devices == 0`.
    #[must_use]
    pub fn new(config: &MachineConfig) -> Self {
        assert!(config.num_devices > 0, "machine needs at least one device");
        Self {
            devices: (0..config.num_devices)
                .map(|i| Device::with_index(config.device.clone(), i))
                .collect(),
        }
    }

    /// The devices.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Global memories of all devices, in device order (the host's view).
    #[must_use]
    pub fn mems(&self) -> Vec<Arc<GlobalMem>> {
        self.devices.iter().map(|d| Arc::clone(d.mem())).collect()
    }

    /// Starts every device on its own OS thread and hands back the
    /// running machine. The returned value *owns* the threads, so a
    /// resumable session can poll across many calls, checkpoint in
    /// between, and stop whenever it chooses; dropping it (also during
    /// an unwind out of the host) raises every stop flag and joins the
    /// devices. Every device
    /// shares the one `matrix` (a reference count, not a copy), which
    /// the running machine keeps for the host ([`RunningMachine::matrix`]).
    #[must_use]
    pub fn start(self, matrix: DeviceMatrix) -> RunningMachine {
        let mems = self.mems();
        let handles = self
            .devices
            .into_iter()
            .map(|d| {
                let m = matrix.clone();
                std::thread::spawn(move || d.run(&m))
            })
            .collect();
        RunningMachine {
            mems,
            matrix,
            handles,
        }
    }
}

/// A machine whose devices run on owned background threads — the engine
/// underneath a resumable solve session. Created by [`Machine::start`];
/// [`RunningMachine::join`] (or dropping the value) raises every stop
/// flag and joins the device threads.
pub struct RunningMachine {
    mems: Vec<Arc<GlobalMem>>,
    matrix: DeviceMatrix,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RunningMachine {
    /// Global memories of all devices, in device order (the host's view).
    #[must_use]
    pub fn mems(&self) -> &[Arc<GlobalMem>] {
        &self.mems
    }

    /// The matrix every device searches, in its dispatched storage arm.
    #[must_use]
    pub fn matrix(&self) -> &DeviceMatrix {
        &self.matrix
    }

    /// Raises the stop flag on every device; blocks exit at their next
    /// iteration boundary.
    pub fn request_stop(&self) {
        for m in &self.mems {
            m.request_stop();
        }
    }

    /// Raises every stop flag and joins all device threads. Idempotent.
    pub fn join(&mut self) {
        self.request_stop();
        for h in self.handles.drain(..) {
            // A panicking device thread already recorded itself dead in
            // its health region; joining must not re-panic the host.
            let _ = h.join();
        }
    }
}

impl Drop for RunningMachine {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::{BitVec, Qubo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_machine(devices: usize) -> Machine {
        Machine::new(&MachineConfig {
            num_devices: devices,
            device: DeviceConfig {
                blocks_override: Some(3),
                workers: 1,
                local_steps: 40,
                ..DeviceConfig::default()
            },
        })
    }

    #[test]
    fn all_devices_produce_results() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = Qubo::random(24, &mut rng);
        let mut running = test_machine(3).start(DeviceMatrix::from_problem(&Arc::new(q)));
        // Feed two targets to each device, wait for 2 results each.
        let mut rng = StdRng::seed_from_u64(2);
        for mem in running.mems() {
            mem.push_target(BitVec::random(24, &mut rng));
            mem.push_target(BitVec::random(24, &mut rng));
        }
        while !running.mems().iter().all(|m| m.counter() >= 2) {
            std::thread::yield_now();
        }
        running.join();
        let mems = running.mems();
        assert_eq!(mems.len(), 3);
        let flips: u64 = mems.iter().map(|mem| mem.total_flips()).sum();
        assert!(flips > 0);
        // 3 devices × 3 blocks initialized one tracker each: the machine
        // counts their n+1 init evaluations on top of the flip total.
        let units: u64 = mems.iter().map(|mem| mem.total_units()).sum();
        assert_eq!(units, 9);
        let evaluated: u64 = mems.iter().map(|mem| mem.total_evaluated(24)).sum();
        assert_eq!(evaluated, (flips + 9) * 25);
    }

    #[test]
    fn started_machine_is_polled_across_calls_and_joined() {
        let mut rng = StdRng::seed_from_u64(21);
        let q = Qubo::random(24, &mut rng);
        let m = test_machine(2);
        let mut running = m.start(DeviceMatrix::from_problem(&Arc::new(q)));
        let mut rng = StdRng::seed_from_u64(22);
        for mem in running.mems() {
            mem.push_target(BitVec::random(24, &mut rng));
        }
        // Poll-style host: separate calls against the owned machine.
        loop {
            if running.mems().iter().all(|m| m.counter() >= 1) {
                break;
            }
            std::thread::yield_now();
        }
        running.join();
        for mem in running.mems() {
            assert!(mem.stopped());
            assert!(mem.counter() >= 1);
        }
        // Joining twice is harmless.
        running.join();
    }

    #[test]
    fn dropping_a_running_machine_stops_and_joins() {
        let mut rng = StdRng::seed_from_u64(23);
        let q = Qubo::random(16, &mut rng);
        let m = test_machine(1);
        let mems = m.mems();
        {
            let _running = m.start(DeviceMatrix::from_problem(&Arc::new(q)));
            // Dropped immediately: Drop must raise stop and join without
            // hanging, even though the device barely ran.
        }
        assert!(mems[0].stopped());
    }

    #[test]
    fn devices_of_a_sparse_machine_share_one_csr_matrix() {
        // (`select` honours the env pins; skip under a forced-dense pin.)
        if qubo::MatrixStorage::forced() == Some(qubo::MatrixStorage::Dense) {
            return;
        }
        let mut q = Qubo::zero(96).unwrap();
        q.set(0, 1, -9);
        q.set(7, 80, 4);
        let DeviceMatrix::Sparse(csr) = DeviceMatrix::from_problem(&Arc::new(q)) else {
            panic!("a two-coupler instance dispatches to the CSR arm");
        };
        let m = test_machine(3);
        let mut running = m.start(DeviceMatrix::Sparse(Arc::clone(&csr)));
        let DeviceMatrix::Sparse(held) = running.matrix() else {
            panic!("the running machine keeps the dispatched arm");
        };
        assert!(Arc::ptr_eq(held, &csr));
        // This test's handle, the machine's, and one per device thread:
        // no device converted (or copied) a matrix of its own.
        assert_eq!(Arc::strong_count(&csr), 2 + 3);
        let mut rng = StdRng::seed_from_u64(24);
        for mem in running.mems() {
            mem.push_target(BitVec::random(96, &mut rng));
        }
        while !running.mems().iter().all(|m| m.counter() >= 1) {
            std::thread::yield_now();
        }
        running.join();
        for mem in running.mems() {
            assert_eq!(mem.matrix_storage_name(), "sparse");
            assert_eq!(mem.flip_kernel_name(), "scalar");
        }
        // Joined device threads dropped their handles.
        assert_eq!(Arc::strong_count(&csr), 2);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = Machine::new(&MachineConfig {
            num_devices: 0,
            device: DeviceConfig::default(),
        });
    }

    #[test]
    fn panicking_host_does_not_deadlock_devices() {
        // Dropping the running machine during the unwind must raise the
        // stop flags and join promptly, and the panic propagates.
        let mut rng = StdRng::seed_from_u64(4);
        let q = Qubo::random(16, &mut rng);
        let m = test_machine(2);
        let mems = m.mems();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _running = m.start(DeviceMatrix::from_problem(&Arc::new(q)));
            panic!("host exploded");
        }));
        assert!(result.is_err(), "panic must propagate");
        // Devices exited: their memories show the stop flag.
        for mem in &mems {
            assert!(mem.stopped());
        }
    }

    #[test]
    fn devices_have_independent_memories() {
        let m = test_machine(2);
        m.mems()[0].push_target(BitVec::zeros(8));
        assert_eq!(m.mems()[0].pending_targets(), 1);
        assert_eq!(m.mems()[1].pending_targets(), 0);
    }

    #[test]
    fn devices_are_indexed_in_order() {
        let m = test_machine(3);
        let indices: Vec<usize> = m.devices().iter().map(Device::index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn dead_on_arrival_device_is_visible_to_a_health_aware_host() {
        // Regression for the host-hang bug: a device that dies leaves
        // its counter frozen forever, so a host that only polls counters
        // never returns. A host that also reads the health region sees
        // the death and can stop — this run must terminate.
        use crate::fault::FaultPlan;
        use crate::health::HealthStatus;
        let mut rng = StdRng::seed_from_u64(11);
        let q = Qubo::random(16, &mut rng);
        let mut device = DeviceConfig {
            blocks_override: Some(2),
            workers: 1,
            local_steps: 20,
            ..DeviceConfig::default()
        };
        // Every block of the only device dies on its first iteration.
        device.fault = Some(Arc::new(
            FaultPlan::new().panic_block(0, 0, 0).panic_block(0, 1, 0),
        ));
        let m = Machine::new(&MachineConfig {
            num_devices: 1,
            device,
        });
        let running = m.start(DeviceMatrix::from_problem(&Arc::new(q)));
        let mem = &running.mems()[0];
        let saw_dead = loop {
            if mem.health().status() == HealthStatus::Dead {
                break true;
            }
            if mem.counter() > 0 {
                break false;
            }
            std::thread::yield_now();
        };
        assert!(saw_dead, "host must observe the device death");
    }
}

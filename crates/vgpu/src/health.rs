//! Per-device health accounting — the `DeviceHealth` region of global
//! memory.
//!
//! The paper's host/device contract (§3.1, Fig. 5) has no failure
//! vocabulary: a device is assumed to make progress forever. Real
//! long-running multi-GPU campaigns lose blocks (ECC faults, kernel
//! asserts) and whole devices (driver resets, hangs). This module gives
//! the host a way to *observe* such failures without any new
//! synchronization: a handful of atomics living next to the result
//! counter, written by device workers and read by the host's poll loop.
//!
//! What the region can and cannot express:
//!
//! * A **quarantined block** (its iteration panicked and it was removed
//!   from the schedule) is visible immediately via `dead_blocks`.
//! * A **dead device** (every block quarantined, or the device run exited
//!   while the host had not requested a stop) is visible via
//!   [`HealthStatus::Dead`].
//! * A **silent stall** (workers alive but frozen) is *not* visible here
//!   — by definition nothing gets written. Detecting it is the job of the
//!   host-side watchdog, which compares result-counter progress across
//!   devices (`abs`'s `WatchdogConfig`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Health of one device as derivable from its shared-memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// All registered blocks are running (or the device has not started).
    Healthy,
    /// Some blocks were quarantined; the rest keep searching.
    Degraded {
        /// Blocks quarantined so far.
        dead_blocks: u64,
        /// Blocks registered at device start.
        total_blocks: u64,
    },
    /// Every block is gone, or the device run exited while the host was
    /// still running (a device thread death the host would otherwise
    /// discover only when it joins the machine — i.e. never, if the host
    /// loop is polling a frozen counter).
    Dead,
}

/// The health sub-region of one device's [`crate::GlobalMem`].
///
/// All fields are monotone counters or latches; readers need no lock and
/// writers never block each other.
#[derive(Debug, Default)]
pub struct DeviceHealth {
    /// Blocks registered when the device run started.
    total_blocks: AtomicU64,
    /// Blocks quarantined after a panicking iteration.
    dead_blocks: AtomicU64,
    /// Latch: the device run returned while the stop flag was *not*
    /// raised — the device died rather than being retired by the host.
    dead_exit: AtomicBool,
}

impl DeviceHealth {
    /// Creates a healthy, not-yet-started region.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Device: registers `total` blocks at run start.
    pub fn set_total_blocks(&self, total: u64) {
        // ordering: Release pairs with the Acquire in total_blocks();
        // record_dead_block's Release chain also carries this store (the
        // registration precedes every quarantine in device program order).
        self.total_blocks.store(total, Ordering::Release);
    }

    /// Device: records one quarantined block.
    pub fn record_dead_block(&self) {
        // ordering: Release pairs with the Acquire in dead_blocks() — a
        // visible quarantine implies the earlier set_total_blocks store
        // is visible too (see the load order in status()).
        self.dead_blocks.fetch_add(1, Ordering::Release);
    }

    /// Device: records that the run exited without a host stop request.
    pub fn record_dead_exit(&self) {
        // ordering: Release pairs with the Acquire load in status().
        self.dead_exit.store(true, Ordering::Release);
    }

    /// Blocks registered at device start (0 before the run starts).
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in set_total_blocks.
        self.total_blocks.load(Ordering::Acquire)
    }

    /// Blocks quarantined so far.
    #[must_use]
    pub fn dead_blocks(&self) -> u64 {
        // ordering: Acquire pairs with the Release fetch_add in record_dead_block.
        self.dead_blocks.load(Ordering::Acquire)
    }

    /// Host: derives the device status from the counters.
    #[must_use]
    pub fn status(&self) -> HealthStatus {
        // ordering: Acquire pairs with the Release store in record_dead_exit.
        if self.dead_exit.load(Ordering::Acquire) {
            return HealthStatus::Dead;
        }
        // Read `dead` *before* `total`: the quarantine's Release chains
        // back to the set_total_blocks store (registration precedes every
        // quarantine on the device), so a visible death implies a visible
        // registration and `dead > total == 0` can never be observed —
        // reading in the opposite order could misreport a freshly
        // degraded device as Dead.
        let dead = self.dead_blocks();
        let total = self.total_blocks();
        if dead == 0 {
            HealthStatus::Healthy
        } else if dead >= total {
            HealthStatus::Dead
        } else {
            HealthStatus::Degraded {
                dead_blocks: dead,
                total_blocks: total,
            }
        }
    }
}

impl HealthStatus {
    /// `true` unless the device is [`HealthStatus::Dead`].
    #[must_use]
    pub fn is_alive(&self) -> bool {
        !matches!(self, Self::Dead)
    }

    /// Short lowercase label (`healthy` / `degraded` / `dead`) for logs
    /// and machine-readable output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded { .. } => "degraded",
            Self::Dead => "dead",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_region_is_healthy() {
        let h = DeviceHealth::new();
        assert_eq!(h.status(), HealthStatus::Healthy);
        assert!(h.status().is_alive());
        assert_eq!(h.status().label(), "healthy");
    }

    #[test]
    fn block_deaths_walk_healthy_degraded_dead() {
        let h = DeviceHealth::new();
        h.set_total_blocks(3);
        assert_eq!(h.status(), HealthStatus::Healthy);
        h.record_dead_block();
        assert_eq!(
            h.status(),
            HealthStatus::Degraded {
                dead_blocks: 1,
                total_blocks: 3
            }
        );
        assert!(h.status().is_alive());
        h.record_dead_block();
        h.record_dead_block();
        assert_eq!(h.status(), HealthStatus::Dead);
        assert!(!h.status().is_alive());
        assert_eq!(h.status().label(), "dead");
    }

    #[test]
    fn dead_exit_overrides_block_counts() {
        let h = DeviceHealth::new();
        h.set_total_blocks(8);
        h.record_dead_exit();
        assert_eq!(h.status(), HealthStatus::Dead);
    }

    #[test]
    fn all_blocks_quarantined_flips_to_dead_exactly_at_the_last_block() {
        let total = 4;
        let h = DeviceHealth::new();
        h.set_total_blocks(total);
        for dead in 1..=total {
            h.record_dead_block();
            let s = h.status();
            if dead < total {
                assert_eq!(
                    s,
                    HealthStatus::Degraded {
                        dead_blocks: dead,
                        total_blocks: total
                    }
                );
                assert!(s.is_alive(), "alive through {dead}/{total} deaths");
            } else {
                assert_eq!(s, HealthStatus::Dead);
                assert!(!s.is_alive());
            }
        }
    }

    #[test]
    fn status_reads_during_quarantine_transitions_stay_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let total = 8u64;
        let h = Arc::new(DeviceHealth::new());
        h.set_total_blocks(total);
        let done = Arc::new(AtomicBool::new(false));

        // Reader: polls status() while quarantines land. Only total − 1
        // blocks die below, so Dead must never be observed, and every
        // Degraded snapshot must be internally consistent.
        let reader = {
            let h = Arc::clone(&h);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut max_dead = 0;
                while !done.load(Ordering::Acquire) {
                    match h.status() {
                        HealthStatus::Healthy => {}
                        HealthStatus::Degraded {
                            dead_blocks,
                            total_blocks,
                        } => {
                            assert_eq!(total_blocks, total, "total is fixed");
                            assert!(dead_blocks >= 1 && dead_blocks < total);
                            assert!(dead_blocks >= max_dead, "dead count is monotone");
                            max_dead = dead_blocks;
                        }
                        HealthStatus::Dead => {
                            panic!("Dead observed while a block still runs")
                        }
                    }
                }
            })
        };

        // Writers: total − 1 quarantines from two racing threads.
        let writers: Vec<_> = [total / 2, total / 2 - 1]
            .into_iter()
            .map(|k| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..k {
                        h.record_dead_block();
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();

        // The final quarantine flips the device to Dead.
        h.record_dead_block();
        assert_eq!(h.status(), HealthStatus::Dead);
    }
}

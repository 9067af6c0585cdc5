//! Property-based equivalence tests for the sparse (CSR) flip tier: the
//! `SparseDeltaTracker` must walk bit-for-bit identical trajectories to
//! the dense `DeltaTracker` — same selections, same bits, same energies,
//! same Δ vectors, same best records — across the full density sweep
//! from 0.1% to 100%, while charging only `deg(k) + 2` evaluations per
//! flip instead of the dense `n + 1`.
//!
//! The suite is storage-explicit: both arms are constructed directly
//! from the same instance, so running it with `ABS_FORCE_DENSE=1` or
//! `ABS_FORCE_SPARSE=1` (the CI weekly job does both) still exercises
//! both trackers — only the dispatch-facing tests branch on the pin.

use abs::{Abs, AbsConfig, DeviceStatus, StopCondition};
use proptest::prelude::*;
use qubo::{CouplingMatrix, MatrixStorage, Qubo, SparseQubo};
use qubo_problems::{gset, maxcut};
use qubo_search::{local_search, DeltaTracker, SparseDeltaTracker, WindowMinPolicy};
use std::sync::Arc;
use std::time::Duration;
use vgpu::{Corruption, FaultPlan};

/// Density sweep points in per-mille: 0.1%, 0.5%, 2%, 10%, 50%, 100%.
const DENSITIES: [u64; 6] = [1, 5, 20, 100, 500, 1000];

/// Deterministic instance with roughly `per_mille`/1000 of the off-diag
/// couplers present (the diagonal is always populated so every flip
/// moves the energy). Weights span the full i16 range, forced odd so no
/// kept coupler collapses to zero.
fn instance(n: usize, per_mille: u64, seed: u64) -> Qubo {
    let mut q = Qubo::zero(n).expect("size");
    let mut s = seed | 1;
    for i in 0..n {
        for j in i..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i == j || (s >> 33) % 1000 < per_mille {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                q.set(i, j, ((s >> 40) as i16) | 1);
            }
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both storage arms walk the identical trajectory through the fused
    /// flip+select path: same selections, same bits, same energies, same
    /// Δ vectors, same best records — at every step, at every density.
    #[test]
    fn csr_and_dense_trackers_walk_identically(
        n in 4usize..=48,
        di in 0usize..6,
        seed in any::<u64>(),
    ) {
        let q = instance(n, DENSITIES[di], seed);
        let sq = SparseQubo::from_dense(&q);
        let mut dense = DeltaTracker::new(&q);
        let mut sparse = SparseDeltaTracker::new(&sq);
        prop_assert_eq!(dense.energy(), sparse.energy());
        prop_assert_eq!(dense.deltas(), sparse.deltas());
        let mut k = (seed as usize) % n;
        let mut s = seed;
        for _ in 0..64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (s >> 33) as usize % n;
            let l = 1 + (s as usize % n);
            let pd = dense.flip_select(k, (a, l));
            let ps = sparse.flip_select(k, (a, l));
            prop_assert_eq!(pd, ps, "storage arms disagree on selection");
            prop_assert_eq!(dense.x(), sparse.x());
            prop_assert_eq!(dense.energy(), sparse.energy());
            prop_assert_eq!(dense.deltas(), sparse.deltas());
            prop_assert_eq!(dense.best().0, sparse.best().0);
            prop_assert_eq!(dense.best().1, sparse.best().1);
            k = pd;
        }
        dense.verify(); // Δ vector vs the O(n) oracle
        sparse.verify(); // Δ vector, bucket summaries, lower bounds
    }

    /// The shared generic driver (`local_search` over `SearchTracker`)
    /// produces the same flips, bits and best records on both arms when
    /// fed the same window schedule — the exact configuration the vgpu
    /// block runner uses.
    #[test]
    fn generic_local_search_drives_both_arms_identically(
        n in 8usize..=40,
        di in 0usize..6,
        window in 1usize..=16,
        steps in 50usize..=200,
        seed in any::<u64>(),
    ) {
        let q = instance(n, DENSITIES[di], seed);
        let sq = SparseQubo::from_dense(&q);
        let mut dense = DeltaTracker::new(&q);
        let mut sparse = SparseDeltaTracker::new(&sq);
        let mut pd = WindowMinPolicy::new(window);
        let mut ps = WindowMinPolicy::new(window);
        let fd = local_search(&mut dense, &mut pd, steps);
        let fs = local_search(&mut sparse, &mut ps, steps);
        prop_assert_eq!(fd, fs);
        prop_assert_eq!(dense.x(), sparse.x());
        prop_assert_eq!(dense.energy(), sparse.energy());
        prop_assert_eq!(dense.best().0, sparse.best().0);
        prop_assert_eq!(dense.best().1, sparse.best().1);
    }

    /// The CSR arm's evaluated counter is degree-honest: `n + 1` for the
    /// initial solution plus `deg(k) + 2` per flip — and at 100% density
    /// (`deg(k) = n − 1` everywhere) it lands exactly on the dense
    /// Theorem-1 projection `(flips + 1) × (n + 1)`.
    #[test]
    fn evaluated_counts_touched_neighbours_exactly(
        n in 4usize..=32,
        di in 0usize..6,
        seed in any::<u64>(),
    ) {
        let q = instance(n, DENSITIES[di], seed);
        let sq = SparseQubo::from_dense(&q);
        let mut dense = DeltaTracker::new(&q);
        let mut sparse = SparseDeltaTracker::new(&sq);
        let mut expected = n as u64 + 1;
        let mut s = seed;
        for _ in 0..32 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (s >> 33) as usize % n;
            expected += sq.degree(k) as u64 + 2;
            dense.flip(k);
            sparse.flip(k);
        }
        prop_assert_eq!(sparse.evaluated(), expected);
        if DENSITIES[di] == 1000 {
            prop_assert_eq!(sparse.evaluated(), dense.evaluated());
        } else {
            prop_assert!(sparse.evaluated() <= dense.evaluated());
        }
    }
}

/// `ABS_FORCE_DENSE` / `ABS_FORCE_SPARSE` pin the per-instance dispatch
/// — the CI weekly job sets each and re-runs this whole suite, so both
/// dispatch outcomes stay covered by the same tests. Unpinned, the
/// measured-density threshold picks the arm.
#[test]
fn forced_storage_pins_dispatch() {
    let sparse_q = instance(64, 5, 7);
    let dense_q = instance(16, 1000, 7);
    assert!(sparse_q.density_per_mille() <= qubo::SPARSE_DENSITY_PER_MILLE);
    assert!(dense_q.density_per_mille() > qubo::SPARSE_DENSITY_PER_MILLE);
    match MatrixStorage::forced() {
        Some(arm) => {
            assert_eq!(MatrixStorage::select(&sparse_q), arm);
            assert_eq!(MatrixStorage::select(&dense_q), arm);
        }
        None => {
            assert_eq!(MatrixStorage::select(&sparse_q), MatrixStorage::Sparse);
            assert_eq!(MatrixStorage::select(&dense_q), MatrixStorage::Dense);
        }
    }
}

/// End to end through `Abs::solve`: a G-set-style sparse Max-Cut
/// instance auto-dispatches to the CSR arm, the `abs_matrix_storage`
/// info gauge records it, and the evaluated count in the result is
/// degree-honest (strictly below the dense projection).
#[test]
fn gset_instance_dispatches_to_the_csr_arm_end_to_end() {
    if MatrixStorage::forced() == Some(MatrixStorage::Dense) {
        return; // pinned away from the arm under test
    }
    // 256 vertices, 300 unit edges: ~0.9% density, G-set shaped.
    let g = gset::generate(256, 300, gset::GsetFamily::RandomUnit, 9);
    let q = maxcut::to_qubo(&g).expect("encodes");
    assert_eq!(MatrixStorage::select(&q), MatrixStorage::Sparse);
    let mut cfg = AbsConfig::small();
    cfg.seed = 11;
    cfg.stop = StopCondition::flips(20_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert_eq!(
        r.metrics
            .gauge_with("abs_matrix_storage", "storage", "sparse"),
        Some(1.0),
        "CSR dispatch must be recorded in the info gauge"
    );
    // Max degree is tiny (~2.3 average), so the touched-neighbour count
    // must fall far short of the dense (flips + units) * (n + 1).
    assert!(r.total_flips > 0);
    assert!(r.evaluated < (r.total_flips + r.search_units) * 257 / 4);
    // The solution still decodes as a cut.
    let cut = maxcut::cut_value(&g, &r.best);
    assert_eq!(-r.best_energy, cut, "energy must be the negated cut");
    assert!(cut > 0, "cut {cut} not positive");
}

/// The dense complement: an above-threshold instance records the dense
/// arm and keeps the exact Theorem-1 accounting.
#[test]
fn dense_instance_records_the_dense_arm_end_to_end() {
    if MatrixStorage::forced() == Some(MatrixStorage::Sparse) {
        return; // pinned away from the arm under test
    }
    let q = instance(48, 1000, 3);
    assert_eq!(MatrixStorage::select(&q), MatrixStorage::Dense);
    let mut cfg = AbsConfig::small();
    cfg.seed = 4;
    cfg.stop = StopCondition::flips(10_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert_eq!(
        r.metrics
            .gauge_with("abs_matrix_storage", "storage", "dense"),
        Some(1.0)
    );
    assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 49);
}

/// The corrupted-record scenario of the fault-tolerance suite on an
/// instance that dispatches to the CSR arm: there the host audits
/// improvements with `SparseQubo::energy` (O(n + nnz)) on the
/// machine's shared CSR matrix, and that audit must still reject the
/// impossible energy claim. One device and a flip budget keep the run
/// short and its fault accounting independent of the stall watchdog.
#[test]
fn csr_audit_rejects_corrupted_records() {
    if MatrixStorage::forced() == Some(MatrixStorage::Dense) {
        return; // pinned away from the arm under test
    }
    // 128 vertices, 120 unit edges: ~1.5 % density, under the 2 % cut.
    let g = gset::generate(128, 120, gset::GsetFamily::RandomUnit, 3);
    let q = maxcut::to_qubo(&g).expect("encodes");
    assert_eq!(MatrixStorage::select(&q), MatrixStorage::Sparse);
    let mut cfg = AbsConfig::small();
    cfg.machine.device.blocks_override = Some(3);
    // One worker cycles through every block, so both corrupting blocks
    // reach their second iteration well inside the flip budget.
    cfg.machine.device.workers = 1;
    cfg.machine.device.fault = Some(Arc::new(
        FaultPlan::new()
            .corrupt_record(0, 1, 1, Corruption::WrongLength)
            .corrupt_record(0, 0, 1, Corruption::WrongEnergy),
    ));
    cfg.watchdog.hard_timeout = Some(Duration::from_secs(60));
    cfg.stop = StopCondition::flips(100_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert_eq!(
        r.metrics
            .gauge_with("abs_matrix_storage", "storage", "sparse"),
        Some(1.0),
        "the run must have searched on the CSR arm"
    );
    assert_eq!(r.best_energy, q.energy(&r.best), "best must be exact");
    assert_eq!(-r.best_energy, maxcut::cut_value(&g, &r.best));
    // WrongLength is rejected device-side, WrongEnergy by the CSR audit.
    assert_eq!(r.devices[0].status, DeviceStatus::Healthy);
    assert_eq!(r.devices[0].rejected_records, 2);
    assert_eq!(r.rejected_records, 2);
}

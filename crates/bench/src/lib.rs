//! Benchmark harness regenerating every table and figure of the paper.
//!
//! The `report` binary (`cargo run --release -p abs-bench --bin report`)
//! exposes one subcommand per experiment:
//!
//! | subcommand  | regenerates |
//! |-------------|-------------|
//! | `table1a`   | Table 1 (a): time-to-solution, Max-Cut (G-set stand-ins) |
//! | `table1b`   | Table 1 (b): time-to-solution, TSP (TSPLIB stand-ins) |
//! | `table1c`   | Table 1 (c): time-to-solution, synthetic random |
//! | `table2`    | Table 2: search rate vs bits-per-thread (measured CPU + modeled GPU) |
//! | `fig8`      | Fig. 8: search-rate scaling with device count |
//! | `table3`    | Table 3: cross-system comparison |
//! | `efficiency`| Lemmas 1–3 / Theorem 1: measured search efficiency |
//! | `baselines` | ABS vs SA/tabu/greedy/random at matched wall-clock |
//! | `ablation`  | window / GA mix / pool / adaptive / policy-mix sweeps |
//! | `all`       | everything above |
//!
//! Each experiment prints a Markdown table with paper-reference columns
//! and writes machine-readable JSON next to it (under `results/`).
//! Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod table;

use std::path::Path;
use std::time::Duration;

/// `base` scaled by `CRITERION_SHIM_SCALE` (a positive float, default
/// 1): the timing budget of the benches that time their own paired
/// rounds, shrunk by the knob that shrinks the criterion-shim benches.
#[must_use]
pub fn scaled_budget(base: Duration) -> Duration {
    let scale = std::env::var("CRITERION_SHIM_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0);
    base.mul_f64(scale)
}

/// Writes a serializable experiment result as pretty JSON under `dir`.
///
/// # Panics
/// Panics when the directory cannot be created or the file written —
/// the report binary treats that as fatal.
pub fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, body).expect("write result json");
    println!("  → wrote {}", path.display());
}

/// Global scale knob: budgets are multiplied by this factor so `report
/// all` can run in seconds (scale 0.2) or do a thorough pass (scale 5).
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// Scales a millisecond budget, keeping at least 20 ms.
    #[must_use]
    pub fn ms(&self, base: u64) -> u64 {
        ((base as f64 * self.0) as u64).max(20)
    }

    /// Scales an iteration/flip budget, keeping at least 1 000.
    #[must_use]
    pub fn steps(&self, base: u64) -> u64 {
        ((base as f64 * self.0) as u64).max(1_000)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self(1.0)
    }
}

//! Classical simulated annealing (Kirkpatrick et al.; Eq. (7) of the
//! paper) with accept/reject semantics and a geometric schedule.
//!
//! This is Algorithm 3 run in production form: the Δ vector makes each
//! *evaluation* O(1), but unlike ABS the move can be rejected (the
//! paper's point: near a local minimum almost everything is rejected,
//! so flips-per-second collapse while ABS keeps flipping).

use crate::BaselineResult;
use qubo::Qubo;
use qubo_search::DeltaTracker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Initial temperature in energy units (`k_B·t` of Eq. (7)).
    pub t_initial: f64,
    /// Final temperature.
    pub t_final: f64,
    /// Total proposed moves; the temperature decays geometrically from
    /// `t_initial` to `t_final` across them.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SaConfig {
    /// A reasonable default schedule for an instance: start at the scale
    /// of typical |Δ| (≈ mean |row sum| of the weights), end near zero.
    #[must_use]
    pub fn for_instance(q: &Qubo, steps: u64, seed: u64) -> Self {
        let scale = (q.energy_bound() as f64 / q.n() as f64).max(1.0);
        Self {
            t_initial: scale,
            t_final: (scale * 1e-4).max(1e-3),
            steps,
            seed,
        }
    }
}

/// Runs simulated annealing from a uniformly random start.
///
/// # Panics
/// Panics if `steps == 0` or temperatures are non-positive.
#[must_use]
pub fn solve(q: &Qubo, cfg: &SaConfig) -> BaselineResult {
    assert!(cfg.steps > 0, "need at least one step");
    assert!(
        cfg.t_initial > 0.0 && cfg.t_final > 0.0,
        "temperatures must be positive"
    );
    let n = q.n();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let start = qubo::BitVec::random(n, &mut rng);
    let mut t = DeltaTracker::at(q, &start);
    let cooling = (cfg.t_final / cfg.t_initial).powf(1.0 / cfg.steps as f64);
    let mut temp = cfg.t_initial;
    let mut accepted = 0u64;
    for _ in 0..cfg.steps {
        let k = rng.gen_range(0..n);
        let d = t.deltas()[k];
        let accept = d <= 0 || rng.gen::<f64>() < (-f64::from(d) / temp).exp();
        if accept {
            t.flip(k);
            accepted += 1;
        }
        temp *= cooling;
    }
    let (bx, be) = t.best();
    BaselineResult {
        best: bx.clone(),
        best_energy: be,
        steps: accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use rand::rngs::StdRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    #[test]
    fn reaches_ground_state_of_small_instance() {
        let q = random_qubo(14, 1);
        let truth = exact::solve(&q);
        let cfg = SaConfig::for_instance(&q, 60_000, 2);
        let r = solve(&q, &cfg);
        assert_eq!(r.best_energy, q.energy(&r.best));
        assert_eq!(
            r.best_energy, truth.best_energy,
            "SA missed the 14-bit ground state"
        );
    }

    #[test]
    fn energy_is_exact_even_with_rejections() {
        let q = random_qubo(32, 3);
        let cfg = SaConfig {
            t_initial: 1e5,
            t_final: 1.0,
            steps: 5_000,
            seed: 4,
        };
        let r = solve(&q, &cfg);
        assert_eq!(r.best_energy, q.energy(&r.best));
        assert!(r.steps <= 5_000);
    }

    #[test]
    fn low_temperature_rejects_uphill() {
        let q = random_qubo(24, 5);
        let cold = SaConfig {
            t_initial: 1e-6,
            t_final: 1e-9,
            steps: 3_000,
            seed: 6,
        };
        let hot = SaConfig {
            t_initial: 1e9,
            t_final: 1e8,
            steps: 3_000,
            seed: 6,
        };
        let rc = solve(&q, &cold);
        let rh = solve(&q, &hot);
        // Hot accepts nearly everything; cold only downhill.
        assert!(rh.steps > rc.steps);
    }

    #[test]
    fn deterministic_under_seed() {
        let q = random_qubo(20, 7);
        let cfg = SaConfig::for_instance(&q, 10_000, 8);
        let a = solve(&q, &cfg);
        let b = solve(&q, &cfg);
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best, b.best);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let q = random_qubo(8, 9);
        let _ = solve(
            &q,
            &SaConfig {
                t_initial: 1.0,
                t_final: 0.1,
                steps: 0,
                seed: 0,
            },
        );
    }
}

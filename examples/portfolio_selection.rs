//! Portfolio selection as QUBO — a real-world scenario from the class
//! of applications the paper's introduction motivates (cf. Rosenberg et
//! al., "Solving the optimal trading trajectory problem using a quantum
//! annealer", cited as [28]).
//!
//! Pick a subset of assets maximizing expected return while penalizing
//! covariance risk and deviation from a cardinality budget:
//!
//! ```text
//! minimize  −Σ μ_i x_i + γ·Σ σ_ij x_i x_j + λ·(Σ x_i − K)²
//! ```
//!
//! All coefficients are scaled to integers and assembled as `(i, j, w)`
//! triplets with `Qubo::from_triplets` — exactly how a downstream user
//! would encode their own problem.
//!
//! ```sh
//! cargo run --release -p abs-examples --example portfolio_selection
//! ```

use abs::{Abs, AbsConfig, StopCondition};
use qubo::Qubo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const ASSETS: usize = 48;
const BUDGET: i64 = 12; // target portfolio size K
const RISK_AVERSION: i64 = 2; // γ
const CARDINALITY_PENALTY: i64 = 60; // λ

struct Market {
    /// Expected returns μ_i (basis points, integer).
    mu: Vec<i64>,
    /// Covariance σ_ij (scaled integer, symmetric PSD-ish).
    sigma: Vec<Vec<i64>>,
}

fn synthetic_market(seed: u64) -> Market {
    let mut rng = StdRng::seed_from_u64(seed);
    let mu: Vec<i64> = (0..ASSETS).map(|_| rng.gen_range(5..120)).collect();
    // Factor model: sigma = F·Fᵀ + diagonal noise, guaranteed symmetric.
    let factors = 4;
    let f: Vec<Vec<i64>> = (0..ASSETS)
        .map(|_| (0..factors).map(|_| rng.gen_range(-6..=6)).collect())
        .collect();
    let mut sigma = vec![vec![0i64; ASSETS]; ASSETS];
    for i in 0..ASSETS {
        for j in 0..ASSETS {
            sigma[i][j] = f[i].iter().zip(&f[j]).map(|(a, b)| a * b).sum();
        }
        sigma[i][i] += rng.gen_range(5..15);
    }
    Market { mu, sigma }
}

fn encode(m: &Market) -> Qubo {
    let mut triplets = Vec::new();
    for i in 0..ASSETS {
        // −μ_i x_i  +  γ σ_ii x_i  +  λ(1 − 2K) x_i   (from (Σx − K)²)
        let diag =
            -m.mu[i] + RISK_AVERSION * m.sigma[i][i] + CARDINALITY_PENALTY * (1 - 2 * BUDGET);
        triplets.push((i, i, i16::try_from(diag).expect("diag fits")));
        for j in (i + 1)..ASSETS {
            // Off-diagonals are double-counted by the energy, so each
            // W_ij carries half the pair coefficient:
            //   γ·2σ_ij (σ appears for (i,j) and (j,i)) + 2λ  → halved.
            let pair = RISK_AVERSION * m.sigma[i][j] + CARDINALITY_PENALTY;
            triplets.push((i, j, i16::try_from(pair).expect("pair fits")));
        }
    }
    Qubo::from_triplets(ASSETS, &triplets).expect("no overflow")
}

fn main() {
    let market = synthetic_market(2024);
    let q = encode(&market);
    println!(
        "portfolio QUBO: {} assets, budget K = {BUDGET}, γ = {RISK_AVERSION}, λ = {CARDINALITY_PENALTY}",
        ASSETS
    );

    let mut config = AbsConfig::small();
    config.stop = StopCondition::timeout(Duration::from_millis(800));
    let result = Abs::new(config)
        .expect("valid config")
        .solve(&q)
        .expect("solve");

    let chosen: Vec<usize> = result.best.iter_ones().collect();
    let ret: i64 = chosen.iter().map(|&i| market.mu[i]).sum();
    let mut risk = 0i64;
    for &i in &chosen {
        for &j in &chosen {
            risk += market.sigma[i][j];
        }
    }
    println!("\nselected {} assets: {chosen:?}", chosen.len());
    println!("expected return: {ret} bp");
    println!("portfolio risk (Σσ): {risk}");
    println!("objective energy: {}", result.best_energy);
    assert_eq!(result.best_energy, q.energy(&result.best));

    // Compare against the exact optimum of a truncated 22-asset market —
    // small enough for exhaustive enumeration.
    let small = {
        let mut triplets = Vec::new();
        for i in 0..22 {
            let diag = -market.mu[i]
                + RISK_AVERSION * market.sigma[i][i]
                + CARDINALITY_PENALTY * (1 - 2 * BUDGET);
            triplets.push((i, i, i16::try_from(diag).unwrap()));
            for j in (i + 1)..22 {
                let pair = RISK_AVERSION * market.sigma[i][j] + CARDINALITY_PENALTY;
                triplets.push((i, j, i16::try_from(pair).unwrap()));
            }
        }
        Qubo::from_triplets(22, &triplets).unwrap()
    };
    let truth = qubo_baselines::exact::solve(&small);
    let mut cfg2 = AbsConfig::small();
    cfg2.stop = StopCondition::target(truth.best_energy).with_timeout(Duration::from_secs(5));
    let r2 = Abs::new(cfg2)
        .expect("valid config")
        .solve(&small)
        .expect("solve");
    println!(
        "\n22-asset cross-check: exact optimum {} — ABS found {}{}",
        truth.best_energy,
        r2.best_energy,
        if r2.reached_target { " ✓" } else { "" }
    );
}

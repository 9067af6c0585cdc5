//! The four workloads: their inputs, made from the benchmark seed alone,
//! and the oracle every returned result is checked against. The server
//! only ever sees the generated `POST /jobs` bodies.

use qubo::{BitVec, MatrixStorage, Qubo, SparseQubo};
use qubo_problems::gset::{self, GsetFamily};
use serde_json::Value;
use std::sync::Arc;

/// Flags of every benchmarked server: one solver session at a time (it
/// already fills both cores: two device workers plus the host poll
/// thread), two HTTP workers (one may sit in an event stream), and a
/// queue deep enough that the open loop's top rung never sees a 429.
pub const SERVER_FLAGS: [&str; 6] = [
    "--solver-workers",
    "1",
    "--http-workers",
    "2",
    "--queue-depth",
    "4096",
];

/// G55 family stand-ins: vertices and edges.
const GSET_N: usize = 5000;
const GSET_EDGES: usize = 12_498;
/// Distinct graphs per run; jobs cycle through them with fresh seeds.
const GSET_GRAPHS: usize = 10;
/// A G-set job's target: this share of the greedy baseline's cut. The
/// time to the whole cut is bimodal on two cores. About half the jobs
/// reach it in 0.2–0.3 s; in the rest the host loop sends no progress for
/// 0.6 s or more first. The median of a run's 40 jobs then flips between
/// the two modes. An 85 % cut is reached within 0.15 s of every session's
/// start, before any such gap.
const GSET_TARGET_SHARE: f64 = 0.85;
/// A backstop only: every G-set job stops at its target.
const GSET_TIMEOUT_MS: u64 = 10_000;

const DENSE_N: usize = 2048;
const DENSE_INSTANCES: usize = 4;
/// A backstop only: every dense job stops at its target, the greedy
/// baseline's energy, which the search reaches in 0.04–0.15 s.
const DENSE_TIMEOUT_MS: u64 = 5000;
const TINY_N: usize = 16;
const TINY_INSTANCES: usize = 32;
/// A backstop only: every tiny job stops at its exact optimum.
const TINY_TIMEOUT_MS: u64 = 1000;
const WARM_N: usize = 1024;
const WARM_INSTANCES: usize = 8;
/// Repeat jobs per instance after its one cold job.
const WARM_REPEATS: usize = 15;
const WARM_TIMEOUT_MS: u64 = 1000;
/// Warm-up jobs before any timing starts.
pub const WARMUP_JOBS: usize = 2;

/// One traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// G-set G55-family Max-Cut to 85 % of the greedy baseline's cut: the
    /// sparse tier behind an O(n²) ingestion path.
    GsetSparse,
    /// Dense random n = 2048 to the greedy baseline's energy: time to a
    /// target on a matrix that overflows L2.
    DenseRate,
    /// Open-loop n = 16 jobs at fixed rates: the fixed cost of a job.
    TinyOpen,
    /// Repeats of an already-solved n = 1024 instance: the warm-start
    /// cache's hit path.
    WarmRepeat,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Self; 4] = [
        Self::GsetSparse,
        Self::DenseRate,
        Self::TinyOpen,
        Self::WarmRepeat,
    ];

    /// Name used on the command line and in every report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::GsetSparse => "gset-sparse",
            Self::DenseRate => "dense-rate",
            Self::TinyOpen => "tiny-open",
            Self::WarmRepeat => "warm-repeat",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile reported as `latency_tail_s`: fixed per workload so
    /// runs compare like with like, and backed by at least ten samples
    /// beyond it (see `closed_jobs` and the open loop's rung sizes).
    #[must_use]
    pub fn tail_percentile(self) -> u32 {
        match self {
            Self::GsetSparse | Self::DenseRate => 75,
            Self::TinyOpen | Self::WarmRepeat => 90,
        }
    }

    /// Timed jobs of a closed-loop run: a fixed list, so every run of a
    /// workload does the same work whatever its speed (peak memory and
    /// per-job figures compare like with like). Sized to give the tail
    /// percentile its samples and to take about 20 s on a 2-CPU host.
    #[must_use]
    pub fn closed_jobs(self) -> usize {
        match self {
            Self::GsetSparse => 40,
            Self::DenseRate => 60,
            Self::WarmRepeat => WARM_INSTANCES * (WARM_REPEATS + 1),
            Self::TinyOpen => 0,
        }
    }
}

/// Re-scores a returned solution in the storage form that fits the
/// instance (a dense copy of every G55 stand-in would cost the client
/// 50 MB apiece; the CSR energy is the same function).
enum Scorer {
    Dense(Qubo),
    Sparse(SparseQubo),
}

/// One generated problem.
pub struct Instance {
    /// The `problem` object as sent.
    problem: String,
    /// Bits.
    n: usize,
    /// `Qubo::content_hash` of the decoded problem, hex.
    pub hash: String,
    /// The storage tier `MatrixStorage::select` picks for it.
    pub storage: &'static str,
    /// Dense arms satisfy `evaluated == (flips + units)·(n + 1)`.
    dense_accounting: bool,
    /// The exact optimum (`baselines::exact`), where n allows.
    exact: Option<i64>,
    /// The deterministic single-thread greedy baseline's energy.
    baseline: Option<i64>,
    scorer: Scorer,
}

impl Instance {
    fn dense(q: Qubo, exact: Option<i64>, baseline: Option<i64>) -> Self {
        let n = q.n();
        let mut problem = format!("{{\"format\": \"dense\", \"n\": {n}, \"upper\": [");
        for i in 0..n {
            for j in i..n {
                if i + j > 0 {
                    problem.push(',');
                }
                problem.push_str(&q.get(i, j).to_string());
            }
        }
        problem.push_str("]}");
        Self {
            problem,
            n,
            hash: q.content_hash().to_hex(),
            storage: MatrixStorage::select(&q).name(),
            dense_accounting: MatrixStorage::select(&q) == MatrixStorage::Dense,
            exact,
            baseline,
            scorer: Scorer::Dense(q),
        }
    }

    /// A G55-family stand-in, decoded with the server's own JSON codec so
    /// the hash, reference and scorer describe exactly what it solves.
    fn gset(seed: u64) -> Self {
        let g = gset::generate(GSET_N, GSET_EDGES, GsetFamily::RandomUnit, seed);
        let edges: Vec<String> = g
            .edges()
            .map(|(u, v, w)| format!("[{}, {}, {w}]", u + 1, v + 1))
            .collect();
        let problem = format!(
            "{{\"format\": \"edge-list\", \"n\": {GSET_N}, \"edges\": [{}]}}",
            edges.join(", ")
        );
        let q = qubo::json::parse_problem(&problem).expect("generated edge list decodes");
        let greedy = qubo_baselines::greedy::solve(&q, 1, seed);
        let storage = MatrixStorage::select(&q);
        Self {
            problem,
            n: GSET_N,
            hash: q.content_hash().to_hex(),
            storage: storage.name(),
            dense_accounting: storage == MatrixStorage::Dense,
            exact: None,
            baseline: Some(greedy.best_energy),
            scorer: Scorer::Sparse(SparseQubo::from_dense(&q)),
        }
    }

    fn energy(&self, x: &BitVec) -> i64 {
        match &self.scorer {
            Scorer::Dense(q) => q.energy(x),
            Scorer::Sparse(s) => s.energy(x),
        }
    }
}

/// One job to submit.
pub struct Job {
    /// The problem it solves.
    pub instance: Arc<Instance>,
    /// The whole `POST /jobs` body.
    pub body: String,
    /// The stop target sent with the job (all but warm-repeat's cold jobs).
    pub target: Option<i64>,
    /// Whether the job's latency counts (warm-repeat's cold jobs do not).
    pub timed: bool,
    /// Pool index of its instance (warm-repeat keys the cold best on it).
    slot: usize,
    warmup: bool,
}

/// What a checked result reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Best energy found.
    pub best_energy: i64,
    /// Session wall time the server reports (`elapsed_ms`).
    pub elapsed_s: f64,
    /// Solutions evaluated.
    pub evaluated: u64,
    /// Device flips.
    pub flips: u64,
    /// Whether the session was seeded from the warm-start cache.
    pub warm_started: bool,
}

/// Why a job does not count as a success.
#[derive(Debug)]
pub enum Failure {
    /// A non-201 reply, a job that ended other than `done`, a missed
    /// target, or a transport error.
    Failed(String),
    /// A wrong answer: the output oracle disagrees with the server.
    Wrong(String),
}

impl Job {
    /// Checks a `GET /jobs/{id}` body against the output oracle.
    ///
    /// # Errors
    /// [`Failure`] as documented on its variants.
    pub fn check(&self, status: &Value) -> Result<Outcome, Failure> {
        let state = status["state"].as_str().unwrap_or("?");
        if state != "done" {
            let why = status["error"].as_str().unwrap_or("");
            return Err(Failure::Failed(format!("job ended {state} {why}")));
        }
        let r = &status["result"];
        let field = |k: &str| {
            r[k].as_u64()
                .ok_or_else(|| Failure::Wrong(format!("result.{k}")))
        };
        let best = r["best_energy"]
            .as_i64()
            .ok_or_else(|| Failure::Wrong("result.best_energy".into()))?;
        let bits = r["solution"]
            .as_str()
            .and_then(BitVec::from_bit_str)
            .filter(|x| x.len() == self.instance.n)
            .ok_or_else(|| Failure::Wrong("solution is not an n-bit string".into()))?;
        let rescored = self.instance.energy(&bits);
        if rescored != best {
            return Err(Failure::Wrong(format!(
                "solution scores {rescored}, server says {best}"
            )));
        }
        let reached = r["reached_target"].as_bool().unwrap_or(false);
        match self.target {
            Some(t) if reached && best > t => {
                return Err(Failure::Wrong(format!(
                    "reached_target set but {best} > target {t}"
                )));
            }
            Some(t) if !reached => {
                return Err(Failure::Failed(format!("missed target {t} (best {best})")));
            }
            None if reached => {
                return Err(Failure::Wrong("reached_target without a target".into()))
            }
            _ => {}
        }
        if let Some(exact) = self.instance.exact {
            if best != exact {
                return Err(Failure::Wrong(format!(
                    "best {best} vs exact optimum {exact}"
                )));
            }
        }
        let (flips, units, evaluated) = (
            field("total_flips")?,
            field("search_units")?,
            field("evaluated")?,
        );
        if self.instance.dense_accounting
            && evaluated != (flips + units) * (self.instance.n as u64 + 1)
        {
            return Err(Failure::Wrong(format!(
                "evaluated {evaluated} != ({flips} + {units}) * (n + 1)"
            )));
        }
        Ok(Outcome {
            best_energy: best,
            elapsed_s: field("elapsed_ms")? as f64 / 1000.0,
            evaluated,
            flips,
            warm_started: status["warm_started"].as_bool().unwrap_or(false),
        })
    }
}

/// SplitMix64 finalizer: decorrelates derived seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of item `index` in stream `stream` (inputs, warm-up inputs, job
/// seeds) under benchmark seed `seed`.
fn derive(seed: u64, stream: u64, index: usize) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index as u64)
}

const POOL: u64 = 1;
const WARMUP: u64 = 2;
const JOB_SEED: u64 = 3;

/// The inputs of one workload run and the job sequence over them.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    /// Inputs the timed jobs cycle through.
    pool: Vec<Arc<Instance>>,
    /// Inputs of the warm-up jobs, never reused.
    warm: Vec<Arc<Instance>>,
    /// warm-repeat: the cold job's best, per (warm-up?, slot).
    cold_best: Vec<((bool, usize), i64)>,
}

impl Plan {
    /// Generates every input the run needs, up front.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let make = |stream: u64, count: usize| -> Vec<Arc<Instance>> {
            let seeds: Vec<u64> = (0..count).map(|i| derive(seed, stream, i)).collect();
            generate(workload, &seeds)
        };
        let (pool, warm) = match workload {
            Workload::GsetSparse => (make(POOL, GSET_GRAPHS), make(WARMUP, WARMUP_JOBS)),
            Workload::DenseRate => (make(POOL, DENSE_INSTANCES), make(WARMUP, WARMUP_JOBS)),
            Workload::TinyOpen => (make(POOL, TINY_INSTANCES), make(WARMUP, WARMUP_JOBS)),
            // One warm-up instance: its cold job, then one repeat.
            Workload::WarmRepeat => (make(POOL, WARM_INSTANCES), make(WARMUP, 1)),
        };
        Self {
            workload,
            seed,
            pool,
            warm,
            cold_best: Vec::new(),
        }
    }

    /// The benchmark seed the inputs came from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drops the recorded cold-job bests, so a replay targets its
    /// repeats at its own cold results.
    pub fn forget_feedback(&mut self) {
        self.cold_best.clear();
    }

    /// Every input generated so far.
    pub fn inputs(&self) -> impl Iterator<Item = &Arc<Instance>> {
        self.warm.iter().chain(&self.pool)
    }

    /// The `k`-th warm-up (`warmup`) or timed job.
    pub fn job(&mut self, k: usize, warmup: bool) -> Job {
        let w = self.workload;
        let (slot, repeat) = match w {
            Workload::WarmRepeat => (k / (WARM_REPEATS + 1), !k.is_multiple_of(WARM_REPEATS + 1)),
            _ if warmup => (k, false),
            _ => (k % self.pool.len(), false),
        };
        let instance = Arc::clone(if warmup {
            &self.warm[slot]
        } else {
            &self.pool[slot]
        });
        let target = match w {
            // Energies are negative cut weights: rounding up weakens the
            // target.
            Workload::GsetSparse => instance
                .baseline
                .map(|e| (GSET_TARGET_SHARE * e as f64).ceil() as i64),
            Workload::DenseRate => instance.baseline,
            Workload::TinyOpen => instance.exact,
            Workload::WarmRepeat if repeat => self
                .cold_best
                .iter()
                .find(|(key, _)| *key == (warmup, slot))
                .map(|&(_, e)| e),
            _ => None,
        };
        let timeout_ms = match w {
            Workload::GsetSparse => GSET_TIMEOUT_MS,
            Workload::DenseRate => DENSE_TIMEOUT_MS,
            Workload::TinyOpen => TINY_TIMEOUT_MS,
            Workload::WarmRepeat => WARM_TIMEOUT_MS,
        };
        let mut config = format!(
            "\"seed\": {}, \"timeout_ms\": {timeout_ms}",
            derive(self.seed, JOB_SEED + u64::from(warmup), k)
        );
        if let Some(t) = target {
            config.push_str(&format!(", \"target\": {t}"));
        }
        // Only warm-repeat exercises the cache's hit path; the other
        // workloads resubmit instances with warm starts off, so they all
        // take the miss path whatever order jobs arrive in.
        if w != Workload::WarmRepeat {
            config.push_str(", \"warm_start\": false");
        }
        Job {
            body: format!(
                "{{\"problem\": {}, \"config\": {{{config}}}}}",
                instance.problem
            ),
            instance,
            target,
            timed: w != Workload::WarmRepeat || repeat,
            slot,
            warmup,
        }
    }

    /// Feeds a checked outcome back (warm-repeat targets its repeats at
    /// the cold job's best).
    pub fn record(&mut self, job: &Job, outcome: &Outcome) {
        if self.workload == Workload::WarmRepeat && job.target.is_none() {
            self.cold_best
                .push(((job.warmup, job.slot), outcome.best_energy));
        }
    }
}

/// Generates the instances for `seeds`, two at a time (the client's
/// thread budget), before any server runs.
fn generate(workload: Workload, seeds: &[u64]) -> Vec<Arc<Instance>> {
    let one = |s: u64| -> Instance {
        match workload {
            Workload::GsetSparse => Instance::gset(s),
            Workload::DenseRate => {
                let q = qubo_problems::random::generate(DENSE_N, s);
                let greedy = qubo_baselines::greedy::solve(&q, 1, s).best_energy;
                Instance::dense(q, None, Some(greedy))
            }
            Workload::TinyOpen => {
                let q = qubo_problems::random::generate(TINY_N, s);
                let exact = qubo_baselines::exact::solve(&q).best_energy;
                Instance::dense(q, Some(exact), None)
            }
            Workload::WarmRepeat => {
                Instance::dense(qubo_problems::random::generate(WARM_N, s), None, None)
            }
        }
    };
    let (first, rest) = seeds.split_at(seeds.len() / 2);
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| first.iter().map(|&s| one(s)).collect::<Vec<_>>());
        let tail: Vec<Instance> = rest.iter().map(|&s| one(s)).collect();
        let mut all = helper.join().expect("input generator thread panicked");
        all.extend(tail);
        all.into_iter().map(Arc::new).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_for;

    #[test]
    fn job_lists_back_their_tail_percentiles() {
        for w in Workload::ALL {
            let timed = match w {
                Workload::TinyOpen => continue,
                Workload::WarmRepeat => WARM_INSTANCES * WARM_REPEATS,
                _ => w.closed_jobs(),
            };
            assert!(timed >= samples_for(w.tail_percentile()), "{}", w.name());
        }
    }

    #[test]
    fn inputs_and_jobs_are_a_function_of_the_seed() {
        let bodies = |seed| {
            let mut plan = Plan::new(Workload::TinyOpen, seed);
            let hashes: Vec<String> = plan.inputs().map(|i| i.hash.clone()).collect();
            let jobs: Vec<String> = (0..40).map(|k| plan.job(k, false).body).collect();
            (hashes, jobs)
        };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7).0, bodies(8).0);
        assert_ne!(bodies(7).1, bodies(8).1);
    }
}

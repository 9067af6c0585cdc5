//! Metric names, the run report every mode writes, and the host and
//! input fingerprint that makes two reports comparable.

use serde_json::{Number, Value};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The BENCHMARK.json spelling.
    #[cfg(test)]
    fn label(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction (BENCHMARK.json adds the bound).
pub struct Spec {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the server sees; every untraced run reports all of
/// these, in this order.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("latency_p50_s", "s", Lower),
    spec("latency_tail_s", "s", Lower),
    spec("jobs_per_s", "1/s", Higher),
    spec("peak_rss_mb", "MB", Lower),
    spec("cpu_s_per_job", "s", Lower),
];

/// Single-layer readings; every traced run reports all of these (0 where
/// the workload does not exercise the layer, as its README row says).
pub const PER_LAYER: &[Spec] = &[
    spec("server.http.post_s", "s", Lower),
    spec("server.http.status_s", "s", Lower),
    spec("server.overhead_s", "s", Lower),
    spec("server.http.cpu_s", "s", Lower),
    spec("server.http.runq_s", "s", Lower),
    spec("server.runner.cpu_s", "s", Lower),
    spec("server.runner.runq_s", "s", Lower),
    spec("vgpu.device.cpu_s", "s", Lower),
    spec("search.evaluated_per_s", "1/s", Higher),
    spec("search.time_to_target_s", "s", Lower),
    spec("search.flips_per_s", "1/s", Higher),
    spec("search.ns_per_flip_cpu", "ns", Lower),
    spec("core.cache.hit_ratio", "ratio", Higher),
    spec("client.generator_lag_max_s", "s", Lower),
    spec("client.generator_lag_p50_s", "s", Lower),
    spec("client.max_rate_ok", "1/s", Higher),
    spec("latency_p50_s.low", "s", Lower),
    spec("latency_p50_s.mid", "s", Lower),
    spec("latency_p50_s.high", "s", Lower),
    spec("latency_tail_s.low", "s", Lower),
    spec("latency_tail_s.mid", "s", Lower),
    spec("latency_tail_s.high", "s", Lower),
    spec("server.spec.parse_s", "s", Lower),
    spec("qubo.content_hash_s", "s", Lower),
    spec("core.cache.lookup_s", "s", Lower),
    spec("core.cache.record_best_s", "s", Lower),
    spec("vgpu.pool.lease_s", "s", Lower),
    spec("core.session.start_s", "s", Lower),
    spec("core.session.stop_s", "s", Lower),
    spec("core.session.search_s", "s", Lower),
    spec("core.session.poll_calls", "count", Lower),
    spec("core.session.poll_frac", "ratio", Lower),
    spec("core.session.host_cpu_frac", "ratio", Lower),
    spec("core.session.flips_to_target", "count", Lower),
    spec("ga.insertion_ratio", "ratio", Higher),
    spec("qubo.energy_audit_s", "s", Lower),
    spec("qubo.sparse_from_dense_s", "s", Lower),
    spec("trace.stage_sum_ratio", "ratio", Higher),
    spec("trace.overhead_ratio", "ratio", Lower),
];

/// Looks a metric up in either table.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Host and input identity of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu: String,
    /// `FlipKernel::detect().name()`.
    pub flip_kernel: String,
    /// `MatrixStorage::select` of the workload's inputs.
    pub storage: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
    /// `Qubo::content_hash` of every generated input, in order.
    pub inputs: Vec<String>,
}

impl Fingerprint {
    /// Reads the host half; the caller fills in storage and inputs.
    #[must_use]
    pub fn host() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|c| {
                c.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            flip_kernel: qubo_search::FlipKernel::detect().name().to_string(),
            storage: String::new(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            inputs: Vec::new(),
        }
    }

    /// Whether two runs measured the same host (nproc, CPU, kernel arm).
    #[must_use]
    pub fn same_host(&self, other: &Self) -> bool {
        (self.nproc, &self.cpu, &self.flip_kernel) == (other.nproc, &other.cpu, &other.flip_kernel)
    }

    fn to_json(&self) -> Value {
        obj(vec![
            ("nproc", int(self.nproc as u64)),
            ("cpu", Value::String(self.cpu.clone())),
            ("flip_kernel", Value::String(self.flip_kernel.clone())),
            ("storage", Value::String(self.storage.clone())),
            ("git_rev", Value::String(self.git_rev.clone())),
            (
                "inputs",
                Value::Array(self.inputs.iter().cloned().map(Value::String).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Self {
        let s = |k: &str| v[k].as_str().unwrap_or("").to_string();
        Self {
            nproc: v["nproc"].as_u64().unwrap_or(0) as usize,
            cpu: s("cpu"),
            flip_kernel: s("flip_kernel"),
            storage: s("storage"),
            git_rev: s("git_rev"),
            inputs: v["inputs"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|h| h.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// `HEAD` of a git checkout at the working directory, read from `.git`
/// directly (the benchmark may run where no `git` binary or repository
/// exists).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(String::from)
}

/// One workload run: what every mode prints and writes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Host and inputs.
    pub fingerprint: Fingerprint,
    /// Jobs submitted, warm-ups included.
    pub attempted: usize,
    /// Jobs refused, failed, short of their target, or answered wrongly.
    pub failed: usize,
    /// Oracle violations (wrong answers), with the reason.
    pub wrong: Vec<String>,
    /// `(name, value)` in table order.
    pub metrics: Vec<(String, f64)>,
    /// Free-form context: sample counts, rung table, checks.
    pub details: Value,
    /// `(pair index, ran first)` when made by `pair`.
    pub pair: Option<(u64, bool)>,
}

/// A JSON number (non-finite values become `null`).
#[must_use]
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::Float(x))
    } else {
        Value::Null
    }
}

/// A JSON integer.
#[must_use]
pub fn int(x: u64) -> Value {
    Value::Number(Number::UInt(x))
}

/// A JSON object from `(key, value)` pairs, in order.
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunReport {
    /// Whether every output passed the oracle.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// A metric's value, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|(name, v)| {
                    let unit = find(name).map_or("", |s| s.unit);
                    (
                        name.clone(),
                        obj(vec![
                            ("value", num(*v)),
                            ("unit", Value::String(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line summary the benchmark contract asks for.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let v = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.attempted as u64)),
            ("failed", int(self.failed as u64)),
            ("metrics", self.metrics_json()),
        ]);
        serde_json::to_string(&v).expect("shim never fails")
    }

    /// The full report.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workload", Value::String(self.workload.clone())),
            ("seed", int(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("fingerprint", self.fingerprint.to_json()),
            ("attempted", int(self.attempted as u64)),
            ("failed", int(self.failed as u64)),
            (
                "wrong",
                Value::Array(self.wrong.iter().cloned().map(Value::String).collect()),
            ),
            ("metrics", self.metrics_json()),
            ("details", self.details.clone()),
        ];
        if let Some((index, first)) = self.pair {
            fields.push((
                "pair",
                obj(vec![("index", int(index)), ("first", Value::Bool(first))]),
            ));
        }
        obj(fields)
    }

    /// Parses [`RunReport::to_json`] output.
    ///
    /// # Errors
    /// A description of the first missing field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let workload = v["workload"].as_str().ok_or("report without a workload")?;
        let metrics = match &v["metrics"] {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, m)| (k.clone(), m["value"].as_f64().unwrap_or(f64::NAN)))
                .collect(),
            _ => return Err(format!("{workload}: report without metrics")),
        };
        Ok(Self {
            workload: workload.to_string(),
            seed: v["seed"].as_u64().unwrap_or(0),
            traced: v["traced"].as_bool().unwrap_or(false),
            fingerprint: Fingerprint::from_json(&v["fingerprint"]),
            attempted: v["attempted"].as_u64().unwrap_or(0) as usize,
            failed: v["failed"].as_u64().unwrap_or(0) as usize,
            wrong: v["wrong"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|w| w.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            details: v["details"].clone(),
            pair: v
                .get("pair")
                .map(|p| (p["index"].as_u64().unwrap_or(0), p["first"] == true)),
        })
    }
}

/// Writes reports as one JSON document: `{"runs": [...]}`.
///
/// # Errors
/// The file cannot be written.
pub fn write_set(path: &str, runs: &[RunReport]) -> std::io::Result<()> {
    let doc = obj(vec![(
        "runs",
        Value::Array(runs.iter().map(RunReport::to_json).collect()),
    )]);
    let text = serde_json::to_string_pretty(&doc).expect("shim never fails");
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text + "\n")
}

/// Reads a file written by [`write_set`].
///
/// # Errors
/// Unreadable file, bad JSON, or a malformed report.
pub fn read_set(path: &str) -> Result<Vec<RunReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    doc["runs"]
        .as_array()
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?
        .iter()
        .map(RunReport::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[key].as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, spec) in listed.iter().zip(table) {
                assert_eq!(entry["name"], spec.name);
                assert_eq!(entry["unit"], spec.unit, "{}", spec.name);
                assert_eq!(entry["better"], spec.better.label(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn report_round_trips_and_summarises() {
        let r = RunReport {
            workload: "dense-rate".into(),
            seed: 7,
            traced: false,
            fingerprint: Fingerprint::host(),
            attempted: 12,
            failed: 0,
            wrong: Vec::new(),
            metrics: vec![("setup_s".into(), 0.0125), ("jobs_per_s".into(), 0.8)],
            details: obj(vec![("samples", num(12.0))]),
            pair: Some((3, true)),
        };
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.fingerprint, r.fingerprint);
        assert_eq!(back.pair, Some((3, true)));
        let line = r.summary_line();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":0,"),
            "{line}"
        );
        assert!(
            line.contains("\"setup_s\":{\"value\":0.0125,\"unit\":\"s\"}"),
            "{line}"
        );
    }
}

//! Job payload parsing: the `POST /jobs` body.
//!
//! ```json
//! {
//!   "problem": { "format": "dense" | "edge-list", ... },
//!   "config": {
//!     "seed": 7,
//!     "timeout_ms": 1000,
//!     "target": -123,
//!     "devices": 1,
//!     "blocks": 8,
//!     "deadline_ms": 10000,
//!     "checkpoint_interval_ms": 250
//!   }
//! }
//! ```
//!
//! The `problem` object is decoded by the shared [`qubo::json`] codec
//! (the same one behind the CLI's `--problem-json`); everything in
//! `config` is optional. `deadline_ms` maps onto the session watchdog's
//! hard timeout, so a job that exhausts its deadline *with* an
//! incumbent finishes `done` and one without any result fails — the
//! same semantics a one-shot solve has.

use qubo::{json, Qubo};
use std::sync::Arc;

/// Default per-job solve budget when `timeout_ms` is absent.
pub const DEFAULT_TIMEOUT_MS: u64 = 1_000;

/// Per-job solver knobs, all optional in the payload.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Master seed (default 0).
    pub seed: u64,
    /// Wall-clock budget in milliseconds.
    pub timeout_ms: u64,
    /// Early-stop target energy.
    pub target: Option<i64>,
    /// Virtual GPU count override.
    pub devices: Option<usize>,
    /// Blocks-per-device override.
    pub blocks: Option<usize>,
    /// Watchdog hard deadline (milliseconds).
    pub deadline_ms: Option<u64>,
    /// Stride between spool checkpoints while running.
    pub checkpoint_interval_ms: Option<u64>,
    /// Testing hook: refuse the k-th checkpoint write (the PR-7 seeded
    /// host I/O fault injection), so the acceptance suite can assert
    /// that a checkpoint-write error fails the job loudly.
    pub deny_checkpoint_write: Option<u64>,
    /// Tenant label for pool accounting and the per-tenant
    /// `abs_pool_blocks_leased` gauge (default `"default"`).
    pub tenant: String,
    /// Device-pool scheduling class: `"interactive"` jumps the batch
    /// queue when capacity is contended (default `"batch"`).
    pub priority: vgpu::Priority,
    /// Whether a repeat submission may seed from cached incumbents
    /// (default true; disable for bit-for-bit cold-start twins).
    pub warm_start: bool,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            timeout_ms: DEFAULT_TIMEOUT_MS,
            target: None,
            devices: None,
            blocks: None,
            deadline_ms: None,
            checkpoint_interval_ms: None,
            deny_checkpoint_write: None,
            tenant: "default".to_string(),
            priority: vgpu::Priority::Batch,
            warm_start: true,
        }
    }
}

/// A parsed, admitted job submission. The drain spool persists the
/// request bytes itself (`routes::handle_submit` writes them), so the
/// spec keeps only what the solver needs.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Always empty: no server path reads the request text, so
    /// [`parse_spec`] no longer copies it. The field stays only because
    /// the end-to-end benchmark's traced replay (`bench/e2e`) still
    /// writes it; it goes away with the benchmark change that retires
    /// that replay (ROADMAP item 2).
    pub body: String,
    /// Decoded problem (shared with the solver worker).
    pub problem: Arc<Qubo>,
    /// Decoded config.
    pub config: JobConfig,
}

/// A typed rejection of a job payload (HTTP 400 with this message).
#[derive(Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The body is not a JSON object.
    NotObject,
    /// No `"problem"` field.
    MissingProblem,
    /// The problem sub-object was refused by the shared codec.
    Problem(json::JsonProblemError),
    /// A config field has the wrong type or an out-of-range value.
    BadConfig {
        /// Field name.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// A config field nobody reads. A misspelled knob (`target_energy`
    /// for `target`) silently solving with defaults is worse than a
    /// 400, so unknown keys are refused.
    UnknownConfigField(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotObject => write!(f, "job payload must be a JSON object"),
            Self::MissingProblem => write!(f, "missing field \"problem\""),
            Self::Problem(e) => write!(f, "problem: {e}"),
            Self::BadConfig { field, expected } => {
                write!(f, "config.{field} must be {expected}")
            }
            Self::UnknownConfigField(field) => {
                write!(
                    f,
                    "config has no field {field:?} (known: {})",
                    CONFIG_FIELDS.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Every key `parse_spec` reads from the `config` object.
const CONFIG_FIELDS: &[&str] = &[
    "seed",
    "timeout_ms",
    "target",
    "devices",
    "blocks",
    "deadline_ms",
    "checkpoint_interval_ms",
    "deny_checkpoint_write",
    "tenant",
    "priority",
    "warm_start",
];

fn u64_field(obj: &serde_json::Value, field: &'static str) -> Result<Option<u64>, SpecError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(SpecError::BadConfig {
            field,
            expected: "a non-negative integer",
        }),
    }
}

fn usize_field(obj: &serde_json::Value, field: &'static str) -> Result<Option<usize>, SpecError> {
    match u64_field(obj, field)? {
        None => Ok(None),
        Some(v) => usize::try_from(v)
            .map(Some)
            .map_err(|_| SpecError::BadConfig {
                field,
                expected: "a non-negative integer",
            }),
    }
}

/// Parses a `POST /jobs` body in one pass of the shared
/// [`json::Reader`]: the `"problem"` value is decoded in place, and
/// only the byte span of `"config"` goes through `serde_json`. The
/// whole body's syntax is checked before any semantic error is
/// reported; a duplicate key's first occurrence wins.
///
/// # Errors
/// [`SpecError`] on a malformed payload; syntax errors surface through
/// the codec's `Syntax` variant.
pub fn parse_spec(body: &str) -> Result<JobSpec, SpecError> {
    let mut r = json::Reader::new(body);
    let is_object = r.peek() == Some(b'{');
    let mut problem = None;
    let mut config = None;
    let walked = if is_object {
        r.object(|r, key| {
            match key {
                "problem" if problem.is_none() => problem = Some(json::read_problem(r)?),
                "config" if config.is_none() => {
                    let start = r.pos();
                    r.skip_value()?;
                    config = Some(start..r.pos());
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })
    } else {
        r.skip_value()
    };
    walked.and_then(|()| r.end()).map_err(SpecError::Problem)?;
    if !is_object {
        return Err(SpecError::NotObject);
    }
    let problem = problem
        .ok_or(SpecError::MissingProblem)?
        .build()
        .map_err(SpecError::Problem)?;
    let config = match config {
        None => JobConfig::default(),
        Some(span) => {
            let c = serde_json::from_str(&body[span])
                .map_err(|e| SpecError::Problem(json::JsonProblemError::Syntax(e.to_string())))?;
            parse_config(&c)?
        }
    };
    Ok(JobSpec {
        body: String::new(),
        problem: Arc::new(problem),
        config,
    })
}

/// Decodes the `"config"` object; every field is optional.
fn parse_config(c: &serde_json::Value) -> Result<JobConfig, SpecError> {
    let Some(fields) = c.as_object() else {
        return Err(SpecError::BadConfig {
            field: "config",
            expected: "an object",
        });
    };
    if let Some(unknown) = fields.keys().find(|k| !CONFIG_FIELDS.contains(k)) {
        return Err(SpecError::UnknownConfigField((*unknown).to_string()));
    }
    let mut config = JobConfig::default();
    if let Some(seed) = u64_field(c, "seed")? {
        config.seed = seed;
    }
    if let Some(t) = u64_field(c, "timeout_ms")? {
        config.timeout_ms = t;
    }
    if let Some(v) = c.get("target") {
        config.target = Some(v.as_i64().ok_or(SpecError::BadConfig {
            field: "target",
            expected: "an integer",
        })?);
    }
    config.devices = usize_field(c, "devices")?;
    config.blocks = usize_field(c, "blocks")?;
    config.deadline_ms = u64_field(c, "deadline_ms")?;
    config.checkpoint_interval_ms = u64_field(c, "checkpoint_interval_ms")?;
    config.deny_checkpoint_write = u64_field(c, "deny_checkpoint_write")?;
    if let Some(v) = c.get("tenant") {
        let tenant = v.as_str().ok_or(SpecError::BadConfig {
            field: "tenant",
            expected: "a non-empty string",
        })?;
        if tenant.is_empty() {
            return Err(SpecError::BadConfig {
                field: "tenant",
                expected: "a non-empty string",
            });
        }
        config.tenant = tenant.to_string();
    }
    if let Some(v) = c.get("priority") {
        config.priority =
            v.as_str()
                .and_then(vgpu::Priority::parse)
                .ok_or(SpecError::BadConfig {
                    field: "priority",
                    expected: "\"interactive\" or \"batch\"",
                })?;
    }
    if let Some(v) = c.get("warm_start") {
        config.warm_start = v.as_bool().ok_or(SpecError::BadConfig {
            field: "warm_start",
            expected: "a boolean",
        })?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_defaults() {
        let s = parse_spec(r#"{"problem": {"format": "dense", "n": 1, "upper": [-1]}}"#).unwrap();
        assert_eq!(s.problem.n(), 1);
        assert_eq!(s.config.seed, 0);
        assert_eq!(s.config.timeout_ms, DEFAULT_TIMEOUT_MS);
        assert_eq!(s.config.target, None);
    }

    #[test]
    fn full_config_round_trips() {
        let s = parse_spec(
            r#"{"problem": {"format": "edge-list", "n": 3, "edges": [[1, 2, 5]]},
                "config": {"seed": 9, "timeout_ms": 50, "target": -5,
                           "devices": 2, "blocks": 4, "deadline_ms": 700,
                           "checkpoint_interval_ms": 25, "tenant": "team-a",
                           "priority": "interactive", "warm_start": false}}"#,
        )
        .unwrap();
        assert_eq!(s.config.seed, 9);
        assert_eq!(s.config.timeout_ms, 50);
        assert_eq!(s.config.target, Some(-5));
        assert_eq!(s.config.devices, Some(2));
        assert_eq!(s.config.blocks, Some(4));
        assert_eq!(s.config.deadline_ms, Some(700));
        assert_eq!(s.config.checkpoint_interval_ms, Some(25));
        assert_eq!(s.config.tenant, "team-a");
        assert_eq!(s.config.priority, vgpu::Priority::Interactive);
        assert!(!s.config.warm_start);
    }

    #[test]
    fn tenant_priority_warm_start_defaults_and_rejections() {
        let s = parse_spec(r#"{"problem": {"format": "dense", "n": 1, "upper": [-1]}}"#).unwrap();
        assert_eq!(s.config.tenant, "default");
        assert_eq!(s.config.priority, vgpu::Priority::Batch);
        assert!(s.config.warm_start);
        let problem = r#""problem": {"format": "dense", "n": 1, "upper": [-1]}"#;
        assert_eq!(
            parse_spec(&format!(r#"{{{problem}, "config": {{"tenant": ""}}}}"#)).unwrap_err(),
            SpecError::BadConfig {
                field: "tenant",
                expected: "a non-empty string"
            }
        );
        assert_eq!(
            parse_spec(&format!(
                r#"{{{problem}, "config": {{"priority": "urgent"}}}}"#
            ))
            .unwrap_err(),
            SpecError::BadConfig {
                field: "priority",
                expected: "\"interactive\" or \"batch\""
            }
        );
        assert_eq!(
            parse_spec(&format!(r#"{{{problem}, "config": {{"warm_start": 1}}}}"#)).unwrap_err(),
            SpecError::BadConfig {
                field: "warm_start",
                expected: "a boolean"
            }
        );
    }

    #[test]
    fn typed_rejections() {
        assert_eq!(parse_spec("[]").unwrap_err(), SpecError::NotObject);
        assert_eq!(
            parse_spec(r#"{"config": {}}"#).unwrap_err(),
            SpecError::MissingProblem
        );
        assert!(matches!(
            parse_spec(r#"{"problem": {"format": "dense", "n": 1, "upper": [1.5]}}"#).unwrap_err(),
            SpecError::Problem(json::JsonProblemError::NotInteger { .. })
        ));
        assert_eq!(
            parse_spec(
                r#"{"problem": {"format": "dense", "n": 1, "upper": [1]},
                    "config": {"seed": -4}}"#
            )
            .unwrap_err(),
            SpecError::BadConfig {
                field: "seed",
                expected: "a non-negative integer"
            }
        );
    }

    #[test]
    fn unknown_config_keys_are_refused_not_ignored() {
        // A misspelled knob must not silently solve with defaults.
        let err = parse_spec(
            r#"{"problem": {"format": "dense", "n": 1, "upper": [1]},
                "config": {"target_energy": -13}}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownConfigField("target_energy".into()));
        assert!(err.to_string().contains("known: seed"), "{err}");
    }

    #[test]
    fn config_may_precede_problem_and_first_keys_win() {
        let s = parse_spec(
            r#"{"config": {"seed": 3}, "problem": {"n": 1, "upper": [-2], "format": "dense"},
                "config": {"seed": "ignored"}, "problem": 7}"#,
        )
        .unwrap();
        assert_eq!(s.config.seed, 3);
        assert_eq!(s.problem.get(0, 0), -2);
        // A refused duplicate is still ignored; one that breaks the JSON
        // syntax is not.
        assert!(matches!(
            parse_spec(r#"{"problem": {"format": "dense", "n": 1, "upper": [1]}, "problem": [1,}"#)
                .unwrap_err(),
            SpecError::Problem(json::JsonProblemError::Syntax(_))
        ));
    }

    #[test]
    fn syntax_errors_anywhere_win_over_problem_and_config_errors() {
        for body in [
            r#"{"problem": {"format": "dense", "n": 1, "upper": [1.5]}, "x": [}"#,
            r#"{"problem": {"format": "dense", "n": 1, "upper": [1]}, "config": {"seed": -1}} x"#,
            r#"{"config": {"bogus": 1}, "problem": {"format": "dense""#,
        ] {
            assert!(
                matches!(
                    parse_spec(body).unwrap_err(),
                    SpecError::Problem(json::JsonProblemError::Syntax(_))
                ),
                "{body}"
            );
        }
        // Problem errors come before config errors, whatever the order.
        assert!(matches!(
            parse_spec(r#"{"config": {"seed": -1}, "problem": {"format": "dense", "n": 1, "upper": [1.5]}}"#)
                .unwrap_err(),
            SpecError::Problem(json::JsonProblemError::NotInteger { .. })
        ));
        assert_eq!(
            parse_spec(r#"{"config": 4, "problem": {"format": "dense", "n": 1, "upper": [1]}}"#)
                .unwrap_err(),
            SpecError::BadConfig {
                field: "config",
                expected: "an object"
            }
        );
    }

    #[test]
    fn deep_nesting_is_a_syntax_error() {
        let body = format!(r#"{{"problem": {}"#, "[".repeat(100_000));
        assert!(matches!(
            parse_spec(&body).unwrap_err(),
            SpecError::Problem(json::JsonProblemError::Syntax(_))
        ));
    }
}

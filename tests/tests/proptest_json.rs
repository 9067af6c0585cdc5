//! Parity of the single-pass JSON decoder with the reference it
//! replaced: `serde_json::from_str` into a `Value` tree, then a walk of
//! that tree. Both `qubo::json::parse_problem` and
//! `abs_server::spec::parse_spec` must return the same matrix (or job
//! config), or the same error variant with the same field, index and
//! value, on random dense and edge-list documents: random whitespace,
//! permuted, duplicated and unknown keys, floats and exponent forms,
//! digit runs past `i64`, out-of-`i16` weights, non-number elements,
//! single-byte corruptions and truncation at every byte. Syntax errors
//! compare by variant only (the messages differ).

use abs_server::spec::{parse_spec, JobConfig, SpecError};
use proptest::prelude::*;
use qubo::json::{parse_problem, JsonProblemError};
use qubo::Qubo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decoder as it was: a `serde_json::Value` tree, walked.
mod reference {
    use qubo::json::JsonProblemError;
    use qubo::{Qubo, QuboError, MAX_BITS};
    use serde_json::Value;

    pub fn parse_problem(text: &str) -> Result<Qubo, JsonProblemError> {
        let value =
            serde_json::from_str(text).map_err(|e| JsonProblemError::Syntax(e.to_string()))?;
        problem_value(&value)
    }

    fn check_size(n: usize) -> Result<(), QuboError> {
        if n == 0 || n > MAX_BITS {
            return Err(QuboError::BadSize(n));
        }
        Ok(())
    }

    fn usize_field(obj: &Value, field: &'static str) -> Result<usize, JsonProblemError> {
        let v = obj
            .get(field)
            .ok_or(JsonProblemError::MissingField(field))?;
        let n = v.as_u64().ok_or(JsonProblemError::BadType {
            field,
            expected: "a non-negative integer",
        })?;
        usize::try_from(n).map_err(|_| JsonProblemError::BadType {
            field,
            expected: "a non-negative integer",
        })
    }

    fn weight_at(v: &Value, field: &'static str, index: usize) -> Result<i16, JsonProblemError> {
        let w = v
            .as_i64()
            .ok_or(JsonProblemError::NotInteger { field, index })?;
        i16::try_from(w).map_err(|_| JsonProblemError::Overflow {
            field,
            index,
            value: w,
        })
    }

    pub fn problem_value(value: &Value) -> Result<Qubo, JsonProblemError> {
        if value.as_object().is_none() {
            return Err(JsonProblemError::NotObject);
        }
        let format = value
            .get("format")
            .ok_or(JsonProblemError::MissingField("format"))?
            .as_str()
            .ok_or(JsonProblemError::BadType {
                field: "format",
                expected: "a string",
            })?;
        match format {
            "dense" => parse_dense(value),
            "edge-list" => parse_edge_list(value),
            other => Err(JsonProblemError::UnknownFormat(other.to_string())),
        }
    }

    fn parse_dense(value: &Value) -> Result<Qubo, JsonProblemError> {
        let n = usize_field(value, "n")?;
        let upper = value
            .get("upper")
            .ok_or(JsonProblemError::MissingField("upper"))?
            .as_array()
            .ok_or(JsonProblemError::BadType {
                field: "upper",
                expected: "an array of integers",
            })?;
        // `n + 1` wrapped (or, with overflow checks, panicked) at
        // n = u64::MAX before; both sides now report BadSize there.
        let expected = n
            .checked_add(1)
            .and_then(|m| n.checked_mul(m))
            .map(|x| x / 2)
            .ok_or(JsonProblemError::Problem(QuboError::BadSize(n)))?;
        if upper.len() != expected {
            return Err(JsonProblemError::SizeMismatch {
                expected,
                got: upper.len(),
            });
        }
        let mut q = Qubo::zero(n)?;
        let mut k = 0usize;
        for i in 0..n {
            for j in i..n {
                let w = weight_at(&upper[k], "upper", k)?;
                if w != 0 {
                    q.set(i, j, w);
                }
                k += 1;
            }
        }
        Ok(q)
    }

    fn parse_edge_list(value: &Value) -> Result<Qubo, JsonProblemError> {
        let n = usize_field(value, "n")?;
        let edges = value
            .get("edges")
            .ok_or(JsonProblemError::MissingField("edges"))?
            .as_array()
            .ok_or(JsonProblemError::BadType {
                field: "edges",
                expected: "an array of [u, v, w] triples",
            })?;
        check_size(n)?;
        let mut triplets = Vec::new();
        for (index, e) in edges.iter().enumerate() {
            let triple = e.as_array().ok_or(JsonProblemError::BadEdge {
                index,
                why: "not an array",
            })?;
            if triple.len() != 3 {
                return Err(JsonProblemError::BadEdge {
                    index,
                    why: "expected exactly [u, v, w]",
                });
            }
            let vertex = |k: usize, why: &'static str| -> Result<usize, JsonProblemError> {
                let id = triple[k]
                    .as_u64()
                    .ok_or(JsonProblemError::BadEdge { index, why })?;
                let id =
                    usize::try_from(id).map_err(|_| JsonProblemError::BadEdge { index, why })?;
                if id == 0 || id > n {
                    return Err(JsonProblemError::BadEdge {
                        index,
                        why: "vertex id out of range (ids are 1-indexed)",
                    });
                }
                Ok(id)
            };
            let u = vertex(0, "u is not a positive integer")?;
            let v = vertex(1, "v is not a positive integer")?;
            if u == v {
                return Err(JsonProblemError::BadEdge {
                    index,
                    why: "self-loop",
                });
            }
            let w = weight_at(&triple[2], "edges", index)?;
            let neg = w.checked_neg().ok_or(JsonProblemError::Overflow {
                field: "edges",
                index,
                value: i64::from(w),
            })?;
            triplets.extend([(u - 1, v - 1, w), (u - 1, u - 1, neg), (v - 1, v - 1, neg)]);
        }
        Ok(Qubo::from_triplets(n, &triplets)?)
    }

    /// The job-body half: the whole body through `serde_json`, then the
    /// config fields read off the tree. Returns the config as its
    /// `Debug` text, which covers every field.
    pub fn parse_spec(body: &str) -> Result<(Qubo, String), super::SpecError> {
        use super::SpecError;
        let value = serde_json::from_str(body)
            .map_err(|e| SpecError::Problem(JsonProblemError::Syntax(e.to_string())))?;
        if value.as_object().is_none() {
            return Err(SpecError::NotObject);
        }
        let problem = value.get("problem").ok_or(SpecError::MissingProblem)?;
        let problem = problem_value(problem).map_err(SpecError::Problem)?;
        let mut config = super::JobConfig::default();
        if let Some(c) = value.get("config") {
            let Some(fields) = c.as_object() else {
                return Err(SpecError::BadConfig {
                    field: "config",
                    expected: "an object",
                });
            };
            const KNOWN: &[&str] = &[
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
            if let Some(unknown) = fields.keys().find(|k| !KNOWN.contains(k)) {
                return Err(SpecError::UnknownConfigField((*unknown).to_string()));
            }
            let u64_field = |field: &'static str| -> Result<Option<u64>, SpecError> {
                match c.get(field) {
                    None => Ok(None),
                    Some(v) => v.as_u64().map(Some).ok_or(SpecError::BadConfig {
                        field,
                        expected: "a non-negative integer",
                    }),
                }
            };
            let usize_field = |field: &'static str| -> Result<Option<usize>, SpecError> {
                Ok(u64_field(field)?.map(|v| v as usize))
            };
            if let Some(seed) = u64_field("seed")? {
                config.seed = seed;
            }
            if let Some(t) = u64_field("timeout_ms")? {
                config.timeout_ms = t;
            }
            if let Some(v) = c.get("target") {
                config.target = Some(v.as_i64().ok_or(SpecError::BadConfig {
                    field: "target",
                    expected: "an integer",
                })?);
            }
            config.devices = usize_field("devices")?;
            config.blocks = usize_field("blocks")?;
            config.deadline_ms = u64_field("deadline_ms")?;
            config.checkpoint_interval_ms = u64_field("checkpoint_interval_ms")?;
            config.deny_checkpoint_write = u64_field("deny_checkpoint_write")?;
            if let Some(v) = c.get("tenant") {
                let tenant = v
                    .as_str()
                    .filter(|t| !t.is_empty())
                    .ok_or(SpecError::BadConfig {
                        field: "tenant",
                        expected: "a non-empty string",
                    })?;
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
        }
        Ok((problem, format!("{config:?}")))
    }
}

/// Random whitespace between tokens (mostly none or one space).
fn ws(rng: &mut StdRng) -> &'static str {
    ["", "", "", " ", " ", "\n", "\t", "\r\n  "][rng.gen_range(0..8)]
}

/// A JSON value that is not an integer weight.
fn odd_value(rng: &mut StdRng) -> String {
    [
        "1.5",
        "-0.0",
        "2e3",
        "1E+2",
        "7.",
        "-1e-2",
        "123456789012345678901234567890",
        "-99999999999999999999",
        "18446744073709551615",
        "9223372036854775808",
        "\"7\"",
        "null",
        "true",
        "[1]",
        "{}",
        "{\"w\": [2, 3]}",
    ][rng.gen_range(0..16)]
    .to_string()
}

/// A weight: mostly in range, sometimes at or past the `i16` edges,
/// sometimes in a legal but unusual spelling, sometimes not a weight.
fn weight(rng: &mut StdRng) -> String {
    match rng.gen_range(0..40) {
        0 => odd_value(rng),
        1 => ["32767", "-32768", "32768", "-32769", "40000", "-0", "007"][rng.gen_range(0..7)]
            .to_string(),
        2 => rng.gen_range(-100_000i64..100_000).to_string(),
        _ => rng.gen_range(-30i64..30).to_string(),
    }
}

/// A vertex id: mostly in `1..=n`, sometimes 0, past n, or not a
/// positive integer.
fn vertex(rng: &mut StdRng, n: usize) -> String {
    match rng.gen_range(0..30) {
        0 => odd_value(rng),
        1 => ["0", "-1"][rng.gen_range(0..2)].to_string(),
        2 => (n + 1).to_string(),
        _ => rng.gen_range(1..=n.max(1)).to_string(),
    }
}

fn array(rng: &mut StdRng, items: &[String]) -> String {
    let sep = |rng: &mut StdRng| format!("{},{}", ws(rng), ws(rng));
    let mut out = format!("[{}", ws(rng));
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            out.push_str(&sep(rng));
        }
        out.push_str(item);
    }
    out.push_str(ws(rng));
    out.push(']');
    out
}

fn object(rng: &mut StdRng, members: &[(String, String)]) -> String {
    let mut out = format!("{{{}", ws(rng));
    for (k, (key, value)) in members.iter().enumerate() {
        if k > 0 {
            out.push_str(&format!("{},{}", ws(rng), ws(rng)));
        }
        out.push_str(&format!("\"{key}\"{}:{}{value}", ws(rng), ws(rng)));
    }
    out.push_str(ws(rng));
    out.push('}');
    out
}

/// Shuffles members, and sometimes duplicates one (with a different
/// value) or adds an unknown key.
fn shuffle_keys(rng: &mut StdRng, members: &mut Vec<(String, String)>) {
    if !members.is_empty() && rng.gen_range(0..4) == 0 {
        let k = rng.gen_range(0..members.len());
        let dup = (members[k].0.clone(), odd_value(rng));
        members.push(dup);
    }
    if rng.gen_range(0..4) == 0 {
        members.push(("extra".to_string(), odd_value(rng)));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, rng.gen_range(0..=i));
    }
}

/// A random problem document (dense or edge list), mostly well formed.
fn problem_doc(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0..7usize);
    let n_text = match rng.gen_range(0..20) {
        0 => odd_value(rng),
        1 => "-2".to_string(),
        2 => "40000".to_string(),
        _ => n.to_string(),
    };
    let dense = rng.gen_range(0..2) == 0;
    let format = match rng.gen_range(0..20) {
        0 => "\"csr\"".to_string(),
        1 => odd_value(rng),
        _ if dense => "\"dense\"".to_string(),
        _ => "\"edge-list\"".to_string(),
    };
    let payload = if dense {
        let mut len = n * (n + 1) / 2;
        if rng.gen_range(0..10) == 0 {
            len = (len + rng.gen_range(0..3)).saturating_sub(1);
        }
        let items: Vec<String> = (0..len).map(|_| weight(rng)).collect();
        ("upper".to_string(), array(rng, &items))
    } else {
        let m = rng.gen_range(0..6);
        let near_overflow = rng.gen_range(0..5) == 0;
        let items: Vec<String> = (0..m)
            .map(|_| {
                let mut triple = vec![vertex(rng, n), vertex(rng, n)];
                triple.push(if near_overflow {
                    rng.gen_range(16_000..32_000).to_string()
                } else {
                    weight(rng)
                });
                match rng.gen_range(0..30) {
                    0 => odd_value(rng),
                    1 => {
                        triple.pop();
                        array(rng, &triple)
                    }
                    2 => {
                        triple.push("1".to_string());
                        array(rng, &triple)
                    }
                    _ => array(rng, &triple),
                }
            })
            .collect();
        ("edges".to_string(), array(rng, &items))
    };
    let mut members = vec![("format".to_string(), format), ("n".to_string(), n_text)];
    if rng.gen_range(0..12) != 0 {
        members.push(payload);
    }
    if rng.gen_range(0..12) == 0 {
        // The other encoding's payload rides along, ignored.
        let other = if dense { "edges" } else { "upper" };
        members.push((other.to_string(), odd_value(rng)));
    }
    if rng.gen_range(0..12) == 0 {
        let k = rng.gen_range(0..members.len());
        members.remove(k);
    }
    shuffle_keys(rng, &mut members);
    let doc = object(rng, &members);
    format!("{}{doc}{}", ws(rng), ws(rng))
}

/// A random `config` value: known keys with right or wrong types,
/// sometimes an unknown key, sometimes not an object at all.
fn config_doc(rng: &mut StdRng) -> String {
    if rng.gen_range(0..15) == 0 {
        return odd_value(rng);
    }
    let value = |rng: &mut StdRng, good: &[&str]| -> String {
        if rng.gen_range(0..5) == 0 {
            odd_value(rng)
        } else {
            good[rng.gen_range(0..good.len())].to_string()
        }
    };
    let mut members = Vec::new();
    for (key, good) in [
        ("seed", &["7", "0", "18446744073709551615"][..]),
        ("timeout_ms", &["50", "1000"][..]),
        ("target", &["-13", "5", "-9223372036854775808"][..]),
        ("devices", &["1", "2"][..]),
        ("blocks", &["4"][..]),
        ("deadline_ms", &["700"][..]),
        ("checkpoint_interval_ms", &["25"][..]),
        ("tenant", &["\"team-a\"", "\"\""][..]),
        (
            "priority",
            &["\"interactive\"", "\"batch\"", "\"urgent\""][..],
        ),
        ("warm_start", &["false", "true"][..]),
    ] {
        if rng.gen_range(0..3) == 0 {
            members.push((key.to_string(), value(rng, good)));
        }
    }
    if rng.gen_range(0..8) == 0 {
        members.push(("target_energy".to_string(), "1".to_string()));
    }
    shuffle_keys(rng, &mut members);
    object(rng, &members)
}

/// A random `POST /jobs` body around a random problem.
fn spec_doc(rng: &mut StdRng) -> String {
    if rng.gen_range(0..25) == 0 {
        let problem = problem_doc(rng);
        return array(rng, &[problem]);
    }
    let mut members = Vec::new();
    if rng.gen_range(0..15) != 0 {
        members.push(("problem".to_string(), problem_doc(rng)));
    }
    if rng.gen_range(0..5) != 0 {
        members.push(("config".to_string(), config_doc(rng)));
    }
    shuffle_keys(rng, &mut members);
    object(rng, &members)
}

/// Replaces one byte with a JSON-significant one.
fn corrupt(rng: &mut StdRng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    if !bytes.is_empty() {
        let k = rng.gen_range(0..bytes.len());
        bytes[k] = b"{}[],:\"-.e0 x\\"[rng.gen_range(0..14)];
    }
    String::from_utf8(bytes).expect("ASCII documents stay UTF-8")
}

fn assert_same_problem(
    doc: &str,
    got: Result<Qubo, JsonProblemError>,
    want: Result<Qubo, JsonProblemError>,
) {
    match (got, want) {
        (Ok(a), Ok(b)) => assert!(a == b, "matrices differ on {doc:?}"),
        (Err(JsonProblemError::Syntax(_)), Err(JsonProblemError::Syntax(_))) => {}
        (got, want) => assert_eq!(got.err(), want.err(), "on {doc:?}"),
    }
}

fn check_problem(doc: &str) {
    assert_same_problem(doc, parse_problem(doc), reference::parse_problem(doc));
}

fn check_spec(body: &str) {
    let got = parse_spec(body).map(|s| ((*s.problem).clone(), format!("{:?}", s.config)));
    match (got, reference::parse_spec(body)) {
        (Ok(a), Ok(b)) => assert!(a == b, "specs differ on {body:?}"),
        (
            Err(SpecError::Problem(JsonProblemError::Syntax(_))),
            Err(SpecError::Problem(JsonProblemError::Syntax(_))),
        ) => {}
        (got, want) => assert_eq!(got.err(), want.err(), "on {body:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn problem_decode_matches_the_value_tree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = problem_doc(&mut rng);
        check_problem(&doc);
        check_problem(&corrupt(&mut rng, &doc));
    }

    #[test]
    fn spec_decode_matches_the_value_tree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = spec_doc(&mut rng);
        check_spec(&body);
        check_spec(&corrupt(&mut rng, &body));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_truncation_agrees(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = problem_doc(&mut rng);
        let body = spec_doc(&mut rng);
        for cut in 0..=doc.len() {
            check_problem(&doc[..cut]);
        }
        for cut in 0..=body.len() {
            check_spec(&body[..cut]);
        }
    }
}

#[test]
fn the_generators_reach_every_outcome() {
    // Guards against a generator drift that would leave the parity
    // properties comparing only syntax errors.
    let mut seen = std::collections::BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..4000 {
        let doc = problem_doc(&mut rng);
        let tag = match reference::parse_problem(&doc) {
            Ok(_) => "ok".to_string(),
            Err(e) => format!("{e:?}")
                .split(['(', ' '])
                .next()
                .unwrap_or("")
                .to_string(),
        };
        seen.insert(tag);
        let body = spec_doc(&mut rng);
        if let Err(SpecError::BadConfig { .. } | SpecError::UnknownConfigField(_)) =
            reference::parse_spec(&body)
        {
            seen.insert("config".to_string());
        }
    }
    for tag in [
        "ok",
        "MissingField",
        "BadType",
        "UnknownFormat",
        "NotInteger",
        "Overflow",
        "SizeMismatch",
        "BadEdge",
        "Problem",
        "config",
    ] {
        assert!(seen.contains(tag), "no document reached {tag}: {seen:?}");
    }
}

#[test]
fn the_default_config_is_what_an_absent_config_decodes_to() {
    // The reference reads config fields into `JobConfig::default()`.
    let body = r#"{"problem": {"format": "dense", "n": 1, "upper": [1]}}"#;
    let s = parse_spec(body).expect("decodes");
    assert_eq!(
        format!("{:?}", s.config),
        format!("{:?}", JobConfig::default())
    );
    check_spec(body);
}

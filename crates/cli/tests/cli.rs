//! End-to-end tests of the `abs-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_abs-cli"))
}

fn tmp_qubo_file(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("abs-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write temp file");
    path
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = bin().output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("abs-cli solve"));
}

#[test]
fn unknown_command_exits_2() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn random_with_an_unsupported_size_is_a_usage_error() {
    for bits in ["0", "32769"] {
        let out = bin().args(["random", bits]).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "random {bits}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("not in 1..="));
    }
}

#[test]
fn info_reports_instance_statistics() {
    let path = tmp_qubo_file("info.qubo", "p qubo 0 4 4 2\n0 0 -5\n0 1 3\n2 3 -2\n");
    let out = bin().arg("info").arg(&path).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bits:         4"));
    assert!(text.contains("couplers:     2"));
    assert!(text.contains("weight range: [-5, 3]"));
}

#[test]
fn info_on_missing_file_exits_1() {
    let out = bin()
        .arg("info")
        .arg("/nonexistent/x.qubo")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn solve_file_with_target_emits_json() {
    // trivial 2-bit problem: optimum is x = 11 with E = -10 + 2·2 = -6?
    // W: diag -10, 4; coupler 1 → E(10) = -10 is the optimum.
    let path = tmp_qubo_file("solve.qubo", "p qubo 0 2 2 1\n0 0 -10\n1 1 4\n0 1 1\n");
    let out = bin()
        .args(["solve"])
        .arg(&path)
        .args(["--target", "-10", "--timeout-ms", "5000", "--json"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("json output");
    assert_eq!(v["bits"], 2);
    assert_eq!(v["best_energy"], -10);
    assert_eq!(v["reached_target"], true);
    assert_eq!(v["solution"], "10");
}

#[test]
fn random_subcommand_solves_and_reports() {
    let out = bin()
        .args([
            "random",
            "48",
            "--timeout-ms",
            "150",
            "--seed",
            "3",
            "--json",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("json");
    assert_eq!(v["bits"], 48);
    assert!(v["best_energy"].as_i64().unwrap() < 0);
    assert!(v["total_flips"].as_u64().unwrap() > 0);
}

#[test]
fn gset_subcommand_knows_the_catalog() {
    let ok = bin()
        .args(["gset", "G1", "--timeout-ms", "100", "--json"])
        .output()
        .expect("run");
    assert!(ok.status.success());
    // Unknown catalog names are usage errors: exit 2.
    let bad = bin().args(["gset", "G999"]).output().expect("run");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown G-set instance"));
}

#[test]
fn save_and_verify_roundtrip() {
    let problem = tmp_qubo_file("roundtrip.qubo", "p qubo 0 3 3 1\n0 0 -7\n1 1 2\n0 2 -1\n");
    let sol = std::env::temp_dir()
        .join("abs-cli-tests")
        .join("roundtrip.sol");
    let out = bin()
        .args(["solve"])
        .arg(&problem)
        .args(["--timeout-ms", "300", "--save"])
        .arg(&sol)
        .output()
        .expect("run solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verify = bin()
        .arg("verify")
        .arg(&problem)
        .arg(&sol)
        .output()
        .expect("run verify");
    assert!(verify.status.success());
    assert!(String::from_utf8_lossy(&verify.stdout).contains("VERIFIED"));
}

#[test]
fn verify_rejects_tampered_solutions() {
    let problem = tmp_qubo_file("tamper.qubo", "p qubo 0 2 2 0\n0 0 -3\n");
    let sol = tmp_qubo_file("tamper.sol", "s -999 10\n"); // wrong energy claim
    let out = bin()
        .arg("verify")
        .arg(&problem)
        .arg(&sol)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("energy mismatch"));
    // Wrong bit-length is caller input — a usage error, exit 2.
    let sol2 = tmp_qubo_file("tamper2.sol", "s -3 101\n");
    let out2 = bin()
        .arg("verify")
        .arg(&problem)
        .arg(&sol2)
        .output()
        .expect("run");
    assert_eq!(out2.status.code(), Some(2));
}

#[test]
fn tsp_subcommand_knows_the_catalog() {
    let ok = bin()
        .args(["tsp", "ulysses16", "--timeout-ms", "100", "--json"])
        .output()
        .expect("run");
    assert!(ok.status.success());
    let v: serde_json::Value = serde_json::from_slice(&ok.stdout).expect("json");
    assert_eq!(v["bits"], 225);
    let bad = bin().args(["tsp", "nowhere99"]).output().expect("run");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn fault_seed_runs_degraded_but_still_answers() {
    // A scattered fault plan spares device 0, so the solve completes;
    // the JSON must carry the health report.
    let out = bin()
        .args([
            "random",
            "32",
            "--devices",
            "3",
            "--blocks",
            "4",
            "--timeout-ms",
            "400",
            "--fault-seed",
            "42",
            "--json",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("json");
    assert_eq!(v["bits"], 32);
    assert_eq!(v["devices"].as_array().unwrap().len(), 3);
    assert_eq!(v["devices"][0]["status"], "healthy");
    assert!(v["degraded"].as_bool().is_some());
    assert!(v["best_energy"].as_i64().unwrap() < 0);
}

#[test]
fn degraded_health_appears_in_human_output() {
    let out = bin()
        .args([
            "random",
            "24",
            "--devices",
            "2",
            "--blocks",
            "2",
            "--timeout-ms",
            "400",
            "--fault-seed",
            "3",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best energy:"));
}

#[test]
fn metrics_out_writes_valid_prometheus_text() {
    let dir = std::env::temp_dir().join("abs-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.prom");
    let out = bin()
        .args(["random", "24", "--timeout-ms", "200", "--seed", "7"])
        .args(["--metrics-out", path.to_str().expect("utf8 path")])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics:"), "human metrics summary missing");
    assert!(text.contains("abs_flips_total"));
    let file = std::fs::read_to_string(&path).expect("metrics file");
    let samples = abs_telemetry::expose::parse_prometheus(&file).expect("valid Prometheus text");
    assert!(
        samples > 10,
        "expected a full registry, got {samples} samples"
    );
    assert!(file.contains("abs_search_efficiency"));
}

#[test]
fn metrics_out_json_extension_selects_json() {
    let dir = std::env::temp_dir().join("abs-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");
    let out = bin()
        .args([
            "random",
            "24",
            "--timeout-ms",
            "200",
            "--seed",
            "7",
            "--json",
        ])
        .args(["--metrics-out", path.to_str().expect("utf8 path")])
        .args(["--metrics-interval-ms", "50"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = std::fs::read_to_string(&path).expect("metrics file");
    let v: serde_json::Value = serde_json::from_str(&file).expect("valid JSON");
    let counters = v["counters"].as_array().expect("counters array");
    assert!(counters
        .iter()
        .any(|c| c["name"] == "abs_evaluated_total" && c["value"].as_f64().unwrap_or(0.0) > 0.0));
    assert!(v["gauges"]
        .as_array()
        .expect("gauges array")
        .iter()
        .any(|g| g["name"] == "abs_search_rate"));
}

#[test]
fn metrics_out_unwritable_path_exits_1() {
    let out = bin()
        .args(["random", "16", "--timeout-ms", "50"])
        .args(["--metrics-out", "/nonexistent/dir/metrics.prom"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write"));
}

#[test]
fn problem_json_solves_a_json_problem_file() {
    let path = tmp_qubo_file(
        "problem.json",
        r#"{"format": "dense", "n": 3, "upper": [-5, 2, 0, -3, 1, -8]}"#,
    );
    let out = bin()
        .arg("solve")
        .arg(&path)
        .args(["--problem-json", "--timeout-ms", "200", "--json"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("JSON output");
    // Optimum of this 3-bit instance: x = 101 → -5 - 8 + 2·0 = -13.
    assert_eq!(v["best_energy"].as_i64(), Some(-13));
}

#[test]
fn problem_json_rejections_are_loud() {
    let path = tmp_qubo_file(
        "bad-problem.json",
        r#"{"format": "dense", "n": 3, "upper": [1, 2]}"#,
    );
    let out = bin()
        .arg("solve")
        .arg(&path)
        .args(["--problem-json", "--timeout-ms", "50"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("upper triangle"));
}

#[test]
fn serve_help_and_usage_errors() {
    let out = bin().args(["serve", "--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--queue-depth"));

    let out = bin().args(["serve", "--bogus"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn serve_runs_the_job_server_until_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut child = bin()
        .args(["serve", "--port", "0", "--http-workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let port: u16 = line
        .trim()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unparseable startup line {line:?}"));
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });

    // One metrics request proves the server answers.
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect to serve");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw:?}");
    assert!(raw.contains("abs_server_http_requests_total"));

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill");
    assert!(status.success());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "drain exits 0, got {status:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "serve did not drain");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

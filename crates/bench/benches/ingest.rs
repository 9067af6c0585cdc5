//! The passes over a job's matrix before its search starts: decoding the
//! JSON payload into a [`Qubo`] and digesting it
//! ([`Qubo::content_hash`], the warm-start cache key).
//!
//! Instances: dense random matrices at n ∈ {1024, 2048}
//! (`problems::random`, serialized as the end-to-end benchmark sends
//! them: the `"upper"` triangle `,`-separated without spaces) and the
//! G55 stand-in edge list (n = 5000, 12 498 edges, `[u, v, w]` joined by
//! `", "`). Before timing, each decoded instance must equal the
//! generated one and digest the same.
//!
//! Each row reports three times, each the best over paired rounds
//! (every round times each pass once, rotating which goes first):
//!
//! * decode: ns per weight (an `"upper"` element or an edge) of
//!   `json::parse_problem`, the matrix build and mirror included;
//! * digest: ns per absorbed cell (`n`, then every non-zero
//!   upper-triangle cell) of `Qubo::content_hash`;
//! * floor: ns per step of one `black_box`ed single-lane `mix64` chain
//!   over the same number of steps — the latency of the digest's
//!   permutation alone, on this host, in this run.
//!
//! `CRITERION_SHIM_SCALE` shrinks the timing budget as it does for the
//! criterion-shim benches (at least [`MIN_ROUNDS`] rounds always run).
//!
//! `main` writes `BENCH_ingest.json` at the repo root (override with
//! `BENCH_INGEST_OUT`). Gate: on every row the digest costs at most
//! [`MAX_DIGEST_OVER_FLOOR`] floor steps per cell. Four independent
//! lanes per cell overlap on a superscalar core, so a scalar-lane digest
//! sits near one chain's latency; a digest whose lanes were packed into
//! one vector multiply sat at about 3.4× on dense rows.

use qubo::json::parse_problem;
use qubo::Qubo;
use qubo_problems::gset::{self, GsetFamily};
use qubo_problems::{maxcut, random};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing budget per row at `CRITERION_SHIM_SCALE = 1`.
const BUDGET: Duration = Duration::from_secs(3);
/// Timing rounds that run whatever the budget.
const MIN_ROUNDS: usize = 3;
/// The gate: digest ns per cell over floor ns per step.
const MAX_DIGEST_OVER_FLOOR: f64 = 2.0;

/// One benched payload.
struct Row {
    label: String,
    n: usize,
    /// Weights in the payload: `"upper"` elements or edges.
    weights: usize,
    /// Words the digest absorbs.
    cells: u64,
    rounds: usize,
    decode_ns_per_weight: f64,
    digest_ns_per_cell: f64,
    floor_ns_per_step: f64,
}

/// splitmix64's finaliser, as the digest applies it per lane and step.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One lane's worth of the digest: `steps` chained `mix64` calls, each
/// result through `black_box`.
fn floor_chain(steps: u64) -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for k in 0..steps {
        s = black_box(mix64(s ^ k.wrapping_mul(0xff51_afd7_ed55_8ccd)));
    }
    s
}

/// The `"dense"` payload of `q`, in the end-to-end benchmark's spelling.
fn dense_payload(q: &Qubo) -> String {
    let n = q.n();
    let mut text = format!("{{\"format\": \"dense\", \"n\": {n}, \"upper\": [");
    for i in 0..n {
        for j in i..n {
            if i + j > 0 {
                text.push(',');
            }
            text.push_str(&q.get(i, j).to_string());
        }
    }
    text.push_str("]}");
    text
}

/// The G55 stand-in: its `"edge-list"` payload, its edge count and its
/// Max-Cut encoding.
fn gset_payload() -> (String, usize, Qubo) {
    let g = gset::generate(5000, 12_498, GsetFamily::RandomUnit, 1);
    let edges: Vec<String> = g
        .edges()
        .map(|(u, v, w)| format!("[{}, {}, {w}]", u + 1, v + 1))
        .collect();
    let text = format!(
        "{{\"format\": \"edge-list\", \"n\": 5000, \"edges\": [{}]}}",
        edges.join(", ")
    );
    let q = maxcut::to_qubo(&g).expect("G-set weights fit i16");
    (text, edges.len(), q)
}

/// Words [`Qubo::content_hash`] absorbs: `n`, then one per non-zero
/// upper-triangle cell.
fn absorbed_cells(q: &Qubo) -> u64 {
    let diagonal = (0..q.n()).filter(|&k| q.diag(k) != 0).count();
    (1 + diagonal + q.coupler_count()) as u64
}

/// Times one pass; dropping its result is not timed.
fn time<T>(pass: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    let out = black_box(pass());
    let dt = t0.elapsed();
    drop(out);
    dt
}

/// Decodes `text`, checks it against `want`, then times the three
/// passes in paired rounds.
fn run_row(label: &str, text: &str, weights: usize, want: &Qubo) -> Row {
    let q = parse_problem(text).expect("generated payload decodes");
    assert!(q == *want, "{label}: decoded instance differs");
    assert_eq!(q.content_hash(), want.content_hash(), "{label}: digest");
    let cells = absorbed_cells(&q);
    let mut best = [Duration::MAX; 3];
    let budget = abs_bench::scaled_budget(BUDGET);
    let clock = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || clock.elapsed() < budget {
        for k in 0..3 {
            let pass = (k + rounds) % 3;
            let dt = match pass {
                0 => time(|| parse_problem(black_box(text))),
                1 => time(|| black_box(&q).content_hash()),
                _ => time(|| floor_chain(black_box(cells))),
            };
            // invariant: pass < 3 = best.len().
            best[pass] = best[pass].min(dt);
        }
        rounds += 1;
    }
    let per = |d: Duration, count: u64| d.as_nanos() as f64 / count as f64;
    let row = Row {
        label: label.to_string(),
        n: q.n(),
        weights,
        cells,
        rounds,
        decode_ns_per_weight: per(best[0], weights as u64),
        digest_ns_per_cell: per(best[1], cells),
        floor_ns_per_step: per(best[2], cells),
    };
    println!(
        "{:<12} decode {:>6.2} ns/weight  digest {:>6.2} ns/cell  floor {:>6.2} ns/step  \
         ({:.2}× floor, {} rounds)",
        row.label,
        row.decode_ns_per_weight,
        row.digest_ns_per_cell,
        row.floor_ns_per_step,
        row.digest_ns_per_cell / row.floor_ns_per_step,
        row.rounds
    );
    row
}

fn write_report(rows: &[Row]) {
    let mut cells = Vec::new();
    let mut worst = f64::NAN;
    for r in rows {
        let ratio = r.digest_ns_per_cell / r.floor_ns_per_step;
        // NaN (a row that timed nothing) must fail the gate.
        worst = if worst.is_nan() || ratio.is_nan() {
            ratio
        } else {
            worst.max(ratio)
        };
        cells.push(format!(
            "    {{\"instance\": \"{label}\", \"n\": {n}, \"weights\": {w}, \"cells\": {c}, \
             \"rounds\": {rounds}, \"decode_ns_per_weight\": {d:.2}, \
             \"digest_ns_per_cell\": {h:.2}, \"floor_ns_per_step\": {f:.2}, \
             \"digest_over_floor\": {ratio:.3}}}",
            label = r.label,
            n = r.n,
            w = r.weights,
            c = r.cells,
            rounds = r.rounds,
            d = r.decode_ns_per_weight,
            h = r.digest_ns_per_cell,
            f = r.floor_ns_per_step,
        ));
    }
    let pass = !worst.is_nan() && worst <= MAX_DIGEST_OVER_FLOOR && !rows.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \
         \"metric\": \"best of paired rounds: decode ns per weight (parse_problem, build included), \
         digest ns per absorbed cell (content_hash), floor ns per step (one black_boxed mix64 chain)\",\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"gate\": {{\"max_digest_over_floor\": {MAX_DIGEST_OVER_FLOOR}, \
         \"worst_digest_over_floor\": {worst:.3}, \"pass\": {pass}}}\n}}\n",
        rows = cells.join(",\n")
    );
    let path = std::env::var("BENCH_INGEST_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").into());
    std::fs::write(&path, &json).expect("write BENCH_ingest.json");
    println!("wrote {path} (gate pass = {pass})");
}

fn main() {
    let mut rows = Vec::new();
    for n in [1024usize, 2048] {
        // One instance at a time, dropped before the next.
        let q = random::generate(n, 1);
        let text = dense_payload(&q);
        rows.push(run_row(&format!("dense-{n}"), &text, n * (n + 1) / 2, &q));
    }
    let (text, edges, q) = gset_payload();
    rows.push(run_row("G55-5000", &text, edges, &q));
    write_report(&rows);
}

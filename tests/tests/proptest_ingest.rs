//! Lock-step tests for problem ingestion: the JSON edge-list codec
//! (`qubo::json::parse_problem`), the text edge-list reader
//! (`qubo::format::parse_edge_list`) and a reference built cell by cell
//! with `Qubo::set` must agree on every random edge list — duplicates,
//! both vertex orders, negative and near-overflow weights — including
//! which typed error a bad list gets. The content digest must agree
//! between the dense-JSON and edge-list encodings of one instance and
//! change after any single-cell change.

use proptest::prelude::*;
use qubo::format::{self, ParseError};
use qubo::json::{parse_problem, JsonProblemError};
use qubo::{Qubo, QuboError, SparseQubo};
use std::collections::BTreeMap;

/// The rejection a bad edge list must get, in codec-neutral terms.
#[derive(Debug, PartialEq, Eq)]
enum Rejection {
    /// Edge `index` has a bad vertex id or is a self-loop.
    BadEdge(usize),
    /// Edge `index` has a weight whose value or negation leaves `i16`.
    Overflow(usize),
    /// The accumulated cell `(i, j)` leaves `i16`.
    WeightOverflow(usize, usize),
}

fn json_rejection(e: &JsonProblemError) -> Rejection {
    match e {
        JsonProblemError::BadEdge { index, .. } => Rejection::BadEdge(*index),
        JsonProblemError::Overflow { index, .. } => Rejection::Overflow(*index),
        JsonProblemError::Problem(QuboError::WeightOverflow(i, j)) => {
            Rejection::WeightOverflow(*i, *j)
        }
        other => panic!("unexpected JSON rejection {other:?}"),
    }
}

fn text_rejection(e: &ParseError) -> Rejection {
    // Line 1 is the `<n> <m>` header, so edge k sits on line k + 2.
    match e {
        ParseError::BadLine(line, _) => Rejection::BadEdge(line - 2),
        ParseError::BadWeight(line) => Rejection::Overflow(line - 2),
        ParseError::Problem(QuboError::WeightOverflow(i, j)) => Rejection::WeightOverflow(*i, *j),
        other => panic!("unexpected text rejection {other:?}"),
    }
}

/// A deterministic edge list for `n` vertices (1-indexed ids). The
/// flavour picks the stress: 0 small weights from a small vertex pool
/// (many duplicates, both orders), 1 near-overflow weights, 2 the same
/// with bad ids, self-loops and out-of-range weights sprinkled in. Only
/// flavour 2 (or `n = 1`) yields invalid edges.
fn edges(n: usize, m: usize, flavour: u8, seed: u64) -> Vec<(u64, u64, i64)> {
    let mut s = seed | 1;
    let mut next = move |bound: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % bound
    };
    let pool = (n as u64).min(if flavour == 0 { 4 } else { 64 });
    (0..m)
        .map(|_| {
            let mut u = 1 + next(pool);
            let mut v = 1 + next(pool);
            if u == v && pool > 1 {
                // Self-loops only where flavour 2 plants them.
                v = 1 + v % pool;
            }
            let mut w = match flavour {
                0 => next(101) as i64 - 50,
                _ => {
                    let mag = 30_000 + next(2_768) as i64;
                    if next(2) == 0 {
                        mag
                    } else {
                        -mag
                    }
                }
            };
            if flavour == 2 {
                match next(12) {
                    0 => u = 0,
                    1 => v = n as u64 + 1,
                    2 => v = u,
                    3 => w = 40_000,
                    4 => w = i64::from(i16::MIN),
                    _ => {}
                }
            }
            (u, v, w)
        })
        .collect()
}

/// The reference decode: the Max-Cut mapping applied cell by cell in
/// `i64`, checked edge by edge in input order, then cell by cell in
/// row-major order, and finally written with `Qubo::set`.
fn reference(n: usize, edges: &[(u64, u64, i64)]) -> Result<Qubo, Rejection> {
    let mut cells: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    for (index, &(u, v, w)) in edges.iter().enumerate() {
        let n64 = n as u64;
        if u == 0 || v == 0 || u > n64 || v > n64 || u == v {
            return Err(Rejection::BadEdge(index));
        }
        if i16::try_from(w).is_err() || w == i64::from(i16::MIN) {
            return Err(Rejection::Overflow(index));
        }
        let (a, b) = ((u - 1) as usize, (v - 1) as usize);
        *cells.entry((a.min(b), a.max(b))).or_insert(0) += w;
        *cells.entry((a, a)).or_insert(0) -= w;
        *cells.entry((b, b)).or_insert(0) -= w;
    }
    // BTreeMap order over (i ≤ j) keys is row-major order of the upper
    // triangle, and a lower-triangle cell (j, i) always comes after its
    // mirror (i, j), so this is the first overflowing cell overall.
    if let Some((&(i, j), _)) = cells.iter().find(|(_, &w)| i16::try_from(w).is_err()) {
        return Err(Rejection::WeightOverflow(i, j));
    }
    let mut q = Qubo::zero(n).expect("size in range");
    for (&(i, j), &w) in &cells {
        q.set(i, j, w as i16);
    }
    Ok(q)
}

fn edge_list_json(n: usize, edges: &[(u64, u64, i64)]) -> String {
    let list: Vec<String> = edges
        .iter()
        .map(|(u, v, w)| format!("[{u}, {v}, {w}]"))
        .collect();
    format!(
        r#"{{"format": "edge-list", "n": {n}, "edges": [{}]}}"#,
        list.join(", ")
    )
}

fn edge_list_text(n: usize, edges: &[(u64, u64, i64)]) -> String {
    let mut text = format!("{n} {}\n", edges.len());
    for (u, v, w) in edges {
        text.push_str(&format!("{u} {v} {w}\n"));
    }
    text
}

fn dense_json(q: &Qubo) -> String {
    let n = q.n();
    let upper: Vec<String> = (0..n)
        .flat_map(|i| (i..n).map(move |j| (i, j)))
        .map(|(i, j)| q.get(i, j).to_string())
        .collect();
    format!(
        r#"{{"format": "dense", "n": {n}, "upper": [{}]}}"#,
        upper.join(", ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// JSON, text and the `Qubo::set` reference decode every edge list
    /// to the same matrix, or reject it with the same typed error.
    #[test]
    fn edge_list_codecs_and_reference_agree(
        n in 1usize..=24,
        m in 0usize..=40,
        flavour in 0u8..3,
        seed in any::<u64>(),
    ) {
        let edges = edges(n, m, flavour, seed);
        let expected = reference(n, &edges);
        let json = parse_problem(&edge_list_json(n, &edges));
        let text = format::parse_edge_list(&edge_list_text(n, &edges));
        match expected {
            Ok(q) => {
                let json = json.expect("the JSON codec accepts what the reference accepts");
                let text = text.expect("the text reader accepts what the reference accepts");
                prop_assert_eq!(&json, &q);
                prop_assert_eq!(&text, &SparseQubo::from_dense(&q));
                prop_assert_eq!(&Qubo::from_sparse(&text), &q);
                prop_assert_eq!(json.content_hash(), q.content_hash());
            }
            Err(want) => {
                let json = json.expect_err("JSON must reject");
                let text = text.expect_err("text must reject");
                prop_assert_eq!(&json_rejection(&json), &want);
                prop_assert_eq!(&text_rejection(&text), &want);
            }
        }
    }

    /// One instance, two JSON encodings: the dense upper triangle and
    /// the edge list decode equal and digest equal.
    #[test]
    fn content_hash_is_encoding_independent(
        n in 2usize..=40,
        m in 0usize..=60,
        seed in any::<u64>(),
    ) {
        let edges = edges(n, m, 0, seed);
        let from_edges = parse_problem(&edge_list_json(n, &edges)).expect("valid edge list");
        let from_dense = parse_problem(&dense_json(&from_edges)).expect("valid dense triangle");
        prop_assert_eq!(&from_dense, &from_edges);
        prop_assert_eq!(from_dense.content_hash(), from_edges.content_hash());
    }

    /// Any single-cell change moves the digest: a nudged weight, a
    /// zero ↔ non-zero flip, and a weight moved to another cell.
    #[test]
    fn content_hash_changes_with_any_single_cell(
        n in 2usize..=40,
        m in 0usize..=60,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let q = parse_problem(&edge_list_json(n, &edges(n, m, 0, seed))).expect("valid");
        let base = q.content_hash();
        let i = (pick % n as u64) as usize;
        let j = i + ((pick >> 16) % (n - i) as u64) as usize;
        let w = q.get(i, j);

        let mut nudged = q.clone();
        nudged.set(i, j, w.wrapping_add(1));
        prop_assert_ne!(nudged.content_hash(), base);

        let mut flipped = q.clone();
        flipped.set(i, j, if w == 0 { -7 } else { 0 });
        prop_assert_ne!(flipped.content_hash(), base);

        // Move a non-zero weight into an empty cell of the triangle.
        let nonzero = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).find(|&(a, b)| q.get(a, b) != 0);
        let empty = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).find(|&(a, b)| q.get(a, b) == 0);
        if let (Some((a, b)), Some((c, d))) = (nonzero, empty) {
            let mut moved = q.clone();
            moved.set(c, d, q.get(a, b));
            moved.set(a, b, 0);
            prop_assert_ne!(moved.content_hash(), base);
        }
    }
}

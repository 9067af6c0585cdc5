//! Plain-text `.qubo` interchange format (qbsolv-compatible).
//!
//! ```text
//! c  optional comments
//! p  qubo 0 <maxNodes> <nNodes> <nCouplers>
//! <i> <i> <w>     one line per non-zero diagonal weight
//! <i> <j> <w>     one line per non-zero coupler, i < j
//! ```
//!
//! The energy convention matches [`crate::Qubo`]: a coupler line
//! `i j w` sets `W_ij = W_ji = w`, contributing `2·w` to `E(X)` when
//! both bits are set.
//!
//! Every reader folds the triplets in O(n + nnz) memory: [`parse`]
//! returns a CSR-built [`Qubo`] (dense rows only if something asks for
//! them, [`Qubo::dense`]), while [`parse_sparse`] and
//! [`parse_edge_list`] return the bare CSR [`SparseQubo`] — the intended
//! path for the large low-density instances the sparse flip tier
//! targets.

use crate::matrix::{check_size, Qubo, QuboError};
use crate::sparse::SparseQubo;
use std::fmt::Write as _;

/// Errors produced while parsing a `.qubo` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No `p` program line before the first data line.
    MissingProgramLine,
    /// No `<n> <m>` header line in an edge-list document.
    MissingHeader,
    /// A malformed line, with its 1-based line number and content.
    BadLine(usize, String),
    /// A weight outside the 16-bit range, with its 1-based line number.
    BadWeight(usize),
    /// A structurally invalid problem (bad size, index, overflow).
    Problem(QuboError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingProgramLine => write!(f, "missing `p qubo …` program line"),
            Self::MissingHeader => write!(f, "missing `<n> <m>` edge-list header line"),
            Self::BadLine(ln, s) => write!(f, "line {ln}: cannot parse {s:?}"),
            Self::BadWeight(ln) => write!(f, "line {ln}: weight outside i16 range"),
            Self::Problem(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QuboError> for ParseError {
    fn from(e: QuboError) -> Self {
        Self::Problem(e)
    }
}

/// Parses a `.qubo` document.
///
/// # Errors
/// See [`ParseError`].
pub fn parse(text: &str) -> Result<Qubo, ParseError> {
    let (n, triplets) = read_triplets(text)?;
    Qubo::from_triplets(n, &triplets).map_err(ParseError::Problem)
}

/// Parses a `.qubo` document straight into a bare CSR matrix — O(nnz)
/// memory, like [`parse`], without the [`Qubo`] wrapper.
///
/// Accepts the same documents as [`parse`] with identical semantics:
/// duplicate triplets (in either orientation) fold by accumulation, and
/// a fold overflowing the 16-bit weight range is reported per cell.
///
/// # Errors
/// See [`ParseError`].
pub fn parse_sparse(text: &str) -> Result<SparseQubo, ParseError> {
    let (n, triplets) = read_triplets(text)?;
    SparseQubo::from_triplets(n, &triplets).map_err(ParseError::Problem)
}

/// `(i, j, w)` weight triplets, as the readers collect them.
type Triplets = Vec<(usize, usize, i16)>;

/// The triplet reader behind [`parse`] and [`parse_sparse`]: the
/// program line's `nNodes` and every data line as `(i, j, w)`.
fn read_triplets(text: &str) -> Result<(usize, Triplets), ParseError> {
    let mut n: Option<usize> = None;
    let mut triplets = Triplets::new();
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut it = rest.split_whitespace();
            let kind = it
                .next()
                .ok_or_else(|| ParseError::BadLine(ln, raw.into()))?;
            if kind != "qubo" {
                return Err(ParseError::BadLine(ln, raw.into()));
            }
            // topology, maxNodes, nNodes, nCouplers — only nNodes matters.
            let _topology = it
                .next()
                .ok_or_else(|| ParseError::BadLine(ln, raw.into()))?;
            let _max: usize = next_num(&mut it, ln, raw)?;
            let nodes: usize = next_num(&mut it, ln, raw)?;
            let couplers: usize = next_num(&mut it, ln, raw)?;
            check_size(nodes)?;
            // The header's counts are claims: never reserve past what
            // the text could hold (a data line is at least 6 bytes).
            triplets.reserve(nodes.saturating_add(couplers).min(text.len() / 6));
            n = Some(nodes);
            continue;
        }
        if n.is_none() {
            return Err(ParseError::MissingProgramLine);
        }
        let mut it = line.split_whitespace();
        let i: usize = next_num(&mut it, ln, raw)?;
        let j: usize = next_num(&mut it, ln, raw)?;
        let w: i64 = next_num(&mut it, ln, raw)?;
        let w16 = i16::try_from(w).map_err(|_| ParseError::BadWeight(ln))?;
        triplets.push((i, j, w16));
    }
    let n = n.ok_or(ParseError::MissingProgramLine)?;
    Ok((n, triplets))
}

/// Parses a G-set–style edge list straight into CSR form, encoding the
/// Max-Cut instance as a QUBO: each edge `{u, v}` of weight `w`
/// contributes `W_uv = W_vu = w` and `−w` to both diagonals `W_uu`,
/// `W_vv`, so `E(X) = −cut(X)` and minimization maximizes the cut (the
/// same encoding as `qubo_problems::maxcut::to_qubo`, without the dense
/// detour).
///
/// ```text
/// c  optional comments (`c`, `#`, or `%`)
/// <n> <m>          header: vertex and edge counts
/// <u> <v> [<w>]    one line per edge, vertices 1-indexed; w defaults to 1
/// ```
///
/// Duplicate edges (in either orientation) fold by weight accumulation,
/// consistent with the triplet handling of [`parse`] / [`parse_sparse`];
/// an accumulated weight outside the 16-bit range is reported per cell.
///
/// # Errors
/// See [`ParseError`]. Self-loops and 0 or out-of-range vertex ids are
/// [`ParseError::BadLine`].
pub fn parse_edge_list(text: &str) -> Result<SparseQubo, ParseError> {
    let mut n: Option<usize> = None;
    let mut triplets = Triplets::new();
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with('c')
            || line.starts_with('#')
            || line.starts_with('%')
        {
            continue;
        }
        let mut it = line.split_whitespace();
        let Some(nodes) = n else {
            let v: usize = next_num(&mut it, ln, raw)?;
            let edges: usize = next_num(&mut it, ln, raw)?;
            check_size(v)?;
            // The header's edge count is a claim: never reserve past
            // what the text could hold (an edge line is at least 4 bytes).
            triplets.reserve(edges.min(text.len() / 4).saturating_mul(3));
            n = Some(v);
            continue;
        };
        let u: usize = next_num(&mut it, ln, raw)?;
        let v: usize = next_num(&mut it, ln, raw)?;
        let w: i64 = match it.next() {
            Some(t) => t.parse().map_err(|_| ParseError::BadLine(ln, raw.into()))?,
            None => 1,
        };
        // Edge-list ids are 1-based with no self-loops; checked before
        // the weight, in the order the JSON edge-list codec checks them.
        if u == 0 || v == 0 || u == v || u > nodes || v > nodes {
            return Err(ParseError::BadLine(ln, raw.into()));
        }
        let w16 = i16::try_from(w).map_err(|_| ParseError::BadWeight(ln))?;
        // `−w` must also fit the weight range.
        let neg = w16.checked_neg().ok_or(ParseError::BadWeight(ln))?;
        let (a, b) = (u - 1, v - 1);
        triplets.push((a, b, w16));
        triplets.push((a, a, neg));
        triplets.push((b, b, neg));
    }
    let n = n.ok_or(ParseError::MissingHeader)?;
    SparseQubo::from_triplets(n, &triplets).map_err(ParseError::Problem)
}

fn next_num<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace<'_>,
    ln: usize,
    raw: &str,
) -> Result<T, ParseError> {
    it.next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadLine(ln, raw.to_owned()))
}

/// Serializes a problem to the `.qubo` text format (sparse: zero weights
/// are omitted).
#[must_use]
pub fn to_string(q: &Qubo) -> String {
    let n = q.n();
    let couplers = q.coupler_count();
    let diagonals = (0..n).filter(|&i| q.diag(i) != 0).count();
    let mut out = String::new();
    let _ = writeln!(out, "c generated by the abs workspace");
    let _ = writeln!(out, "p qubo 0 {n} {n} {couplers}");
    let _ = writeln!(out, "c {diagonals} non-zero diagonals");
    for i in 0..n {
        if q.diag(i) != 0 {
            let _ = writeln!(out, "{i} {i} {}", q.diag(i));
        }
    }
    for (i, j, w) in q.upper_cells().filter(|&(i, j, _)| i != j) {
        let _ = writeln!(out, "{i} {j} {w}");
    }
    out
}

/// Serializes a solution with its energy:
///
/// ```text
/// c abs solution
/// s <energy> <bitstring>
/// ```
#[must_use]
pub fn solution_to_string(x: &crate::BitVec, energy: i64) -> String {
    let mut bits = String::with_capacity(x.len());
    for i in 0..x.len() {
        bits.push(if x.get(i) { '1' } else { '0' });
    }
    format!("c abs solution\ns {energy} {bits}\n")
}

/// Parses a solution file produced by [`solution_to_string`].
///
/// # Errors
/// [`ParseError`] on malformed input.
pub fn parse_solution(text: &str) -> Result<(crate::BitVec, i64), ParseError> {
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let Some(rest) = line.strip_prefix("s ") else {
            return Err(ParseError::BadLine(ln, raw.into()));
        };
        let mut it = rest.split_whitespace();
        let energy: i64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseError::BadLine(ln, raw.into()))?;
        let bits = it
            .next()
            .ok_or_else(|| ParseError::BadLine(ln, raw.into()))?;
        let x =
            crate::BitVec::from_bit_str(bits).ok_or_else(|| ParseError::BadLine(ln, raw.into()))?;
        return Ok((x, energy));
    }
    Err(ParseError::MissingProgramLine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::CouplingMatrix;
    use crate::BitVec;

    #[test]
    fn roundtrip() {
        let mut q = Qubo::zero(5).unwrap();
        q.set(0, 0, -5);
        q.set(0, 3, 7);
        q.set(2, 4, -1);
        q.set(4, 4, 9);
        let text = to_string(&q);
        let back = parse(&text).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn parse_with_comments_and_blank_lines() {
        let text = "c hello\n\np qubo 0 3 3 1\n0 0 -2\n\nc mid comment\n0 2 4\n";
        let q = parse(text).unwrap();
        assert_eq!(q.n(), 3);
        assert_eq!(q.diag(0), -2);
        assert_eq!(q.get(0, 2), 4);
        assert_eq!(q.get(2, 0), 4);
    }

    #[test]
    fn parse_energy_convention() {
        // coupler counted twice in the double sum
        let q = parse("p qubo 0 2 2 1\n0 1 3\n").unwrap();
        let x = BitVec::from_bit_str("11").unwrap();
        assert_eq!(q.energy(&x), 6);
    }

    #[test]
    fn errors_on_missing_program_line() {
        assert_eq!(
            parse("0 0 1\n").unwrap_err(),
            ParseError::MissingProgramLine
        );
        assert_eq!(
            parse("c only comments\n").unwrap_err(),
            ParseError::MissingProgramLine
        );
    }

    #[test]
    fn errors_on_garbage_line() {
        let err = parse("p qubo 0 2 2 0\n0 zero 1\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
    }

    #[test]
    fn errors_on_oversized_weight() {
        let err = parse("p qubo 0 2 2 1\n0 1 99999\n").unwrap_err();
        assert_eq!(err, ParseError::BadWeight(2));
    }

    #[test]
    fn errors_on_out_of_range_index() {
        let err = parse("p qubo 0 2 2 1\n0 5 1\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Problem(QuboError::IndexOutOfRange(5))
        ));
    }

    #[test]
    fn solution_roundtrip() {
        let x = BitVec::from_bit_str("0110100").unwrap();
        let text = solution_to_string(&x, -42);
        let (back, e) = parse_solution(&text).unwrap();
        assert_eq!(back, x);
        assert_eq!(e, -42);
    }

    #[test]
    fn solution_parse_errors() {
        assert!(parse_solution("").is_err());
        assert!(parse_solution("c only comments\n").is_err());
        assert!(matches!(
            parse_solution("s notanumber 0101\n").unwrap_err(),
            ParseError::BadLine(1, _)
        ));
        assert!(matches!(
            parse_solution("s 5 01x1\n").unwrap_err(),
            ParseError::BadLine(1, _)
        ));
        assert!(matches!(
            parse_solution("x 5 0101\n").unwrap_err(),
            ParseError::BadLine(1, _)
        ));
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let q = parse("p qubo 0 2 2 1\n0 1 3\n1 0 4\n").unwrap();
        assert_eq!(q.get(0, 1), 7);
    }

    #[test]
    fn parse_sparse_matches_the_dense_parser() {
        let text = "c demo\np qubo 0 5 5 3\n0 0 -5\n0 3 7\n2 4 -1\n4 4 9\n";
        let dense = parse(text).unwrap();
        let sparse = parse_sparse(text).unwrap();
        assert_eq!(sparse.n(), dense.n());
        for i in 0..5 {
            assert_eq!(sparse.diag(i), dense.diag(i));
        }
        for bits in ["00000", "10010", "11111", "01101"] {
            let x = BitVec::from_bit_str(bits).unwrap();
            assert_eq!(sparse.energy(&x), dense.energy(&x), "bits={bits}");
        }
    }

    #[test]
    fn parse_sparse_folds_duplicates_like_the_dense_parser() {
        let text = "p qubo 0 3 3 1\n0 1 3\n1 0 4\n2 2 5\n2 2 -1\n";
        let sparse = parse_sparse(text).unwrap();
        assert_eq!(sparse.nnz(), 2); // (0,1) and (1,0), folded to 7
        assert_eq!(sparse.diag(2), 4);
        let x = BitVec::from_bit_str("110").unwrap();
        assert_eq!(sparse.energy(&x), 14); // 2·7 from the folded coupler
    }

    #[test]
    fn parse_sparse_shares_the_dense_error_contract() {
        assert_eq!(
            parse_sparse("0 0 1\n").unwrap_err(),
            ParseError::MissingProgramLine
        );
        assert_eq!(
            parse_sparse("p qubo 0 2 2 1\n0 1 99999\n").unwrap_err(),
            ParseError::BadWeight(2)
        );
        assert!(matches!(
            parse_sparse("p qubo 0 2 2 1\n0 5 1\n").unwrap_err(),
            ParseError::Problem(QuboError::IndexOutOfRange(5))
        ));
        // Folding overflow is caught per cell by both readers.
        let text = "p qubo 0 2 2 1\n0 1 30000\n1 0 30000\n";
        assert!(matches!(
            parse_sparse(text).unwrap_err(),
            ParseError::Problem(QuboError::WeightOverflow(_, _))
        ));
        assert!(matches!(parse(text).unwrap_err(), ParseError::Problem(_)));
    }

    #[test]
    fn edge_list_encodes_negated_cut() {
        // Triangle with one weighted edge: cut({0} | {1,2}) = 2 + 3 = 5.
        let text = "c triangle\n3 3\n1 2 2\n1 3 3\n2 3 1\n";
        let s = parse_edge_list(text).unwrap();
        assert_eq!(s.n(), 3);
        assert_eq!(s.couplers(), 3);
        assert_eq!(s.diag(0), -5); // −weighted_degree(0)
        assert_eq!(s.diag(1), -3);
        assert_eq!(s.diag(2), -4);
        let x = BitVec::from_bit_str("100").unwrap();
        assert_eq!(s.energy(&x), -5);
        // Moving every vertex to one side cuts nothing.
        let all = BitVec::from_bit_str("111").unwrap();
        assert_eq!(s.energy(&all), 0);
    }

    #[test]
    fn edge_list_folds_duplicate_edges() {
        // The same edge three times, once reversed: weights accumulate
        // in both the coupler and the diagonal degree terms.
        let text = "4 3\n1 2 2\n2 1 3\n1 2 -1\n";
        let s = parse_edge_list(text).unwrap();
        assert_eq!(s.couplers(), 1);
        assert_eq!(s.diag(0), -4);
        assert_eq!(s.diag(1), -4);
        let folded = parse_edge_list("4 1\n1 2 4\n").unwrap();
        let x = BitVec::from_bit_str("1000").unwrap();
        assert_eq!(s.energy(&x), folded.energy(&x));
        // A pair folding to zero drops the coupler entirely.
        let zero = parse_edge_list("2 2\n1 2 5\n2 1 -5\n").unwrap();
        assert_eq!(zero.nnz(), 0);
    }

    #[test]
    fn edge_list_defaults_weight_to_one_and_skips_comments() {
        let text = "# generator line\n% matrix-market style\nc gset style\n2 1\n1 2\n";
        let s = parse_edge_list(text).unwrap();
        assert_eq!(s.couplers(), 1);
        assert_eq!(s.diag(0), -1);
        let cut = BitVec::from_bit_str("10").unwrap();
        assert_eq!(s.energy(&cut), -1);
    }

    #[test]
    fn edge_list_rejects_bad_input() {
        assert_eq!(
            parse_edge_list("c nothing\n").unwrap_err(),
            ParseError::MissingHeader
        );
        // Self-loop, 0-indexed vertex, out-of-range vertex, bad weight.
        assert!(matches!(
            parse_edge_list("3 1\n2 2\n").unwrap_err(),
            ParseError::BadLine(2, _)
        ));
        assert!(matches!(
            parse_edge_list("3 1\n0 1\n").unwrap_err(),
            ParseError::BadLine(2, _)
        ));
        assert!(matches!(
            parse_edge_list("3 1\n1 4\n").unwrap_err(),
            ParseError::BadLine(2, _)
        ));
        assert_eq!(
            parse_edge_list("3 1\n1 2 99999\n").unwrap_err(),
            ParseError::BadWeight(2)
        );
        // −w must fit i16 too (i16::MIN has no negation).
        assert_eq!(
            parse_edge_list("3 1\n1 2 -32768\n").unwrap_err(),
            ParseError::BadWeight(2)
        );
    }
}

//! JSON problem codec: the job-payload format shared by the `abs-server`
//! `POST /jobs` endpoint and the CLI `--problem-json` input path.
//!
//! Two problem encodings are accepted, discriminated by `"format"`:
//!
//! **Dense upper triangle** — `n` and the row-major upper triangle of
//! `W` (diagonal included), `n·(n+1)/2` integer weights:
//!
//! ```json
//! {"format": "dense", "n": 3, "upper": [-5, 2, 0, -3, 1, -8]}
//! ```
//!
//! **G-set-style edge list** — 1-indexed vertices, each edge
//! `[u, v, w]` encoded exactly like [`crate::format::parse_edge_list`]:
//! `W_uv = W_vu = w` and `−w` on both diagonals, so `E(X) = −cut(X)`:
//!
//! ```json
//! {"format": "edge-list", "n": 5, "edges": [[1, 2, 3], [2, 4, -1]]}
//! ```
//!
//! Every weight must be an integer that fits `i16` (after accumulation
//! of duplicate edges). Floats — including anything JSON would round —
//! are rejected with a typed error rather than truncated; JSON itself
//! cannot encode NaN, so a literal `NaN` fails at the syntax layer.
//!
//! # Decoding
//!
//! [`Reader`] is a byte-level pull parser: one pass over the text both
//! checks the JSON syntax of the whole document and streams the
//! problem's fields into their final shape — `"upper"` into a
//! `Vec<i16>` (2 bytes per weight) and `"edges"` into a list of raw
//! triples — with no intermediate value tree. The rules:
//!
//! - **Syntax before semantics.** A semantic fault (a float weight, a
//!   bad edge, a wrong field type) is recorded and the scan goes on; a
//!   syntax error anywhere in the document wins over it.
//! - **Semantic errors keep their historical order.** After the scan
//!   the fields are checked in a fixed order — `format`, then `n`, then
//!   the payload array, then its elements by index — whatever order the
//!   keys appear in the text, so `"upper"` may precede `"n"`.
//! - **The first occurrence of a duplicate key wins;** later values
//!   are checked for syntax and otherwise ignored. Unknown keys are
//!   ignored the same way.
//! - **Nesting is capped at [`MAX_DEPTH`] levels** of arrays and
//!   objects (the `serde_json` recursion limit), so a hostile body
//!   cannot exhaust the stack.

use crate::matrix::{check_size, Qubo, QuboError};
use std::borrow::Cow;

/// The deepest nesting of arrays and objects [`Reader`] accepts; one
/// level more is a syntax error.
pub const MAX_DEPTH: usize = 128;

/// A typed rejection of a JSON problem payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonProblemError {
    /// The text is not valid JSON.
    Syntax(String),
    /// The top-level value is not an object.
    NotObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong JSON type.
    BadType {
        /// Field name.
        field: &'static str,
        /// What was expected there.
        expected: &'static str,
    },
    /// The `"format"` discriminator names no known encoding.
    UnknownFormat(String),
    /// A weight is not an integer (a float, NaN-adjacent, or a number
    /// outside `i64`).
    NotInteger {
        /// Field holding the offending array.
        field: &'static str,
        /// Zero-based element index within it.
        index: usize,
    },
    /// A single weight is outside the 16-bit range.
    Overflow {
        /// Field holding the offending array.
        field: &'static str,
        /// Zero-based element index within it.
        index: usize,
        /// The out-of-range value.
        value: i64,
    },
    /// The `"upper"` array length disagrees with `n`.
    SizeMismatch {
        /// `n·(n+1)/2` for the declared `n`.
        expected: usize,
        /// Actual element count.
        got: usize,
    },
    /// An edge is malformed: wrong arity, a self-loop, or a vertex id
    /// that is 0 or greater than `n`.
    BadEdge {
        /// Zero-based edge index.
        index: usize,
        /// What is wrong with it.
        why: &'static str,
    },
    /// A structurally invalid problem (bad size, accumulated overflow).
    Problem(QuboError),
}

impl std::fmt::Display for JsonProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Syntax(m) => write!(f, "invalid JSON: {m}"),
            Self::NotObject => write!(f, "problem payload must be a JSON object"),
            Self::MissingField(field) => write!(f, "missing field {field:?}"),
            Self::BadType { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            Self::UnknownFormat(got) => {
                write!(
                    f,
                    "unknown format {got:?} (expected \"dense\" or \"edge-list\")"
                )
            }
            Self::NotInteger { field, index } => {
                write!(f, "{field}[{index}] is not an integer")
            }
            Self::Overflow {
                field,
                index,
                value,
            } => write!(f, "{field}[{index}] = {value} outside the i16 weight range"),
            Self::SizeMismatch { expected, got } => write!(
                f,
                "upper triangle has {got} entries, expected {expected} for the declared n"
            ),
            Self::BadEdge { index, why } => write!(f, "edges[{index}]: {why}"),
            Self::Problem(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for JsonProblemError {}

impl From<QuboError> for JsonProblemError {
    fn from(e: QuboError) -> Self {
        Self::Problem(e)
    }
}

fn syntax(msg: impl Into<String>) -> JsonProblemError {
    JsonProblemError::Syntax(msg.into())
}

/// A number classified the way `serde_json` stores it: integers that
/// fit `i64`, larger non-negative integers, and everything written
/// with a fraction or an exponent (or too long for `u64`).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Num {
    Int(i64),
    UInt(u64),
    Float,
}

impl Num {
    fn as_u64(self) -> Option<u64> {
        match self {
            Num::Int(v) => u64::try_from(v).ok(),
            Num::UInt(v) => Some(v),
            Num::Float => None,
        }
    }

    fn as_i64(self) -> Option<i64> {
        match self {
            Num::Int(v) => Some(v),
            Num::UInt(v) => i64::try_from(v).ok(),
            Num::Float => None,
        }
    }
}

/// A pull cursor over one JSON document. Every method that consumes a
/// value checks its syntax completely, so a caller that walks (or
/// skips) every value has validated the whole document; the only error
/// the cursor itself returns is [`JsonProblemError::Syntax`].
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Byte offset of the cursor in the text.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonProblemError> {
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Enters one container level, refusing past [`MAX_DEPTH`].
    fn enter(&mut self, b: u8) -> Result<(), JsonProblemError> {
        self.consume(b)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(syntax(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Walks the object at the cursor, calling `member(reader, key)`
    /// once per member with the cursor on the value; `member` must
    /// consume exactly that value.
    ///
    /// # Errors
    /// A syntax error, or whatever `member` returns.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonProblemError>,
    ) -> Result<(), JsonProblemError> {
        self.enter(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            member(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                other => return Err(syntax(format!("bad object at {other:?}"))),
            }
        }
    }

    /// Walks the array at the cursor, calling `element(reader, index)`
    /// once per element with the cursor on it; `element` must consume
    /// exactly that value.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), JsonProblemError>,
    ) -> Result<(), JsonProblemError> {
        let mut more = self.open_array()?;
        let mut index = 0;
        while more {
            self.skip_ws();
            element(self, index)?;
            index += 1;
            more = self.after_element()?;
        }
        Ok(())
    }

    /// Enters the array at the cursor; `false` when it is empty (and
    /// already closed).
    fn open_array(&mut self) -> Result<bool, JsonProblemError> {
        self.enter(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Consumes the delimiter after an array element: `,` (`true`,
    /// another element follows) or `]` (`false`, the array is closed).
    fn after_element(&mut self) -> Result<bool, JsonProblemError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            other => Err(syntax(format!("bad array at {other:?}"))),
        }
    }

    /// Consumes one value of any type, checking its syntax.
    ///
    /// # Errors
    /// [`JsonProblemError::Syntax`] on malformed or too deeply nested
    /// JSON.
    pub fn skip_value(&mut self) -> Result<(), JsonProblemError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(|r, _| r.skip_value()),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => {
                let rest = &self.bytes()[self.pos..];
                match ["null", "true", "false"]
                    .iter()
                    .find(|lit| rest.starts_with(lit.as_bytes()))
                {
                    Some(lit) => {
                        self.pos += lit.len();
                        Ok(())
                    }
                    None => Err(syntax(format!(
                        "unexpected {:?} at byte {}",
                        rest.first(),
                        self.pos
                    ))),
                }
            }
        }
    }

    /// Checks that only whitespace remains.
    ///
    /// # Errors
    /// [`JsonProblemError::Syntax`] on trailing data.
    pub fn end(&mut self) -> Result<(), JsonProblemError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(syntax(format!("trailing data at byte {}", self.pos))),
        }
    }

    /// Consumes a string, borrowing it from the text unless it holds
    /// escapes. Lone surrogate escapes decode to U+FFFD.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonProblemError> {
        self.consume(b'"')?;
        let bytes = self.bytes();
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run stops at ASCII bytes, so it is a char-boundary
            // slice of the (UTF-8) text.
            let run = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    let esc = *bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| syntax("unterminated escape"))?;
                    self.pos += 2;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| syntax("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{FFFD}')
                        }
                        other => return Err(syntax(format!("bad escape '\\{}'", other as char))),
                    });
                }
                other => return Err(syntax(format!("unterminated string ({other:?})"))),
            }
        }
    }

    /// Consumes a number, scanned as `-? digits* (. digits*)? ([eE]
    /// [+-]? digits*)?` and classified by the standard parsers, exactly
    /// as `serde_json::from_str` does.
    fn number(&mut self) -> Result<Num, JsonProblemError> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut p = start + usize::from(bytes.get(start) == Some(&b'-'));
        let run = |p: &mut usize| {
            while let Some(b'0'..=b'9') = bytes.get(*p) {
                *p += 1;
            }
        };
        run(&mut p);
        let mut is_float = false;
        if bytes.get(p) == Some(&b'.') {
            is_float = true;
            p += 1;
            run(&mut p);
        }
        if let Some(b'e' | b'E') = bytes.get(p) {
            is_float = true;
            p += 1;
            if let Some(b'+' | b'-') = bytes.get(p) {
                p += 1;
            }
            run(&mut p);
        }
        self.pos = p;
        let text = &self.text[start..p];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Num::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Num::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(|_| Num::Float)
            .map_err(|_| syntax(format!("bad number '{text}'")))
    }

    /// Consumes a plain integer of at most five digits that fits `i16`
    /// — every element of a well-formed weight array — or leaves the
    /// cursor alone and returns `None`.
    fn short_weight(&mut self) -> Option<i16> {
        let bytes = self.bytes();
        let neg = bytes.get(self.pos) == Some(&b'-');
        let digits = self.pos + usize::from(neg);
        let mut p = digits;
        let mut mag = 0i32;
        while p < digits + 5 {
            match bytes.get(p) {
                Some(&d @ b'0'..=b'9') => mag = mag * 10 + i32::from(d - b'0'),
                _ => break,
            }
            p += 1;
        }
        if p == digits || matches!(bytes.get(p), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return None;
        }
        let w = i16::try_from(if neg { -mag } else { mag }).ok()?;
        self.pos = p;
        Some(w)
    }

    /// The eight-byte (SWAR) fast path for an array element: with at
    /// least eight bytes left it reads them as one word and consumes
    /// `-?[0-9]{1,5},` — a plain integer and the comma after it — when
    /// the value fits `i16`. Anything else — whitespace, a fraction or
    /// exponent, six or more digits, an out-of-range value, a non-number,
    /// the array's last element, the last bytes of the text — leaves the
    /// cursor alone (`None`) for the element path
    /// ([`Reader::short_weight`], then the full number scan), which stays
    /// the only source of errors.
    fn swar_weight(&mut self) -> Option<i16> {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x80 * ONES;
        let chunk = self.bytes().get(self.pos..self.pos + 8)?;
        let mut word = u64::from_le_bytes(chunk.try_into().ok()?);
        let neg = word as u8 == b'-';
        if neg {
            word >>= 8;
        }
        // Bit 7 of byte k is set iff byte k is an ASCII digit: the low
        // seven bits are ≥ '0' and < ':' (neither sum carries out of its
        // byte), and bit 7 itself is clear.
        let low = word & (0x7f * ONES);
        let digit = (low + (0x80 - u64::from(b'0')) * ONES)
            & !(low + (0x80 - u64::from(b':')) * ONES)
            & !word
            & HIGH;
        // Digits run from byte 0 up to the first non-digit byte; the
        // shifted-out sign leaves a zero top byte, so a negative number
        // never reads as eight digits.
        let len = (!digit & HIGH).trailing_zeros() as usize / 8;
        if !(1..=5).contains(&len) || (word >> (8 * len)) as u8 != b',' {
            return None;
        }
        // Digit values, left-aligned so the number reads as eight digits
        // with leading zeros (byte 0 the most significant), then combined
        // pairwise: bytes into two-digit pairs, pairs into the value.
        let v = (word.wrapping_sub(u64::from(b'0') * ONES)) << (64 - 8 * len);
        let v = v.wrapping_mul(10).wrapping_add(v >> 8);
        const PAIRS: u64 = 0x0000_00ff_0000_00ff;
        let v = (v & PAIRS)
            .wrapping_mul(100 + (1_000_000 << 32))
            .wrapping_add(((v >> 16) & PAIRS).wrapping_mul(1 + (10_000 << 32)))
            >> 32;
        // invariant: at most five digits, so v ≤ 99 999 fits i32.
        let mag = v as i32;
        let w = i16::try_from(if neg { -mag } else { mag }).ok()?;
        self.pos += usize::from(neg) + len + 1;
        Some(w)
    }

    /// Consumes a number, or skips a value of any other type (`None`).
    fn number_or_skip(&mut self) -> Result<Option<Num>, JsonProblemError> {
        if let Some(b'-' | b'0'..=b'9') = self.peek() {
            self.number().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }
}

/// One top-level field of a problem object as the scan found it.
#[derive(Debug, Default)]
enum Field<T> {
    /// Absent.
    #[default]
    Missing,
    /// Present with the wrong JSON type.
    BadType,
    /// Present and decoded.
    Got(T),
}

impl<T> Field<T> {
    fn is_missing(&self) -> bool {
        matches!(self, Field::Missing)
    }

    fn get(self, field: &'static str, expected: &'static str) -> Result<T, JsonProblemError> {
        match self {
            Field::Missing => Err(JsonProblemError::MissingField(field)),
            Field::BadType => Err(JsonProblemError::BadType { field, expected }),
            Field::Got(v) => Ok(v),
        }
    }
}

/// The `"upper"` array, streamed: one `i16` per element (0 standing in
/// for a rejected one) and the first element error by index.
#[derive(Debug)]
struct Upper {
    weights: Vec<i16>,
    first_bad: Option<JsonProblemError>,
}

/// Why the first malformed edge is malformed, in the raw terms the
/// range checks (which need `n`) are applied to afterwards.
#[derive(Debug)]
enum EdgeFault {
    NotArray,
    Arity,
    Triple {
        u: Option<u64>,
        v: Option<u64>,
        w: Result<i16, JsonProblemError>,
    },
}

/// The `"edges"` array, streamed: every edge before the first one with
/// an `n`-independent fault, as raw 1-indexed `(u, v, w)` with `u ≠ v`
/// and `−w` in range, then that fault (later edges cannot matter).
#[derive(Debug)]
struct Edges {
    raw: Vec<(u64, u64, i16)>,
    fault: Option<(usize, EdgeFault)>,
}

/// A problem object scanned by [`read_problem`]: syntax already
/// checked, semantic checks deferred to [`ProblemDraft::build`].
#[derive(Debug, Default)]
pub struct ProblemDraft {
    object: bool,
    format: Field<String>,
    n: Field<usize>,
    upper: Field<Upper>,
    edges: Field<Edges>,
}

/// Reads an `i16` weight, with typed rejections for non-integers
/// (including floats) and overflow.
fn weight(num: Option<Num>, field: &'static str, index: usize) -> Result<i16, JsonProblemError> {
    let w = num
        .and_then(Num::as_i64)
        .ok_or(JsonProblemError::NotInteger { field, index })?;
    i16::try_from(w).map_err(|_| JsonProblemError::Overflow {
        field,
        index,
        value: w,
    })
}

/// Scans one problem value at the cursor (any JSON value; a non-object
/// is reported by [`ProblemDraft::build`]).
///
/// # Errors
/// Only [`JsonProblemError::Syntax`].
pub fn read_problem(r: &mut Reader<'_>) -> Result<ProblemDraft, JsonProblemError> {
    let mut d = ProblemDraft::default();
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        return Ok(d);
    }
    d.object = true;
    r.object(|r, key| {
        match key {
            "format" if d.format.is_missing() => {
                d.format = field(r, b'"', |r| Ok(r.string()?.into_owned()))?;
            }
            "n" if d.n.is_missing() => {
                d.n = match r.number_or_skip()?.and_then(Num::as_u64) {
                    Some(n) => usize::try_from(n).map_or(Field::BadType, Field::Got),
                    None => Field::BadType,
                };
            }
            "upper" if d.upper.is_missing() => {
                // Presize from a declared n, but never past what the
                // remaining text could hold (≥ 2 bytes per weight).
                let cap = match d.n {
                    Field::Got(n) => (n.saturating_mul(n.saturating_add(1)) / 2)
                        .min((r.text.len() - r.pos) / 2 + 1),
                    _ => 0,
                };
                d.upper = field(r, b'[', |r| read_upper(r, cap))?;
            }
            "edges" if d.edges.is_missing() => d.edges = field(r, b'[', read_edges)?,
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    Ok(d)
}

/// Decodes the value at the cursor with `decode` when it starts with
/// `first` (its JSON type), and skips it as [`Field::BadType`] when not.
fn field<'a, T>(
    r: &mut Reader<'a>,
    first: u8,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonProblemError>,
) -> Result<Field<T>, JsonProblemError> {
    if r.peek() == Some(first) {
        decode(r).map(Field::Got)
    } else {
        r.skip_value().map(|()| Field::BadType)
    }
}

/// Streams the `"upper"` array with its own walk of the array. Runs of
/// plain `w,` elements take the SWAR fast path
/// ([`Reader::swar_weight`]), which consumes the comma too, so each
/// such element costs one eight-byte read. Any other element takes the
/// element path, exactly as [`Reader::array`] would hand it over.
fn read_upper(r: &mut Reader<'_>, cap: usize) -> Result<Upper, JsonProblemError> {
    let mut up = Upper {
        weights: Vec::with_capacity(cap),
        first_bad: None,
    };
    let mut more = r.open_array()?;
    while more {
        while let Some(w) = r.swar_weight() {
            up.weights.push(w);
        }
        r.skip_ws();
        let index = up.weights.len();
        let w = match r.short_weight() {
            Some(w) => w,
            None => weight(r.number_or_skip()?, "upper", index).unwrap_or_else(|e| {
                up.first_bad.get_or_insert(e);
                0
            }),
        };
        up.weights.push(w);
        more = r.after_element()?;
    }
    Ok(up)
}

fn read_edges(r: &mut Reader<'_>) -> Result<Edges, JsonProblemError> {
    let mut edges = Edges {
        raw: Vec::new(),
        fault: None,
    };
    r.array(|r, index| {
        if edges.fault.is_some() {
            return r.skip_value();
        }
        if r.peek() != Some(b'[') {
            r.skip_value()?;
            edges.fault = Some((index, EdgeFault::NotArray));
            return Ok(());
        }
        let (mut u, mut v, mut w, mut arity) = (None, None, None, 0);
        r.array(|r, k| {
            arity = k + 1;
            match k {
                0 => u = r.number_or_skip()?.and_then(Num::as_u64),
                1 => v = r.number_or_skip()?.and_then(Num::as_u64),
                2 => w = Some(weight(r.number_or_skip()?, "edges", index)),
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        match (arity, u, v, w) {
            (3, Some(u), Some(v), Some(Ok(w))) if u != v && w != i16::MIN => {
                edges.raw.push((u, v, w));
            }
            (3, u, v, Some(w)) => edges.fault = Some((index, EdgeFault::Triple { u, v, w })),
            _ => edges.fault = Some((index, EdgeFault::Arity)),
        }
        Ok(())
    })?;
    Ok(edges)
}

/// Validates one edge against `n` in the historical check order (`u`,
/// then `v`, then self-loop, then the weight and its negation) and
/// returns its 0-indexed endpoints and weight.
fn check_edge(
    n: usize,
    index: usize,
    u: Option<u64>,
    v: Option<u64>,
    w: Result<i16, JsonProblemError>,
) -> Result<(usize, usize, i16), JsonProblemError> {
    let vertex = |id: Option<u64>, why: &'static str| {
        let id = id
            .and_then(|id| usize::try_from(id).ok())
            .ok_or(JsonProblemError::BadEdge { index, why })?;
        if id == 0 || id > n {
            return Err(JsonProblemError::BadEdge {
                index,
                why: "vertex id out of range (ids are 1-indexed)",
            });
        }
        Ok(id - 1)
    };
    let u = vertex(u, "u is not a positive integer")?;
    let v = vertex(v, "v is not a positive integer")?;
    if u == v {
        return Err(JsonProblemError::BadEdge {
            index,
            why: "self-loop",
        });
    }
    let w = w?;
    // `−w` must also fit the weight range (`−(−32768)` does not).
    if w == i16::MIN {
        return Err(JsonProblemError::Overflow {
            field: "edges",
            index,
            value: i64::from(w),
        });
    }
    Ok((u, v, w))
}

impl ProblemDraft {
    /// Runs the semantic checks in their fixed order and builds the
    /// matrix.
    ///
    /// # Errors
    /// Any [`JsonProblemError`] but `Syntax`.
    pub fn build(self) -> Result<Qubo, JsonProblemError> {
        if !self.object {
            return Err(JsonProblemError::NotObject);
        }
        let format = self.format.get("format", "a string")?;
        let n = || self.n.get("n", "a non-negative integer");
        match format.as_str() {
            "dense" => {
                let n = n()?;
                let upper = self.upper.get("upper", "an array of integers")?;
                build_dense(n, upper)
            }
            "edge-list" => {
                let n = n()?;
                let edges = self.edges.get("edges", "an array of [u, v, w] triples")?;
                build_edge_list(n, edges)
            }
            _ => Err(JsonProblemError::UnknownFormat(format)),
        }
    }
}

/// The `"dense"` encoding: `n` plus the row-major upper triangle
/// (diagonal included).
fn build_dense(n: usize, upper: Upper) -> Result<Qubo, JsonProblemError> {
    let expected = n
        .checked_add(1)
        .and_then(|m| n.checked_mul(m))
        .map(|x| x / 2)
        .ok_or(JsonProblemError::Problem(QuboError::BadSize(n)))?;
    if upper.weights.len() != expected {
        return Err(JsonProblemError::SizeMismatch {
            expected,
            got: upper.weights.len(),
        });
    }
    check_size(n)?;
    if let Some(e) = upper.first_bad {
        return Err(e);
    }
    Ok(Qubo::from_upper(n, &upper.weights)?)
}

/// The `"edge-list"` encoding with the Max-Cut QUBO mapping of
/// [`crate::format::parse_edge_list`]: duplicate edges fold by
/// accumulation, and the accumulated cell must still fit `i16`. The
/// edges fold in O(n + nnz) memory into a CSR-built instance
/// ([`Qubo::from_triplets`]), which stays sparse: nothing here writes an
/// `n²` matrix.
fn build_edge_list(n: usize, edges: Edges) -> Result<Qubo, JsonProblemError> {
    check_size(n)?;
    let mut triplets = Vec::with_capacity(edges.raw.len().saturating_mul(3));
    for (index, &(u, v, w)) in edges.raw.iter().enumerate() {
        let (u, v, w) = check_edge(n, index, Some(u), Some(v), Ok(w))?;
        triplets.extend([(u, v, w), (u, u, -w), (v, v, -w)]);
    }
    if let Some((index, fault)) = edges.fault {
        return Err(match fault {
            EdgeFault::NotArray => JsonProblemError::BadEdge {
                index,
                why: "not an array",
            },
            EdgeFault::Arity => JsonProblemError::BadEdge {
                index,
                why: "expected exactly [u, v, w]",
            },
            EdgeFault::Triple { u, v, w } => match check_edge(n, index, u, v, w) {
                Err(e) => e,
                // invariant: a triple is a fault only when one of the
                // checks above rejects it whatever n is.
                Ok(_) => JsonProblemError::BadEdge {
                    index,
                    why: "expected exactly [u, v, w]",
                },
            },
        });
    }
    Ok(Qubo::from_triplets(n, &triplets)?)
}

/// Parses a JSON problem payload into a [`Qubo`] in one pass: dense rows
/// for the `"dense"` format, a CSR-built instance for `"edge-list"`.
///
/// # Errors
/// [`JsonProblemError`] on malformed JSON, an unknown `"format"`,
/// non-integer or out-of-range weights, a mismatched upper-triangle
/// length, or malformed edges.
pub fn parse_problem(text: &str) -> Result<Qubo, JsonProblemError> {
    let mut r = Reader::new(text);
    let draft = read_problem(&mut r)?;
    r.end()?;
    draft.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format;
    use crate::BitVec;

    #[test]
    fn dense_round_trips_the_fig1_example() {
        let q = parse_problem(
            r#"{"format": "dense", "n": 4,
                "upper": [-5, 2, 0, 3, -3, 1, 0, -8, 2, -6]}"#,
        )
        .unwrap();
        let x = BitVec::from_bits(&[1, 0, 1, 1]);
        // Diagonals x_0, x_2, x_3 plus the set couplers W_03 and W_23,
        // counted once per unordered pair (both triangles are stored).
        assert_eq!(q.energy(&x), -5 - 8 - 6 + 2 * (3 + 2));
        assert_eq!(q.get(0, 3), 3);
        assert_eq!(q.get(3, 0), 3);
    }

    #[test]
    fn dense_rejects_mismatched_n() {
        let err = parse_problem(r#"{"format": "dense", "n": 3, "upper": [1, 2, 3]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::SizeMismatch {
                expected: 6,
                got: 3
            }
        );
    }

    #[test]
    fn dense_rejects_floats_and_overflow() {
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [1.5]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::NotInteger {
                field: "upper",
                index: 0
            }
        );
        // Exponent-form floats are floats even when integral in value.
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [1e2]}"#).unwrap_err();
        assert!(matches!(err, JsonProblemError::NotInteger { .. }));
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [40000]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::Overflow {
                field: "upper",
                index: 0,
                value: 40000
            }
        );
    }

    #[test]
    fn nan_is_a_syntax_error() {
        // JSON has no NaN literal; it must die at the syntax layer, not
        // sneak through as a number.
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [NaN]}"#).unwrap_err();
        assert!(matches!(err, JsonProblemError::Syntax(_)));
    }

    #[test]
    fn missing_and_mistyped_fields_are_typed() {
        assert_eq!(
            parse_problem("[1, 2]").unwrap_err(),
            JsonProblemError::NotObject
        );
        assert_eq!(
            parse_problem(r#"{"n": 2}"#).unwrap_err(),
            JsonProblemError::MissingField("format")
        );
        assert_eq!(
            parse_problem(r#"{"format": "dense", "upper": []}"#).unwrap_err(),
            JsonProblemError::MissingField("n")
        );
        assert_eq!(
            parse_problem(r#"{"format": "csr", "n": 2}"#).unwrap_err(),
            JsonProblemError::UnknownFormat("csr".into())
        );
        assert!(matches!(
            parse_problem(r#"{"format": "dense", "n": -3, "upper": []}"#).unwrap_err(),
            JsonProblemError::BadType { field: "n", .. }
        ));
    }

    #[test]
    fn edge_list_matches_the_text_format_encoding() {
        // Same instance through both codecs must yield identical
        // energies everywhere (4 vertices, exhaustive check).
        let json = r#"{"format": "edge-list", "n": 4,
                       "edges": [[1, 2, 3], [2, 3, 1], [3, 4, 2], [1, 4, -1], [1, 2, 2]]}"#;
        let q = parse_problem(json).unwrap();
        let text = "4 5\n1 2 3\n2 3 1\n3 4 2\n1 4 -1\n1 2 2\n";
        let sparse = format::parse_edge_list(text).unwrap();
        for bits in 0..16u32 {
            let x = BitVec::from_bits(&[
                (bits & 1) as u8,
                ((bits >> 1) & 1) as u8,
                ((bits >> 2) & 1) as u8,
                ((bits >> 3) & 1) as u8,
            ]);
            assert_eq!(q.energy(&x), sparse.energy(&x), "bits {bits:#06b}");
        }
    }

    #[test]
    fn edge_list_rejects_bad_edges() {
        let e = |json: &str| parse_problem(json).unwrap_err();
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 1, 2]]}"#),
            JsonProblemError::BadEdge {
                index: 0,
                why: "self-loop"
            }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[0, 2, 1]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 4, 1]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 2]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 2, 0.5]]}"#),
            JsonProblemError::NotInteger {
                field: "edges",
                index: 0
            }
        ));
    }

    #[test]
    fn accumulated_overflow_is_reported_per_cell() {
        let json = r#"{"format": "edge-list", "n": 2,
                       "edges": [[1, 2, 30000], [1, 2, 30000]]}"#;
        assert!(matches!(
            parse_problem(json).unwrap_err(),
            JsonProblemError::Problem(QuboError::WeightOverflow(_, _))
        ));
    }

    #[test]
    fn keys_may_come_in_any_order() {
        let q = parse_problem(r#"{"upper": [1, 2, 3], "n": 2, "format": "dense"}"#).unwrap();
        assert_eq!((q.get(0, 0), q.get(1, 0), q.get(1, 1)), (1, 2, 3));
        let q = parse_problem(r#"{"edges": [[1, 2, 4]], "format": "edge-list", "n": 2}"#).unwrap();
        assert_eq!((q.get(0, 1), q.diag(0)), (4, -4));
        // The semantic check order ignores text order: a bad weight ahead
        // of a missing "format" still reports the missing field.
        assert_eq!(
            parse_problem(r#"{"upper": [1.5], "n": 1}"#).unwrap_err(),
            JsonProblemError::MissingField("format")
        );
    }

    #[test]
    fn the_first_occurrence_of_a_duplicate_key_wins() {
        let q = parse_problem(
            r#"{"format": "dense", "n": 1, "n": 2, "upper": [7], "upper": [1, 2, 3]}"#,
        )
        .unwrap();
        assert_eq!((q.n(), q.get(0, 0)), (1, 7));
        // Later duplicates are ignored even when they would be refused.
        let q =
            parse_problem(r#"{"format": "dense", "format": 5, "n": 1, "upper": [-1]}"#).unwrap();
        assert_eq!(q.get(0, 0), -1);
        assert_eq!(
            parse_problem(r#"{"format": "dense", "n": -1, "n": 1, "upper": [1]}"#).unwrap_err(),
            JsonProblemError::BadType {
                field: "n",
                expected: "a non-negative integer"
            }
        );
    }

    #[test]
    fn syntax_errors_win_over_semantic_ones() {
        // The float at upper[0] is seen first, but the document is not
        // JSON, and that is what gets reported.
        assert!(matches!(
            parse_problem(r#"{"format": "dense", "n": 1, "upper": [1.5], "x": tru}"#).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
        assert!(matches!(
            parse_problem(r#"{"format": "csv"} trailing"#).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
        assert!(matches!(
            parse_problem(r#"[1, 2"#).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| {
            format!(
                r#"{{"format": "dense", "n": 1, "upper": [1], "x": {}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        // The problem object itself is one level.
        assert!(parse_problem(&nested(MAX_DEPTH - 1)).is_ok());
        assert!(matches!(
            parse_problem(&nested(MAX_DEPTH)).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
        // Far past the cap, an unclosed run is refused without recursing.
        let hostile = format!(r#"{{"x": {}"#, "[".repeat(100_000));
        assert!(matches!(
            parse_problem(&hostile).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
    }

    #[test]
    fn non_numbers_and_huge_numbers_are_not_integers() {
        for (element, index) in [(r#""7""#, 1), ("null", 1), ("[1]", 1), ("1E1", 1)] {
            let doc = format!(r#"{{"format": "dense", "n": 2, "upper": [1, {element}, 3]}}"#);
            assert_eq!(
                parse_problem(&doc).unwrap_err(),
                JsonProblemError::NotInteger {
                    field: "upper",
                    index
                },
                "{element}"
            );
        }
        // Past u64 the digits parse as a float; past i64 (but within
        // u64) they are still not an i64.
        for big in ["99999999999999999999", "9223372036854775808"] {
            let doc = format!(r#"{{"format": "dense", "n": 1, "upper": [{big}]}}"#);
            assert!(matches!(
                parse_problem(&doc).unwrap_err(),
                JsonProblemError::NotInteger { index: 0, .. }
            ));
        }
        let doc = r#"{"format": "dense", "n": 1, "upper": [-9223372036854775808]}"#;
        assert_eq!(
            parse_problem(doc).unwrap_err(),
            JsonProblemError::Overflow {
                field: "upper",
                index: 0,
                value: i64::MIN
            }
        );
    }

    #[test]
    fn the_largest_n_is_a_bad_size_not_an_overflow() {
        let doc = r#"{"format": "dense", "n": 18446744073709551615, "upper": [1]}"#;
        assert_eq!(
            parse_problem(doc).unwrap_err(),
            JsonProblemError::Problem(QuboError::BadSize(usize::MAX))
        );
    }

    /// An `"upper"` array decoded by [`read_upper`] (fast path first)
    /// and by the full number scan alone, element by element, as
    /// (weights, first element error) or the syntax error, plus where
    /// the cursor stopped.
    type Decoded = (
        Result<(Vec<i16>, Option<JsonProblemError>), JsonProblemError>,
        usize,
    );

    fn upper_fast(text: &str) -> Decoded {
        let mut r = Reader::new(text);
        let up = read_upper(&mut r, 0).map(|u| (u.weights, u.first_bad));
        (up, r.pos())
    }

    fn upper_by_elements(text: &str) -> Decoded {
        let mut r = Reader::new(text);
        let (mut weights, mut first_bad) = (Vec::new(), None);
        let done = r.array(|r, index| {
            let w = weight(r.number_or_skip()?, "upper", index).unwrap_or_else(|e| {
                first_bad.get_or_insert(e);
                0
            });
            weights.push(w);
            Ok(())
        });
        (done.map(|()| (weights, first_bad)), r.pos())
    }

    /// The fast path and the element path agree on `text` and on every
    /// truncation of it.
    fn assert_paths_agree(text: &str) {
        for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
            let t = &text[..cut];
            assert_eq!(upper_fast(t), upper_by_elements(t), "{t:?}");
        }
    }

    #[test]
    fn the_upper_fast_path_matches_the_element_path_on_edge_cases() {
        let elements = [
            "-32768", "32767", "32768", "-32769", "-0", "0", "-00000", "007", "-0042", "00000",
            "000000", "123456", "-123456", "99999", "-99999", "1.0", "-1.5", "1e2", "1E2", "-2e-1",
            "1.", "-", "--1", "+1", r#""7""#, "null", "true", "[1]", "{}", "1x",
            // The bytes on either side of the digits, and a non-ASCII one.
            "1/2", "1:2", "/", ":", "-:", "1é", "\u{b1}1",
        ];
        let seps = [",", " ,", ", ", "\n,\t", " , "];
        for (k, e) in elements.iter().enumerate() {
            for (s, sep) in seps.iter().enumerate() {
                // The element first, inside a run of plain weights and
                // last, with and without eight bytes of lookahead.
                let near = elements[(k + s) % elements.len()];
                for doc in [
                    format!("[{e}{sep}12345,-2]"),
                    format!("[-1,22,{e}{sep}333,-4444,5]"),
                    format!("[-1{sep}{near},{e}]"),
                    format!("[{e}]"),
                    format!("[{e},{near}{sep}{e}] , 1"),
                ] {
                    assert_paths_agree(&doc);
                }
            }
        }
        // The fast path reads what the element path reads.
        let (got, _) = upper_fast("[-32768,32767,-0,007,00000,-5,1 ,2]");
        assert_eq!(got, Ok((vec![i16::MIN, i16::MAX, 0, 7, 0, -5, 1, 2], None)));
        let (got, _) = upper_fast("[1,32768,2,1.0,3]");
        assert_eq!(
            got.unwrap().1,
            Some(JsonProblemError::Overflow {
                field: "upper",
                index: 1,
                value: 32768
            })
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn the_upper_fast_path_matches_the_element_path(seed in proptest::prelude::any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut doc = String::from("[");
            for k in 0..rng.gen_range(0..40) {
                if k > 0 {
                    doc.push_str([",", ",", ",", " ,", ", ", "\n,"][rng.gen_range(0..6)]);
                }
                let v: i64 = match rng.gen_range(0..4) {
                    0 => rng.gen_range(-9..=9),
                    1 => rng.gen_range(-99_999..=99_999),
                    2 => rng.gen_range(-32_770..=32_770),
                    _ => rng.gen_range(-9_999_999..=9_999_999),
                };
                if v < 0 {
                    doc.push('-');
                }
                for _ in 0..rng.gen_range(0..3) / 2 {
                    doc.push('0');
                }
                doc.push_str(&v.unsigned_abs().to_string());
                match rng.gen_range(0..40) {
                    0 => doc.push_str(".0"),
                    1 => doc.push_str("e1"),
                    2 => doc.push('x'),
                    _ => {}
                }
            }
            doc.push(']');
            assert_paths_agree(&doc);
        }
    }

    #[test]
    fn escaped_keys_and_strings_decode() {
        let q = parse_problem(r#"{"\u0066ormat": "den\u0073e", "n": 1, "upper": [2]}"#).unwrap();
        assert_eq!(q.get(0, 0), 2);
        assert!(matches!(
            parse_problem(r#"{"format": "dense\q"}"#).unwrap_err(),
            JsonProblemError::Syntax(_)
        ));
    }
}

//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The workspace builds fully offline, so there is no tokio/axum (or
//! any async runtime) to reach for; the serving layer needs exactly
//! five routes, one request per connection, and Server-Sent Events for
//! the progress stream — a hand-rolled parser over blocking sockets
//! covers that in a few hundred auditable lines (DESIGN.md §12 records
//! the trade-off). Every connection is `Connection: close`: job
//! submission and polling are low-rate control traffic, not the data
//! path, and the solver itself never blocks on a socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (a dense 2048-bit upper triangle in
/// JSON is ~15 MiB; edge lists are far smaller).
pub const MAX_BODY: usize = 32 * 1024 * 1024;
/// How long a worker waits on a slow client before giving up (set on
/// the socket by the caller of [`read_request`]).
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path component only (no query parsing; none of the routes need
    /// it).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// A request the parser refuses, mapped to a status code.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing: 400.
    BadRequest(String),
    /// Declared body beyond [`MAX_BODY`]: 413.
    PayloadTooLarge,
    /// The socket died or timed out mid-request; nothing to answer.
    Disconnected,
}

/// Reads and parses exactly one request from `stream` (a socket in
/// the server, a byte slice in tests). The body is read straight into
/// one buffer reserved from `Content-Length`, which [`MAX_BODY`] bounds
/// before anything is allocated; a `Content-Length` that is not all
/// digits, or appears twice, is refused.
///
/// # Errors
/// [`HttpError`] as above; the caller maps `BadRequest` /
/// `PayloadTooLarge` to responses and drops `Disconnected` silently.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    const READ: usize = 4096;
    let mut buf: Vec<u8> = Vec::with_capacity(READ);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::BadRequest("request head too large".into()));
        }
        let filled = buf.len();
        buf.resize(filled + READ, 0);
        let n = stream
            .read(&mut buf[filled..])
            .map_err(|_| HttpError::Disconnected)?;
        buf.truncate(filled + n);
        if n == 0 {
            return Err(HttpError::Disconnected);
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(HttpError::BadRequest("duplicate Content-Length".into()));
            }
            content_length = Some(parse_content_length(value.trim())?);
        }
    }
    let content_length = content_length.unwrap_or(0);

    let early = &buf[head_end + 4..];
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(&early[..early.len().min(content_length)]);
    let missing = (content_length - body.len()) as u64;
    stream
        .take(missing)
        .read_to_end(&mut body)
        .map_err(|_| HttpError::Disconnected)?;
    if body.len() < content_length {
        return Err(HttpError::BadRequest("truncated body".into()));
    }
    Ok(Request { method, path, body })
}

/// `Content-Length` is `1*DIGIT`; a value past [`MAX_BODY`] (however
/// many digits) is a 413, anything else non-numeric a 400.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadRequest("bad Content-Length".into()));
    }
    match value.parse::<usize>() {
        Ok(len) if len <= MAX_BODY => Ok(len),
        _ => Err(HttpError::PayloadTooLarge),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Canonical reason phrases for the status codes the server emits.
#[must_use]
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and flushes.
///
/// # Errors
/// Propagates socket errors; the caller treats them as a disconnect.
pub fn write_response(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(code),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Starts a Server-Sent Events response; events follow via
/// [`write_sse_event`].
///
/// # Errors
/// Propagates socket errors.
pub fn write_sse_header(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one SSE frame (`event:` line only when `name` is given).
///
/// # Errors
/// Propagates socket errors; a failed write means the client went away
/// and the stream loop should end.
pub fn write_sse_event(
    stream: &mut TcpStream,
    name: Option<&str>,
    data: &str,
) -> std::io::Result<()> {
    if let Some(name) = name {
        stream.write_all(b"event: ")?;
        stream.write_all(name.as_bytes())?;
        stream.write_all(b"\n")?;
    }
    stream.write_all(b"data: ")?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\n\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs the parser over raw bytes.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &raw[..])
    }

    /// Hands out at most `step` bytes per read, so heads and bodies
    /// arrive split at arbitrary points, as they do from a socket.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn post(content_length: &str, body: &[u8]) -> Vec<u8> {
        let mut raw =
            format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {content_length}\r\n\r\n")
                .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse_raw(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{\"a\": 1}\n");
    }

    #[test]
    fn parses_a_get_and_strips_query() {
        let req = parse_raw(b"GET /jobs/7/events?from=3 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/7/events");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(
            parse_raw(b"GET\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_raw(head.as_bytes()),
            Err(HttpError::PayloadTooLarge)
        ));
    }

    #[test]
    fn body_lands_in_one_exact_reservation() {
        let body = vec![b'7'; 100_000];
        let req = read_request(&mut Trickle {
            data: &post("100000", &body),
            step: 4093,
        })
        .unwrap();
        assert_eq!(req.body, body);
        assert_eq!(req.body.capacity(), body.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn truncated_requests_are_typed(cut in 0usize..4096, step in 1usize..40) {
            let raw = post("12", b"{\"a\": [1,2]}");
            let head_len = raw.len() - 12;
            let cut = cut % (raw.len() + 1);
            match read_request(&mut Trickle { data: &raw[..cut], step }) {
                Ok(req) => {
                    prop_assert_eq!(cut, raw.len());
                    prop_assert_eq!(&req.body[..], &raw[head_len..]);
                }
                // The head never completed.
                Err(HttpError::Disconnected) => prop_assert!(cut < head_len),
                // The head did, the body did not.
                Err(HttpError::BadRequest(m)) => {
                    prop_assert!(cut >= head_len && cut < raw.len(), "{m}");
                }
                Err(HttpError::PayloadTooLarge) => prop_assert!(false, "413 for a 12-byte body"),
            }
        }

        #[test]
        fn content_length_values_are_typed(
            digits in proptest::collection::vec(0u8..10, 0..30),
            junk in 0usize..12,
            sent in 0usize..64,
            step in 1usize..40,
        ) {
            // Mostly digit runs (short, huge, leading zeros), sometimes
            // with a sign, a space, a letter or a dot spliced in.
            let mut value: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
            if let Some(bad) = ["-", "+", " 1", "x", ".", "0x1"].get(junk) {
                value.insert_str(value.len() / 2, bad);
            }
            let body = vec![b'1'; sent];
            let raw = post(&value, &body);
            let got = read_request(&mut Trickle { data: &raw, step });
            let trimmed = value.trim();
            let numeric = !trimmed.is_empty() && trimmed.bytes().all(|b| b.is_ascii_digit());
            let declared = trimmed.parse::<u128>().ok().filter(|_| numeric);
            match (declared, got) {
                (None, Err(HttpError::BadRequest(_))) => {}
                (Some(len), Err(HttpError::PayloadTooLarge)) => {
                    prop_assert!(len > MAX_BODY as u128);
                }
                (Some(len), Ok(req)) => {
                    prop_assert!(len <= sent as u128);
                    prop_assert_eq!(req.body.len() as u128, len);
                    prop_assert!(req.body.capacity() <= MAX_BODY);
                }
                (Some(len), Err(HttpError::BadRequest(m))) => {
                    prop_assert!(len > sent as u128 && len <= MAX_BODY as u128, "{m}");
                }
                (declared, got) => {
                    prop_assert!(false, "{value:?} (declared {declared:?}) gave {got:?}");
                }
            }
        }

        #[test]
        fn duplicate_content_length_is_refused(a in 0usize..20, b in 0usize..20) {
            let raw = format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {a}\r\ncontent-length: {b}\r\n\r\n{}",
                "x".repeat(a.max(b))
            );
            prop_assert!(matches!(
                parse_raw(raw.as_bytes()),
                Err(HttpError::BadRequest(_))
            ));
        }

        #[test]
        fn arbitrary_bytes_never_panic(
            raw in proptest::collection::vec(0u8..=255, 0..600),
            step in 1usize..64,
        ) {
            let mut with_head = b"POST / HTTP/1.1\r\nContent-Length: 40\r\n".to_vec();
            with_head.extend_from_slice(&raw);
            for data in [&raw[..], &with_head[..]] {
                if let Ok(req) = read_request(&mut Trickle { data, step }) {
                    prop_assert!(req.body.capacity() <= MAX_BODY);
                }
            }
        }
    }
}

//! The client side of the wire: spawning `abs-server`, one-shot
//! HTTP/1.1 requests (the server closes every connection after one
//! response), and following a job's SSE stream to its `end` frame.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single read may block before the request counts as
/// failed (a job's own `timeout_ms` is far below this).
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a fresh server may take to answer its first `/metrics`.
const STARTUP_LIMIT: Duration = Duration::from_secs(20);

/// A spawned `abs-server`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// Ephemeral port parsed from the startup line.
    pub port: u16,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits for the first
    /// 200 from `GET /metrics`. Returns the server and that set-up time,
    /// measured from just before the spawn.
    ///
    /// # Errors
    /// Spawn failure, an unparseable startup line, or no 200 in time.
    pub fn start(bin: &Path, flags: &[&str]) -> std::io::Result<(Self, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1", "--port", "0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on, dropping `server` kills and reaps the child.
        let mut server = Self {
            child,
            stdout,
            port: 0,
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        // "abs-server listening on http://127.0.0.1:PORT"
        server.port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| invalid(format!("bad startup line {line:?}")))?;
        loop {
            if let Ok((200, _)) = request(server.port, "GET", "/metrics", b"") {
                return Ok((server, t0.elapsed()));
            }
            if t0.elapsed() > STARTUP_LIMIT {
                return Err(invalid("server never answered /metrics".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's process id, for `/proc` readings.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Connects and writes one request; the response is read separately, so
/// an open-loop sender can hand the socket to another thread.
///
/// # Errors
/// Connection or write failure.
pub fn send(port: u16, method: &str, path: &str, body: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    Ok(stream)
}

/// Reads a whole `Connection: close` response: `(status, body)`.
///
/// # Errors
/// Read failure or a malformed status line.
pub fn receive(mut stream: TcpStream) -> std::io::Result<(u16, String)> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad response {:?}", raw.get(..80))))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// One request on a fresh connection.
///
/// # Errors
/// As [`send`] and [`receive`].
pub fn request(port: u16, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, String)> {
    receive(send(port, method, path, body)?)
}

/// Follows `GET /jobs/{id}/events` until the `end` frame has been read
/// whole (the result is fetched, and checked, separately).
///
/// # Errors
/// Connection failure, a non-200 answer, or a stream that closes
/// without an `end` frame.
pub fn follow_events(port: u16, id: u64) -> std::io::Result<()> {
    let stream = send(port, "GET", &format!("/jobs/{id}/events"), b"")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(invalid(format!("event stream refused: {line:?}")));
    }
    let mut end = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid(format!(
                "job {id}: stream closed before its end frame"
            )));
        }
        match line.trim_end() {
            "event: end" => end = true,
            l if end && l.starts_with("data: ") => return Ok(()),
            _ => {}
        }
    }
}

/// The job id from a `201 {"id": N, ...}` body.
#[must_use]
pub fn job_id(body: &str) -> Option<u64> {
    serde_json::from_str(body).ok()?.get("id")?.as_u64()
}

//! Route dispatch and handlers.
//!
//! Five routes, one request per connection:
//!
//! | route                  | handler         | outcome                      |
//! |------------------------|-----------------|------------------------------|
//! | `POST /jobs`           | `handle_submit` | 201 + id, 429 full, 503 drain|
//! | `GET /jobs/{id}`       | `handle_status` | 200 status/result JSON       |
//! | `GET /jobs/{id}/events`| `handle_events` | 200 SSE progress stream      |
//! | `DELETE /jobs/{id}`    | `handle_cancel` | 202 accepted, 200 if settled |
//! | `GET /metrics`         | `handle_metrics`| 200 Prometheus text          |
//!
//! Handlers return typed results — no panicking shortcuts; the lint
//! rule `server-no-unwrap-in-handler` holds every `handle_*` body to
//! that. [`ApiError`] carries the status code and a JSON error body.

use crate::http::{self, HttpError, Request};
use crate::job::{AdmitError, JobId, JobPhase, JobStore, ProgressEvent};
use crate::metrics::ServerMetrics;
use crate::spec::parse_spec;
use crate::spool;
use serde::write_json_string;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How long one SSE wait round blocks before re-checking for drain.
const SSE_WAIT: Duration = Duration::from_millis(100);

/// Everything a handler can see.
pub struct AppState {
    /// The shared job table.
    pub store: Arc<JobStore>,
    /// Serving-layer instruments.
    pub metrics: Arc<ServerMetrics>,
    /// Spool directory (set when the server was started with `--spool`).
    pub spool: Option<PathBuf>,
}

/// A typed refusal: status code plus a JSON `{"error": …}` body.
#[derive(Debug)]
pub enum ApiError {
    /// 400 with a reason.
    BadRequest(String),
    /// 404: no such job.
    NotFound,
    /// 405: the path exists, the method does not.
    MethodNotAllowed,
    /// 429: the bounded queue is full.
    QueueFull,
    /// 503: drain in progress.
    Draining,
    /// 413: declared body too large.
    PayloadTooLarge,
    /// 500: an internal invariant failed.
    Internal(String),
}

impl ApiError {
    fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::NotFound => 404,
            Self::MethodNotAllowed => 405,
            Self::QueueFull => 429,
            Self::Draining => 503,
            Self::PayloadTooLarge => 413,
            Self::Internal(_) => 500,
        }
    }

    fn body(&self) -> String {
        let msg = match self {
            Self::BadRequest(m) | Self::Internal(m) => m.clone(),
            Self::NotFound => "no such job".into(),
            Self::MethodNotAllowed => "method not allowed".into(),
            Self::QueueFull => "job queue is full; retry later".into(),
            Self::Draining => "server is draining".into(),
            Self::PayloadTooLarge => "request body too large".into(),
        };
        let mut out = String::from("{\"error\": ");
        write_json_string(&msg, &mut out);
        out.push_str("}\n");
        out
    }
}

/// A non-streaming handler's success: status code + JSON body.
type Reply = (u16, String);

/// Serves one connection end to end. Owns the socket so SSE can stream.
pub fn serve_connection(mut stream: TcpStream, state: &AppState) {
    let _ = stream.set_read_timeout(Some(http::READ_TIMEOUT));
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Disconnected) => return,
        Err(HttpError::PayloadTooLarge) => {
            let e = ApiError::PayloadTooLarge;
            let _ = http::write_response(
                &mut stream,
                e.status(),
                "application/json",
                e.body().as_bytes(),
            );
            return;
        }
        Err(HttpError::BadRequest(m)) => {
            let e = ApiError::BadRequest(m);
            let _ = http::write_response(
                &mut stream,
                e.status(),
                "application/json",
                e.body().as_bytes(),
            );
            return;
        }
    };
    state.metrics.http_requests.inc();

    // The SSE route keeps the socket; everything else returns a Reply.
    if let Some(id) = route_events(&req) {
        stream_events(&mut stream, state, id);
        return;
    }
    let reply = dispatch(&req, state);
    let (code, body) = match reply {
        Ok((code, body)) => (code, body),
        Err(e) => (e.status(), e.body()),
    };
    let content_type = if code == 200 && req.path == "/metrics" {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let _ = http::write_response(&mut stream, code, content_type, body.as_bytes());
}

/// `GET /jobs/{id}/events` is the one route that streams.
fn route_events(req: &Request) -> Option<JobId> {
    if req.method != "GET" {
        return None;
    }
    let rest = req.path.strip_prefix("/jobs/")?;
    let id = rest.strip_suffix("/events")?;
    id.parse().ok()
}

fn dispatch(req: &Request, state: &AppState) -> Result<Reply, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => handle_submit(req, state),
        ("GET", "/metrics") => handle_metrics(state),
        (method, path) => {
            let Some(rest) = path.strip_prefix("/jobs/") else {
                return Err(ApiError::NotFound);
            };
            let id: JobId = rest
                .parse()
                .map_err(|_| ApiError::BadRequest(format!("bad job id {rest:?}")))?;
            match method {
                "GET" => handle_status(state, id),
                "DELETE" => handle_cancel(state, id),
                _ => Err(ApiError::MethodNotAllowed),
            }
        }
    }
}

/// `POST /jobs`: parse, persist to the spool, admit.
fn handle_submit(req: &Request, state: &AppState) -> Result<Reply, ApiError> {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::BadRequest("body is not UTF-8".into()))?;
    let spec = parse_spec(body).map_err(|e| ApiError::BadRequest(e.to_string()))?;
    let id = state.store.submit(spec, None, None).map_err(|e| {
        state.metrics.jobs_rejected.inc();
        match e {
            AdmitError::QueueFull => ApiError::QueueFull,
            AdmitError::Draining => ApiError::Draining,
        }
    })?;
    state.metrics.jobs_submitted.inc();
    state
        .metrics
        .queue_depth
        .set(state.store.queue_len() as f64);
    if let Some(dir) = &state.spool {
        // Persist the verbatim body now, so a drain can re-queue this
        // job even if it never starts. A failed write must not leave an
        // admitted-but-unspoolable job behind.
        if let Err(e) = std::fs::write(spool::job_file(dir, id), &req.body) {
            state.store.cancel(id);
            return Err(ApiError::Internal(format!("spooling job body: {e}")));
        }
    }
    Ok((201, format!("{{\"id\": {id}, \"state\": \"queued\"}}\n")))
}

/// `GET /jobs/{id}`: phase, queue position, result or error.
fn handle_status(state: &AppState, id: JobId) -> Result<Reply, ApiError> {
    let body = state
        .store
        .with_job(id, |j| {
            let mut out = format!("{{\"id\": {}, \"state\": \"{}\"", j.id, j.phase.label());
            if let Some(e) = &j.error {
                out.push_str(", \"error\": ");
                write_json_string(e, &mut out);
            }
            if let Some(r) = &j.result {
                out.push_str(", \"result\": ");
                out.push_str(&serde_json::to_string(r).unwrap_or_else(|_| "null".into()));
            }
            out.push_str(", \"tenant\": ");
            write_json_string(&j.spec.config.tenant, &mut out);
            if let Some(h) = &j.problem_hash {
                out.push_str(", \"problem_hash\": ");
                write_json_string(h, &mut out);
            }
            out.push_str(&format!(", \"warm_started\": {}", j.warm_started));
            out.push_str(&format!(", \"events\": {}", j.events.len()));
            (j.phase, out)
        })
        .ok_or(ApiError::NotFound)?;
    let (phase, mut out) = body;
    if phase == JobPhase::Queued {
        if let Some(pos) = state.store.queue_position(id) {
            out.push_str(&format!(", \"queue_position\": {pos}"));
        }
    }
    out.push_str("}\n");
    Ok((200, out))
}

/// `DELETE /jobs/{id}`: cooperative cancel.
fn handle_cancel(state: &AppState, id: JobId) -> Result<Reply, ApiError> {
    let phase = state.store.cancel(id).ok_or(ApiError::NotFound)?;
    match phase {
        // Still running: the worker honours the flag at its next poll.
        JobPhase::Running => Ok((202, "{\"state\": \"cancelling\"}\n".into())),
        settled => Ok((200, format!("{{\"state\": \"{}\"}}\n", settled.label()))),
    }
}

/// `GET /metrics`: server registry + live solver snapshot.
fn handle_metrics(state: &AppState) -> Result<Reply, ApiError> {
    state
        .metrics
        .retained_bytes
        .set(state.store.retained_bytes() as f64);
    Ok((200, state.metrics.render()))
}

/// `GET /jobs/{id}/events`: replay the whole event log, then follow
/// live until the job settles (or the server drains), closing with an
/// `end` frame that names the final state.
fn stream_events(stream: &mut TcpStream, state: &AppState, id: JobId) {
    if state.store.with_job(id, |_| ()).is_none() {
        let e = ApiError::NotFound;
        let _ = http::write_response(stream, e.status(), "application/json", e.body().as_bytes());
        return;
    }
    if http::write_sse_header(stream).is_err() {
        return;
    }
    let mut next_seq = 0usize;
    loop {
        let Some((fresh, phase, draining)) = state.store.wait_events(id, next_seq, SSE_WAIT) else {
            return;
        };
        for event in &fresh {
            if write_event_frame(stream, event).is_err() {
                return; // client went away
            }
        }
        next_seq += fresh.len();
        if phase.is_terminal() || phase == JobPhase::Interrupted || draining {
            let _ = http::write_sse_event(
                stream,
                Some("end"),
                &format!("{{\"state\": \"{}\"}}", phase.label()),
            );
            return;
        }
    }
}

fn write_event_frame(stream: &mut TcpStream, event: &ProgressEvent) -> std::io::Result<()> {
    let data = serde_json::to_string(event).unwrap_or_else(|_| "{}".into());
    http::write_sse_event(stream, Some("progress"), &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(depth: usize) -> AppState {
        AppState {
            store: Arc::new(JobStore::new(depth)),
            metrics: Arc::new(ServerMetrics::new()),
            spool: None,
        }
    }

    fn post_jobs(body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/jobs".into(),
            body: body.as_bytes().to_vec(),
        }
    }

    const TINY: &str = r#"{"problem": {"format": "dense", "n": 1, "upper": [-1]}}"#;

    #[test]
    fn submit_then_status_then_cancel() {
        let st = state(4);
        let (code, body) = dispatch(&post_jobs(TINY), &st).unwrap();
        assert_eq!(code, 201);
        assert!(body.contains("\"id\": 1"));

        let (code, body) = handle_status(&st, 1).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"state\": \"queued\""));
        assert!(body.contains("\"queue_position\": 0"));

        let (code, body) = handle_cancel(&st, 1).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("cancelled"));
        assert!(matches!(handle_status(&st, 9), Err(ApiError::NotFound)));
    }

    #[test]
    fn full_queue_surfaces_as_429_and_drain_as_503() {
        let st = state(1);
        dispatch(&post_jobs(TINY), &st).unwrap();
        assert!(matches!(
            dispatch(&post_jobs(TINY), &st),
            Err(ApiError::QueueFull)
        ));
        st.store.begin_drain();
        assert!(matches!(
            dispatch(&post_jobs(TINY), &st),
            Err(ApiError::Draining)
        ));
        assert_eq!(st.metrics.jobs_rejected.get(), 2);
    }

    #[test]
    fn bad_payloads_are_400_with_the_codec_reason() {
        let st = state(4);
        let err = dispatch(&post_jobs("{\"problem\": 3}"), &st).unwrap_err();
        match err {
            ApiError::BadRequest(m) => assert!(m.contains("problem"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert!(matches!(
            dispatch(&post_jobs(TINY.trim_end_matches('}')), &st),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn unknown_routes_and_methods() {
        let st = state(4);
        let get = |path: &str| Request {
            method: "GET".into(),
            path: path.into(),
            body: Vec::new(),
        };
        assert!(matches!(
            dispatch(&get("/nope"), &st),
            Err(ApiError::NotFound)
        ));
        assert!(matches!(
            dispatch(
                &Request {
                    method: "PUT".into(),
                    path: "/jobs/1".into(),
                    body: Vec::new()
                },
                &st
            ),
            Err(ApiError::MethodNotAllowed)
        ));
        assert!(matches!(
            dispatch(&get("/jobs/xyz"), &st),
            Err(ApiError::BadRequest(_))
        ));
        // The events route only matches GET.
        assert_eq!(route_events(&get("/jobs/3/events")), Some(3));
        assert_eq!(
            route_events(&Request {
                method: "DELETE".into(),
                path: "/jobs/3/events".into(),
                body: Vec::new()
            }),
            None
        );
    }

    #[test]
    fn metrics_route_renders() {
        let st = state(4);
        let (code, body) = handle_metrics(&st).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("abs_server_jobs_submitted_total"));
    }
}

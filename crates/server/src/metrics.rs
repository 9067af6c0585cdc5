//! Server observability: a dedicated [`abs_telemetry::Registry`] for
//! serving-layer counters plus a live slot for the running session's
//! solver snapshot.
//!
//! `GET /metrics` renders both in one Prometheus text exposition: the
//! server registry first (`abs_server_*` families), then the most
//! recent solver snapshot published by the worker at a poll boundary
//! (`abs_*` families) — live mid-solve, not only at solve end. The
//! solver families carry the currently-running job's view; between jobs
//! the last finished job's final fold stays visible.

use abs_telemetry::expose::prometheus_text;
use abs_telemetry::{Counter, Gauge, MetricsSnapshot, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-tenant `abs_pool_blocks_leased` gauges, created on demand as
/// tenants first lease capacity. Lives in its own registry so the
/// label-bearing family renders after the plain server families.
#[derive(Default)]
struct PoolGauges {
    registry: Registry,
    tenants: HashMap<String, Arc<Gauge>>,
}

/// All serving-layer instruments, registered once at startup.
pub struct ServerMetrics {
    registry: Registry,
    /// Jobs admitted by `POST /jobs`.
    pub jobs_submitted: Arc<Counter>,
    /// Submissions refused with 429 (queue full) or 503 (draining).
    pub jobs_rejected: Arc<Counter>,
    /// Jobs finished in `done`.
    pub jobs_done: Arc<Counter>,
    /// Jobs finished in `failed`.
    pub jobs_failed: Arc<Counter>,
    /// Jobs finished in `cancelled`.
    pub jobs_cancelled: Arc<Counter>,
    /// Jobs checkpointed to the spool during drain.
    pub jobs_interrupted: Arc<Counter>,
    /// HTTP requests accepted (any route, any outcome).
    pub http_requests: Arc<Counter>,
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: Arc<Gauge>,
    /// Count of live solver sessions (kept real under concurrency by
    /// [`ServerMetrics::job_started`] / [`ServerMetrics::job_finished`]).
    pub jobs_running: Arc<Gauge>,
    /// Request body plus decoded matrix bytes the job store holds; set
    /// from [`crate::job::JobStore::retained_bytes`] at each scrape.
    pub retained_bytes: Arc<Gauge>,
    /// Authoritative running count backing `jobs_running`; the gauge
    /// API is set-only, so concurrent workers go through this atomic.
    running: AtomicI64,
    pool: Mutex<PoolGauges>,
    live: Mutex<Option<MetricsSnapshot>>,
}

impl ServerMetrics {
    /// Registers every instrument.
    #[must_use]
    pub fn new() -> Self {
        let mut r = Registry::new();
        let jobs_submitted = r.counter(
            "abs_server_jobs_submitted_total",
            &[],
            "Jobs admitted by POST /jobs.",
        );
        let jobs_rejected = r.counter(
            "abs_server_jobs_rejected_total",
            &[],
            "Submissions refused by admission control (queue full or draining).",
        );
        let jobs_done = r.counter(
            "abs_server_jobs_done_total",
            &[],
            "Jobs that met a stop condition.",
        );
        let jobs_failed = r.counter(
            "abs_server_jobs_failed_total",
            &[],
            "Jobs that failed (session start, poll error, or checkpoint write).",
        );
        let jobs_cancelled = r.counter(
            "abs_server_jobs_cancelled_total",
            &[],
            "Jobs cancelled via DELETE.",
        );
        let jobs_interrupted = r.counter(
            "abs_server_jobs_interrupted_total",
            &[],
            "Jobs checkpointed to the spool during drain.",
        );
        let http_requests = r.counter(
            "abs_server_http_requests_total",
            &[],
            "HTTP requests read off the socket.",
        );
        let queue_depth = r.gauge(
            "abs_server_queue_depth",
            &[],
            "Jobs waiting in the bounded admission queue.",
        );
        let jobs_running = r.gauge("abs_server_jobs_running", &[], "Live solver sessions.");
        let retained_bytes = r.gauge(
            "abs_server_retained_bytes",
            &[],
            "Request body and matrix bytes held by the job store (finished jobs hold none).",
        );
        Self {
            registry: r,
            jobs_submitted,
            jobs_rejected,
            jobs_done,
            jobs_failed,
            jobs_cancelled,
            jobs_interrupted,
            http_requests,
            queue_depth,
            jobs_running,
            retained_bytes,
            running: AtomicI64::new(0),
            pool: Mutex::new(PoolGauges::default()),
            live: Mutex::new(None),
        }
    }

    /// A solver worker picked up a job: bumps the live-session count.
    pub fn job_started(&self) {
        // Pure occupancy counter — no data is published under it, so
        // Relaxed is exact; the gauge tolerates scrape-order races.
        let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        self.jobs_running.set(now as f64);
    }

    /// A solver worker finished (or parked) a job.
    pub fn job_finished(&self) {
        // Same counter as job_started: Relaxed, no publication.
        let now = self.running.fetch_sub(1, Ordering::Relaxed) - 1;
        self.jobs_running.set(now.max(0) as f64);
    }

    /// Publishes the device pool's per-tenant holdings as
    /// `abs_pool_blocks_leased{tenant="..."}` gauges. Tenants absent
    /// from `per_tenant` drop to 0 (their series stays visible, which
    /// is what a scrape-based collector expects).
    pub fn set_pool_leased(&self, per_tenant: &[(String, usize)]) {
        let mut pool = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for gauge in pool.tenants.values() {
            gauge.set(0.0);
        }
        for (tenant, blocks) in per_tenant {
            if !pool.tenants.contains_key(tenant) {
                let gauge = pool.registry.gauge(
                    "abs_pool_blocks_leased",
                    &[("tenant", tenant)],
                    "Device-pool blocks currently leased, per tenant.",
                );
                pool.tenants.insert(tenant.clone(), gauge);
            }
            if let Some(gauge) = pool.tenants.get(tenant) {
                gauge.set(*blocks as f64);
            }
        }
    }

    /// Publishes the running session's latest aggregator snapshot.
    pub fn publish_live(&self, snapshot: MetricsSnapshot) {
        *self
            .live
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(snapshot);
    }

    /// Renders the combined Prometheus text exposition.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = prometheus_text(&self.registry.snapshot());
        {
            let pool = self
                .pool
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !pool.tenants.is_empty() {
                out.push_str(&prometheus_text(&pool.registry.snapshot()));
            }
        }
        let live = self
            .live
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(snapshot) = live.as_ref() {
            out.push_str(&prometheus_text(snapshot));
        }
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_telemetry::expose::parse_prometheus;

    #[test]
    fn render_is_valid_exposition_with_and_without_live() {
        let m = ServerMetrics::new();
        m.jobs_submitted.inc();
        m.queue_depth.set(2.0);
        let samples = parse_prometheus(&m.render()).unwrap();
        assert!(samples >= 9, "all server families present: {samples}");

        // Fold in a live solver snapshot; the merged text must stay a
        // valid exposition (the CI smoke check curls exactly this).
        let mut solver = Registry::new();
        solver
            .counter("abs_flips_total", &[("device", "0")], "Flips.")
            .add(7);
        m.publish_live(solver.snapshot());
        let text = m.render();
        assert!(text.contains("abs_server_jobs_submitted_total 1"));
        assert!(text.contains("abs_flips_total"));
        parse_prometheus(&text).unwrap();
    }

    #[test]
    fn jobs_running_counts_concurrent_sessions() {
        let m = Arc::new(ServerMetrics::new());
        // Interleave starts/finishes from several threads; the gauge
        // must track the true live count, not saturate at 0/1.
        m.job_started();
        m.job_started();
        m.job_started();
        assert_eq!(m.jobs_running.get(), 3.0);
        m.job_finished();
        assert_eq!(m.jobs_running.get(), 2.0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    m.job_started();
                    m.job_finished();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.jobs_running.get(), 2.0, "balanced start/finish pairs");
        m.job_finished();
        m.job_finished();
        assert_eq!(m.jobs_running.get(), 0.0);
    }

    #[test]
    fn pool_gauges_carry_tenant_labels_and_zero_on_release() {
        let m = ServerMetrics::new();
        m.set_pool_leased(&[("alice".to_string(), 12), ("bob".to_string(), 8)]);
        let text = m.render();
        assert!(text.contains("abs_pool_blocks_leased{tenant=\"alice\"} 12"));
        assert!(text.contains("abs_pool_blocks_leased{tenant=\"bob\"} 8"));
        parse_prometheus(&text).unwrap();
        // bob releases everything: the series stays, at 0.
        m.set_pool_leased(&[("alice".to_string(), 4)]);
        let text = m.render();
        assert!(text.contains("abs_pool_blocks_leased{tenant=\"alice\"} 4"));
        assert!(text.contains("abs_pool_blocks_leased{tenant=\"bob\"} 0"));
    }
}

//! Peak heap of a maximum-size sparse job, measured under a counting
//! global allocator.
//!
//! The 43-byte problem `{"format":"edge-list","n":32768,"edges":[]}`
//! goes through everything a server job does before and after its
//! search: `parse_spec`, the content digest, `ProblemCache::admit`,
//! `AbsSession::start`, a few polls and `stop`. A dense `n × n` copy of
//! it would be 2 GiB; every stage here must stay O(n + nnz).
//!
//! This binary holds exactly one test, so no other test's allocations
//! land in the counters.

use abs::{AbsSession, ProblemCache};
use abs_server::runner::solver_config;
use abs_server::spec::parse_spec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Live heap bytes and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes on the way through.
struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout, so `System`'s contract is the caller's contract;
// the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bits of the instance: `qubo::MAX_BITS`.
const N: usize = 32_768;

/// The allowed peak, in bytes per bit. The O(n) terms of a job are each
/// a few to a few dozen bytes per bit: the CSR arrays (`row_start`,
/// `diag`) and the decoder's scratch (`i64` diagonal sums, `usize` row
/// buckets); one sparse Δ tracker per block (8 blocks: Δ, signs,
/// solution words, bucket minima); the GA pool (32 solutions of n/8
/// bytes) and the targets queued per block. Together they measure about
/// 60 bytes per bit; 256 bytes per bit (8 MiB here) leaves room for
/// allocator and scheduling variation and sits 256× below the 2 GiB a
/// dense copy of the matrix would take.
const BYTES_PER_BIT: usize = 256;

#[test]
fn a_max_size_edge_list_job_peaks_at_o_n_bytes() {
    let problem = r#"{"format":"edge-list","n":32768,"edges":[]}"#;
    assert_eq!(problem.len(), 43);
    let body = format!(r#"{{"problem":{problem},"config":{{"seed":1,"timeout_ms":60000}}}}"#);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let spec = parse_spec(&body).expect("valid job");
    let hash = spec.problem.content_hash();
    let cache = ProblemCache::new(4);
    cache.admit(hash, &spec.problem);
    let mut session =
        AbsSession::start(solver_config(&spec, None), &spec.problem).expect("session starts");
    let clock = Instant::now();
    while clock.elapsed() < Duration::from_millis(30) {
        session.poll().expect("poll");
        std::thread::sleep(Duration::from_millis(2));
    }
    let result = session.stop().expect("stop");
    assert_eq!(result.best.len(), N);
    // An empty edge list has every energy 0.
    assert_eq!(result.best_energy, 0);

    let peak = PEAK.load(Ordering::Relaxed) - base;
    let bound = BYTES_PER_BIT * N;
    println!(
        "peak {peak} bytes ({:.1} per bit), bound {bound}",
        peak as f64 / N as f64
    );
    assert!(
        peak <= bound,
        "peak heap {peak} bytes exceeds the O(n) bound {bound}"
    );
}

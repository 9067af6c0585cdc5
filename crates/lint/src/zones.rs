//! Zone classification: which invariant set applies to which module.
//!
//! The paper's architecture splits responsibilities sharply (Fig. 5):
//! the device kernel is deterministic and integer-only, the host GA
//! breeds targets but never evaluates energies, and the two sides meet
//! only in global memory. The zones encode that split by path, so the
//! rules stay deny-by-default and the mapping is auditable in one place.

use crate::callgraph::Graph;
use crate::lexer::TokKind;
use crate::rules::Finding;

/// The invariant zone of one source file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Zone {
    /// The device kernel: `qubo_search` (tracker / sparse / simd / local /
    /// straight / policy), `vgpu::block`, `qubo::energy` and
    /// `qubo::sparse`. Deterministic, integer-only, allocation-free on
    /// the per-flip path.
    Device,
    /// The host GA (`crates/ga`): breeds targets, never computes energy.
    HostGa,
    /// The host orchestration side (`crates/core`, `crates/cli`):
    /// panic-free error paths required.
    Host,
    /// Everything else in `crates/*/src`: global rules only.
    Neutral,
    /// The benchmark harness (`crates/bench`): an experiment driver
    /// whose error handling *is* the panic, exempt from `no-unwrap`.
    Harness,
    /// The telemetry crate (`crates/telemetry`): host-owned, but its
    /// record/observe entry points run on device threads inside the
    /// search loop, so those bodies must be allocation-free.
    Telemetry,
    /// The serving layer (`crates/server`): long-running host process
    /// whose HTTP handlers must never panic — one unwinding handler
    /// thread poisons shared state for every later request
    /// (`server-no-unwrap-in-handler`).
    Server,
}

impl Zone {
    /// Stable lowercase label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Zone::Device => "device",
            Zone::HostGa => "host-ga",
            Zone::Host => "host",
            Zone::Neutral => "neutral",
            Zone::Harness => "harness",
            Zone::Telemetry => "telemetry",
            Zone::Server => "server",
        }
    }
}

/// Classifies a workspace-relative path (`/`-separated).
#[must_use]
pub fn classify(rel_path: &str) -> Zone {
    let p = rel_path.replace('\\', "/");
    // `naive.rs` holds the *instrumented reference implementations* of
    // Algorithms 1–3 — host-side experiment oracles for the paper's
    // search-efficiency analysis. They are never reachable from the
    // device execution path (`vgpu::block` drives only the tracker), so
    // they may use rand and floats like any other harness code.
    if p == "crates/search/src/naive.rs" {
        return Zone::Neutral;
    }
    // The CSR storage backend sits on the per-flip device path (`row`
    // and `diag` are called once per Eq. (16) update), so it obeys the
    // same integer-only, deterministic discipline as the trackers.
    if p.starts_with("crates/search/src/")
        || p == "crates/qubo/src/energy.rs"
        || p == "crates/qubo/src/sparse.rs"
        || p == "crates/vgpu/src/block.rs"
    {
        Zone::Device
    } else if p.starts_with("crates/ga/src/") {
        Zone::HostGa
    } else if p.starts_with("crates/core/src/") || p.starts_with("crates/cli/src/") {
        Zone::Host
    } else if p.starts_with("crates/bench/src/") {
        Zone::Harness
    } else if p.starts_with("crates/telemetry/src/") {
        Zone::Telemetry
    } else if p.starts_with("crates/server/src/") {
        Zone::Server
    } else {
        Zone::Neutral
    }
}

/// Files whose panicking `[]` indexing must carry a bounds-invariant
/// comment: the Δ-maintenance kernel and its driver, where an
/// out-of-bounds panic would kill a whole search block mid-iteration.
#[must_use]
pub fn indexing_audited(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p == "crates/search/src/tracker.rs"
        || p == "crates/search/src/local.rs"
        || p == "crates/search/src/sparse.rs"
        || p == "crates/qubo/src/sparse.rs"
}

/// Function names forming the per-flip hot path: one call per flip (or
/// per selection), where a heap allocation would turn the O(n) kernel
/// into an allocator benchmark. Matched by name within device files.
pub const HOT_FNS: &[&str] = &[
    "flip",
    "flip_fused",
    "flip_select",
    "select_in_window",
    "window_argmin",
    "slice_min_first",
    "local_search",
    "straight_search",
    "select",
    "next_window",
    "flip_update",
    "scalar_update",
    // CSR arm: per-write summary folds, bucket rescans, the window fold
    // and the row accessors — all inside the O(deg) flip or the
    // O(window/BUCKET) selection.
    "note_update",
    "gmin_update",
    "refresh_bucket",
    "range_min_first",
    "pack",
    // Straight walk (Algorithm 5): the bit-walk oracle, the dense arm's
    // masked argmin (alone and fused into the flip pass) and its
    // best-record locate, and the CSR arm's word-minimum upkeep — one
    // call per walk flip.
    "straight_walk",
    "walk_bits",
    "flip_walk",
    "commit_flip",
    "flip_update_walk",
    "flip_update_walk_avx512",
    "masked_argmin",
    "word_span",
    "first_index_of",
    "scan_index_of",
    "word_min",
    "walk_key",
    "walk_key_index",
    "row",
    "row_parts",
    "diag",
    "degree",
];

/// Telemetry entry points called from device threads inside the search
/// loop: one call per event / counter bump. These bodies must stay
/// allocation-free so observability never taxes the search rate
/// (`device-telemetry-alloc-free`). Constructors (`with_capacity`,
/// `new`) allocate up front by design and are deliberately absent.
pub const TELEMETRY_HOT_FNS: &[&str] = &["record", "record_event", "observe", "inc", "add"];

/// Files outside the telemetry zone whose telemetry entry points are
/// still device-facing: the global-memory facade devices record through.
#[must_use]
pub fn telemetry_audited(rel_path: &str) -> bool {
    rel_path.replace('\\', "/") == "crates/vgpu/src/buffers.rs"
}

/// Files allowed to call the checkpoint publish/load entry points
/// (`write_checkpoint` / `load_checkpoint`): the codec that owns the
/// atomic-publish protocol and the session that owns the lifecycle.
/// Devices, the GA, and telemetry must never touch checkpoint files —
/// durability is a host-session concern (DESIGN.md §11).
#[must_use]
pub fn checkpoint_io_allowed(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p == "crates/core/src/checkpoint.rs" || p == "crates/core/src/session.rs"
}

/// Files allowed to call the pool lease entry points (`acquire_lease` /
/// `release_lease`): the pool that owns the ledger and the server
/// runner that owns the job lifecycle. Sessions, devices, and routes
/// must never lease directly — capacity is a scheduler concern
/// (DESIGN.md §13).
#[must_use]
pub fn lease_api_allowed(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p == "crates/vgpu/src/pool.rs" || p == "crates/server/src/runner.rs"
}

/// The checkpoint codec file: every `from_le_bytes` deserialization in
/// it must sit under an already-verified CRC, asserted by a
/// neighbouring `// crc:` comment (`checkpoint-io-zone`).
#[must_use]
pub fn checkpoint_codec(rel_path: &str) -> bool {
    rel_path.replace('\\', "/") == "crates/core/src/checkpoint.rs"
}

/// One zone inference: a function outside the device files that the
/// call graph proves reachable from the device zone, with the chain
/// that reached it.
#[derive(Clone, Debug)]
pub struct ZoneInference {
    /// File the inferred-device function lives in.
    pub file: String,
    /// Line of its `fn` keyword.
    pub line: u32,
    /// Display name (`Type::fn` or `fn`).
    pub name: String,
    /// Call chain from a device-zone entry point.
    pub chain: String,
}

/// Transitive zone propagation: every function reachable from a
/// device-zone file inherits the device purity rules (no rand, no
/// clock, no float) regardless of which file it lives in. Returns the
/// purity findings plus the full inference table for the
/// `--zones` report.
#[must_use]
pub fn propagate(graph: &Graph) -> (Vec<Finding>, Vec<ZoneInference>) {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| graph.files[graph.nodes[n].file].zone == Zone::Device)
        .collect();
    let reach = graph.reachable(&entries);
    let mut reached: Vec<usize> = reach.keys().copied().collect();
    reached.sort_unstable();

    let mut findings = Vec::new();
    let mut inferred = Vec::new();
    for n in reached {
        let file = &graph.files[graph.nodes[n].file];
        if file.zone == Zone::Device {
            continue; // per-file rules already cover device files
        }
        let item = graph.item(n);
        let chain = graph.chain(&reach, n);
        inferred.push(ZoneInference {
            file: file.rel_path.clone(),
            line: item.line,
            name: graph.display(n),
            chain: chain.clone(),
        });
        let Some((b0, b1)) = item.body else { continue };
        let toks = &file.lexed.toks;
        for k in b0..=b1 {
            let t = &toks[k];
            let next = toks.get(k + 1);
            let hit = if t.is_ident("rand") && next.is_some_and(|n| n.is_punct(':')) {
                Some("rand crate")
            } else if t.is_ident("Instant") || t.is_ident("SystemTime") {
                Some("wall clock")
            } else if t.is_ident("f32") || t.is_ident("f64") || t.kind == TokKind::Float {
                Some("floating point")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    file: file.rel_path.clone(),
                    line: t.line,
                    rule: "zone-propagation",
                    zone: file.zone.label(),
                    message: format!(
                        "{} (`{}`) in `{}`, which is device-inferred via {}",
                        what,
                        t.text,
                        graph.display(n),
                        chain
                    ),
                    allowed: false,
                });
            }
        }
    }
    (findings, inferred)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_map_matches_the_paper_split() {
        assert_eq!(classify("crates/search/src/tracker.rs"), Zone::Device);
        assert_eq!(classify("crates/search/src/policy.rs"), Zone::Device);
        assert_eq!(classify("crates/search/src/naive.rs"), Zone::Neutral);
        assert_eq!(classify("crates/vgpu/src/block.rs"), Zone::Device);
        assert_eq!(classify("crates/qubo/src/energy.rs"), Zone::Device);
        assert_eq!(classify("crates/qubo/src/matrix.rs"), Zone::Neutral);
        assert_eq!(classify("crates/vgpu/src/buffers.rs"), Zone::Neutral);
        assert_eq!(classify("crates/ga/src/pool.rs"), Zone::HostGa);
        assert_eq!(classify("crates/core/src/solver.rs"), Zone::Host);
        assert_eq!(classify("crates/cli/src/main.rs"), Zone::Host);
        assert_eq!(classify("crates/bench/src/lib.rs"), Zone::Harness);
        assert_eq!(classify("crates/telemetry/src/ring.rs"), Zone::Telemetry);
        assert_eq!(classify("crates/telemetry/src/metrics.rs"), Zone::Telemetry);
        assert_eq!(classify("crates/server/src/routes.rs"), Zone::Server);
        assert_eq!(classify("crates/server/src/main.rs"), Zone::Server);
        assert_eq!(classify("crates/server/tests/acceptance.rs"), Zone::Neutral);
    }

    #[test]
    fn telemetry_audit_covers_the_device_facade() {
        assert!(telemetry_audited("crates/vgpu/src/buffers.rs"));
        assert!(!telemetry_audited("crates/vgpu/src/device.rs"));
        assert!(!telemetry_audited("crates/core/src/solver.rs"));
    }

    #[test]
    fn indexing_audit_covers_the_kernel_files() {
        assert!(indexing_audited("crates/search/src/tracker.rs"));
        assert!(indexing_audited("crates/search/src/local.rs"));
        assert!(indexing_audited("crates/search/src/sparse.rs"));
        assert!(indexing_audited("crates/qubo/src/sparse.rs"));
        assert!(!indexing_audited("crates/search/src/policy.rs"));
    }

    #[test]
    fn checkpoint_io_is_confined_to_the_session_zone() {
        assert!(checkpoint_io_allowed("crates/core/src/checkpoint.rs"));
        assert!(checkpoint_io_allowed("crates/core/src/session.rs"));
        assert!(!checkpoint_io_allowed("crates/core/src/solver.rs"));
        assert!(!checkpoint_io_allowed("crates/vgpu/src/device.rs"));
        assert!(!checkpoint_io_allowed("crates/ga/src/pool.rs"));
        assert!(checkpoint_codec("crates/core/src/checkpoint.rs"));
        assert!(!checkpoint_codec("crates/core/src/session.rs"));
    }

    #[test]
    fn lease_api_is_confined_to_pool_and_runner() {
        assert!(lease_api_allowed("crates/vgpu/src/pool.rs"));
        assert!(lease_api_allowed("crates/server/src/runner.rs"));
        assert!(!lease_api_allowed("crates/server/src/routes.rs"));
        assert!(!lease_api_allowed("crates/core/src/session.rs"));
        assert!(!lease_api_allowed("crates/vgpu/src/device.rs"));
    }

    #[test]
    fn csr_modules_join_the_device_zone() {
        assert_eq!(classify("crates/search/src/sparse.rs"), Zone::Device);
        assert_eq!(classify("crates/qubo/src/sparse.rs"), Zone::Device);
        assert_eq!(classify("crates/qubo/src/storage.rs"), Zone::Neutral);
        assert_eq!(classify("crates/qubo/src/format.rs"), Zone::Neutral);
        assert!(HOT_FNS.contains(&"note_update"));
        assert!(HOT_FNS.contains(&"range_min_first"));
        assert!(HOT_FNS.contains(&"row_parts"));
    }
}

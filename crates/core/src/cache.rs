//! Content-addressed warm-start cache for repeat solves.
//!
//! The multi-start literature (and the paper's own GA host) seeds new
//! search from diverse prior incumbents rather than from random bits.
//! [`ProblemCache`] applies that per *instance*: entries are keyed by
//! [`qubo::ContentHash`] — the canonical digest of `n` plus the upper
//! triangle of `W` — and hold
//!
//! * the decoded [`Qubo`] behind an [`Arc`] (in the form it was
//!   decoded in, plus whatever form a session derived from it), so a
//!   repeat submission of the same matrix reuses one allocation
//!   (request dedup of the decode product), and
//! * up to [`ProblemCache::MAX_SEEDS`] distinct best solutions seen so
//!   far, best-energy first, ready to drop into
//!   [`crate::AbsConfig::initial_solutions`].
//!
//! A hit on a *different* matrix is impossible short of a 256-bit
//! collision, and a mutated matrix of the same size digests
//! differently — the staleness regression tests in the server suite
//! pin both properties. Eviction is least-recently-used over whole
//! entries; the cache is a bounded side table, not a store of record.

use qubo::{BitVec, ContentHash, Energy, Qubo};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// What a cache hit hands the solver.
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached decode of the instance (the same allocation every
    /// time).
    pub problem: Arc<Qubo>,
    /// Prior incumbents, best first — the GA pool's warm seeds.
    pub seeds: Vec<BitVec>,
}

/// Point-in-time cache accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct instances currently cached.
    pub entries: usize,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evicted: u64,
}

struct CacheEntry {
    problem: Arc<Qubo>,
    /// `(energy, bits)` sorted ascending by energy then bits; distinct.
    incumbents: Vec<(Energy, BitVec)>,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<ContentHash, CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evicted: u64,
}

/// Bounded, thread-safe map from instance digest to decoded problem +
/// best-known solutions. Shared by every solver worker in the server.
pub struct ProblemCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl ProblemCache {
    /// Seeds kept per instance; diverse-but-few, matching the
    /// GA pool's appetite for warm parents.
    pub const MAX_SEEDS: usize = 8;

    /// Builds a cache holding at most `capacity` distinct instances
    /// (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evicted: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks the digest up, refreshing recency. A hit returns the
    /// cached allocation and the current seed set (possibly empty if
    /// no solve of this instance has finished yet).
    #[must_use]
    pub fn lookup(&self, hash: &ContentHash) -> Option<CacheHit> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(hash) {
            Some(entry) => {
                entry.last_used = clock;
                let hit = CacheHit {
                    problem: Arc::clone(&entry.problem),
                    seeds: entry
                        .incumbents
                        .iter()
                        .map(|(_, bits)| bits.clone())
                        .collect(),
                };
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Ensures the instance is cached (without any incumbents yet) so
    /// later submissions of the same matrix share the decode. A
    /// no-op on an existing entry beyond refreshing recency.
    pub fn admit(&self, hash: ContentHash, problem: &Arc<Qubo>) {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&hash) {
            entry.last_used = clock;
            return;
        }
        inner.entries.insert(
            hash,
            CacheEntry {
                problem: Arc::clone(problem),
                incumbents: Vec::new(),
                last_used: clock,
            },
        );
        evict_to_capacity(&mut inner, self.capacity);
    }

    /// Records a finished solve's best solution under the digest,
    /// creating the entry if needed. Keeps the [`Self::MAX_SEEDS`]
    /// best *distinct* solutions, best energy first.
    pub fn record_best(
        &self,
        hash: ContentHash,
        problem: &Arc<Qubo>,
        energy: Energy,
        best: &BitVec,
    ) {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.entries.entry(hash).or_insert_with(|| CacheEntry {
            problem: Arc::clone(problem),
            incumbents: Vec::new(),
            last_used: clock,
        });
        entry.last_used = clock;
        if !entry.incumbents.iter().any(|(_, b)| b == best) {
            entry.incumbents.push((energy, best.clone()));
            entry.incumbents.sort();
            entry.incumbents.truncate(Self::MAX_SEEDS);
        }
        evict_to_capacity(&mut inner, self.capacity);
    }

    /// Point-in-time accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
            evicted: inner.evicted,
        }
    }
}

fn evict_to_capacity(inner: &mut CacheInner, capacity: usize) {
    while inner.entries.len() > capacity {
        let Some(victim) = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(h, _)| *h)
        else {
            return;
        };
        inner.entries.remove(&victim);
        inner.evicted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(seed: u64, n: usize) -> Arc<Qubo> {
        let mut rng = StdRng::seed_from_u64(seed);
        Arc::new(Qubo::random(n, &mut rng))
    }

    fn bits(pattern: &[u8]) -> BitVec {
        BitVec::from_bits(pattern)
    }

    #[test]
    fn miss_then_admit_then_hit_shares_the_allocation() {
        let cache = ProblemCache::new(4);
        let q = problem(1, 8);
        let h = q.content_hash();
        assert!(cache.lookup(&h).is_none());
        cache.admit(h, &q);
        let hit = cache.lookup(&h).expect("admitted entry must hit");
        assert!(Arc::ptr_eq(&hit.problem, &q), "decode must be deduped");
        assert!(hit.seeds.is_empty(), "no solve has finished yet");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn record_best_orders_dedups_and_caps_seeds() {
        let cache = ProblemCache::new(4);
        let q = problem(2, 4);
        let h = q.content_hash();
        cache.record_best(h, &q, -3, &bits(&[1, 0, 1, 0]));
        cache.record_best(h, &q, -7, &bits(&[0, 1, 1, 0]));
        // Duplicate solution is ignored even with a different energy
        // label (first write wins; solutions are the identity).
        cache.record_best(h, &q, -9, &bits(&[1, 0, 1, 0]));
        let hit = cache.lookup(&h).unwrap();
        assert_eq!(hit.seeds.len(), 2);
        assert_eq!(hit.seeds[0], bits(&[0, 1, 1, 0]), "best energy first");
        // Flood with distinct solutions: the seed list stays capped.
        for i in 0..20i64 {
            let pattern = [
                (i & 1) as u8,
                ((i >> 1) & 1) as u8,
                ((i >> 2) & 1) as u8,
                ((i >> 3) & 1) as u8,
            ];
            cache.record_best(h, &q, -i, &bits(&pattern));
        }
        let hit = cache.lookup(&h).unwrap();
        assert_eq!(hit.seeds.len(), ProblemCache::MAX_SEEDS);
    }

    #[test]
    fn mutated_matrix_same_n_misses() {
        let cache = ProblemCache::new(4);
        let q = problem(3, 8);
        cache.record_best(q.content_hash(), &q, -1, &bits(&[1; 8]));
        let mut mutated = (*q).clone();
        mutated.set(2, 5, mutated.get(2, 5).wrapping_add(1));
        assert!(
            cache.lookup(&mutated.content_hash()).is_none(),
            "different W with the same n must MISS, never serve stale seeds"
        );
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = ProblemCache::new(2);
        let a = problem(10, 4);
        let b = problem(11, 4);
        let c = problem(12, 4);
        cache.admit(a.content_hash(), &a);
        cache.admit(b.content_hash(), &b);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(cache.lookup(&a.content_hash()).is_some());
        cache.admit(c.content_hash(), &c);
        assert!(cache.lookup(&a.content_hash()).is_some());
        assert!(cache.lookup(&b.content_hash()).is_none());
        assert!(cache.lookup(&c.content_hash()).is_some());
        assert_eq!(cache.stats().evicted, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let cache = Arc::new(ProblemCache::new(8));
        let q = problem(20, 6);
        let h = q.content_hash();
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let cache = Arc::clone(&cache);
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    cache.record_best(h, &q, -(i % 5), &bits(&[t & 1, 1, 0, 1, 0, 1]));
                    let _ = cache.lookup(&h);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let hit = cache.lookup(&h).unwrap();
        assert!(!hit.seeds.is_empty());
        assert!(hit.seeds.len() <= ProblemCache::MAX_SEEDS);
    }
}

//! Sparse incremental search: the O(degree)-per-flip CSR arm of the
//! bulk-search pipeline (`qubo::MatrixStorage::Sparse`).
//!
//! A CPU extension beyond the paper (whose dense row stream is the right
//! choice on a GPU): for instances with average degree `deg ≪ n` — G-set
//! graphs sit at ~0.1–1 % density — the Eq. (16) update only has to
//! touch the `deg(k)` neighbours of the flipped bit, so a flip costs
//! O(deg) instead of O(n).
//!
//! # Window selection without the O(n) scan
//!
//! The dense tracker's fused select is an O(window) slice scan. Repeating
//! that here would cap the sparse arm at O(window) per flip and erase the
//! O(deg) win, so the CSR arm keeps a *bucketed best* summary instead:
//! the Δ vector is split into fixed [`BUCKET`]-wide buckets, each holding
//! its (leftmost) minimum. A flip folds its `deg(k) + 1` writes into the
//! summaries in O(1) each; a summary whose recorded minimum *rose* is
//! marked dirty and lazily re-scanned — but only when a window scan
//! cannot prune it, because a dirty summary's stale value remains a valid
//! **lower bound** (decreases fold in eagerly, a rise can only raise the
//! true minimum). Window argmin then folds `window / BUCKET` summaries
//! plus at most two boundary slices, with the exact tie contract of
//! [`crate::window_argmin`] (first index in scan order from the window
//! start). Each summary is one [`pack`]ed `(value, position)` key, so
//! the per-write fold is a single compare against one load and a
//! rescan is a plain `min` fold — leftmost tie resolution rides along
//! in the key order.
//!
//! # Best records and accounting (deviation note, see DESIGN.md)
//!
//! Best-solution records have **full dense parity**: the global
//! leftmost argmin of Δ is maintained *incrementally* — a write below
//! the recorded minimum moves it in O(1), and only a rise of the
//! recorded argmin itself (probability ≈ deg/n per flip) marks it
//! stale, degrading the value to a lower bound until the next exact
//! bucket-pruned fold. The dense tracker's neighbour check
//! `E' + min Δ < E_B` is gated by that bound (if the bound fails the
//! check, the true minimum fails it too), so the O(n/BUCKET) fold runs
//! only on a stale bound that beats the best. Trajectories, energies,
//! and best records are therefore bit-identical to the dense tracker's.
//!
//! What *does* deviate is Theorem-1 accounting: a dense flip evaluates
//! all `n` neighbours, a CSR flip only learns the `deg(k) + 1` whose Δ
//! changed plus the visited solution — so [`SparseDeltaTracker::evaluated`]
//! counts `deg(k) + 2` per flip and [`SparseDeltaTracker::work`] counts
//! `deg(k) + 1` Δ writes. At 100 % density (`deg = n − 1`) both match
//! the dense tracker exactly; the telemetry aggregator derives the
//! `abs_search_efficiency` gauge from these honest counts.

use crate::straight::walk_bits;
use crate::tracker::SearchTracker;
use qubo::sparse::SparseQubo;
use qubo::{BitVec, Energy, MAX_BITS};

/// Width of one Δ summary bucket. A power of two (the index→bucket map
/// must stay a shift on the hot path) sized so one bucket's Δ slice is
/// one 512-byte rescan and a 4096-bit problem carries 64 summaries.
const BUCKET: usize = 1 << BUCKET_SHIFT;

/// log₂ of [`BUCKET`]: the value shift that frees the low bits of a
/// packed summary for the in-bucket argmin position.
const BUCKET_SHIFT: u32 = 6;

/// Packs an `i32` Δ value and its in-bucket position into one `i64`
/// key whose order is lexicographic `(value, index mod BUCKET)` — so a
/// plain `min` fold yields the bucket's leftmost minimum, and value
/// ties resolve to the smaller index for free. Works for negative
/// values because the shifted value owns the high bits and the
/// position bits are non-negative. The shift cannot overflow: a 32-bit
/// value shifted by [`BUCKET_SHIFT`] stays far inside `i64`.
#[inline]
fn pack(v: i32, i: usize) -> i64 {
    (i64::from(v) << BUCKET_SHIFT) | (i & (BUCKET - 1)) as i64
}

/// The Δ value of a packed key. Lossless: every key (and every dirty
/// lower bound, which is a stale key) was packed from an `i32`.
#[inline]
fn unpack_value(p: i64) -> i32 {
    (p >> BUCKET_SHIFT) as i32
}

/// Index bits of a [`walk_key`]: every bit index of a supported problem
/// fits below them.
const WALK_KEY_SHIFT: u32 = 16;
const _: () = assert!(MAX_BITS <= 1 << WALK_KEY_SHIFT);
// One straight-walk word minimum per packed diff word: the diff words
// are u64s, so a bucket must span exactly 64 bits.
const _: () = assert!(BUCKET == 64);

/// Packs a Δ value and its *global* index into one key ordered by
/// `(value, index)`: the minimum key over any set of entries is their
/// leftmost minimum, across words as well as within one. Empty words
/// hold `i64::MAX`, above every key.
#[inline]
fn walk_key(v: i32, i: usize) -> i64 {
    (i64::from(v) << WALK_KEY_SHIFT) | i as i64
}

/// The bit index of a [`walk_key`].
#[inline]
fn walk_key_index(p: i64) -> usize {
    (p & ((1 << WALK_KEY_SHIFT) - 1)) as usize
}

/// Minimum [`walk_key`] over the bits set in diff word `wi` (`i64::MAX`
/// when `w` is zero): O(popcount).
#[inline]
fn word_min(d: &[i32], wi: usize, mut w: u64) -> i64 {
    let mut m = i64::MAX;
    while w != 0 {
        let i = wi * 64 + w.trailing_zeros() as usize;
        // invariant: a set diff bit indexes a real bit, i < n = d.len().
        m = m.min(walk_key(d[i], i));
        w &= w - 1;
    }
    m
}

/// Incremental state over a [`SparseQubo`]: current solution, exact
/// energy, the full Δ vector, and the bucketed argmin summaries —
/// updated in O(degree) per flip (see the module docs).
#[derive(Clone)]
pub struct SparseDeltaTracker<'a> {
    q: &'a SparseQubo,
    x: BitVec,
    /// φ(x_i) ∈ {+1, −1}, kept in sync with `x` (same branch-free idiom
    /// as the dense tracker's scalar arm).
    sign: Vec<i8>,
    e: Energy,
    d: Vec<i32>,
    /// Per-bucket packed summary [`pack`]`(min Δ, argmin mod BUCKET)`:
    /// the exact leftmost minimum when clean; a lower bound (on the
    /// packed key, hence on the value) when the matching `bdirty` flag
    /// is set.
    bmin: Vec<i64>,
    /// Whether the bucket's recorded minimum rose and needs a rescan.
    bdirty: Vec<bool>,
    /// Straight-walk scratch, one entry per 64-bit diff word: the
    /// minimum [`walk_key`] over the word's still-differing bits. Valid
    /// only inside [`SparseDeltaTracker::straight_walk`].
    wmin: Vec<i64>,
    /// Global minimum of `d` — exact (with `gidx` its leftmost index)
    /// while `gstale` is false; a lower bound once the recorded argmin
    /// itself rose, until the next exact fold.
    gmin: i32,
    /// Leftmost index attaining `gmin` (valid only while not stale).
    gidx: u32,
    /// Whether the recorded global argmin rose and `gmin` degraded to a
    /// lower bound.
    gstale: bool,
    best: BitVec,
    best_e: Energy,
    flips: u64,
    evaluated: u64,
    work: u64,
}

impl<'a> SparseDeltaTracker<'a> {
    /// Creates a tracker at the canonical zero start (`E = 0`,
    /// `Δ_i = W_ii`). O(n).
    #[must_use]
    pub fn new(q: &'a SparseQubo) -> Self {
        let n = q.n();
        let d: Vec<i32> = (0..n).map(|i| i32::from(q.diag(i))).collect();
        let nb = n.div_ceil(BUCKET);
        let x = BitVec::zeros(n);
        let mut t = Self {
            q,
            best: x.clone(),
            x,
            sign: vec![1i8; n],
            e: 0,
            d,
            bmin: vec![0; nb],
            bdirty: vec![false; nb],
            wmin: vec![i64::MAX; nb],
            gmin: 0,
            gidx: 0,
            gstale: false,
            best_e: 0,
            flips: 0,
            // Initialization evaluates E(0) = 0 and its n neighbours
            // (Δ_i(0) = W_ii), same as the dense tracker.
            evaluated: n as u64 + 1,
            work: 0,
        };
        for b in 0..nb {
            t.refresh_bucket(b);
        }
        let (min_d, min_i) = t.range_min_first(0, n);
        t.gmin = min_d;
        t.gidx = min_i as u32;
        if min_d < 0 {
            t.best.flip(min_i);
            t.best_e = Energy::from(min_d);
        }
        t
    }

    /// The problem being searched.
    #[must_use]
    pub fn qubo(&self) -> &'a SparseQubo {
        self.q
    }

    /// Number of bits.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.d.len()
    }

    /// Current solution.
    #[must_use]
    pub fn x(&self) -> &BitVec {
        &self.x
    }

    /// Current exact energy.
    #[must_use]
    #[inline]
    pub fn energy(&self) -> Energy {
        self.e
    }

    /// The Δ vector (`deltas()[i] = Δ_i(X)`, exact).
    #[must_use]
    #[inline]
    pub fn deltas(&self) -> &[i32] {
        &self.d
    }

    /// Best record (full dense parity, see the module docs).
    #[must_use]
    pub fn best(&self) -> (&BitVec, Energy) {
        (&self.best, self.best_e)
    }

    /// Total flips performed.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Solutions whose energy has been evaluated: `n + 1` at
    /// initialization plus `deg(k) + 2` per flip — the storage-honest
    /// count (see the module docs; equals the dense `(flips+1)·(n+1)`
    /// at 100 % density).
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Total Δ entries written by Eq. (16) updates: `deg(k) + 1` per
    /// flip (equals the dense `flips · n` at 100 % density).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Resets the best record to the current solution.
    pub fn reset_best(&mut self) {
        self.best.copy_from(&self.x);
        self.best_e = self.e;
    }

    /// Folds one Δ write into the global argmin record in O(1).
    ///
    /// Invariant across states: `gmin` is ≤ every entry of `d`. While
    /// not stale it additionally equals `d[gidx]`, the exact minimum,
    /// with `gidx` leftmost.
    #[inline]
    fn gmin_update(&mut self, i: usize, v: i32) {
        if self.gstale {
            // A write strictly below the lower bound is strictly below
            // every other entry: the unique (hence leftmost) new argmin.
            if v < self.gmin {
                self.gmin = v;
                self.gidx = i as u32;
                self.gstale = false;
            }
        } else if v < self.gmin || (v == self.gmin && (i as u32) < self.gidx) {
            // Leftmost-tie contract: no index left of the recorded
            // leftmost argmin can already hold gmin, so `i` wins.
            self.gmin = v;
            self.gidx = i as u32;
        } else if self.gidx as usize == i && v > self.gmin {
            // The argmin itself rose: gmin stays a valid lower bound.
            self.gstale = true;
        }
    }

    /// Folds one Δ write into its bucket's packed summary in O(1).
    #[inline]
    fn note_update(&mut self, i: usize, v: i32) {
        let b = i / BUCKET;
        let p = pack(v, i);
        // invariant: b < nb because i < n ≤ nb·BUCKET.
        let m = self.bmin[b];
        if p < m {
            // Strictly below the summary means below every entry of the
            // bucket, whether the summary was exact or a dirty lower
            // bound: the unique new leftmost minimum — exact again.
            // invariant: b < nb = bmin.len() = bdirty.len().
            self.bmin[b] = p;
            self.bdirty[b] = false;
        } else if p > m && (p ^ m) & (BUCKET as i64 - 1) == 0 {
            // The write landed on the recorded argmin's position and
            // rose: the key degrades to a lower bound. (On an already
            // dirty bucket the position bits are stale and this merely
            // re-marks it — still a valid bound.)
            // invariant: b < nb = bdirty.len().
            self.bdirty[b] = true;
        }
    }

    /// Rescans bucket `b` to an exact packed leftmost-min summary: a
    /// single `min` fold over the packed keys (shift–or–min per element,
    /// auto-vectorizable) locates the leftmost occurrence for free via
    /// the key order.
    fn refresh_bucket(&mut self, b: usize) {
        let lo = b * BUCKET;
        let hi = (lo + BUCKET).min(self.d.len());
        // invariant: lo < hi ≤ n for every bucket index b < nb.
        let s = &self.d[lo..hi];
        let mut min_p = pack(s[0], 0);
        for (j, &v) in s.iter().enumerate().skip(1) {
            min_p = min_p.min(pack(v, j));
        }
        // invariant: b < nb = bmin.len() (callers pass bucket indices).
        self.bmin[b] = min_p;
        self.bdirty[b] = false;
    }

    /// Leftmost minimum of `d[a..b]` (`a < b ≤ n`) as `(value, index)`,
    /// folding whole-bucket summaries (with lower-bound pruning: a
    /// summary that cannot strictly beat the running best is skipped
    /// without refreshing) and scanning boundary slices element-wise.
    fn range_min_first(&mut self, a: usize, b: usize) -> (i32, usize) {
        debug_assert!(a < b && b <= self.d.len());
        // No Δ reaches i32::MAX (the qubo crate's compile-time bound), so
        // the first candidate always replaces this seed.
        let mut best_v = i32::MAX;
        let mut best_i = a;
        let mut lo = a;
        while lo < b {
            let bb = lo / BUCKET;
            let bucket_end = ((bb + 1) * BUCKET).min(self.d.len());
            let hi = bucket_end.min(b);
            if lo == bb * BUCKET && hi == bucket_end {
                // Whole bucket: the packed summary decides. Value ties
                // lose to the running best (strict <), which is the
                // earlier scan position — the window_argmin tie
                // contract. The packed key's value is recovered by an
                // arithmetic shift (a lower bound on the key is a lower
                // bound on the value, so pruning on it stays sound).
                // invariant: bb = lo / BUCKET < nb since lo < b ≤ n.
                if unpack_value(self.bmin[bb]) < best_v {
                    if self.bdirty[bb] {
                        self.refresh_bucket(bb);
                    }
                    // invariant: bb < nb as above; refresh left the
                    // summary exact.
                    let p = self.bmin[bb];
                    if unpack_value(p) < best_v {
                        best_v = unpack_value(p);
                        best_i = lo + (p & (BUCKET as i64 - 1)) as usize;
                    }
                }
            } else {
                // Boundary slice: element-wise leftmost min (value
                // fold, then locate), strict < against the running best.
                // invariant: lo < hi ≤ n checked by the loop bounds.
                let s = &self.d[lo..hi];
                let mut min_v = s[0];
                // invariant: s is non-empty, so s[1..] is in range.
                for &v in &s[1..] {
                    min_v = min_v.min(v);
                }
                if min_v < best_v {
                    let mut i = 0;
                    // invariant: min_v was read out of s, so the locate
                    // scan terminates before i reaches s.len().
                    while s[i] != min_v {
                        i += 1;
                    }
                    best_v = min_v;
                    best_i = lo + i;
                }
            }
            lo = hi;
        }
        (best_v, best_i)
    }

    /// Min-Δ index inside the circular window of length `len` starting
    /// at `start`, with the exact tie contract of
    /// [`crate::window_argmin`] (first index in scan order from `start`;
    /// the wrapped prefix wins only on a strictly smaller value). Runs
    /// on the bucket summaries: O(window / BUCKET) plus boundary slices.
    ///
    /// # Panics
    /// Panics if `start >= n`.
    pub fn select_in_window(&mut self, start: usize, len: usize) -> usize {
        let n = self.n();
        assert!(start < n, "window start {start} out of range {n}");
        let l = len.clamp(1, n);
        let first_len = l.min(n - start);
        let (v1, i1) = self.range_min_first(start, start + first_len);
        let rest = l - first_len;
        if rest > 0 {
            let (v2, i2) = self.range_min_first(0, rest);
            if v2 < v1 {
                return i2;
            }
        }
        i1
    }

    /// Fused flip + next-window selection, mirroring the dense
    /// [`crate::DeltaTracker::flip_select`]: the bucket summaries the
    /// selection folds were just written by the flip, so they are
    /// cache-resident.
    pub fn flip_select(&mut self, k: usize, window: (usize, usize)) -> usize {
        self.flip(k);
        self.select_in_window(window.0, window.1)
    }

    /// The straight search's walk over the packed differing bits `diff`
    /// ([`SearchTracker::straight_walk`]) at the cost of the O(deg)
    /// flip it feeds: one masked minimum per diff word is built in
    /// O(n/64 + HD) at walk start; after each flip only the word of `k`
    /// (which lost its minimum) is rescanned, and each neighbour of `k`
    /// that still differs folds its new Δ in O(1) — a rescan only when
    /// the word's recorded minimum itself rose. Selection is a min over
    /// the ~n/64 word keys, whose `(value, index)` order is the leftmost
    /// tie contract. Below one word the bit walk ([`walk_bits`]) stays.
    pub fn straight_walk(&mut self, diff: &mut [u64]) -> u64 {
        if self.n() < BUCKET {
            return walk_bits(self, diff);
        }
        let q = self.q;
        // invariant: diff spans ceil(n/64) = nb = wmin.len() words.
        let wmin = &mut self.wmin[..diff.len()];
        for (wi, (m, &w)) in wmin.iter_mut().zip(diff.iter()).enumerate() {
            *m = word_min(&self.d, wi, w);
        }
        let mut flips = 0u64;
        loop {
            // invariant: diff.len() <= wmin.len(), as above.
            let key = self.wmin[..diff.len()]
                .iter()
                .copied()
                .min()
                .unwrap_or(i64::MAX);
            if key == i64::MAX {
                return flips; // X = T
            }
            let k = walk_key_index(key);
            let wk = k / 64;
            // invariant: k is a selected bit, so wk < diff.len().
            diff[wk] &= !(1u64 << (k % 64));
            self.flip(k);
            flips += 1;
            // invariant: wk < diff.len() <= wmin.len().
            self.wmin[wk] = word_min(&self.d, wk, diff[wk]);
            for (i, _) in q.row(k) {
                let wi = i / 64;
                // invariant: CSR column indices are < n, so wi < diff.len().
                if (diff[wi] >> (i % 64)) & 1 == 0 {
                    continue;
                }
                // invariant: i < n = d.len(); wi < wmin.len() as above.
                let p = walk_key(self.d[i], i);
                let m = self.wmin[wi];
                if p < m {
                    // invariant: wi < wmin.len(), as above.
                    self.wmin[wi] = p;
                } else if p > m && walk_key_index(m) == i {
                    // The word's recorded minimum itself rose.
                    // invariant: wi < diff.len() <= wmin.len(), as above.
                    self.wmin[wi] = word_min(&self.d, wi, diff[wi]);
                }
            }
        }
    }

    /// Flips bit `k` in O(degree(k)): Eq. (16) over the nonzero
    /// neighbours only, with summary maintenance and dense-parity best
    /// recording (see the module docs).
    pub fn flip(&mut self, k: usize) {
        let n = self.n();
        assert!(k < n, "bit index {k} out of range {n}");
        let q = self.q;
        // invariant: k < n asserted above; d and sign have length n.
        let d_k_old = self.d[k];
        let two_pk = i32::from(self.sign[k]) * 2;
        let e_new = self.e + Energy::from(d_k_old);
        // Hot state lives in locals for the duration of the neighbour
        // loop: folding through `self` would spill the argmin registers
        // to memory on every iteration, and the split field borrows
        // hand LLVM provably disjoint slices to schedule against. The
        // fold bodies are `gmin_update` / `note_update` verbatim.
        let mut gmin = self.gmin;
        let mut gidx = self.gidx;
        let mut gstale = self.gstale;
        {
            // invariant: full-range [..] borrows cannot go out of bounds.
            let d = &mut self.d[..];
            let sign = &self.sign[..];
            // invariant: likewise full-range, infallible.
            let bmin = &mut self.bmin[..];
            let bdirty = &mut self.bdirty[..];
            for (i, w) in q.row(k) {
                // invariant: CSR column indices are < n by construction
                // (SparseQubo validates every triplet index).
                // The i32 sum is the next state's Δ_i, inside i32 by the
                // qubo crate's compile-time bound.
                let v = d[i] + i32::from(w) * i32::from(sign[i]) * two_pk;
                d[i] = v;
                if v < gmin {
                    // Below the lower bound means below every entry:
                    // the unique (hence leftmost) new argmin, whether
                    // the record was stale or not.
                    gmin = v;
                    gidx = i as u32;
                    gstale = false;
                } else if !gstale {
                    if v == gmin && (i as u32) < gidx {
                        // Leftmost-tie contract: no index left of the
                        // recorded leftmost argmin holds gmin yet.
                        gidx = i as u32;
                    } else if gidx == i as u32 && v > gmin {
                        // The argmin itself rose: gmin stays a valid
                        // lower bound.
                        gstale = true;
                    }
                }
                let b = i / BUCKET;
                let p = pack(v, i);
                // invariant: b < nb because i < n ≤ nb·BUCKET.
                let m = bmin[b];
                if p < m {
                    // Below the summary means below every entry: the
                    // unique new leftmost minimum — exact again.
                    // invariant: b < nb because i < n ≤ nb·BUCKET.
                    bmin[b] = p;
                    bdirty[b] = false;
                } else if p > m && (p ^ m) & (BUCKET as i64 - 1) == 0 {
                    // The recorded argmin's position rose: the key
                    // degrades to (or re-marks) a lower bound.
                    // invariant: b < nb = bdirty.len().
                    bdirty[b] = true;
                }
            }
        }
        self.gmin = gmin;
        self.gidx = gidx;
        self.gstale = gstale;
        let d_k_new = -d_k_old;
        // invariant: k < n asserted at entry.
        self.d[k] = d_k_new;
        self.gmin_update(k, d_k_new);
        self.note_update(k, d_k_new);
        // invariant: k < n; sign has length n.
        self.sign[k] = -self.sign[k];
        self.x.flip(k);
        self.e = e_new;
        self.flips += 1;
        // Storage-honest accounting: deg(k) + 2 energies became known
        // (the visited solution, the flipped bit's own neighbour via
        // −Δ_k, and the deg(k) touched neighbours); deg(k) + 1 Δ
        // entries were written.
        let deg = q.degree(k) as u64;
        self.evaluated += deg + 2;
        self.work += deg + 1;

        if e_new < self.best_e {
            self.best.copy_from(&self.x);
            self.best_e = e_new;
        }
        // Dense-parity neighbour check, gated by the incremental global
        // minimum: if `e_new + gmin` cannot beat the best, neither can
        // `e_new + min Δ` (gmin ≤ min Δ always), so the dense condition
        // evaluates identically without a scan. Only a *stale* bound
        // that beats the best pays for the exact bucket-pruned fold.
        if e_new + Energy::from(self.gmin) < self.best_e {
            if self.gstale {
                let (min_d, min_i) = self.range_min_first(0, n);
                self.gmin = min_d;
                self.gidx = min_i as u32;
                self.gstale = false;
            }
            if e_new + Energy::from(self.gmin) < self.best_e {
                self.best.copy_from(&self.x);
                self.best.flip(self.gidx as usize);
                self.best_e = e_new + Energy::from(self.gmin);
            }
        }
    }

    /// Verifies invariants against O(nnz·n) reference computations,
    /// including the bucket summaries (tests only).
    ///
    /// # Panics
    /// Panics if any tracked quantity drifted.
    pub fn verify(&self) {
        assert_eq!(self.e, self.q.energy(&self.x), "energy drifted");
        let n = self.n();
        for i in 0..n {
            let mut s = 0i64;
            for (j, w) in self.q.row(i) {
                if self.x.get(j) {
                    s += i64::from(w);
                }
            }
            let expect_sign: i8 = if self.x.get(i) { -1 } else { 1 };
            let expect = i64::from(expect_sign) * (2 * s + i64::from(self.q.diag(i)));
            // invariant: i < n = d.len() = sign.len() by the loop bound.
            assert_eq!(i64::from(self.d[i]), expect, "delta {i} drifted");
            assert_eq!(self.sign[i], expect_sign, "sign {i} drifted");
        }
        assert_eq!(self.best_e, self.q.energy(&self.best), "best drifted");
        let mut global_min = i32::MAX;
        let mut global_i = 0usize;
        for b in 0..self.bmin.len() {
            let lo = b * BUCKET;
            let hi = (lo + BUCKET).min(n);
            let mut min_p = i64::MAX;
            for i in lo..hi {
                // invariant: lo ≤ i < hi ≤ n by the loop bounds.
                min_p = min_p.min(pack(self.d[i], i));
            }
            let min_v = unpack_value(min_p);
            let min_i = lo + (min_p & (BUCKET as i64 - 1)) as usize;
            if min_v < global_min {
                global_min = min_v;
                global_i = min_i;
            }
            // invariant: b < bmin.len() by the loop bound.
            if self.bdirty[b] {
                // invariant: b < bmin.len() by the loop bound.
                assert!(
                    self.bmin[b] <= min_p,
                    "dirty bucket {b} lost its lower bound"
                );
            } else {
                // invariant: same loop bound on b.
                assert_eq!(self.bmin[b], min_p, "bucket {b} summary drifted");
            }
        }
        assert!(self.gmin <= global_min, "gmin lower bound violated");
        if !self.gstale {
            assert_eq!(self.gmin, global_min, "exact gmin drifted");
            assert_eq!(self.gidx as usize, global_i, "gidx drifted");
        }
    }
}

impl SearchTracker for SparseDeltaTracker<'_> {
    fn n(&self) -> usize {
        SparseDeltaTracker::n(self)
    }

    fn x(&self) -> &BitVec {
        SparseDeltaTracker::x(self)
    }

    fn energy(&self) -> Energy {
        SparseDeltaTracker::energy(self)
    }

    fn deltas(&self) -> &[i32] {
        SparseDeltaTracker::deltas(self)
    }

    fn best(&self) -> (&BitVec, Energy) {
        SparseDeltaTracker::best(self)
    }

    fn reset_best(&mut self) {
        SparseDeltaTracker::reset_best(self);
    }

    fn flips(&self) -> u64 {
        SparseDeltaTracker::flips(self)
    }

    fn evaluated(&self) -> u64 {
        SparseDeltaTracker::evaluated(self)
    }

    fn work(&self) -> u64 {
        SparseDeltaTracker::work(self)
    }

    fn flip(&mut self, k: usize) {
        SparseDeltaTracker::flip(self, k);
    }

    fn select_in_window(&mut self, start: usize, len: usize) -> usize {
        SparseDeltaTracker::select_in_window(self, start, len)
    }

    fn flip_select(&mut self, k: usize, window: (usize, usize)) -> usize {
        SparseDeltaTracker::flip_select(self, k, window)
    }

    fn straight_walk(&mut self, diff: &mut [u64]) -> u64 {
        SparseDeltaTracker::straight_walk(self, diff)
    }

    fn verify(&self) {
        SparseDeltaTracker::verify(self);
    }
}

/// Greedy steepest descent on a sparse instance: flips the global
/// minimum-Δ bit while it improves, from a given start. Returns the
/// reached 1-flip local minimum. (A convenience solver; the bulk
/// framework drives the tracker through [`crate::local_search`].)
#[must_use]
pub fn sparse_greedy_descent(q: &SparseQubo, start: &BitVec) -> (BitVec, Energy) {
    let mut t = SparseDeltaTracker::new(q);
    let ones: Vec<usize> = start.iter_ones().collect();
    for k in ones {
        t.flip(k);
    }
    loop {
        let n = t.n();
        if n == 0 {
            return (t.x.clone(), t.e);
        }
        let (d, k) = t.range_min_first(0, n);
        if d >= 0 {
            return (t.x.clone(), t.e);
        }
        t.flip(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{local_search, window_argmin, DeltaTracker, WindowMinPolicy};
    use qubo::Qubo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_instance(n: usize, pairs: usize, seed: u64) -> (Qubo, SparseQubo) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Qubo::zero(n).unwrap();
        for _ in 0..pairs {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            q.set(i, j, rng.gen_range(-40..=40));
        }
        let s = SparseQubo::from_dense(&q);
        (q, s)
    }

    #[test]
    fn tracks_exactly_like_the_dense_tracker() {
        let (q, s) = sparse_instance(60, 150, 1);
        let mut dense = DeltaTracker::new(&q);
        let mut sparse = SparseDeltaTracker::new(&s);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let k = rng.gen_range(0..60);
            dense.flip(k);
            sparse.flip(k);
            assert_eq!(dense.energy(), sparse.energy());
            assert_eq!(dense.best().1, sparse.best().1);
            assert_eq!(dense.best().0, sparse.best().0);
        }
        assert_eq!(dense.x(), sparse.x());
        assert_eq!(dense.deltas(), sparse.deltas());
        assert_eq!(dense.flips(), sparse.flips());
        sparse.verify();
    }

    #[test]
    fn flip_cost_is_degree_not_n() {
        // Structural check: an isolated bit's flip touches nothing.
        let s = SparseQubo::from_triplets(100, &[(0, 1, 5)]).unwrap();
        let mut t = SparseDeltaTracker::new(&s);
        let before = t.deltas().to_vec();
        t.flip(50); // isolated: degree 0
        assert_eq!(t.deltas()[0..50], before[0..50]);
        assert_eq!(t.deltas()[51..], before[51..]);
        assert_eq!(t.deltas()[50], -before[50]);
        t.verify();
    }

    #[test]
    fn best_has_full_dense_parity() {
        // The lone coupler makes the *untouched-by-visit* neighbour 011
        // attractive; full parity means the sparse best must equal the
        // exhaustive min over every visited solution and every
        // neighbour of every visited solution — same as the dense test.
        let s = SparseQubo::from_triplets(3, &[(0, 1, -50), (1, 1, 10)]).unwrap();
        let mut t = SparseDeltaTracker::new(&s);
        t.flip(0); // E = 0; neighbour Δ_1 = 10 − 100 = −90
        assert_eq!(t.best().1, -90);
        assert_eq!(t.best().0.to_string(), "110");
        t.verify();

        let (q, s) = sparse_instance(24, 40, 9);
        let mut t = SparseDeltaTracker::new(&s);
        let mut rng = StdRng::seed_from_u64(10);
        let mut seen_min = 0i64;
        for i in 0..24 {
            seen_min = seen_min.min(q.energy(&BitVec::zeros(24).flipped(i)));
        }
        for _ in 0..80 {
            t.flip(rng.gen_range(0..24));
            let x = t.x().clone();
            seen_min = seen_min.min(q.energy(&x));
            for i in 0..24 {
                seen_min = seen_min.min(q.energy(&x.flipped(i)));
            }
            assert_eq!(t.best().1, seen_min);
        }
    }

    #[test]
    fn select_in_window_matches_window_argmin() {
        let (_, s) = sparse_instance(150, 300, 3);
        let mut t = SparseDeltaTracker::new(&s);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..400 {
            t.flip(rng.gen_range(0..150));
            let a = rng.gen_range(0..150);
            let l = rng.gen_range(1..=150);
            let d = t.deltas().to_vec();
            assert_eq!(
                t.select_in_window(a, l),
                window_argmin(&d, a, l),
                "a={a} l={l}"
            );
        }
        t.verify();
    }

    #[test]
    fn flip_select_equals_flip_then_select() {
        let (_, s) = sparse_instance(70, 180, 5);
        let mut fused = SparseDeltaTracker::new(&s);
        let mut twocall = SparseDeltaTracker::new(&s);
        let mut rng = StdRng::seed_from_u64(6);
        let mut k = 3usize;
        for _ in 0..150 {
            let a = rng.gen_range(0..70);
            let l = rng.gen_range(1..=70);
            let next_fused = fused.flip_select(k, (a, l));
            twocall.flip(k);
            let next_two = twocall.select_in_window(a, l);
            assert_eq!(next_fused, next_two);
            assert_eq!(fused.x(), twocall.x());
            assert_eq!(fused.best().1, twocall.best().1);
            k = next_fused;
        }
        fused.verify();
    }

    #[test]
    fn local_search_walks_both_arms_identically() {
        // The generic driver over SearchTracker: dense and CSR trackers
        // under the same window schedule produce identical trajectories,
        // energies, and best records.
        let (q, s) = sparse_instance(96, 250, 7);
        for window in [1usize, 8, 96] {
            let mut dense = DeltaTracker::new(&q);
            let mut sparse = SparseDeltaTracker::new(&s);
            let mut pd = WindowMinPolicy::new(window);
            let mut ps = WindowMinPolicy::new(window);
            local_search(&mut dense, &mut pd, 500);
            local_search(&mut sparse, &mut ps, 500);
            assert_eq!(dense.x(), sparse.x(), "window={window}");
            assert_eq!(dense.energy(), sparse.energy());
            assert_eq!(dense.best().0, sparse.best().0);
            assert_eq!(dense.best().1, sparse.best().1);
            sparse.verify();
        }
    }

    #[test]
    fn evaluated_counts_touched_neighbours() {
        // Star graph: bit 0 couples to 1..=4, leaves have degree 1.
        let s =
            SparseQubo::from_triplets(6, &[(0, 1, 2), (0, 2, -3), (0, 3, 4), (0, 4, -5)]).unwrap();
        let mut t = SparseDeltaTracker::new(&s);
        assert_eq!(t.evaluated(), 7); // init: solution + 6 neighbours
        assert_eq!(t.work(), 0);
        t.flip(0); // degree 4: evaluated += 6, work += 5
        assert_eq!(t.evaluated(), 13);
        assert_eq!(t.work(), 5);
        t.flip(5); // isolated: evaluated += 2, work += 1
        assert_eq!(t.evaluated(), 15);
        assert_eq!(t.work(), 6);
    }

    #[test]
    fn full_density_accounting_matches_the_dense_formula() {
        // At 100 % density deg = n − 1, so the honest counters reduce to
        // the dense tracker's (flips+1)·(n+1) and flips·n exactly.
        let mut rng = StdRng::seed_from_u64(8);
        let q = Qubo::random(17, &mut rng);
        let s = SparseQubo::from_dense(&q);
        let mut dense = DeltaTracker::new(&q);
        let mut sparse = SparseDeltaTracker::new(&s);
        for k in [3usize, 11, 0, 16, 7] {
            dense.flip(k);
            sparse.flip(k);
        }
        assert_eq!(sparse.evaluated(), dense.evaluated());
        assert_eq!(sparse.work(), dense.work());
    }

    #[test]
    fn greedy_descent_reaches_local_minimum() {
        let (q, s) = sparse_instance(80, 200, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let start = BitVec::random(80, &mut rng);
        let (x, e) = sparse_greedy_descent(&s, &start);
        assert_eq!(e, q.energy(&x));
        for i in 0..80 {
            assert!(q.energy(&x.flipped(i)) >= e, "not 1-flip optimal at {i}");
        }
    }

    #[test]
    fn double_flip_is_identity() {
        let (_, s) = sparse_instance(30, 60, 5);
        let mut t = SparseDeltaTracker::new(&s);
        t.flip(7);
        let e = t.energy();
        let d = t.deltas().to_vec();
        t.flip(12);
        t.flip(12);
        assert_eq!(t.energy(), e);
        assert_eq!(t.deltas(), &d[..]);
        t.verify();
    }

    #[test]
    fn summaries_survive_dirty_and_refresh_cycles() {
        // Hammer one bucket with rises and falls, verifying after every
        // flip: catches lower-bound violations the moment they happen.
        let (_, s) = sparse_instance(64, 400, 11); // exactly one bucket
        let mut t = SparseDeltaTracker::new(&s);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..120 {
            t.flip(rng.gen_range(0..64));
            t.verify();
            // Interleave selections so lazy refreshes actually run.
            let _ = t.select_in_window(rng.gen_range(0..64), 16);
        }
    }

    #[test]
    fn star_at_max_bits_reaches_the_i32_bound() {
        // The worst case of the compile-time bound in the qubo crate: a
        // hub whose diagonal and every coupler are i16::MIN, at the
        // largest supported n. With all leaves set, Δ_hub is
        // i16::MIN·(2·(n − 1) + 1) = −32 768 · 65 535; flipping the hub
        // negates it. Debug builds trap any i32 overflow on the way.
        const EXTREME: i64 = 32_768 * 65_535;
        let n = qubo::MAX_BITS;
        let triplets: Vec<(usize, usize, i16)> = std::iter::once((0, 0, i16::MIN))
            .chain((1..n).map(|j| (0, j, i16::MIN)))
            .collect();
        let s = SparseQubo::from_triplets(n, &triplets).unwrap();
        let mut t = SparseDeltaTracker::new(&s);
        for j in 1..n {
            t.flip(j);
        }
        assert_eq!(i64::from(t.deltas()[0]), -EXTREME);
        t.verify();
        t.flip(0);
        assert_eq!(i64::from(t.deltas()[0]), EXTREME);
        t.verify();
    }
}

//! Lane-wise SIMD tier for the flip hot path.
//!
//! The Eq. (16) update is a dense, branch-free sweep over one padded
//! matrix row — exactly the shape data-level parallelism likes. This
//! module provides the lane-wise kernels behind the scalar fused path
//! of [`crate::DeltaTracker`]:
//!
//! * [`flip_update`] — the Δ-update and best-neighbour min in fixed
//!   lane-wise chunks. The per-bit sign `φ(x_i)·φ(x_k)` is read
//!   straight from the packed solution words (`x_i ⊕ x_k` per lane), so
//!   the increment `2·W_ik·φ(x_i)·φ(x_k)` becomes a shift, an XOR and a
//!   subtract — no multiplies and no byte-per-bit sign array load.
//! * [`window_argmin`] — the circular-window argmin of the selection
//!   policy (Fig. 2) as a single lane-wise pass that tracks candidate
//!   indices alongside the min fold.
//! * [`masked_argmin`] and [`flip_update_walk`] — the straight search's
//!   selection (Algorithm 5): the leftmost minimum Δ among the bits the
//!   packed diff words select, alone or fused into the flip's own pass
//!   (the AVX-512 arm, whose `__mmask16` predicates come straight from
//!   the diff words).
//!
//! The update exists in three lane arms: a portable chunked form on
//! stable Rust written so the autovectorizer can keep full lanes
//! ([`FlipKernel::Lanes`]), a `#[target_feature(enable = "avx2")]`
//! specialization ([`FlipKernel::Avx2`]), and an AVX-512 mask-register
//! form ([`FlipKernel::Avx512`]) that lifts 16 packed solution bits
//! directly as a `__mmask16` predicate — selected once per process by
//! [`FlipKernel::detect`] via `is_x86_feature_detected!`. The existing
//! scalar fused path ([`FlipKernel::Scalar`], the PR-1 `fused_i32`
//! kernel) stays the portable fallback and the reference: every arm is
//! bit-identical on all observable state (Δ vector, energies, selected
//! indices — min values are order-independent and the argmin tie-break
//! is first-in-scan-order in every arm).
//!
//! The kernels require the padded row layout of [`qubo::Qubo`]: rows of
//! `stride()` elements (a [`qubo::ROW_LANE`] multiple, 64-byte aligned)
//! with zero pad weights, and a Δ slice padded to the same stride with
//! `i32::MAX` sentinels. Zero pad weights make pad lanes no-ops in the
//! update; `i32::MAX` sentinels can never win the running min strictly
//! (the fold always sees the flipped bit's own `−Δ_k`, a real entry),
//! so chunks never need a tail branch and never straddle a row.
// The crate root denies unsafe_code; this module is the single
// sanctioned exception, scoped to the feature-gated intrinsic arms
// below.
// Every unsafe site carries a SAFETY comment naming the checked CPU
// feature or in-bounds invariant (enforced by the abs-lint
// device-unsafe-justified rule).
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Lanes per chunk: 8 × `i32` = one 256-bit AVX2 vector. A divisor of
/// [`qubo::ROW_LANE`] (so chunks never straddle padded rows) and of 64
/// (so one packed `u64` solution word covers 8 whole chunks and a
/// chunk's bits never straddle a word).
pub const LANES: usize = 8;

/// Portable-arm chunk width: one full padded-row quantum
/// ([`qubo::ROW_LANE`] lanes of `i32`), wide enough that an AVX-512
/// build keeps two full 512-bit vectors per iteration. A multiple of 32
/// dividing 64, so a chunk's bits never straddle a packed word and
/// `chunks_exact` covers the whole padded stride with no tail.
const CHUNK: usize = qubo::ROW_LANE;

/// The flip kernel chosen for a tracker: which code path executes the
/// Eq. (16) update and the window argmin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlipKernel {
    /// The scalar fused path (`fused_i32`): the portable reference.
    Scalar,
    /// Portable lane-wise chunks on stable Rust (autovectorized).
    Lanes,
    /// `#[target_feature(enable = "avx2")]` specializations, selected
    /// only after `is_x86_feature_detected!("avx2")`.
    Avx2,
    /// `#[target_feature(enable = "avx512f")]` specialization: the
    /// packed `x ⊕ x_k` bits are used *directly* as a `__mmask16` for
    /// mask-complementary add/sub — no per-lane sign decode at all.
    /// Selected only after `is_x86_feature_detected!` confirms both
    /// `avx512f` and `avx2` (the argmin arm runs on AVX2).
    Avx512,
}

impl FlipKernel {
    /// Stable label for telemetry, benchmarks and diagnostics.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Lanes => "lanes",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// Compact id for the device global-memory kernel slot
    /// (0 is reserved for "unset").
    #[must_use]
    pub const fn as_u8(self) -> u8 {
        match self {
            Self::Scalar => 1,
            Self::Lanes => 2,
            Self::Avx2 => 3,
            Self::Avx512 => 4,
        }
    }

    /// Inverse of [`FlipKernel::as_u8`].
    #[must_use]
    pub const fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Scalar),
            2 => Some(Self::Lanes),
            3 => Some(Self::Avx2),
            4 => Some(Self::Avx512),
            _ => None,
        }
    }

    /// The best kernel for this process, decided once and cached:
    /// `ABS_FORCE_SCALAR` (any non-empty value) forces [`Scalar`];
    /// a CPU reporting `avx512f` (and `avx2`, for the argmin arm) gets
    /// the mask-register arm; a build whose *compile target* already
    /// enables AVX2 (e.g. `-C target-cpu=native`) prefers the portable
    /// lane arm over the 8-lane intrinsics — the compiler vectorizes it
    /// with the full statically-known feature set; a baseline build on
    /// an AVX2-capable CPU uses the `#[target_feature]` AVX2 arm;
    /// everything else gets the portable arm. Device threads call this
    /// once at launch (the paper's per-kernel-launch specialization,
    /// §3.2) and record the choice in global memory for telemetry.
    ///
    /// [`Scalar`]: FlipKernel::Scalar
    #[must_use]
    pub fn detect() -> Self {
        static DETECTED: OnceLock<FlipKernel> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::env::var_os("ABS_FORCE_SCALAR").is_some_and(|v| !v.is_empty()) {
                return Self::Scalar;
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
                return Self::Avx512;
            }
            if cfg!(target_feature = "avx2") {
                return Self::Lanes;
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
            Self::Lanes
        })
    }
}

/// The lane-wise Eq. (16) update: negates `d[k]` in place, adds
/// `2·W_ik·φ(x_i)·φ(x_k)` to every other entry, and returns
/// `min_i d_i` of the new state (over the real entries; pad sentinels
/// cannot win, see the module docs).
///
/// * `d` — the Δ slice padded to the row stride (`i32::MAX` pad).
/// * `row` — [`qubo::Qubo::row_padded`]`(k)` (zero pad).
/// * `xw` — the packed words of the *pre-flip* solution
///   ([`qubo::BitVec::words`]).
/// * `xk` — the pre-flip value of bit `k`.
///
/// The sign product is branchless: `φ(x_i)·φ(x_k) = 1 − 2·(x_i ⊕ x_k)`,
/// and the XOR word `xw ⊕ broadcast(x_k)` is formed once per packed
/// word, so the per-lane increment is `(2·W_ik ⊕ m) − m` with
/// `m ∈ {0, −1}`. The `k` lane needs no special case in the sweep: its
/// XOR bit is 0, so its increment is exactly `+2·W_kk`, and the kernel
/// pre-writes `d[k] = −Δ_k − 2·W_kk` (wrapping; the transient wrap, if
/// any, cancels on the add) so the uniform pass lands it on `−Δ_k` and
/// folds the correct value into the min.
///
/// # Panics
/// Panics (debug) if the slice lengths disagree or are not chunk
/// multiples, or if `k` is out of range.
#[must_use]
pub fn flip_update(
    kernel: FlipKernel,
    d: &mut [i32],
    row: &[i16],
    xw: &[u64],
    k: usize,
    xk: bool,
) -> i32 {
    debug_assert_eq!(d.len(), row.len(), "Δ slice must match the padded row");
    debug_assert_eq!(d.len() % CHUNK, 0, "padded stride must be a CHUNK multiple");
    debug_assert!(k < d.len(), "flip index out of range");
    debug_assert!(
        xw.len() * 64 >= d.len(),
        "packed words must cover the stride"
    );
    match kernel {
        FlipKernel::Scalar | FlipKernel::Lanes => flip_update_lanes(d, row, xw, k, xk),
        FlipKernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: the Avx2 variant is only constructed by
                // FlipKernel::detect (or by tests) after
                // is_x86_feature_detected!("avx2") confirmed the CPU
                // feature for this process.
                unsafe { flip_update_avx2(d, row, xw, k, xk) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                flip_update_lanes(d, row, xw, k, xk)
            }
        }
        FlipKernel::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: the Avx512 variant is only constructed by
                // FlipKernel::detect (or by tests) after
                // is_x86_feature_detected!("avx512f") confirmed the CPU
                // feature for this process.
                unsafe { flip_update_avx512(d, row, xw, k, xk) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                flip_update_lanes(d, row, xw, k, xk)
            }
        }
    }
}

/// Portable arm of [`flip_update`]: fixed-width chunks with per-lane
/// min accumulators, written so every operation is lane-independent and
/// the autovectorizer keeps full vectors.
fn flip_update_lanes(d: &mut [i32], row: &[i16], xw: &[u64], k: usize, xk: bool) -> i32 {
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    let d_k_new = -d[k];
    // Pre-bias: the uniform sweep below adds exactly +2·W_kk to lane k
    // (its XOR bit is x_k ⊕ x_k = 0), so starting it at -Δ_k - 2·W_kk
    // lands it on -Δ_k with no per-lane index compare in the hot loop.
    // The transient value may wrap; the wrapping add cancels the wrap
    // exactly, and only the final value is ever observed (by the min
    // fold here and by callers).
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    d[k] = d_k_new.wrapping_sub(i32::from(row[k]) << 1);
    let xk_mask = if xk { u64::MAX } else { 0 };
    let mut min_l = [i32::MAX; CHUNK];
    for (ci, (dc, wc)) in d
        .chunks_exact_mut(CHUNK)
        .zip(row.chunks_exact(CHUNK))
        .enumerate()
    {
        let base = ci * CHUNK;
        // invariant: base <= stride - CHUNK < 64 * xw.len(), and
        // base % 64 ∈ {0, 32}, so the chunk's 32 bits live in one word.
        let bits = ((xw[base / 64] ^ xk_mask) >> (base % 64)) as u32;
        for j in 0..CHUNK {
            // m = -(x_i ^ x_k): 0 or -1 per lane.
            let m = (((bits >> j) & 1) as i32).wrapping_neg();
            // (w2 ^ m) - m = ±w2: the whole Eq. (16) increment without
            // a multiply (pad lanes have w2 = 0, so they stay inert and
            // keep their i32::MAX sentinels).
            // invariant: j < CHUNK = dc.len() = wc.len() = min_l.len()
            // (chunks_exact yields exactly CHUNK-long slices).
            let w2 = i32::from(wc[j]) << 1;
            let v = dc[j].wrapping_add((w2 ^ m) - m);
            // invariant: same j < CHUNK bound as above.
            dc[j] = v;
            min_l[j] = min_l[j].min(v);
        }
    }
    // invariant: CHUNK >= 1, so lane 0 exists and 1.. is in range.
    let mut m = min_l[0];
    for &v in &min_l[1..] {
        m = m.min(v);
    }
    m
}

/// AVX2 arm of [`flip_update`]: one 256-bit vector per chunk.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx2")`
/// (guaranteed by [`FlipKernel::detect`], the only producer of
/// [`FlipKernel::Avx2`]). Slice-length preconditions are those of
/// [`flip_update`]; every pointer access below stays inside `d`/`row`
/// because `base + LANES <= d.len() == row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in flip_update.
unsafe fn flip_update_avx2(d: &mut [i32], row: &[i16], xw: &[u64], k: usize, xk: bool) -> i32 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_castsi256_si128, _mm256_cvtepi16_epi32,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_min_epi32, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_setzero_si256, _mm256_slli_epi32, _mm256_srlv_epi32,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm256_xor_si256, _mm_cvtsi128_si32,
        _mm_loadu_si128, _mm_min_epi32, _mm_shuffle_epi32,
    };

    // invariant: k < d.len() = row.len(), asserted by flip_update.
    let d_k_new = -d[k];
    // Pre-bias (see the portable arm): the uniform sweep adds exactly
    // +2·W_kk to lane k, landing it on -Δ_k without any per-lane index
    // mask; vector adds wrap, cancelling any transient wrap here.
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    d[k] = d_k_new.wrapping_sub(i32::from(row[k]) << 1);
    let xk_mask = if xk { u64::MAX } else { 0 };
    let lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let ones = _mm256_set1_epi32(1);
    let mut vmin = _mm256_set1_epi32(i32::MAX);
    let chunks = d.len() / LANES;
    let dp = d.as_mut_ptr();
    let wp = row.as_ptr();
    for ci in 0..chunks {
        let base = ci * LANES;
        // invariant: base <= stride - LANES < 64 * xw.len() (see the
        // portable arm); the low 8 bits are this chunk's x ^ x_k bits.
        let bits = (((xw[base / 64] ^ xk_mask) >> (base % 64)) & 0xff) as i32;
        let bv = _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(bits), lane_idx), ones);
        // m = 0 or -1 per lane (= -(x_i ^ x_k)).
        let m = _mm256_sub_epi32(_mm256_setzero_si256(), bv);
        // SAFETY: base + LANES <= row.len(); 8 i16 = 16 bytes read
        // through an unaligned-tolerant load (rows are in fact 64-byte
        // aligned via the padded Qubo layout).
        let w16 = unsafe { _mm_loadu_si128(wp.add(base).cast()) };
        let w32 = _mm256_cvtepi16_epi32(w16);
        let w2 = _mm256_slli_epi32::<1>(w32);
        // (w2 ^ m) - m = ±2·W_ik: the Eq. (16) increment, multiply-free.
        let inc = _mm256_sub_epi32(_mm256_xor_si256(w2, m), m);
        // SAFETY: base + LANES <= d.len(); unaligned-tolerant 256-bit
        // load/store of this chunk's Δ entries.
        let dv = unsafe { _mm256_loadu_si256(dp.add(base).cast::<__m256i>()) };
        let v = _mm256_add_epi32(dv, inc);
        // SAFETY: same in-bounds chunk as the load above.
        unsafe { _mm256_storeu_si256(dp.add(base).cast::<__m256i>(), v) };
        vmin = _mm256_min_epi32(vmin, v);
    }
    // Horizontal min of the 8 lane accumulators.
    let lo = _mm256_castsi256_si128(vmin);
    let hi = _mm256_extracti128_si256::<1>(vmin);
    let m128 = _mm_min_epi32(lo, hi);
    let m64 = _mm_min_epi32(m128, _mm_shuffle_epi32::<0b00_00_11_10>(m128));
    let m32 = _mm_min_epi32(m64, _mm_shuffle_epi32::<0b00_00_00_01>(m64));
    _mm_cvtsi128_si32(m32)
}

/// AVX-512 arm of [`flip_update`]: one 512-bit vector per 16-lane
/// chunk. The chunk's `x ⊕ x_k` bits are lifted straight out of the
/// packed solution word as a `__mmask16` — zero per-lane sign decode —
/// and applied as two mask-complementary ops on the shifted weights:
/// lanes with bit 0 add `2·W_ik` (`φ(x_i)·φ(x_k) = +1`), lanes with
/// bit 1 subtract it.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx512f")`
/// (guaranteed by [`FlipKernel::detect`], the only non-test producer of
/// [`FlipKernel::Avx512`]). Slice-length preconditions are those of
/// [`flip_update`]; every pointer access below stays inside `d`/`row`
/// because `base + 16 <= d.len() == row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in flip_update.
unsafe fn flip_update_avx512(d: &mut [i32], row: &[i16], xw: &[u64], k: usize, xk: bool) -> i32 {
    use std::arch::x86_64::{
        __mmask16, _mm256_loadu_si256, _mm512_cvtepi16_epi32, _mm512_loadu_si512,
        _mm512_mask_add_epi32, _mm512_mask_sub_epi32, _mm512_min_epi32, _mm512_reduce_min_epi32,
        _mm512_set1_epi32, _mm512_slli_epi32, _mm512_storeu_si512,
    };

    /// Lanes per 512-bit vector.
    const L: usize = 16;
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    let d_k_new = -d[k];
    // Pre-bias (see the portable arm): the uniform sweep adds exactly
    // +2·W_kk to lane k, landing it on -Δ_k without any per-lane index
    // mask; vector adds wrap, cancelling any transient wrap here.
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    d[k] = d_k_new.wrapping_sub(i32::from(row[k]) << 1);
    let xk_mask = if xk { u64::MAX } else { 0 };
    let mut vmin = _mm512_set1_epi32(i32::MAX);
    let chunks = d.len() / L;
    let dp = d.as_mut_ptr();
    let wp = row.as_ptr();
    for ci in 0..chunks {
        let base = ci * L;
        // invariant: base <= stride - 16 < 64 * xw.len(), and base % 64
        // is a multiple of 16, so the chunk's 16 bits live in one word.
        let m = (((xw[base / 64] ^ xk_mask) >> (base % 64)) & 0xffff) as __mmask16;
        // SAFETY: base + 16 <= row.len(); 16 i16 = 32 bytes read
        // through an unaligned-tolerant load (rows are in fact 64-byte
        // aligned via the padded Qubo layout).
        let w16 = unsafe { _mm256_loadu_si256(wp.add(base).cast()) };
        let w2 = _mm512_slli_epi32::<1>(_mm512_cvtepi16_epi32(w16));
        // SAFETY: base + 16 <= d.len(); unaligned-tolerant 512-bit
        // load/store of this chunk's Δ entries.
        let dv = unsafe { _mm512_loadu_si512(dp.add(base).cast()) };
        // Bit 0 → +2·W_ik, bit 1 → −2·W_ik: the Eq. (16) increment as
        // two mask-complementary ops, multiply-free and decode-free.
        let plus = _mm512_mask_add_epi32(dv, !m, dv, w2);
        let v = _mm512_mask_sub_epi32(plus, m, plus, w2);
        // SAFETY: same in-bounds chunk as the load above.
        unsafe { _mm512_storeu_si512(dp.add(base).cast(), v) };
        vmin = _mm512_min_epi32(vmin, v);
    }
    _mm512_reduce_min_epi32(vmin)
}

/// [`flip_update`] fused with the straight walk's next selection: the
/// same Eq. (16) update and min, plus the leftmost minimum of the
/// *updated* Δ over the lanes `mask` selects ([`masked_argmin`]'s
/// contract). The caller clears bit `k` from `mask` first: the flipped
/// bit no longer differs. On [`FlipKernel::Avx512`] the selection rides
/// the update's own pass — each updated chunk folds into one of four
/// per-chunk-position (value, chunk) accumulators under its `__mmask16`
/// — so the walk touches Δ once per flip; the other arms run
/// [`flip_update`] then [`masked_argmin`].
///
/// # Panics
/// Panics if `mask` has fewer words than `xw`, or (debug) on the
/// [`flip_update`] preconditions.
#[must_use]
pub fn flip_update_walk(
    kernel: FlipKernel,
    d: &mut [i32],
    row: &[i16],
    xw: &[u64],
    k: usize,
    xk: bool,
    mask: &[u64],
) -> (i32, Option<usize>) {
    #[cfg(target_arch = "x86_64")]
    if kernel == FlipKernel::Avx512 {
        assert!(
            mask.len() >= xw.len(),
            "mask must cover every solution word"
        );
        debug_assert_eq!(d.len(), row.len(), "Δ slice must match the padded row");
        debug_assert!(k < d.len(), "flip index out of range");
        debug_assert!(
            xw.len() * 64 >= d.len(),
            "packed words must cover the stride"
        );
        // SAFETY: the Avx512 variant is only constructed by
        // FlipKernel::detect (or by tests) after
        // is_x86_feature_detected!("avx512f") confirmed the CPU feature
        // for this process.
        return unsafe { flip_update_walk_avx512(d, row, xw, k, xk, mask) };
    }
    let min_d = flip_update(kernel, d, row, xw, k, xk);
    (min_d, masked_argmin(d, mask))
}

/// AVX-512 arm of [`flip_update_walk`]: [`flip_update_avx512`]'s
/// update, one packed word (four 16-lane chunks; two for a last word
/// that ends a 32-multiple stride) per step, with a masked strict-`<`
/// fold of each updated chunk into accumulator `c` (chunk position in
/// the word) that records the chunk's base index on every win. Four
/// accumulators keep the compare→move chains independent. Each lane
/// keeps its first minimum, so the smallest `base + lane` among the
/// lanes holding the global minimum is the leftmost one.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx512f")`.
/// Slice preconditions are those of [`flip_update`] plus
/// `mask.len() >= xw.len()`; every pointer access stays inside
/// `d`/`row` because a chunk starting at `base` satisfies
/// `base + 16 <= d.len() == row.len()` (the stride is a multiple of 32,
/// and the upper half of a word runs only when `base + 64 <= d.len()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in flip_update_walk.
unsafe fn flip_update_walk_avx512(
    d: &mut [i32],
    row: &[i16],
    xw: &[u64],
    k: usize,
    xk: bool,
    mask: &[u64],
) -> (i32, Option<usize>) {
    use std::arch::x86_64::{
        __mmask16, _mm256_loadu_si256, _mm512_add_epi32, _mm512_cmpeq_epi32_mask,
        _mm512_cvtepi16_epi32, _mm512_loadu_si512, _mm512_mask_add_epi32,
        _mm512_mask_cmplt_epi32_mask, _mm512_mask_mov_epi32, _mm512_mask_reduce_min_epi32,
        _mm512_mask_sub_epi32, _mm512_min_epi32, _mm512_reduce_min_epi32, _mm512_set1_epi32,
        _mm512_setr_epi32, _mm512_setzero_si512, _mm512_slli_epi32, _mm512_storeu_si512,
    };

    // invariant: k < d.len() = row.len(), asserted by the caller.
    let d_k_new = -d[k];
    // Pre-bias (see the portable flip arm): the uniform sweep adds
    // exactly +2·W_kk to lane k, landing it on -Δ_k.
    // invariant: k < d.len() = row.len(), asserted by the caller.
    d[k] = d_k_new.wrapping_sub(i32::from(row[k]) << 1);
    let xk_mask = if xk { u64::MAX } else { 0 };
    let fill = _mm512_set1_epi32(i32::MAX);
    let mut vmin = fill;
    let mut wmin = [fill; 4];
    let mut widx = [_mm512_setzero_si512(); 4];
    let len = d.len();
    let dp = d.as_mut_ptr();
    let wp = row.as_ptr();
    // One 16-lane chunk at `base`: update, store, fold into the full min
    // and into accumulator `c` under the walk mask `sel`.
    macro_rules! chunk {
        ($c:literal, $base:expr, $xbits:expr, $sel:expr) => {{
            let base = $base;
            let xbits = $xbits as __mmask16;
            // SAFETY: base + 16 <= row.len() (see the fn's # Safety).
            let w16 = unsafe { _mm256_loadu_si256(wp.add(base).cast()) };
            let w2 = _mm512_slli_epi32::<1>(_mm512_cvtepi16_epi32(w16));
            // SAFETY: base + 16 <= d.len(), the same chunk.
            let dv = unsafe { _mm512_loadu_si512(dp.add(base).cast()) };
            let plus = _mm512_mask_add_epi32(dv, !xbits, dv, w2);
            let v = _mm512_mask_sub_epi32(plus, xbits, plus, w2);
            // SAFETY: same in-bounds chunk as the load above.
            unsafe { _mm512_storeu_si512(dp.add(base).cast(), v) };
            vmin = _mm512_min_epi32(vmin, v);
            // invariant: $c is a literal below 4 = wmin.len() = widx.len().
            let lt = _mm512_mask_cmplt_epi32_mask($sel as __mmask16, v, wmin[$c]);
            // invariant: as above, $c < 4.
            wmin[$c] = _mm512_mask_mov_epi32(wmin[$c], lt, v);
            // invariant: as above, $c < 4.
            widx[$c] = _mm512_mask_mov_epi32(widx[$c], lt, _mm512_set1_epi32(base as i32));
        }};
    }
    // invariant: xw covers the stride (64·xw.len() >= len) and mask has
    // at least xw.len() words, so the zip visits every chunk's word.
    for (wi, (&xword, &sel)) in xw.iter().zip(mask).enumerate() {
        let base = wi * 64;
        if base >= len {
            break;
        }
        let xbits = xword ^ xk_mask;
        chunk!(0, base, xbits, sel);
        chunk!(1, base + 16, xbits >> 16, sel >> 16);
        if base + 64 <= len {
            chunk!(2, base + 32, xbits >> 32, sel >> 32);
            chunk!(3, base + 48, xbits >> 48, sel >> 48);
        }
    }
    let min_d = _mm512_reduce_min_epi32(vmin);
    // invariant: wmin has exactly the four accumulators 0..4.
    let lo = _mm512_min_epi32(wmin[0], wmin[1]);
    // invariant: as above.
    let hi = _mm512_min_epi32(wmin[2], wmin[3]);
    let best = _mm512_reduce_min_epi32(_mm512_min_epi32(lo, hi));
    // Real Δ entries never reach i32::MAX, so a selected lane always
    // won its accumulator: MAX here means no bit was selected.
    if best == i32::MAX {
        return (min_d, None);
    }
    let vb = _mm512_set1_epi32(best);
    let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut idx = i32::MAX;
    for (&wm, &wx) in wmin.iter().zip(&widx) {
        let at = _mm512_mask_reduce_min_epi32(
            _mm512_cmpeq_epi32_mask(wm, vb),
            _mm512_add_epi32(wx, iota),
        );
        idx = idx.min(at);
    }
    (min_d, Some(idx as usize))
}

/// Lane-wise circular-window argmin over `deltas[..n]`: index of the
/// minimum inside the window of length `len` starting at `start`, with
/// the exact tie-break contract of [`crate::window_argmin`] (first
/// index in scan order from `start`; the wrapped slice wins only on a
/// strictly smaller value). `len` is clamped to `[1, n]`.
///
/// Callers pass the *logical* Δ slice (`..n`, without pad sentinels):
/// windows are defined over real bits only.
///
/// # Panics
/// Panics if `deltas` is empty or `start >= deltas.len()`.
#[must_use]
pub fn window_argmin(kernel: FlipKernel, deltas: &[i32], start: usize, len: usize) -> usize {
    let n = deltas.len();
    assert!(start < n, "window start {start} out of range {n}");
    let l = len.clamp(1, n);
    let first_len = l.min(n - start);
    // invariant: start < n asserted above and start + first_len <= n
    // by the min against n - start.
    let (i1, v1) = slice_min_first(kernel, &deltas[start..start + first_len]);
    let rest = l - first_len;
    if rest > 0 {
        // invariant: rest = l - first_len <= n since l <= n.
        let (i2, v2) = slice_min_first(kernel, &deltas[..rest]);
        if v2 < v1 {
            return i2;
        }
    }
    start + i1
}

/// First-occurrence minimum of a non-empty slice, lane-dispatched.
fn slice_min_first(kernel: FlipKernel, s: &[i32]) -> (usize, i32) {
    match kernel {
        FlipKernel::Scalar | FlipKernel::Lanes => slice_min_first_lanes(s),
        FlipKernel::Avx2 | FlipKernel::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: both intrinsic variants come only from
                // FlipKernel::detect (or tests), which checked
                // is_x86_feature_detected!("avx2") for this process
                // (Avx512 additionally requires avx512f).
                unsafe { slice_min_first_avx2(s) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                slice_min_first_lanes(s)
            }
        }
    }
}

/// Portable arm: a lane-independent min fold, then one locate scan
/// (both straight-line and autovectorizable).
fn slice_min_first_lanes(s: &[i32]) -> (usize, i32) {
    // invariant: callers pass non-empty slices (flip_update's sweep and
    // window_argmin's clamp to [1, n] both guarantee it).
    let mut min_v = s[0];
    for &v in &s[1..] {
        min_v = min_v.min(v);
    }
    // invariant: min_v was read out of `s` above, so the locate scan
    // stops before i leaves the slice.
    let mut i = 0;
    while s[i] != min_v {
        i += 1;
    }
    (i, min_v)
}

/// AVX2 arm: a single pass that carries a candidate-index vector next
/// to the min fold (per-lane first occurrence; strict-less blend), then
/// reduces to the smallest index among the lanes holding the global
/// min. The scalar tail updates on strictly-smaller only, so earlier
/// vector positions keep ties — the combined result is the
/// first-in-slice minimum, exactly like the portable arm.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in slice_min_first.
unsafe fn slice_min_first_avx2(s: &[i32]) -> (usize, i32) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_blendv_epi8, _mm256_cmpgt_epi32, _mm256_loadu_si256,
        _mm256_min_epi32, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_storeu_si256,
    };

    let chunks = s.len() / LANES;
    let p = s.as_ptr();
    let mut best = (usize::MAX, i32::MAX);
    if chunks > 0 {
        // SAFETY: chunks >= 1, so the first LANES elements exist.
        let mut vmin = unsafe { _mm256_loadu_si256(p.cast()) };
        let mut vidx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut cand = vidx;
        let step = _mm256_set1_epi32(LANES as i32);
        for ci in 1..chunks {
            cand = _mm256_add_epi32(cand, step);
            // SAFETY: ci * LANES + LANES <= chunks * LANES <= s.len().
            let v = unsafe { _mm256_loadu_si256(p.add(ci * LANES).cast()) };
            let lt = _mm256_cmpgt_epi32(vmin, v);
            vmin = _mm256_min_epi32(vmin, v);
            vidx = _mm256_blendv_epi8(vidx, cand, lt);
        }
        let mut vals = [0i32; LANES];
        let mut idxs = [0i32; LANES];
        // SAFETY: vals/idxs are LANES i32s = exactly one 256-bit store each.
        unsafe {
            _mm256_storeu_si256(vals.as_mut_ptr().cast(), vmin);
            _mm256_storeu_si256(idxs.as_mut_ptr().cast(), vidx);
        }
        for j in 0..LANES {
            let (bi, bv) = best;
            // invariant: j < LANES = vals.len() = idxs.len().
            if vals[j] < bv || (vals[j] == bv && (idxs[j] as usize) < bi) {
                best = (idxs[j] as usize, vals[j]);
            }
        }
    }
    // invariant: chunks * LANES <= s.len() by construction of chunks.
    for (off, &v) in s[chunks * LANES..].iter().enumerate() {
        if v < best.1 {
            best = (chunks * LANES + off, v);
        }
    }
    (best.0, best.1)
}

/// Leftmost minimum of `d` over the entries selected by the packed
/// `mask` words (bit `i % 64` of word `i / 64` selects `d[i]`): the
/// straight search's selection, with the diff words as lane masks.
/// `None` when no bit is set.
///
/// `d` is the Δ slice padded to the row stride; every set bit must
/// select a real entry (the diff words of two length-`n` solutions set
/// no bit at or past `n`). Zero words are skipped whole, so the cost
/// falls with the bits left to walk. A per-word masked min with the
/// word's bits expanded to a keep/drop select per lane (lane-independent,
/// so it autovectorizes on every kernel), the leftmost word holding the
/// global minimum kept by strict `<`, then a locate over that one word's
/// set bits — the tie contract of [`crate::straight::walk_bits`]
/// (strict `<` in index order). Real Δ entries never reach `i32::MAX`
/// (the qubo crate's compile-time bound), so a selected lane always
/// beats the fold's seed. An AVX2 intrinsics form of the fold made the
/// walk no faster on the `Avx2` kernel, so every kernel shares this one.
///
/// # Panics
/// Panics if `mask` has more words than `d` spans.
#[must_use]
pub fn masked_argmin(d: &[i32], mask: &[u64]) -> Option<usize> {
    assert!(
        mask.len() <= d.len().div_ceil(64),
        "mask has more words than the Δ slice spans"
    );
    debug_assert_eq!(d.len() % LANES, 0, "padded stride must be a LANES multiple");
    let mut best: Option<(usize, i32)> = None;
    for (wi, &w) in mask.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let base = wi * 64;
        let mut m = i32::MAX;
        // invariant: base + word_span <= d.len() (see word_span).
        for (j, &v) in d[base..base + word_span(d.len(), wi)].iter().enumerate() {
            m = m.min(if (w >> j) & 1 == 1 { v } else { i32::MAX });
        }
        if best.is_none_or(|(_, bv)| m < bv) {
            best = Some((wi, m));
        }
    }
    let (wi, m) = best?;
    // invariant: wi < mask.len(), the index the fold above kept.
    let mut w = mask[wi];
    loop {
        let i = wi * 64 + w.trailing_zeros() as usize;
        // invariant: m was folded from a selected entry of word wi, so
        // the scan meets it before w runs out of set bits (i < d.len()).
        if d[i] == m {
            return Some(i);
        }
        w &= w - 1;
    }
}

/// Padded lanes diff word `wi` spans inside a Δ slice of `len`
/// entries: 64, or 32 for a last word that straddles the end of a
/// stride that is a 32-multiple but not a 64-multiple. Only words with
/// a set bit are asked, and a set bit indexes a real entry, so
/// `64·wi < len` and both spans stay inside the slice.
#[inline]
fn word_span(len: usize, wi: usize) -> usize {
    if (wi + 1) * 64 <= len {
        64
    } else {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::{BitVec, Qubo};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kernels() -> Vec<FlipKernel> {
        let mut k = vec![FlipKernel::Lanes];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                k.push(FlipKernel::Avx2);
                if is_x86_feature_detected!("avx512f") {
                    k.push(FlipKernel::Avx512);
                }
            }
        }
        k
    }

    /// Scalar reference of the update + min (the fused_i32 semantics).
    fn reference(d: &mut [i32], row: &[i16], x: &BitVec, k: usize, n: usize) -> i32 {
        let two_pk = if x.get(k) { -2 } else { 2 };
        let d_k_new = -d[k];
        let mut min_d = d_k_new;
        for i in 0..n {
            if i == k {
                continue;
            }
            let s = if x.get(i) { -1 } else { 1 };
            d[i] += i32::from(row[i]) * s * two_pk;
            min_d = min_d.min(d[i]);
        }
        d[k] = d_k_new;
        min_d
    }

    #[test]
    fn flip_update_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 7, 8, 9, 31, 32, 33, 64, 65, 100] {
            let qubo = Qubo::random(n, &mut rng);
            let q = qubo.dense();
            let x = BitVec::random(n, &mut rng);
            let stride = q.stride();
            let mut d0 = vec![0i32; stride];
            for (i, v) in d0.iter_mut().enumerate() {
                *v = if i < n {
                    rng.gen_range(-100_000..100_000)
                } else {
                    i32::MAX
                };
            }
            for kern in kernels() {
                for k in [0, n / 2, n - 1] {
                    let mut want = d0[..n].to_vec();
                    let want_min = reference(&mut want, q.row(k), &x, k, n);
                    let mut got = d0.clone();
                    let got_min =
                        flip_update(kern, &mut got, q.row_padded(k), x.words(), k, x.get(k));
                    assert_eq!(&got[..n], &want[..], "{kern:?} n={n} k={k}");
                    assert_eq!(got_min, want_min, "{kern:?} n={n} k={k}");
                    assert!(got[n..].iter().all(|&v| v == i32::MAX), "pad disturbed");
                }
            }
        }
    }

    #[test]
    fn window_argmin_matches_portable_contract() {
        let mut rng = StdRng::seed_from_u64(32);
        for n in [1usize, 5, 8, 17, 64, 100] {
            let d: Vec<i32> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
            for kern in kernels() {
                for _ in 0..40 {
                    let start = rng.gen_range(0..n);
                    let len = rng.gen_range(1..=n + 2);
                    assert_eq!(
                        window_argmin(kern, &d, start, len),
                        crate::window_argmin(&d, start, len),
                        "{kern:?} n={n} start={start} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_argmin_breaks_ties_first_in_scan_order() {
        let d = vec![3i32, 1, 1, 5, 1, 2];
        for kern in kernels() {
            assert_eq!(window_argmin(kern, &d, 0, 6), 1, "{kern:?}");
            assert_eq!(window_argmin(kern, &d, 2, 6), 2, "{kern:?}");
            // Wrapped slice must NOT win an equal value.
            assert_eq!(window_argmin(kern, &d, 4, 4), 4, "{kern:?}");
        }
    }

    #[test]
    fn walk_selection_matches_a_bit_scan() {
        // The leftmost minimum over the selected bits, by brute force.
        fn scan(d: &[i32], mask: &[u64]) -> Option<usize> {
            (0..d.len())
                .filter(|&i| i / 64 < mask.len() && (mask[i / 64] >> (i % 64)) & 1 == 1)
                .min_by_key(|&i| (d[i], i))
        }
        let mut rng = StdRng::seed_from_u64(33);
        for n in [1usize, 31, 32, 63, 64, 65, 96, 130] {
            let qubo = Qubo::random(n, &mut rng);
            let q = qubo.dense();
            let x = BitVec::random(n, &mut rng);
            let mut d0 = vec![i32::MAX; q.stride()];
            for v in &mut d0[..n] {
                // A small alphabet, so ties are common.
                *v = rng.gen_range(-3..3);
            }
            for kern in kernels() {
                let k = rng.gen_range(0..n);
                let target = BitVec::random(n, &mut rng);
                let mut mask = vec![0u64; n.div_ceil(64)];
                x.diff_words_into(&target, &mut mask);
                assert_eq!(
                    masked_argmin(&d0, &mask),
                    scan(&d0, &mask),
                    "{kern:?} n={n}"
                );
                mask[k / 64] &= !(1u64 << (k % 64));
                let mut want = d0.clone();
                let want_min =
                    flip_update(kern, &mut want, q.row_padded(k), x.words(), k, x.get(k));
                let mut got = d0.clone();
                let (got_min, next) = flip_update_walk(
                    kern,
                    &mut got,
                    q.row_padded(k),
                    x.words(),
                    k,
                    x.get(k),
                    &mask,
                );
                assert_eq!(got, want, "{kern:?} n={n} k={k}");
                assert_eq!(got_min, want_min, "{kern:?} n={n} k={k}");
                assert_eq!(next, scan(&got, &mask), "{kern:?} n={n} k={k}");
            }
        }
    }

    #[test]
    fn kernel_ids_roundtrip() {
        for k in [
            FlipKernel::Scalar,
            FlipKernel::Lanes,
            FlipKernel::Avx2,
            FlipKernel::Avx512,
        ] {
            assert_eq!(FlipKernel::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(FlipKernel::from_u8(0), None);
        assert!(!FlipKernel::detect().name().is_empty());
    }
}

//! Wide-vector batch-walk kernels: the lockstep lanes of
//! [`CompiledTree::classify_batch`] advanced per-vector instead of
//! per-lane, over a **packed shadow arena**.
//!
//! For any chunk whose runtime feature values all fit 12 bits (Xentry's
//! Table-I counters do on every fault-free VM entry), the walk runs over
//! a shadow arena that packs an entire split record into ONE u64
//! (`[shamt | left | right | threshold]`) and each lane's ≤
//! `PACKED_MAX_ARITY` feature values into one register word. A round is
//! then a single gather plus eight cheap ALU ops per 8-lane group;
//! leaves self-loop, so there is no per-lane liveness bookkeeping at
//! all. Saturating 12-bit quantization is *exact* under the staged
//! envelope — see the packed-arena section below for the proof sketch
//! and the bit layout. A chunk that overflows the envelope (a struck
//! handler that looped: about one faulty vector in a thousand) is not
//! walked here at all: [`compiled`] hands it, row by row, to the
//! single-sample walk over the real 24-byte records, so the packed tier
//! is an optimization, never an approximation.
//!
//! The packed walk comes in three ISA flavours:
//!
//! | kernel   | packed width             | gate                        |
//! |----------|--------------------------|-----------------------------|
//! | `avx512` | 8 × 8-lane `__m512i`     | `avx512f`                   |
//! | `avx2`   | 4 × 4-lane `__m256i`     | `avx2`                      |
//! | `scalar` | portable lockstep loop   | always (equivalence oracle) |
//!
//! Whether a vector kernel beats the scalar one is a property of the
//! *microarchitecture*, not the ISA: gathers are microcoded and slow on
//! many x86 cores (Skylake-SP-class servers prominently), which is what
//! motivated the one-gather packed arena in the first place.
//! [`BatchWalker::Auto`] resolves by a one-shot **calibration race** on
//! first use — every detected kernel walks the same synthetic packed
//! arena and the fastest wins — rather than trusting feature flags.
//! Benchmarks and the equivalence suite pin kernels explicitly.
//!
//! [`compiled`]: crate::compiled
//! [`CompiledTree::classify_batch`]: crate::compiled::CompiledTree::classify_batch

use crate::compiled::{leaf_label, CompiledNode, LEAF_BIT};
use crate::dataset::Label;

/// Lanes per lockstep group — one AVX-512 register of u64 walk refs.
pub(crate) const LANES: usize = 8;

/// Which batch-walk implementation [`CompiledTree::classify_batch_with`]
/// uses. [`BatchWalker::Auto`] (the plain `classify_batch` behaviour)
/// resolves once per process by racing the detected kernels; the
/// explicit variants exist for benchmarks and the SIMD-vs-scalar
/// equivalence oracle. Asking
/// for a kernel the CPU lacks falls back to the next narrower one, so
/// every variant is always safe to request.
///
/// [`CompiledTree::classify_batch_with`]: crate::compiled::CompiledTree::classify_batch_with
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchWalker {
    /// Fastest kernel by one-shot calibration (see [`active_kernel_name`]).
    #[default]
    Auto,
    /// The portable scalar lockstep kernel — the equivalence oracle.
    Scalar,
    /// The AVX2 kernel, or scalar where unavailable.
    Avx2,
    /// The AVX-512 kernel, or AVX2/scalar where unavailable.
    Avx512,
}

/// Resolved kernel identity — what [`walk_packed`] actually dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Every kernel this CPU can execute, narrowest first.
fn available_kernels() -> Vec<Kernel> {
    #[allow(unused_mut)]
    let mut ks = vec![Kernel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if have_avx2() {
            ks.push(Kernel::Avx2);
        }
        if have_avx512() {
            ks.push(Kernel::Avx512);
        }
    }
    ks
}

/// Build a dense synthetic arena for the calibration race: a full
/// binary tree of `depth` levels inside the packed envelope (5 features,
/// 12-bit thresholds), every leaf at the same depth so each kernel does
/// identical work.
fn calibration_arena(depth: usize) -> Vec<CompiledNode> {
    let splits = (1usize << depth) - 1;
    let mut nodes = Vec::with_capacity(splits);
    // Heap order: children of i at 2i+1 / 2i+2 — forward references, so
    // the walk terminates like any validated arena.
    for i in 0..splits {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let leaf = l >= splits;
        nodes.push(CompiledNode {
            threshold: (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52,
            left: if leaf { LEAF_BIT } else { l as u32 },
            right: if leaf { LEAF_BIT | 1 } else { r as u32 },
            feature: (i % PACKED_MAX_ARITY) as u8,
        });
    }
    nodes
}

/// Race every available kernel over the synthetic arena and return the
/// fastest. Gather-based kernels lose to the scalar chains on cores
/// with microcoded gathers; only a measurement can tell, and ~0.2 ms at
/// first use is far cheaper than guessing wrong forever. The race runs
/// the packed kernels at the full [`PACKED_CHUNK`] interleave width
/// production uses. A kernel's score is the *fastest* of `TRIALS`
/// short trials, not one summed span: a preemption (or the first wide
/// instructions' power-up) lands in some trials, never in all of them,
/// so it cannot hand the process a 2× slower kernel for its lifetime.
fn calibrate() -> Kernel {
    const DEPTH: usize = 12;
    const TRIALS: usize = 8;
    const ROUNDS: usize = 4;
    let nodes = calibration_arena(DEPTH);
    let pa = PackedArena::build(&nodes, PACKED_MAX_ARITY).expect("calibration arena packs");
    let rows: Vec<[u64; PACKED_MAX_ARITY]> = (0..PACKED_CHUNK as u64)
        .map(|i| std::array::from_fn(|f| i.wrapping_mul(31).wrapping_add(f as u64 * 977) & 0xfff))
        .collect();
    let mut fps = [0u64; PACKED_CHUNK];
    let lanes = stage_packed(&rows, PACKED_MAX_ARITY, &mut fps).expect("rows fit 12 bits");
    let mut best = (Kernel::Scalar, u128::MAX);
    for k in available_kernels() {
        // Warm caches and pay decode/page-in before timing.
        let mut refs = [0u32; PACKED_CHUNK];
        // SAFETY: packed-arena references are in-bounds by construction;
        // k is detected-available.
        unsafe { walk_packed(k, &pa, &mut refs[..lanes], &fps[..lanes], DEPTH) };
        let mut fastest = u128::MAX;
        let mut sink = 0u32;
        for _ in 0..TRIALS {
            let t = std::time::Instant::now();
            for i in 0..ROUNDS {
                let mut refs = [(i % 3) as u32; PACKED_CHUNK];
                // SAFETY: as above.
                unsafe { walk_packed(k, &pa, &mut refs[..lanes], &fps[..lanes], DEPTH) };
                sink ^= refs[i % PACKED_CHUNK];
            }
            fastest = fastest.min(t.elapsed().as_nanos());
        }
        std::hint::black_box(sink);
        if fastest < best.1 {
            best = (k, fastest);
        }
    }
    best.0
}

/// The kernel [`BatchWalker::Auto`] resolves to, decided once per
/// process by the calibration race.
pub(crate) fn auto_kernel() -> Kernel {
    use std::sync::OnceLock;
    static AUTO: OnceLock<Kernel> = OnceLock::new();
    *AUTO.get_or_init(calibrate)
}

/// Name of the kernel [`BatchWalker::Auto`] resolves to on this CPU —
/// surfaced in benchmark reports and fleet metrics so a recorded number
/// names the code path that produced it.
pub fn active_kernel_name() -> &'static str {
    kernel_name(auto_kernel())
}

pub(crate) fn kernel_name(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => "avx512",
    }
}

pub(crate) fn resolve(walker: BatchWalker) -> Kernel {
    match walker {
        BatchWalker::Auto => auto_kernel(),
        BatchWalker::Scalar => Kernel::Scalar,
        BatchWalker::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                return Kernel::Avx2;
            }
            Kernel::Scalar
        }
        BatchWalker::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            if have_avx512() {
                return Kernel::Avx512;
            }
            resolve(BatchWalker::Avx2)
        }
    }
}

// ---------------------------------------------------------------------------
// Packed shadow arena — the gather-once fast path.
//
// A 24-byte record cannot be fetched in one 64-bit lane: a vector walk
// over the real arena pays three gathers per level per group, and on
// gather-slow cores that caps a round at gather throughput no matter
// how cheap the ALU work is. The packed arena collapses an entire split
// into ONE u64:
//
// ```text
//   bit  0..6    shamt   = (feature × 12) & 63 — where the feature's
//                          12-bit field sits in the lane's packed word
//   bit  6..29   left    } child *indices* into this arena (23 bits);
//   bit 29..52   right   } no leaf tag — leaves are real records
//   bit 52..64   thr     = min(threshold, 0xFFF), saturating-quantized
// ```
//
// and each lane's (≤ [`PACKED_MAX_ARITY`]) feature values into one
// register word, `value_j` at bits `12j..12j+12`. The field order is
// chosen so every extraction is minimal: the shamt needs only a mask,
// the threshold (top field) only a shift, and the taken child is pulled
// with ONE variable shift whose count (6 or 29) is blended from the
// compare — neither child is extracted separately. A round is then one
// gather and eight cheap ALU ops (mask, `srlv`, mask, shift, compare,
// blend, `srlv`, mask) per 8-lane group, with up to eight groups
// interleaved so the gathers pipeline.
//
// **Exactness.** Quantization never changes a verdict as long as every
// *runtime feature value* fits 12 bits: for `fv ≤ 0xFFF`,
// `fv <= min(thr, 0xFFF) ⇔ fv <= thr` for *any* u64 threshold (if
// `thr > 0xFFF` both sides are unconditionally true). [`stage_packed`]
// verifies the bound per chunk — an oversized value sends that chunk to
// the single-sample walk over the real records, which compares full
// u64s, so the packed path is an optimization, never an approximation.
// Xentry's Table-I counters (instructions retired deltas, CR3 switch
// counts, …) are small integers in practice; the fallback exists for
// everything else.
//
// **Termination without masks.** The two possible verdicts are
// materialized as two extra records at indices `n` and `n+1` (label in
// bit 6) whose children point at *themselves*. A lane that reaches a
// leaf keeps re-selecting the same record: no liveness mask, no freeze
// blend, no early-exit bookkeeping per lane — a lane is done exactly
// when its index is ≥ `nsplits`, checked once per 8-round burst.

/// Feature-field width in the packed word — quantization bound 0xFFF.
pub(crate) const PACKED_FEATURE_BITS: usize = 12;

/// Largest runtime feature value the packed kernels compare exactly.
pub(crate) const PACKED_MAX_FEATURE: u64 = (1 << PACKED_FEATURE_BITS) - 1;

/// Widest model the packed word can index: 5 × 12-bit fields fit a u64
/// (Xentry's Table-I layout exactly).
pub(crate) const PACKED_MAX_ARITY: usize = 5;

/// Samples staged, and checked against the 12-bit envelope, at a time;
/// a batch window holds 16 of these (a forest reuses the words across
/// every tree).
pub(crate) const PACKED_CHUNK: usize = 64;

/// Child-index width: arenas up to `2²³ − 2` splits take the packed
/// path; larger ones (no Xentry model is within orders of magnitude)
/// get no shadow and are walked row by row.
const PACKED_IDX_BITS: usize = 23;
const PACKED_IDX_MASK: u64 = (1 << PACKED_IDX_BITS) - 1;

/// One-u64-per-split shadow of a compiled arena, plus two self-looping
/// leaf records. Rebuilt whenever the record arena changes (compile,
/// fault injection), so it is never stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedArena {
    pub(crate) words: Vec<u64>,
    /// Split count; indices ≥ this are parked at a leaf record.
    pub(crate) nsplits: u32,
}

impl PackedArena {
    /// Pack a record arena, or `None` when the model is outside the
    /// packed envelope (too many features, too many splits, or empty —
    /// a single-leaf tree has a constant verdict and needs no walk).
    pub(crate) fn build(nodes: &[CompiledNode], arity: usize) -> Option<PackedArena> {
        let n = nodes.len();
        if n == 0 || arity > PACKED_MAX_ARITY || n + 2 > (1 << PACKED_IDX_BITS) {
            return None;
        }
        let enc = |r: u32| -> u64 {
            if r & LEAF_BIT != 0 {
                n as u64 + (r & 1) as u64 // leaf record for that label
            } else {
                // The clamp is inert for valid arenas (children < n) but
                // keeps a bit-flipped child reference inside the word
                // table — corrupt arenas walk to garbage verdicts here,
                // never out of bounds.
                (r as u64).min(n as u64 + 1)
            }
        };
        let mut words = Vec::with_capacity(n + 2);
        for node in nodes {
            // The & 63 keeps a corrupt feature byte (fault injection)
            // from spilling into the left-child field; the resulting
            // bounded-garbage shift is semantically wrong but memory-safe.
            let sh = (node.feature as u64 * PACKED_FEATURE_BITS as u64) & 63;
            let thr = node.threshold.min(PACKED_MAX_FEATURE);
            words.push(sh | (enc(node.left) << 6) | (enc(node.right) << 29) | (thr << 52));
        }
        for label in 0..2u64 {
            let slf = n as u64 + label;
            words.push((slf << 6) | (slf << 29) | (label << 52));
        }
        Some(PackedArena {
            words,
            nsplits: n as u32,
        })
    }

    /// Map a tagged root reference to a packed start index.
    #[inline]
    pub(crate) fn entry(&self, root: u32) -> u32 {
        if root & LEAF_BIT != 0 {
            self.nsplits + (root & 1)
        } else {
            root
        }
    }

    /// Verdict of a parked lane (index at or past `nsplits`).
    #[inline]
    pub(crate) fn label(&self, r: u32) -> Label {
        debug_assert!(r >= self.nsplits);
        leaf_label((self.words[r as usize] >> 52) as u32)
    }

    /// `Incorrect` as 0/1 — the forest vote increment.
    #[inline]
    pub(crate) fn vote(&self, r: u32) -> u32 {
        debug_assert!(r >= self.nsplits);
        (self.words[r as usize] >> 52) as u32 & 1
    }
}

/// Pack a chunk's feature rows into per-lane words: `Some(lanes)` (the
/// chunk padded to a [`LANES`] multiple by replicating the last row) when
/// every value fits 12 bits, `None` when the chunk must take the exact
/// row-by-row walk instead.
pub(crate) fn stage_packed<I: AsRef<[u64]>>(
    chunk: &[I],
    arity: usize,
    fps: &mut [u64; PACKED_CHUNK],
) -> Option<usize> {
    stage_packed_with(chunk.len(), |i| chunk[i].as_ref(), arity, fps)
}

/// [`stage_packed_with`] for rows whose length *equals* the arity: the
/// packing loop has a const trip count, so it fully unrolls — no
/// per-field loop control on the staging path. This is the detector's
/// shape (5 Table-I features, arity 5).
pub(crate) fn stage_packed_const<const A: usize>(
    len: usize,
    row: impl Fn(usize) -> [u64; A],
    fps: &mut [u64; PACKED_CHUNK],
) -> Option<usize> {
    debug_assert!(A <= PACKED_MAX_ARITY);
    debug_assert!((1..=PACKED_CHUNK).contains(&len));
    let mut acc = 0u64;
    for (i, slot) in fps.iter_mut().enumerate().take(len) {
        let r = row(i);
        let mut w = 0u64;
        for (j, &v) in r.iter().enumerate() {
            acc |= v;
            w |= v << (PACKED_FEATURE_BITS * j);
        }
        *slot = w;
    }
    if acc > PACKED_MAX_FEATURE {
        return None;
    }
    let lanes = len.div_ceil(LANES) * LANES;
    let last = fps[len - 1];
    for slot in fps[len..lanes].iter_mut() {
        *slot = last;
    }
    Some(lanes)
}

/// [`stage_packed`] over a row *producer* instead of a row slice — the
/// staging-fused form: callers whose rows live in a different shape
/// (the detector's `FeatureVec`) pack straight into the feature words
/// without materializing an intermediate row array first.
pub(crate) fn stage_packed_with<R: AsRef<[u64]>>(
    len: usize,
    row: impl Fn(usize) -> R,
    arity: usize,
    fps: &mut [u64; PACKED_CHUNK],
) -> Option<usize> {
    debug_assert!((1..=PACKED_CHUNK).contains(&len));
    let mut acc = 0u64;
    for (i, slot) in fps.iter_mut().enumerate().take(len) {
        let r = row(i);
        let mut w = 0u64;
        // Unmasked packing: if any value overflows its 12-bit field the
        // word is garbage, but `acc` catches exactly that case below and
        // the staged words are then discarded — so the per-field masks
        // would only ever mask off nothing.
        for (j, &v) in r.as_ref().iter().take(arity).enumerate() {
            acc |= v;
            w |= v << (PACKED_FEATURE_BITS * j);
        }
        *slot = w;
    }
    if acc > PACKED_MAX_FEATURE {
        return None; // quantization would be inexact for this chunk
    }
    let lanes = len.div_ceil(LANES) * LANES;
    let last = fps[len - 1];
    for slot in fps[len..lanes].iter_mut() {
        *slot = last;
    }
    Some(lanes)
}

/// Advance packed walks to their leaf records (at most `depth` rounds)
/// with the resolved kernel. `refs` holds each lane's current packed
/// index and receives its leaf-record index; `fps` the lanes' packed
/// feature words. Lane count must be a multiple of [`LANES`].
///
/// # Safety
/// Every reference in `refs` must index `pa.words`, which
/// [`PackedArena::build`] guarantees transitively for any start index it
/// produced (children are in-bounds by construction, leaves self-loop).
/// A `Kernel::Avx2`/`Avx512` value must come from [`resolve`].
#[inline]
pub(crate) unsafe fn walk_packed(
    kernel: Kernel,
    pa: &PackedArena,
    refs: &mut [u32],
    fps: &[u64],
    depth: usize,
) {
    debug_assert_eq!(refs.len(), fps.len());
    debug_assert!(refs.len().is_multiple_of(LANES));
    match kernel {
        Kernel::Scalar => walk_packed_scalar(&pa.words, pa.nsplits, refs, fps, depth),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            // 4 interleaved 4-lane chains per call: enough gathers in
            // flight to cover their latency without spilling ymm state.
            for (r, f) in refs.chunks_mut(2 * LANES).zip(fps.chunks(2 * LANES)) {
                match r.len() / 4 {
                    1 => walk_packed_avx2::<1>(&pa.words, pa.nsplits, r, f, depth),
                    2 => walk_packed_avx2::<2>(&pa.words, pa.nsplits, r, f, depth),
                    _ => walk_packed_avx2::<4>(&pa.words, pa.nsplits, r, f, depth),
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => {
            // Up to 8 interleaved 8-lane chains: 16 zmm of walk state
            // plus temporaries fits the 32-register file.
            for (r, f) in refs.chunks_mut(PACKED_CHUNK).zip(fps.chunks(PACKED_CHUNK)) {
                match r.len() / LANES {
                    1 => walk_packed_avx512::<1>(&pa.words, pa.nsplits, r, f, depth),
                    2 => walk_packed_avx512::<2>(&pa.words, pa.nsplits, r, f, depth),
                    3 => walk_packed_avx512::<3>(&pa.words, pa.nsplits, r, f, depth),
                    4 => walk_packed_avx512::<4>(&pa.words, pa.nsplits, r, f, depth),
                    5 => walk_packed_avx512::<5>(&pa.words, pa.nsplits, r, f, depth),
                    6 => walk_packed_avx512::<6>(&pa.words, pa.nsplits, r, f, depth),
                    7 => walk_packed_avx512::<7>(&pa.words, pa.nsplits, r, f, depth),
                    _ => walk_packed_avx512::<8>(&pa.words, pa.nsplits, r, f, depth),
                }
            }
        }
    }
}

/// Portable packed kernel — the equivalence oracle for the vector
/// packed kernels, and the packed path on non-x86. Lockstep rounds keep
/// the lanes' single loads overlapped; parked lanes spin harmlessly on
/// their self-looping leaf record.
///
/// # Safety
/// Same contract as [`walk_packed`].
unsafe fn walk_packed_scalar(
    words: &[u64],
    nsplits: u32,
    refs: &mut [u32],
    fps: &[u64],
    depth: usize,
) {
    for _ in 0..depth {
        let mut parked = true;
        for (r, &fp) in refs.iter_mut().zip(fps) {
            let w = *words.get_unchecked(*r as usize);
            let fv = (fp >> (w & 63)) & PACKED_MAX_FEATURE;
            let thr = w >> 52;
            let child = if fv <= thr { 6 } else { 29 };
            let next = (w >> child) & PACKED_IDX_MASK;
            *r = next as u32;
            parked &= next as u32 >= nsplits;
        }
        if parked {
            break;
        }
    }
}

/// AVX-512 packed kernel: `G` interleaved 8-lane chains. One gather and
/// seven cheap vector ops per chain per round; an all-parked check every
/// eight rounds costs one compare per chain.
///
/// # Safety
/// Same contract as [`walk_packed`], plus `avx512f` must be detected
/// ([`resolve`] guarantees this); `refs.len() == fps.len() == 8 G`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn walk_packed_avx512<const G: usize>(
    words: &[u64],
    nsplits: u32,
    refs: &mut [u32],
    fps: &[u64],
    depth: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(refs.len(), LANES * G);
    let base = words.as_ptr() as *const i64;
    let m63 = _mm512_set1_epi64(63);
    let fff = _mm512_set1_epi64(PACKED_MAX_FEATURE as i64);
    let m23 = _mm512_set1_epi64(PACKED_IDX_MASK as i64);
    let sh_l = _mm512_set1_epi64(6);
    let sh_r = _mm512_set1_epi64(29);
    let splits = _mm512_set1_epi64(nsplits as i64);

    let mut idx: [__m512i; G] = std::array::from_fn(|g| {
        _mm512_cvtepu32_epi64(_mm256_loadu_si256(
            refs.as_ptr().add(LANES * g) as *const __m256i
        ))
    });
    let fp: [__m512i; G] =
        std::array::from_fn(|g| _mm512_loadu_si512(fps.as_ptr().add(LANES * g) as *const __m512i));

    let mut round = 0;
    while round < depth {
        let burst = (depth - round).min(8);
        for _ in 0..burst {
            for g in 0..G {
                let w = _mm512_i64gather_epi64::<8>(idx[g], base);
                let sh = _mm512_and_si512(w, m63);
                let fv = _mm512_and_si512(_mm512_srlv_epi64(fp[g], sh), fff);
                let thr = _mm512_srli_epi64::<52>(w);
                let le = _mm512_cmple_epu64_mask(fv, thr);
                // One variable shift pulls the taken child: its count is
                // the blended field offset, so neither child is
                // extracted separately.
                let child = _mm512_mask_blend_epi64(le, sh_r, sh_l);
                idx[g] = _mm512_and_si512(_mm512_srlv_epi64(w, child), m23);
            }
        }
        round += burst;
        let mut live = 0u8;
        for g in &idx {
            live |= _mm512_cmplt_epu64_mask(*g, splits);
        }
        if live == 0 {
            break;
        }
    }

    for (g, &v) in idx.iter().enumerate() {
        _mm256_storeu_si256(
            refs.as_mut_ptr().add(LANES * g) as *mut __m256i,
            _mm512_cvtepi64_epi32(v),
        );
    }
}

/// AVX2 packed kernel: `H` interleaved 4-lane chains. No mask registers,
/// but also no liveness to track — the signed compares are safe because
/// both operands are ≤ 0xFFF.
///
/// # Safety
/// Same contract as [`walk_packed`], plus `avx2` must be detected
/// ([`resolve`] guarantees this); `refs.len() == fps.len() == 4 H`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_packed_avx2<const H: usize>(
    words: &[u64],
    nsplits: u32,
    refs: &mut [u32],
    fps: &[u64],
    depth: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(refs.len(), 4 * H);
    let base = words.as_ptr() as *const i64;
    let m63 = _mm256_set1_epi64x(63);
    let fff = _mm256_set1_epi64x(PACKED_MAX_FEATURE as i64);
    let m23 = _mm256_set1_epi64x(PACKED_IDX_MASK as i64);
    let sh_l = _mm256_set1_epi64x(6);
    let sh_r = _mm256_set1_epi64x(29);
    let splits = _mm256_set1_epi64x(nsplits as i64);

    let mut idx: [__m256i; H] = std::array::from_fn(|h| {
        _mm256_cvtepu32_epi64(_mm_loadu_si128(refs.as_ptr().add(4 * h) as *const __m128i))
    });
    let fp: [__m256i; H] =
        std::array::from_fn(|h| _mm256_loadu_si256(fps.as_ptr().add(4 * h) as *const __m256i));

    let mut round = 0;
    while round < depth {
        let burst = (depth - round).min(8);
        for _ in 0..burst {
            for h in 0..H {
                let w = _mm256_i64gather_epi64::<8>(base, idx[h]);
                let sh = _mm256_and_si256(w, m63);
                let fv = _mm256_and_si256(_mm256_srlv_epi64(fp[h], sh), fff);
                let thr = _mm256_srli_epi64::<52>(w);
                // fv > thr goes right; signed compare is exact ≤ 0xFFF.
                let gt = _mm256_cmpgt_epi64(fv, thr);
                // One variable shift pulls the taken child (see AVX-512).
                let child = _mm256_blendv_epi8(sh_l, sh_r, gt);
                idx[h] = _mm256_and_si256(_mm256_srlv_epi64(w, child), m23);
            }
        }
        round += burst;
        let mut live = _mm256_setzero_si256();
        for h in &idx {
            // idx < nsplits, signed-safe: both fit 23 bits.
            live = _mm256_or_si256(live, _mm256_cmpgt_epi64(splits, *h));
        }
        if _mm256_movemask_epi8(live) == 0 {
            break;
        }
    }

    let mut out = [0u64; 4];
    for (h, &lanes) in idx.iter().enumerate() {
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, lanes);
        for (k, &v) in out.iter().enumerate() {
            *refs.get_unchecked_mut(4 * h + k) = v as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_walkers_resolve_with_fallback() {
        assert_eq!(resolve(BatchWalker::Scalar), Kernel::Scalar);
        assert_eq!(resolve(BatchWalker::Auto), auto_kernel());
        // Explicit requests never fail: unsupported kernels fall back.
        let _ = resolve(BatchWalker::Avx2);
        let _ = resolve(BatchWalker::Avx512);
        assert_eq!(active_kernel_name(), kernel_name(auto_kernel()));
    }

    #[test]
    fn every_available_packed_kernel_agrees_and_parks_at_leaves() {
        let nodes = calibration_arena(10);
        let pa = PackedArena::build(&nodes, PACKED_MAX_ARITY).unwrap();
        let rows: Vec<[u64; PACKED_MAX_ARITY]> = (0..50u64)
            .map(|i| {
                std::array::from_fn(|f| i.wrapping_mul(0x2545_f491).rotate_left(f as u32) & 0xfff)
            })
            .collect();
        let mut fps = [0u64; PACKED_CHUNK];
        let lanes = stage_packed(&rows, PACKED_MAX_ARITY, &mut fps).unwrap();
        assert_eq!(lanes, 56, "50 rows pad to the next 8-lane multiple");
        let mut want = [0u32; PACKED_CHUNK];
        // SAFETY: packed references are in-bounds by construction.
        unsafe { walk_packed(Kernel::Scalar, &pa, &mut want[..lanes], &fps[..lanes], 10) };
        for &r in &want[..lanes] {
            assert!(r >= pa.nsplits, "every lane must park at a leaf record");
        }
        for k in available_kernels() {
            let mut got = [0u32; PACKED_CHUNK];
            // SAFETY: as above; k is detected-available.
            unsafe { walk_packed(k, &pa, &mut got[..lanes], &fps[..lanes], 10) };
            assert_eq!(got, want, "packed kernel {:?} diverged", k);
        }
    }

    #[test]
    fn stage_packed_rejects_oversized_features_and_pads() {
        let mut fps = [0u64; PACKED_CHUNK];
        let rows: Vec<[u64; 2]> = vec![[1, 4096]];
        assert_eq!(stage_packed(&rows, 2, &mut fps), None, "4096 needs 13 bits");
        let rows: Vec<[u64; 2]> = vec![[5, 4095], [7, 9]];
        assert_eq!(stage_packed(&rows, 2, &mut fps), Some(8));
        assert_eq!(fps[0], 5 | (4095 << 12));
        for (lane, &fp) in fps.iter().enumerate().take(8).skip(1) {
            assert_eq!(fp, 7 | (9 << 12), "lane {lane} replicates last");
        }
    }

    #[test]
    fn packed_arena_saturates_thresholds_and_self_loops_leaves() {
        // One split with an over-12-bit threshold, two leaf children.
        let nodes = vec![CompiledNode {
            threshold: u64::MAX,
            left: LEAF_BIT,
            right: LEAF_BIT | 1,
            feature: 3,
        }];
        let pa = PackedArena::build(&nodes, 5).unwrap();
        assert_eq!(pa.nsplits, 1);
        assert_eq!(pa.words.len(), 3);
        let w = pa.words[0];
        assert_eq!(w & 63, 36, "feature 3 sits at bit 36");
        assert_eq!(w >> 52, 0xfff, "threshold saturates");
        for label in 0..2u32 {
            let leaf = pa.words[(1 + label) as usize];
            assert_eq!((leaf >> 52) as u32 & 1, label);
            assert_eq!((leaf >> 6) & PACKED_IDX_MASK, (1 + label) as u64);
            assert_eq!(
                (leaf >> 29) & PACKED_IDX_MASK,
                (1 + label) as u64,
                "leaf self-loops"
            );
        }
        assert_eq!(pa.entry(LEAF_BIT | 1), 2);
        assert_eq!(pa.label(2), Label::Incorrect);
        assert_eq!(pa.vote(1), 0);
        // Out-of-envelope models refuse to pack.
        assert!(PackedArena::build(&[], 5).is_none());
        assert!(PackedArena::build(&nodes, 6).is_none());
    }
}

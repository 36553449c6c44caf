//! The int8 GEMM: one packed, register-blocked kernel, and the
//! kernel-backend policy.
//!
//! The SUSHI datapath lowers dense convolutions to matrix multiplication
//! (see [`crate::ops::im2col`]): weights become an `M×K` row-major matrix,
//! the im2col patch matrix is `K×N`, and the output activations fall out as
//! `M×N` rows that map one-to-one onto contiguous NCHW output rows. Both
//! conv entry points run the one kernel here, structured BLIS-style:
//!
//! * **Packing** ([`crate::ops::pack`]) — both operands are repacked into
//!   panels whose inner stride equals the register tile, with adjacent k
//!   steps interleaved in pairs, so the microkernel only ever loads
//!   contiguous `MR`/`NR` runs of pairs. Zero points are subtracted *at
//!   pack time* (`i8 → i16`), removing all per-MAC zero-point work.
//! * **Register tile** — the AVX2 microkernel covers `MR` rows by three
//!   `NR`-column panels, a 4×24 tile of `C` in twelve accumulators that
//!   live across a `KC` panel: each A pair is broadcast once and feeds all
//!   three B panels, so a k-pair issues 12 `pmaddwd`s (16
//!   multiply-accumulates each) per 7 loads. A row of panels ending in
//!   one or two panels, or in a ragged panel, runs the same kernel at
//!   that width. The AVX2 path is selected at runtime via
//!   `is_x86_feature_detected!`; the portable 4×8 kernel, looped over the
//!   group, is the always-correct fallback, and the two agree bit-exactly.
//! * **Cache blocking** — `KC`-deep reduction panels keep a group's three
//!   `KC×NR` B panels L1-resident, and `MC`-row blocks of packed A stay
//!   L2-resident while the B block streams past.
//! * **Threaded row tiling** — large products split `C` into disjoint
//!   row-panel blocks, one per participant of the calling arena's
//!   persistent worker pool (`crate::workers`); the caller takes blocks
//!   too, so a split costs a wake-up rather than a thread spawn.
//! * **Fused tail** — for both conv entry points, the driver finishes each
//!   register tile of the last K block with the conv's output stage (the
//!   layer's [`crate::ops::epilogue`], or the unfused conv's bias +
//!   requantize) inside the pool's parts and writes `i8` rows; earlier K
//!   blocks, when there are any, keep partial sums in `i32` scratch. The
//!   tail-less [`gemm_i8_packed_pairs`] returns the plain `i32` product;
//!   only tests call it, as their exact check of the driver and
//!   microkernels.
//!
//! The only operand type is int8, as on SushiAccel (the paper's footnote
//! 3). [`gemm_i8_packed_pairs`] is bit-identical to the scalar reference
//! loops under every blocking/ISA choice: the packed operands hold exactly
//! `(a − zp_a)` / `(b − zp_b)` and `i32` addition is associative, so
//! reassociating the reduction cannot change the sum.
//!
//! # Tuned thresholds (measured on a shared 2-core x86-64 box)
//!
//! * [`PARALLEL_MIN`] = 2¹⁸ MACs: below this the GEMM and the depthwise
//!   kernel run on the calling thread. It was 2²⁰ while every split
//!   spawned and joined scoped threads (35–40 µs a call); on the pool a
//!   split costs a wake-up of well under 10 µs, and a worker that has
//!   not woken costs nothing. Re-measured on the pool (`op_ms_p50`, 8 s
//!   runs, three per value): `mbv3_replay` 7.50–7.57 ms at 2¹⁸,
//!   7.54–7.57 at 2¹⁹, 7.62–7.71 at 2²⁰ and 8.19–8.26 at 2²¹;
//!   `resnet50_replay` does not move between 2¹⁸ and 2²¹ (37.7–39.4 ms).
//! * [`AUTO_DIRECT_MAC_THRESHOLD`] = 2048 MACs: with pack-time zero-point
//!   subtraction and arena-reused scratch, the packed path's fixed cost is
//!   roughly one extra pass over each operand. The crossover probe
//!   (`auto_crossover_probe` in `ops::conv`, release mode) measures the
//!   direct loops vs the packed path at 1.2 µs vs 1.1 µs on a 576-MAC 3×3
//!   conv and 8.5 µs vs 3.7 µs at 5.2k MACs — i.e. GEMM ties by ~0.6k MACs
//!   and wins >2× by ~5k. PR 2's 8k-MAC threshold was re-measured after
//!   the packed rewrite and lowered to 2k; below that only degenerate
//!   shapes remain (SE-module 1×1 convs on pooled 1×1 pixels), where the
//!   NR-padded patch panel would waste most of its lanes.
//! * Depthwise never goes GEMM under `Auto`: its reduction depth is just
//!   `R·S`, too shallow to amortize even the cheaper packed im2col. It runs
//!   the vectorised depthwise kernel ([`ConvBackend::Depthwise`]) at
//!   every problem size instead (kernels beyond 256 taps, whose reduction
//!   is deep, are not marked depthwise by `Conv2dParams::backend`).

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::error::TensorError;
use crate::ops::pack::{packed_a_pairs_len, packed_b_pairs_len, MR, NR};
use crate::workers::Pool;

/// Which kernel implementation the unfused conv should use.
///
/// `Naive` keeps the original scalar loop nests — they stay the correctness
/// oracle that the fast paths are validated against. `Im2colGemm` forces the
/// im2col + packed-GEMM lowering, depthwise included. `Auto` (the default)
/// resolves per problem: depthwise convolutions run the vectorised
/// depthwise kernel, tiny dense ones stay on the direct loops, and dense
/// `1×1`/`3×3`-style layers go through GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPolicy {
    /// Always use the scalar reference loops (the correctness oracle).
    Naive,
    /// Always use the im2col + packed-GEMM lowering.
    Im2colGemm,
    /// Pick per problem (depthwise → depthwise kernel, tiny → direct,
    /// dense → GEMM).
    #[default]
    Auto,
}

/// The backend a [`KernelPolicy`] resolves to for one concrete problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvBackend {
    /// Direct loop nest over the convolution window.
    Direct,
    /// im2col lowering followed by packed GEMM.
    Im2colGemm,
    /// The depthwise kernel: one vectorised multiply-add per tap over a
    /// zero-bordered, zero-point-subtracted copy of the input channel.
    Depthwise,
}

/// Below this many multiply-accumulates, `Auto` keeps the direct loops: the
/// im2col materialization and packing would dominate. See the module docs
/// for the measurement behind the value.
pub const AUTO_DIRECT_MAC_THRESHOLD: usize = 2 * 1024;

impl KernelPolicy {
    /// Resolves the policy for a convolution with `macs` multiply-accumulates
    /// total. `depthwise` marks single-input-channel-per-group convolutions,
    /// which `Auto` sends to [`ConvBackend::Depthwise`] at any size (their
    /// GEMM reduction depth is just `R·S`, too shallow to amortize the
    /// im2col copy).
    #[must_use]
    pub fn resolve(self, macs: usize, depthwise: bool) -> ConvBackend {
        match self {
            KernelPolicy::Naive => ConvBackend::Direct,
            KernelPolicy::Im2colGemm => ConvBackend::Im2colGemm,
            KernelPolicy::Auto => {
                if depthwise {
                    ConvBackend::Depthwise
                } else if macs < AUTO_DIRECT_MAC_THRESHOLD {
                    ConvBackend::Direct
                } else {
                    ConvBackend::Im2colGemm
                }
            }
        }
    }
}

impl fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelPolicy::Naive => "naive",
            KernelPolicy::Im2colGemm => "gemm",
            KernelPolicy::Auto => "auto",
        })
    }
}

impl FromStr for KernelPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(KernelPolicy::Naive),
            "gemm" | "im2col" | "im2col-gemm" => Ok(KernelPolicy::Im2colGemm),
            "auto" => Ok(KernelPolicy::Auto),
            other => Err(format!("unknown kernel policy '{other}' (expected naive|gemm|auto)")),
        }
    }
}

/// Reduction-panel depth: one `KC×NR` panel of B is kept L1-resident per
/// microkernel sweep.
pub const KC: usize = 256;
/// Row-block height (multiple of `MR`): an `MC×KC` block of packed A stays
/// L2-resident while the matching B block streams past it.
pub const MC: usize = 128;
/// Products below this many scalar MACs stay single-threaded: the GEMM's
/// and the depthwise kernel's. See the module docs for the measurements
/// behind the value.
pub const PARALLEL_MIN: usize = 1 << 18;

/// Workers for a kernel call of `macs` multiply-accumulates that splits
/// into at most `parts` independent pieces on a pool of `width`: one below
/// [`PARALLEL_MIN`], otherwise the whole pool, at most one per piece.
pub(crate) fn worker_count(macs: usize, parts: usize, width: usize) -> usize {
    if macs < PARALLEL_MIN {
        return 1;
    }
    width.min(parts).max(1)
}

/// Whether the runtime-dispatched SIMD microkernels are active on this
/// machine (x86-64 with AVX2). When `false`, the portable microkernels
/// run; results are bit-identical either way.
#[must_use]
pub(crate) fn simd_kernels_active() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(detect_simd)
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Microkernels: register tiles of MR rows by 1–GROUP NR-column panels over
// pair-interleaved packed panels.
//
// Contract: `a` is an MR-row panel slice of `kpairs·MR·2` values and `b`
// holds `acc.len()` NR-column panel slices of `kpairs·NR·2` values each,
// `stride` elements apart, all k-pair-major (see `crate::ops::pack`); each
// `acc[p]` is overwritten with the MR×NR product tile of panel `p` in
// row-major order, so the driver never zeroes a tile. Padded panel cells
// are zero (after zero-point subtraction), so they can never perturb it.
// ---------------------------------------------------------------------------

/// Column panels one register tile spans: the AVX2 tile is `MR × GROUP·NR`
/// = 4×24, twelve accumulators, which with three B registers and one A
/// broadcast fill AVX2's sixteen `ymm` registers (each `pmaddwd` also needs
/// a temporary, so LLVM parks one accumulator in an L1 stack slot).
const GROUP: usize = 3;

/// One tile: `acc.len()` (1..=[`GROUP`]) panels of B against one MR-row
/// panel of A, on the AVX2 kernel when `simd`, else on the portable one.
#[inline(always)]
fn microkernel(kpairs: usize, a: &[i16], b: &[i16], stride: usize, acc: &mut [Tile], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        let panels = acc.len();
        assert!(a.len() >= kpairs * MR * 2, "A panel shorter than the kernel reads");
        assert!(b.len() >= (panels - 1) * stride + kpairs * NR * 2, "B panels too short");
        // SAFETY: `simd` is only true when AVX2 was detected, and the
        // asserts above are the kernel's slice contract.
        unsafe {
            match acc {
                [t0] => mk_i16_pairs_avx2::<1>(kpairs, a, b, stride, std::array::from_mut(t0)),
                [_, _] => {
                    mk_i16_pairs_avx2::<2>(kpairs, a, b, stride, acc.try_into().expect("2 tiles"));
                }
                _ => {
                    let acc = acc.try_into().expect("at most GROUP tiles");
                    mk_i16_pairs_avx2::<GROUP>(kpairs, a, b, stride, acc);
                }
            }
        }
        return;
    }
    let _ = simd;
    for (p, tile) in acc.iter_mut().enumerate() {
        mk_i16_pairs_portable(kpairs, a, &b[p * stride..], tile);
    }
}

/// One `MR×NR` accumulator tile, row-major.
type Tile = [i32; MR * NR];

#[inline(always)]
fn mk_i16_pairs_portable(kpairs: usize, a: &[i16], b: &[i16], acc: &mut Tile) {
    *acc = [0; MR * NR];
    for kp in 0..kpairs {
        let av = &a[kp * MR * 2..(kp + 1) * MR * 2];
        let bv = &b[kp * NR * 2..(kp + 1) * NR * 2];
        for r in 0..MR {
            let a0 = i32::from(av[r * 2]);
            let a1 = i32::from(av[r * 2 + 1]);
            for j in 0..NR {
                acc[r * NR + j] += a0 * i32::from(bv[j * 2]) + a1 * i32::from(bv[j * 2 + 1]);
            }
        }
    }
}

/// AVX2 `pmaddwd` microkernel over pair-interleaved panels, `P` panels
/// wide: per k-pair one 256-bit load per B panel carries `[b(k₀,j),
/// b(k₁,j)]` for its 8 columns, and each A row's pair, broadcast once as a
/// 32-bit value, feeds all `P` of them; `_mm256_madd_epi16` retires 16
/// multiply-accumulates per instruction. At `P = 3` a k-pair issues 12
/// `pmaddwd`s per 7 loads, where one panel alone issues 4 per 5.
///
/// Bit-identical to [`mk_i16_pairs_portable`] (and therefore to the scalar
/// reference loops): the `i16` products are exact in `i32` — operands are
/// zero-point-subtracted `i8` values, so `|a·b| ≤ 255² = 65 025` and a pair
/// sum stays below `2¹⁸` — and `i32` addition is associative, so
/// reassociating the reduction into pairs cannot change the sum. With the
/// datapath's maximum reduction depth (`kdim ≤ 720·3·3 < 2¹³`) the full
/// accumulator stays below `2³¹`.
///
/// # Safety
/// Caller must have verified AVX2 support (see `simd_kernels_active`) and
/// pass pair-interleaved slices: `a` of at least `kpairs·MR·2` elements,
/// `b` of at least `(P − 1)·stride + kpairs·NR·2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk_i16_pairs_avx2<const P: usize>(
    kpairs: usize,
    a: &[i16],
    b: &[i16],
    stride: usize,
    acc: &mut [Tile; P],
) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    debug_assert!((1..=GROUP).contains(&P));
    debug_assert!(a.len() >= kpairs * MR * 2 && b.len() >= (P - 1) * stride + kpairs * NR * 2);
    let mut c = [[_mm256_setzero_si256(); MR]; P];
    let mut bv = [_mm256_setzero_si256(); P];
    for kp in 0..kpairs {
        for (p, v) in bv.iter_mut().enumerate() {
            *v = _mm256_loadu_si256(b.as_ptr().add(p * stride + kp * NR * 2).cast());
        }
        let ap = a.as_ptr().add(kp * MR * 2);
        for r in 0..MR {
            // Each A pair occupies 32 bits; an unaligned i32 read + set1 is
            // the pair broadcast.
            let av = _mm256_set1_epi32(ap.add(r * 2).cast::<i32>().read_unaligned());
            for (cp, &v) in c.iter_mut().zip(&bv) {
                cp[r] = _mm256_add_epi32(cp[r], _mm256_madd_epi16(av, v));
            }
        }
    }
    for (cp, tile) in c.iter().zip(acc.iter_mut()) {
        for (r, &cr) in cp.iter().enumerate() {
            _mm256_storeu_si256(tile.as_mut_ptr().add(r * NR).cast(), cr);
        }
    }
}

/// Adds the tile's valid `rows × cols` corner into `C` at `(i0, j0)`, or
/// stores it there when `overwrite` (the first K block into scratch whose
/// contents are unspecified).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn writeback(
    c: &mut [i32],
    n: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    acc: &[i32],
    overwrite: bool,
) {
    for r in 0..rows {
        let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
        let tile = &acc[r * NR..r * NR + cols];
        if overwrite {
            row.copy_from_slice(tile);
        } else {
            for (cell, &v) in row.iter_mut().zip(tile) {
                *cell += v;
            }
        }
    }
}

/// The fused tail of a k-pair GEMM. In the last K block every finished
/// tile row goes to `f(row, sums, dst)`, which writes that row's `i8`
/// outputs into `dst`; sums past `dst.len()` pad a ragged tile. `out` is
/// this worker's `rows × n` slice of the output, and `row0` is the index
/// of its first row in the whole product.
pub(crate) struct Tail<'a, F> {
    pub(crate) out: &'a mut [i8],
    pub(crate) f: &'a F,
    pub(crate) row0: usize,
}

impl<F: Fn(usize, &[i32; NR], &mut [i8])> Tail<'_, F> {
    /// The last K block's writeback for the tile at `(i0, j0)`: earlier
    /// blocks' partial sums from `partial` (when `has_partial`) plus the
    /// register tile, handed to `f` one row at a time.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn finish(
        &mut self,
        partial: &[i32],
        has_partial: bool,
        n: usize,
        i0: usize,
        j0: usize,
        rows: usize,
        cols: usize,
        acc: &mut Tile,
    ) {
        for (r, sums) in acc.chunks_exact_mut(NR).take(rows).enumerate() {
            let sums: &mut [i32; NR] = sums.try_into().expect("one tile row");
            let at = (i0 + r) * n + j0;
            if has_partial {
                for (s, &p) in sums.iter_mut().zip(&partial[at..at + cols]) {
                    *s += p;
                }
            }
            (self.f)(self.row0 + i0 + r, sums, &mut self.out[at..at + cols]);
        }
    }
}

/// Splits the first `len` elements (or all, if fewer) off `s`.
fn take_front<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let len = len.min(s.len());
    let (head, rest) = std::mem::take(s).split_at_mut(len);
    *s = rest;
    head
}

/// Block driver: kb (KC) → row block (MC) → column-panel group
/// (`GROUP·NR`) → row panel (MR) → microkernel, with every k index counted
/// in pairs (the panel stride per k-pair is `2·MR` / `2·NR` elements). The
/// group's B panel slices stay L1-resident across the inner row-panel
/// sweep; the MC×KC block of packed A stays L2-resident across the group
/// sweep. A group's remainder of one or two panels, and a ragged last
/// panel, run the same kernel.
///
/// Without a `tail` it accumulates into the `m×n` `c`. With one, the last
/// K block hands its tiles to the tail, and `c` is scratch for the partial
/// sums of the earlier blocks: empty when the reduction fits one block.
/// A zero-depth reduction still runs one (empty) block, so the tail sees
/// every tile.
#[allow(clippy::too_many_arguments)]
fn gemm_block_i8_pairs<F: Fn(usize, &[i32; NR], &mut [i8])>(
    m: usize,
    kpairs: usize,
    n: usize,
    pa: &[i16],
    pb: &[i16],
    c: &mut [i32],
    mut tail: Option<Tail<'_, F>>,
    simd: bool,
) {
    const KCP: usize = KC / 2;
    let n_panels = n.div_ceil(NR);
    let panel = kpairs * NR * 2;
    let mut tiles = [[0i32; MR * NR]; GROUP];
    for kb in (0..kpairs.max(1)).step_by(KCP) {
        let kc = KCP.min(kpairs - kb);
        let last = kb + kc == kpairs;
        for i0 in (0..m).step_by(MC) {
            let rows_block = MC.min(m - i0);
            for jg in (0..n_panels).step_by(GROUP) {
                let panels = GROUP.min(n_panels - jg);
                let b0 = jg * panel + kb * NR * 2;
                let bp = &pb[b0..b0 + (panels - 1) * panel + kc * NR * 2];
                for ip in (i0 / MR)..(i0 + rows_block).div_ceil(MR) {
                    let pa0 = ip * kpairs * MR * 2;
                    let ap = &pa[pa0 + kb * MR * 2..pa0 + (kb + kc) * MR * 2];
                    let acc = &mut tiles[..panels];
                    microkernel(kc, ap, bp, panel, acc, simd);
                    let (i, rows) = (ip * MR, MR.min(m - ip * MR));
                    for (j0, acc) in (jg * NR..).step_by(NR).zip(acc) {
                        let cols = NR.min(n - j0);
                        match tail.as_mut() {
                            Some(t) if last => t.finish(c, kb > 0, n, i, j0, rows, cols, acc),
                            Some(_) => writeback(c, n, i, j0, rows, cols, acc, kb == 0),
                            None => writeback(c, n, i, j0, rows, cols, acc, false),
                        }
                    }
                }
            }
        }
    }
}

/// Runs [`gemm_block_i8_pairs`], split at row-panel boundaries across
/// `pool` when the product is large enough: each part gets its rows of
/// `c`, of the tail's output and of packed A.
#[allow(clippy::too_many_arguments)]
fn run_packed_i8_pairs<F: Fn(usize, &[i32; NR], &mut [i8]) + Sync>(
    pool: &mut Pool,
    m: usize,
    kpairs: usize,
    n: usize,
    pa: &[i16],
    pb: &[i16],
    c: &mut [i32],
    tail: Option<Tail<'_, F>>,
    simd: bool,
) {
    let macs = m.saturating_mul(kpairs * 2).saturating_mul(n);
    let threads = worker_count(macs, m.div_ceil(MR), pool.width());
    if threads <= 1 {
        gemm_block_i8_pairs(m, kpairs, n, pa, pb, c, tail, simd);
        return;
    }
    let rows_per = m.div_ceil(MR).div_ceil(threads) * MR;
    let (mut c, mut tail) = (c, tail);
    let mut blocks: Vec<_> = (0..m)
        .step_by(rows_per)
        .map(|row0| {
            let rows = rows_per.min(m - row0);
            let c_rows = take_front(&mut c, rows * n);
            let tail_rows = tail.as_mut().map(|t| Tail {
                out: take_front(&mut t.out, rows * n),
                f: t.f,
                row0: t.row0 + row0,
            });
            let pa_rows = &pa[row0 * kpairs * 2..];
            Some(move || gemm_block_i8_pairs(rows, kpairs, n, pa_rows, pb, c_rows, tail_rows, simd))
        })
        .collect();
    pool.run(&mut blocks, |block| block.take().expect("each part runs once")());
}

/// No tail: the plain `C +=` product.
type NoTail = fn(usize, &[i32; NR], &mut [i8]);

fn check_packed_lens(
    pa_len: usize,
    pa_expect: usize,
    pb_len: usize,
    pb_expect: usize,
    c_len: usize,
    c_expect: usize,
) -> Result<(), TensorError> {
    for (actual, expected) in [(pa_len, pa_expect), (pb_len, pb_expect), (c_len, c_expect)] {
        if actual != expected {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    Ok(())
}

/// `C += (A − zp_a)·(B − zp_b)` over **pair-interleaved** pre-packed `i16`
/// operands (see [`crate::ops::pack::pack_a_i8_pairs_into`] /
/// [`crate::ops::pack::pack_b_i8_pairs_into`]); `C` is a dense row-major
/// `m×n` `i32` accumulator.
///
/// On AVX2 this runs the `pmaddwd` microkernel, 16 multiply-accumulates per
/// instruction. The result is **bit-identical** to the scalar reference for
/// every blocking and ISA choice (exact `i16·i16` products, associative
/// `i32` reduction — see `mk_i16_pairs_avx2` for the overflow budget).
///
/// # Errors
/// Returns an error if any slice length disagrees with the pair-packed
/// layout lengths.
pub fn gemm_i8_packed_pairs(
    m: usize,
    k: usize,
    n: usize,
    pa: &[i16],
    pb: &[i16],
    c: &mut [i32],
) -> Result<(), TensorError> {
    check_packed_lens(
        pa.len(),
        packed_a_pairs_len(m, k),
        pb.len(),
        packed_b_pairs_len(k, n),
        c.len(),
        m * n,
    )?;
    if m == 0 || k == 0 || n == 0 {
        return Ok(());
    }
    let none = None::<Tail<'_, NoTail>>;
    let pool = &mut Pool::default();
    run_packed_i8_pairs(pool, m, k.div_ceil(2), n, pa, pb, c, none, simd_kernels_active());
    Ok(())
}

/// The conv body's product: `(A − zp_a)·(B − zp_b)` over pair-interleaved
/// operands, finished by `tail(row, sums, dst)` on every row of every
/// register tile as the last K block completes it (see [`Tail`]), writing
/// the `m×n` `i8` matrix `out`. `partial` holds the earlier K blocks'
/// sums: `m·n` `i32`s of scratch when `k > KC`, empty otherwise, since a
/// single block's tile is final in registers. Split across `pool` like
/// [`gemm_i8_packed_pairs`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_pairs_fused<F: Fn(usize, &[i32; NR], &mut [i8]) + Sync>(
    pool: &mut Pool,
    m: usize,
    k: usize,
    n: usize,
    pa: &[i16],
    pb: &[i16],
    partial: &mut [i32],
    out: &mut [i8],
    tail: &F,
) {
    debug_assert_eq!(pa.len(), packed_a_pairs_len(m, k));
    debug_assert_eq!(pb.len(), packed_b_pairs_len(k, n));
    debug_assert_eq!(partial.len(), if k > KC { m * n } else { 0 });
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let tail = Some(Tail { out, f: tail, row0: 0 });
    run_packed_i8_pairs(pool, m, k.div_ceil(2), n, pa, pb, partial, tail, simd_kernels_active());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::pack::{pack_a_i8_pairs_into, pack_b_i8_pairs_into};
    use crate::rng::DetRng;

    /// `C += (A − zp_a)·(B − zp_b)` through the packing + dispatched kernel.
    #[allow(clippy::too_many_arguments)]
    fn packed_product(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        zp_a: i8,
        b: &[i8],
        zp_b: i8,
        c: &mut [i32],
    ) -> Result<(), TensorError> {
        let (pa, pb) = pack(m, k, n, a, zp_a, b, zp_b)?;
        gemm_i8_packed_pairs(m, k, n, &pa, &pb, c)
    }

    /// Both operands of an `m×k` by `k×n` product, packed.
    fn pack(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        zp_a: i8,
        b: &[i8],
        zp_b: i8,
    ) -> Result<(Vec<i16>, Vec<i16>), TensorError> {
        let mut pa = vec![0i16; packed_a_pairs_len(m, k)];
        let mut pb = vec![0i16; packed_b_pairs_len(k, n)];
        pack_a_i8_pairs_into(&mut pa, a, zp_a, m, k)?;
        pack_b_i8_pairs_into(&mut pb, b, zp_b, k, n)?;
        Ok((pa, pb))
    }

    /// The scalar triple loop every packed product must reproduce exactly.
    fn scalar(m: usize, k: usize, n: usize, a: &[i8], zp_a: i8, b: &[i8], zp_b: i8) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = i32::from(a[i * k + kk]) - i32::from(zp_a);
                for j in 0..n {
                    c[i * n + j] += av * (i32::from(b[kk * n + j]) - i32::from(zp_b));
                }
            }
        }
        c
    }

    fn rand_i8(len: usize, rng: &mut DetRng) -> Vec<i8> {
        (0..len).map(|_| rng.next_i8()).collect()
    }

    #[test]
    fn i8_matches_naive_on_awkward_dims() {
        // Dims chosen to exercise the MR/NR tails, the KC boundary and n=1.
        for (m, k, n) in [(1, 1, 1), (5, 7, 3), (4, 300, 9), (7, 13, 1), (9, 257, 5), (3, 40, 17)] {
            let mut rng = DetRng::new((m * 1000 + k * 10 + n) as u64);
            let (a, b) = (rand_i8(m * k, &mut rng), rand_i8(k * n, &mut rng));
            let mut c = vec![0i32; m * n];
            packed_product(m, k, n, &a, 4, &b, -6, &mut c).unwrap();
            assert_eq!(c, scalar(m, k, n, &a, 4, &b, -6), "({m},{k},{n})");
        }
    }

    #[test]
    fn i8_accumulates_into_c() {
        let mut c = [5i32];
        packed_product(1, 2, 1, &[1, 2], 0, &[10, 100], 0, &mut c).unwrap();
        assert_eq!(c[0], 5 + 210);
    }

    #[test]
    fn i8_matches_naive_with_zero_points() {
        let (m, k, n) = (6, 20, 11);
        let mut rng = DetRng::new(42);
        let (a, b) = (rand_i8(m * k, &mut rng), rand_i8(k * n, &mut rng));
        let (zp_a, zp_b) = (-3i8, 7i8);
        let mut c = vec![0i32; m * n];
        packed_product(m, k, n, &a, zp_a, &b, zp_b, &mut c).unwrap();
        assert_eq!(c, scalar(m, k, n, &a, zp_a, &b, zp_b));
    }

    #[test]
    fn i8_zero_point_extremes_cannot_overflow_the_packing() {
        // (a − zp) spans ±255, beyond i8 but exact in the widened i16 cells.
        let (m, k, n) = (5, 9, 10);
        let a = vec![i8::MIN; m * k];
        let b = vec![i8::MAX; k * n];
        let mut c = vec![0i32; m * n];
        packed_product(m, k, n, &a, i8::MAX, &b, i8::MIN, &mut c).unwrap();
        // Every MAC is (−128 − 127)·(127 − (−128)) = −255·255.
        assert!(c.iter().all(|&v| v == (k as i32) * -255 * 255));
    }

    #[test]
    fn i8_zero_point_cells_contribute_nothing() {
        // A column of B equal to zp_b must vanish after Zero-Subtraction.
        let mut c = [0i32];
        packed_product(1, 3, 1, &[5, -9, 3], 0, &[4, 4, 4], 4, &mut c).unwrap();
        assert_eq!(c[0], 0);
    }

    #[test]
    fn degenerate_dims_are_no_ops() {
        let mut c: [i32; 0] = [];
        gemm_i8_packed_pairs(0, 4, 0, &[], &[], &mut c).unwrap();
        let mut c2 = [1i32, 2];
        gemm_i8_packed_pairs(2, 0, 1, &[], &[], &mut c2).unwrap();
        assert_eq!(c2, [1, 2]); // k == 0 leaves C untouched
    }

    #[test]
    fn rejects_wrong_a_len() {
        let mut c = [0i32; 4];
        let pb = vec![0i16; packed_b_pairs_len(2, 2)];
        assert!(gemm_i8_packed_pairs(2, 2, 2, &[0; 3], &pb, &mut c).is_err());
        assert!(packed_product(2, 2, 2, &[0; 3], 0, &[0; 4], 0, &mut c).is_err());
        assert!(packed_product(2, 2, 2, &[0; 4], 0, &[0; 4], 0, &mut [0i32; 3]).is_err());
    }

    #[test]
    fn large_product_crosses_thread_threshold_and_matches() {
        // m*k*n > PARALLEL_MIN so the scoped-thread path runs.
        let (m, k, n) = (64, 129, 130);
        let mut rng = DetRng::new(7);
        let (a, b) = (rand_i8(m * k, &mut rng), rand_i8(k * n, &mut rng));
        let mut c = vec![0i32; m * n];
        packed_product(m, k, n, &a, -1, &b, 2, &mut c).unwrap();
        assert_eq!(c, scalar(m, k, n, &a, -1, &b, 2));
    }

    /// The same product on pools of width 1–4 (row blocks split 1–4 ways,
    /// crossing `PARALLEL_MIN` with awkward row and column tails) is the
    /// same, bit for bit, and equals the scalar loops.
    #[test]
    fn threaded_i8_is_bit_identical_to_single_threaded() {
        let (m, k, n) = (66, 130, 131);
        assert!(m * k * n >= PARALLEL_MIN, "not threaded");
        let mut rng = DetRng::new(99);
        let (a, b) = (rand_i8(m * k, &mut rng), rand_i8(k * n, &mut rng));
        let (pa, pb) = pack(m, k, n, &a, 5, &b, -11).unwrap();
        let [single, two, three, four] = [1, 2, 3, 4].map(|width| {
            let mut c = vec![0i32; m * n];
            let (none, simd) = (None::<Tail<'_, NoTail>>, simd_kernels_active());
            let pool = &mut Pool::with_width(width);
            run_packed_i8_pairs(pool, m, k.div_ceil(2), n, &pa, &pb, &mut c, none, simd);
            c
        });
        assert_eq!(single, scalar(m, k, n, &a, 5, &b, -11));
        for (width, threaded) in [(2, two), (3, three), (4, four)] {
            assert_eq!(threaded, single, "width {width}");
        }
    }

    /// An `i8` digest of a sum that any wrong bit is likely to change.
    fn digest(row: usize, sum: i32) -> i8 {
        (sum ^ sum >> 7 ^ sum >> 15 ^ sum >> 23 ^ row as i32) as i8
    }

    /// The dispatched (AVX2 where detected) and portable microkernels
    /// agree bit for bit, and with the scalar loops, across random shapes
    /// with `m % MR` / `n % NR` tails, several tile groups with every
    /// remainder, reductions past one or two K blocks, odd `k` (the zero
    /// pad pair) and the full zero-point range — both on the tail-less
    /// product and through a fused [`Tail`], whose earlier K blocks park
    /// their sums in stale scratch. Without AVX2 the two builds are one.
    #[test]
    fn simd_and_portable_i8_agree_bit_exactly() {
        let mut rng = DetRng::new(17);
        let simd = simd_kernels_active();
        for case in 0..48 {
            let m = 1 + rng.below(13);
            let k = if case % 2 == 0 { 1 + rng.below(40) } else { KC - 3 + rng.below(2 * KC) };
            let n = 1 + rng.below(GROUP * NR * 3);
            let (zp_a, zp_b) = (rng.next_i8(), rng.next_i8());
            let (a, b) = (rand_i8(m * k, &mut rng), rand_i8(k * n, &mut rng));
            let (pa, pb) = pack(m, k, n, &a, zp_a, &b, zp_b).unwrap();
            let want = scalar(m, k, n, &a, zp_a, &b, zp_b);
            let shape = format!("case {case}: {m}x{k}x{n}");
            let pool = &mut Pool::with_width(1);
            for simd in [simd, false] {
                let mut c = vec![0i32; m * n];
                let none = None::<Tail<'_, NoTail>>;
                run_packed_i8_pairs(pool, m, k.div_ceil(2), n, &pa, &pb, &mut c, none, simd);
                assert_eq!(c, want, "{shape}, simd {simd}");
                let mut partial = vec![0x5A5A_5A5A; if k > KC { m * n } else { 0 }];
                let mut out = vec![0i8; m * n];
                let f = |row: usize, sums: &[i32; NR], dst: &mut [i8]| {
                    for (d, &s) in dst.iter_mut().zip(sums) {
                        *d = digest(row, s);
                    }
                };
                let tail = Some(Tail { out: &mut out, f: &f, row0: 0 });
                run_packed_i8_pairs(pool, m, k.div_ceil(2), n, &pa, &pb, &mut partial, tail, simd);
                let digests: Vec<i8> =
                    want.iter().enumerate().map(|(i, &s)| digest(i / n, s)).collect();
                assert_eq!(out, digests, "{shape}, simd {simd}, fused tail");
            }
        }
    }

    #[test]
    fn policy_resolution_follows_heuristics() {
        assert_eq!(KernelPolicy::Naive.resolve(usize::MAX, false), ConvBackend::Direct);
        assert_eq!(KernelPolicy::Naive.resolve(1 << 30, true), ConvBackend::Direct);
        assert_eq!(KernelPolicy::Im2colGemm.resolve(1, true), ConvBackend::Im2colGemm);
        assert_eq!(KernelPolicy::Auto.resolve(1 << 30, true), ConvBackend::Depthwise);
        assert_eq!(KernelPolicy::Auto.resolve(1, true), ConvBackend::Depthwise);
        assert_eq!(KernelPolicy::Auto.resolve(1 << 30, false), ConvBackend::Im2colGemm);
        assert_eq!(KernelPolicy::Auto.resolve(16, false), ConvBackend::Direct);
    }

    #[test]
    fn policy_parses_and_displays_round_trip() {
        for p in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
            assert_eq!(p.to_string().parse::<KernelPolicy>().unwrap(), p);
        }
        assert!("fpga".parse::<KernelPolicy>().is_err());
        assert_eq!("im2col".parse::<KernelPolicy>().unwrap(), KernelPolicy::Im2colGemm);
    }
}

//! Reusable scratch memory for the serving hot path.
//!
//! Every im2col + packed-GEMM convolution needs three transient buffers: the
//! raw patch matrix, its packed copy and the `i32` partial sums (the
//! weights come packed in a [`crate::PackedConv2d`]); the depthwise kernel
//! needs one `f32` region per worker for its input planes and accumulator,
//! each padded to whole cache lines so its workers never share a written
//! line.
//! Allocating them per call with `vec!` puts the allocator on the
//! per-query critical path. An [`Arena`] instead owns one grow-only buffer
//! per role: the first pass through a layer shape grows it to the
//! high-water mark, and every subsequent pass reuses the same memory with
//! **zero heap allocation**.
//!
//! An arena also owns the worker pool its kernels split their work across
//! (the GEMM's row blocks, the depthwise planes, the conv prologue). The
//! pool's threads start on the first call that splits, park between calls
//! and are joined when the arena drops, so a split pays a wake-up instead
//! of a thread spawn, and no pool outlives its owner: there is no
//! process-global state.
//!
//! Lifetime rules:
//!
//! * One arena per executing thread — an `Arena` hands out `&mut`
//!   slices, so it is inherently single-borrower. The functional serving
//!   backend owns one and reuses it across every replica's queries; a
//!   one-off caller passes a fresh `Arena::new()`. A kernel that splits hands each part of the pool's
//!   call disjoint slices of the arena's buffers.
//! * Borrows live for one kernel invocation. The conv kernels request all
//!   the slices they need in a single call (the methods below return
//!   disjoint fields, so the borrows coexist), use them, and drop them
//!   before returning — nothing in an arena outlives the operator call
//!   that asked for it.
//! * Contents are unspecified between calls. Every kernel fully overwrites
//!   the slices it requests (packing writes padding explicitly, the GEMM's
//!   first K block stores its partial sums, the depthwise planes are
//!   zero-filled and its accumulator is stored block by block), so stale
//!   data can never leak into results.

use std::slice::ChunksMut;

use crate::workers::Pool;

/// Grow-only scratch buffers shared by the conv kernels, and the worker
/// pool that runs their splits.
///
/// See the module docs for the ownership and lifetime rules.
#[derive(Debug, Default)]
pub struct Arena {
    patches_i8: Vec<i8>,
    pb_i16: Vec<i16>,
    acc_i32: Vec<i32>,
    depthwise_f32: Vec<f32>,
    weight_packs: usize,
    pool: Pool,
}

/// `f32`s in one 64-byte cache line.
const LINE_F32: usize = 16;

fn grow<T: Default + Clone>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

impl Arena {
    /// Creates an empty arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose pool has `width` participants (tests only).
    #[cfg(test)]
    pub(crate) fn with_width(width: usize) -> Self {
        Self { pool: Pool::with_width(width), ..Self::default() }
    }

    /// The worker pool that runs this arena's kernel splits.
    pub(crate) fn pool(&mut self) -> &mut Pool {
        &mut self.pool
    }

    /// Scratch for one quantized conv call: `(patches, packed_b, acc)` of
    /// exactly the requested lengths, and the pool. Contents are
    /// unspecified; callers overwrite them fully.
    pub(crate) fn i8_conv(
        &mut self,
        patches: usize,
        pb: usize,
        acc: usize,
    ) -> (&mut [i8], &mut [i16], &mut [i32], &mut Pool) {
        (
            grow(&mut self.patches_i8, patches),
            grow(&mut self.pb_i16, pb),
            grow(&mut self.acc_i32, acc),
            &mut self.pool,
        )
    }

    /// Counts one conv call that packed its weights per call; see
    /// [`Arena::weight_packs`].
    pub(crate) fn count_weight_pack(&mut self) {
        self.weight_packs += 1;
    }

    /// Scratch for one depthwise conv call: `workers` regions of `len`
    /// `f32`s, each starting on its own cache line, so concurrent workers
    /// never write to a shared line, and the pool. Contents are
    /// unspecified; the kernel writes every element before reading it.
    pub(crate) fn f32_depthwise(
        &mut self,
        workers: usize,
        len: usize,
    ) -> (ChunksMut<'_, f32>, &mut Pool) {
        let pitch = len.next_multiple_of(LINE_F32);
        let buf = grow(&mut self.depthwise_f32, workers * pitch + LINE_F32 - 1);
        let skip = buf.as_ptr().align_offset(LINE_F32 * 4).min(LINE_F32 - 1);
        (buf[skip..skip + workers * pitch].chunks_mut(pitch), &mut self.pool)
    }

    /// Total bytes currently reserved across all scratch buffers (the
    /// high-water mark of every shape served so far).
    #[must_use]
    pub fn reserved_bytes(&self) -> usize {
        self.patches_i8.len()
            + 2 * self.pb_i16.len()
            + 4 * (self.acc_i32.len() + self.depthwise_f32.len())
    }

    /// Conv calls that packed their weight operand per call instead of
    /// reading install-time panels. Serving under a
    /// [`crate::PackedConv2d`]-carrying cache keeps this at zero: weight
    /// packing is paid per install, never per query.
    #[must_use]
    pub fn weight_packs(&self) -> usize {
        self.weight_packs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_to_high_water_mark_and_are_reused() {
        let mut arena = Arena::new();
        {
            let (p, b, c, _) = arena.i8_conv(10, 30, 40);
            assert_eq!((p.len(), b.len(), c.len()), (10, 30, 40));
        }
        let bytes_after_big = {
            let _ = arena.i8_conv(100, 1, 1);
            arena.reserved_bytes()
        };
        // A smaller request must not shrink the reservation (reuse, not
        // realloc) and must return exactly the requested view.
        let (p, ..) = arena.i8_conv(5, 1, 1);
        assert_eq!(p.len(), 5);
        assert_eq!(arena.reserved_bytes(), bytes_after_big);
    }
}

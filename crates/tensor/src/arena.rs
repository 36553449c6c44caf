//! Reusable scratch memory for the serving hot path.
//!
//! Every im2col + packed-GEMM convolution needs four transient buffers: the
//! raw patch matrix, the packed copies of both GEMM operands and the `i32`
//! accumulator; the depthwise kernel needs one `f32` buffer for its input
//! planes, taps and accumulator. Allocating them per call with `vec!` puts
//! the allocator on the per-query critical path. An [`Arena`]
//! instead owns one grow-only buffer per role: the first pass through a
//! layer shape grows it to the high-water mark, and every subsequent pass
//! reuses the same memory with **zero heap allocation**.
//!
//! Lifetime rules:
//!
//! * One arena per executing thread/worker — an `Arena` hands out `&mut`
//!   slices, so it is inherently single-borrower. Serving workers each own
//!   one and reuse it across queries; a one-off caller passes a fresh
//!   `Arena::new()`.
//! * Borrows live for one kernel invocation. The conv kernels request all
//!   the slices they need in a single call (the methods below return
//!   disjoint fields, so the borrows coexist), use them, and drop them
//!   before returning — nothing in an arena outlives the operator call
//!   that asked for it.
//! * Contents are unspecified between calls. Every kernel fully overwrites
//!   the slices it requests (packing writes padding explicitly, the
//!   accumulators and the depthwise planes are zero-filled), so stale data
//!   can never leak into results.

/// Grow-only scratch buffers shared by the conv kernels.
///
/// See the module docs for the ownership and lifetime rules.
#[derive(Debug, Default)]
pub struct Arena {
    patches_i8: Vec<i8>,
    pa_i16: Vec<i16>,
    pb_i16: Vec<i16>,
    acc_i32: Vec<i32>,
    depthwise_f32: Vec<f32>,
    weight_packs: usize,
}

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

    /// Scratch for one quantized conv call: `(patches, packed_a, packed_b,
    /// acc)` of exactly the requested lengths. Contents are unspecified;
    /// callers overwrite them fully. A nonzero `pa` means the caller packs
    /// its weight operand per call and is counted in
    /// [`Arena::weight_packs`].
    pub(crate) fn i8_conv(
        &mut self,
        patches: usize,
        pa: usize,
        pb: usize,
        acc: usize,
    ) -> (&mut [i8], &mut [i16], &mut [i16], &mut [i32]) {
        self.weight_packs += usize::from(pa > 0);
        (
            grow(&mut self.patches_i8, patches),
            grow(&mut self.pa_i16, pa),
            grow(&mut self.pb_i16, pb),
            grow(&mut self.acc_i32, acc),
        )
    }

    /// Scratch for one depthwise conv call: exactly `len` `f32`s. Contents
    /// are unspecified; the kernel writes every element before reading it.
    pub(crate) fn f32_depthwise(&mut self, len: usize) -> &mut [f32] {
        grow(&mut self.depthwise_f32, len)
    }

    /// Total bytes currently reserved across all scratch buffers (the
    /// high-water mark of every shape served so far).
    #[must_use]
    pub fn reserved_bytes(&self) -> usize {
        self.patches_i8.len()
            + 2 * (self.pa_i16.len() + self.pb_i16.len())
            + 4 * (self.acc_i32.len() + self.depthwise_f32.len())
    }

    /// Conv calls that packed their weight operand into this arena's
    /// scratch instead of reading install-time panels. Serving under a
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
            let (p, a, b, c) = arena.i8_conv(10, 20, 30, 40);
            assert_eq!((p.len(), a.len(), b.len(), c.len()), (10, 20, 30, 40));
        }
        let bytes_after_big = {
            let _ = arena.i8_conv(100, 1, 1, 1);
            arena.reserved_bytes()
        };
        // A smaller request must not shrink the reservation (reuse, not
        // realloc) and must return exactly the requested view.
        let (p, ..) = arena.i8_conv(5, 1, 1, 1);
        assert_eq!(p.len(), 5);
        assert_eq!(arena.reserved_bytes(), bytes_after_big);
    }
}

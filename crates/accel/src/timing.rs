//! Cycle-approximate per-layer timing model.
//!
//! Implements the dataflow of §4.3/Fig. 9: a convolution is processed in
//! weight tiles sized to half the ping-pong Dynamic Buffer. While tile `i`
//! computes, tile `i+1`'s *distinct* (non-PB-resident) weights stream in
//! from DRAM — the double-buffering hides whichever of the two is shorter.
//! Weights found in the Persistent Buffer (the cached SubGraph ∩ the served
//! slice) are read on-chip instead, which is how SGS converts memory-bound
//! layers toward compute-bound.
//!
//! The per-layer critical path decomposes into the five buckets of Fig. 10:
//! compute, off-chip iAct, off-chip weights, on-chip weights, off-chip oAct.

use sushi_wsnet::layer::{ConvKind, ConvLayerDesc, LayerSlice};

use crate::config::{AccelConfig, DPE_SIZE};

/// Critical-path cycle attribution for one layer (the Fig. 10 buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles where the DPE array is the bottleneck.
    pub compute: u64,
    /// Cycles where off-chip input-activation movement is the bottleneck.
    pub offchip_iact: u64,
    /// Cycles where off-chip weight fetch is the bottleneck.
    pub offchip_weights: u64,
    /// Cycles where on-chip (PB) weight reads are the bottleneck.
    pub onchip_weights: u64,
    /// Cycles where off-chip output-activation writeback is the bottleneck.
    pub offchip_oact: u64,
}

impl CycleBreakdown {
    /// Total critical-path cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute
            + self.offchip_iact
            + self.offchip_weights
            + self.onchip_weights
            + self.offchip_oact
    }

    /// Elementwise accumulation.
    pub fn add(&mut self, other: &CycleBreakdown) {
        self.compute += other.compute;
        self.offchip_iact += other.offchip_iact;
        self.offchip_weights += other.offchip_weights;
        self.onchip_weights += other.onchip_weights;
        self.offchip_oact += other.offchip_oact;
    }
}

/// Byte-level traffic accounting for one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBytes {
    /// Input activations fetched from DRAM.
    pub offchip_iact: u64,
    /// Distinct weights fetched from DRAM.
    pub offchip_weights: u64,
    /// Weights served from the Persistent Buffer (SGS hits).
    pub pb_weights: u64,
    /// Output activations written to DRAM.
    pub offchip_oact: u64,
}

impl TrafficBytes {
    /// Total off-chip bytes moved.
    #[must_use]
    pub fn offchip_total(&self) -> u64 {
        self.offchip_iact + self.offchip_weights + self.offchip_oact
    }

    /// Elementwise accumulation.
    pub fn add(&mut self, other: &TrafficBytes) {
        self.offchip_iact += other.offchip_iact;
        self.offchip_weights += other.offchip_weights;
        self.pb_weights += other.pb_weights;
        self.offchip_oact += other.offchip_oact;
    }
}

/// Timing result for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTiming {
    /// Index into the SuperNet layer list.
    pub layer: usize,
    /// Critical-path attribution.
    pub cycles: CycleBreakdown,
    /// Byte traffic.
    pub traffic: TrafficBytes,
}

/// Pure-compute cycles of the DPE array for one layer slice (§4.2.1):
///
/// * dense `R×S ≥ 3×3`: each DPE computes one 3×3 kernel position per
///   cycle; larger kernels decompose into ⌈R/3⌉·⌈S/3⌉ passes of 3×3;
/// * dense `1×1`: input channels flatten across the 9 multipliers;
/// * depthwise: one kernel per DPE row, channel columns idle.
#[must_use]
pub fn compute_cycles(layer: &ConvLayerDesc, slice: &LayerSlice, kp: usize, cp: usize) -> u64 {
    if slice.is_empty() {
        return 0;
    }
    let spatial = (layer.out_h() * layer.out_w()) as u64;
    let k_tiles = slice.kernels.div_ceil(kp) as u64;
    match layer.kind {
        ConvKind::Dense if slice.kernel_size == 1 => {
            let c_tiles = slice.channels.div_ceil(cp * DPE_SIZE) as u64;
            k_tiles * c_tiles * spatial
        }
        ConvKind::Dense => {
            let passes = slice.kernel_size.div_ceil(3).pow(2) as u64;
            let c_tiles = slice.channels.div_ceil(cp) as u64;
            k_tiles * c_tiles * passes * spatial
        }
        ConvKind::Depthwise => {
            let passes = slice.kernel_size.div_ceil(3).pow(2) as u64;
            k_tiles * passes * spatial
        }
    }
}

/// Int8 bytes of one kernel of the slice (weights + scale/bias words).
fn per_kernel_bytes(layer: &ConvLayerDesc, slice: &LayerSlice) -> u64 {
    let rs = (slice.kernel_size * slice.kernel_size) as u64;
    let core = match layer.kind {
        ConvKind::Dense => slice.channels as u64 * rs,
        ConvKind::Depthwise => rs,
    };
    core + 8
}

/// Bytes of one kernel that hit the PB, given the cached slice of this layer.
/// Cached kernels share `min(C, C_cached)` channels of the center
/// `min(ks, ks_cached)²` window.
fn per_kernel_cached_bytes(layer: &ConvLayerDesc, slice: &LayerSlice, cached: &LayerSlice) -> u64 {
    if cached.is_empty() {
        return 0;
    }
    let ks = slice.kernel_size.min(cached.kernel_size) as u64;
    match layer.kind {
        ConvKind::Dense => slice.channels.min(cached.channels) as u64 * ks * ks + 8,
        ConvKind::Depthwise => ks * ks + 8,
    }
}

/// Simulates the tile-level double-buffered pipeline of Fig. 9b for one
/// layer and returns its timing.
///
/// `cached` is the layer's slice of the PB-resident SubGraph (pass
/// [`LayerSlice::empty`] for the "w/o PB" baselines).
#[must_use]
pub fn layer_timing(
    config: &AccelConfig,
    layer: &ConvLayerDesc,
    slice: &LayerSlice,
    cached: &LayerSlice,
) -> LayerTiming {
    if slice.is_empty() {
        return LayerTiming {
            layer: layer.id.0,
            cycles: CycleBreakdown::default(),
            traffic: TrafficBytes::default(),
        };
    }
    // Only a PB-equipped config can serve cached weights.
    let cached =
        if config.buffers.has_pb() { slice.intersect(cached) } else { LayerSlice::empty() };

    let pkb = per_kernel_bytes(layer, slice);
    let kernels_per_tile =
        ((config.buffers.db_bytes_each / pkb).max(1) as usize).min(slice.kernels);
    let num_tiles = slice.kernels.div_ceil(kernels_per_tile);

    let total_compute = compute_cycles(layer, slice, config.kp, config.cp);
    let compute_per_kernel = total_compute as f64 / slice.kernels as f64;

    let iact_bytes = layer.iact_bytes(slice);
    let oact_bytes = layer.oact_bytes(slice);
    let iact_cycles = config.offchip_cycles(iact_bytes);
    let oact_cycles = config.offchip_cycles(oact_bytes);

    // Per-tile fetch/compute/on-chip-read times.
    let cached_kernels = if cached.is_empty() { 0 } else { cached.kernels.min(slice.kernels) };
    let ckb = per_kernel_cached_bytes(layer, slice, &cached);
    let mut t_fetch = Vec::with_capacity(num_tiles);
    let mut t_comp = Vec::with_capacity(num_tiles);
    let mut t_onchip = Vec::with_capacity(num_tiles);
    let mut fetched_bytes = 0u64;
    let mut pb_bytes = 0u64;
    for t in 0..num_tiles {
        let k0 = t * kernels_per_tile;
        let k1 = ((t + 1) * kernels_per_tile).min(slice.kernels);
        let kn = (k1 - k0) as u64;
        let cached_in_tile = cached_kernels.clamp(k0, k1) - k0;
        let tile_cached = cached_in_tile as u64 * ckb;
        let tile_fetch = kn * pkb - tile_cached;
        fetched_bytes += tile_fetch;
        pb_bytes += tile_cached;
        t_fetch.push(config.offchip_cycles(tile_fetch));
        t_comp.push((compute_per_kernel * kn as f64).ceil() as u64);
        t_onchip.push(config.onchip_cycles(tile_cached));
    }

    // Pipeline: head (iAct load ∥ first fetch), steady state (compute tile
    // i−1 ∥ fetch tile i), tail (last compute + output flush).
    let mut cyc = CycleBreakdown::default();
    let head = iact_cycles.max(t_fetch[0]);
    if iact_cycles >= t_fetch[0] {
        cyc.offchip_iact += head;
    } else {
        cyc.offchip_weights += head;
    }
    for t in 1..num_tiles {
        let work = t_comp[t - 1].max(t_onchip[t - 1]);
        let stage = work.max(t_fetch[t]);
        if t_fetch[t] > work {
            cyc.offchip_weights += stage;
        } else if t_onchip[t - 1] > t_comp[t - 1] {
            cyc.onchip_weights += stage;
        } else {
            cyc.compute += stage;
        }
    }
    let last_work = t_comp[num_tiles - 1].max(t_onchip[num_tiles - 1]);
    if t_onchip[num_tiles - 1] > t_comp[num_tiles - 1] {
        cyc.onchip_weights += last_work;
    } else {
        cyc.compute += last_work;
    }
    // Output writeback: in-place OB accumulation lets all but the final
    // flush overlap compute; charge one tile's worth of oAct movement.
    cyc.offchip_oact += oact_cycles.div_ceil(num_tiles as u64);

    LayerTiming {
        layer: layer.id.0,
        cycles: cyc,
        traffic: TrafficBytes {
            offchip_iact: iact_bytes,
            offchip_weights: fetched_bytes,
            pb_weights: pb_bytes,
            offchip_oact: oact_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zcu104;
    use sushi_wsnet::layer::{LayerId, LayerRole};

    fn layer(kind: ConvKind, k: usize, c: usize, ks: usize, hw: usize) -> ConvLayerDesc {
        ConvLayerDesc {
            id: LayerId(0),
            name: "t".into(),
            stage: 0,
            block: 0,
            role: LayerRole::Spatial,
            kind,
            max_kernels: k,
            max_channels: c,
            max_kernel_size: ks,
            elastic_kernel: false,
            stride: 1,
            in_h: hw,
            in_w: hw,
        }
    }

    #[test]
    fn compute_cycles_dense_3x3() {
        let l = layer(ConvKind::Dense, 32, 36, 3, 8);
        // ceil(32/16)=2 k-tiles, ceil(36/18)=2 c-tiles, 64 pixels, 1 pass.
        assert_eq!(compute_cycles(&l, &l.max_slice(), 16, 18), 2 * 2 * 64);
    }

    #[test]
    fn compute_cycles_1x1_flattens_channels() {
        let l = layer(ConvKind::Dense, 16, 162, 1, 8);
        // ceil(162/(18*9)) = 1 channel tile.
        assert_eq!(compute_cycles(&l, &l.max_slice(), 16, 18), 64);
    }

    #[test]
    fn compute_cycles_5x5_decomposes_into_four_passes() {
        let l = layer(ConvKind::Dense, 16, 18, 5, 8);
        assert_eq!(compute_cycles(&l, &l.max_slice(), 16, 18), 4 * 64);
    }

    #[test]
    fn compute_cycles_depthwise_only_uses_rows() {
        let l = layer(ConvKind::Depthwise, 32, 1, 3, 8);
        assert_eq!(compute_cycles(&l, &LayerSlice::new(32, 1, 3), 16, 18), 2 * 64);
    }

    #[test]
    fn empty_slice_is_free() {
        let l = layer(ConvKind::Dense, 32, 32, 3, 8);
        let t = layer_timing(&zcu104(), &l, &LayerSlice::empty(), &LayerSlice::empty());
        assert_eq!(t.cycles.total(), 0);
        assert_eq!(t.traffic.offchip_total(), 0);
    }

    #[test]
    fn full_cache_hit_eliminates_offchip_weight_traffic() {
        let l = layer(ConvKind::Dense, 64, 64, 3, 14);
        let s = l.max_slice();
        let t = layer_timing(&zcu104(), &l, &s, &s);
        assert_eq!(t.traffic.offchip_weights, 0);
        assert_eq!(t.traffic.pb_weights, l.weight_bytes(&s));
    }

    #[test]
    fn no_cache_fetches_all_weights() {
        let l = layer(ConvKind::Dense, 64, 64, 3, 14);
        let s = l.max_slice();
        let t = layer_timing(&zcu104(), &l, &s, &LayerSlice::empty());
        assert_eq!(t.traffic.offchip_weights, l.weight_bytes(&s));
        assert_eq!(t.traffic.pb_weights, 0);
    }

    #[test]
    fn partial_cache_splits_traffic_conservatively() {
        let l = layer(ConvKind::Dense, 64, 64, 3, 14);
        let s = l.max_slice();
        let cached = LayerSlice::new(32, 64, 3);
        let t = layer_timing(&zcu104(), &l, &s, &cached);
        let total = l.weight_bytes(&s);
        assert_eq!(t.traffic.offchip_weights + t.traffic.pb_weights, total);
        assert!(t.traffic.pb_weights > 0 && t.traffic.offchip_weights > 0);
    }

    #[test]
    fn pb_disabled_config_ignores_cache() {
        let l = layer(ConvKind::Dense, 64, 64, 3, 14);
        let s = l.max_slice();
        let cfg = zcu104().without_pb();
        let t = layer_timing(&cfg, &l, &s, &s);
        assert_eq!(t.traffic.pb_weights, 0);
        assert_eq!(t.traffic.offchip_weights, l.weight_bytes(&s));
    }

    #[test]
    fn caching_never_increases_latency() {
        let cfg = zcu104();
        for (k, c, hw) in [(64, 64, 28), (256, 256, 7), (720, 720, 7), (88, 88, 56)] {
            let l = layer(ConvKind::Dense, k, c, 3, hw);
            let s = l.max_slice();
            let without = layer_timing(&cfg, &l, &s, &LayerSlice::empty()).cycles.total();
            let with = layer_timing(&cfg, &l, &s, &s).cycles.total();
            assert!(with <= without, "k={k} c={c} hw={hw}: {with} > {without}");
        }
    }

    #[test]
    fn memory_bound_layer_benefits_from_cache() {
        // 1x1 conv on a tiny 2x2 feature map: negligible compute, heavy
        // weights -> memory bound (cf. SE/head layers).
        let l = layer(ConvKind::Dense, 2048, 720, 1, 2);
        let cfg = zcu104();
        let s = l.max_slice();
        let without = layer_timing(&cfg, &l, &s, &LayerSlice::empty()).cycles.total();
        let with = layer_timing(&cfg, &l, &s, &s).cycles.total();
        assert!(
            (with as f64) < 0.7 * without as f64,
            "expected >30% saving on memory-bound layer: {with} vs {without}"
        );
    }

    #[test]
    fn compute_bound_layer_hides_weight_fetch() {
        // 3x3 conv at 56x56 with few weights: compute dominates, fetch hidden.
        let l = layer(ConvKind::Dense, 88, 88, 3, 56);
        let cfg = zcu104();
        let s = l.max_slice();
        let t = layer_timing(&cfg, &l, &s, &LayerSlice::empty());
        assert!(t.cycles.compute > t.cycles.offchip_weights);
    }

    #[test]
    fn breakdown_total_is_sum_of_buckets() {
        let l = layer(ConvKind::Dense, 256, 256, 3, 14);
        let t = layer_timing(&zcu104(), &l, &l.max_slice(), &LayerSlice::empty());
        let c = t.cycles;
        assert_eq!(
            c.total(),
            c.compute + c.offchip_iact + c.offchip_weights + c.onchip_weights + c.offchip_oact
        );
        assert!(c.total() > 0);
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let l = layer(ConvKind::Dense, 512, 512, 3, 7);
        let s = l.max_slice();
        let slow = zcu104();
        let mut fast = zcu104();
        fast.offchip_gbps = 38.4;
        let t_slow = layer_timing(&slow, &l, &s, &LayerSlice::empty()).cycles.total();
        let t_fast = layer_timing(&fast, &l, &s, &LayerSlice::empty()).cycles.total();
        assert!(t_fast <= t_slow);
    }

    #[test]
    fn traffic_bytes_match_layer_math() {
        let l = layer(ConvKind::Dense, 64, 32, 3, 14);
        let s = l.max_slice();
        let t = layer_timing(&zcu104(), &l, &s, &LayerSlice::empty());
        assert_eq!(t.traffic.offchip_iact, l.iact_bytes(&s));
        assert_eq!(t.traffic.offchip_oact, l.oact_bytes(&s));
        assert_eq!(t.traffic.offchip_weights, l.weight_bytes(&s));
    }
}

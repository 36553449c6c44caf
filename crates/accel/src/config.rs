//! Accelerator configuration: compute-array geometry, clock, off-chip
//! bandwidth and the on-chip buffer split.
//!
//! The paper's design space (§5.3) has three main knobs — bandwidth,
//! throughput (DPE-array parallelism) and Persistent-Buffer size — all
//! captured here. Presets reproduce the evaluation platforms of §5.1/§5.4.

/// Size of each Dot-Product Engine: SushiAccel uses fixed-size DPEs of 9
/// multipliers (one 3×3 kernel position per cycle; §4.2.1).
pub const DPE_SIZE: usize = 9;

/// On-chip buffer capacities in bytes (§4.2.2, Table 3).
///
/// `#[non_exhaustive]`: construct via [`Default`] (the ZCU104 split) or a
/// preset ([`zcu104`], [`alveo_u50`], [`roofline_system`]) and adjust
/// fields, so future buffers can be added without breaking downstream
/// crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BufferConfig {
    /// Persistent Buffer: SubGraph Reuse. Zero disables SGS caching
    /// ("w/o PB" baselines).
    pub pb_bytes: u64,
    /// Each of the two ping-pong Dynamic Buffers: distinct-weight tiles.
    pub db_bytes_each: u64,
    /// Streaming Buffer: whole-layer input activations (multi-kernel reuse).
    pub sb_bytes: u64,
    /// Line Buffer: sliding-window reuse (serial→parallel conversion).
    pub lb_bytes: u64,
    /// Output Buffer: in-place partial-sum accumulation.
    pub ob_bytes: u64,
    /// Zero-point/scale buffer for quantized inference.
    pub zsb_bytes: u64,
}

impl BufferConfig {
    /// Total on-chip storage across all buffers.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.pb_bytes
            + 2 * self.db_bytes_each
            + self.sb_bytes
            + self.lb_bytes
            + self.ob_bytes
            + self.zsb_bytes
    }

    /// Whether the Persistent Buffer exists.
    #[must_use]
    pub fn has_pb(&self) -> bool {
        self.pb_bytes > 0
    }

    /// Moves the PB capacity into the dynamic buffers, producing the
    /// equal-storage "w/o PB" comparison point used throughout §5
    /// ("both use the same amount of overall on-chip storage for a fair
    /// comparison").
    #[must_use]
    pub fn without_pb(&self) -> Self {
        Self { pb_bytes: 0, db_bytes_each: self.db_bytes_each + self.pb_bytes / 2, ..*self }
    }
}

impl Default for BufferConfig {
    /// The ZCU104 buffer split (Table 3).
    fn default() -> Self {
        zcu104().buffers
    }
}

/// Full accelerator configuration.
///
/// `#[non_exhaustive]`: construct via [`Default`] (the ZCU104 preset) or
/// one of the preset functions and adjust fields, so future knobs can be
/// added without breaking downstream crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct AccelConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Kernel-level parallelism: DPE-array rows (§4.2.1).
    pub kp: usize,
    /// Channel-level parallelism: DPE-array columns.
    pub cp: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Nominal off-chip (DRAM) bandwidth in GB/s.
    pub offchip_gbps: f64,
    /// Fraction of the nominal bandwidth actually achievable. 1.0 for a
    /// dedicated embedded DRAM; well below 1.0 for a datacenter host whose
    /// "off-chip DRAM competition … dominates latency" (§5.4.2, Alveo U50).
    pub effective_bw_fraction: f64,
    /// Ratio of on-chip (PB/DB → DPE) bandwidth to off-chip bandwidth.
    pub onchip_bw_ratio: f64,
    /// Fixed per-DMA-transfer latency in cycles (models DRAM contention on
    /// datacenter hosts — §5.4.2's Alveo U50 observation).
    pub transfer_overhead_cycles: u64,
    /// On-chip buffer split.
    pub buffers: BufferConfig,
}

impl Default for AccelConfig {
    /// The ZCU104 embedded-board preset.
    fn default() -> Self {
        zcu104()
    }
}

impl AccelConfig {
    /// Peak MACs per cycle of the DPE array.
    #[must_use]
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.kp * self.cp * DPE_SIZE) as u64
    }

    /// Peak throughput in TFLOPS (2 FLOPs per MAC).
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        2.0 * self.peak_macs_per_cycle() as f64 * self.freq_mhz * 1e6 / 1e12
    }

    /// Off-chip bytes transferable per cycle (effective, after contention).
    #[must_use]
    pub fn offchip_bytes_per_cycle(&self) -> f64 {
        self.offchip_gbps * self.effective_bw_fraction * 1e9 / (self.freq_mhz * 1e6)
    }

    /// On-chip bytes readable per cycle (PB/DB to the DPE array).
    #[must_use]
    fn onchip_bytes_per_cycle(&self) -> f64 {
        self.offchip_bytes_per_cycle() * self.onchip_bw_ratio
    }

    /// Cycles to move `bytes` over the off-chip interface, including the
    /// per-transfer overhead. Zero bytes cost zero cycles.
    #[must_use]
    pub fn offchip_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.offchip_bytes_per_cycle()).ceil() as u64
            + self.transfer_overhead_cycles
    }

    /// Cycles to read `bytes` from on-chip storage.
    #[must_use]
    pub fn onchip_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.onchip_bytes_per_cycle()).ceil() as u64
    }

    /// Converts cycles to milliseconds at this clock.
    #[must_use]
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_mhz * 1e3)
    }

    /// Returns this configuration with the PB removed (equal total storage).
    #[must_use]
    pub fn without_pb(&self) -> Self {
        Self {
            name: format!("{} w/o PB", self.name),
            buffers: self.buffers.without_pb(),
            ..self.clone()
        }
    }

    /// Returns this configuration with a different PB size, shrinking or
    /// growing the dynamic buffers to keep total storage constant when
    /// possible.
    #[must_use]
    pub fn with_pb_bytes(&self, pb_bytes: u64) -> Self {
        let total = self.buffers.total_bytes();
        let fixed = self.buffers.sb_bytes
            + self.buffers.lb_bytes
            + self.buffers.ob_bytes
            + self.buffers.zsb_bytes;
        let db_pool = total.saturating_sub(fixed).saturating_sub(pb_bytes);
        Self {
            name: format!("{} (PB={} KB)", self.name, pb_bytes / 1024),
            buffers: BufferConfig {
                pb_bytes,
                db_bytes_each: (db_pool / 2).max(16 * 1024),
                ..self.buffers
            },
            ..self.clone()
        }
    }
}

/// ZCU104 embedded-board preset (§5.4, Tables 2–3): 19.2 GB/s DDR4, 100 MHz,
/// 16×18 DPE array (2592 ops/cycle = 259.2 GFLOPS), 1728 KB URAM PB.
#[must_use]
pub fn zcu104() -> AccelConfig {
    AccelConfig {
        name: "ZCU104".into(),
        kp: 16,
        cp: 18,
        freq_mhz: 100.0,
        offchip_gbps: 19.2,
        // Short-burst accelerator DMA sustains only a sliver of the DDR4
        // peak; calibrated so the board's end-to-end latencies land in the
        // paper's Fig. 13a band.
        effective_bw_fraction: 0.15,
        onchip_bw_ratio: 48.0,
        transfer_overhead_cycles: 32,
        buffers: BufferConfig {
            pb_bytes: 1728 * 1024,
            db_bytes_each: 576 * 1024,
            sb_bytes: 584 * 1024,
            lb_bytes: 54 * 1024,
            ob_bytes: 327 * 1024,
            zsb_bytes: 8 * 1024,
        },
    }
}

/// Alveo U50 datacenter preset (§5.4): 14.4 GB/s effective HBM slice under
/// host contention, 32×32 DPE array (9216 ops/cycle = 921.6 GFLOPS @100 MHz),
/// 1.69 MB PB, and a large per-transfer overhead modelling "off-chip DRAM
/// competition in data center cluster hosting Alveo U50" (§5.4.2).
#[must_use]
pub fn alveo_u50() -> AccelConfig {
    AccelConfig {
        name: "AlveoU50".into(),
        kp: 32,
        cp: 32,
        freq_mhz: 100.0,
        offchip_gbps: 14.4,
        // Worse than the embedded board: the HBM slice competes with the
        // datacenter host ("off-chip DRAM competition", §5.4.2).
        effective_bw_fraction: 0.15,
        onchip_bw_ratio: 64.0,
        transfer_overhead_cycles: 3400,
        buffers: BufferConfig {
            pb_bytes: 1731 * 1024, // 1.69 MB
            db_bytes_each: 1024 * 1024,
            sb_bytes: 1024 * 1024,
            lb_bytes: 108 * 1024,
            ob_bytes: 654 * 1024,
            zsb_bytes: 16 * 1024,
        },
    }
}

/// The §5.2 roofline-analysis system: 19.2 GB/s off-chip bandwidth and
/// 1.296 TFLOPS at 100 MHz (12 960 ops/cycle → 40×36 DPE array).
#[must_use]
pub fn roofline_system() -> AccelConfig {
    AccelConfig {
        name: "roofline-sys".into(),
        kp: 40,
        cp: 36,
        freq_mhz: 100.0,
        offchip_gbps: 19.2,
        effective_bw_fraction: 1.0,
        onchip_bw_ratio: 8.0,
        transfer_overhead_cycles: 32,
        buffers: BufferConfig {
            pb_bytes: 3 * 1024 * 1024,
            db_bytes_each: 1024 * 1024,
            sb_bytes: 1024 * 1024,
            lb_bytes: 108 * 1024,
            ob_bytes: 512 * 1024,
            zsb_bytes: 16 * 1024,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu104_peak_matches_table2() {
        let c = zcu104();
        // Table 2: PeakOps/cycle = 2592, GFlops @100MHz = 259.2.
        assert_eq!(c.peak_macs_per_cycle() * 2, 2592 * 2);
        assert!((c.peak_tflops() - 0.5184).abs() < 1e-9); // 2 FLOPs/MAC convention
    }

    #[test]
    fn alveo_peak_matches_table2() {
        let c = alveo_u50();
        assert_eq!(c.peak_macs_per_cycle(), 9216);
    }

    #[test]
    fn roofline_system_hits_1296_gops() {
        let c = roofline_system();
        // §5.2: 1.296 TFLOPS at 100 MHz counting MAC ops.
        assert_eq!(c.peak_macs_per_cycle(), 12_960);
    }

    #[test]
    fn offchip_bytes_per_cycle_applies_dma_efficiency() {
        let c = zcu104();
        // 19.2 GB/s nominal x 0.15 effective at 100 MHz = 28.8 B/cycle.
        assert!((c.offchip_bytes_per_cycle() - 28.8).abs() < 1e-9);
    }

    #[test]
    fn offchip_cycles_includes_overhead_only_when_nonzero() {
        let c = zcu104();
        assert_eq!(c.offchip_cycles(0), 0);
        assert_eq!(c.offchip_cycles(288), 10 + 32);
        assert_eq!(c.offchip_cycles(289), 11 + 32);
    }

    #[test]
    fn without_pb_preserves_total_storage() {
        let c = zcu104();
        let no_pb = c.without_pb();
        assert_eq!(no_pb.buffers.pb_bytes, 0);
        assert_eq!(no_pb.buffers.total_bytes(), c.buffers.total_bytes());
    }

    #[test]
    fn zcu104_buffer_split_matches_table3() {
        // Table 3 w/ PB: overall 397 KB BRAM + 3456 KB URAM = 3853 KB.
        let c = zcu104();
        assert_eq!(c.buffers.total_bytes(), 3853 * 1024);
        assert_eq!(c.buffers.pb_bytes, 1728 * 1024);
    }

    #[test]
    fn with_pb_bytes_keeps_total_when_feasible() {
        let c = zcu104();
        let resized = c.with_pb_bytes(1024 * 1024);
        assert_eq!(resized.buffers.pb_bytes, 1024 * 1024);
        assert_eq!(resized.buffers.total_bytes(), c.buffers.total_bytes());
    }

    #[test]
    fn cycles_to_ms_at_100mhz() {
        let c = zcu104();
        assert!((c.cycles_to_ms(100_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn u50_models_datacenter_contention() {
        assert!(alveo_u50().transfer_overhead_cycles > zcu104().transfer_overhead_cycles);
    }
}

//! FPGA resource estimation (Tables 2–3).
//!
//! The paper reports post-synthesis utilization; we substitute a documented
//! linear estimator fitted to the paper's own two design points (ZCU104
//! 16×18 and Alveo U50 32×32 arrays):
//!
//! * `DSP ≈ 0.4879 · mults + 242` — each DPE multiplier maps to roughly
//!   half a DSP48 (int8 packing two mults per slice) plus control.
//! * `LUT ≈ 25.74 · mults − 5538`, plus ~3.1 k for the PB datapath.
//! * `FF  ≈ 49.49 · mults − 21088`, plus ~10.5 k for the PB datapath.
//! * URAM banks: 72 KB each; the PB design doubles banking for the extra
//!   read port (Table 2: 48 → 96 URAM on ZCU104).
//! * BRAM: small buffers (LB/OB/ZSB and SB overflow) at 4.5 KB per 36 Kb
//!   block with double-banking for dual ports.

use crate::config::AccelConfig;

/// Estimated FPGA resource utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops / registers.
    pub registers: u64,
    /// 36 Kb BRAM blocks (halves allowed, reported ×2).
    pub bram_36k: f64,
    /// UltraRAM banks (288 Kb / 36 KB each; counted as 72 KB dual columns).
    pub uram: u64,
    /// DSP slices.
    pub dsp: u64,
    /// Peak MAC ops per cycle.
    pub peak_ops_per_cycle: u64,
}

/// Estimates resources for a configuration.
#[must_use]
pub fn estimate(config: &AccelConfig) -> ResourceEstimate {
    let mults = (config.kp * config.cp * crate::config::DPE_SIZE) as f64;
    let has_pb = config.buffers.has_pb();

    let mut lut = 25.74 * mults - 5538.0;
    let mut registers = 49.49 * mults - 21088.0;
    let dsp = 0.4879 * mults + 242.0;
    if has_pb {
        lut += 3127.0;
        registers += 10508.0;
    }

    // URAM holds the big weight buffers (DB, PB and the SB's bulk).
    let uram_kb = (config.buffers.pb_bytes
        + 2 * config.buffers.db_bytes_each
        + config.buffers.sb_bytes.saturating_sub(8 * 1024))
        / 1024;
    let uram_banks = uram_kb.div_ceil(72) * if has_pb { 2 } else { 1 };

    // BRAM holds LB, OB, ZSB and the SB head, double-banked for dual ports.
    let bram_kb =
        (config.buffers.lb_bytes + config.buffers.ob_bytes + config.buffers.zsb_bytes + 8 * 1024)
            / 1024;
    let bram = (bram_kb as f64 / 4.5 * 2.18 * 10.0).round() / 10.0;

    ResourceEstimate {
        lut: lut.max(0.0) as u64,
        registers: registers.max(0.0) as u64,
        bram_36k: bram,
        uram: uram_banks,
        dsp: dsp as u64,
        peak_ops_per_cycle: config.peak_macs_per_cycle(),
    }
}

/// Reference utilization of the Xilinx DPU (DPUCZDX8G on ZCU104) from
/// Table 2, for side-by-side reporting.
#[must_use]
pub fn dpu_reference() -> ResourceEstimate {
    ResourceEstimate {
        lut: 41640,
        registers: 69180,
        bram_36k: 0.0,
        uram: 60,
        dsp: 438,
        peak_ops_per_cycle: 2304 / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{alveo_u50, zcu104};

    fn within_pct(actual: f64, expected: f64, pct: f64) -> bool {
        (actual - expected).abs() / expected * 100.0 <= pct
    }

    #[test]
    fn zcu104_with_pb_matches_table2_within_10pct() {
        let e = estimate(&zcu104());
        assert!(within_pct(e.lut as f64, 64307.0, 10.0), "LUT {}", e.lut);
        assert!(within_pct(e.registers as f64, 117724.0, 10.0), "FF {}", e.registers);
        assert!(within_pct(e.dsp as f64, 1459.0, 10.0), "DSP {}", e.dsp);
        assert_eq!(e.uram, 96);
    }

    #[test]
    fn zcu104_without_pb_matches_table2_within_10pct() {
        let e = estimate(&zcu104().without_pb());
        assert!(within_pct(e.lut as f64, 61180.0, 10.0), "LUT {}", e.lut);
        assert!(within_pct(e.registers as f64, 107216.0, 10.0), "FF {}", e.registers);
        assert!(within_pct(e.dsp as f64, 1507.0, 10.0), "DSP {}", e.dsp);
        assert_eq!(e.uram, 48);
    }

    #[test]
    fn alveo_u50_scale_up_matches_table2_within_10pct() {
        let e = estimate(&alveo_u50());
        assert!(within_pct(e.lut as f64, 244969.0, 10.0), "LUT {}", e.lut);
        assert!(within_pct(e.dsp as f64, 4740.0, 10.0), "DSP {}", e.dsp);
        assert_eq!(e.peak_ops_per_cycle, 9216);
    }

    #[test]
    fn pb_adds_logic_but_not_dsp() {
        let with = estimate(&zcu104());
        let without = estimate(&zcu104().without_pb());
        assert!(with.lut > without.lut);
        assert!(with.registers > without.registers);
        assert_eq!(with.dsp, without.dsp);
    }

    #[test]
    fn bigger_array_uses_more_of_everything() {
        let small = estimate(&zcu104());
        let big = estimate(&alveo_u50());
        assert!(big.lut > small.lut && big.dsp > small.dsp);
    }
}

//! Data-movement energy model.
//!
//! "Energy in data movement has been proved to dominate the entire power
//! consumption of neural network accelerators" (§5.4.3, citing Dally'20).
//! The paper estimates overall energy as `NumberAccess × EnergyPerAccess`
//! from profiled DRAM traffic; we do the same with configurable per-byte
//! costs (off-chip DRAM ≈ 66× on-chip SRAM, a standard 45nm-class ratio).

use crate::timing::TrafficBytes;

/// Per-byte access energy in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM access energy per byte.
    pub offchip_pj_per_byte: f64,
    /// On-chip SRAM (PB/DB/SB) access energy per byte.
    pub onchip_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self { offchip_pj_per_byte: 40.0, onchip_pj_per_byte: 0.6 }
    }
}

/// Energy consumed by one query (or one layer), split by location.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Off-chip data-access energy in millijoules.
    pub offchip_mj: f64,
    /// On-chip data-access energy in millijoules.
    pub onchip_mj: f64,
}

impl EnergyReport {
    /// Accumulates another report.
    pub fn add(&mut self, other: &EnergyReport) {
        self.offchip_mj += other.offchip_mj;
        self.onchip_mj += other.onchip_mj;
    }
}

impl EnergyModel {
    /// Energy for the given traffic. Off-chip counts DRAM transfers; on-chip
    /// counts PB hits plus one on-chip read of every byte that feeds the DPE
    /// array (fetched weights land in the DB and are read back; activations
    /// pass through SB/LB and OB).
    #[must_use]
    pub fn energy(&self, traffic: &TrafficBytes) -> EnergyReport {
        let offchip_bytes = traffic.offchip_total();
        let onchip_bytes = traffic.pb_weights
            + traffic.offchip_weights
            + traffic.offchip_iact
            + traffic.offchip_oact;
        EnergyReport {
            offchip_mj: offchip_bytes as f64 * self.offchip_pj_per_byte * 1e-9,
            onchip_mj: onchip_bytes as f64 * self.onchip_pj_per_byte * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(iact: u64, w: u64, pb: u64, oact: u64) -> TrafficBytes {
        TrafficBytes { offchip_iact: iact, offchip_weights: w, pb_weights: pb, offchip_oact: oact }
    }

    #[test]
    fn offchip_dominates_per_byte() {
        let m = EnergyModel::default();
        assert!(m.offchip_pj_per_byte > 50.0 * m.onchip_pj_per_byte);
    }

    #[test]
    fn energy_scales_linearly_with_bytes() {
        let m = EnergyModel::default();
        let e1 = m.energy(&traffic(100, 100, 0, 100));
        let e2 = m.energy(&traffic(200, 200, 0, 200));
        assert!((e2.offchip_mj - 2.0 * e1.offchip_mj).abs() < 1e-15);
    }

    #[test]
    fn pb_hits_move_energy_from_offchip_to_onchip() {
        let m = EnergyModel::default();
        let without_pb = m.energy(&traffic(1000, 10_000, 0, 1000));
        let with_pb = m.energy(&traffic(1000, 2_000, 8_000, 1000));
        assert!(with_pb.offchip_mj < without_pb.offchip_mj);
        let total = |e: EnergyReport| e.offchip_mj + e.onchip_mj;
        assert!(total(with_pb) < total(without_pb));
    }

    #[test]
    fn one_megabyte_offchip_is_forty_microjoules() {
        let m = EnergyModel::default();
        let e = m.energy(&traffic(0, 1_000_000, 0, 0));
        assert!((e.offchip_mj - 0.04).abs() < 1e-12);
    }

    #[test]
    fn report_accumulates() {
        let m = EnergyModel::default();
        let mut acc = EnergyReport::default();
        acc.add(&m.energy(&traffic(100, 0, 0, 0)));
        acc.add(&m.energy(&traffic(0, 100, 0, 0)));
        let both = m.energy(&traffic(100, 100, 0, 0));
        assert!((acc.offchip_mj - both.offchip_mj).abs() < 1e-15);
        assert!((acc.onchip_mj - both.onchip_mj).abs() < 1e-15);
    }
}

//! Buffer bandwidth requirements (Table 1) and allocation sanity checks.
//!
//! Table 1 expresses each on-chip buffer's minimal width (bytes per cycle)
//! as the least common multiple of the producers/consumers it bridges:
//! a buffer filled from DRAM and drained by the DPE array needs a width
//! compatible with both.

use crate::config::{AccelConfig, DPE_SIZE};

/// Buffer identity for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Ping-pong dynamic (distinct-weight) buffer.
    Db,
    /// Streaming buffer (whole-layer iActs).
    Sb,
    /// Line buffer (sliding windows).
    Lb,
    /// Output buffer (partial sums).
    Ob,
    /// Persistent buffer (cached SubGraph).
    Pb,
}

impl BufferKind {
    /// Short display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BufferKind::Db => "DB",
            BufferKind::Sb => "SB",
            BufferKind::Lb => "LB",
            BufferKind::Ob => "OB",
            BufferKind::Pb => "PB",
        }
    }
}

/// A Table-1 row: buffer and its minimal bandwidth in bytes/cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthRequirement {
    /// Which buffer.
    pub buffer: BufferKind,
    /// Minimal width in bytes per cycle.
    pub bytes_per_cycle: u64,
}

/// Least common multiple.
#[must_use]
fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Greatest common divisor (Euclid).
#[must_use]
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Computes the Table-1 bandwidth requirements for a configuration and a
/// kernel footprint `r × s` (iAct data width 1 byte, oAct 1 byte).
#[must_use]
pub fn bandwidth_requirements(
    config: &AccelConfig,
    r: usize,
    s: usize,
) -> Vec<BandwidthRequirement> {
    let offchip = config.offchip_bytes_per_cycle().ceil() as u64;
    // The DPE array demands KP·CP·9 weight bytes per cycle at full rate.
    let dpe_demand = (config.kp * config.cp * DPE_SIZE) as u64;
    let sb_demand = (config.cp * r * s) as u64; // CP × R × S × iAct width
    let ob_demand = config.kp as u64; // KP × oAct width
    vec![
        BandwidthRequirement { buffer: BufferKind::Db, bytes_per_cycle: lcm(offchip, dpe_demand) },
        BandwidthRequirement { buffer: BufferKind::Sb, bytes_per_cycle: lcm(offchip, sb_demand) },
        BandwidthRequirement { buffer: BufferKind::Lb, bytes_per_cycle: dpe_demand },
        BandwidthRequirement { buffer: BufferKind::Ob, bytes_per_cycle: ob_demand },
        BandwidthRequirement { buffer: BufferKind::Pb, bytes_per_cycle: lcm(offchip, dpe_demand) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zcu104;

    #[test]
    fn gcd_and_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(12, 18), 36);
        assert_eq!(lcm(7, 13), 91);
        assert_eq!(lcm(0, 5), 0);
    }

    #[test]
    fn lcm_is_multiple_of_both() {
        for (a, b) in [(192, 2592), (192, 162), (64, 48)] {
            let l = lcm(a, b);
            assert_eq!(l % a, 0);
            assert_eq!(l % b, 0);
        }
    }

    #[test]
    fn table1_has_all_five_buffers() {
        let rows = bandwidth_requirements(&zcu104(), 3, 3);
        assert_eq!(rows.len(), 5);
        let kinds: Vec<_> = rows.iter().map(|r| r.buffer).collect();
        assert!(kinds.contains(&BufferKind::Pb) && kinds.contains(&BufferKind::Lb));
    }

    #[test]
    fn db_and_pb_have_identical_requirements() {
        // Table 1: both bridge off-chip BW and the DPE demand.
        let rows = bandwidth_requirements(&zcu104(), 3, 3);
        let get = |k: BufferKind| rows.iter().find(|r| r.buffer == k).unwrap().bytes_per_cycle;
        assert_eq!(get(BufferKind::Db), get(BufferKind::Pb));
    }

    #[test]
    fn ob_requirement_is_kp() {
        let c = zcu104();
        let rows = bandwidth_requirements(&c, 3, 3);
        let ob = rows.iter().find(|r| r.buffer == BufferKind::Ob).unwrap();
        assert_eq!(ob.bytes_per_cycle, c.kp as u64);
    }

    #[test]
    fn larger_kernel_raises_sb_requirement() {
        let c = zcu104();
        let r3 = bandwidth_requirements(&c, 3, 3);
        let r7 = bandwidth_requirements(&c, 7, 7);
        let sb = |rows: &[BandwidthRequirement]| {
            rows.iter().find(|r| r.buffer == BufferKind::Sb).unwrap().bytes_per_cycle
        };
        assert!(sb(&r7) >= sb(&r3));
    }

    #[test]
    fn zcu104_fits_its_board_budget() {
        // ZCU104: 11 Mb BRAM + 27 Mb URAM ≈ 4.75 MB on-chip.
        let total = zcu104().buffers.total_bytes();
        assert!(total <= 4_980_736, "over budget: {total} bytes");
    }
}

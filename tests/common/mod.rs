//! The FNV digests the integration tests pin serving results with: every
//! pipeline is deterministic (simulated time, seeded randomness), so a
//! digest of every numeric field is exact on every platform.

use sushi::core::serving::SimResult;

/// FNV-1a over the little-endian bytes of each 64-bit word.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    pub fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// FNV digest over every served query's timing, row, batch and worker, the
/// dropped ids, and the run's summary statistics.
pub fn timed_digest(result: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for s in &result.served {
        h.word(s.query.id);
        h.f(s.arrival_ms);
        h.f(s.start_ms);
        h.f(s.completion_ms);
        h.word(s.subnet_row as u64);
        h.word(s.batch_size as u64);
        h.word(s.worker as u64);
    }
    for d in &result.dropped {
        h.word(d.timed.query.id);
    }
    let sum = result.summary();
    for v in [
        sum.p50_ms,
        sum.p95_ms,
        sum.p99_ms,
        sum.mean_latency_ms,
        sum.goodput_qps,
        sum.slo_violation_rate,
        sum.mean_queue_depth,
        sum.swap_ms,
        sum.makespan_ms,
    ] {
        h.f(v);
    }
    h.word(sum.completed as u64);
    h.word(sum.dropped as u64);
    h.word(sum.cache_installs as u64);
    h.0
}

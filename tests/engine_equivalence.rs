//! API-transition equivalence: the builder-driven `Engine` must reproduce
//! the pre-redesign constructors' results **bit for bit**.
//!
//! The `EXPECTED_*` constants were captured from the legacy entry points
//! (`variants::build_stack`, `ServingSim::new` + `with_functional`)
//! immediately before their deletion, by hashing every numeric field of
//! every record with the FNV digest below. All three pipelines are fully
//! deterministic (simulated time, seeded randomness), so equality here is
//! exact on every platform. A change to any constant means the redesign
//! changed serving *semantics*, not just the API.

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::serving::{ArrivalProcess, BatchPolicy, DropPolicy, SimConfig, SimResult};
use sushi::core::stream::attach_arrivals;
use sushi::core::stream::uniform_stream;
use sushi::wsnet::zoo;

/// FNV-1a over the little-endian bytes of each 64-bit word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn timed_digest(result: &SimResult) -> u64 {
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

/// Pre-redesign `build_stack(Sushi, MobV3, zcu104, StrictAccuracy, Q=10,
/// candidates=8, seed=42)` + `serve_stream(uniform_stream(space, 40, 7))`.
const EXPECTED_STREAM_DIGEST: u64 = 0xca23_3b0e_95ef_168c;
const EXPECTED_STREAM_LAT_SUM_BITS: u64 = 0x4078_5035_49f9_4859; // 389.0130100000002 ms

#[test]
fn serve_stream_reproduces_pre_redesign_records() {
    let mut engine =
        EngineBuilder::new().q_window(10).candidates(8).seed(42).build().expect("engine");
    let records = engine.serve_stream(&uniform_stream(&engine.constraint_space(), 40, 7)).unwrap();
    let mut h = Fnv::new();
    let mut lat_sum = 0.0;
    for r in &records {
        h.word(r.subnet_row as u64);
        h.f(r.served_accuracy);
        h.f(r.served_latency_ms);
        h.f(r.hit_ratio);
        h.f(r.offchip_mj);
        h.f(r.onchip_mj);
        h.word(u64::from(r.cache_updated));
        lat_sum += r.served_latency_ms;
        assert_eq!(r.prediction, None, "analytical backend records no predictions");
    }
    assert_eq!(h.0, EXPECTED_STREAM_DIGEST, "serve_stream records drifted from fixtures");
    assert_eq!(lat_sum.to_bits(), EXPECTED_STREAM_LAT_SUM_BITS, "latency sum {lat_sum}");
}

/// Pre-redesign `ServingSim::new(MobV3 table(candidates=8, seed=42),
/// zcu104, StrictAccuracy, MinDistanceToAvg, Q=8, workers=2, capacity=16,
/// DropNewest, batch(4, 2.0))` over 150 queries of Poisson-120qps traffic.
///
/// Re-pinned when replica routing replaced the lowest-index-free worker
/// pick (`RoutingPolicy::LeastLoaded` + routed installs): the 2-worker
/// schedule legitimately changed. The 1-worker digests above and below
/// are unchanged — routing is the identity for a single replica.
const EXPECTED_TIMED_DIGEST: u64 = 0x9181_952e_e371_08fd;
const EXPECTED_TIMED_P99_BITS: u64 = 0x403e_da3a_2cd4_7d70; // 30.852450181844176 ms

#[test]
fn serve_timed_reproduces_pre_redesign_analytical_run() {
    let mut engine = EngineBuilder::new()
        .q_window(8)
        .candidates(8)
        .seed(42)
        .sim_config(SimConfig {
            workers: 2,
            queue_capacity: 16,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            ..SimConfig::default()
        })
        .build()
        .expect("engine");
    let qs = uniform_stream(&engine.constraint_space(), 150, 9);
    let ts = ArrivalProcess::Poisson { rate_qps: 120.0 }.timestamps(150, 9 ^ 0xD15);
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).unwrap();
    assert_eq!(timed_digest(&result), EXPECTED_TIMED_DIGEST, "timed run drifted from fixtures");
    assert_eq!(result.summary().p99_ms.to_bits(), EXPECTED_TIMED_P99_BITS);
}

/// Pre-redesign `ServingSim::new(toy-MobileNet table(candidates=3,
/// seed=11), …, Q=4, workers=1, capacity=16, DropNewest, batch(3, 0.1))
/// .with_functional(FunctionalContext::new(DpeArray::new(4, 4), net, 42))`
/// over 12 queries of Poisson-20kqps traffic.
const EXPECTED_FUNCTIONAL_DIGEST: u64 = 0x2790_0d49_6f89_8acf;
const EXPECTED_FUNCTIONAL_PREDICTIONS: [usize; 12] =
    [30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 5, 30];

#[test]
fn serve_timed_reproduces_pre_redesign_functional_run() {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers: 1,
            queue_capacity: 16,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(3, 0.1),
            ..SimConfig::default()
        })
        .build()
        .expect("functional engine");
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 10.0;
    let qs = uniform_stream(&space, 12, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(12, 5);
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).unwrap();

    let mut h = Fnv::new();
    let mut predictions = Vec::new();
    for s in &result.served {
        h.word(s.query.id);
        h.f(s.arrival_ms);
        h.f(s.start_ms);
        h.f(s.completion_ms);
        h.word(s.subnet_row as u64);
        h.word(s.batch_size as u64);
        h.word(s.worker as u64);
        let p = s.prediction.expect("functional predictions");
        h.word(p as u64);
        predictions.push(p);
    }
    h.word(result.dropped.len() as u64);
    assert_eq!(h.0, EXPECTED_FUNCTIONAL_DIGEST, "functional run drifted from fixtures");
    assert_eq!(predictions, EXPECTED_FUNCTIONAL_PREDICTIONS);
}

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

mod common;

use std::sync::Arc;

use common::{timed_digest, Fnv};
use sushi::accel::config::zcu104;
use sushi::core::engine::{BackendKind, Engine, EngineBuilder};
use sushi::core::serving::{ArrivalProcess, BatchPolicy, DropPolicy, RoutingPolicy, SimConfig};
use sushi::core::stream::attach_arrivals;
use sushi::core::stream::uniform_stream;
use sushi::core::ServedRecord;
use sushi::sched::{CacheSelection, Query};
use sushi::wsnet::zoo;

/// FNV digest over every numeric field of a replay's records, and the
/// bits of their latency sum.
fn stream_digest(records: &[ServedRecord]) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut lat_sum = 0.0;
    for r in records {
        h.word(r.subnet_row as u64);
        h.f(r.served_accuracy);
        h.f(r.served_latency_ms);
        h.f(r.hit_ratio);
        h.f(r.offchip_mj);
        h.f(r.onchip_mj);
        h.word(u64::from(r.cache_updated));
        lat_sum += r.served_latency_ms;
    }
    (h.0, lat_sum.to_bits())
}

/// FNV digest over a replay's predictions (`u64::MAX` for none).
fn prediction_digest(records: &[ServedRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.word(r.prediction.map_or(u64::MAX, |p| p as u64));
    }
    h.0
}

/// Pre-redesign `build_stack(variant, MobV3, zcu104, StrictAccuracy, Q=10,
/// candidates=8, seed=42)` + `serve_stream(uniform_stream(space, 40, 7))`,
/// as `(variant, builder setting, digest, latency-sum bits)`. The `Sushi`
/// row is the original fixture; the other two variants, and the functional
/// replay below, were pinned on the standalone replay loop before
/// `serve_stream` moved onto the serving simulator's scheduler and executor
/// pool. No-SUSHI is the board without its PB; SUSHI w/o Sched caches
/// state-unaware.
const EXPECTED_STREAM_DIGEST: u64 = 0xca23_3b0e_95ef_168c;
const EXPECTED_STREAM_LAT_SUM_BITS: u64 = 0x4078_5035_49f9_4859; // 389.0130100000002 ms
type Setting = fn(EngineBuilder) -> EngineBuilder;
const EXPECTED_VARIANT_STREAMS: [(&str, Setting, u64, u64); 3] = [
    ("Sushi", |b| b, EXPECTED_STREAM_DIGEST, EXPECTED_STREAM_LAT_SUM_BITS),
    (
        "NoSushi",
        |b| b.accel_config(zcu104().without_pb()),
        0x6d22_c3cc_7aec_c929,
        0x4079_4421_4cec_41dd,
    ),
    (
        "SushiNoSched",
        |b| b.cache_selection(CacheSelection::FollowLast),
        0x58f9_c141_1e33_acda,
        0x4078_5d72_b020_c49e,
    ),
];

/// The toy-MobileNet functional engine below, replayed over 24 queries:
/// record digest, latency-sum bits and prediction digest.
const EXPECTED_FUNCTIONAL_STREAM: (u64, u64, u64) =
    (0x6d71_5e2d_a757_95d7, 0x4006_3913_e814_50f0, 0x912c_e374_8a38_f17e);

#[test]
fn serve_stream_reproduces_pre_redesign_records() {
    for (variant, setting, digest, lat_sum_bits) in EXPECTED_VARIANT_STREAMS {
        let mut engine = setting(EngineBuilder::new().q_window(10).candidates(8).seed(42))
            .build()
            .expect("engine");
        let records =
            engine.serve_stream(&uniform_stream(&engine.constraint_space(), 40, 7)).unwrap();
        assert!(records.iter().all(|r| r.prediction.is_none()), "analytical: no predictions");
        let (got, got_lat) = stream_digest(&records);
        assert_eq!(got, digest, "{variant} serve_stream records drifted from fixtures");
        assert_eq!(got_lat, lat_sum_bits, "{variant} latency sum drifted");
    }

    let mut engine = toy_functional_engine(SimConfig::default());
    let records = engine.serve_stream(&toy_functional_queries(&engine)).unwrap();
    assert!(records.iter().all(|r| r.prediction.is_some()), "functional: every prediction");
    let (got, got_lat) = stream_digest(&records);
    let got_pred = prediction_digest(&records);
    assert_eq!((got, got_lat, got_pred), EXPECTED_FUNCTIONAL_STREAM, "functional replay drifted");
}

/// The replay runs one query at a time on one worker, so the serving
/// loop's pool size, batching and routing never reach its records.
#[test]
fn serve_stream_ignores_the_serving_config() {
    let pooled = SimConfig {
        workers: 4,
        batch: BatchPolicy::new(4, 1.0),
        routing: RoutingPolicy::CacheAffinity,
        ..SimConfig::default()
    };
    let analytical = |sim| {
        let mut engine = EngineBuilder::new()
            .q_window(10)
            .candidates(8)
            .seed(42)
            .sim_config(sim)
            .build()
            .unwrap();
        engine.serve_stream(&uniform_stream(&engine.constraint_space(), 40, 7)).unwrap()
    };
    assert_eq!(analytical(SimConfig::default()), analytical(pooled));
    let functional = |sim| {
        let mut engine = toy_functional_engine(sim);
        engine.serve_stream(&toy_functional_queries(&engine)).unwrap()
    };
    assert_eq!(functional(SimConfig::default()), functional(pooled));
}

/// A functional engine over three sampled toy-MobileNet SubNets.
fn toy_functional_engine(sim: SimConfig) -> Engine {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = sushi::wsnet::sampler::ConfigSampler::new(&net, 3).sample_subnets(3);
    EngineBuilder::new()
        .workload(net, picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(sim)
        .build()
        .expect("functional engine")
}

fn toy_functional_queries(engine: &Engine) -> Vec<Query> {
    uniform_stream(&engine.constraint_space(), 24, 5)
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
    let ts = ArrivalProcess::Poisson { rate_qps: 120.0 }.timestamps(150, 9 ^ 0xD15).unwrap();
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
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(12, 5).unwrap();
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

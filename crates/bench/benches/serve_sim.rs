//! Wall-clock throughput of the event-driven serving simulator and of the
//! per-query replay loop.
//!
//! The simulated *metrics* are gated deterministically by `serve_bench` /
//! `BENCH_serve.json`; this target tracks how fast the simulator itself
//! chews through traffic (queries simulated per second of host time),
//! which is what bounds large-scale scenario sweeps. The `serve_stream`
//! case times `Engine::serve_stream`, the replay every paper figure of
//! §5.6–5.7 runs, on the analytical backend so no forward pass hides it.
//!
//! Set `SUSHI_BENCH_QUICK=1` (CI's bench-smoke job) to shrink streams.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sushi_core::engine::{EngineBuilder, ModelZoo};
use sushi_core::experiments::ExpOptions;
use sushi_core::serving::{run_scenario, ServePreset};
use sushi_core::stream::uniform_stream;

fn quick() -> bool {
    std::env::var("SUSHI_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn opts() -> ExpOptions {
    let mut o = if quick() { ExpOptions::quick() } else { ExpOptions::default() };
    if quick() {
        o.queries = 60;
    }
    o
}

fn bench_presets(c: &mut Criterion) {
    let opts = opts();
    let mut group = c.benchmark_group("serve_sim");
    for preset in [ServePreset::Steady, ServePreset::Burst] {
        group.bench_function(preset.name(), |b| {
            b.iter(|| {
                let result = run_scenario(black_box(preset), &opts).expect("preset scenario");
                black_box(result.served.len())
            })
        });
    }
    group.finish();
}

/// 600 MobileNetV3 queries through the replay loop of one engine; each
/// iteration continues the engine's scheduler history and PB contents.
fn bench_replay(c: &mut Criterion) {
    let mut engine =
        EngineBuilder::new().zoo(ModelZoo::MobileNetV3).build().expect("paper-default engine");
    let queries = uniform_stream(&engine.constraint_space(), 600, 7);
    c.bench_function("serve_sim/serve_stream", |b| {
        b.iter(|| engine.serve_stream(black_box(&queries)).expect("analytical replay").len())
    });
}

criterion_group!(benches, bench_presets, bench_replay);
criterion_main!(benches);

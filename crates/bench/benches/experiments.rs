//! Criterion bench regenerating every paper table and figure: one timing
//! per entry of `experiments::EXPERIMENTS` (the experiment map in the root
//! README ties ids to paper sources). Each id's regenerated rows are printed
//! once, then the regeneration itself is timed so performance regressions
//! in the simulator/scheduler surface.

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};
use sushi_bench::report_once;
use sushi_core::experiments::EXPERIMENTS;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    for &(id, _) in EXPERIMENTS {
        let printed = Once::new();
        g.bench_function(id, |b| b.iter(|| report_once(id, &printed)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

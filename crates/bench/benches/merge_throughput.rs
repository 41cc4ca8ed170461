//! Criterion benchmark: merge throughput (the paper's §4 efficiency
//! requirement — "trace merging should execute faster than real-time").
//!
//! Compares the Jigsaw merger against the Yeo-style and naive baselines on
//! the same synthetic trace set, and reports events/second — plus the
//! pipeline on the channel-sharded driver (`jigsaw_core::shard`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jigsaw_core::baseline::{naive_merge, yeo_merge};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::unify::MergeConfig;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::{ScenarioConfig, TruthConfig};

fn small_world() -> SimOutput {
    let mut cfg = ScenarioConfig::small(42);
    cfg.day_us = 10_000_000; // 10 s of air
    cfg.truth = TruthConfig::Off;
    cfg.run()
}

fn bench_mergers(c: &mut Criterion) {
    let out = small_world();
    let events = out.total_events();
    let mut g = c.benchmark_group("merge");
    g.throughput(Throughput::Elements(events));
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("jigsaw_full_pipeline", events), |b| {
        b.iter(|| Pipeline::run(out.memory_streams(), &PipelineConfig::default(), ()).unwrap())
    });
    g.bench_function(BenchmarkId::new("yeo_no_resync", events), |b| {
        b.iter(|| {
            yeo_merge(
                out.memory_streams(),
                &Default::default(),
                &MergeConfig::default(),
                |_| {},
            )
            .unwrap()
        })
    });
    g.bench_function(BenchmarkId::new("naive_mergecap", events), |b| {
        b.iter(|| naive_merge(out.memory_streams(), 10_000, |_| {}).unwrap())
    });
    g.finish();
}

/// The whole pipeline on the channel-sharded driver at 1..=3 shard threads,
/// next to `merge/jigsaw_full_pipeline` (the serial driver) above. The
/// 1-thread case measures pure sharding overhead (it degenerates to the
/// serial merger inline).
fn bench_sharded_pipeline(c: &mut Criterion) {
    let out = small_world();
    let events = out.total_events();
    let mut g = c.benchmark_group("sharded_pipeline");
    g.throughput(Throughput::Elements(events));
    g.sample_size(10);

    for threads in [1usize, 2, 3] {
        let cfg = PipelineConfig {
            shard: ShardConfig {
                max_threads: threads,
                ..ShardConfig::default()
            },
            ..PipelineConfig::default()
        };
        g.bench_function(BenchmarkId::new("sharded", threads), |b| {
            b.iter(|| Pipeline::run_parallel(out.memory_streams(), &cfg, ()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mergers, bench_sharded_pipeline);
criterion_main!(benches);

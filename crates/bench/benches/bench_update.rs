//! Criterion micro-bench: per-edge sketch update cost.
//!
//! Backs experiment E6 with statistically sound per-edge numbers: update
//! cost as a function of `k`, against the exact-adjacency insert and the
//! bottom-k variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphstream::{AdjacencyGraph, BarabasiAlbert, Edge, EdgeStream};
use streamlink_core::{SketchConfig, SketchStore};
use streamlink_variants::BottomKStore;

fn edges() -> Vec<Edge> {
    BarabasiAlbert::new(10_000, 4, 7).edges().collect()
}

fn bench_update(c: &mut Criterion) {
    let edges = edges();
    let mut group = c.benchmark_group("edge_update");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    for k in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("minhash_mixer", k), &k, |b, &k| {
            b.iter(|| {
                let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(1));
                store.insert_stream(edges.iter().copied());
                store
            });
        });
        group.bench_with_input(BenchmarkId::new("bottom_k", k), &k, |b, &k| {
            b.iter(|| {
                let mut store = BottomKStore::new(k, 1);
                store.insert_stream(edges.iter().copied());
                store
            });
        });
    }
    group.bench_function("exact_adjacency", |b| {
        b.iter(|| AdjacencyGraph::from_edges(edges.iter().copied()));
    });
    group.finish();
}

criterion_group!(benches, bench_update);
criterion_main!(benches);

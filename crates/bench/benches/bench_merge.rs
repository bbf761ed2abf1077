//! Criterion micro-bench: merging one sketch store into another.
//!
//! Covers `merge_into`, the degree-additive union of two independently
//! built stores (the sharded-ingestion join).
//!
//! Allocation note: `merge_into` used to clone every source sketch into
//! a scratch `Vec` before applying it — one `Vec<u64>` allocation of `k`
//! slots per source vertex, ~10k allocations per merge at this shape.
//! It now iterates the source slots in place, so the only per-vertex
//! allocation left is the destination's own entry for vertices it has
//! never seen. This bench is the before/after harness for that change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphstream::{BarabasiAlbert, Edge, EdgeStream};
use streamlink_core::merge::merge_into;
use streamlink_core::{SketchConfig, SketchStore};

/// Two overlapping halves of one scale-free stream: the merge has to
/// combine shared vertices, not just concatenate disjoint ones.
fn halves() -> (Vec<Edge>, Vec<Edge>) {
    let edges: Vec<Edge> = BarabasiAlbert::new(10_000, 4, 7).edges().collect();
    let mid = edges.len() * 2 / 3;
    (edges[..mid].to_vec(), edges[edges.len() / 3..].to_vec())
}

fn store(k: usize, edges: &[Edge]) -> SketchStore {
    let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(1));
    store.insert_stream(edges.iter().copied());
    store
}

fn bench_merge(c: &mut Criterion) {
    let (left, right) = halves();
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);

    for k in [16usize, 64, 256] {
        let dst = store(k, &left);
        let src = store(k, &right);
        group.throughput(Throughput::Elements(src.vertex_count() as u64));
        group.bench_with_input(BenchmarkId::new("merge_into", k), &k, |b, _| {
            b.iter(|| {
                let mut dst = dst.clone();
                merge_into(&mut dst, &src).expect("compatible stores");
                dst
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);

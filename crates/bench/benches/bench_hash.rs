//! Criterion micro-bench: the hashing substrate.
//!
//! The two-multiply seeded mixer, and the cost of evaluating a whole
//! family per edge endpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hashkit::{HashFamily, SeededHash};

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    group.sample_size(20);
    let keys: Vec<u64> = (0..4096u64).collect();
    group.throughput(Throughput::Elements(keys.len() as u64));

    let mixer = SeededHash::new(1);
    group.bench_function("mixer_single", |b| {
        b.iter(|| {
            keys.iter()
                .map(|&k| mixer.hash(k))
                .fold(0u64, u64::wrapping_add)
        });
    });

    for k in [64usize, 256] {
        let family = HashFamily::new(k, 2);
        let mut out = vec![0u64; k];
        group.bench_with_input(BenchmarkId::new("family_all", k), &k, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &key in keys.iter().take(256) {
                    family.hash_all_into(key, &mut out);
                    acc = acc.wrapping_add(out[0]);
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hash);
criterion_main!(benches);

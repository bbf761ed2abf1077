//! Surviving an at-least-once feed: plain vs duplicate-robust store.
//!
//! Message queues redeliver. MinHash slots don't care (idempotent), but
//! the plain store's degree counters double-count, inflating CN and AA.
//! The robust store swaps counters for per-vertex HyperLogLog distinct
//! counts and shrugs the duplicates off.
//!
//! ```sh
//! cargo run --release --example unreliable_feed
//! ```

use streamlink::prelude::*;
use streamlink::stream::adapters::NoiseInjector;
use streamlink::stream::EdgeStream;
use streamlink::variants::RobustStore;

fn main() {
    // The true stream, then what the consumer actually sees: every edge
    // delivered twice on average, plus stray self-loops and reordering.
    let clean = BarabasiAlbert::new(2_000, 4, 42);
    let injector = NoiseInjector {
        duplicate_prob: 1.0,
        self_loop_prob: 0.05,
        max_reorder: 32,
        seed: 7,
    };
    let noisy = injector.apply(&clean);
    println!(
        "clean stream: {} edges; delivered stream: {} records\n",
        clean.edges().count(),
        noisy.len()
    );

    let config = SketchConfig::with_slots(256).seed(1);
    // Ground truth: plain store over the CLEAN stream.
    let mut truth = SketchStore::new(config);
    truth.insert_stream(clean.edges());
    // Consumers of the NOISY stream.
    let mut plain = SketchStore::new(config);
    plain.insert_stream(noisy.as_slice().iter().copied());
    let mut robust = RobustStore::new(config, 10);
    robust.insert_stream(noisy.as_slice().iter().copied());

    let mut pairs = Vec::new();
    for u in 0..80u64 {
        for v in (u + 1)..80u64 {
            let (u, v) = (VertexId(u), VertexId(v));
            if truth.common_neighbors(u, v).unwrap_or(0.0) >= 1.0 {
                pairs.push((u, v));
            }
        }
    }

    let mut plain_err = 0.0;
    let mut robust_err = 0.0;
    for &(u, v) in &pairs {
        let t = truth.common_neighbors(u, v).unwrap();
        plain_err += (plain.common_neighbors(u, v).unwrap() - t).abs();
        robust_err += (robust.common_neighbors(u, v).unwrap() - t).abs();
    }
    let n = pairs.len() as f64;
    println!(
        "common-neighbor MAE over {} overlapping pairs:",
        pairs.len()
    );
    println!(
        "  plain store  (raw counters): {:.3}  <- inflated ~2x by re-delivery",
        plain_err / n
    );
    println!("  robust store (HLL degrees):  {:.3}", robust_err / n);

    let (u, v) = pairs[0];
    println!("\nexample pair ({u}, {v}):");
    println!("  truth CN  = {:.2}", truth.common_neighbors(u, v).unwrap());
    println!("  plain CN  = {:.2}", plain.common_neighbors(u, v).unwrap());
    println!(
        "  robust CN = {:.2}",
        robust.common_neighbors(u, v).unwrap()
    );
    println!(
        "\nmemory: plain {} KiB, robust {} KiB (HLL adds 2^p bytes/vertex)",
        plain.memory_bytes() / 1024,
        robust.memory_bytes() / 1024
    );
}

//! **E16 (extension figure)** — the accuracy-per-byte frontier: Jaccard
//! error vs bytes per vertex for full-width sketches (a k sweep) against
//! b-bit compressed replicas (a (k, b) grid).
//!
//! Shape to establish (Li–König): at a fixed byte budget, many low-bit
//! slots beat few full-width slots — e.g. `k = 512, b = 2` (128 B/vertex)
//! outperforms a full-width `k = 16` (128 B/vertex) by a wide margin —
//! because the collision correction costs less than the variance of a
//! tiny k. Full-width slots still earn their bytes when AA/RA sampling
//! is needed (replicas answer JC/CN only).
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_bbit [-- --scale ...]
//! ```

use graphstream::{AdjacencyGraph, EdgeStream};
use linkpred::evaluate::sample_overlap_pairs;
use linkpred::metrics;
use serde::Serialize;
use std::mem::size_of;
use streamlink_bench::{
    all_datasets, build_store, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::sketch::Slot;
use streamlink_variants::CompressedStore;

#[derive(Serialize)]
struct Row {
    dataset: String,
    variant: String,
    k: usize,
    bits: u8,
    bytes_per_vertex: f64,
    jaccard_mae: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let mut out = ResultWriter::new("e16_bbit");

    println!("\nE16 — accuracy-per-byte frontier: full-width vs b-bit replicas ({scale:?})\n");
    for (dataset, stream) in all_datasets(scale) {
        let exact = AdjacencyGraph::from_edges(stream.edges());
        let pairs = sample_overlap_pairs(&exact, 600, EXP_SEED);
        let truth: Vec<f64> = pairs.iter().map(|&(u, v)| exact.jaccard(u, v)).collect();

        println!("dataset {}", dataset.spec().key);
        table_header(&["variant", "k", "b", "B/vertex", "J MAE"]);

        // Full-width rows: one 64-bit hash per slot.
        for k in [8usize, 16, 32, 64, 128] {
            let store = build_store(&stream, k, EXP_SEED);
            let mut est = Vec::new();
            let mut t = Vec::new();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if let Some(e) = store.jaccard(u, v) {
                    est.push(e);
                    t.push(truth[i]);
                }
            }
            let row = Row {
                dataset: dataset.spec().key.to_string(),
                variant: "full".into(),
                k,
                bits: (8 * size_of::<Slot>()) as u8,
                bytes_per_vertex: (k * size_of::<Slot>()) as f64,
                jaccard_mae: metrics::mae(&est, &t),
            };
            table_row(&[
                "full".into(),
                k.to_string(),
                "-".into(),
                format!("{:.0}", row.bytes_per_vertex),
                format!("{:.4}", row.jaccard_mae),
            ]);
            out.write_row(&row);
        }

        // Compressed rows at matched byte budgets: build once at the
        // largest k, compress at several b.
        let builder = build_store(&stream, 512, EXP_SEED);
        for b in [1u8, 2, 4, 8] {
            let replica = CompressedStore::from_store(&builder, b);
            let mut est = Vec::new();
            let mut t = Vec::new();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if let Some(e) = replica.jaccard(u, v) {
                    est.push(e);
                    t.push(truth[i]);
                }
            }
            let row = Row {
                dataset: dataset.spec().key.to_string(),
                variant: "b-bit".into(),
                k: 512,
                bits: b,
                bytes_per_vertex: 512.0 * f64::from(b) / 8.0,
                jaccard_mae: metrics::mae(&est, &t),
            };
            table_row(&[
                "b-bit".into(),
                "512".into(),
                b.to_string(),
                format!("{:.0}", row.bytes_per_vertex),
                format!("{:.4}", row.jaccard_mae),
            ]);
            out.write_row(&row);
        }
        println!();
    }
}

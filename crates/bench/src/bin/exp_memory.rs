//! **E7 (memory figure)** — resident bytes of the sketch store vs the
//! exact adjacency as a stream *densifies over a fixed vertex set*.
//!
//! This is the cleanest reading of "constant space per vertex": an
//! Erdős–Rényi edge stream over n fixed vertices keeps arriving, degrees
//! grow without bound, exact adjacency grows linearly in the edge count —
//! and the sketch store flat-lines the moment every vertex has been seen.
//! The curves cross where average degree ≈ 0.35·k and diverge from there.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_memory [-- --scale ...] [--k N]
//! ```

use datasets::Scale;
use graphstream::{AdjacencyGraph, EdgeStream, ErdosRenyi};
use serde::Serialize;
use std::mem::size_of;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::sketch::Slot;
use streamlink_core::{SketchConfig, SketchStore};

#[derive(Serialize)]
struct Row {
    edges_processed: u64,
    avg_degree: f64,
    vertices: usize,
    sketch_bytes: usize,
    exact_bytes: usize,
    ratio: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let k: usize = flag_value(&args, "--k").map_or(128, |v| v.parse().expect("bad --k"));
    // Fixed vertex set, growing density: final avg degree = 2m/n.
    let (n, m) = match scale {
        Scale::Small => (500u64, 40_000u64),
        Scale::Standard => (5_000, 1_200_000),
        Scale::Large => (20_000, 8_000_000),
    };
    let stream: Vec<_> = ErdosRenyi::new(n, m, EXP_SEED).edges().collect();

    let mut out = ResultWriter::new("e7_memory");
    println!(
        "\nE7 — memory growth on a densifying stream: sketch (k = {k}) vs exact adjacency\n\
         ER over a fixed set of {n} vertices, {m} edges (final avg degree {:.0})\n",
        2.0 * m as f64 / n as f64
    );
    table_header(&[
        "edges",
        "avg deg",
        "sketch MiB",
        "exact MiB",
        "exact/sketch",
    ]);

    let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED));
    let mut exact = AdjacencyGraph::new();
    let checkpoints = 12usize;
    let step = stream.len().div_ceil(checkpoints);
    for (i, e) in stream.iter().enumerate() {
        store.insert_edge(e.src, e.dst);
        exact.insert_edge(e.src, e.dst);
        if (i + 1) % step == 0 || i + 1 == stream.len() {
            let row = Row {
                edges_processed: (i + 1) as u64,
                avg_degree: 2.0 * exact.edge_count() as f64 / exact.vertex_count() as f64,
                vertices: store.vertex_count(),
                sketch_bytes: store.memory_bytes(),
                exact_bytes: exact.memory_bytes(),
                ratio: exact.memory_bytes() as f64 / store.memory_bytes() as f64,
            };
            table_row(&[
                row.edges_processed.to_string(),
                format!("{:.1}", row.avg_degree),
                format!("{:.2}", row.sketch_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", row.exact_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3}", row.ratio),
            ]);
            out.write_row(&row);
        }
    }
    println!(
        "\nsketch memory is flat after all {n} vertices are seen ({} bytes/vertex); \
         exact adjacency keeps growing with every edge",
        size_of::<Slot>() * k
    );
}

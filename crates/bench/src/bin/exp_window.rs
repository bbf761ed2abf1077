//! **E18 (extension figure)** — sliding-window vs whole-stream sketches
//! on a drifting stream: recency accuracy and memory over time.
//!
//! Workload: a stream whose community structure rotates every phase
//! (vertices migrate between neighborhoods). Ground truth is the exact
//! graph over the *last W edges*. The whole-stream store smears the
//! regimes together; the windowed store tracks the current one at a
//! bounded memory footprint.
//!
//! Shape to establish: windowed Jaccard error vs the recent-window truth
//! stays well below the whole-stream store's, whose error grows with the
//! regime shifts and never recovers. Memory is reported for
//! honesty: over a *fixed* vertex universe both stores plateau — the
//! windowed store ~#epochs× higher (per-epoch sketches of the same
//! vertices); its memory advantage appears when the vertex universe
//! itself churns (old ids age out entirely, as in the `trending_window`
//! example).
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_window [-- --scale ...] [--k N]
//! ```

use datasets::Scale;
use graphstream::{AdjacencyGraph, Edge, VertexId};
use hashkit::mix64;
use linkpred::metrics;
use serde::Serialize;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::{SketchConfig, SketchStore};
use streamlink_variants::WindowedStore;

#[derive(Serialize)]
struct Row {
    phase: usize,
    backend: String,
    jaccard_mae_vs_recent: f64,
    memory_mib: f64,
}

/// One phase of the drifting stream: the SAME vertex universe, but the
/// community assignment is re-drawn every phase — every vertex migrates,
/// so neighborhoods from earlier phases are stale, not merely absent.
fn phase_edges(phase: usize, n: u64, edges_per_phase: usize) -> Vec<Edge> {
    let communities = (n / 40).max(2); // ~40 vertices per community
    let community = |v: u64| mix64(EXP_SEED ^ (phase as u64) << 48 ^ v) % communities;
    let mut edges = Vec::with_capacity(edges_per_phase);
    let mut i = 0u64;
    while edges.len() < edges_per_phase {
        let r = mix64(EXP_SEED ^ ((phase as u64) << 32) ^ i);
        i += 1;
        let u = r % n;
        let v = (r >> 32) % n;
        // Keep only intra-community pairs: dense clustered neighborhoods
        // that rotate wholesale each phase.
        if u != v && community(u) == community(v) {
            edges.push(Edge::new(u, v, edges.len() as u64));
        }
    }
    edges
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let k: usize = flag_value(&args, "--k").map_or(128, |v| v.parse().expect("bad --k"));
    let (n, edges_per_phase, phases) = match scale {
        Scale::Small => (1_000u64, 5_000usize, 6usize),
        Scale::Standard => (10_000, 50_000, 8),
        Scale::Large => (40_000, 200_000, 10),
    };
    let window_edges = edges_per_phase as u64; // window ≈ one phase

    let mut out = ResultWriter::new("e18_window");
    println!(
        "\nE18 — windowed vs whole-stream sketches over {phases} drift phases \
         (k = {k}, {edges_per_phase} edges/phase)\n"
    );
    table_header(&["phase", "backend", "J MAE (recent)", "MiB"]);

    let cfg = SketchConfig::with_slots(k).seed(EXP_SEED);
    let mut whole = SketchStore::new(cfg);
    let mut windowed = WindowedStore::new(cfg, window_edges / 4, 4);

    for phase in 0..phases {
        let edges = phase_edges(phase, n, edges_per_phase);
        let recent_truth = AdjacencyGraph::from_edges(edges.iter().copied());
        for e in &edges {
            whole.insert_edge(e.src, e.dst);
            windowed.insert_edge(e.src, e.dst);
        }

        // Query pairs from the current phase's block with true overlap.
        let pairs = linkpred::evaluate::sample_overlap_pairs(&recent_truth, 300, EXP_SEED);
        let truth: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| recent_truth.jaccard(u, v))
            .collect();

        type JFn<'a> = Box<dyn Fn(VertexId, VertexId) -> Option<f64> + 'a>;
        let backends: [(&str, JFn, f64); 2] = [
            (
                "whole",
                Box::new(|u, v| whole.jaccard(u, v)),
                whole.memory_bytes() as f64 / (1024.0 * 1024.0),
            ),
            (
                "windowed",
                Box::new(|u, v| windowed.jaccard(u, v)),
                windowed.memory_bytes() as f64 / (1024.0 * 1024.0),
            ),
        ];
        for (name, score, mib) in &backends {
            let mut est = Vec::new();
            let mut t = Vec::new();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if let Some(j) = score(u, v) {
                    est.push(j);
                    t.push(truth[i]);
                }
            }
            let row = Row {
                phase,
                backend: (*name).to_string(),
                jaccard_mae_vs_recent: metrics::mae(&est, &t),
                memory_mib: *mib,
            };
            table_row(&[
                phase.to_string(),
                (*name).into(),
                format!("{:.4}", row.jaccard_mae_vs_recent),
                format!("{:.2}", row.memory_mib),
            ]);
            out.write_row(&row);
        }
    }
}

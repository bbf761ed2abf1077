//! **E10 (equal-memory baseline table)** — MinHash sketches vs uniform
//! edge reservoir sampling at matched memory budgets.
//!
//! The regime that matters is *dense* streams — average degree well above
//! the per-vertex sketch budget — so the workload is a high-degree
//! small-world stream (the contested regime; on sparse streams an edge
//! reservoir can simply store everything and win by default, which the
//! rows at 100% budget show honestly).
//!
//! For each budget (a fraction of what exact adjacency needs) we size
//! both backends to the same bytes: `k = budget/(8·n)` 8-byte slots per vertex
//! vs `capacity = budget/24` reservoir edges.
//!
//! Paper shape to reproduce: as the budget shrinks, the sketch keeps full
//! query coverage with smoothly degrading error, while the reservoir's
//! sampled subgraph loses vertices entirely (coverage collapses) and its
//! rescaled estimates blow up on the pairs it can still see.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_baseline [-- --scale ...]
//! ```

use datasets::Scale;
use graphstream::{AdjacencyGraph, Edge, EdgeStream, WattsStrogatz};
use linkpred::evaluate::sample_overlap_pairs;
use linkpred::{metrics, ExactScorer, Measure, ReservoirScorer, Scorer, SketchScorer};
use serde::Serialize;
use std::mem::size_of;
use streamlink_bench::{
    build_store, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::sketch::Slot;

#[derive(Serialize)]
struct Row {
    budget_fraction: f64,
    budget_bytes: usize,
    backend: String,
    k_or_capacity: usize,
    jaccard_are: Option<f64>,
    coverage: f64,
    cn_are: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    // Dense small-world stream: avg degree = ring_k.
    let (n, ring_k) = match scale {
        Scale::Small => (500u64, 60u64),
        Scale::Standard => (4_000, 400),
        Scale::Large => (10_000, 800),
    };
    let stream = WattsStrogatz::new(n, ring_k, 0.1, EXP_SEED).materialize();
    let exact_graph = AdjacencyGraph::from_edges(stream.edges());
    let exact_bytes = exact_graph.memory_bytes();
    let pairs = sample_overlap_pairs(&exact_graph, 500, EXP_SEED);
    let exact = ExactScorer::new(exact_graph);

    let mut out = ResultWriter::new("e10_baseline");
    println!(
        "\nE10 — sketch vs reservoir at equal memory\n\
         dense stream: WS(n = {n}, degree = {ring_k}), {} edges, exact adjacency = {:.1} MiB\n",
        stream.len(),
        exact_bytes as f64 / (1024.0 * 1024.0)
    );
    table_header(&[
        "budget", "backend", "k / cap", "J ARE", "CN ARE", "coverage",
    ]);

    for budget_fraction in [0.02f64, 0.05, 0.15, 0.4, 1.0] {
        let budget = (exact_bytes as f64 * budget_fraction) as usize;
        let k = (budget / (size_of::<Slot>() * n as usize)).max(1);
        let capacity = (budget / std::mem::size_of::<Edge>()).max(8);

        let store = build_store(&stream, k, EXP_SEED);
        let sketch = SketchScorer::new(store);
        let reservoir = ReservoirScorer::from_edges(stream.edges(), capacity, EXP_SEED);

        for (backend, scorer, size) in [
            ("sketch", &sketch as &dyn Scorer, k),
            ("reservoir", &reservoir as &dyn Scorer, capacity),
        ] {
            let mut j_est = Vec::new();
            let mut j_truth = Vec::new();
            let mut cn_est = Vec::new();
            let mut cn_truth = Vec::new();
            let mut covered = 0usize;
            for &(u, v) in &pairs {
                if let Some(e) = scorer.score(Measure::Jaccard, u, v) {
                    covered += 1;
                    j_est.push(e);
                    j_truth.push(exact.score(Measure::Jaccard, u, v).unwrap_or(0.0));
                    cn_est.push(scorer.score(Measure::CommonNeighbors, u, v).unwrap_or(0.0));
                    cn_truth.push(exact.score(Measure::CommonNeighbors, u, v).unwrap_or(0.0));
                }
            }
            let row = Row {
                budget_fraction,
                budget_bytes: budget,
                backend: backend.to_string(),
                k_or_capacity: size,
                jaccard_are: metrics::average_relative_error(&j_est, &j_truth, 1e-12),
                coverage: covered as f64 / pairs.len() as f64,
                cn_are: metrics::average_relative_error(&cn_est, &cn_truth, 1e-12),
            };
            table_row(&[
                format!("{:.0}%", budget_fraction * 100.0),
                backend.into(),
                size.to_string(),
                row.jaccard_are.map_or("n/a".into(), |v| format!("{v:.4}")),
                row.cn_are.map_or("n/a".into(), |v| format!("{v:.4}")),
                format!("{:.3}", row.coverage),
            ]);
            out.write_row(&row);
        }
    }
}

//! **E11 (ablation figure)** — the three sketch designs on Adamic–Adar
//! estimation across a skew sweep: the k-function MinHash sketch
//! (match-sampling AA), the bottom-k variant, and the vertex-biased
//! (weighted) sketch.
//!
//! The skew sweep uses the power-law configuration model with
//! α ∈ {2.0, 2.5, 3.0, 3.5}: smaller α = heavier tail = the regime the
//! vertex-biased sampler was designed for.
//!
//! Paper shape to reproduce: all estimators degrade as skew grows.
//! Bottom-k is *exact* whenever `|N(u) ∪ N(v)| <= k` (it stores actual
//! neighbor hashes), so its error is concentrated entirely on hub pairs;
//! the k-function sketch spreads error evenly; the biased sketch trades a
//! systematic staleness bias for lower variance on heavy tails.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_ablation [-- --scale ...] [--k N]
//! ```

use datasets::Scale;
use graphstream::{AdjacencyGraph, EdgeStream, PowerLawConfig};
use linkpred::evaluate::sample_overlap_pairs;
use linkpred::metrics;
use serde::Serialize;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::{SketchConfig, SketchStore};
use streamlink_variants::{BiasedStore, BottomKStore};

#[derive(Serialize)]
struct Row {
    alpha: f64,
    variant: String,
    k: usize,
    pairs: usize,
    aa_are: Option<f64>,
    aa_mae: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let k: usize = flag_value(&args, "--k").map_or(64, |v| v.parse().expect("bad --k"));
    let (n, dmax) = match scale {
        Scale::Small => (1_500, 300),
        Scale::Standard => (30_000, 2_000),
        Scale::Large => (150_000, 5_000),
    };
    let mut out = ResultWriter::new("e11_ablation");

    println!("\nE11 — AA estimator ablation over degree skew (k = {k}, n = {n})\n");
    table_header(&["alpha", "variant", "pairs", "AA ARE", "AA MAE"]);
    for alpha in [2.0f64, 2.5, 3.0, 3.5] {
        let stream = PowerLawConfig::new(n, alpha, dmax, EXP_SEED).materialize();
        let exact = AdjacencyGraph::from_edges(stream.edges());
        let pairs = sample_overlap_pairs(&exact, 500, EXP_SEED);
        let truth: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| exact.adamic_adar(u, v))
            .collect();

        let mut minhash = SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED));
        minhash.insert_stream(stream.edges());
        let mut bottomk = BottomKStore::new(k, EXP_SEED);
        bottomk.insert_stream(stream.edges());
        let mut biased = BiasedStore::new(k, EXP_SEED);
        biased.insert_stream(stream.edges());

        type ScoreFn<'a> =
            Box<dyn Fn(graphstream::VertexId, graphstream::VertexId) -> Option<f64> + 'a>;
        let variants: [(&str, ScoreFn); 3] = [
            ("minhash", Box::new(|u, v| minhash.adamic_adar(u, v))),
            ("bottom-k", Box::new(|u, v| bottomk.adamic_adar(u, v))),
            ("biased", Box::new(|u, v| biased.adamic_adar(u, v))),
        ];
        for (name, score) in &variants {
            let mut est = Vec::with_capacity(pairs.len());
            let mut t = Vec::with_capacity(pairs.len());
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if let Some(e) = score(u, v) {
                    est.push(e);
                    t.push(truth[i]);
                }
            }
            let row = Row {
                alpha,
                variant: (*name).to_string(),
                k,
                pairs: est.len(),
                aa_are: metrics::average_relative_error(&est, &t, 1e-12),
                aa_mae: metrics::mae(&est, &t),
            };
            table_row(&[
                format!("{alpha:.1}"),
                (*name).into(),
                row.pairs.to_string(),
                row.aa_are.map_or("n/a".into(), |v| format!("{v:.4}")),
                format!("{:.4}", row.aa_mae),
            ]);
            out.write_row(&row);
        }
    }
}

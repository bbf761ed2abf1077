//! Cross-crate integration tests for the extension features: compressed
//! replicas, robust degrees, windows, LSH and ensembles composed over
//! the dataset suite through the public facade.

use streamlink::data::{Scale, SimulatedDataset};
use streamlink::predict::evaluate::sample_overlap_pairs;
use streamlink::predict::{EnsembleScorer, ExactScorer, Measure, Scorer, SketchScorer};
use streamlink::prelude::*;
use streamlink::sketch::LshIndex;
use streamlink::stream::adapters::NoiseInjector;
use streamlink::stream::EdgeStream;
use streamlink::variants::{CompressedStore, RobustStore, WindowedStore};

/// Full replication pipeline: ingest → compress at several b → ship as
/// JSON → restore → query; accuracy must degrade gracefully with b.
#[test]
fn compressed_replica_pipeline() {
    let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
    let mut builder = SketchStore::new(SketchConfig::with_slots(256).seed(3));
    builder.insert_stream(stream.edges());
    let exact = ExactScorer::from_edges(stream.edges());
    let pairs = sample_overlap_pairs(exact.graph(), 150, 5);

    let mut last_mae = f64::INFINITY;
    for b in [2u8, 8] {
        let replica = CompressedStore::from_store(&builder, b);
        // Ship through serialization, as a replica deployment would.
        let bytes = serde_json::to_vec(&replica).unwrap();
        let restored: CompressedStore = serde_json::from_slice(&bytes).unwrap();

        let mut err = 0.0;
        for &(u, v) in &pairs {
            let truth = exact.score(Measure::Jaccard, u, v).unwrap();
            err += (restored.jaccard(u, v).unwrap() - truth).abs();
        }
        let mae = err / pairs.len() as f64;
        assert!(
            mae < last_mae + 0.005,
            "b = {b} worse than smaller b: {mae}"
        );
        assert!(mae < 0.06, "b = {b}: MAE {mae} too high");
        last_mae = mae;
    }
}

/// Robust store under a fully duplicated dataset stream: CN tracks the
/// clean-stream plain store.
#[test]
fn robust_store_on_duplicated_dataset() {
    let clean = SimulatedDataset::YoutubeLike.stream(Scale::Small);
    let injector = NoiseInjector {
        duplicate_prob: 1.0,
        ..NoiseInjector::clean(11)
    };
    let noisy = injector.apply(&clean);

    let cfg = SketchConfig::with_slots(256).seed(2);
    let mut truth = SketchStore::new(cfg);
    truth.insert_stream(clean.edges());
    let mut robust = RobustStore::new(cfg, 10);
    robust.insert_stream(noisy.as_slice().iter().copied());

    let mut err = 0.0;
    let mut n = 0;
    for u in 0..60u64 {
        for v in (u + 1)..60u64 {
            let (u, v) = (VertexId(u), VertexId(v));
            if let (Some(t), Some(r)) =
                (truth.common_neighbors(u, v), robust.common_neighbors(u, v))
            {
                err += (t - r).abs();
                n += 1;
            }
        }
    }
    assert!(n > 100);
    assert!(
        err / f64::from(n) < 0.5,
        "robust CN drifted: {}",
        err / f64::from(n)
    );
}

/// Windowed store over a dataset stream answers exactly like a fresh
/// store over the live window (public-API version of the core test).
#[test]
fn windowed_equivalence_on_dataset() {
    let stream = SimulatedDataset::WikiTalkLike.stream(Scale::Small);
    let edges = stream.as_slice();
    let cfg = SketchConfig::with_slots(64).seed(9);
    let epoch = 200u64;
    let mut windowed = WindowedStore::new(cfg, epoch, 3);
    for e in edges {
        windowed.insert_edge(e.src, e.dst);
    }
    let n = edges.len() as u64;
    let kept = (2 * epoch).min((n / epoch) * epoch) + n % epoch;
    let suffix = &edges[(n - kept) as usize..];
    let mut fresh = SketchStore::new(cfg);
    fresh.insert_stream(suffix.iter().copied());
    for v in fresh.vertices().take(100) {
        let ws = windowed.window_sketch(v);
        assert_eq!(ws.as_ref(), fresh.sketch(v), "window mismatch at {v}");
    }
}

/// LSH + ensemble compose: retrieve candidates by similarity, re-rank
/// with a calibrated multi-measure ensemble.
#[test]
fn lsh_retrieval_with_ensemble_reranking() {
    let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
    let mut store = SketchStore::new(SketchConfig::with_slots(128).seed(7));
    store.insert_stream(stream.edges());
    let index = LshIndex::build(&store, 48, 2).unwrap();
    let sketch = SketchScorer::new(store.clone());
    let calibration = {
        let exact = ExactScorer::from_edges(stream.edges());
        sample_overlap_pairs(exact.graph(), 200, 1)
    };
    let ensemble = EnsembleScorer::calibrated(
        &sketch,
        &[Measure::Jaccard, Measure::AdamicAdar],
        &calibration,
    );

    let mut reranked_any = false;
    for q in store.vertices().take(20) {
        let candidates = index.candidates(&store, q);
        let mut scored: Vec<(VertexId, f64)> = candidates
            .into_iter()
            .filter_map(|c| ensemble.score(Measure::Jaccard, q, c).map(|s| (c, s)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        if scored.len() >= 2 {
            reranked_any = true;
            assert!(scored[0].1 >= scored[1].1);
            assert!(scored.iter().all(|(_, s)| s.is_finite()));
        }
    }
    assert!(reranked_any, "no query produced multiple candidates");
}

//! Cross-crate integration tests: full pipelines from stream generation
//! through sketching to evaluation, exercising the public API the way the
//! examples and experiment harness do.

use streamlink::data::{Scale, SimulatedDataset};
use streamlink::predict::evaluate::{estimation_report, sample_overlap_pairs};
use streamlink::predict::{Evaluator, ExactScorer, Measure, ReservoirScorer, Scorer, SketchScorer};
use streamlink::prelude::*;
use streamlink::sketch::codec;
use streamlink::sketch::parallel::ingest_parallel;
use streamlink::sketch::snapshot::StoreSnapshot;
use streamlink::stream::{EdgeStream, WattsStrogatz};

/// The full paper pipeline on every dataset: generate → sketch → compare
/// against exact ground truth. Jaccard MAE must be small at k = 256.
#[test]
fn sketch_tracks_exact_on_every_dataset() {
    for dataset in SimulatedDataset::ALL {
        let stream = dataset.stream(Scale::Small);
        let exact = ExactScorer::from_edges(stream.edges());
        let mut store = SketchStore::new(SketchConfig::with_slots(256).seed(1));
        store.insert_stream(stream.edges());
        let sketch = SketchScorer::new(store);

        let pairs = sample_overlap_pairs(exact.graph(), 200, 7);
        assert!(!pairs.is_empty(), "{dataset}: no overlap pairs");
        let report = estimation_report(&sketch, &exact, Measure::Jaccard, &pairs);
        assert!(
            report.mae < 0.06,
            "{dataset}: Jaccard MAE {} too high at k = 256",
            report.mae
        );
        assert!(
            report.kendall_tau.unwrap_or(0.0) > 0.2,
            "{dataset}: rank correlation lost ({:?})",
            report.kendall_tau
        );
    }
}

/// Temporal prediction: the sketch scorer's AUC must track the exact
/// scorer's AUC on a clustered stream for all three paper measures.
#[test]
fn sketch_auc_tracks_exact_auc() {
    let stream = WattsStrogatz::new(500, 8, 0.1, 3);
    let evaluator = Evaluator::new(&stream, 0.8, 3, 5);
    assert!(evaluator.positives().len() > 30);

    let exact = ExactScorer::from_edges(evaluator.train().edges());
    let mut store = SketchStore::new(SketchConfig::with_slots(256).seed(2));
    store.insert_stream(evaluator.train().edges());
    let sketch = SketchScorer::new(store);

    for measure in Measure::PAPER_TARGETS {
        let e = evaluator.evaluate(&exact, measure, &[]).auc.unwrap();
        let s = evaluator.evaluate(&sketch, measure, &[]).auc.unwrap();
        assert!(e > 0.55, "{measure}: exact AUC {e} has no signal");
        assert!(
            (e - s).abs() < 0.1,
            "{measure}: sketch AUC {s} vs exact {e}"
        );
    }
}

/// Snapshot round-trip in the middle of a stream, then continued
/// ingestion, must equal uninterrupted ingestion — the crash-recovery
/// story.
#[test]
fn snapshot_recovery_mid_stream() {
    let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
    let edges = stream.as_slice();
    let cut = edges.len() / 2;

    let mut first_half = SketchStore::new(SketchConfig::with_slots(64).seed(9));
    first_half.insert_stream(edges[..cut].iter().copied());

    // Serialize through the v3 bytes a checkpoint writes, as the CLI does.
    let bytes = codec::encode_store_snapshot(&StoreSnapshot::capture(&first_half)).unwrap();
    let snap: StoreSnapshot = codec::decode_store_snapshot(&bytes).unwrap();
    let mut recovered = snap.restore();
    recovered.insert_stream(edges[cut..].iter().copied());

    let mut uninterrupted = SketchStore::new(SketchConfig::with_slots(64).seed(9));
    uninterrupted.insert_stream(edges.iter().copied());

    assert_eq!(recovered.vertex_count(), uninterrupted.vertex_count());
    for v in uninterrupted.vertices() {
        assert_eq!(
            recovered.sketch(v),
            uninterrupted.sketch(v),
            "divergence at {v}"
        );
    }
}

/// Parallel sharded ingestion produces answers identical to sequential
/// for every measure on real dataset streams.
#[test]
fn parallel_ingestion_identical_answers() {
    let stream = SimulatedDataset::YoutubeLike.stream(Scale::Small);
    let edges: Vec<Edge> = stream.as_slice().to_vec();
    let cfg = SketchConfig::with_slots(64).seed(4);
    let seq = ingest_parallel(cfg, &edges, 1);
    let par = ingest_parallel(cfg, &edges, 4);
    for u in 0..50u64 {
        for v in (u + 1)..50u64 {
            let (u, v) = (VertexId(u), VertexId(v));
            assert_eq!(seq.jaccard(u, v), par.jaccard(u, v));
            assert_eq!(seq.adamic_adar(u, v), par.adamic_adar(u, v));
        }
    }
}

/// The reservoir baseline loses vertices at tight budgets while the
/// sketch keeps answering — the coverage contrast of experiment E10.
#[test]
fn sketch_coverage_beats_reservoir_at_tight_memory() {
    let stream = SimulatedDataset::WikiTalkLike.stream(Scale::Small);
    let mut store = SketchStore::new(SketchConfig::with_slots(8).seed(1));
    store.insert_stream(stream.edges());
    let sketch = SketchScorer::new(store);
    let reservoir = ReservoirScorer::from_edges(stream.edges(), 32, 1);

    let exact = ExactScorer::from_edges(stream.edges());
    let pairs = sample_overlap_pairs(exact.graph(), 100, 3);
    let coverage = |s: &dyn Scorer| {
        pairs
            .iter()
            .filter(|&&(u, v)| s.score(Measure::Jaccard, u, v).is_some())
            .count()
    };
    let (sk, rs) = (coverage(&sketch), coverage(&reservoir));
    assert_eq!(sk, pairs.len(), "sketch must cover every seen vertex");
    assert!(
        rs < sk,
        "reservoir should have forgotten vertices: {rs} vs {sk}"
    );
}

/// File formats round-trip through the graphstream codecs at dataset
/// scale.
#[test]
fn dataset_roundtrips_through_codecs() {
    use streamlink::stream::io;
    let stream = SimulatedDataset::FlickrLike.stream(Scale::Small);
    let bin = io::decode_binary(io::encode_binary(stream.as_slice())).unwrap();
    assert_eq!(bin, stream);
    let mut csv = Vec::new();
    io::write_csv(stream.as_slice(), &mut csv).unwrap();
    assert_eq!(io::read_csv(csv.as_slice()).unwrap(), stream);
}

/// The accuracy planner's promises hold on real dataset streams, not just
/// synthetic neighborhoods: at least 90% of pairs are within ε(δ = 0.05).
#[test]
fn accuracy_plan_holds_on_real_streams() {
    use streamlink::sketch::AccuracyPlan;
    let k = 128;
    let eps = AccuracyPlan::error_bound(k, 0.05);
    let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
    let exact = ExactScorer::from_edges(stream.edges());
    let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(11));
    store.insert_stream(stream.edges());

    let pairs = sample_overlap_pairs(exact.graph(), 300, 13);
    let mut violations = 0usize;
    for &(u, v) in &pairs {
        let est = store.jaccard(u, v).unwrap();
        let truth = exact.score(Measure::Jaccard, u, v).unwrap();
        if (est - truth).abs() > eps {
            violations += 1;
        }
    }
    let rate = violations as f64 / pairs.len() as f64;
    assert!(
        rate < 0.10,
        "violation rate {rate} vs promised 0.05 (plus slack)"
    );
}

/// Different measures produce genuinely different rankings (no accidental
/// aliasing between estimator code paths).
#[test]
fn measures_are_distinct() {
    let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
    let mut store = SketchStore::new(SketchConfig::with_slots(256).seed(1));
    store.insert_stream(stream.edges());
    let exact = ExactScorer::from_edges(stream.edges());
    let pairs = sample_overlap_pairs(exact.graph(), 50, 17);

    let collect = |m: Measure| -> Vec<f64> {
        pairs
            .iter()
            .map(|&(u, v)| {
                SketchScorer::new(store.clone())
                    .score(m, u, v)
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let j = collect(Measure::Jaccard);
    let cn = collect(Measure::CommonNeighbors);
    let aa = collect(Measure::AdamicAdar);
    assert_ne!(j, cn);
    assert_ne!(cn, aa);
}

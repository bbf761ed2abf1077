//! **E17 (extension figure)** — robustness under hostile streams, two
//! scenarios:
//!
//! 1. **Duplication** — estimator error vs stream re-delivery rate: the
//!    plain store (raw degree counters) against the duplicate-robust
//!    store (HyperLogLog distinct degrees). Shape to establish:
//!    plain-store CN error grows linearly with the re-delivery rate
//!    (degrees scale by `1 + rate`), while the robust store's error is
//!    flat at the HLL noise floor; Jaccard is flat for both (slots are
//!    idempotent).
//! 2. **Crash recovery** — a journaled ingest is killed at a stream
//!    fraction (with a torn tail planted, as a real crash mid-append
//!    leaves), recovered from snapshot + journal, and resumed. Shape to
//!    establish: the resumed store's JACCARD/CN/AA estimates are
//!    **bit-identical** to an uninterrupted run — durability costs no
//!    accuracy.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_robust [-- --scale ...] [--k N]
//! ```

use std::path::PathBuf;

use datasets::Scale;
use graphstream::adapters::NoiseInjector;
use graphstream::{AdjacencyGraph, BarabasiAlbert, EdgeStream};
use linkpred::evaluate::sample_overlap_pairs;
use linkpred::metrics;
use serde::Serialize;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::journal::{self, FsyncPolicy, Journal, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{chaos, durable, SketchConfig, SketchStore};
use streamlink_variants::RobustStore;

#[derive(Serialize)]
struct Row {
    duplicate_prob: f64,
    backend: String,
    cn_are: Option<f64>,
    cn_mae: f64,
    jaccard_mae: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let k: usize = flag_value(&args, "--k").map_or(256, |v| v.parse().expect("bad --k"));
    let n = match scale {
        Scale::Small => 1_000,
        Scale::Standard => 20_000,
        Scale::Large => 100_000,
    };
    let clean = BarabasiAlbert::new(n, 4, EXP_SEED);
    let exact = AdjacencyGraph::from_edges(clean.edges());
    let pairs = sample_overlap_pairs(&exact, 600, EXP_SEED);
    let cn_truth: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| exact.common_neighbors(u, v) as f64)
        .collect();
    let j_truth: Vec<f64> = pairs.iter().map(|&(u, v)| exact.jaccard(u, v)).collect();

    let mut out = ResultWriter::new("e17_robust");
    println!("\nE17 — error vs duplication rate (k = {k}, BA n = {n})\n");
    table_header(&["dup rate", "backend", "CN ARE", "CN MAE", "J MAE"]);
    for duplicate_prob in [0.0f64, 0.25, 0.5, 1.0] {
        let injector = NoiseInjector {
            duplicate_prob,
            self_loop_prob: 0.02,
            max_reorder: 8,
            seed: 3,
        };
        let noisy = injector.apply(&clean);

        let mut plain = SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED));
        plain.insert_stream(noisy.as_slice().iter().copied());
        let mut robust = RobustStore::new(SketchConfig::with_slots(k).seed(EXP_SEED), 10);
        robust.insert_stream(noisy.as_slice().iter().copied());

        type CnFn<'a> = Box<
            dyn Fn(graphstream::VertexId, graphstream::VertexId) -> (Option<f64>, Option<f64>) + 'a,
        >;
        let backends: [(&str, CnFn); 2] = [
            (
                "plain",
                Box::new(|u, v| (plain.common_neighbors(u, v), plain.jaccard(u, v))),
            ),
            (
                "robust",
                Box::new(|u, v| (robust.common_neighbors(u, v), robust.jaccard(u, v))),
            ),
        ];
        for (name, score) in &backends {
            let mut cn_est = Vec::new();
            let mut cn_t = Vec::new();
            let mut j_est = Vec::new();
            let mut j_t = Vec::new();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                let (cn, j) = score(u, v);
                if let Some(cn) = cn {
                    cn_est.push(cn);
                    cn_t.push(cn_truth[i]);
                }
                if let Some(j) = j {
                    j_est.push(j);
                    j_t.push(j_truth[i]);
                }
            }
            let row = Row {
                duplicate_prob,
                backend: (*name).to_string(),
                cn_are: metrics::average_relative_error(&cn_est, &cn_t, 1e-12),
                cn_mae: metrics::mae(&cn_est, &cn_t),
                jaccard_mae: metrics::mae(&j_est, &j_t),
            };
            table_row(&[
                format!("{:.0}%", duplicate_prob * 100.0),
                (*name).into(),
                row.cn_are.map_or("n/a".into(), |v| format!("{v:.4}")),
                format!("{:.4}", row.cn_mae),
                format!("{:.4}", row.jaccard_mae),
            ]);
            out.write_row(&row);
        }
    }

    crash_recovery_experiment(scale, k);
}

#[derive(Serialize)]
struct RecoveryRow {
    crash_fraction: f64,
    edges_acked: u64,
    edges_recovered: u64,
    snapshot_seq: u64,
    journal_replayed: u64,
    journal_skipped: u64,
    torn_tail_dropped: bool,
    jaccard_max_dev: f64,
    cn_max_dev: f64,
    aa_max_dev: f64,
}

/// Kill a journaled ingest at `crash_fraction` of the stream (leaving a
/// torn half-entry behind, as a crash mid-append does), recover, resume,
/// and compare every estimate against an uninterrupted run.
fn crash_recovery_experiment(scale: Scale, k: usize) {
    let n = match scale {
        Scale::Small => 1_000,
        Scale::Standard => 20_000,
        Scale::Large => 100_000,
    };
    let edges: Vec<_> = BarabasiAlbert::new(n, 4, EXP_SEED).edges().collect();
    let exact = AdjacencyGraph::from_edges(edges.iter().copied());
    let pairs = sample_overlap_pairs(&exact, 600, EXP_SEED);
    let config = || SketchConfig::with_slots(k).seed(EXP_SEED);

    let mut uninterrupted = SketchStore::new(config());
    uninterrupted.insert_stream(edges.iter().copied());

    let mut out = ResultWriter::new("e17_recovery");
    println!("\nE17b — crash recovery vs uninterrupted run (k = {k}, BA n = {n})\n");
    table_header(&[
        "crash at",
        "acked",
        "recovered",
        "replayed",
        "torn",
        "max |ΔJ|",
        "max |ΔCN|",
        "max |ΔAA|",
    ]);
    for crash_fraction in [0.25f64, 0.5, 0.75] {
        let dir = recovery_dir(crash_fraction);
        let crash_at = ((edges.len() as f64) * crash_fraction) as usize;
        let checkpoint_at = crash_at / 2;

        // The serving protocol: journal-then-apply per edge, one
        // checkpoint mid-stream.
        let mut store = SketchStore::new(config());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::OnRotate).expect("create journal");
        for (i, e) in edges[..crash_at].iter().enumerate() {
            let seq = store.edges_processed() + 1;
            journal
                .append(JournalEntry {
                    seq,
                    u: e.src,
                    v: e.dst,
                })
                .expect("journal append");
            store.insert_edge(e.src, e.dst);
            if i + 1 == checkpoint_at {
                let snap = StoreSnapshot::capture(&store);
                journal.rotate(snap.edges_processed + 1).expect("rotate");
                streamlink_core::checkpoint(
                    &snap,
                    snap.edges_processed,
                    &dir,
                    &mut journal,
                    streamlink_core::DEFAULT_SNAPSHOT_KEEP,
                )
                .expect("checkpoint");
            }
        }
        drop(store); // crash: the in-memory store is gone,
        drop(journal); // the journal file stops mid-entry:
        let segments = journal::list_segments(&dir).expect("list segments");
        let (_, last_segment) = segments.last().expect("an active segment");
        chaos::append_garbage(last_segment, format!("E {} 17", crash_at + 1).as_bytes())
            .expect("plant torn tail");

        let recovery = durable::recover(&dir, config()).expect("recover");
        let mut resumed = recovery.store;
        assert_eq!(
            resumed.edges_processed(),
            crash_at as u64,
            "recovery must restore exactly the acked prefix"
        );
        resumed.insert_stream(edges[crash_at..].iter().copied());

        let mut devs = [0.0f64; 3]; // max |Δ| for J, CN, AA
        for &(u, v) in &pairs {
            let estimates = [
                (uninterrupted.jaccard(u, v), resumed.jaccard(u, v)),
                (
                    uninterrupted.common_neighbors(u, v),
                    resumed.common_neighbors(u, v),
                ),
                (uninterrupted.adamic_adar(u, v), resumed.adamic_adar(u, v)),
            ];
            for (slot, (reference, recovered)) in devs.iter_mut().zip(estimates) {
                match (reference, recovered) {
                    (Some(a), Some(b)) => *slot = slot.max((a - b).abs()),
                    (None, None) => {}
                    _ => *slot = f64::INFINITY, // seen on one side only
                }
            }
        }
        let row = RecoveryRow {
            crash_fraction,
            edges_acked: crash_at as u64,
            edges_recovered: crash_at as u64,
            snapshot_seq: recovery.snapshot_seq,
            journal_replayed: recovery.journal.replayed,
            journal_skipped: recovery.journal.skipped,
            torn_tail_dropped: recovery.journal.torn_tail,
            jaccard_max_dev: devs[0],
            cn_max_dev: devs[1],
            aa_max_dev: devs[2],
        };
        table_row(&[
            format!("{:.0}%", crash_fraction * 100.0),
            row.edges_acked.to_string(),
            row.edges_recovered.to_string(),
            row.journal_replayed.to_string(),
            row.torn_tail_dropped.to_string(),
            format!("{:.1e}", row.jaccard_max_dev),
            format!("{:.1e}", row.cn_max_dev),
            format!("{:.1e}", row.aa_max_dev),
        ]);
        out.write_row(&row);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn recovery_dir(fraction: f64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "streamlink-e17-recovery-{}-{}",
        std::process::id(),
        (fraction * 100.0) as u64
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create recovery dir");
    dir
}

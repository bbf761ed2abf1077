//! **E24 (codec)** — storage-format shootout: text v2 vs binary v3 on
//! the same durable workload, gating the claim that v3 makes recovery
//! **≥ 5× faster** and the on-disk artifacts **smaller** while the v2
//! path stays fully readable.
//!
//! Per format, one simulated server lifetime: `n` journaled edges, a
//! mid-stream checkpoint, and the second half left as a WAL tail; then
//! time cold recovery — snapshot load plus tail replay — and audit that
//! both formats recover the identical store. Durations are the best of
//! three runs to shed scheduler noise.
//!
//! The v3 lifetime runs the server's own journal (fsync-never) and
//! checkpoint. No server writes v2 any more, so the v2 lifetime lays
//! down the same files with the [`streamlink_core::codec::v2`] fixture
//! encoders; both recover through the one sniffing read path.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_codec -- \
//!     [--scale small|standard|large] [--min-replay-speedup 5.0]
//! ```
//!
//! Exits nonzero if v3 recovery speedup falls below the gate, v3
//! artifacts are not smaller, or the recovered stores diverge — CI runs
//! this as a regression gate.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use graphstream::VertexId;
use serde::Serialize;
use streamlink_bench::{flag_value, scale_from_args, ResultWriter, EXP_SEED};
use streamlink_core::journal::{self, FsyncPolicy, Journal, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{codec, durable, SketchConfig, SketchStore};

const KEEP: usize = 2;
const RUNS: usize = 3;

/// Deterministic xorshift64 PRNG so both formats see the same stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Serialize)]
struct Row {
    format: String,
    edges: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    snapshot_load_ms: f64,
    replay_ms: f64,
    recover_ms: f64,
    recovered_edges: u64,
    recovered_vertices: u64,
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("streamlink-exp-codec-{}-{tag}", std::process::id()))
}

fn dir_bytes(dir: &PathBuf, prefix: &str) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Lays down one lifetime in `dir`: the first half of `entries` folded
/// into a checkpoint generation, the rest left as the WAL tail (v3
/// through the journal and checkpoint, v2 with the fixture encoders).
/// Returns the store the edges build.
fn write_lifetime(v3: bool, dir: &Path, entries: &[JournalEntry]) -> SketchStore {
    let (head, tail) = entries.split_at(entries.len() / 2);
    let wal_seq = head.len() as u64;
    let mut store = SketchStore::new(SketchConfig::with_slots(64).seed(EXP_SEED));
    if v3 {
        let mut journal = Journal::create(dir, 1, FsyncPolicy::Never).expect("create journal");
        let ingest = |journal: &mut Journal, store: &mut SketchStore, es: &[JournalEntry]| {
            for e in es {
                journal.append(*e).expect("append");
                store.insert_edge(e.u, e.v);
            }
        };
        ingest(&mut journal, &mut store, head);
        let snapshot = StoreSnapshot::capture(&store);
        journal.rotate(wal_seq + 1).expect("rotate");
        durable::checkpoint(&snapshot, wal_seq, dir, &mut journal, KEEP).expect("checkpoint");
        ingest(&mut journal, &mut store, tail);
    } else {
        fs::create_dir_all(dir).expect("create dir");
        head.iter().for_each(|e| store.insert_edge(e.u, e.v));
        let snapshot = codec::v2::store_snapshot(&StoreSnapshot::capture(&store));
        fs::write(durable::generation_path(dir, wal_seq), snapshot).expect("write generation");
        let segment = journal::segment_path(dir, wal_seq + 1);
        fs::write(segment, codec::v2::wal_segment(tail)).expect("write segment");
        tail.iter().for_each(|e| store.insert_edge(e.u, e.v));
    }
    store
}

/// One full lifetime + cold recovery. Timings are the best of [`RUNS`]
/// repetitions over freshly rebuilt directories.
fn run_format(v3: bool, edges: u64) -> Row {
    let name = if v3 { "v3" } else { "v2" };
    let mut rng = Rng::new(EXP_SEED);
    let entries: Vec<JournalEntry> = (1..=edges)
        .map(|seq| JournalEntry {
            seq,
            u: VertexId(rng.below(10_000)),
            v: VertexId(rng.below(10_000)),
        })
        .collect();
    let mut best: Option<Row> = None;
    for run in 0..RUNS {
        let dir = temp_dir(&format!("{name}-{run}"));
        let _ = fs::remove_dir_all(&dir);
        let store = write_lifetime(v3, &dir, &entries);

        let wal_bytes = dir_bytes(&dir, "wal.");
        let snapshot_bytes = dir_bytes(&dir, "snapshot.");

        // Cold recovery, componentized: snapshot load, then tail replay.
        // (`durable::recover` does both in one call; timing them apart
        // shows where each format spends its time.)
        let load_start = Instant::now();
        let generations = durable::list_generations(&dir).expect("list generations");
        let (snap_seq, snap_path) = generations.last().expect("one generation");
        let (snap, _integrity) =
            StoreSnapshot::read_with_integrity(snap_path).expect("read snapshot");
        let mut recovered = snap.restore();
        let snapshot_load_ms = load_start.elapsed().as_secs_f64() * 1e3;
        let replay_start = Instant::now();
        let report = journal::replay(&dir, *snap_seq, |e| {
            recovered.insert_edge(e.u, e.v);
        })
        .expect("replay");
        let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.quarantined, 0, "clean dir must replay clean");
        assert!(!report.torn_tail, "clean dir must have no torn tail");
        assert_eq!(
            recovered.edges_processed(),
            store.edges_processed(),
            "{name} recovery dropped edges"
        );

        let row = Row {
            format: name.to_string(),
            edges,
            wal_bytes,
            snapshot_bytes,
            snapshot_load_ms,
            replay_ms,
            recover_ms: snapshot_load_ms + replay_ms,
            recovered_edges: recovered.edges_processed(),
            recovered_vertices: recovered.vertex_count() as u64,
        };
        let _ = fs::remove_dir_all(&dir);
        best = Some(match best.take() {
            Some(b) if b.recover_ms <= row.recover_ms => b,
            _ => row,
        });
    }
    best.expect("RUNS > 0")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let edges: u64 = match scale_from_args(&args) {
        datasets::Scale::Small => 50_000,
        datasets::Scale::Standard => 200_000,
        datasets::Scale::Large => 800_000,
    };
    let min_speedup: f64 = flag_value(&args, "--min-replay-speedup")
        .map(|s| s.parse().expect("--min-replay-speedup takes a number"))
        .unwrap_or(5.0);

    let mut writer = ResultWriter::new("codec");
    println!(
        "{:>6} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10}",
        "format", "edges", "wal_bytes", "snap_bytes", "load_ms", "replay_ms", "recover_ms"
    );
    let rows: Vec<Row> = [false, true]
        .into_iter()
        .map(|v3| run_format(v3, edges))
        .collect();
    for row in &rows {
        println!(
            "{:>6} {:>9} {:>11} {:>11} {:>10.2} {:>10.2} {:>10.2}",
            row.format,
            row.edges,
            row.wal_bytes,
            row.snapshot_bytes,
            row.snapshot_load_ms,
            row.replay_ms,
            row.recover_ms
        );
        writer.write_row(row);
    }

    let (v2, v3) = (&rows[0], &rows[1]);
    let speedup = v2.recover_ms / v3.recover_ms.max(1e-9);
    let wal_ratio = v3.wal_bytes as f64 / v2.wal_bytes.max(1) as f64;
    let snap_ratio = v3.snapshot_bytes as f64 / v2.snapshot_bytes.max(1) as f64;
    println!(
        "# recovery speedup {speedup:.1}x (gate >= {min_speedup:.1}x); v3/v2 bytes: \
         wal {wal_ratio:.2}, snapshot {snap_ratio:.2}"
    );
    writer.write_row(&serde_json::json!({
        "summary": true,
        "edges": edges,
        "recover_speedup": speedup,
        "wal_bytes_ratio": wal_ratio,
        "snapshot_bytes_ratio": snap_ratio,
    }));

    let mut failed = false;
    if v2.recovered_edges != v3.recovered_edges || v2.recovered_vertices != v3.recovered_vertices {
        eprintln!("FAIL: formats recovered different stores");
        failed = true;
    }
    if speedup < min_speedup {
        eprintln!("FAIL: recovery speedup {speedup:.1}x below the {min_speedup:.1}x gate");
        failed = true;
    }
    if v3.wal_bytes >= v2.wal_bytes || v3.snapshot_bytes >= v2.snapshot_bytes {
        eprintln!("FAIL: v3 artifacts are not smaller than v2");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

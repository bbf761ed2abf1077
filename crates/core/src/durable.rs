//! Crash recovery: last-known-good snapshot chain + journal tail replay.
//!
//! A data directory persists a serving store as two artifacts:
//!
//! * `snapshot.<seq>.json` — checksummed [`StoreSnapshot`] **generations**
//!   (binary v3, see [`StoreSnapshot::write_atomic`]; generations written
//!   by older versions in the text formats still load), one per
//!   checkpoint, newest-K retained. `<seq>` is the WAL sequence number
//!   the snapshot covers, so recovery knows where replay must resume
//!   *per generation*. A bare `snapshot.json`
//!   from the pre-chain format is still honored as the oldest fallback.
//! * `wal.<seq>.log` — journal segments holding every acked edge (see
//!   [`crate::journal`]), retained back to the **oldest** generation so
//!   any retained snapshot can still replay forward.
//!
//! [`recover`] rebuilds the store the crashed process promised its
//! clients: verify and load the newest snapshot generation, falling back
//! generation-by-generation past corrupt ones (each is quarantined and
//! counted in `snapshot.fallbacks_total`), then re-apply every journal
//! entry past the loaded generation's seq. Because journal appends happen
//! before acks and snapshots are written atomically, the recovered store
//! contains **every acked edge** short of media corruption — and media
//! corruption is never silent: corrupt WAL records are quarantined and
//! reported (see [`ReplayReport`]), corrupt snapshots are skipped and
//! counted.
//!
//! [`checkpoint`] is the other half of the contract: write the new
//! generation atomically *first*, then trim retention and prune journal
//! segments older than the oldest retained generation. If the process
//! dies between the steps, recovery merely replays entries the snapshot
//! already covers — [`crate::journal::replay`] skips them by sequence
//! number.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::chaos::FaultPlan;
use crate::config::SketchConfig;
use crate::journal::{self, Journal, ReplayReport};
use crate::snapshot::{self, StoreSnapshot};
use crate::store::SketchStore;

/// How many snapshot generations a checkpoint retains by default.
pub const DEFAULT_SNAPSHOT_KEEP: usize = 3;

/// The legacy (pre-generation) snapshot file inside a data directory.
#[must_use]
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

/// The snapshot generation covering WAL entries up to and including
/// `seq`.
#[must_use]
pub fn generation_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot.{seq}.json"))
}

/// Lists `(seq, path)` for every snapshot generation in `dir`, sorted by
/// seq ascending. The legacy `snapshot.json` is not a generation and is
/// not listed.
///
/// # Errors
/// Fails if the directory cannot be read; a missing directory lists as
/// empty.
pub fn list_generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut generations = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("snapshot.")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|seq| seq.parse::<u64>().ok())
        else {
            continue;
        };
        generations.push((seq, entry.path()));
    }
    generations.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(generations)
}

/// What [`recover`] rebuilt and from where.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered store, ready to serve.
    pub store: SketchStore,
    /// WAL seq covered by the snapshot that seeded recovery (0 when
    /// starting empty). Journal replay resumed after this seq.
    pub snapshot_seq: u64,
    /// Whether any snapshot (generation or legacy) was loaded.
    pub snapshot_loaded: bool,
    /// Corrupt snapshot generations skipped (and quarantined) on the way
    /// to the one that loaded.
    pub fallbacks: u64,
    /// Journal replay details (entries applied/skipped/quarantined, torn
    /// tail).
    pub journal: ReplayReport,
}

impl Recovery {
    /// The seq the next journal append should carry: one past everything
    /// this recovery has seen (snapshot watermark and replayed tail
    /// alike), so seqs never collide even when corrupt records were
    /// quarantined and the store's edge count runs behind the WAL.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.journal
            .last_seq
            .unwrap_or(0)
            .max(self.snapshot_seq)
            .saturating_add(1)
    }
}

/// Rebuilds the store from `dir`: best verified snapshot first, then the
/// journal tail.
///
/// Generations are tried newest-first; one that fails verification or
/// parsing is moved into `quarantine/` and counted, and the next older
/// one is tried — the last-known-good chain. If no generation loads, the
/// legacy `snapshot.json` is tried the same way; if nothing loads at
/// all, recovery starts from an empty store built with `config` and
/// relies on journal replay alone. When a snapshot loads, its embedded
/// config wins (the journal tail must be applied with the same hashers
/// that produced the snapshot).
///
/// # Errors
/// Fails on *environmental* IO errors (unreadable directory,
/// permissions). Corruption is not an error — it is skipped, quarantined,
/// and reported in the returned [`Recovery`].
pub fn recover(dir: &Path, config: SketchConfig) -> io::Result<Recovery> {
    let metrics = crate::metrics::global();
    let mut fallbacks = 0u64;
    let mut loaded: Option<(SketchStore, u64)> = None;

    let generations = list_generations(dir)?;
    for (seq, path) in generations.iter().rev() {
        match snapshot::load_store(path) {
            Ok(store) => {
                loaded = Some((store, *seq));
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                journal::quarantine_file(dir, path);
                fallbacks += 1;
                metrics.snapshot_fallbacks.incr();
            }
            Err(e) => return Err(e),
        }
    }
    if loaded.is_none() {
        // Pre-generation directories: a single unversioned snapshot.
        match snapshot::load_store(&snapshot_path(dir)) {
            Ok(store) => {
                let seq = store.edges_processed();
                loaded = Some((store, seq));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                journal::quarantine_file(dir, &snapshot_path(dir));
                fallbacks += 1;
                metrics.snapshot_fallbacks.incr();
            }
            Err(e) => return Err(e),
        }
    }

    let (mut store, snapshot_seq, snapshot_loaded) = match loaded {
        Some((store, seq)) => (store, seq, true),
        None => (SketchStore::new(config), 0, false),
    };
    let journal = journal::replay(dir, snapshot_seq, |entry| {
        store.insert_edge(entry.u, entry.v);
    })?;
    metrics
        .snapshot_generations_kept
        .set(list_generations(dir)?.len() as u64);
    Ok(Recovery {
        store,
        snapshot_seq,
        snapshot_loaded,
        fallbacks,
        journal,
    })
}

/// Persists `snapshot` as the generation covering WAL seqs up to and
/// including `wal_seq`, trims retention to the newest `keep` generations,
/// then prunes journal segments older than the **oldest retained**
/// generation (so every retained generation can still replay forward).
/// Returns the number of journal segments removed.
///
/// Order matters: the snapshot must be durable before any journal entry
/// covering the same edges is deleted. Callers capture `snapshot` and
/// rotate `journal` to `wal_seq + 1` under the store lock, then call this
/// without it (see [`commit_generation`] for the steps).
///
/// # Errors
/// Fails on IO errors — real or injected via the journal's
/// [`crate::chaos::FaultPlan`]. A failure after the snapshot write leaves
/// extra generations or journal segments behind, which is safe (replay
/// skips covered entries; retention re-trims next checkpoint).
pub fn checkpoint(
    snapshot: &StoreSnapshot,
    wal_seq: u64,
    dir: &Path,
    journal: &mut Journal,
    keep: usize,
) -> io::Result<usize> {
    let faults = journal.faults().cloned();
    observe_checkpoint(|| {
        commit_generation(snapshot, wal_seq, dir, keep, faults.as_deref(), |oldest| {
            journal.prune_below(oldest)
        })
    })
}

/// Runs one checkpoint attempt under the `checkpoint` op, which times
/// it into `checkpoint.latency_ns`, and counts it: `checkpoint.count`
/// on success, `checkpoint.failures` otherwise.
///
/// # Errors
/// Whatever `run` returns.
pub fn observe_checkpoint<T>(run: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    let metrics = crate::metrics::global();
    let _t = crate::trace::timed_op("checkpoint", &metrics.checkpoint_latency);
    let result = run();
    if result.is_ok() {
        metrics.checkpoints.incr();
    } else {
        metrics.checkpoint_failures.incr();
    }
    result
}

/// The tail every checkpoint shares once its snapshot is captured and
/// the journal rotated past `wal_seq`: write the generation atomically
/// (binary v3, after consulting `faults`), remove the legacy
/// `snapshot.json`, trim to the newest `keep` generations, publish the
/// `snapshot.generations_kept` gauge, and finally hand the oldest
/// retained seq to `prune_below`. Returns what `prune_below` returns.
///
/// The legacy `snapshot.json` is strictly older than the generation just
/// written; leaving it would let a future fallback resurrect
/// pre-pruning state as if it were current. No lock is needed here:
/// callers pass a `prune_below` that takes whatever lock guards their
/// journal.
///
/// # Errors
/// Fails on IO errors, real or injected.
pub fn commit_generation(
    snapshot: &StoreSnapshot,
    wal_seq: u64,
    dir: &Path,
    keep: usize,
    faults: Option<&FaultPlan>,
    prune_below: impl FnOnce(u64) -> io::Result<usize>,
) -> io::Result<usize> {
    if let Some(plan) = faults {
        plan.next_snapshot()?;
    }
    snapshot.write_atomic(&generation_path(dir, wal_seq))?;
    match fs::remove_file(snapshot_path(dir)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut generations = list_generations(dir)?;
    let keep = keep.max(1);
    while generations.len() > keep {
        let (_, path) = generations.remove(0);
        fs::remove_file(&path)?;
    }
    crate::metrics::global()
        .snapshot_generations_kept
        .set(generations.len() as u64);
    let oldest_retained = generations.first().map_or(wal_seq, |(seq, _)| *seq);
    prune_below(oldest_retained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{self, FaultPlan};
    use crate::journal::{FsyncPolicy, JournalEntry, QUARANTINE_DIR};
    use graphstream::{BarabasiAlbert, EdgeStream, VertexId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "streamlink-durable-{}-{tag}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(32).seed(9)
    }

    /// Simulates a serving process: journal-then-apply for each edge,
    /// seq taken from the journal (not the store count).
    fn ingest(store: &mut SketchStore, journal: &mut Journal, u: u64, v: u64) {
        let seq = journal.next_seq();
        journal
            .append(JournalEntry {
                seq,
                u: VertexId(u),
                v: VertexId(v),
            })
            .unwrap();
        store.insert_edge(VertexId(u), VertexId(v));
    }

    /// The serving checkpoint protocol: capture + rotate (under the store
    /// lock in real serving), then write + trim + prune.
    fn run_checkpoint(store: &SketchStore, dir: &Path, journal: &mut Journal, keep: usize) {
        let snap = StoreSnapshot::capture(store);
        let wal_seq = journal.next_seq() - 1;
        journal.rotate(wal_seq + 1).unwrap();
        checkpoint(&snap, wal_seq, dir, journal, keep).unwrap();
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = temp_dir("fresh");
        let rec = recover(&dir, cfg()).unwrap();
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, 0);
        assert_eq!(rec.fallbacks, 0);
        assert_eq!(rec.store.edges_processed(), 0);
        assert_eq!(rec.journal, ReplayReport::default());
        assert_eq!(rec.next_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_only_recovery_matches_direct_ingestion() {
        let dir = temp_dir("walonly");
        let edges: Vec<_> = BarabasiAlbert::new(80, 2, 3).edges().collect();

        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::OnRotate).unwrap();
        for e in &edges {
            ingest(&mut store, &mut journal, e.src.0, e.dst.0);
        }
        drop(journal); // crash: no snapshot ever written

        let rec = recover(&dir, cfg()).unwrap();
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.journal.replayed, edges.len() as u64);
        assert_eq!(rec.store.edges_processed(), store.edges_processed());
        for v in store.vertices() {
            assert_eq!(rec.store.sketch(v), store.sketch(v), "sketch at {v}");
            assert_eq!(rec.store.degree(v), store.degree(v));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let dir = temp_dir("snaptail");
        let edges: Vec<_> = BarabasiAlbert::new(120, 2, 4).edges().collect();
        let cut = edges.len() / 2;

        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::OnRotate).unwrap();
        for e in &edges[..cut] {
            ingest(&mut store, &mut journal, e.src.0, e.dst.0);
        }
        run_checkpoint(&store, &dir, &mut journal, DEFAULT_SNAPSHOT_KEEP);
        for e in &edges[cut..] {
            ingest(&mut store, &mut journal, e.src.0, e.dst.0);
        }
        drop(journal); // crash after more ingestion

        let (_, generation) = list_generations(&dir).unwrap().pop().unwrap();
        assert!(crate::codec::is_binary(&fs::read(generation).unwrap()));
        let rec = recover(&dir, cfg()).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, cut as u64);
        assert_eq!(rec.journal.replayed, (edges.len() - cut) as u64);
        assert_eq!(rec.store.edges_processed(), edges.len() as u64);
        assert_eq!(rec.next_seq(), edges.len() as u64 + 1);
        for v in store.vertices() {
            assert_eq!(rec.store.sketch(v), store.sketch(v), "sketch at {v}");
            assert_eq!(rec.store.degree(v), store.degree(v));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_prune_is_harmless() {
        let dir = temp_dir("nopurge");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for i in 0..10 {
            ingest(&mut store, &mut journal, i, i + 100);
        }
        let snap = StoreSnapshot::capture(&store);
        journal.rotate(11).unwrap();
        // Snapshot written but trim/prune never ran (crash in between):
        // the old segment's entries are all covered by the snapshot.
        snap.write_atomic(&generation_path(&dir, 10)).unwrap();
        drop(journal);

        let rec = recover(&dir, cfg()).unwrap();
        assert_eq!(rec.journal.replayed, 0);
        assert_eq!(rec.journal.skipped, 10);
        assert_eq!(rec.store.edges_processed(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_config_wins_over_caller_config() {
        let dir = temp_dir("cfgwins");
        let mut store = SketchStore::new(cfg());
        store.insert_edge(VertexId(1), VertexId(2));
        StoreSnapshot::capture(&store)
            .write_atomic(&generation_path(&dir, 1))
            .unwrap();

        let other = SketchConfig::with_slots(64).seed(123);
        let rec = recover(&dir, other).unwrap();
        assert_eq!(rec.store.config().slots(), cfg().slots());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_older_one() {
        let dir = temp_dir("fallback");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for i in 0..6 {
            ingest(&mut store, &mut journal, i, i + 100);
        }
        run_checkpoint(&store, &dir, &mut journal, 3);
        for i in 6..10 {
            ingest(&mut store, &mut journal, i, i + 100);
        }
        run_checkpoint(&store, &dir, &mut journal, 3);
        drop(journal);

        // Rot the newest generation mid-payload.
        chaos::flip_bit(&generation_path(&dir, 10), 60, 3).unwrap();

        let rec = recover(&dir, cfg()).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.fallbacks, 1, "one generation skipped");
        assert_eq!(rec.snapshot_seq, 6, "older generation seeded recovery");
        // WAL back to the oldest retained generation is intact, so the
        // fallback replays the tail and nothing is lost.
        assert_eq!(rec.journal.replayed, 4);
        assert_eq!(rec.store.edges_processed(), 10);
        for v in store.vertices() {
            assert_eq!(rec.store.sketch(v), store.sketch(v), "sketch at {v}");
        }
        // The corrupt generation was quarantined, not left to fail again.
        assert!(!generation_path(&dir, 10).exists());
        assert!(dir.join(QUARANTINE_DIR).join("snapshot.10.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_generations_corrupt_falls_back_to_journal_replay() {
        // The old behavior was a hard error; self-healing recovery keeps
        // every acked edge by replaying the full WAL instead.
        let dir = temp_dir("allcorrupt");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for i in 0..8 {
            ingest(&mut store, &mut journal, i, i + 100);
        }
        let snap = StoreSnapshot::capture(&store);
        journal.rotate(9).unwrap();
        snap.write_atomic(&generation_path(&dir, 8)).unwrap();
        // No prune ran, so the WAL still holds seqs 1..=8.
        drop(journal);
        fs::write(generation_path(&dir, 8), b"{ not a snapshot").unwrap();

        let rec = recover(&dir, cfg()).unwrap();
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.fallbacks, 1);
        assert_eq!(rec.journal.replayed, 8);
        assert_eq!(rec.store.edges_processed(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_legacy_snapshot_is_quarantined_not_fatal() {
        let dir = temp_dir("legacycorrupt");
        fs::write(snapshot_path(&dir), b"{ not json").unwrap();
        let rec = recover(&dir, cfg()).unwrap();
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.fallbacks, 1);
        assert!(!snapshot_path(&dir).exists());
        assert!(dir.join(QUARANTINE_DIR).join("snapshot.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_data_directory_loads_unmodified() {
        // A directory written entirely by the pre-CRC format: bare-JSON
        // snapshot.json plus v1 `E` journal lines.
        let dir = temp_dir("v1dir");
        let mut store = SketchStore::new(cfg());
        for i in 0..5 {
            store.insert_edge(VertexId(i), VertexId(i + 10));
        }
        let snap = StoreSnapshot::capture(&store);
        fs::write(
            snapshot_path(&dir),
            crate::codec::v2::legacy_store_snapshot(&snap),
        )
        .unwrap();
        fs::write(dir.join("wal.6.log"), "E 6 5 15\nE 7 6 16\n").unwrap();

        let rec = recover(&dir, cfg()).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, 5);
        assert_eq!(rec.fallbacks, 0);
        assert_eq!(rec.journal.replayed, 2);
        assert_eq!(rec.store.edges_processed(), 7);
        assert_eq!(rec.next_seq(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_k_generations_and_their_wal() {
        let dir = temp_dir("retain");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        let mut next = 0;
        for round in 1..=4u64 {
            for _ in 0..3 {
                ingest(&mut store, &mut journal, next, next + 1000);
                next += 1;
            }
            run_checkpoint(&store, &dir, &mut journal, 2);
            let gens = list_generations(&dir).unwrap();
            assert!(gens.len() <= 2, "round {round}: {gens:?}");
        }
        let gens = list_generations(&dir).unwrap();
        assert_eq!(
            gens.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![9, 12],
            "newest two generations retained"
        );
        // WAL must still cover the oldest retained generation's tail:
        // falling back to gen 9 needs seqs 10.. available.
        drop(journal);
        fs::remove_file(generation_path(&dir, 12)).unwrap();
        let rec = recover(&dir, cfg()).unwrap();
        assert_eq!(rec.snapshot_seq, 9);
        assert_eq!(rec.journal.replayed, 3);
        assert_eq!(rec.store.edges_processed(), 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_removes_legacy_snapshot_file() {
        let dir = temp_dir("legacygone");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        ingest(&mut store, &mut journal, 1, 2);
        fs::write(snapshot_path(&dir), b"{}").unwrap();
        run_checkpoint(&store, &dir, &mut journal, 2);
        assert!(
            !snapshot_path(&dir).exists(),
            "legacy file must not survive a generation checkpoint"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_snapshot_fault_fails_checkpoint_then_heals() {
        let dir = temp_dir("snapfault");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_snapshot(0);
        let mut store = SketchStore::new(cfg());
        let mut journal =
            Journal::create_with_faults(&dir, 1, FsyncPolicy::Never, Some(plan)).unwrap();
        for i in 0..4 {
            ingest(&mut store, &mut journal, i, i + 10);
        }
        let snap = StoreSnapshot::capture(&store);
        let wal_seq = journal.next_seq() - 1;
        journal.rotate(wal_seq + 1).unwrap();
        let err = checkpoint(&snap, wal_seq, &dir, &mut journal, 2).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!generation_path(&dir, 4).exists(), "nothing written");

        // One-shot: the next checkpoint succeeds, and recovery is whole.
        checkpoint(&snap, wal_seq, &dir, &mut journal, 2).unwrap();
        drop(journal);
        let rec = recover(&dir, cfg()).unwrap();
        assert_eq!(rec.store.edges_processed(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_wal_record_shifts_next_seq_past_the_gap() {
        // After a mid-file record is lost, edges_processed < wal seq; the
        // next seq must come from the WAL watermark, never the count —
        // otherwise new appends collide with existing seqs and replay
        // skipping silently drops them. (A v2 text segment, as a pre-v3
        // server left it.)
        let dir = temp_dir("seqgap");
        let entries: Vec<JournalEntry> = (1..=5u64)
            .map(|seq| JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(seq + 100),
            })
            .collect();
        let text = String::from_utf8(crate::codec::v2::wal_segment(&entries)).unwrap();
        fs::write(
            journal::segment_path(&dir, 1),
            text.replacen("F 3", "F 9", 1),
        )
        .unwrap();

        let rec = recover(&dir, cfg()).unwrap();
        assert_eq!(rec.journal.quarantined, 1);
        assert_eq!(rec.store.edges_processed(), 4, "one record lost to rot");
        assert_eq!(rec.journal.last_seq, Some(5));
        assert_eq!(rec.next_seq(), 6, "must not reuse seq 5");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_recovers_acked_prefix() {
        let dir = temp_dir("torn");
        let mut store = SketchStore::new(cfg());
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for i in 0..5 {
            ingest(&mut store, &mut journal, i, i + 50);
        }
        drop(journal);
        // Crash mid-append of entry 6 (never acked).
        let (_, path) = &journal::list_segments(&dir).unwrap()[0];
        chaos::append_garbage(path, b"F 6 5").unwrap();

        let rec = recover(&dir, cfg()).unwrap();
        assert!(rec.journal.torn_tail);
        assert_eq!(rec.journal.quarantined, 0);
        assert_eq!(rec.store.edges_processed(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }
}

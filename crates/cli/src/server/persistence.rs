//! The serving side of durability: open a data directory, keep the
//! journal, run the background checkpointer.
//!
//! The crash-safety protocol itself lives in `streamlink-core`
//! ([`streamlink_core::journal`], [`streamlink_core::durable`]); this
//! module wires it to the live server:
//!
//! * [`open`] recovers the store (best snapshot generation + journal
//!   tail, falling back past corrupt generations) and opens a fresh
//!   journal segment at the recovered WAL high-water mark — *not* the
//!   store's edge count, which runs behind after corrupt records were
//!   quarantined.
//! * [`checkpoint_now`] captures a snapshot and rotates the journal
//!   under the locks, then writes a new generation, trims retention, and
//!   prunes with no store lock held, so ingestion stalls only for the
//!   in-memory capture.
//! * `checkpoint_loop` runs `checkpoint_now` whenever the journal lag
//!   passes the configured edge budget or the time interval elapses.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use streamlink_core::chaos::FaultPlan;
use streamlink_core::durable::{self, Recovery};
use streamlink_core::journal::{FsyncPolicy, Journal};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::WireFormat;

use super::ServerState;

/// A live data directory: its path plus the journal accepting new
/// appends. Sits behind a `Mutex` inside [`ServerState`].
#[derive(Debug)]
pub struct Persist {
    pub(super) dir: PathBuf,
    pub(super) journal: Journal,
}

/// Recovers the store from `dir` (moving it out via
/// [`Recovery::store`]) and opens a journal segment for the edges this
/// process will ack. Recovery reads and new records are binary v3 only;
/// a file a pre-v3 build wrote stops recovery with an error naming it.
/// Returns the recovery report so the caller can log what was rebuilt
/// (fallbacks taken, records quarantined).
///
/// `faults` installs a scripted [`FaultPlan`] on the journal, so tests
/// can make exact appends/fsyncs/snapshot-writes of a *live* server
/// fail; production callers pass `None`.
///
/// # Errors
/// Fails on environmental IO errors (unreadable directory, journal
/// creation) and on a pre-v3 file. Corruption is not fatal: recovery
/// falls back and quarantines (see [`streamlink_core::recover`]). A
/// missing/empty directory is not an error (fresh start).
pub fn open_with_faults(
    dir: &Path,
    config: streamlink_core::SketchConfig,
    fsync: FsyncPolicy,
    faults: Option<Arc<FaultPlan>>,
) -> io::Result<(Persist, Recovery)> {
    fs::create_dir_all(dir)?;
    let recovery = durable::recover(dir, config)?;
    let journal = Journal::create_with_faults(dir, recovery.next_seq(), fsync, faults)?;
    Ok((
        Persist {
            dir: dir.to_path_buf(),
            journal,
        },
        recovery,
    ))
}

/// [`open_with_faults`] without faults, under the signature the
/// `perfbench` harness calls; `WireFormat` has one value.
///
/// # Errors
/// As [`open_with_faults`].
pub fn open(
    dir: &Path,
    config: streamlink_core::SketchConfig,
    fsync: FsyncPolicy,
    _format: WireFormat,
) -> io::Result<(Persist, Recovery)> {
    open_with_faults(dir, config, fsync, None)
}

/// What one checkpoint accomplished.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// WAL seq the new snapshot generation covers.
    pub snapshot_seq: u64,
    /// Journal segments the retained generations made deletable.
    pub segments_pruned: usize,
}

/// Takes one checkpoint: capture + journal rotation under the locks
/// (brief), then — without the store lock — the shared
/// [`durable::commit_generation`] tail: atomic generation write,
/// retention trim to `snapshot_keep`, and a journal prune back to the
/// oldest retained generation (so every retained generation can still
/// replay forward; see [`streamlink_core::checkpoint`] for the ordering
/// argument).
///
/// Safe against a crash at any point: the snapshot write is atomic, and
/// trimming/pruning only run after it returns.
///
/// # Errors
/// Fails on IO errors — real or injected via the journal's
/// [`FaultPlan`]; the journal still holds every acked edge, so a failed
/// checkpoint costs nothing but disk space.
pub fn checkpoint_now(state: &ServerState) -> io::Result<CheckpointReport> {
    let Some(persist) = state.persist.as_ref() else {
        return Ok(CheckpointReport {
            snapshot_seq: 0,
            segments_pruned: 0,
        });
    };
    fn lock(p: &std::sync::Mutex<Persist>) -> std::sync::MutexGuard<'_, Persist> {
        p.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    durable::observe_checkpoint(|| {
        let (snapshot, wal_seq, dir, faults) = {
            let store = state.read_store();
            let mut persist = lock(persist);
            let snapshot = StoreSnapshot::capture(&store);
            let wal_seq = persist.journal.next_seq() - 1;
            persist.journal.rotate(wal_seq + 1)?;
            (
                snapshot,
                wal_seq,
                persist.dir.clone(),
                persist.journal.faults().cloned(),
            )
        };
        let segments_pruned = durable::commit_generation(
            &snapshot,
            wal_seq,
            &dir,
            state.config().snapshot_keep,
            faults.as_deref(),
            |oldest| lock(persist).journal.prune_below(oldest),
        )?;
        state.set_last_snapshot_seq(wal_seq);
        Ok(CheckpointReport {
            snapshot_seq: wal_seq,
            segments_pruned,
        })
    })
}

/// Makes the live store the data directory's whole history: writes it
/// as the generation at `seq`, deletes every other generation, restarts
/// the journal empty at `seq + 1`, and settles an install that
/// [`replica_resume`] recorded as owed.
///
/// For a node that installed a primary snapshot: a plain checkpoint is
/// not enough, since a dead generation at a higher seq would win
/// recovery and dead journal records above `seq` would replay on top of
/// the installed store.
///
/// # Errors
/// Fails on IO errors. A failure before the generation write leaves the
/// old history in place; one after it leaves some dead files behind.
pub(super) fn reset_to_store(state: &ServerState, seq: u64) -> io::Result<()> {
    let Some(persist) = state.persist.as_ref() else {
        return Ok(());
    };
    let store = state.read_store();
    let mut persist = persist
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    StoreSnapshot::capture(&store).write_atomic(&durable::generation_path(&persist.dir, seq))?;
    for (generation, path) in durable::list_generations(&persist.dir)? {
        if generation != seq {
            fs::remove_file(path)?;
        }
    }
    persist.journal.discard_history(seq + 1)?;
    match fs::remove_file(persist.dir.join(INSTALL_DUE)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    // Persist the deletions (best effort, as for the generation's own
    // rename): a crash must not bring dead files back.
    if let Ok(dir) = fs::File::open(&persist.dir) {
        let _ = dir.sync_all();
    }
    state.set_last_snapshot_seq(seq);
    Ok(())
}

/// The marker a durable replica keeps in its data directory while it owes
/// a wholesale install of the primary's snapshot.
const INSTALL_DUE: &str = "install.due";

/// Where a durable replica resumes after `recovery` rebuilt its store
/// from `dir`: the local WAL high-water mark, and whether it must first
/// install the primary's snapshot wholesale.
///
/// It must when recovery healed around damage: a skipped generation or
/// a quarantined record leaves the store without a seq below that mark,
/// and pulling on from the mark would never bring it back. The debt is
/// recorded in `dir` until [`reset_to_store`] settles it, since a
/// checkpoint before the install bakes the hole into a generation that
/// recovers cleanly.
///
/// # Errors
/// Fails if the marker cannot be written.
pub(crate) fn replica_resume(dir: &Path, recovery: &Recovery) -> io::Result<(u64, bool)> {
    let marker = dir.join(INSTALL_DUE);
    if recovery.fallbacks > 0 || recovery.journal.quarantined > 0 {
        fs::File::create(&marker)?.sync_all()?;
        fs::File::open(dir)?.sync_all()?;
    }
    Ok((recovery.next_seq().saturating_sub(1), marker.exists()))
}

/// The checkpointer thread body: poll until shutdown, checkpointing
/// when the journal lag hits the edge budget or the interval elapses
/// with anything to persist. The final shutdown checkpoint is the
/// lifecycle's job ([`super::serve`]), not this loop's.
pub(super) fn checkpoint_loop(state: &ServerState) {
    let interval = state.config().snapshot_every;
    let edge_budget = state.config().snapshot_every_edges.max(1);
    let mut last_attempt = Instant::now();
    while !state.shutdown_requested() {
        thread::sleep(Duration::from_millis(25));
        let lag = state.journal_lag();
        let due = lag >= edge_budget || (lag > 0 && last_attempt.elapsed() >= interval);
        if !due {
            continue;
        }
        last_attempt = Instant::now();
        match checkpoint_now(state) {
            Ok(report) => eprintln!(
                "checkpoint: snapshot at seq {} ({} segment(s) pruned)",
                report.snapshot_seq, report.segments_pruned
            ),
            // Non-fatal: the journal still holds everything acked.
            Err(e) => eprintln!("checkpoint failed (will retry): {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use graphstream::VertexId;
    use streamlink_core::journal::{self, JournalEntry};
    use streamlink_core::{codec, SketchConfig};

    /// Recovers `dir` into a durable server state; also returns the
    /// snapshot seq recovery started from and the records it quarantined.
    fn open_state(dir: &Path) -> (ServerState, u64, u64) {
        let (persist, recovery) = open_with_faults(
            dir,
            SketchConfig::with_slots(16).seed(5),
            FsyncPolicy::Never,
            None,
        )
        .unwrap();
        let snapshot_seq = recovery.snapshot_seq;
        let state = ServerState::with_persistence(
            recovery.store,
            persist,
            snapshot_seq,
            ServerConfig::default(),
        );
        (state, snapshot_seq, recovery.journal.quarantined)
    }

    #[test]
    fn journal_lag_counts_seqs_after_quarantine() {
        let dir = std::env::temp_dir().join(format!("streamlink-lag-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let entries: Vec<JournalEntry> = (1..=10)
            .map(|seq| JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(100 + seq),
            })
            .collect();
        let mut journal = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for &entry in &entries {
            journal.append(entry).unwrap();
        }
        drop(journal);
        // Flip a body bit of record 3 (every record here is the same
        // length): its CRC no longer verifies, so replay quarantines it
        // and applies the other nine.
        let record = codec::encode_wal_entry(&entries[0]).len();
        let segment = journal::segment_path(&dir, 1);
        streamlink_core::chaos::flip_bit(&segment, (2 * record + 7) as u64, 0).unwrap();

        let (state, _, quarantined) = open_state(&dir);
        assert_eq!(quarantined, 1);
        assert_eq!(state.read_store().edges_processed(), 9);
        assert_eq!(state.journal_lag(), 10, "seqs 1..=10 are uncovered");
        let report = checkpoint_now(&state).unwrap();
        assert_eq!(report.snapshot_seq, 10);
        assert_eq!(state.journal_lag(), 0);
        drop(state);

        // Restart from the generation at seq 10, whose store holds nine
        // edges, then ack three more: the edge count (12) and the
        // snapshot seq (10) diverge, the lag must not.
        let (state, snapshot_seq, _) = open_state(&dir);
        assert_eq!(snapshot_seq, 10);
        assert_eq!(state.journal_lag(), 0);
        for w in 0..3 {
            state.insert_edge(VertexId(1), VertexId(200 + w)).unwrap();
        }
        assert_eq!(state.read_store().edges_processed(), 12);
        assert_eq!(state.journal_lag(), 3);
        drop(state);
        fs::remove_dir_all(&dir).unwrap();
    }
}

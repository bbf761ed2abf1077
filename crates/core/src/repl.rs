//! Replication primitives: seq-deduplicated apply and the primary's
//! bounded ship buffer.
//!
//! A primary ships its CRC-framed WAL entries (`F <seq> <u> <v> <crc>`)
//! to read replicas over the wire. Two facts shape everything here:
//!
//! * **Slots are idempotent, degrees are not.** Re-merging a sketch slot
//!   is free (min-register); re-applying an edge double-counts the
//!   degree counters and the edge count. So a replica must apply each
//!   primary seq **at most once**.
//! * **A replica catches up one way.** It asks for the entries after its
//!   applied seq, and the primary answers with a contiguous run of them
//!   or with "resync". A replica that falls off the stream installs a
//!   primary snapshot wholesale; two states of one stream are never
//!   merged.
//!
//! [`ReplicaApplier`] enforces at-most-once by monotone-seq gating: an
//! entry is applied iff its seq is strictly greater than the high-water
//! mark, so a repeated or stale entry can never double-count. A seq the
//! stream skips is a *burned* seq (an append that failed on the primary
//! and was never acked or applied there), so the replica's state after
//! seq `n` is exactly the primary's after seq `n`.
//!
//! [`ReplLog`] is the primary side: a bounded in-memory ring of recent
//! entries served to pulling replicas. A replica that falls behind the
//! ring's tail is told to resync from a snapshot instead of stalling
//! ingest — the buffer is bounded, never the write path.

use std::collections::VecDeque;

use crate::journal::JournalEntry;
use crate::store::SketchStore;

/// What [`ReplicaApplier::offer`] did with one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The entry advanced the high-water mark and was applied.
    Applied,
    /// The entry's seq was already covered (a repeated or stale seq):
    /// dropped without touching the store.
    Deduped,
}

/// Seq-deduplicated apply gate for a replica.
///
/// Tracks the highest primary seq applied; [`offer`](Self::offer)
/// applies an entry iff it advances that mark, so no seq is ever
/// applied twice, whatever the link delivers. A skipped seq is a burned
/// one (see the module docs). What it applies and drops is counted by
/// the caller, in the `repl.entries_*` metrics.
#[derive(Debug, Clone)]
pub struct ReplicaApplier {
    applied_seq: u64,
}

impl ReplicaApplier {
    /// An applier whose high-water mark is `applied_seq` (0 for a fresh
    /// replica: every real WAL seq is ≥ 1).
    #[must_use]
    pub fn new(applied_seq: u64) -> Self {
        ReplicaApplier { applied_seq }
    }

    /// Applies `entry` to `store` iff its seq advances the high-water
    /// mark; a repeated or stale seq is dropped.
    pub fn offer(&mut self, store: &mut SketchStore, entry: JournalEntry) -> ApplyOutcome {
        if entry.seq <= self.applied_seq {
            return ApplyOutcome::Deduped;
        }
        self.applied_seq = entry.seq;
        store.insert_edge(entry.u, entry.v);
        ApplyOutcome::Applied
    }

    /// Resets the high-water mark to `seq` unconditionally — used when
    /// the replica replaces its store with a snapshot taken at `seq`
    /// (a resync, or a primary that restarted with a lower seq space).
    pub fn reset_to(&mut self, seq: u64) {
        self.applied_seq = seq;
    }

    /// Highest primary seq reflected in the store.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }
}

/// The primary's bounded ship buffer: a ring of the most recent WAL
/// entries, pulled by replicas.
///
/// Bounded so slow or stuck replicas can never stall ingest: when the
/// ring is full the oldest entry is shed, and a replica asking for a seq
/// the ring no longer holds gets [`PullOutcome::ResyncRequired`] —
/// it must resync from a snapshot (or the on-disk WAL) instead.
#[derive(Debug)]
pub struct ReplLog {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
    /// Highest seq ever recorded (survives shedding and clears).
    last_seq: u64,
}

/// What [`ReplLog::entries_after`] can serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullOutcome {
    /// Entries with seq > the requested mark, oldest first (empty when
    /// the caller is already caught up).
    Entries(Vec<JournalEntry>),
    /// The ring has shed (or never held) part of the requested range;
    /// the caller must resync from a snapshot.
    ResyncRequired,
}

impl ReplLog {
    /// An empty ring holding at most `capacity` entries, whose seq
    /// high-water mark starts at `last_seq` (the primary's current WAL
    /// position; 0 for a fresh store).
    #[must_use]
    pub fn new(capacity: usize, last_seq: u64) -> Self {
        ReplLog {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            last_seq,
        }
    }

    /// Records one shipped entry. Non-contiguous seqs (a burned seq
    /// after a failed append, a rotation gap) clear the ring — replicas
    /// behind the discontinuity resync from a snapshot, which is always
    /// safe.
    pub fn record(&mut self, entry: JournalEntry) {
        if entry.seq != self.last_seq + 1 {
            self.entries.clear();
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.last_seq = self.last_seq.max(entry.seq);
        self.entries.push_back(entry);
    }

    /// Assigns the next seq and records the edge — the seq authority for
    /// primaries running without a durable journal.
    pub fn assign_and_record(&mut self, u: graphstream::VertexId, v: graphstream::VertexId) -> u64 {
        let seq = self.last_seq + 1;
        self.record(JournalEntry { seq, u, v });
        seq
    }

    /// Highest seq ever recorded.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Seq of the oldest entry still buffered, if any.
    #[must_use]
    pub fn first_buffered(&self) -> Option<u64> {
        self.entries.front().map(|e| e.seq)
    }

    /// Number of entries currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.entries.len()
    }

    /// Up to `max` entries with seq > `after_seq`, oldest first.
    ///
    /// Returns [`PullOutcome::ResyncRequired`] when the range
    /// `(after_seq, last_seq]` is non-empty but its start has been shed
    /// from the ring.
    #[must_use]
    pub fn entries_after(&self, after_seq: u64, max: usize) -> PullOutcome {
        if after_seq >= self.last_seq {
            return PullOutcome::Entries(Vec::new());
        }
        match self.first_buffered() {
            Some(first) if first <= after_seq + 1 => {
                let out: Vec<JournalEntry> = self
                    .entries
                    .iter()
                    .filter(|e| e.seq > after_seq)
                    .take(max)
                    .copied()
                    .collect();
                PullOutcome::Entries(out)
            }
            // Ring empty or its tail already shed past the request.
            _ => PullOutcome::ResyncRequired,
        }
    }

    /// Approximate heap footprint of the ring (for `mem.*` accounting).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<JournalEntry>()
    }

    /// Re-seats the ring at a new WAL position, dropping everything
    /// buffered. Used at failover promotion: a replica that becomes
    /// primary starts shipping from its applied seq, and any entries an
    /// earlier role buffered belong to a dead timeline.
    pub fn reset(&mut self, last_seq: u64) {
        self.entries.clear();
        self.last_seq = last_seq;
    }
}

/// Compares a replica's state against the primary's, byte for byte.
///
/// Returns `None` when every per-vertex sketch slot, every degree
/// counter, and the edge count match exactly; otherwise a human-readable
/// description of the first divergence found. This is the E23 chaos
/// convergence invariant.
#[must_use]
pub fn divergence(primary: &SketchStore, replica: &SketchStore) -> Option<String> {
    if primary.edges_processed() != replica.edges_processed() {
        return Some(format!(
            "edges_processed: primary={} replica={}",
            primary.edges_processed(),
            replica.edges_processed()
        ));
    }
    if primary.vertex_count() != replica.vertex_count() {
        return Some(format!(
            "vertex_count: primary={} replica={}",
            primary.vertex_count(),
            replica.vertex_count()
        ));
    }
    for v in primary.vertices() {
        if primary.degree(v) != replica.degree(v) {
            return Some(format!(
                "degree({v}): primary={} replica={}",
                primary.degree(v),
                replica.degree(v)
            ));
        }
        if primary.sketch(v) != replica.sketch(v) {
            return Some(format!("sketch({v}): slot contents differ"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use graphstream::VertexId;

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(32).seed(11)
    }

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            u: VertexId(seq % 7),
            v: VertexId(seq % 5 + 7),
        }
    }

    #[test]
    fn applier_applies_each_seq_at_most_once() {
        let mut store = SketchStore::new(cfg());
        let mut applier = ReplicaApplier::new(0);
        assert_eq!(applier.offer(&mut store, entry(1)), ApplyOutcome::Applied);
        assert_eq!(applier.offer(&mut store, entry(2)), ApplyOutcome::Applied);
        // A repeated and a stale seq both dedupe.
        assert_eq!(applier.offer(&mut store, entry(2)), ApplyOutcome::Deduped);
        assert_eq!(applier.offer(&mut store, entry(1)), ApplyOutcome::Deduped);
        assert_eq!(store.edges_processed(), 2);
        assert_eq!(applier.applied_seq(), 2);
        // reset_to moves the mark both ways.
        applier.reset_to(10);
        assert_eq!(applier.applied_seq(), 10);
        applier.reset_to(4);
        assert_eq!(applier.applied_seq(), 4);
    }

    #[test]
    fn applier_skips_burned_seqs_and_dedupes_stale_ones() {
        let mut store = SketchStore::new(cfg());
        let mut applier = ReplicaApplier::new(0);
        applier.offer(&mut store, entry(1));
        applier.offer(&mut store, entry(5)); // 2,3,4 burned
        assert_eq!(applier.applied_seq(), 5);
        // A stale seq below the mark is deduped, never applied.
        assert_eq!(applier.offer(&mut store, entry(3)), ApplyOutcome::Deduped);
        assert_eq!(store.edges_processed(), 2);
    }

    #[test]
    fn repl_log_serves_contiguous_tail_and_requires_resync_past_shed() {
        let mut log = ReplLog::new(4, 0);
        for seq in 1..=6 {
            log.record(entry(seq));
        }
        // Capacity 4: seqs 1 and 2 were shed.
        assert_eq!(log.first_buffered(), Some(3));
        assert_eq!(log.last_seq(), 6);
        match log.entries_after(3, 100) {
            PullOutcome::Entries(v) => {
                assert_eq!(v.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
            }
            PullOutcome::ResyncRequired => panic!("contiguous tail must be served"),
        }
        // Caught up: empty, not resync.
        assert_eq!(log.entries_after(6, 100), PullOutcome::Entries(Vec::new()));
        assert_eq!(log.entries_after(99, 100), PullOutcome::Entries(Vec::new()));
        // Behind the shed point: resync.
        assert_eq!(log.entries_after(1, 100), PullOutcome::ResyncRequired);
        // Batch limit respected.
        match log.entries_after(2, 2) {
            PullOutcome::Entries(v) => {
                assert_eq!(v.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
            }
            PullOutcome::ResyncRequired => panic!("start of range is buffered"),
        }
    }

    #[test]
    fn repl_log_discontinuity_clears_ring_but_keeps_high_water() {
        let mut log = ReplLog::new(16, 0);
        log.record(entry(1));
        log.record(entry(2));
        // Seq 3 burned by a failed append; 4 lands next.
        log.record(entry(4));
        assert_eq!(log.last_seq(), 4);
        assert_eq!(log.first_buffered(), Some(4));
        assert_eq!(log.entries_after(1, 10), PullOutcome::ResyncRequired);
        match log.entries_after(3, 10) {
            PullOutcome::Entries(v) => assert_eq!(v.len(), 1),
            PullOutcome::ResyncRequired => panic!("post-gap tail must be served"),
        }
    }

    #[test]
    fn repl_log_assigns_seqs_for_memoryless_primaries() {
        let mut log = ReplLog::new(8, 0);
        assert_eq!(log.assign_and_record(VertexId(1), VertexId(2)), 1);
        assert_eq!(log.assign_and_record(VertexId(2), VertexId(3)), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.buffered(), 2);
        assert!(log.memory_bytes() > 0);
    }
}

//! Append-only edge journal (write-ahead log) for crash-safe ingestion.
//!
//! The serving layer appends every accepted edge here *before*
//! acknowledging it to the client, so an acked edge survives a crash even
//! if it is not yet in any snapshot. Recovery loads the best snapshot
//! generation and replays the journal tail (see [`crate::durable`]).
//!
//! ## Layout
//!
//! A journal is a directory of segment files named `wal.<first_seq>.log`,
//! where `first_seq` is the sequence number of the first entry the
//! segment may contain. Each appended entry is one binary v3 envelope
//! record (see [`crate::codec`]) carrying its own CRC-32
//! ([`hashkit::crc32()`]).
//!
//! Segments written before v3 hold text lines, which replay still reads.
//! The v2 framing carries a per-record CRC over the payload:
//!
//! ```text
//! F <seq> <u> <v> <crc32-lower-hex-8>\n
//! ```
//!
//! Pre-CRC (v1) records — `E <seq> <u> <v>\n` — are parsed but cannot be
//! *verified*. [`scan_segment`] sniffs each record's framing from its
//! first bytes, so segments of any format — even interleaved in one
//! directory across a migration — replay through the same
//! classification logic.
//!
//! `seq` is a monotone log sequence number. In an uncorrupted directory
//! it equals the store's `edges_processed` after applying the edge; after
//! a corruption event has quarantined records the two may diverge, which
//! is why recovery resumes from the journal's high-water mark, not the
//! store's counter (see [`crate::durable::recover`]).
//!
//! ## Crash and corruption semantics
//!
//! Appends are flushed to the OS (a `write` syscall) before the caller
//! acks, which survives process death (SIGKILL) unconditionally. Whether
//! they survive *power loss* is governed by [`FsyncPolicy`]; `Always`
//! issues `fdatasync` per entry, `Never` leaves it to the OS.
//!
//! [`replay`] distinguishes two corruption shapes:
//!
//! * **Torn tail** — the trailing run of unparseable (or unterminated)
//!   lines after the last valid record. Only a crash mid-append can
//!   produce it; the records were never acked, so they are dropped and
//!   counted ([`ReplayReport::tail_dropped`]).
//! * **Mid-file corruption** — a bad record *followed by* valid records.
//!   That is bit rot of acked data, never a torn write. The record is
//!   quarantined into `quarantine/` (raw bytes preserved for forensics),
//!   counted in [`ReplayReport::quarantined`] and the
//!   `journal.replay_skipped_records` metric, and replay continues — an
//!   acked edge is either recovered or *explicitly reported*, never
//!   silently lost.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphstream::VertexId;
use hashkit::crc32;

use crate::chaos::{AppendDecision, FaultPlan};
use crate::codec::{self, WireFormat};

/// The subdirectory of a data dir that receives corrupt artifacts.
pub const QUARANTINE_DIR: &str = "quarantine";

/// When journal appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: survives power loss, slowest.
    Always,
    /// Flush to the OS per append (survives process crash), sync only on
    /// rotation and shutdown. The default serving tradeoff.
    #[default]
    OnRotate,
    /// Never sync explicitly; fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` | `interval` | `never`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "interval" => Some(FsyncPolicy::OnRotate),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// One journaled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Log sequence number of this record (monotone per directory).
    pub seq: u64,
    /// Edge source.
    pub u: VertexId,
    /// Edge destination.
    pub v: VertexId,
}

impl fmt::Display for JournalEntry {
    /// Renders the v2 checksummed line (without the trailing newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let payload = self.payload();
        write!(f, "{payload} {:08x}", crc32(payload.as_bytes()))
    }
}

/// What [`JournalEntry::check_line`] found in one journal line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineCheck {
    /// A v2 record whose CRC verified.
    Verified(JournalEntry),
    /// A legacy v1 record — parseable, but carrying no checksum.
    Legacy(JournalEntry),
    /// Structurally invalid (wrong tag, field count, or field syntax).
    Malformed,
    /// Well-formed v2 framing whose CRC does not match the payload.
    BadCrc,
}

impl LineCheck {
    /// The entry, when the line parsed.
    #[must_use]
    pub fn entry(self) -> Option<JournalEntry> {
        match self {
            LineCheck::Verified(e) | LineCheck::Legacy(e) => Some(e),
            LineCheck::Malformed | LineCheck::BadCrc => None,
        }
    }
}

/// Strict canonical u64: ASCII digits only (no sign, no padding), as
/// written — so any mutated byte is either a CRC mismatch or a parse
/// failure, never a silently different number.
fn parse_u64_strict(tok: &str) -> Option<u64> {
    if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    tok.parse().ok()
}

impl JournalEntry {
    /// The checksummed payload of the v2 line (everything before the CRC
    /// field).
    #[must_use]
    fn payload(&self) -> String {
        format!("F {} {} {}", self.seq, self.u.0, self.v.0)
    }

    /// Classifies one journal line: verified v2, legacy v1, malformed,
    /// or CRC mismatch.
    #[must_use]
    pub fn check_line(line: &str) -> LineCheck {
        let mut parts = line.split(' ');
        let tag = parts.next();
        let (Some(seq), Some(u), Some(v)) = (
            parts.next().and_then(parse_u64_strict),
            parts.next().and_then(parse_u64_strict),
            parts.next().and_then(parse_u64_strict),
        ) else {
            return LineCheck::Malformed;
        };
        let crc_tok = parts.next();
        if parts.next().is_some() {
            return LineCheck::Malformed;
        }
        let entry = JournalEntry {
            seq,
            u: VertexId(u),
            v: VertexId(v),
        };
        match (tag, crc_tok) {
            // Legacy v1: exactly four fields, no checksum to verify.
            (Some("E"), None) => LineCheck::Legacy(entry),
            // v2: exactly five fields; the CRC must be canonical
            // lowercase 8-hex (case-insensitive parsing would let a
            // single case-bit flip in the CRC field go undetected).
            (Some("F"), Some(crc_tok)) => {
                if crc_tok.len() != 8
                    || !crc_tok
                        .bytes()
                        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
                {
                    return LineCheck::Malformed;
                }
                let Ok(found) = u32::from_str_radix(crc_tok, 16) else {
                    return LineCheck::Malformed;
                };
                // CRC the line bytes as stored, not a re-rendering: any
                // byte drift since write is a mismatch. Checked length
                // math: a corrupt short line must classify, not panic.
                let Some(payload_len) = line.len().checked_sub(9) else {
                    return LineCheck::Malformed; // strip " <8 hex>"
                };
                if crc32(&line.as_bytes()[..payload_len]) == found {
                    LineCheck::Verified(entry)
                } else {
                    LineCheck::BadCrc
                }
            }
            _ => LineCheck::Malformed,
        }
    }

    /// Parses one journal line (either framing version); `None` for
    /// malformed or checksum-failing lines.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        Self::check_line(line).entry()
    }
}

/// The active, appendable journal for one data directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    writer: BufWriter<File>,
    policy: FsyncPolicy,
    /// First seq the active segment may contain (its name).
    segment_first_seq: u64,
    /// Seq of the last entry appended to the active segment, if any.
    last_seq: Option<u64>,
    /// Scripted storage faults (tests only; `None` in production).
    faults: Option<Arc<FaultPlan>>,
    /// A failed append may have left partial bytes at the tail; the next
    /// write must seal them off with a guard newline so an acked record
    /// can never merge into un-acked debris.
    tainted: bool,
}

/// The segment file holding entries from `first_seq` on.
#[must_use]
pub fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal.{first_seq}.log"))
}

/// Lists `(first_seq, path)` for every segment in `dir`, sorted by seq.
///
/// # Errors
/// Fails if the directory cannot be read.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(first_seq) = name
            .strip_prefix("wal.")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|seq| seq.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((first_seq, entry.path()));
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Writes one corrupt artifact into `dir/quarantine/`, best-effort (a
/// failing quarantine write must not abort recovery). Returns whether
/// the artifact landed.
pub fn quarantine_bytes(dir: &Path, name: &str, bytes: &[u8]) -> bool {
    let qdir = dir.join(QUARANTINE_DIR);
    if fs::create_dir_all(&qdir).is_err() {
        return false;
    }
    fs::write(qdir.join(name), bytes).is_ok()
}

/// Moves a corrupt file into `dir/quarantine/` under its own name,
/// best-effort. Returns whether the move landed.
pub fn quarantine_file(dir: &Path, path: &Path) -> bool {
    let qdir = dir.join(QUARANTINE_DIR);
    if fs::create_dir_all(&qdir).is_err() {
        return false;
    }
    let Some(name) = path.file_name() else {
        return false;
    };
    fs::rename(path, qdir.join(name)).is_ok()
}

impl Journal {
    /// Opens a fresh segment that will hold entries from `next_seq` on.
    ///
    /// The directory is created if missing. Existing segments are left in
    /// place — replay them first (see [`replay`]) and prune after the
    /// next checkpoint.
    ///
    /// # Errors
    /// Fails on directory-creation or file-open errors.
    pub fn create(dir: &Path, next_seq: u64, policy: FsyncPolicy) -> io::Result<Self> {
        Self::create_with_faults(dir, next_seq, policy, None)
    }

    /// Like [`Journal::create`], but every append/fsync consults the
    /// given [`FaultPlan`] first. Production callers pass `None` (via
    /// [`Journal::create`]); tests script exact-operation failures.
    ///
    /// # Errors
    /// Fails on directory-creation or file-open errors.
    pub fn create_with_faults(
        dir: &Path,
        next_seq: u64,
        policy: FsyncPolicy,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = segment_path(dir, next_seq);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            writer: BufWriter::new(file),
            policy,
            segment_first_seq: next_seq,
            last_seq: None,
            faults,
            tainted: false,
        })
    }

    /// [`Journal::create_with_faults`] under the signature the
    /// `perfbench` harness calls; `WireFormat` has a single value.
    ///
    /// # Errors
    /// As [`Journal::create_with_faults`].
    pub fn create_with_format(
        dir: &Path,
        next_seq: u64,
        policy: FsyncPolicy,
        _format: WireFormat,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<Self> {
        Self::create_with_faults(dir, next_seq, policy, faults)
    }

    /// The installed fault plan, if any (threaded to the checkpoint path
    /// so snapshot writes honor the same schedule).
    #[must_use]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The seq the next appended entry should carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.last_seq
            .map_or(self.segment_first_seq, |s| s.saturating_add(1))
    }

    /// Appends one edge and flushes it to the OS; with
    /// [`FsyncPolicy::Always`] also forces it to stable storage.
    ///
    /// Returns only after the entry is at least crash-durable (survives
    /// process death). Callers must not ack the edge before this returns.
    ///
    /// # Errors
    /// Fails on write, flush, or sync errors — real or injected by the
    /// fault plan; the entry must then be treated as not persisted (nack
    /// the client). A short-write fault leaves a genuine partial record
    /// on disk, which replay later classifies as a torn tail; the next
    /// successful append seals it behind a guard newline so no later
    /// (acked) record can merge into the debris.
    pub fn append(&mut self, entry: JournalEntry) -> io::Result<()> {
        let metrics = crate::metrics::global();
        let _t = crate::trace::timed_child("journal.append", &metrics.journal_append_latency);
        let line = codec::encode_wal_entry(&entry);
        if self.tainted {
            // Seal off the previous failure's partial bytes as their own
            // (un-acked, torn) line before this record touches the file.
            self.writer.write_all(b"\n")?;
            self.writer.flush()?;
            self.tainted = false;
        }
        if let Some(plan) = &self.faults {
            match plan.next_append() {
                AppendDecision::Proceed => {}
                AppendDecision::Fail => {
                    return Err(FaultPlan::error("append failed (storage full)"))
                }
                AppendDecision::ShortWrite(n) => {
                    let n = n.min(line.len());
                    self.tainted = true;
                    self.writer.write_all(&line[..n])?;
                    self.writer.flush()?;
                    return Err(FaultPlan::error("append cut short"));
                }
            }
        }
        self.writer
            .write_all(&line)
            .inspect_err(|_| self.tainted = true)?;
        self.writer.flush().inspect_err(|_| self.tainted = true)?;
        if self.policy == FsyncPolicy::Always {
            let synced = match &self.faults {
                Some(plan) => plan.next_fsync(),
                None => Ok(()),
            }
            .and_then(|()| self.writer.get_ref().sync_data());
            if let Err(e) = synced {
                // The record reached the OS and may well survive; its
                // seq is burned so the next (acked) append can never
                // collide with a ghost of this one in replay.
                self.last_seq = Some(entry.seq);
                return Err(e);
            }
            metrics.journal_fsyncs.incr();
        }
        self.last_seq = Some(entry.seq);
        metrics.journal_appends.incr();
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    /// Fails on flush or sync errors (real or injected).
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        if let Some(plan) = &self.faults {
            plan.next_fsync()?;
        }
        self.writer.get_ref().sync_data()?;
        crate::metrics::global().journal_fsyncs.incr();
        Ok(())
    }

    /// Seals the active segment and starts a new one holding entries from
    /// `next_seq` on.
    ///
    /// Call this at checkpoint time *while holding the store lock* so no
    /// entry with `seq >= next_seq` can land in the sealed segment.
    ///
    /// # Errors
    /// Fails on sync or file-open errors; on error the old segment stays
    /// active.
    pub fn rotate(&mut self, next_seq: u64) -> io::Result<()> {
        if self.tainted {
            // Do not seal a partial record into the outgoing segment
            // tail, where it would read as mid-file corruption later.
            self.writer.write_all(b"\n")?;
            self.tainted = false;
        }
        if self.policy != FsyncPolicy::Never {
            self.sync()?;
        } else {
            self.writer.flush()?;
        }
        let path = segment_path(&self.dir, next_seq);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.writer = BufWriter::new(file);
        self.segment_first_seq = next_seq;
        self.last_seq = None;
        crate::metrics::global().journal_rotations.incr();
        Ok(())
    }

    /// Deletes every segment in the directory, the active one included,
    /// and starts an empty one holding entries from `next_seq` on.
    /// Returns how many segments were deleted.
    ///
    /// For a node whose whole WAL history was superseded by a snapshot
    /// it installed from another timeline: none of the old records
    /// describe its state, and replaying any of them (even ones above
    /// `next_seq`) would bring the dead timeline back. Call only after
    /// that snapshot is durable.
    ///
    /// # Errors
    /// Fails if the directory listing, a deletion, or the new segment
    /// fails.
    pub fn discard_history(&mut self, next_seq: u64) -> io::Result<usize> {
        let segments = list_segments(&self.dir)?;
        for (_, path) in &segments {
            fs::remove_file(path)?;
        }
        self.rotate(next_seq)?;
        Ok(segments.len())
    }

    /// Deletes sealed segments made fully redundant by a snapshot
    /// covering every seq up to and including `snapshot_seq`.
    ///
    /// The active segment is never deleted. Call only *after* the
    /// snapshot is durably on disk — and, with a retention chain, pass
    /// the seq of the **oldest retained** generation, so every retained
    /// snapshot can still replay forward from its own seq (see
    /// [`crate::durable::checkpoint`]).
    ///
    /// # Errors
    /// Fails if the directory listing or a deletion fails; a partial
    /// prune is harmless (replay skips redundant entries by seq).
    pub fn prune_below(&mut self, snapshot_seq: u64) -> io::Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segments.windows(2) {
            let (first, path) = &window[0];
            let (next_first, _) = &window[1];
            // Segment `first` holds seqs in [first, next_first); redundant
            // iff next_first - 1 <= snapshot_seq.
            if *first < self.segment_first_seq && *next_first <= snapshot_seq + 1 {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Seq of the last appended entry in the active segment, if any.
    #[must_use]
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// First seq the active segment may contain.
    #[must_use]
    pub fn segment_first_seq(&self) -> u64 {
        self.segment_first_seq
    }

    /// Capacity of the in-memory write buffer in front of the active
    /// segment file — the journal's contribution to the process memory
    /// report (`mem.journal_buffer_bytes`).
    #[must_use]
    pub fn buffer_bytes(&self) -> usize {
        self.writer.capacity()
    }
}

/// What [`replay`] found in the journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Entries applied (seq beyond the snapshot).
    pub replayed: u64,
    /// Entries skipped as redundant (seq already covered by the
    /// snapshot).
    pub skipped: u64,
    /// Segments scanned.
    pub segments: usize,
    /// Whether a torn (incomplete or malformed) tail was dropped.
    pub torn_tail: bool,
    /// Lines discarded in the torn-tail region (trailing run of invalid
    /// lines after the last valid record — never-acked crash debris).
    pub tail_dropped: u64,
    /// Corrupt records found *before* later valid records (bit rot of
    /// acked data), quarantined into `quarantine/` and skipped.
    pub quarantined: u64,
    /// Highest seq seen across all valid entries, if any.
    pub last_seq: Option<u64>,
}

impl ReplayReport {
    /// Whether replay saw any corruption at all (torn tail or
    /// quarantined records).
    #[must_use]
    pub fn corruption_seen(&self) -> bool {
        self.torn_tail || self.quarantined > 0
    }
}

/// What framing one scanned journal record used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Checksummed text v2 line, verified.
    VerifiedLine,
    /// Legacy text v1 line — parseable, no checksum.
    LegacyLine,
    /// Binary v3 envelope, verified.
    Binary,
    /// Unverifiable bytes: corrupt, truncated, unterminated, or a
    /// non-WAL envelope. Whether that means a torn tail or quarantine
    /// is positional and decided by the caller.
    Invalid,
}

/// One record found by [`scan_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedRecord<'a> {
    /// The record's bytes as stored — text records without their newline
    /// terminator, binary records as the whole envelope, invalid chunks
    /// verbatim.
    pub raw: &'a [u8],
    /// The decoded entry, when the record verified (or parsed, for v1).
    pub entry: Option<JournalEntry>,
    /// The framing the bytes used.
    pub kind: RecordKind,
}

fn classify_text_record(raw: &[u8]) -> (Option<JournalEntry>, RecordKind) {
    let Ok(line) = std::str::from_utf8(raw) else {
        return (None, RecordKind::Invalid);
    };
    match JournalEntry::check_line(line) {
        LineCheck::Verified(e) => (Some(e), RecordKind::VerifiedLine),
        LineCheck::Legacy(e) => (Some(e), RecordKind::LegacyLine),
        LineCheck::Malformed | LineCheck::BadCrc => (None, RecordKind::Invalid),
    }
}

/// The first binary magic in `bytes[from..to]` — where an envelope may
/// begin.
fn next_magic(bytes: &[u8], from: usize, to: usize) -> Option<usize> {
    (from..to).find(|&i| bytes[i..].starts_with(&codec::BINARY_MAGIC))
}

/// Splits one segment's bytes into records, sniffing each record's
/// framing from its first bytes: a binary magic starts an envelope,
/// anything else is a text line running to the next newline (or to the
/// next binary magic, which ends it as an invalid chunk).
///
/// Purely structural — no quarantining, no position-dependent torn-tail
/// judgment; [`replay`] and `scrub` layer those on top. An unterminated
/// final text line is always [`RecordKind::Invalid`] (it was never
/// flushed-and-acked whole), as is a truncated or corrupt envelope (the
/// bytes up to the next plausible record start become one invalid
/// chunk).
#[must_use]
pub fn scan_segment(bytes: &[u8]) -> Vec<ScannedRecord<'_>> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if codec::is_binary(&bytes[pos..]) {
            match codec::decode_envelope(&bytes[pos..]) {
                Ok(env) => {
                    let entry = (env.mode == codec::MODE_WAL_ENTRY)
                        .then(|| codec::decode_wal_entry_body(env.body).ok())
                        .flatten();
                    records.push(ScannedRecord {
                        raw: &bytes[pos..pos + env.consumed],
                        entry,
                        kind: if entry.is_some() {
                            RecordKind::Binary
                        } else {
                            RecordKind::Invalid
                        },
                    });
                    pos += env.consumed;
                }
                Err(_) => {
                    // Only envelopes follow an envelope (a segment is
                    // never appended in text after binary), so the
                    // damage runs to the next magic whatever bytes it
                    // holds, newlines included.
                    let end = next_magic(bytes, pos + 1, bytes.len()).unwrap_or(bytes.len());
                    records.push(ScannedRecord {
                        raw: &bytes[pos..end],
                        entry: None,
                        kind: RecordKind::Invalid,
                    });
                    pos = end;
                }
            }
        } else {
            let line_end = bytes[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |rel| pos + rel);
            // A binary magic inside the line means an envelope starts
            // there; the bytes before it are debris (say, an envelope
            // whose own magic rotted), never a text record.
            if let Some(start) = next_magic(bytes, pos + 1, line_end) {
                records.push(ScannedRecord {
                    raw: &bytes[pos..start],
                    entry: None,
                    kind: RecordKind::Invalid,
                });
                pos = start;
            } else if line_end < bytes.len() {
                let raw = &bytes[pos..line_end];
                let (entry, kind) = classify_text_record(raw);
                records.push(ScannedRecord { raw, entry, kind });
                pos = line_end + 1;
            } else {
                // Unterminated final line: a write cut exactly at the
                // line boundary was never flushed-and-acked whole.
                records.push(ScannedRecord {
                    raw: &bytes[pos..],
                    entry: None,
                    kind: RecordKind::Invalid,
                });
                pos = bytes.len();
            }
        }
    }
    records
}

/// Replays every journal entry with `seq > after_seq`, in order, through
/// `apply`, tolerating a torn tail and quarantining mid-file corruption.
///
/// The trailing run of invalid lines after the last valid record is the
/// torn tail: dropped (those records can only be un-acked crash debris)
/// and counted. An invalid line *followed by* a valid record anywhere in
/// the chain is bit rot of acked data: its raw bytes are written to
/// `dir/quarantine/` and replay continues with the records after it.
///
/// # Errors
/// Fails if the directory or a segment cannot be read.
pub fn replay(
    dir: &Path,
    after_seq: u64,
    mut apply: impl FnMut(JournalEntry),
) -> io::Result<ReplayReport> {
    let mut report = ReplayReport::default();
    let segments = match list_segments(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    report.segments = segments.len();

    // Read everything first: torn/rotten bytes must classify by position
    // (is any *valid* record after this line?), which needs the whole
    // chain. Journal size is bounded by the checkpoint cadence.
    let mut files = Vec::with_capacity(segments.len());
    for (_, path) in &segments {
        files.push(fs::read(path)?);
    }

    // A record is usable iff the scanner verified it (v1/v2 text or a
    // binary envelope); everything else classifies by position.
    let parsed: Vec<Vec<ScannedRecord>> = files.iter().map(|bytes| scan_segment(bytes)).collect();

    // Position of the last valid record in the whole chain; every
    // invalid record after it is the torn tail, every one before it is
    // mid-file corruption.
    let last_valid = parsed
        .iter()
        .enumerate()
        .flat_map(|(seg, records)| {
            records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.entry.is_some())
                .map(move |(i, _)| (seg, i))
        })
        .next_back();

    for (seg_idx, records) in parsed.iter().enumerate() {
        let seg_name = segments[seg_idx]
            .1
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("wal.unknown.log")
            .to_string();
        for (rec_idx, record) in records.iter().enumerate() {
            match record.entry {
                Some(entry) => {
                    report.last_seq = Some(report.last_seq.map_or(entry.seq, |s| s.max(entry.seq)));
                    if entry.seq > after_seq {
                        apply(entry);
                        report.replayed += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                None if record.raw.is_empty() && Some((seg_idx, rec_idx)) > last_valid => {
                    // Blank padding at the very end of the chain (e.g. a
                    // freshly rotated empty segment) is not corruption.
                }
                None if last_valid.is_none_or(|pos| (seg_idx, rec_idx) > pos) => {
                    report.torn_tail = true;
                    report.tail_dropped += 1;
                }
                None => {
                    quarantine_bytes(dir, &format!("{seg_name}.line{rec_idx}.rec"), record.raw);
                    report.quarantined += 1;
                }
            }
        }
    }
    let metrics = crate::metrics::global();
    metrics.journal_replayed.add(report.replayed);
    metrics.wal_replay_skipped.add(report.quarantined);
    Ok(report)
}

/// Reads up to `max` verified entries with `seq > after_seq` from the
/// segment chain, oldest first — the replication PULL path for entries
/// that have aged out of the primary's in-memory ship buffer but are
/// still on disk.
///
/// Read-only and side-effect free: unlike [`replay`] it never
/// quarantines — corrupt or torn lines are simply not shipped (recovery
/// owns forensics). Segments fully covered by `after_seq` are skipped
/// without being read.
///
/// # Errors
/// Fails if the directory or a needed segment cannot be read.
pub fn read_entries_after(dir: &Path, after_seq: u64, max: usize) -> io::Result<Vec<JournalEntry>> {
    let mut out = Vec::new();
    if max == 0 {
        return Ok(out);
    }
    let segments = match list_segments(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for (i, (_, path)) in segments.iter().enumerate() {
        // Segment i holds seqs in [first_i, first_{i+1}); skip it when
        // that whole range is already covered.
        if let Some((next_first, _)) = segments.get(i + 1) {
            if *next_first <= after_seq + 1 {
                continue;
            }
        }
        let bytes = fs::read(path)?;
        for record in scan_segment(&bytes) {
            // Invalid chunks (torn, rotten, or unterminated) are simply
            // not shipped; recovery owns forensics.
            let Some(entry) = record.entry else { continue };
            if entry.seq > after_seq {
                out.push(entry);
                if out.len() == max {
                    return Ok(out);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "streamlink-journal-{}-{tag}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            u: VertexId(seq * 2),
            v: VertexId(seq * 2 + 1),
        }
    }

    /// Writes a v2 text segment holding `seqs`, as a pre-v3 server did.
    fn write_v2_segment(dir: &Path, seqs: std::ops::RangeInclusive<u64>) -> PathBuf {
        let entries: Vec<JournalEntry> = seqs.clone().map(entry).collect();
        let path = segment_path(dir, *seqs.start());
        fs::write(&path, codec::v2::wal_segment(&entries)).unwrap();
        path
    }

    #[test]
    fn entry_line_roundtrip_v2() {
        let e = JournalEntry {
            seq: 7,
            u: VertexId(3),
            v: VertexId(9),
        };
        let line = e.to_string();
        assert!(line.starts_with("F 7 3 9 "), "{line}");
        assert_eq!(line.len(), "F 7 3 9".len() + 9, "8 hex chars + space");
        assert_eq!(JournalEntry::parse(&line), Some(e));
        assert!(matches!(
            JournalEntry::check_line(&line),
            LineCheck::Verified(got) if got == e
        ));
    }

    #[test]
    fn legacy_v1_lines_still_parse() {
        let e = JournalEntry {
            seq: 7,
            u: VertexId(3),
            v: VertexId(9),
        };
        assert_eq!(JournalEntry::parse("E 7 3 9"), Some(e));
        assert!(matches!(
            JournalEntry::check_line("E 7 3 9"),
            LineCheck::Legacy(got) if got == e
        ));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "E 7 3",
            "E 7 3 9 1", // v1 tag with five fields
            "F 7 3 9",   // v2 tag with four fields
            "X 7 3 9",
            "E 7 3 banana",
            "F 7 3 9 zzzzzzzz",  // non-hex CRC
            "F 7 3 9 abc",       // short CRC
            "F 7 3 9 ABCDEF12",  // uppercase CRC (non-canonical)
            "F 7 3 9 abcdef123", // long CRC
            "E +7 3 9",          // sign is not canonical
            "E 7 3 9 ",          // trailing separator
        ] {
            assert_eq!(JournalEntry::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn crc_mismatch_is_detected_not_malformed() {
        let mut line = entry(5).to_string();
        // Corrupt one payload digit without breaking the structure.
        line = line.replacen("F 5", "F 6", 1);
        assert_eq!(JournalEntry::check_line(&line), LineCheck::BadCrc);
        assert_eq!(JournalEntry::parse(&line), None);
    }

    #[test]
    fn every_single_bit_flip_in_a_v2_record_is_detected() {
        // The framing guarantee the proptest satellite pins at scale;
        // here the deterministic spot-check on one record.
        let line = entry(123_456_789).to_string();
        let mut bytes = line.clone().into_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                let mutated = String::from_utf8_lossy(&bytes).into_owned();
                assert!(
                    JournalEntry::parse(&mutated).is_none(),
                    "flip {byte}:{bit} produced a silently valid record {mutated:?}"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(String::from_utf8(bytes).unwrap(), line);
    }

    #[test]
    fn append_then_replay() {
        let dir = temp_dir("append");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::OnRotate).unwrap();
        for seq in 1..=5 {
            j.append(entry(seq)).unwrap();
        }
        assert_eq!(j.last_seq(), Some(5));
        assert_eq!(j.next_seq(), 6);
        drop(j);
        let (_, path) = &list_segments(&dir).unwrap()[0];
        assert!(codec::is_binary(&fs::read(path).unwrap()), "v3 segment");

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!((report.replayed, report.skipped), (5, 0));
        assert!(!report.corruption_seen());
        // Entries a snapshot covers are skipped.
        seen.clear();
        let report = replay(&dir, 2, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![3, 4, 5]);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.last_seq, Some(5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let path = write_v2_segment(&dir, 1..=3);
        // Simulate a crash mid-append: a partial line with no newline.
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        write!(f, "F 4 8").unwrap();
        drop(f);

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(report.torn_tail);
        assert_eq!(report.tail_dropped, 1);
        assert_eq!(report.quarantined, 0, "a torn tail is not quarantined");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn complete_final_line_without_newline_is_treated_as_torn() {
        // A well-formed line missing its terminator means the write was
        // cut exactly at the line end — it was never flushed-and-acked as
        // a whole, so it must not be replayed. (v1 framing, which also
        // pins the legacy read path.)
        let dir = temp_dir("noterm");
        fs::write(segment_path(&dir, 1), "E 1 0 1\nE 2 2 3").unwrap();
        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1]);
        assert!(report.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_quarantined_and_replay_continues() {
        let dir = temp_dir("midfile");
        let path = write_v2_segment(&dir, 1..=5);
        // Rot record 3 in place: flip a payload bit.
        let content = fs::read_to_string(&path).unwrap();
        let rotted = content.replacen("F 3", "F 7", 1);
        assert_ne!(content, rotted);
        fs::write(&path, rotted).unwrap();

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 4, 5], "records after the rot still apply");
        assert_eq!(report.quarantined, 1);
        assert!(!report.torn_tail);
        // The corrupt raw line is preserved for forensics.
        let quarantined: Vec<_> = fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(quarantined.len(), 1);
        let saved = fs::read_to_string(&quarantined[0]).unwrap();
        assert!(saved.starts_with("F 7"), "{saved}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_mid_file_not_torn() {
        // A bad record at the end of a *sealed* segment is followed by
        // the next segment's valid records — bit rot, not a torn write.
        // Checked on a journal-written (v3) chain and a v2 text chain.
        for v2 in [false, true] {
            let dir = temp_dir("sealedrot");
            if v2 {
                write_v2_segment(&dir, 1..=3);
                write_v2_segment(&dir, 4..=4);
            } else {
                let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
                for seq in 1..=3 {
                    j.append(entry(seq)).unwrap();
                }
                j.rotate(4).unwrap();
                j.append(entry(4)).unwrap();
            }
            let (_, sealed) = &list_segments(&dir).unwrap()[0];
            crate::chaos::flip_bit(sealed, 2, 1).unwrap();

            let mut seen = Vec::new();
            let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
            assert_eq!(seen, vec![2, 3, 4], "v2={v2}");
            assert_eq!(report.quarantined, 1, "v2={v2}");
            assert!(!report.torn_tail, "v2={v2}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn trailing_garbage_run_is_all_torn_tail() {
        let dir = temp_dir("garbagerun");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=2 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);
        let (_, path) = &list_segments(&dir).unwrap()[0];
        crate::chaos::append_garbage(path, b"\x00garbage\nmore garbage\nF 9 9").unwrap();

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2]);
        assert!(report.torn_tail);
        assert_eq!(report.tail_dropped, 3);
        assert_eq!(report.quarantined, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_segments_replay_unmodified() {
        // A pre-CRC data dir: plain `E` lines, no checksums.
        let dir = temp_dir("v1compat");
        fs::write(segment_path(&dir, 1), "E 1 10 11\nE 2 12 13\nE 3 14 15\n").unwrap();
        let mut seen = Vec::new();
        let report = replay(&dir, 1, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(report.skipped, 1);
        assert!(!report.corruption_seen());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_pruning() {
        let dir = temp_dir("rotate");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::OnRotate).unwrap();
        for seq in 1..=4 {
            j.append(entry(seq)).unwrap();
        }
        j.rotate(5).unwrap();
        assert_eq!(j.next_seq(), 5);
        for seq in 5..=6 {
            j.append(entry(seq)).unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 2);

        // Snapshot at seq 4 makes the first segment redundant.
        assert_eq!(j.prune_below(4).unwrap(), 1);
        let remaining = list_segments(&dir).unwrap();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].0, 5);

        // Replay after pruning still yields the tail.
        let mut seen = Vec::new();
        replay(&dir, 4, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![5, 6]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discard_history_drops_every_segment_even_one_named_like_the_new_start() {
        let dir = temp_dir("discard");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(entry(seq)).unwrap();
        }
        j.rotate(5).unwrap();
        for seq in 5..=9 {
            j.append(entry(seq)).unwrap();
        }
        // The new history restarts at seq 5: the dead `wal.5.log` must not
        // be appended to, and the dead seqs 1..=4 must not replay either.
        assert_eq!(j.discard_history(5).unwrap(), 2);
        assert_eq!(j.next_seq(), 5);
        j.append(entry(5)).unwrap();
        drop(j);
        let mut seen = Vec::new();
        replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![5]);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_segments_with_unsnapshotted_entries() {
        let dir = temp_dir("prune-keep");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(entry(seq)).unwrap();
        }
        j.rotate(5).unwrap();
        j.append(entry(5)).unwrap();
        // Snapshot at 3: segment [1,4] still holds seq 4 > 3 — keep it.
        assert_eq!(j.prune_below(3).unwrap(), 0);
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_active_segment_is_not_torn() {
        let dir = temp_dir("empty");
        let _j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        let report = replay(&dir, 0, |_| {}).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.replayed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_on_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("streamlink-journal-does-not-exist-xyzzy");
        let report = replay(&dir, 0, |_| panic!("nothing to apply")).unwrap();
        assert_eq!(report, ReplayReport::default());
    }

    #[test]
    fn injected_enospc_fails_append_without_writing() {
        let dir = temp_dir("enospc");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_append(1, crate::chaos::FaultKind::Enospc);
        let mut j = Journal::create_with_faults(&dir, 1, FsyncPolicy::Never, Some(plan)).unwrap();
        j.append(entry(1)).unwrap();
        let err = j.append(entry(2)).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The plan is one-shot: the journal heals.
        j.append(entry(2)).unwrap();

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2], "the failed append left no record");
        assert!(!report.corruption_seen());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_short_write_leaves_a_torn_tail() {
        let dir = temp_dir("shortwrite");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_append(2, crate::chaos::FaultKind::ShortWrite(5));
        let mut j = Journal::create_with_faults(&dir, 1, FsyncPolicy::Never, Some(plan)).unwrap();
        j.append(entry(1)).unwrap();
        j.append(entry(2)).unwrap();
        assert!(j.append(entry(3)).is_err());
        drop(j);

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2], "partial record must not replay");
        assert!(report.torn_tail);
        assert_eq!(report.quarantined, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_short_write_seals_debris() {
        // Cut inside the envelope header and inside the body.
        for cut in [4, 6] {
            let dir = temp_dir("guard");
            let plan = Arc::new(FaultPlan::new());
            plan.fail_append(1, crate::chaos::FaultKind::ShortWrite(cut));
            let mut j =
                Journal::create_with_faults(&dir, 1, FsyncPolicy::Never, Some(plan)).unwrap();
            j.append(entry(1)).unwrap();
            assert!(j.append(entry(2)).is_err(), "short write must nack");
            // The journal keeps accepting appends after the failure; the
            // acked records on either side of the debris must both survive.
            j.append(entry(3)).unwrap();
            drop(j);

            let mut seen = Vec::new();
            let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
            assert_eq!(seen, vec![1, 3], "acked records never merge into debris");
            assert_eq!(
                report.quarantined, 1,
                "the sealed partial record is explicit, not silent"
            );
            assert!(!report.torn_tail, "the tail itself ends clean");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rotation_after_short_write_seals_debris_in_the_old_segment() {
        let dir = temp_dir("guardrotate");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_append(1, crate::chaos::FaultKind::ShortWrite(4));
        let mut j = Journal::create_with_faults(&dir, 1, FsyncPolicy::Never, Some(plan)).unwrap();
        j.append(entry(1)).unwrap();
        assert!(j.append(entry(2)).is_err());
        j.rotate(3).unwrap();
        j.append(entry(3)).unwrap();
        drop(j);

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 3]);
        assert_eq!(report.quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_burns_the_seq_so_replay_never_sees_duplicates() {
        let dir = temp_dir("fsyncburn");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_fsync(0);
        let mut j = Journal::create_with_faults(&dir, 1, FsyncPolicy::Always, Some(plan)).unwrap();
        assert!(j.append(entry(1)).is_err(), "failed fsync must nack");
        assert_eq!(j.next_seq(), 2, "the unsynced record's seq is burned");
        j.append(entry(2)).unwrap();
        drop(j);

        // The ghost of seq 1 survives on disk (it reached the OS) and
        // replays; what matters is the acked record kept its own seq.
        let mut seen = Vec::new();
        replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failure_surfaces_on_sync() {
        let dir = temp_dir("fsyncfail");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_fsync(0);
        let mut j =
            Journal::create_with_faults(&dir, 1, FsyncPolicy::OnRotate, Some(plan)).unwrap();
        j.append(entry(1)).unwrap();
        assert!(j.sync().is_err());
        assert!(j.sync().is_ok(), "one-shot fault heals");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_entries_after_serves_the_tail_across_segments() {
        let dir = temp_dir("readafter");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(entry(seq)).unwrap();
        }
        j.rotate(5).unwrap();
        for seq in 5..=8 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);

        let all = read_entries_after(&dir, 0, 100).unwrap();
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
        // Covered prefix skipped; batch limit honored.
        let tail = read_entries_after(&dir, 5, 2).unwrap();
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7]);
        assert!(read_entries_after(&dir, 8, 10).unwrap().is_empty());
        assert!(read_entries_after(&dir, 3, 0).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_entries_after_never_ships_corrupt_or_torn_lines() {
        let dir = temp_dir("readclean");
        let path = write_v2_segment(&dir, 1..=3);
        // Rot record 2, then leave a torn (unterminated) record 4.
        let content = fs::read_to_string(&path).unwrap();
        fs::write(&path, content.replacen("F 2", "F 9", 1)).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "F 4 8").unwrap();
        drop(f);

        let got = read_entries_after(&dir, 0, 100).unwrap();
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 3]);
        // No quarantine side effects from the read path.
        assert!(!dir.join(QUARANTINE_DIR).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_format_directory_replays_in_order() {
        // A v2 deployment restarted on a v3 binary: the old text segment
        // and the new binary segment replay through one scanner.
        let dir = temp_dir("bin-mixed");
        write_v2_segment(&dir, 1..=3);
        let mut j = Journal::create(&dir, 4, FsyncPolicy::Never).unwrap();
        for seq in 4..=6 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
        assert!(!report.corruption_seen());
        assert_eq!(
            read_entries_after(&dir, 2, 3)
                .unwrap()
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("bin-torn");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);
        // Crash mid-append: cut the final envelope short.
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() - 3]).unwrap();

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2]);
        assert!(report.torn_tail);
        assert_eq!(report.quarantined, 0, "a torn tail is not quarantined");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_mid_file_corruption_is_quarantined_and_replay_continues() {
        let dir = temp_dir("bin-midfile");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=5 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);
        // Rot a byte inside the second record's body.
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let one_record = codec::encode_wal_entry(&entry(1)).len() as u64;
        crate::chaos::flip_bit(path, one_record + 8, 3).unwrap();

        let mut seen = Vec::new();
        let report = replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 3, 4, 5], "records after the rot still apply");
        assert_eq!(report.quarantined, 1);
        assert!(!report.torn_tail);
        // The corrupt raw chunk is preserved for forensics.
        assert_eq!(fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_read_entries_after_never_ships_corrupt_records() {
        let dir = temp_dir("bin-readclean");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(entry(seq)).unwrap();
        }
        drop(j);
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let one_record = codec::encode_wal_entry(&entry(1)).len() as u64;
        crate::chaos::flip_bit(path, one_record * 2 + 5, 2).unwrap();

        let got = read_entries_after(&dir, 0, 100).unwrap();
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 4]);
        assert!(!dir.join(QUARANTINE_DIR).exists(), "read path is pure");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_segment_reports_record_kinds() {
        let v2 = entry(1).to_string();
        let bin = codec::encode_wal_entry(&entry(2));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(v2.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(b"E 7 3 9\n");
        bytes.extend_from_slice(&bin);
        bytes.extend_from_slice(b"not a record\n");
        let records = scan_segment(&bytes);
        assert_eq!(
            records.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![
                RecordKind::VerifiedLine,
                RecordKind::LegacyLine,
                RecordKind::Binary,
                RecordKind::Invalid
            ]
        );
        assert_eq!(records[2].entry, Some(entry(2)));
        assert_eq!(records[3].raw, b"not a record");
    }

    #[test]
    fn scan_segment_resyncs_past_an_envelope_with_a_rotted_magic() {
        let mut bytes = codec::encode_wal_entry(&entry(1));
        bytes[1] ^= 0x04;
        bytes.extend_from_slice(&codec::encode_wal_entry(&entry(2)));
        let records = scan_segment(&bytes);
        assert_eq!(
            records.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![RecordKind::Invalid, RecordKind::Binary]
        );
        assert_eq!(records[1].entry, Some(entry(2)));
    }

    #[test]
    fn a_damaged_envelope_is_one_chunk_even_across_newline_bytes() {
        // u = 10 puts a 0x0a byte inside the body.
        let rotten = JournalEntry {
            seq: 1,
            u: VertexId(10),
            v: VertexId(11),
        };
        let mut bytes = codec::encode_wal_entry(&rotten);
        assert!(bytes.contains(&b'\n'));
        let crc_at = bytes.len() - 1;
        bytes[crc_at] ^= 0x01;
        bytes.extend_from_slice(&codec::encode_wal_entry(&entry(2)));
        let records = scan_segment(&bytes);
        assert_eq!(
            records.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![RecordKind::Invalid, RecordKind::Binary]
        );
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("interval"), Some(FsyncPolicy::OnRotate));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}

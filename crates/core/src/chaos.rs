//! Fault-injection helpers for durability testing.
//!
//! Production code must survive torn writes, partial files, and injected
//! IO errors; this module provides the tools the tests use to produce
//! those conditions deterministically:
//!
//! * [`FaultPlan`] — a scripted schedule of storage faults (ENOSPC,
//!   short writes, failed fsyncs) the journal and checkpoint paths
//!   consult when one is installed, so tests can make the *live* write
//!   path fail at exact operation counts;
//! * [`ChaosWriter`] — a writer that fails with an injected error after a
//!   byte budget, leaving a genuine partial write behind;
//! * [`tear_file`] — chops bytes off a file's end, reproducing a write
//!   cut by a crash;
//! * [`append_garbage`] — appends non-protocol bytes, reproducing a
//!   corrupted tail;
//! * [`flip_bit`] — flips one bit at an exact offset, reproducing silent
//!   media bit rot the CRC framing must catch.
//!
//! It ships in the library (not behind `cfg(test)`) so integration tests
//! and the bench harness can drive the same faults against real files;
//! nothing in the serving path *triggers* faults — production code only
//! ever checks an installed plan, and no plan is installed outside tests.

use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// One kind of injected storage failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails before any byte lands (`ENOSPC`-shaped).
    Enospc,
    /// The first `n` bytes of the record land on disk, then the write
    /// fails — a torn record a crashed `write(2)` leaves behind.
    ShortWrite(usize),
}

/// What the journal should do with the append it is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendDecision {
    /// No fault scheduled: write the whole record.
    Proceed,
    /// Fail without writing anything.
    Fail,
    /// Write exactly this many bytes of the record, then fail.
    ShortWrite(usize),
}

#[derive(Debug, Default)]
struct PlanState {
    appends_seen: u64,
    fsyncs_seen: u64,
    snapshots_seen: u64,
    /// `(fire_at_op_index, kind)`, one-shot, consumed when fired.
    append_faults: Vec<(u64, FaultKind)>,
    fsync_faults: Vec<u64>,
    snapshot_faults: Vec<u64>,
}

/// A scripted schedule of storage faults.
///
/// Install one via [`crate::journal::Journal::create_with_faults`] (the
/// serving layer threads it through `persistence::open`); every journal
/// append/fsync and every checkpoint snapshot write then consults the
/// plan. Faults are **one-shot**: after firing they are consumed, so a
/// server under test degrades on the scheduled operation and then heals
/// — exactly the "keep serving reads, ack-fail the write" contract the
/// fault-matrix tests pin.
///
/// All methods are `&self` (internally locked), so one plan can be
/// shared across the server threads of a test.
#[derive(Debug, Default)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// An empty plan: every operation proceeds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Schedules the journal append with 0-based index `op` to fail.
    pub fn fail_append(&self, op: u64, kind: FaultKind) {
        self.lock().append_faults.push((op, kind));
    }

    /// Schedules the explicit fsync with 0-based index `op` to fail.
    pub fn fail_fsync(&self, op: u64) {
        self.lock().fsync_faults.push(op);
    }

    /// Schedules the checkpoint snapshot write with 0-based index `op`
    /// to fail before writing.
    pub fn fail_snapshot(&self, op: u64) {
        self.lock().snapshot_faults.push(op);
    }

    /// Consulted by the journal before each append; counts the
    /// operation and returns the scheduled decision.
    pub fn next_append(&self) -> AppendDecision {
        let mut s = self.lock();
        let op = s.appends_seen;
        s.appends_seen += 1;
        match take_fault(&mut s.append_faults, op) {
            None => AppendDecision::Proceed,
            Some(FaultKind::Enospc) => AppendDecision::Fail,
            Some(FaultKind::ShortWrite(n)) => AppendDecision::ShortWrite(n),
        }
    }

    /// Consulted before each explicit journal fsync.
    ///
    /// # Errors
    /// Returns the injected error when this fsync is scheduled to fail.
    pub fn next_fsync(&self) -> io::Result<()> {
        let mut s = self.lock();
        let op = s.fsyncs_seen;
        s.fsyncs_seen += 1;
        if take_at(&mut s.fsync_faults, op) {
            return Err(injected("fsync failed"));
        }
        Ok(())
    }

    /// Consulted before each checkpoint snapshot write.
    ///
    /// # Errors
    /// Returns the injected error when this snapshot write is scheduled
    /// to fail.
    pub fn next_snapshot(&self) -> io::Result<()> {
        let mut s = self.lock();
        let op = s.snapshots_seen;
        s.snapshots_seen += 1;
        if take_at(&mut s.snapshot_faults, op) {
            return Err(injected("snapshot write failed (no space)"));
        }
        Ok(())
    }

    /// The injected-error constructor, public so tests can compare
    /// messages.
    #[must_use]
    pub fn error(detail: &str) -> io::Error {
        injected(detail)
    }
}

fn take_fault(faults: &mut Vec<(u64, FaultKind)>, op: u64) -> Option<FaultKind> {
    let idx = faults.iter().position(|&(at, _)| at == op)?;
    Some(faults.swap_remove(idx).1)
}

fn take_at(faults: &mut Vec<u64>, op: u64) -> bool {
    match faults.iter().position(|&at| at == op) {
        Some(idx) => {
            faults.swap_remove(idx);
            true
        }
        None => false,
    }
}

fn injected(detail: &str) -> io::Error {
    io::Error::other(format!("injected fault: {detail}"))
}

/// A writer that emits an injected error once `budget` bytes have been
/// written, forwarding everything before that to the inner writer.
///
/// The partial prefix *is* written — exactly what a crash mid-write
/// leaves on disk.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    budget: usize,
    written: usize,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`, allowing `budget` bytes through before failing.
    #[must_use]
    pub fn new(inner: W, budget: usize) -> Self {
        ChaosWriter {
            inner,
            budget,
            written: 0,
        }
    }

    /// Total bytes actually forwarded to the inner writer.
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let remaining = self.budget.saturating_sub(self.written);
        if remaining == 0 {
            return Err(io::Error::other("injected fault: write budget exhausted"));
        }
        let n = self.inner.write(&buf[..buf.len().min(remaining)])?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Truncates the last `bytes` bytes off the file at `path`, simulating a
/// write torn by a crash. The cut is clamped to the file's length, so
/// tearing more than the file holds (including tearing a zero-length
/// file by any amount) empties it instead of underflowing.
///
/// # Errors
/// Fails if the file cannot be opened or resized.
pub fn tear_file(path: &Path, bytes: u64) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(bytes))?;
    f.sync_all()
}

/// Flips bit `bit` (0 = least significant) of the byte at `offset` in
/// the file at `path`, simulating silent single-bit media rot at an
/// exact position.
///
/// # Errors
/// Fails if the file cannot be opened, `offset` is past the end, or the
/// write fails.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if offset >= len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("flip_bit offset {offset} past end of {len}-byte file"),
        ));
    }
    f.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    f.sync_all()
}

/// Appends `garbage` to the file at `path`, simulating a corrupted tail.
///
/// # Errors
/// Fails if the file cannot be opened or written.
pub fn append_garbage(path: &Path, garbage: &[u8]) -> io::Result<()> {
    let mut f = OpenOptions::new().append(true).open(path)?;
    f.write_all(garbage)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{self, FsyncPolicy, Journal, JournalEntry};
    use graphstream::VertexId;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("streamlink-chaos-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chaos_writer_fails_after_budget_with_partial_prefix() {
        let mut w = ChaosWriter::new(Vec::new(), 10);
        assert_eq!(w.write(b"hello ").unwrap(), 6);
        assert_eq!(w.write(b"world!!").unwrap(), 4); // clipped at budget
        let err = w.write(b"more").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(w.written(), 10);
        assert_eq!(w.into_inner(), b"hello worl");
    }

    #[test]
    fn chaos_writer_with_zero_budget_fails_immediately() {
        let mut w = ChaosWriter::new(Vec::new(), 0);
        assert!(w.write(b"x").is_err());
        assert!(w.into_inner().is_empty());
    }

    #[test]
    fn torn_journal_write_loses_only_the_unacked_tail() {
        // Drive a real journal through tear_file and confirm replay drops
        // exactly the torn entry.
        let dir = temp_dir("tear");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(seq + 10),
            })
            .unwrap();
        }
        drop(j);
        let (_, path) = journal::list_segments(&dir).unwrap()[0].clone();
        tear_file(&path, 3).unwrap(); // cut into entry 4's line

        let mut seen = Vec::new();
        let report = journal::replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(report.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_is_ignored_by_replay() {
        let dir = temp_dir("garbage");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            j.append(JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(seq + 10),
            })
            .unwrap();
        }
        drop(j);
        let (_, path) = journal::list_segments(&dir).unwrap()[0].clone();
        append_garbage(&path, b"\x00\xffnot a journal line\x7f").unwrap();

        let mut seen = Vec::new();
        let report = journal::replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(report.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_beyond_length_empties_file() {
        let dir = temp_dir("empty");
        let path = dir.join("f");
        fs::write(&path, b"abc").unwrap();
        tear_file(&path, 100).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_zero_length_file_is_a_clamped_no_op() {
        // Files shorter than the cut — including empty ones — must clamp
        // to zero, never underflow or error.
        let dir = temp_dir("zerolen");
        let path = dir.join("empty");
        fs::write(&path, b"").unwrap();
        tear_file(&path, 7).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        tear_file(&path, 0).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit_and_is_self_inverse() {
        let dir = temp_dir("flip");
        let path = dir.join("f");
        fs::write(&path, b"hello").unwrap();
        flip_bit(&path, 1, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hdllo");
        flip_bit(&path, 1, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        // Past-the-end offsets are a usage error, not silent no-ops.
        assert!(flip_bit(&path, 5, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_schedules_one_shot_append_faults() {
        let plan = FaultPlan::new();
        plan.fail_append(1, FaultKind::Enospc);
        plan.fail_append(3, FaultKind::ShortWrite(4));
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
        assert_eq!(plan.next_append(), AppendDecision::Fail);
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
        assert_eq!(plan.next_append(), AppendDecision::ShortWrite(4));
        // Consumed: the same indices never fire twice.
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
    }

    #[test]
    fn fault_plan_schedules_fsync_and_snapshot_faults() {
        let plan = FaultPlan::new();
        plan.fail_fsync(0);
        plan.fail_snapshot(1);
        let err = plan.next_fsync().unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(plan.next_fsync().is_ok());
        assert!(plan.next_snapshot().is_ok());
        assert!(plan.next_snapshot().is_err());
        assert!(plan.next_snapshot().is_ok());
    }
}

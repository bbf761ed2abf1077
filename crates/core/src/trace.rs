//! Zero-dependency request tracing: phase guards, a fixed-capacity
//! global ring buffer, and a slow-operation log.
//!
//! The metrics registry ([`crate::metrics`]) answers *how much* and *how
//! fast in aggregate*; this module answers *where one slow request spent
//! its time*. Both are fed by the same guards, so each phase is timed
//! once:
//!
//! * **Operation guards** — [`timed_op`] times an operation (a
//!   protocol command, a merge, a checkpoint) with one clock reading at
//!   each end; that one duration feeds the op's [`LatencyHistogram`]
//!   and, while tracing is on, a [`SpanRecord`] in the global ring.
//!   [`OpGuard::lap`] splits an op into contiguous phases. Nested ops
//!   fold into their parent's child breakdown *and* record their own
//!   span; [`op`] is the form without a histogram.
//! * **Child guards** — [`timed_child`] times a sub-step (journal
//!   append) into its histogram and the innermost active op's
//!   breakdown. [`child`] (estimator evaluation) has no histogram, and
//!   with tracing off or no op active it costs one thread-local read.
//! * **Sampled inserts** — two `Instant` reads per edge are too many;
//!   [`crate::metrics::Metrics::on_insert`] times 1 insert in 64, and
//!   [`timed_op_at`] opens that insert's guard at the sampler's own
//!   reading, keeping ingest overhead within the E21 budget (<5%
//!   proven, CI-gated at 10%).
//!
//! ## The ring
//!
//! Completed spans land in a fixed-capacity ring ([`RING_CAPACITY`]
//! slots, overwritten oldest-first). [`recent`] returns the newest `n`
//! records — the `TRACE [N]` protocol command and `--trace-out` JSON
//! export read it. Recording is one uncontended per-slot mutex lock;
//! readers never block writers for more than one slot.
//!
//! ## The self-profile
//!
//! The ring doubles as a continuous profiler: [`Profile::from_spans`]
//! merges a window of span records into a call-tree keyed by
//! `(op, parent)` with per-node counts, **inclusive** time (sum of span
//! durations) and **exclusive** time (duration minus child time), plus
//! the top-k slowest individual spans. [`render_profilez_json`] exports
//! it as `streamlink.profilez.v1` — the `/profilez` endpoint and the
//! `PROFILE [n]` protocol command serve exactly this document.
//!
//! ## The slow-op log
//!
//! Any completed span whose duration meets the threshold
//! ([`set_slow_op_threshold_ms`], default [`DEFAULT_SLOW_OP_MS`]) bumps
//! `trace.slow_ops` and, when a log file is installed
//! ([`install_slow_op_log`]), appends one structured JSON line
//! (schema `streamlink.slowop.v1`: op, duration, child breakdown,
//! degree class) to `slowops.jsonl`. The file is bounded: past
//! `max_bytes` it rotates once to `slowops.jsonl.1`, so disk usage
//! never exceeds two generations.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::metrics::LatencyHistogram;

/// Completed-span slots in the global ring buffer.
pub const RING_CAPACITY: usize = 2048;

/// Distinct child names aggregated per span; further names fold into
/// an `(other)` bucket.
pub const MAX_CHILDREN: usize = 8;

/// Default slow-op threshold in milliseconds (`--slow-op-ms`).
pub const DEFAULT_SLOW_OP_MS: u64 = 50;

/// Default slow-op log size bound before rotation (10 MiB).
pub const DEFAULT_SLOW_OP_LOG_BYTES: u64 = 10 * 1024 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(true);
static SLOW_OP_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_OP_MS * 1_000_000);

/// Whether span recording is on (default true; recording is sampled on
/// the insert hot path regardless).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Disabling also stops
/// slow-op logging (nothing completes a span); timed guards keep
/// feeding their histograms.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the slow-op threshold; `0` disables slow-op accounting while
/// leaving span recording untouched.
pub fn set_slow_op_threshold_ms(ms: u64) {
    SLOW_OP_NS.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
}

/// The active slow-op threshold in nanoseconds (0 = disabled).
#[must_use]
pub fn slow_op_threshold_ns() -> u64 {
    SLOW_OP_NS.load(Ordering::Relaxed)
}

/// The log₂ degree class of a degree counter: 0 for unseen, else
/// `⌊log₂ d⌋ + 1` — class 1 is degree 1, class 5 is degrees 16–31.
/// Slow-op records carry the class, not the raw degree, so log lines
/// bucket naturally by hub-ness.
#[inline]
#[must_use]
pub fn degree_class(degree: u64) -> u8 {
    (u64::BITS - degree.leading_zeros()) as u8
}

/// One completed span, as stored in the ring and exported by
/// `TRACE` / `--trace-out` / the slow-op log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global completion sequence number (monotone, 1-based).
    pub seq: u64,
    /// Operation name (static identifier, e.g. `cmd.insert`).
    pub op: &'static str,
    /// Name of the op this one was nested under, if any.
    pub parent: Option<&'static str>,
    /// Wall-clock completion time (Unix milliseconds).
    pub ts_unix_ms: u64,
    /// Total duration in nanoseconds.
    pub dur_ns: u64,
    /// Degree class of the largest vertex the op touched, if noted
    /// (see [`degree_class`]).
    pub degree_class: Option<u8>,
    /// Cross-node correlation ID, if the op carried one (see
    /// [`note_corr`]): the same ID appears in spans on both ends of a
    /// REPL exchange and in [`crate::events`] journal lines, so one
    /// election or handoff is one reconstructable trace across
    /// machines.
    pub corr_id: Option<u64>,
    /// Aggregated child breakdown: `(name, total ns)`, insertion order.
    pub children: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// One-line `key=value` rendering for the `TRACE` protocol command.
    #[must_use]
    pub fn render_line(&self) -> String {
        let mut out = format!("seq={} op={} dur_ns={}", self.seq, self.op, self.dur_ns);
        if let Some(corr) = self.corr_id {
            out.push_str(&format!(" corr={corr}"));
        }
        match self.degree_class {
            Some(c) => out.push_str(&format!(" degree_class={c}")),
            None => out.push_str(" degree_class=-"),
        }
        match self.parent {
            Some(p) => out.push_str(&format!(" parent={p}")),
            None => out.push_str(" parent=-"),
        }
        if self.children.is_empty() {
            out.push_str(" children=-");
        } else {
            let parts: Vec<String> = self
                .children
                .iter()
                .map(|(n, ns)| format!("{n}:{ns}"))
                .collect();
            out.push_str(&format!(" children={}", parts.join(",")));
        }
        out
    }

    /// JSON object rendering (hand-rolled — every key and op name is a
    /// static identifier, so no escaping is needed). Shared by the
    /// slow-op log lines and the `--trace-out` export.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"op\":\"{}\",\"parent\":{},\"ts_unix_ms\":{},\
             \"dur_ns\":{},\"dur_ms\":{:.3},\"degree_class\":{},\"corr_id\":{},\"children\":{{",
            self.seq,
            self.op,
            self.parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
            self.ts_unix_ms,
            self.dur_ns,
            self.dur_ns as f64 / 1e6,
            self.degree_class
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
            self.corr_id
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
        );
        let kv: Vec<String> = self
            .children
            .iter()
            .map(|(n, ns)| format!("\"{n}\":{ns}"))
            .collect();
        out.push_str(&kv.join(","));
        out.push_str("}}");
        out
    }
}

/// Renders the newest `n` ring records as a self-describing JSON
/// document (schema `streamlink.trace.v1`) for `--trace-out`.
#[must_use]
pub fn render_trace_json(n: usize) -> String {
    let spans = recent(n);
    let rows: Vec<String> = spans.iter().map(SpanRecord::render_json).collect();
    format!(
        "{{\"schema\":\"streamlink.trace.v1\",\"spans\":[{}]}}",
        rows.join(",")
    )
}

// ---------------------------------------------------------------- ring

struct Ring {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    next: AtomicU64,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
        next: AtomicU64::new(0),
    })
}

impl Ring {
    /// Claims the next sequence number and stores the record, unless a
    /// writer that claimed a later lap of the same slot stored first (a
    /// writer descheduled between claim and store must not clobber a
    /// newer record).
    fn push(&self, mut record: SpanRecord) -> u64 {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let seq = n + 1;
        record.seq = seq;
        let slot = &self.slots[(n as usize) % self.slots.len()];
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|old| old.seq < seq) {
            *slot = Some(record);
        }
        seq
    }

    /// The newest `n` records, newest first. Position `i` back from the
    /// claimed end may only yield the record carrying exactly that seq:
    /// while a writer is mid-push its slot still holds the previous
    /// lap's record, and a writer racing ahead may already have replaced
    /// it with the next lap's. Either is skipped, so a scrape concurrent
    /// with wrapping writers returns strictly descending seqs.
    fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let end = self.next.load(Ordering::Relaxed);
        let have = (end as usize).min(self.slots.len());
        let want = n.min(have);
        let mut out = Vec::with_capacity(want);
        for seq in (end + 1 - want as u64..=end).rev() {
            let idx = ((seq - 1) as usize) % self.slots.len();
            let guard = self.slots[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(rec) = guard.as_ref().filter(|rec| rec.seq == seq) {
                out.push(rec.clone());
            }
        }
        out
    }

    fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.next.store(0, Ordering::Relaxed);
    }
}

/// Unit tests across this crate record spans into the one global ring
/// (every store insert is a sampling candidate, merges and checkpoints
/// open ops). A trace test that asserts exact ring contents takes the
/// ring exclusively; span pushes from every thread outside that test
/// wait at [`admit`] until it finishes.
#[cfg(test)]
mod ring_gate {
    use std::cell::Cell;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GATE: RwLock<()> = RwLock::new(());

    thread_local! {
        static OWNER: Cell<bool> = const { Cell::new(false) };
    }

    /// Takes the ring for the calling test thread.
    pub(super) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        let guard = GATE.write().unwrap_or_else(PoisonError::into_inner);
        join();
        guard
    }

    /// Marks a thread spawned by the test holding the ring as its own.
    pub(super) fn join() {
        OWNER.with(|owner| owner.set(true));
    }

    /// Waits while another test holds the ring.
    pub(super) fn admit() -> Option<RwLockReadGuard<'static, ()>> {
        if OWNER.with(Cell::get) {
            return None;
        }
        Some(GATE.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The newest `n` completed spans, newest first.
#[must_use]
pub fn recent(n: usize) -> Vec<SpanRecord> {
    ring().recent(n)
}

/// Total spans recorded since process start (or the last [`reset`]).
#[must_use]
pub fn spans_recorded() -> u64 {
    ring().next.load(Ordering::Relaxed)
}

/// Resident bytes of the span ring: a constant capacity model
/// (`RING_CAPACITY` slots, each a mutexed record with up to
/// [`MAX_CHILDREN`] child aggregates), independent of fill level — the
/// ring allocates all slots up front.
#[must_use]
pub fn ring_memory_bytes() -> usize {
    use std::mem::size_of;
    RING_CAPACITY
        * (size_of::<Mutex<Option<SpanRecord>>>() + MAX_CHILDREN * size_of::<(&'static str, u64)>())
}

/// Clears the ring and the sequence counter (tests and benchmarks; the
/// serving path never resets).
pub fn reset() {
    ring().clear();
}

// ------------------------------------------------------- span guards

struct ActiveOp {
    op: &'static str,
    max_degree: u64,
    corr: Option<u64>,
    children: Vec<(&'static str, u64)>,
}

thread_local! {
    static OPS: RefCell<Vec<ActiveOp>> = const { RefCell::new(Vec::new()) };
}

fn add_child(children: &mut Vec<(&'static str, u64)>, name: &'static str, ns: u64) {
    if let Some(entry) = children.iter_mut().find(|(n, _)| *n == name) {
        entry.1 += ns;
        return;
    }
    if children.len() < MAX_CHILDREN {
        children.push((name, ns));
        return;
    }
    if let Some(entry) = children.iter_mut().find(|(n, _)| *n == "(other)") {
        entry.1 += ns;
    } else {
        let last = children.last_mut().expect("MAX_CHILDREN > 0");
        *last = ("(other)", last.1 + ns);
    }
}

/// Applies `f` to the innermost active op on this thread, if any.
fn with_top(f: impl FnOnce(&mut ActiveOp)) {
    OPS.with(|ops| {
        if let Some(top) = ops.borrow_mut().last_mut() {
            f(top);
        }
    });
}

/// Folds `ns` into the innermost active op's child breakdown.
fn attribute(name: &'static str, ns: u64) {
    with_top(|top| add_child(&mut top.children, name, ns));
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Laps one op can take: a served command's parse, execute and respond.
const MAX_LAPS: usize = 3;

/// Times a top-level operation that has no histogram of its own; the
/// guard records a span on drop while tracing is on. Nested ops fold
/// into the enclosing op's breakdown and still record their own span.
#[must_use]
pub fn op(name: &'static str) -> OpGuard {
    open(name, None, Instant::now())
}

/// Times an operation into `hist`: one clock reading at each end, and
/// that one duration feeds `hist` and, while tracing is on, the span.
#[must_use]
pub fn timed_op(name: &'static str, hist: &'static LatencyHistogram) -> OpGuard {
    open(name, Some(hist), Instant::now())
}

/// [`timed_op`] for an operation that began at `start`, a clock reading
/// the caller already holds (a request's arrival, a sampling decision).
#[must_use]
pub fn timed_op_at(name: &'static str, hist: &'static LatencyHistogram, start: Instant) -> OpGuard {
    open(name, Some(hist), start)
}

fn open(name: &'static str, hist: Option<&'static LatencyHistogram>, start: Instant) -> OpGuard {
    let armed = enabled();
    if armed {
        OPS.with(|ops| {
            ops.borrow_mut().push(ActiveOp {
                op: name,
                max_degree: 0,
                corr: None,
                children: Vec::new(),
            });
        });
    }
    OpGuard {
        start,
        hist,
        armed,
        last_lap: None,
        laps: [None; MAX_LAPS],
        _not_send: std::marker::PhantomData,
    }
}

/// Guard for one op; dropping it closes the op. Not `Send`: span
/// begin/end must pair on one thread.
pub struct OpGuard {
    start: Instant,
    hist: Option<&'static LatencyHistogram>,
    armed: bool,
    /// Where the last [`OpGuard::lap`] ended; an op that laps ends there.
    last_lap: Option<Instant>,
    /// Closed laps, fed with the op's own duration, so a metrics
    /// snapshot taken inside an op never counts part of it.
    laps: [Option<(&'static LatencyHistogram, u64)>; MAX_LAPS],
    _not_send: std::marker::PhantomData<*const ()>,
}

impl OpGuard {
    /// Ends the phase that ran since the op opened or since its previous
    /// lap, with one clock reading that also starts the next phase. The
    /// phase's duration feeds `hist` and, while tracing is on, the op's
    /// `child` breakdown (`None` leaves it in the op's own time). An op
    /// that laps ends at its last lap, so its laps partition it.
    pub fn lap(&mut self, hist: &'static LatencyHistogram, child: Option<&'static str>) {
        let now = Instant::now();
        let ns = nanos_between(self.last_lap.unwrap_or(self.start), now);
        self.last_lap = Some(now);
        let slot = self.laps.iter_mut().find(|lap| lap.is_none());
        *slot.expect("an op laps at most MAX_LAPS times") = Some((hist, ns));
        if let (true, Some(name)) = (self.armed, child) {
            attribute(name, ns);
        }
    }
}

/// Notes a vertex degree the innermost active op on this thread
/// touched; its span keeps the largest one's [`degree_class`]. A no-op
/// when no op is active.
pub fn note_degree(degree: u64) {
    with_top(|top| top.max_degree = top.max_degree.max(degree));
}

/// Stamps the innermost active op on this thread with a cross-node
/// correlation ID (last write wins). A no-op when no op is active, so
/// protocol handlers can call it without plumbing the guard through —
/// the enclosing `cmd.*` span picks up the ID. Op names are static
/// identifiers, which is exactly why the ID is a numeric field and not
/// part of the name.
pub fn note_corr(corr: u64) {
    with_top(|top| top.corr = Some(corr));
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        let end = self.last_lap.unwrap_or_else(Instant::now);
        let dur_ns = nanos_between(self.start, end);
        if let Some(hist) = self.hist {
            hist.record_ns(dur_ns);
        }
        for (hist, ns) in self.laps.iter().flatten() {
            hist.record_ns(*ns);
        }
        if !self.armed {
            return;
        }
        let done = OPS.with(|ops| ops.borrow_mut().pop());
        let Some(done) = done else { return };
        let parent = OPS.with(|ops| {
            let mut ops = ops.borrow_mut();
            ops.last_mut().map(|p| {
                add_child(&mut p.children, done.op, dur_ns);
                p.op
            })
        });
        finish(SpanRecord {
            seq: 0, // assigned by the ring
            op: done.op,
            parent,
            ts_unix_ms: crate::metrics::as_of_unix_ms(),
            dur_ns,
            degree_class: (done.max_degree > 0).then(|| degree_class(done.max_degree)),
            corr_id: done.corr,
            children: done.children,
        });
    }
}

/// Times a sub-step of the innermost active op that has no histogram of
/// its own. A no-op (one thread-local read) when tracing is off or no
/// op is active on this thread.
#[must_use]
pub fn child(name: &'static str) -> ChildGuard {
    open_child(name, None)
}

/// Times a sub-step into `hist`: one clock reading at each end, and that
/// one duration feeds `hist` and, while tracing is on inside an op, the
/// op's child breakdown.
#[must_use]
pub fn timed_child(name: &'static str, hist: &'static LatencyHistogram) -> ChildGuard {
    open_child(name, Some(hist))
}

fn open_child(name: &'static str, hist: Option<&'static LatencyHistogram>) -> ChildGuard {
    let attributed = enabled() && OPS.with(|ops| !ops.borrow().is_empty());
    ChildGuard {
        name,
        start: (attributed || hist.is_some()).then(Instant::now),
        hist,
        attributed,
        _not_send: std::marker::PhantomData,
    }
}

/// Guard for one [`child`] or [`timed_child`] span.
pub struct ChildGuard {
    name: &'static str,
    start: Option<Instant>,
    hist: Option<&'static LatencyHistogram>,
    attributed: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = nanos_between(start, Instant::now());
        if let Some(hist) = self.hist {
            hist.record_ns(ns);
        }
        if self.attributed {
            attribute(self.name, ns);
        }
    }
}

fn finish(record: SpanRecord) {
    #[cfg(test)]
    let _admitted = ring_gate::admit();
    let threshold = slow_op_threshold_ns();
    let slow = threshold > 0 && record.dur_ns >= threshold;
    let slow_copy = slow.then(|| record.clone());
    let seq = ring().push(record);
    let m = crate::metrics::global();
    m.trace_spans.incr();
    if let Some(mut rec) = slow_copy {
        rec.seq = seq;
        m.trace_slow_ops.incr();
        write_slow_op(&rec);
    }
}

// ------------------------------------------------------------ profilez

/// Default number of slowest spans listed in a profile.
pub const DEFAULT_PROFILE_TOP_SLOW: usize = 5;

/// One merged call-tree node of a [`Profile`], keyed by `(op, parent)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Operation name.
    pub op: String,
    /// Parent operation name (`None` for roots).
    pub parent: Option<String>,
    /// Spans merged into this node.
    pub count: u64,
    /// Total time spent in these spans, children included (ns).
    pub inclusive_ns: u64,
    /// Total time spent in these spans *excluding* attributed child
    /// time (ns) — where the op itself burned cycles.
    pub exclusive_ns: u64,
    /// Largest single span duration merged into this node (ns).
    pub max_ns: u64,
    /// Merged child-name breakdown: `(name, total ns)`, largest first.
    pub children: Vec<(String, u64)>,
}

/// One of the top-k slowest individual spans in a profile window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSpan {
    /// Operation name.
    pub op: String,
    /// Ring sequence number (replayable via `TRACE`).
    pub seq: u64,
    /// Span duration (ns).
    pub dur_ns: u64,
    /// Wall-clock completion time (Unix ms).
    pub ts_unix_ms: u64,
}

/// A span-aggregated self-profile: the ring's recent window merged into
/// a call-tree, schema `streamlink.profilez.v1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Spans aggregated into this profile.
    pub spans: u64,
    /// Merged call-tree nodes, highest inclusive time first.
    pub nodes: Vec<ProfileNode>,
    /// The top-k slowest individual spans, slowest first.
    pub slowest: Vec<SlowSpan>,
}

fn merge_child(children: &mut Vec<(String, u64)>, name: &str, ns: u64) {
    if let Some(entry) = children.iter_mut().find(|(n, _)| n == name) {
        entry.1 += ns;
    } else {
        children.push((name.to_string(), ns));
    }
}

impl Profile {
    /// Merges `spans` (any order) into a call-tree profile keeping the
    /// `top_slow` slowest individual spans. Pure — testable and
    /// golden-pinnable without touching the global ring.
    ///
    /// Node ordering is deterministic: inclusive time descending, then
    /// op name, then parent name. A span's exclusive time is its
    /// duration minus its recorded child time, floored at zero (clock
    /// skew between a parent and its children cannot go negative).
    #[must_use]
    pub fn from_spans(spans: &[SpanRecord], top_slow: usize) -> Self {
        let mut nodes: Vec<ProfileNode> = Vec::new();
        for s in spans {
            let child_ns: u64 = s.children.iter().map(|&(_, ns)| ns).sum();
            let exclusive = s.dur_ns.saturating_sub(child_ns);
            let parent = s.parent.map(str::to_string);
            let node = match nodes
                .iter_mut()
                .find(|n| n.op == s.op && n.parent.as_deref() == s.parent)
            {
                Some(node) => node,
                None => {
                    nodes.push(ProfileNode {
                        op: s.op.to_string(),
                        parent,
                        count: 0,
                        inclusive_ns: 0,
                        exclusive_ns: 0,
                        max_ns: 0,
                        children: Vec::new(),
                    });
                    nodes.last_mut().expect("just pushed")
                }
            };
            node.count += 1;
            node.inclusive_ns += s.dur_ns;
            node.exclusive_ns += exclusive;
            node.max_ns = node.max_ns.max(s.dur_ns);
            for (name, ns) in &s.children {
                merge_child(&mut node.children, name, *ns);
            }
        }
        for node in &mut nodes {
            node.children
                .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        }
        nodes.sort_by(|a, b| {
            b.inclusive_ns
                .cmp(&a.inclusive_ns)
                .then_with(|| a.op.cmp(&b.op))
                .then_with(|| a.parent.cmp(&b.parent))
        });
        let mut slowest: Vec<SlowSpan> = spans
            .iter()
            .map(|s| SlowSpan {
                op: s.op.to_string(),
                seq: s.seq,
                dur_ns: s.dur_ns,
                ts_unix_ms: s.ts_unix_ms,
            })
            .collect();
        slowest.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then_with(|| b.seq.cmp(&a.seq)));
        slowest.truncate(top_slow);
        Profile {
            spans: spans.len() as u64,
            nodes,
            slowest,
        }
    }

    /// Renders the profile as one `streamlink.profilez.v1` JSON object
    /// (no trailing newline). Field order is stable and golden-pinned.
    /// Op names are static identifiers, so no escaping is needed.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"streamlink.profilez.v1\",\"spans\":{},\"nodes\":[",
            self.spans
        );
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                let children: Vec<String> = n
                    .children
                    .iter()
                    .map(|(name, ns)| format!("\"{name}\":{ns}"))
                    .collect();
                format!(
                    "{{\"op\":\"{}\",\"parent\":{},\"count\":{},\"inclusive_ns\":{},\
                     \"exclusive_ns\":{},\"max_ns\":{},\"children\":{{{}}}}}",
                    n.op,
                    n.parent
                        .as_ref()
                        .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
                    n.count,
                    n.inclusive_ns,
                    n.exclusive_ns,
                    n.max_ns,
                    children.join(","),
                )
            })
            .collect();
        out.push_str(&nodes.join(","));
        out.push_str("],\"slowest\":[");
        let slow: Vec<String> = self
            .slowest
            .iter()
            .map(|s| {
                format!(
                    "{{\"op\":\"{}\",\"seq\":{},\"dur_ns\":{},\"ts_unix_ms\":{}}}",
                    s.op, s.seq, s.dur_ns, s.ts_unix_ms
                )
            })
            .collect();
        out.push_str(&slow.join(","));
        out.push_str("]}");
        out
    }

    /// Parses a `streamlink.profilez.v1` JSON object back into a
    /// profile.
    ///
    /// # Errors
    /// Returns `Err` on malformed JSON, a wrong schema tag, or missing
    /// fields.
    pub fn parse_json(raw: &str) -> Result<Self, String> {
        let v: serde_json::Value =
            serde_json::from_str(raw).map_err(|e| format!("invalid JSON: {e}"))?;
        if v.get("schema").and_then(serde_json::Value::as_str) != Some("streamlink.profilez.v1") {
            return Err("not a streamlink.profilez.v1 object".into());
        }
        let field = |obj: &serde_json::Value, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let text = |obj: &serde_json::Value, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(serde_json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let mut nodes = Vec::new();
        for n in v
            .get("nodes")
            .and_then(serde_json::Value::as_array)
            .ok_or("missing \"nodes\" array")?
        {
            let parent = match n.get("parent") {
                Some(serde_json::Value::Null) | None => None,
                Some(p) => Some(p.as_str().ok_or("non-string \"parent\"")?.to_string()),
            };
            let mut children = Vec::new();
            if let Some(serde_json::Value::Object(entries)) = n.get("children") {
                for (name, ns) in entries {
                    children.push((name.clone(), ns.as_u64().ok_or("non-integer child time")?));
                }
            }
            nodes.push(ProfileNode {
                op: text(n, "op")?,
                parent,
                count: field(n, "count")?,
                inclusive_ns: field(n, "inclusive_ns")?,
                exclusive_ns: field(n, "exclusive_ns")?,
                max_ns: field(n, "max_ns")?,
                children,
            });
        }
        let mut slowest = Vec::new();
        for s in v
            .get("slowest")
            .and_then(serde_json::Value::as_array)
            .ok_or("missing \"slowest\" array")?
        {
            slowest.push(SlowSpan {
                op: text(s, "op")?,
                seq: field(s, "seq")?,
                dur_ns: field(s, "dur_ns")?,
                ts_unix_ms: field(s, "ts_unix_ms")?,
            });
        }
        Ok(Profile {
            spans: field(&v, "spans")?,
            nodes,
            slowest,
        })
    }
}

/// Aggregates the newest `n` ring spans into a [`Profile`].
#[must_use]
pub fn profile(n: usize) -> Profile {
    Profile::from_spans(&recent(n), DEFAULT_PROFILE_TOP_SLOW)
}

/// Renders the newest `n` ring spans as one `streamlink.profilez.v1`
/// JSON document — the `/profilez` endpoint and `PROFILE [n]` body.
#[must_use]
pub fn render_profilez_json(n: usize) -> String {
    profile(n).render_json()
}

// ---------------------------------------------------- slow-op log file

/// A size-bounded JSONL file that rotates once to [`rotated_path`], so
/// disk usage never exceeds two generations. The slow-op log and the
/// cluster event log ([`crate::events`]) both write through it.
pub(crate) struct RotatingLog {
    path: PathBuf,
    max_bytes: u64,
    file: std::fs::File,
    bytes: u64,
}

impl RotatingLog {
    /// Opens `path` for appending, counting what it already holds
    /// toward `max_bytes`.
    pub(crate) fn open(path: &Path, max_bytes: u64) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let bytes = file.metadata().map_or(0, |m| m.len());
        Ok(RotatingLog {
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1),
            file,
            bytes,
        })
    }

    /// Appends `line` plus a newline, first rotating the file if the line
    /// would pass the bound. Returns whether it rotated. A failed reopen
    /// keeps the old handle and retries on the next line.
    pub(crate) fn append(&mut self, mut line: String) -> bool {
        line.push('\n');
        let rotated = self.bytes + line.len() as u64 > self.max_bytes;
        if rotated {
            let _ = std::fs::rename(&self.path, rotated_path(&self.path));
            match RotatingLog::open(&self.path, self.max_bytes) {
                Ok(fresh) => *self = fresh,
                Err(_) => return false,
            }
        }
        if self.file.write_all(line.as_bytes()).is_ok() {
            self.bytes += line.len() as u64;
        }
        rotated
    }
}

static SLOW_LOG: Mutex<Option<RotatingLog>> = Mutex::new(None);

/// Installs (or replaces) the on-disk slow-op log. Records exceeding
/// the threshold append one JSON line each; when the file passes
/// `max_bytes` it rotates once to `<path>.1`.
///
/// # Errors
/// Fails if the file cannot be created or appended to.
pub fn install_slow_op_log(path: &Path, max_bytes: u64) -> io::Result<()> {
    let log = RotatingLog::open(path, max_bytes)?;
    *SLOW_LOG.lock().unwrap_or_else(PoisonError::into_inner) = Some(log);
    Ok(())
}

/// Removes the slow-op log sink (tests). Threshold accounting via
/// `trace.slow_ops` continues.
pub fn uninstall_slow_op_log() {
    let mut guard = SLOW_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = None;
}

/// Appends one JSON line for a slow span to the installed log, if any.
fn write_slow_op(record: &SpanRecord) {
    let mut guard = SLOW_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(log) = guard.as_mut() {
        log.append(record.render_json());
    }
}

/// `<path>.1` — the single rotated generation of the slow-op log.
#[must_use]
pub fn rotated_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("slowops.jsonl"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".1");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes trace tests on the global ring, and holds off spans
    /// from every other test while one runs.
    fn lock() -> std::sync::RwLockWriteGuard<'static, ()> {
        super::ring_gate::exclusive()
    }

    /// A histogram private to these tests, so the global registry's
    /// `core.insert.latency_ns` only ever sees real inserts.
    static SAMPLED: LatencyHistogram = LatencyHistogram::new();

    #[test]
    fn untraced_guards_still_feed_their_histograms() {
        static OP: LatencyHistogram = LatencyHistogram::new();
        static CHILD: LatencyHistogram = LatencyHistogram::new();
        let _gate = lock();
        reset();
        set_enabled(false);
        {
            let _g = timed_op("cmd.insert", &OP);
            let _c = timed_child("journal.append", &CHILD);
        }
        set_enabled(true);
        assert!(recent(10).is_empty(), "tracing off pushes no span");
        assert_eq!(OP.summary().count, 1);
        assert_eq!(CHILD.summary().count, 1);
    }

    #[test]
    fn one_reading_feeds_histogram_span_and_child() {
        static OP: LatencyHistogram = LatencyHistogram::new();
        static CHILD: LatencyHistogram = LatencyHistogram::new();
        let _gate = lock();
        reset();
        {
            let _g = timed_op("cmd.insert", &OP);
            let _c = timed_child("journal.append", &CHILD);
            std::hint::black_box(42);
        }
        let spans = recent(10);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, OP.summary().sum_ns);
        assert_eq!(
            spans[0].children,
            vec![("journal.append", CHILD.summary().sum_ns)]
        );
    }

    #[test]
    fn laps_partition_the_op_and_feed_when_it_closes() {
        static OP: LatencyHistogram = LatencyHistogram::new();
        static PARSE: LatencyHistogram = LatencyHistogram::new();
        static EXECUTE: LatencyHistogram = LatencyHistogram::new();
        static RESPOND: LatencyHistogram = LatencyHistogram::new();
        let _gate = lock();
        reset();
        let start = Instant::now();
        {
            let mut g = timed_op_at("cmd.query", &OP, start);
            g.lap(&PARSE, Some("serve.parse"));
            {
                let _c = child("estimate.jaccard");
            }
            g.lap(&EXECUTE, None);
            g.lap(&RESPOND, Some("serve.respond"));
            assert_eq!(
                OP.summary().count + PARSE.summary().count,
                0,
                "fed at close"
            );
        }
        let sums: Vec<u64> = [&PARSE, &EXECUTE, &RESPOND]
            .iter()
            .map(|h| h.summary().sum_ns)
            .collect();
        assert_eq!(
            OP.summary().sum_ns,
            sums.iter().sum::<u64>(),
            "laps partition the op"
        );
        let span = &recent(1)[0];
        assert_eq!(span.dur_ns, OP.summary().sum_ns);
        let child_ns = |name| span.children.iter().find(|(n, _)| *n == name).map(|c| c.1);
        assert_eq!(child_ns("serve.parse"), Some(sums[0]));
        assert_eq!(child_ns("serve.respond"), Some(sums[2]));
        // The execute lap is the op's own time: no child overlaps the
        // children recorded inside it.
        let profile = Profile::from_spans(std::slice::from_ref(span), 1);
        let estimate = child_ns("estimate.jaccard").expect("estimate child");
        assert_eq!(profile.nodes[0].exclusive_ns, sums[1] - estimate);
    }

    #[test]
    fn op_records_span_with_children() {
        let _gate = lock();
        reset();
        {
            let _g = op("cmd.query");
            note_degree(20);
            {
                let _c = child("store.read");
                std::hint::black_box(42);
            }
            {
                let _c = child("store.read");
            }
            {
                let _c = child("estimate.jaccard");
            }
        }
        let spans = recent(10);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.op, "cmd.query");
        assert_eq!(s.parent, None);
        assert_eq!(s.degree_class, Some(degree_class(20)));
        assert_eq!(s.children.len(), 2, "same-name children aggregate: {s:?}");
        assert_eq!(s.children[0].0, "store.read");
        assert!(s.dur_ns > 0);
    }

    #[test]
    fn nested_ops_record_parent_and_breakdown() {
        let _gate = lock();
        reset();
        {
            let _outer = op("cmd.insert");
            {
                let _inner = op("merge");
            }
        }
        let spans = recent(10);
        assert_eq!(spans.len(), 2);
        // Newest first: outer completed last.
        assert_eq!(spans[0].op, "cmd.insert");
        assert_eq!(spans[1].op, "merge");
        assert_eq!(spans[1].parent, Some("cmd.insert"));
        assert_eq!(spans[0].children[0].0, "merge");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _gate = lock();
        reset();
        set_enabled(false);
        {
            let _g = op("cmd.query");
            let _c = child("store.read");
        }
        drop(timed_op("store.insert", &SAMPLED));
        set_enabled(true);
        assert!(recent(10).is_empty());
    }

    #[test]
    fn ring_keeps_newest_and_wraps() {
        let _gate = lock();
        reset();
        for _ in 0..(RING_CAPACITY + 10) {
            drop(timed_op("store.insert", &SAMPLED));
        }
        let spans = recent(5);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].seq, (RING_CAPACITY + 10) as u64);
        assert!(spans[0].seq > spans[1].seq, "newest first");
        assert_eq!(spans_recorded(), (RING_CAPACITY + 10) as u64);
    }

    #[test]
    fn degree_classes_bucket_by_log2() {
        assert_eq!(degree_class(0), 0);
        assert_eq!(degree_class(1), 1);
        assert_eq!(degree_class(2), 2);
        assert_eq!(degree_class(3), 2);
        assert_eq!(degree_class(16), 5);
        assert_eq!(degree_class(31), 5);
        assert_eq!(degree_class(u64::MAX), 64);
    }

    #[test]
    fn render_line_and_json_shapes() {
        let rec = SpanRecord {
            seq: 7,
            op: "cmd.insert",
            parent: None,
            ts_unix_ms: 1000,
            dur_ns: 2_500_000,
            degree_class: Some(3),
            corr_id: Some(0xBEEF),
            children: vec![("journal.append", 2_000_000), ("store.insert", 400_000)],
        };
        let line = rec.render_line();
        assert!(line.contains("op=cmd.insert"), "{line}");
        assert!(line.contains("dur_ns=2500000"), "{line}");
        assert!(line.contains("corr=48879"), "{line}");
        assert!(line.contains("degree_class=3"), "{line}");
        assert!(line.contains("children=journal.append:2000000,store.insert:400000"));
        let json = rec.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid span JSON");
        drop(parsed);
        assert!(json.contains("\"dur_ms\":2.500"), "{json}");
        assert!(json.contains("\"corr_id\":48879"), "{json}");
        assert!(json.contains("\"journal.append\":2000000"), "{json}");

        let bare = SpanRecord {
            seq: 1,
            op: "x",
            parent: None,
            ts_unix_ms: 0,
            dur_ns: 1,
            degree_class: None,
            corr_id: None,
            children: vec![],
        };
        assert!(bare
            .render_line()
            .ends_with("degree_class=- parent=- children=-"));
        assert!(!bare.render_line().contains("corr="), "absent when unset");
        let json = bare.render_json();
        assert!(json.contains("\"degree_class\":null"), "{json}");
        assert!(json.contains("\"corr_id\":null"), "{json}");
        let _: serde_json::Value = serde_json::from_str(&json).expect("valid bare span JSON");
    }

    #[test]
    fn note_corr_stamps_the_innermost_op() {
        let _gate = lock();
        reset();
        {
            let _outer = op("cmd.repl");
            {
                let _inner = op("repl.lease");
                note_corr(42);
            }
            note_corr(7);
        }
        // No active op: must be a silent no-op, not a panic.
        note_corr(99);
        let spans = recent(10);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, "cmd.repl");
        assert_eq!(spans[0].corr_id, Some(7));
        assert_eq!(spans[1].op, "repl.lease");
        assert_eq!(spans[1].corr_id, Some(42));
    }

    #[test]
    fn ring_wraparound_survives_concurrent_scrapes() {
        let _gate = lock();
        reset();
        // Writers wrap the ring several times while scrapers read it —
        // the /tracez contract: every scrape sees only whole records
        // with plausible sequence numbers, and the final count is exact.
        const WRITERS: usize = 4;
        const PER_WRITER: usize = RING_CAPACITY; // 4x capacity total
        let scraping = std::sync::Arc::new(AtomicBool::new(true));
        let scrapers: Vec<_> = (0..3)
            .map(|_| {
                let scraping = scraping.clone();
                std::thread::spawn(move || {
                    let mut seen_max = 0u64;
                    while scraping.load(Ordering::Relaxed) {
                        let spans = recent(RING_CAPACITY);
                        assert!(spans.len() <= RING_CAPACITY);
                        for pair in spans.windows(2) {
                            assert!(pair[0].seq > pair[1].seq, "newest first, no torn order");
                        }
                        if let Some(first) = spans.first() {
                            assert!(first.seq >= seen_max, "newest seq never regresses");
                            seen_max = first.seq;
                            assert_eq!(first.op, "store.insert");
                        }
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                std::thread::spawn(|| {
                    super::ring_gate::join();
                    for _ in 0..PER_WRITER {
                        drop(timed_op("store.insert", &SAMPLED));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        scraping.store(false, Ordering::Relaxed);
        for s in scrapers {
            s.join().unwrap();
        }
        assert_eq!(spans_recorded(), (WRITERS * PER_WRITER) as u64);
        let spans = recent(RING_CAPACITY);
        assert_eq!(spans.len(), RING_CAPACITY, "full ring after 4x wrap");
        assert_eq!(spans[0].seq, (WRITERS * PER_WRITER) as u64);
    }

    #[test]
    fn child_breakdown_caps_at_max_children() {
        let mut children = Vec::new();
        let names: [&'static str; 12] =
            ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        for n in names {
            add_child(&mut children, n, 10);
        }
        assert_eq!(children.len(), MAX_CHILDREN);
        let other = children.iter().find(|(n, _)| *n == "(other)").unwrap();
        assert_eq!(other.1, 10 * (names.len() - MAX_CHILDREN + 1) as u64);
    }

    #[test]
    fn slow_op_log_writes_and_rotates() {
        let _gate = lock();
        reset();
        let dir = std::env::temp_dir().join(format!("streamlink-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slowops.jsonl");
        // Tiny bound forces rotation after a couple of records.
        install_slow_op_log(&path, 400).unwrap();
        set_slow_op_threshold_ms(0);
        SLOW_OP_NS.store(1, Ordering::Relaxed); // everything is "slow"
        for _ in 0..8 {
            let _g = op("cmd.query");
        }
        set_slow_op_threshold_ms(DEFAULT_SLOW_OP_MS);
        uninstall_slow_op_log();

        let current = std::fs::read_to_string(&path).unwrap();
        for line in current.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid slowop line");
            drop(v);
            assert!(line.contains("\"op\":\"cmd.query\""), "{line}");
        }
        let rotated = std::fs::read_to_string(rotated_path(&path)).expect("rotated generation");
        assert!(!rotated.is_empty());
        assert!(current.len() as u64 <= 400);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn span(
        seq: u64,
        op: &'static str,
        parent: Option<&'static str>,
        dur_ns: u64,
        children: Vec<(&'static str, u64)>,
    ) -> SpanRecord {
        SpanRecord {
            seq,
            op,
            parent,
            ts_unix_ms: 1_000 + seq,
            dur_ns,
            degree_class: None,
            corr_id: None,
            children,
        }
    }

    #[test]
    fn profile_merges_nodes_and_splits_exclusive_time() {
        let spans = vec![
            span(1, "cmd.insert", None, 1_000, vec![("journal.append", 700)]),
            span(
                2,
                "cmd.insert",
                None,
                3_000,
                vec![("journal.append", 1_800)],
            ),
            span(3, "journal.append", Some("cmd.insert"), 700, vec![]),
            span(4, "cmd.query", None, 400, vec![]),
        ];
        let p = Profile::from_spans(&spans, 2);
        assert_eq!(p.spans, 4);
        assert_eq!(p.nodes.len(), 3);
        // Highest inclusive first: the merged cmd.insert node.
        let top = &p.nodes[0];
        assert_eq!(top.op, "cmd.insert");
        assert_eq!(top.parent, None);
        assert_eq!(top.count, 2);
        assert_eq!(top.inclusive_ns, 4_000);
        assert_eq!(top.exclusive_ns, 4_000 - 700 - 1_800);
        assert_eq!(top.max_ns, 3_000);
        assert_eq!(top.children, vec![("journal.append".to_string(), 2_500)]);
        // The nested journal.append node keys on (op, parent).
        let nested = p
            .nodes
            .iter()
            .find(|n| n.op == "journal.append")
            .expect("nested node");
        assert_eq!(nested.parent.as_deref(), Some("cmd.insert"));
        assert_eq!(nested.inclusive_ns, 700);
        assert_eq!(nested.exclusive_ns, 700);
        // Top-k slowest, slowest first, truncated to 2.
        assert_eq!(p.slowest.len(), 2);
        assert_eq!(p.slowest[0].dur_ns, 3_000);
        assert_eq!(p.slowest[1].dur_ns, 1_000);
    }

    #[test]
    fn profile_exclusive_never_goes_negative() {
        // A child breakdown exceeding the parent duration (clock skew)
        // must floor exclusive time at zero, not wrap.
        let spans = vec![span(1, "cmd.query", None, 100, vec![("store.read", 150)])];
        let p = Profile::from_spans(&spans, 1);
        assert_eq!(p.nodes[0].exclusive_ns, 0);
        assert_eq!(p.nodes[0].inclusive_ns, 100);
    }

    #[test]
    fn profile_inclusive_times_are_coherent_child_le_parent() {
        let _gate = lock();
        reset();
        for _ in 0..50 {
            let _outer = op("cmd.insert");
            {
                let _inner = op("journal.append");
                std::hint::black_box(42);
            }
        }
        let p = profile(RING_CAPACITY);
        let parent = p
            .nodes
            .iter()
            .find(|n| n.op == "cmd.insert")
            .expect("parent node");
        let child = p
            .nodes
            .iter()
            .find(|n| n.op == "journal.append")
            .expect("child node");
        assert_eq!(child.parent.as_deref(), Some("cmd.insert"));
        assert_eq!(parent.count, 50);
        assert_eq!(child.count, 50);
        assert!(
            child.inclusive_ns <= parent.inclusive_ns,
            "child inclusive {} must not exceed parent inclusive {}",
            child.inclusive_ns,
            parent.inclusive_ns
        );
        // The parent's attributed child time matches the child node.
        let attributed = parent
            .children
            .iter()
            .find(|(n, _)| n == "journal.append")
            .expect("attributed child");
        assert!(attributed.1 <= parent.inclusive_ns);
        assert_eq!(
            parent.exclusive_ns,
            parent.inclusive_ns - attributed.1,
            "exclusive = inclusive minus attributed child time"
        );
    }

    #[test]
    fn profilez_json_round_trips() {
        let spans = vec![
            span(1, "cmd.insert", None, 1_000, vec![("journal.append", 700)]),
            span(2, "journal.append", Some("cmd.insert"), 700, vec![]),
        ];
        let p = Profile::from_spans(&spans, 5);
        let json = p.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid profilez JSON");
        assert_eq!(
            parsed.get("schema").and_then(serde_json::Value::as_str),
            Some("streamlink.profilez.v1")
        );
        let back = Profile::parse_json(&json).expect("round trip");
        assert_eq!(back, p);
        assert!(Profile::parse_json("{}").is_err());
        assert!(Profile::parse_json("nope").is_err());
    }

    #[test]
    fn render_profilez_reads_the_ring() {
        let _gate = lock();
        reset();
        {
            let _g = op("cmd.stats");
        }
        let json = render_profilez_json(16);
        let _: serde_json::Value = serde_json::from_str(&json).expect("valid profilez JSON");
        assert!(json.contains("\"schema\":\"streamlink.profilez.v1\""));
        assert!(json.contains("\"op\":\"cmd.stats\""));
    }

    #[test]
    fn trace_json_export_is_valid() {
        let _gate = lock();
        reset();
        {
            let _g = op("cmd.stats");
        }
        let json = render_trace_json(16);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid trace JSON");
        drop(parsed);
        assert!(json.contains("\"schema\":\"streamlink.trace.v1\""));
        assert!(json.contains("\"op\":\"cmd.stats\""));
    }
}

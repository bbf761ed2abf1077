//! Causally-ordered cluster event journal: typed control-plane events
//! with `(node_id, epoch, applied_seq, monotonic_tick)` provenance.
//!
//! The metrics registry answers *how much*, the trace ring answers
//! *where one request spent its time* — this module answers *what the
//! cluster did and in what order*. Every election, vote, promotion,
//! fence, handoff acceptance, resync, and config change is recorded as
//! one [`ClusterEvent`]:
//!
//! * **Typed** — [`EventKind`] is a closed enum; the JSONL schema
//!   (`streamlink.event.v1`) is golden-file–checked in CI, so dashboards
//!   and post-mortem tooling can parse journals from any node version.
//! * **Provenanced** — each event carries the emitting node's identity,
//!   the epoch it believed in, its applied WAL seq, and a per-node
//!   monotonic tick, plus an optional cross-node correlation ID that
//!   threads into [`crate::trace`] spans on both ends of a REPL
//!   exchange.
//! * **Bounded** — live events land in a fixed-capacity in-memory ring
//!   ([`RING_CAPACITY`], oldest-first overwrite) and, when a sink is
//!   installed ([`install_event_log`]), append to a size-capped
//!   `events.jsonl` that rotates once to `<path>.1` — the slow-op
//!   log's own writer.
//!
//! ## Merging journals into one timeline
//!
//! Journals from different nodes [`merge`] deterministically: events
//! sort by `(epoch, tick_ms, kind, node_id, applied_seq)`. The epoch is
//! the causal backbone — epochs only move forward, so epoch-major order
//! is causally consistent across machines even though each node's
//! `tick_ms` is only locally monotonic (ticks break ties *within* a
//! node's view; across nodes they are a deterministic, not a wall-clock,
//! tie-break). [`check_single_primary`] then asserts the core failover
//! invariant on the merged timeline: at most one node ever claims
//! primaryship (bootstrap or promotion) per epoch.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::trace::RotatingLog;

/// Self-describing schema tag carried by every journal line.
pub const SCHEMA: &str = "streamlink.event.v1";

/// Event slots in the global in-memory ring.
pub const RING_CAPACITY: usize = 512;

/// Default `events.jsonl` size bound before rotation (10 MiB).
pub const DEFAULT_EVENT_LOG_BYTES: u64 = 10 * 1024 * 1024;

/// Modeled resident bytes per ring slot: the struct plus a budget for
/// the owned `node_id`/`detail` strings (addresses and short phrases).
const EVENT_SLOT_MODEL_BYTES: usize = std::mem::size_of::<ClusterEvent>() + 96;

/// The closed set of cluster control-plane events. Declaration order is
/// the causal rank used to break ties in [`merge`]: a candidacy sorts
/// before the vote it solicited, the vote before the promotion it
/// enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A node seeded a brand-new cluster timeline at epoch 1.
    Bootstrap,
    /// A node (re)started with a given cluster configuration.
    ConfigChange,
    /// A replica stopped seeing a live primary and started campaigning.
    CandidacyStarted,
    /// A node granted its vote to a candidate for a target epoch.
    VoteGranted,
    /// A candidate won a majority and promoted itself to primary.
    Promotion,
    /// An ex-primary observed a higher epoch and stepped down.
    StepDown,
    /// A node adopted a higher epoch it observed on the wire.
    EpochAdopted,
    /// A primary fenced a request carrying a stale epoch.
    Fence,
    /// A new primary accepted a divergent-tail handoff entry.
    HandoffAccepted,
    /// A replica resynced onto the current timeline (rejoin).
    Resync,
}

/// Every kind, in causal-rank order (mirrors the enum declaration).
pub const ALL_KINDS: [EventKind; 10] = [
    EventKind::Bootstrap,
    EventKind::ConfigChange,
    EventKind::CandidacyStarted,
    EventKind::VoteGranted,
    EventKind::Promotion,
    EventKind::StepDown,
    EventKind::EpochAdopted,
    EventKind::Fence,
    EventKind::HandoffAccepted,
    EventKind::Resync,
];

impl EventKind {
    /// The stable wire name (`streamlink.event.v1` `kind` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Bootstrap => "bootstrap",
            EventKind::ConfigChange => "config-change",
            EventKind::CandidacyStarted => "candidacy-started",
            EventKind::VoteGranted => "vote-granted",
            EventKind::Promotion => "promotion",
            EventKind::StepDown => "step-down",
            EventKind::EpochAdopted => "epoch-adopted",
            EventKind::Fence => "fence",
            EventKind::HandoffAccepted => "handoff-accepted",
            EventKind::Resync => "resync",
        }
    }

    /// Parses a wire name back to a kind.
    #[must_use]
    pub fn parse(name: &str) -> Option<EventKind> {
        ALL_KINDS.into_iter().find(|k| k.as_str() == name)
    }

    /// Whether this kind is a claim of primaryship for its epoch.
    #[must_use]
    pub fn claims_primary(self) -> bool {
        matches!(self, EventKind::Bootstrap | EventKind::Promotion)
    }
}

/// One cluster control-plane event with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Identity of the emitting node (its advertised address).
    pub node_id: String,
    /// The epoch the node believed in when it emitted the event (for
    /// votes and promotions: the *target* epoch).
    pub epoch: u64,
    /// The node's applied WAL seq at emission time.
    pub applied_seq: u64,
    /// Per-node monotonic tick (ms since node start, or the virtual
    /// tick in simulation). Locally monotonic only.
    pub tick_ms: u64,
    /// What happened.
    pub kind: EventKind,
    /// Short human detail (peer address, epoch transition, seq range).
    pub detail: String,
    /// Cross-node correlation ID threading this event into trace spans
    /// on both ends of the exchange, if one was in flight.
    pub corr_id: Option<u64>,
}

impl ClusterEvent {
    /// One JSONL line (schema `streamlink.event.v1`). Keys and kinds
    /// are static identifiers; `node_id` and `detail` are escaped.
    #[must_use]
    pub fn render_line(&self) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"node\":\"{}\",\"epoch\":{},\"applied_seq\":{},\
             \"tick_ms\":{},\"kind\":\"{}\",\"detail\":\"{}\",\"corr_id\":{}}}",
            escape_json(&self.node_id),
            self.epoch,
            self.applied_seq,
            self.tick_ms,
            self.kind.as_str(),
            escape_json(&self.detail),
            self.corr_id
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
        )
    }

    /// Parses one journal line. Returns `None` for lines of another
    /// schema, unknown kinds, or missing fields — a merge over mixed or
    /// truncated files skips what it cannot read instead of failing.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<ClusterEvent> {
        if json_str_field(line, "schema")? != SCHEMA {
            return None;
        }
        Some(ClusterEvent {
            node_id: json_str_field(line, "node")?,
            epoch: json_u64_field(line, "epoch")?,
            applied_seq: json_u64_field(line, "applied_seq")?,
            tick_ms: json_u64_field(line, "tick_ms")?,
            kind: EventKind::parse(&json_str_field(line, "kind")?)?,
            detail: json_str_field(line, "detail")?,
            corr_id: json_u64_field(line, "corr_id"),
        })
    }

    /// The deterministic merge key: epoch-major (the causal backbone),
    /// then local tick, causal kind rank, node, and seq.
    fn merge_key(&self) -> (u64, u64, EventKind, &str, u64, &str) {
        (
            self.epoch,
            self.tick_ms,
            self.kind,
            &self.node_id,
            self.applied_seq,
            &self.detail,
        )
    }
}

/// Escapes `s` for the inside of a JSON string literal; the caller adds
/// the quotes. `"` and `\` take a backslash, and every control
/// character is written `\u00XX`, the one escape form
/// [`ClusterEvent::parse_line`] decodes besides those two. This is the
/// crate's one JSON string escaper: events, load reports and the cluster
/// pane all render strings through it.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts `"key":"value"` from a single-line JSON object, honoring
/// backslash escapes in the value.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// Extracts `"key":123` from a single-line JSON object (`null` → None).
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

// --------------------------------------------------------- the journal

/// A bounded, append-ordered event ring. The live server keeps one
/// global instance (see [`emit`]); simulations (E25) keep one per
/// simulated node and [`merge`] them afterwards.
#[derive(Debug)]
pub struct EventJournal {
    ring: VecDeque<ClusterEvent>,
    capacity: usize,
    recorded: u64,
}

impl EventJournal {
    /// An empty journal holding at most `capacity` events (≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            recorded: 0,
        }
    }

    /// Appends one event, evicting the oldest past capacity.
    pub fn record(&mut self, event: ClusterEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.recorded += 1;
    }

    /// Every retained event, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.ring.iter().cloned().collect()
    }

    /// The newest `n` retained events, newest first.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<ClusterEvent> {
        self.ring.iter().rev().take(n).cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Merges per-node journals into one deterministic cluster timeline:
/// epoch-major (epochs only move forward, so this is causally
/// consistent across machines), then tick, causal kind rank, node, and
/// seq. Stable under any input ordering of `journals`.
#[must_use]
pub fn merge(journals: &[Vec<ClusterEvent>]) -> Vec<ClusterEvent> {
    let mut all: Vec<ClusterEvent> = journals.iter().flatten().cloned().collect();
    all.sort_by(|a, b| a.merge_key().cmp(&b.merge_key()));
    all
}

/// Asserts the core failover invariant on a merged timeline: at most
/// one distinct node claims primaryship (bootstrap or promotion) per
/// epoch.
///
/// # Errors
/// Returns a description of the first violating epoch and its rival
/// claimants.
pub fn check_single_primary(merged: &[ClusterEvent]) -> Result<(), String> {
    let mut claims: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
    for e in merged {
        if e.kind.claims_primary() {
            claims.entry(e.epoch).or_default().insert(&e.node_id);
        }
    }
    for (epoch, nodes) in &claims {
        if nodes.len() > 1 {
            let rivals: Vec<&str> = nodes.iter().copied().collect();
            return Err(format!(
                "epoch {epoch} has {} primaries: {}",
                nodes.len(),
                rivals.join(", ")
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------- global live journal

fn journal() -> &'static Mutex<EventJournal> {
    static JOURNAL: OnceLock<Mutex<EventJournal>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(EventJournal::new(RING_CAPACITY)))
}

/// Records one event into the global ring, bumps `events.recorded`,
/// and appends a JSONL line to the installed sink, if any.
pub fn emit(event: ClusterEvent) {
    crate::metrics::global().events_recorded.incr();
    write_event(&event);
    journal()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(event);
}

/// The newest `n` events from the global ring, newest first.
#[must_use]
pub fn recent(n: usize) -> Vec<ClusterEvent> {
    journal()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .recent(n)
}

/// Total events recorded into the global ring since process start (or
/// the last [`reset`]).
#[must_use]
pub fn events_recorded() -> u64 {
    journal()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .recorded()
}

/// Clears the global ring (tests and benchmarks).
pub fn reset() {
    let mut guard = journal().lock().unwrap_or_else(PoisonError::into_inner);
    *guard = EventJournal::new(RING_CAPACITY);
}

/// Resident bytes of the global event ring: a constant capacity model
/// (the ring is bounded, so so is its footprint).
#[must_use]
pub fn ring_memory_bytes() -> usize {
    RING_CAPACITY * EVENT_SLOT_MODEL_BYTES
}

// ------------------------------------------------------ events.jsonl

static EVENT_LOG: Mutex<Option<RotatingLog>> = Mutex::new(None);

/// Installs (or replaces) the on-disk event journal. Every [`emit`]
/// appends one `streamlink.event.v1` JSONL line; when the file passes
/// `max_bytes` it rotates once to `<path>.1`, so disk usage never
/// exceeds two generations.
///
/// # Errors
/// Fails if the file cannot be created or appended to.
pub fn install_event_log(path: &Path, max_bytes: u64) -> io::Result<()> {
    let log = RotatingLog::open(path, max_bytes)?;
    *EVENT_LOG.lock().unwrap_or_else(PoisonError::into_inner) = Some(log);
    Ok(())
}

/// Removes the event log sink (tests). Ring recording continues.
pub fn uninstall_event_log() {
    let mut guard = EVENT_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = None;
}

fn write_event(event: &ClusterEvent) {
    let mut guard = EVENT_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(log) = guard.as_mut() {
        if log.append(event.render_line()) {
            crate::metrics::global().events_log_rotations.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global ring or sink.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ev(node: &str, epoch: u64, tick: u64, kind: EventKind) -> ClusterEvent {
        ClusterEvent {
            node_id: node.to_string(),
            epoch,
            applied_seq: 10 * epoch,
            tick_ms: tick,
            kind,
            detail: format!("{} at epoch {epoch}", kind.as_str()),
            corr_id: epoch.is_multiple_of(2).then_some(epoch * 1000),
        }
    }

    #[test]
    fn kinds_round_trip_their_wire_names() {
        for kind in ALL_KINDS {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("no-such-kind"), None);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut e = ev("127.0.0.1:7001", 3, 250, EventKind::Promotion);
        e.detail = "weird \"quoted\" \\ detail\nline\tend".to_string();
        let line = e.render_line();
        // Control characters take the `\u00XX` form, the one the parser
        // decodes.
        assert!(line.contains(r"detail\u000aline\u0009end"), "{line}");
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(serde_json::Value::as_str),
            Some(SCHEMA)
        );
        assert_eq!(
            parsed.get("detail").and_then(serde_json::Value::as_str),
            Some(e.detail.as_str())
        );
        assert_eq!(ClusterEvent::parse_line(&line), Some(e.clone()));
        e.detail = (0u8..0x20).map(char::from).collect();
        assert_eq!(ClusterEvent::parse_line(&e.render_line()), Some(e));

        let bare = ClusterEvent {
            node_id: "n0".to_string(),
            epoch: 1,
            applied_seq: 0,
            tick_ms: 0,
            kind: EventKind::Bootstrap,
            detail: String::new(),
            corr_id: None,
        };
        let line = bare.render_line();
        assert!(line.contains("\"corr_id\":null"), "{line}");
        assert_eq!(ClusterEvent::parse_line(&line), Some(bare));
    }

    #[test]
    fn parse_rejects_foreign_schemas_and_junk() {
        assert_eq!(ClusterEvent::parse_line("not json at all"), None);
        assert_eq!(
            ClusterEvent::parse_line("{\"schema\":\"streamlink.trace.v1\",\"op\":\"x\"}"),
            None
        );
        let mut line = ev("n0", 1, 1, EventKind::Fence).render_line();
        line = line.replace("\"fence\"", "\"unheard-of\"");
        assert_eq!(ClusterEvent::parse_line(&line), None);
    }

    #[test]
    fn journal_ring_is_bounded_and_ordered() {
        let mut j = EventJournal::new(4);
        for i in 0..10u64 {
            j.record(ev("n0", i, i, EventKind::Fence));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.recorded(), 10);
        let all = j.events();
        assert_eq!(all[0].epoch, 6, "oldest retained first");
        assert_eq!(all[3].epoch, 9);
        let newest = j.recent(2);
        assert_eq!(newest[0].epoch, 9, "recent() is newest first");
        assert_eq!(newest[1].epoch, 8);
    }

    #[test]
    fn merge_is_deterministic_and_epoch_major() {
        let a = vec![
            ev("b-node", 2, 50, EventKind::Promotion),
            ev("b-node", 3, 90, EventKind::Fence),
        ];
        let b = vec![
            ev("a-node", 1, 999, EventKind::Bootstrap),
            ev("a-node", 2, 50, EventKind::VoteGranted),
        ];
        let forward = merge(&[a.clone(), b.clone()]);
        let backward = merge(&[b, a]);
        assert_eq!(forward, backward, "input order must not matter");
        let epochs: Vec<u64> = forward.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 2, 3], "epoch-major despite ticks");
        // Same epoch, same tick: causal kind rank orders the vote
        // before the promotion it enabled.
        assert_eq!(forward[1].kind, EventKind::VoteGranted);
        assert_eq!(forward[2].kind, EventKind::Promotion);
    }

    #[test]
    fn single_primary_check_catches_split_brain() {
        let clean = merge(&[vec![
            ev("n0", 1, 0, EventKind::Bootstrap),
            ev("n1", 2, 10, EventKind::Promotion),
            ev("n0", 3, 20, EventKind::Promotion),
        ]]);
        assert_eq!(check_single_primary(&clean), Ok(()));

        let split = merge(&[vec![
            ev("n0", 2, 10, EventKind::Promotion),
            ev("n1", 2, 11, EventKind::Promotion),
        ]]);
        let err = check_single_primary(&split).unwrap_err();
        assert!(err.contains("epoch 2"), "{err}");
        assert!(err.contains("n0") && err.contains("n1"), "{err}");
    }

    #[test]
    fn global_ring_records_and_resets() {
        let _gate = lock();
        reset();
        emit(ev("n0", 1, 0, EventKind::Bootstrap));
        emit(ev("n0", 2, 5, EventKind::Promotion));
        let newest = recent(10);
        assert_eq!(newest.len(), 2);
        assert_eq!(newest[0].kind, EventKind::Promotion, "newest first");
        assert_eq!(events_recorded(), 2);
        assert!(ring_memory_bytes() > 0);
        reset();
        assert!(recent(10).is_empty());
    }

    #[test]
    fn event_log_writes_and_rotates() {
        let _gate = lock();
        reset();
        let dir = std::env::temp_dir().join(format!("streamlink-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        // Tiny bound forces rotation after a couple of records.
        install_event_log(&path, 400).unwrap();
        for i in 0..8u64 {
            emit(ev("127.0.0.1:7001", i, i * 10, EventKind::Fence));
        }
        uninstall_event_log();

        let current = std::fs::read_to_string(&path).unwrap();
        for line in current.lines() {
            let parsed = ClusterEvent::parse_line(line).expect("parseable event line");
            assert_eq!(parsed.kind, EventKind::Fence);
        }
        let rotated =
            std::fs::read_to_string(crate::trace::rotated_path(&path)).expect("rotated generation");
        assert!(!rotated.is_empty());
        assert!(current.len() as u64 <= 400);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! WAL-shipping replication: the primary's ship buffer + peer registry
//! and the replica's side of a session (pull, apply, snapshot rounds).
//!
//! ## Topology
//!
//! One primary accepts writes; N read replicas pull its WAL over the
//! same TCP protocol port via the `REPL` command family
//! ([`repl_command`]):
//!
//! ```text
//! REPL HELLO <id>            handshake: primary seq + sketch shape
//! REPL PULL <id> <after> <n> up to n WAL entries with seq > after, as
//!            [corr=<id>]     one `WAL_BATCH` frame; or `ERR resync`
//!                            when the range was shed
//! REPL SNAPSHOT              the store as one `SNAPSHOT_FRAME`
//! REPL STATUS                one-line role/lag summary (any node)
//! ```
//!
//! Cluster mode (`--peers`) adds three more subcommands — `REPL LEASE`,
//! `REPL VOTE` and `REPL HANDOFF` — which delegate to
//! [`super::failover`]: lease renewal drives epoch fencing, votes drive
//! automatic promotion, and handoff re-acks a dead timeline's tail on
//! the new primary.
//!
//! ## The link is always binary v3
//!
//! Every link to a primary, a learner's or a voter's, opens with
//! `HELLO v3`, and from then on each response is one
//! [`streamlink_core::codec`] envelope. A `REPL PULL` batch ships as one
//! CRC-covered `WAL_BATCH` record (seqs delta-encoded); a snapshot ships
//! as one `SNAPSHOT_FRAME` whose body is the seq followed by the same v3
//! store-snapshot body a checkpoint writes. `PULL` and `SNAPSHOT` have
//! no text rendering: on an unframed connection they answer `ERR`. A
//! primary that does not answer `OK fmt=v3` fails the handshake.
//!
//! ## Why the primary can never stall
//!
//! Shipping is pull-based over a bounded in-memory ring
//! ([`streamlink_core::ReplLog`]): the insert path appends to the ring
//! under the store write lock and never blocks on any replica. A slow or
//! stuck replica simply falls behind; once the ring sheds its range it
//! is told to resync from a snapshot (durable primaries first try the
//! on-disk WAL tail via [`streamlink_core::journal::read_entries_after`],
//! which is cheaper than a full snapshot).
//!
//! ## Why replicas converge
//!
//! Replicas apply entries through the monotone-seq gate
//! ([`streamlink_core::ReplicaApplier`]), so duplicated or reordered
//! frames never double-count degrees; dropped frames leave gaps that the
//! periodic anti-entropy round repairs by pulling a snapshot and joining
//! it with [`streamlink_core::merge::merge_join`] (slot min / degree max
//! / edge-count max). Experiment E23 asserts byte-exact convergence
//! under randomized drop/duplicate/reorder/crash schedules.
//!
//! ## Failure behavior
//!
//! Every replica runs the one loop in [`super::failover`]: a
//! `--replicate-from` replica is a non-voting learner there, a `--peers`
//! node a voter. The loop reconnects with jittered exponential backoff
//! and resumes from the last applied seq — a replica killed mid-stream
//! loses nothing it already applied. A primary that restarted into a
//! lower seq space is detected at the handshake and answered by
//! installing its snapshot wholesale (`snapshot_round_with`); a
//! durable replica then checkpoints it and discards its old history.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use streamlink_core::journal::{self, JournalEntry};
use streamlink_core::merge::merge_join;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{
    codec, metrics, trace, ApplyOutcome, PullOutcome, ReplLog, ReplicaApplier, SketchConfig,
    SketchStore,
};

use super::protocol::parse_bounded;
use super::{persistence, ServerState, POLL_INTERVAL};

/// Hard cap on entries served per `REPL PULL`, whatever the client asks.
pub const MAX_PULL_BATCH: usize = 65_536;

/// A peer that has not pulled for this long no longer counts as
/// connected in the `repl.replicas_connected` / `repl.max_lag_edges`
/// gauges.
pub const PEER_LIVENESS: Duration = Duration::from_secs(10);

/// Connect timeout for the replica's link to its primary.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(3);

/// Per-socket read/write timeout on the replication link. `REPL PULL`
/// always answers promptly (an empty batch is still a frame), so a
/// healthy link never comes close to this.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Splits an optional trailing `corr=<id>` token off a REPL argument
/// list, stamping the enclosing trace span with the correlation id
/// when one is present. A malformed value is left in place so the
/// caller's arity check rejects it loudly instead of it being parsed
/// as a positional argument.
pub(super) fn take_corr<'a, 'b>(args: &'a [&'b str]) -> (&'a [&'b str], Option<u64>) {
    if let Some(v) = args.last().and_then(|last| last.strip_prefix("corr=")) {
        if let Ok(corr) = v.parse::<u64>() {
            trace::note_corr(corr);
            return (&args[..args.len() - 1], Some(corr));
        }
    }
    (args, None)
}

/// Mints a fresh correlation id: node-seeded, time-mixed, counter-
/// disambiguated, never zero — unique enough to grep one election or
/// replication session out of a merged multi-node timeline.
pub(super) fn new_corr_id(node_id: &str, now_ms: u64) -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    (id_seed(node_id) ^ now_ms.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n << 20)) | 1
}

/// Replica-side tunables, all flag-settable via `--repl-*`.
#[derive(Debug, Clone)]
pub struct ReplicaTuning {
    /// Entries requested per `REPL PULL` (capped at
    /// [`MAX_PULL_BATCH`]).
    pub pull_batch: usize,
    /// Sleep between pulls once caught up.
    pub poll_interval: Duration,
    /// Period between anti-entropy snapshot joins (zero disables the
    /// periodic rounds; resync-on-demand still works).
    pub anti_entropy_every: Duration,
    /// First reconnect backoff after a link failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for ReplicaTuning {
    fn default() -> Self {
        ReplicaTuning {
            pull_batch: 4096,
            poll_interval: Duration::from_millis(100),
            anti_entropy_every: Duration::from_secs(30),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
        }
    }
}

/// Primary-side replication state: the bounded ship ring plus a registry
/// of the replicas that have pulled recently.
pub struct PrimaryRepl {
    log: Mutex<ReplLog>,
    peers: Mutex<HashMap<String, PeerStatus>>,
}

#[derive(Debug, Clone, Copy)]
struct PeerStatus {
    acked_seq: u64,
    last_seen: Instant,
}

/// One registered replica's standing on the primary, as exposed by
/// the per-peer `repl.peer.<id>.{lag_seq,last_seen_ms,state}` gauges.
#[derive(Debug, Clone)]
pub struct PeerOverview {
    /// The replica id it pulls under (its advertised address in
    /// cluster mode).
    pub id: String,
    /// Entries the primary has that this peer has not acked.
    pub lag_seq: u64,
    /// Milliseconds since this peer last pulled.
    pub last_seen_ms: u64,
    /// Whether the peer counts as connected (seen within
    /// [`PEER_LIVENESS`]).
    pub live: bool,
}

impl PrimaryRepl {
    /// A ship ring holding at most `capacity` entries, seeded with the
    /// primary's current WAL high-water mark.
    #[must_use]
    pub fn new(capacity: usize, last_seq: u64) -> Self {
        PrimaryRepl {
            log: Mutex::new(ReplLog::new(capacity, last_seq)),
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// The ship ring, recovering from lock poisoning.
    pub fn log(&self) -> MutexGuard<'_, ReplLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn peers(&self) -> MutexGuard<'_, HashMap<String, PeerStatus>> {
        self.peers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records that replica `id` has applied everything up to
    /// `acked_seq` (it asked for entries strictly after that mark).
    pub(super) fn note_peer(&self, id: &str, acked_seq: u64) {
        self.peers().insert(
            id.to_string(),
            PeerStatus {
                acked_seq,
                last_seen: Instant::now(),
            },
        );
    }

    /// Bytes held by the ship ring (the `mem.repl.buffer` component).
    #[must_use]
    pub fn buffer_bytes(&self) -> usize {
        self.log().memory_bytes()
    }

    /// One row per registered peer — the raw material for the
    /// `repl.peer.<id>.*` gauges and `/clusterz`. Sorted by id so
    /// exposition output is stable across scrapes.
    #[must_use]
    pub fn peer_overview(&self) -> Vec<PeerOverview> {
        let last_seq = self.log().last_seq();
        let peers = self.peers();
        let mut rows: Vec<PeerOverview> = peers
            .iter()
            .map(|(id, status)| {
                let since = status.last_seen.elapsed();
                PeerOverview {
                    id: id.clone(),
                    lag_seq: last_seq.saturating_sub(status.acked_seq),
                    last_seen_ms: u64::try_from(since.as_millis()).unwrap_or(u64::MAX),
                    live: since <= PEER_LIVENESS,
                }
            })
            .collect();
        drop(peers);
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        rows
    }

    /// `(connected replicas, worst lag in edges)` over peers seen within
    /// [`PEER_LIVENESS`].
    #[must_use]
    pub fn lag_overview(&self) -> (usize, u64) {
        let last_seq = self.log().last_seq();
        let peers = self.peers();
        let mut connected = 0usize;
        let mut max_lag = 0u64;
        for status in peers.values() {
            if status.last_seen.elapsed() <= PEER_LIVENESS {
                connected += 1;
                max_lag = max_lag.max(last_seq.saturating_sub(status.acked_seq));
            }
        }
        (connected, max_lag)
    }

    /// Refreshes the primary-side replication gauges.
    pub fn update_gauges(&self) {
        let (connected, max_lag) = self.lag_overview();
        let m = metrics::global();
        m.repl_replicas_connected.set(connected as u64);
        m.repl_max_lag_edges.set(max_lag);
    }
}

/// Replica-side shared state: how far we have applied and the tunables
/// the replication loop runs with. Where the primary is lives in the
/// cluster runtime ([`super::failover::ClusterRuntime::believed_primary`]).
pub struct ReplicaRuntime {
    /// This replica's id, echoed in `REPL PULL` so the primary's peer
    /// registry and lag gauges can tell replicas apart.
    pub id: String,
    /// Replica lag (edges) beyond which `/healthz` reports 503.
    pub lag_slo: u64,
    /// Puller tunables.
    pub tuning: ReplicaTuning,
    applier: Mutex<ReplicaApplier>,
    applied_seq: AtomicU64,
    persisted_seq: AtomicU64,
    primary_seq: AtomicU64,
    connected: AtomicBool,
    /// Correlation id threaded through this runtime's `REPL PULL`s
    /// (0 = unset; set per session by the cluster loop).
    corr_id: AtomicU64,
}

impl ReplicaRuntime {
    /// A fresh runtime that has applied nothing yet.
    #[must_use]
    pub fn new(id: String, lag_slo: u64, tuning: ReplicaTuning) -> Self {
        ReplicaRuntime {
            id,
            lag_slo,
            tuning,
            applier: Mutex::new(ReplicaApplier::new(0)),
            applied_seq: AtomicU64::new(0),
            persisted_seq: AtomicU64::new(0),
            primary_seq: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            corr_id: AtomicU64::new(0),
        }
    }

    /// Sets the correlation id every subsequent `REPL PULL` carries
    /// (0 clears it).
    pub fn set_corr(&self, corr: u64) {
        self.corr_id.store(corr, Ordering::Relaxed);
    }

    /// The current pull correlation id, if one is set.
    #[must_use]
    pub fn corr(&self) -> Option<u64> {
        match self.corr_id.load(Ordering::Relaxed) {
            0 => None,
            c => Some(c),
        }
    }

    pub(super) fn applier(&self) -> MutexGuard<'_, ReplicaApplier> {
        self.applier.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-seats the dedup gate at `seq`, treating everything up to it as
    /// both applied and locally durable. Used when a durable replica
    /// boots from its own journal, and when a demoted primary rejoins as
    /// a replica of the new timeline.
    pub fn seed_applied(&self, seq: u64) {
        self.applier().reset_to(seq);
        self.applied_seq.store(seq, Ordering::Relaxed);
        self.persisted_seq.store(seq, Ordering::Relaxed);
    }

    /// Highest primary seq reflected in the local store.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Relaxed)
    }

    /// Highest primary seq that is durable on this node's own disk (for
    /// in-memory replicas this tracks `applied_seq`, since RAM is all
    /// the durability they have).
    #[must_use]
    pub fn persisted_seq(&self) -> u64 {
        self.persisted_seq.load(Ordering::Relaxed)
    }

    pub(super) fn note_persisted(&self, seq: u64) {
        self.persisted_seq.fetch_max(seq, Ordering::Relaxed);
    }

    pub(super) fn set_persisted(&self, seq: u64) {
        self.persisted_seq.store(seq, Ordering::Relaxed);
    }

    /// The primary's WAL position as of the last exchange.
    #[must_use]
    pub fn primary_seq(&self) -> u64 {
        self.primary_seq.load(Ordering::Relaxed)
    }

    /// Records a primary seq observation (never lowers the mark — a
    /// stale `OK` line racing a snapshot must not shrink reported lag).
    pub fn note_primary_seq(&self, seq: u64) {
        self.primary_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Replication lag in edges: entries the primary has that this
    /// replica has not applied.
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.primary_seq().saturating_sub(self.applied_seq())
    }

    /// Durable lag in edges: entries the primary has that this replica
    /// has not journaled locally. This is the mark that matters for
    /// failover (a promoted replica can only serve what survived on its
    /// own disk), so the SLO judges it rather than the in-memory mark.
    #[must_use]
    pub fn durable_lag(&self) -> u64 {
        self.primary_seq().saturating_sub(self.persisted_seq())
    }

    /// Whether the lag SLO is currently violated (the `/healthz` leg).
    /// Judged on [`Self::durable_lag`].
    #[must_use]
    pub fn lag_exceeds_slo(&self) -> bool {
        self.durable_lag() > self.lag_slo
    }

    /// Whether the replication loop currently holds a live link to the
    /// primary.
    #[must_use]
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    pub(super) fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::Relaxed);
    }

    /// Refreshes the replica-side replication gauges.
    pub fn update_gauges(&self) {
        let m = metrics::global();
        m.repl_connected.set(u64::from(self.connected()));
        m.repl_applied_seq.set(self.applied_seq());
        m.repl_persisted_seq.set(self.persisted_seq());
        m.repl_lag_edges.set(self.lag());
    }
}

// ---------------------------------------------------------------------
// Primary side: serving the REPL command family.
// ---------------------------------------------------------------------

/// Executes one `REPL <sub>` command (the text after the `REPL` word is
/// in `args`). Called from the protocol dispatcher; every malformed
/// input maps to an `ERR` line.
#[must_use]
pub fn repl_command(state: &ServerState, args: &[&str]) -> String {
    let Some(sub) = args.first() else {
        return "ERR REPL takes a subcommand (HELLO, PULL, SNAPSHOT, STATUS, LEASE, VOTE, HANDOFF)"
            .into();
    };
    match sub.to_ascii_uppercase().as_str() {
        "STATUS" => status_line(state),
        "LEASE" => super::failover::lease_command(state, args),
        "VOTE" => super::failover::vote_command(state, args),
        "HANDOFF" => super::failover::handoff_command(state, args),
        "HELLO" => {
            let Some(repl) = serving_repl(state) else {
                return repl_unavailable(state);
            };
            match args {
                [_, id] => {
                    repl.note_peer(id, 0);
                    let store = state.read_store();
                    let cfg = store.config();
                    let last_seq = repl.log().last_seq();
                    let cluster_part = match state.cluster() {
                        Some(cluster) => {
                            format!(" epoch={} tl={}", cluster.epoch(), cluster.timeline_spec())
                        }
                        None => String::new(),
                    };
                    format!(
                        "OK repl hello primary_seq={last_seq} slots={} seed={} \
                         backend={HELLO_BACKEND}{cluster_part}",
                        cfg.slots(),
                        cfg.base_seed(),
                    )
                }
                _ => "ERR REPL HELLO takes exactly one replica id".into(),
            }
        }
        "PULL" | "SNAPSHOT" => format!(
            "ERR REPL {sub} ships binary frames; send HELLO v3 first",
            sub = sub.to_ascii_uppercase()
        ),
        other => format!(
            "ERR unknown REPL subcommand {other:?} \
             (HELLO, PULL, SNAPSHOT, STATUS, LEASE, VOTE, HANDOFF)"
        ),
    }
}

/// The body of `REPL PULL`. `Ok` carries the batch and the ring's
/// high-water seq; `Err` carries a complete `ERR ...` line.
fn pull_entries(state: &ServerState, args: &[&str]) -> Result<(Vec<JournalEntry>, u64), String> {
    let Some(repl) = serving_repl(state) else {
        return Err(repl_unavailable(state));
    };
    let (args, _corr) = take_corr(args);
    let [_, id, after, max] = args else {
        return Err("ERR REPL PULL takes <id> <after_seq> <max> [corr=<id>]".into());
    };
    let after = parse_bounded("after_seq", after, 0, u64::MAX).map_err(|e| format!("ERR {e}"))?;
    let max = parse_bounded("batch", max, 1, MAX_PULL_BATCH as u64)
        .map_err(|e| format!("ERR {e}"))? as usize;
    repl.note_peer(id, after);
    let (outcome, last_seq) = {
        let log = repl.log();
        (log.entries_after(after, max), log.last_seq())
    };
    let shipped = |entries: Vec<JournalEntry>| {
        metrics::global()
            .repl_entries_shipped
            .add(entries.len() as u64);
        Ok((entries, last_seq))
    };
    match outcome {
        PullOutcome::Entries(entries) => shipped(entries),
        PullOutcome::ResyncRequired => {
            // Durable primaries keep the full WAL on disk; serve the
            // tail from there before forcing a snapshot.
            if let Some(dir) = state.persist_guard().map(|p| p.dir.clone()) {
                if let Ok(entries) = journal::read_entries_after(&dir, after, max) {
                    if entries.first().map(|e| e.seq) == Some(after + 1) {
                        return shipped(entries);
                    }
                }
            }
            metrics::global().repl_resyncs.incr();
            Err(format!(
                "ERR resync: entries after seq {after} are no longer buffered; \
                 pull REPL SNAPSHOT"
            ))
        }
    }
}

/// Framed `REPL PULL`: the whole batch as one `WAL_BATCH` envelope;
/// errors ship as a `TEXT_FRAME` carrying the usual `ERR` line. Returns
/// `(frame bytes, is_err)`.
pub(super) fn repl_pull_frame(state: &ServerState, args: &[&str]) -> (Vec<u8>, bool) {
    match pull_entries(state, args) {
        Ok((entries, last_seq)) => (codec::encode_wal_batch(&entries, last_seq), false),
        Err(line) => (codec::encode_text_frame(&line), true),
    }
}

/// Framed `REPL SNAPSHOT`: the store as one `SNAPSHOT_FRAME` envelope
/// (its CRC covers the seq and the body); errors ship as a `TEXT_FRAME`
/// carrying an `ERR` line. Returns `(frame bytes, is_err)`.
pub(super) fn repl_snapshot_frame(state: &ServerState) -> (Vec<u8>, bool) {
    let Some(repl) = serving_repl(state) else {
        return (codec::encode_text_frame(&repl_unavailable(state)), true);
    };
    // Holding the store read lock blocks inserts, and inserts record
    // into the ring under the write lock — so the ring's last_seq read
    // here is exactly the snapshot's high-water mark.
    let (snap, seq) = {
        let store = state.read_store();
        let seq = repl.log().last_seq();
        (StoreSnapshot::capture(&store), seq)
    };
    snapshot_reply(codec::encode_snapshot_frame(seq, &snap))
}

/// Maps an encoded snapshot transfer to the frame the primary sends:
/// the `SNAPSHOT_FRAME` itself, or an `ERR` text frame when the store is
/// past the codec's body limit (a frame the replica could not decode is
/// never shipped).
fn snapshot_reply(encoded: Result<Vec<u8>, codec::CodecError>) -> (Vec<u8>, bool) {
    match encoded {
        Ok(frame) => {
            metrics::global().repl_snapshots_shipped.incr();
            (frame, false)
        }
        Err(e) => (
            codec::encode_text_frame(&format!("ERR cannot ship snapshot: {e}")),
            true,
        ),
    }
}

/// The primary-side replication handle, unless this node is a replica
/// (replicas do not re-ship).
fn serving_repl(state: &ServerState) -> Option<&PrimaryRepl> {
    if state.is_replica() {
        None
    } else {
        state.primary_repl()
    }
}

/// The machine-parseable redirect every write/serve refusal carries:
/// `ERR readonly MOVED <addr> ...`. The fourth whitespace token is the
/// primary's address (`?` when no primary is currently known), so
/// clients can follow it with `split_whitespace().nth(3)`.
pub(super) fn readonly_moved(state: &ServerState) -> String {
    format!(
        "ERR readonly MOVED {} (this node is a read replica; retry on the primary)",
        primary_hint(state)
    )
}

/// Where this node believes the primary is, or `?` when it does not
/// know — the one address `MOVED`, `REPL STATUS` and `/healthz` report.
pub(super) fn primary_hint(state: &ServerState) -> String {
    state
        .cluster()
        .and_then(|cluster| cluster.believed_primary())
        .unwrap_or_else(|| "?".into())
}

fn repl_unavailable(state: &ServerState) -> String {
    if state.is_replica() {
        readonly_moved(state)
    } else {
        "ERR replication disabled (--repl-buffer 0)".into()
    }
}

/// The `REPL STATUS` line for either role. Cluster nodes append their
/// fencing epoch; non-cluster lines keep the exact v2 shape.
fn status_line(state: &ServerState) -> String {
    let epoch_part = match state.cluster() {
        Some(cluster) => format!(" epoch={}", cluster.epoch()),
        None => String::new(),
    };
    if let Some(runtime) = state.replica_runtime().filter(|_| state.is_replica()) {
        return format!(
            "OK role=replica primary={} connected={} applied_seq={} persisted_seq={} \
             primary_seq={} lag_edges={} lag_slo={}{epoch_part}",
            primary_hint(state),
            u64::from(runtime.connected()),
            runtime.applied_seq(),
            runtime.persisted_seq(),
            runtime.primary_seq(),
            runtime.lag(),
            runtime.lag_slo,
        );
    }
    match state.primary_repl() {
        Some(repl) => {
            let (last_seq, buffered) = {
                let log = repl.log();
                (log.last_seq(), log.buffered())
            };
            let (connected, max_lag) = repl.lag_overview();
            // Cluster primaries also say where they believe the
            // primary is (themselves, unless mid-transition) — the
            // same address the `MOVED` hint would carry.
            let believed_part = match state.cluster() {
                Some(_) => format!(" believed_primary={}", primary_hint(state)),
                None => String::new(),
            };
            format!(
                "OK role=primary last_seq={last_seq} buffered={buffered} \
                 replicas_connected={connected} max_lag_edges={max_lag}{epoch_part}{believed_part}"
            )
        }
        None => "OK role=primary replication=disabled".into(),
    }
}

/// The `backend=` value of `REPL HELLO`. Every sketch uses the one hash
/// family, but peers of older builds require the field, so it is still
/// sent; any other value names a family this build cannot hash with, and
/// fails the handshake.
const HELLO_BACKEND: &str = "mixer";

// ---------------------------------------------------------------------
// Replica side: one session's pulls, applies and snapshot rounds.
// ---------------------------------------------------------------------

/// Folds a node id into a jitter seed (distinct ids, distinct phases).
pub(super) fn id_seed(id: &str) -> u64 {
    id.bytes().fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| {
        acc.rotate_left(8) ^ u64::from(b)
    })
}

/// One reconnect backoff step: double, saturating at the ceiling.
pub(super) fn next_backoff(cur: Duration, max: Duration) -> Duration {
    cur.saturating_mul(2).min(max)
}

/// Sends `REPL HELLO` and parses the reply. No local side effects.
pub(super) fn say_hello(id: &str, link: &mut PrimaryLink) -> io::Result<Hello> {
    link.send(&format!("REPL HELLO {id}"))?;
    let line = link.recv()?;
    parse_hello(&line).ok_or_else(|| bad_data(format!("bad REPL HELLO response: {line:?}")))
}

/// Adopts the primary's sketch shape when this node is still empty;
/// errors on a genuine config mismatch.
pub(super) fn adopt_config(
    state: &ServerState,
    runtime: &ReplicaRuntime,
    hello: &Hello,
) -> io::Result<()> {
    let primary_cfg = SketchConfig::with_slots(hello.slots).seed(hello.seed);
    let mut store = state.write_store();
    let mut applier = runtime.applier();
    if *store.config() != primary_cfg {
        if store.vertex_count() == 0 && store.edges_processed() == 0 {
            // Fresh replica: adopt the primary's sketch shape.
            *store = SketchStore::new(primary_cfg);
            applier.reset_to(0);
            runtime.set_persisted(0);
        } else {
            return Err(bad_data(format!(
                "sketch config mismatch with primary (local {:?}, primary {:?}); \
                 wipe this replica or fix the flags",
                store.config(),
                primary_cfg
            )));
        }
    }
    runtime
        .applied_seq
        .store(applier.applied_seq(), Ordering::Relaxed);
    Ok(())
}

pub(super) struct Hello {
    pub(super) primary_seq: u64,
    slots: usize,
    seed: u64,
    /// The remote's fencing epoch (cluster primaries only).
    pub(super) epoch: Option<u64>,
    /// The remote's rendered timeline (cluster primaries only).
    pub(super) timeline: Option<String>,
}

fn parse_hello(line: &str) -> Option<Hello> {
    if !line.starts_with("OK repl hello ") {
        return None;
    }
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .map(str::to_string)
    };
    if field("backend=")? != HELLO_BACKEND {
        return None;
    }
    Some(Hello {
        primary_seq: field("primary_seq=")?.parse().ok()?,
        slots: field("slots=")?.parse().ok()?,
        seed: field("seed=")?.parse().ok()?,
        epoch: field("epoch=").and_then(|v| v.parse().ok()),
        timeline: field("tl="),
    })
}

/// One `REPL PULL` round. Returns whether the round made progress (so
/// the caller knows to skip the idle sleep).
///
/// The response is one `WAL_BATCH` envelope, or a `TEXT_FRAME` carrying
/// an `ERR` line. The envelope CRC covers the whole batch, so there is
/// no per-entry re-verification.
pub(super) fn pull_once(
    state: &ServerState,
    runtime: &ReplicaRuntime,
    link: &mut PrimaryLink,
) -> io::Result<bool> {
    let after = runtime.applied_seq();
    let batch = runtime.tuning.pull_batch.min(MAX_PULL_BATCH);
    let corr_part = runtime
        .corr()
        .map_or_else(String::new, |c| format!(" corr={c}"));
    link.send(&format!(
        "REPL PULL {} {after} {batch}{corr_part}",
        runtime.id
    ))?;
    match link.recv_frame()? {
        (codec::MODE_WAL_BATCH, body) => {
            let (entries, primary_seq) =
                codec::decode_wal_batch_body(&body).map_err(io::Error::from)?;
            let applied_any = !entries.is_empty();
            for entry in entries {
                apply_entry(state, runtime, entry);
            }
            runtime.note_primary_seq(primary_seq);
            Ok(applied_any)
        }
        (codec::MODE_TEXT_FRAME, body) => {
            let line = text_frame(body)?;
            if line.starts_with("ERR resync") {
                snapshot_round_with(state, runtime, link, false)?;
                Ok(true)
            } else {
                Err(bad_data(format!("primary rejected pull: {line}")))
            }
        }
        (mode, _) => Err(bad_data(format!("unexpected frame mode {mode:#04x}"))),
    }
}

/// Applies one shipped entry through the seq-dedup gate, under the store
/// write lock (lock order: store, then applier, then persist — a strict
/// extension of the insert path's store → persist order).
///
/// Durable replicas journal the primary's entry (with the primary's seq
/// — the journal tolerates gaps) before applying it, so a restart
/// resumes from the local disk seq instead of seq 0, and a promoted
/// replica's journal becomes the new timeline's WAL.
pub(super) fn apply_entry(state: &ServerState, runtime: &ReplicaRuntime, entry: JournalEntry) {
    let mut store = state.write_store();
    let mut applier = runtime.applier();
    if entry.seq > applier.applied_seq() {
        match state.persist_guard() {
            Some(mut persist) => match persist.journal.append(entry) {
                Ok(()) => runtime.note_persisted(entry.seq),
                Err(e) => {
                    // Keep applying in memory: availability over local
                    // durability. persisted_seq stops advancing, so the
                    // durable-lag SLO (and /healthz) surface the stall.
                    eprintln!(
                        "replication: journal append failed at seq {}: {e}",
                        entry.seq
                    );
                }
            },
            None => runtime.note_persisted(entry.seq),
        }
    }
    match applier.offer(&mut store, entry) {
        ApplyOutcome::Applied => {
            metrics::global().repl_entries_applied.incr();
        }
        ApplyOutcome::Deduped => {
            metrics::global().repl_entries_deduped.incr();
        }
    }
    runtime
        .applied_seq
        .store(applier.applied_seq(), Ordering::Relaxed);
}

/// One snapshot round: pull a primary snapshot and union it into the
/// local store with the idempotent join (anti-entropy), then advance the
/// dedup gate to the snapshot's seq. A snapshot behind our applied mark
/// is from another timeline and replaces the store wholesale, as does
/// any snapshot with `force_replace` — the dead-timeline path, where the
/// local seq numbers no longer mean anything.
pub(super) fn snapshot_round_with(
    state: &ServerState,
    runtime: &ReplicaRuntime,
    link: &mut PrimaryLink,
    force_replace: bool,
) -> io::Result<()> {
    link.send("REPL SNAPSHOT")?;
    let (seq, incoming) = match link.recv_frame()? {
        (codec::MODE_SNAPSHOT_FRAME, body) => {
            codec::load_snapshot_frame(&body).map_err(io::Error::from)?
        }
        (codec::MODE_TEXT_FRAME, body) => {
            let line = text_frame(body)?;
            return Err(bad_data(format!("primary refused snapshot: {line}")));
        }
        (codec::MODE_LZ_SNAPSHOT_FRAME, _) => {
            return Err(bad_data(
                "primary sent a pre-v3 snapshot frame; upgrade it to this version",
            ))
        }
        (mode, _) => return Err(bad_data(format!("unexpected frame mode {mode:#04x}"))),
    };
    let replaced = {
        let mut store = state.write_store();
        let mut applier = runtime.applier();
        let fresh = store.vertex_count() == 0 && store.edges_processed() == 0;
        if *store.config() != *incoming.config() && !fresh {
            return Err(bad_data("snapshot config mismatch with local store"));
        }
        let replace = fresh || force_replace || seq < applier.applied_seq();
        if replace {
            // An empty store adopts the snapshot (and its sketch shape);
            // otherwise the snapshot is from a different timeline than
            // our applied mark (a primary reset, or a post-failover
            // rejoin) and our seqs no longer mean anything.
            if !fresh {
                metrics::global().repl_resyncs.incr();
            }
            *store = incoming;
            applier.reset_to(seq);
        } else {
            merge_join(&mut store, &incoming)
                .map_err(|e| bad_data(format!("anti-entropy join failed: {e}")))?;
            applier.advance_to(seq);
        }
        runtime
            .applied_seq
            .store(applier.applied_seq(), Ordering::Relaxed);
        replace
    };
    if replaced {
        // The old timeline's primary seq means nothing here either.
        runtime.primary_seq.store(seq, Ordering::Relaxed);
    } else {
        runtime.note_primary_seq(seq);
    }
    realign_durable(state, runtime, seq, replaced);
    Ok(())
}

/// Makes a snapshot round durable on a node with a data directory. A
/// wholesale replace makes the installed store the directory's whole
/// history ([`persistence::reset_to_store`]), so a restart can bring
/// back nothing of the dead timeline. A join that moved the applied mark
/// past the journal realigns the journal and checkpoints, so a restart
/// does not replay a journal with a hole.
fn realign_durable(state: &ServerState, runtime: &ReplicaRuntime, seq: u64, replaced: bool) {
    let Some(next_seq) = state.persist_guard().map(|p| p.journal.next_seq()) else {
        // In-memory node: RAM is the only durability there is.
        runtime.set_persisted(runtime.applied_seq());
        return;
    };
    let realigned = if replaced {
        persistence::reset_to_store(state, seq)
    } else if next_seq != seq + 1 {
        state
            .persist_guard()
            .map_or(Ok(()), |mut p| p.journal.rotate(seq + 1))
            .and_then(|()| persistence::checkpoint_now(state).map(drop))
    } else {
        runtime.note_persisted(seq);
        return;
    };
    match realigned {
        Ok(()) => runtime.set_persisted(seq),
        Err(e) => eprintln!("replication: cannot make the snapshot at seq {seq} durable: {e}"),
    }
}

/// The replica's client connection to the primary. Requests are text
/// lines; responses are v3 envelopes, negotiated by `HELLO v3` at
/// connect time.
pub(super) struct PrimaryLink {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PrimaryLink {
    /// Connects and switches the link to framed responses.
    ///
    /// # Errors
    /// Fails on connect/IO errors, and when the remote does not answer
    /// `HELLO v3` with `OK fmt=v3` (there is no text fallback).
    pub(super) fn connect(addr: &str) -> io::Result<Self> {
        let target = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| bad_data(format!("cannot resolve primary address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&target, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut link = PrimaryLink {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        // The negotiation reply is the one plain text line on the link.
        link.send("HELLO v3")?;
        let mut line = String::new();
        if link.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "primary closed the replication link",
            ));
        }
        let reply = line.trim_end();
        if reply != "OK fmt=v3" {
            return Err(bad_data(format!(
                "{addr} did not accept HELLO v3: {reply:?}"
            )));
        }
        Ok(link)
    }

    pub(super) fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Receives one response that must be a `TEXT_FRAME`, as its text.
    pub(super) fn recv(&mut self) -> io::Result<String> {
        match self.recv_frame()? {
            (codec::MODE_TEXT_FRAME, body) => text_frame(body),
            (mode, _) => Err(bad_data(format!(
                "expected a text frame, got mode {mode:#04x}"
            ))),
        }
    }

    fn recv_frame(&mut self) -> io::Result<(u8, Vec<u8>)> {
        codec::read_envelope_blocking(&mut self.reader)
    }
}

/// A `TEXT_FRAME` body as a string.
fn text_frame(body: Vec<u8>) -> io::Result<String> {
    String::from_utf8(body).map_err(|_| bad_data("text frame not UTF-8"))
}

pub(super) fn bad_data(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Sleeps up to `total`, polling the shutdown flag so draining stays
/// prompt even mid-backoff.
pub(super) fn sleep_poll(state: &ServerState, total: Duration) {
    let deadline = Instant::now() + total;
    while !state.shutdown_requested() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(POLL_INTERVAL.min(deadline - now));
    }
}

/// Minimal multiplicative congruential generator for backoff jitter —
/// quality does not matter here, only cheap decorrelation.
pub(super) struct Lcg(u64);

impl Lcg {
    pub(super) fn new(seed: u64) -> Self {
        Lcg(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }
}

/// `base` scaled to a uniform value in `[0.75 * base, 1.25 * base)`.
pub(super) fn jittered(rng: &mut Lcg, base: Duration) -> Duration {
    let nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let spread = nanos / 2;
    let offset = if spread == 0 { 0 } else { rng.next() % spread };
    Duration::from_nanos(nanos - spread / 2 + offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::failover::{replica_session, Membership};
    use crate::server::testkit::{self, scripted};
    use crate::server::{ServerConfig, ServerState};
    use graphstream::VertexId;
    use std::sync::Arc;
    use streamlink_core::journal::FsyncPolicy;

    fn primary_state() -> ServerState {
        let store = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        ServerState::in_memory(store, ServerConfig::default())
    }

    /// A framed `REPL PULL`: `(entries, primary_seq)` from a `WAL_BATCH`
    /// frame, or the `ERR` line of a `TEXT_FRAME`.
    fn pull(state: &ServerState, args: &[&str]) -> Result<(Vec<JournalEntry>, u64), String> {
        let (frame, is_err) = repl_pull_frame(state, args);
        let env = codec::decode_envelope(&frame).expect("valid envelope");
        assert_eq!(env.consumed, frame.len());
        match env.mode {
            codec::MODE_WAL_BATCH => {
                assert!(!is_err);
                Ok(codec::decode_wal_batch_body(env.body).unwrap())
            }
            codec::MODE_TEXT_FRAME => {
                assert!(is_err);
                Err(String::from_utf8(env.body.to_vec()).unwrap())
            }
            mode => panic!("unexpected frame mode {mode:#04x}"),
        }
    }

    fn seqs(entries: &[JournalEntry]) -> Vec<u64> {
        entries.iter().map(|e| e.seq).collect()
    }

    fn replica_state() -> (ServerState, Arc<ReplicaRuntime>) {
        let store = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        let (state, runtime, _cluster) = testkit::learner("127.0.0.1:1", "r1", 100_000, store);
        (state, runtime)
    }

    #[test]
    fn hello_reports_seq_and_sketch_shape() {
        let state = primary_state();
        state.insert_edge(VertexId(1), VertexId(2)).unwrap();
        let reply = repl_command(&state, &["HELLO", "r1"]);
        assert_eq!(
            reply,
            "OK repl hello primary_seq=1 slots=32 seed=5 backend=mixer"
        );
        let parsed = parse_hello(&reply).expect("round-trips");
        assert_eq!(parsed.primary_seq, 1);
        assert_eq!(parsed.slots, 32);
        assert_eq!(parsed.seed, 5);
    }

    #[test]
    fn unframed_pull_and_snapshot_answer_err() {
        let state = primary_state();
        state.insert_edge(VertexId(1), VertexId(2)).unwrap();
        let reply = repl_command(&state, &["PULL", "r1", "0", "10"]);
        assert_eq!(
            reply,
            "ERR REPL PULL ships binary frames; send HELLO v3 first"
        );
        let reply = repl_command(&state, &["snapshot"]);
        assert_eq!(
            reply,
            "ERR REPL SNAPSHOT ships binary frames; send HELLO v3 first"
        );
    }

    #[test]
    fn pull_frame_ships_a_wal_batch_envelope() {
        let state = primary_state();
        for i in 1..=5u64 {
            state.insert_edge(VertexId(i), VertexId(i + 100)).unwrap();
        }
        let (frame, closing) = repl_pull_frame(&state, &["PULL", "r1", "2", "10"]);
        assert!(!closing);
        let env = codec::decode_envelope(&frame).expect("valid envelope");
        assert_eq!(env.mode, codec::MODE_WAL_BATCH);
        assert_eq!(env.consumed, frame.len());
        let (entries, primary_seq) = codec::decode_wal_batch_body(env.body).unwrap();
        assert_eq!(primary_seq, 5);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(entries[0].u, VertexId(3));
        assert_eq!(entries[0].v, VertexId(103));
    }

    #[test]
    fn pull_frame_errors_arrive_as_text_frames() {
        let state = primary_state();
        // Bad batch argument: over the cap.
        let over = (MAX_PULL_BATCH + 1).to_string();
        let (frame, closing) = repl_pull_frame(&state, &["PULL", "r1", "0", &over]);
        assert!(closing);
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_TEXT_FRAME);
        let line = std::str::from_utf8(env.body).unwrap();
        assert!(line.starts_with("ERR bad-arg batch"), "{line}");

        // Malformed after_seq gets the same uniform wording.
        let (frame, _) = repl_pull_frame(&state, &["PULL", "r1", "-1", "10"]);
        let env = codec::decode_envelope(&frame).unwrap();
        let line = std::str::from_utf8(env.body).unwrap();
        assert!(line.starts_with("ERR bad-arg after_seq"), "{line}");
    }

    #[test]
    fn pull_batch_above_cap_is_rejected() {
        let state = primary_state();
        state.insert_edge(VertexId(1), VertexId(2)).unwrap();
        let over = (MAX_PULL_BATCH + 1).to_string();
        let err = pull(&state, &["PULL", "r1", "0", &over]).unwrap_err();
        assert!(err.starts_with("ERR bad-arg batch"), "{err}");
        let err = pull(&state, &["PULL", "r1", "0", "0"]).unwrap_err();
        assert!(err.starts_with("ERR bad-arg batch"), "{err}");
        // The cap itself is fine.
        let at_cap = MAX_PULL_BATCH.to_string();
        let (entries, primary_seq) = pull(&state, &["PULL", "r1", "0", &at_cap]).unwrap();
        assert_eq!((seqs(&entries), primary_seq), (vec![1], 1));
    }

    #[test]
    fn pull_past_the_ring_requires_resync() {
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        let state = ServerState::in_memory(
            store,
            ServerConfig {
                repl_buffer: 4,
                ..ServerConfig::default()
            },
        );
        for i in 1..=10u64 {
            state.insert_edge(VertexId(i), VertexId(i + 50)).unwrap();
        }
        let err = pull(&state, &["PULL", "r1", "0", "100"]).unwrap_err();
        assert!(err.starts_with("ERR resync"), "{err}");
        // The tail that is still buffered serves fine.
        let (entries, primary_seq) = pull(&state, &["PULL", "r1", "6", "100"]).unwrap();
        assert_eq!((seqs(&entries), primary_seq), (vec![7, 8, 9, 10], 10));
    }

    #[test]
    fn snapshot_response_is_integrity_checkable() {
        let state = primary_state();
        for i in 1..=7u64 {
            state
                .insert_edge(VertexId(i), VertexId(i % 3 + 200))
                .unwrap();
        }
        let (frame, is_err) = repl_snapshot_frame(&state);
        assert!(!is_err);
        let env = codec::decode_envelope(&frame).expect("CRC-verified frame");
        assert_eq!(env.mode, codec::MODE_SNAPSHOT_FRAME);
        assert_eq!(env.consumed, frame.len());
        // After the seq varint the body is byte-identical to the body of
        // the v3 snapshot file a checkpoint writes for the same store.
        let mut pos = 0;
        assert_eq!(codec::read_varint(env.body, &mut pos), Ok(7));
        let file =
            codec::encode_store_snapshot(&StoreSnapshot::capture(&state.read_store())).unwrap();
        assert_eq!(
            &env.body[pos..],
            codec::decode_envelope(&file).unwrap().body
        );
        // A flipped bit anywhere fails the envelope CRC.
        let mut rotten = frame.clone();
        rotten[frame.len() / 2] ^= 0x10;
        assert!(codec::decode_envelope(&rotten).is_err());

        // A replica installs it over a framed link.
        let (replica, runtime) = replica_state();
        let (addr, primary) = scripted(b"OK fmt=v3\n", vec![frame]);
        let mut link = PrimaryLink::connect(&addr).unwrap();
        snapshot_round_with(&replica, &runtime, &mut link, false).unwrap();
        primary.join().unwrap();
        assert_eq!(runtime.applied_seq(), 7);
        let (got, want) = (replica.read_store(), state.read_store());
        assert_eq!(got.edges_processed(), 7);
        for v in want.vertices() {
            assert_eq!(got.sketch(v), want.sketch(v), "sketch at {v}");
            assert_eq!(got.degree(v), want.degree(v));
        }
    }

    #[test]
    fn replica_refuses_a_pre_v3_snapshot_frame() {
        // The retired 0x06 transfer (seq, raw length, LZ-compressed JSON)
        // is refused on its mode byte, never decoded or installed.
        let (replica, runtime) = replica_state();
        let frame = codec::encode_envelope(codec::MODE_LZ_SNAPSHOT_FRAME, b"{\"config\":");
        let (addr, primary) = scripted(b"OK fmt=v3\n", vec![frame]);
        let mut link = PrimaryLink::connect(&addr).unwrap();
        let err = snapshot_round_with(&replica, &runtime, &mut link, false).unwrap_err();
        primary.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("pre-v3 snapshot frame"), "{err}");
        assert_eq!(runtime.applied_seq(), 0);
        assert_eq!(replica.read_store().vertex_count(), 0);
    }

    #[test]
    fn primary_refuses_snapshots_past_the_frame_limit() {
        // A store too large for one frame is an `ERR` text frame, never a
        // SNAPSHOT_FRAME the replica would refuse. Checked at the limit
        // without building a body.
        let err = codec::CodecError::TooLarge("record body length");
        let (frame, is_err) = snapshot_reply(Err(err));
        assert!(is_err);
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_TEXT_FRAME);
        assert_eq!(
            env.body,
            b"ERR cannot ship snapshot: record body length exceeds hard limit"
        );
        let (ok, is_err) = snapshot_reply(Ok(vec![1, 2, 3]));
        assert_eq!((ok, is_err), (vec![1, 2, 3], false));
    }

    #[test]
    fn peer_registry_feeds_lag_overview() {
        let state = primary_state();
        for i in 1..=20u64 {
            state.insert_edge(VertexId(i), VertexId(i + 70)).unwrap();
        }
        pull(&state, &["PULL", "a", "20", "10"]).unwrap();
        pull(&state, &["PULL", "b", "5", "10"]).unwrap();
        let repl = state.primary_repl().expect("primary has a ship ring");
        let (connected, max_lag) = repl.lag_overview();
        assert_eq!(connected, 2);
        assert_eq!(max_lag, 15);
        let status = repl_command(&state, &["STATUS"]);
        assert_eq!(
            status,
            "OK role=primary last_seq=20 buffered=20 replicas_connected=2 max_lag_edges=15"
        );
    }

    #[test]
    fn pull_accepts_a_trailing_corr_token_and_peer_overview_reports_rows() {
        let state = primary_state();
        for i in 1..=10u64 {
            state.insert_edge(VertexId(i), VertexId(i + 70)).unwrap();
        }
        let reply = pull(&state, &["PULL", "a", "10", "10", "corr=123"]);
        assert_eq!(reply, Ok((Vec::new(), 10)));
        pull(&state, &["PULL", "b", "4", "10"]).unwrap();
        let repl = state.primary_repl().expect("primary has a ship ring");
        let rows = repl.peer_overview();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "a");
        assert_eq!(rows[0].lag_seq, 0);
        assert!(rows[0].live);
        assert_eq!(rows[1].id, "b");
        assert_eq!(rows[1].lag_seq, 6);
        // A malformed corr value fails the arity check loudly.
        let err = pull(&state, &["PULL", "a", "0", "5", "corr=zap"]).unwrap_err();
        assert!(err.starts_with("ERR REPL PULL takes"), "{err}");
    }

    #[test]
    fn corr_ids_are_nonzero_and_distinct() {
        let a = new_corr_id("127.0.0.1:7001", 5);
        let b = new_corr_id("127.0.0.1:7001", 5);
        let c = new_corr_id("127.0.0.1:7002", 5);
        assert_ne!(a, 0);
        assert_ne!(a, b, "counter disambiguates same node+tick");
        assert_ne!(a, c);
    }

    #[test]
    fn repl_bad_arguments_are_err() {
        let state = primary_state();
        assert!(repl_command(&state, &[]).starts_with("ERR"));
        assert!(repl_command(&state, &["HELLO"]).starts_with("ERR"));
        assert!(repl_command(&state, &["HELLO", "a", "b"]).starts_with("ERR"));
        for args in [
            &["PULL", "r1", "x", "5"][..],
            &["PULL", "r1", "0", "zero"],
            &["PULL", "r1", "0", "0"],
            &["PULL", "r1"],
        ] {
            assert!(
                pull(&state, args).unwrap_err().starts_with("ERR"),
                "{args:?}"
            );
        }
        assert!(repl_command(&state, &["FROB"]).starts_with("ERR unknown REPL"));
    }

    #[test]
    fn replica_rejects_repl_serving_but_answers_status() {
        let (state, runtime) = replica_state();
        assert!(repl_command(&state, &["HELLO", "x"]).starts_with("ERR readonly"));
        assert!(pull(&state, &["PULL", "x", "0", "1"])
            .unwrap_err()
            .starts_with("ERR readonly"));
        let (frame, is_err) = repl_snapshot_frame(&state);
        assert!(is_err);
        assert!(codec::decode_envelope(&frame)
            .unwrap()
            .body
            .starts_with(b"ERR readonly"));
        runtime.note_primary_seq(42);
        let status = repl_command(&state, &["STATUS"]);
        assert!(
            status.starts_with("OK role=replica primary=127.0.0.1:1"),
            "{status}"
        );
        assert!(status.contains("lag_edges=42"), "{status}");
        assert!(status.contains("lag_slo=100000"), "{status}");
    }

    #[test]
    fn replica_runtime_tracks_lag_and_slo() {
        let (_state, runtime) = replica_state();
        assert_eq!(runtime.lag(), 0);
        assert!(!runtime.lag_exceeds_slo());
        runtime.note_primary_seq(200_001);
        assert_eq!(runtime.lag(), 200_001);
        assert!(runtime.lag_exceeds_slo());
        // note_primary_seq never lowers the mark.
        runtime.note_primary_seq(10);
        assert_eq!(runtime.primary_seq(), 200_001);
    }

    #[test]
    fn apply_entry_dedupes_and_updates_the_runtime() {
        let (state, runtime) = replica_state();
        let e = JournalEntry {
            seq: 1,
            u: VertexId(1),
            v: VertexId(2),
        };
        apply_entry(&state, &runtime, e);
        apply_entry(&state, &runtime, e);
        assert_eq!(state.read_store().edges_processed(), 1);
        assert_eq!(runtime.applied_seq(), 1);
    }

    #[test]
    fn hello_parses_optional_epoch_and_timeline() {
        let hello = parse_hello(
            "OK repl hello primary_seq=9 slots=32 seed=5 backend=mixer epoch=3 tl=1:0,2:7",
        )
        .expect("parses");
        assert_eq!(hello.epoch, Some(3));
        assert_eq!(hello.timeline.as_deref(), Some("1:0,2:7"));
        let plain =
            parse_hello("OK repl hello primary_seq=9 slots=32 seed=5 backend=mixer").unwrap();
        assert_eq!(plain.epoch, None);
        assert_eq!(plain.timeline, None);
        // The retired Tabulation backend, and a HELLO without the field,
        // fail the handshake.
        assert!(
            parse_hello("OK repl hello primary_seq=9 slots=32 seed=5 backend=tabulation").is_none()
        );
        assert!(parse_hello("OK repl hello primary_seq=9 slots=32 seed=5").is_none());
    }

    #[test]
    fn readonly_refusals_carry_a_machine_parseable_moved_hint() {
        let (state, _runtime) = replica_state();
        let refusal = repl_command(&state, &["HELLO", "x"]);
        assert!(
            refusal.starts_with("ERR readonly MOVED 127.0.0.1:1 "),
            "{refusal}"
        );
        // The documented client recipe: the 4th whitespace token is the
        // primary address.
        assert_eq!(
            refusal.split_whitespace().nth(3),
            Some("127.0.0.1:1"),
            "{refusal}"
        );
    }

    #[test]
    fn backoff_schedule_doubles_and_saturates_at_the_ceiling() {
        let max = Duration::from_secs(5);
        let mut cur = Duration::from_millis(100);
        let mut seen = Vec::new();
        for _ in 0..8 {
            cur = next_backoff(cur, max);
            seen.push(cur.as_millis() as u64);
        }
        assert_eq!(seen, vec![200, 400, 800, 1600, 3200, 5000, 5000, 5000]);
        // Jitter keeps every step inside [0.75x, 1.25x), so the whole
        // schedule is bounded by 1.25 * ceiling.
        let mut rng = Lcg::new(3);
        for &ms in &seen {
            let d = jittered(&mut rng, Duration::from_millis(ms));
            assert!(d >= Duration::from_millis(ms * 3 / 4), "{d:?}");
            assert!(d < Duration::from_millis(ms * 5 / 4), "{d:?}");
        }
    }

    fn snapshot_frame(seq: u64, edges: &[(u64, u64)]) -> Vec<u8> {
        let mut store = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        for &(u, v) in edges {
            store.insert_edge(VertexId(u), VertexId(v));
        }
        codec::encode_snapshot_frame(seq, &StoreSnapshot::capture(&store)).unwrap()
    }

    /// Applies seqs `1..=n` of a timeline that is about to die.
    fn apply_dead_timeline(state: &ServerState, runtime: &ReplicaRuntime, n: u64) {
        for seq in 1..=n {
            let (u, v) = (VertexId(seq), VertexId(seq + 10));
            apply_entry(state, runtime, JournalEntry { seq, u, v });
        }
    }

    /// The HELLO of a plain primary that restarted empty and took one
    /// write.
    const RESTARTED_HELLO: &str = "OK repl hello primary_seq=1 slots=32 seed=5 backend=mixer";

    #[test]
    fn handshake_resets_a_replica_whose_timeline_died() {
        let (state, runtime, cluster) = testkit::learner(
            "127.0.0.1:1",
            "r1",
            100_000,
            SketchStore::new(SketchConfig::with_slots(32).seed(5)),
        );
        apply_dead_timeline(&state, &runtime, 5);
        runtime.note_primary_seq(5);
        assert_eq!(state.read_store().edges_processed(), 5);

        // The primary restarted into a lower seq space: its HELLO is
        // answered by installing its snapshot, then pulls resume there.
        let (addr, primary) = scripted(
            b"OK fmt=v3\n",
            vec![
                codec::encode_text_frame(RESTARTED_HELLO),
                snapshot_frame(1, &[(50, 60)]),
                codec::encode_wal_batch(&[], 1),
            ],
        );
        assert!(replica_session(&state, &cluster, &runtime, &addr).is_err());
        let requests = primary.join().unwrap();
        assert_eq!(requests[..2], ["REPL HELLO r1", "REPL SNAPSHOT"]);
        assert!(requests[2].starts_with("REPL PULL r1 1 "), "{requests:?}");

        // The store is the primary's snapshot; the dead seqs are gone,
        // and so is the lag they implied.
        assert_eq!(runtime.applied_seq(), 1);
        assert_eq!((runtime.primary_seq(), runtime.lag()), (1, 0));
        let store = state.read_store();
        assert_eq!(store.edges_processed(), 1);
        assert_eq!(store.degree(VertexId(50)), 1);
        assert_eq!(store.degree(VertexId(1)), 0);
    }

    #[test]
    fn wholesale_install_survives_restart() {
        let dir = std::env::temp_dir().join(format!("streamlink-install-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let cfg = SketchConfig::with_slots(32).seed(5);
            let (persist, recovery) =
                persistence::open_with_faults(&dir, cfg, FsyncPolicy::Never, None).unwrap();
            let learner = Membership::Learner {
                primary: "127.0.0.1:1".into(),
            };
            let node = testkit::node("r1", learner, 100_000, recovery.store, Some(persist));
            (node, recovery.snapshot_seq)
        };

        // Case 1: dead seqs 1..=5 are journaled, then a different
        // timeline's snapshot is force-installed at the journal's own
        // high-water mark.
        let ((state, runtime, _), _) = open();
        apply_dead_timeline(&state, &runtime, 5);
        let (addr, primary) = scripted(b"OK fmt=v3\n", vec![snapshot_frame(5, &[(100, 200)])]);
        let mut link = PrimaryLink::connect(&addr).unwrap();
        snapshot_round_with(&state, &runtime, &mut link, true).unwrap();
        primary.join().unwrap();
        drop(state);
        let ((state, runtime, cluster), snapshot_seq) = open();
        assert_eq!(snapshot_seq, 5);
        assert_eq!(runtime.applied_seq(), 5);
        {
            let store = state.read_store();
            assert_eq!(store.degree(VertexId(1)), 0, "dead timeline replayed");
            assert_eq!(store.degree(VertexId(100)), 1, "installed snapshot lost");
        }

        // Case 2: the same node meets a primary that restarted empty and
        // took one write, applies its seq 1, and restarts.
        let (addr, primary) = scripted(
            b"OK fmt=v3\n",
            vec![
                codec::encode_text_frame(RESTARTED_HELLO),
                snapshot_frame(1, &[(300, 301)]),
                codec::encode_wal_batch(&[], 1),
            ],
        );
        assert!(replica_session(&state, &cluster, &runtime, &addr).is_err());
        primary.join().unwrap();
        drop(state);
        let ((state, runtime, _), _) = open();
        assert_eq!(state.read_store().edges_processed(), 1);
        assert_eq!(state.read_store().degree(VertexId(300)), 1);
        assert_eq!(runtime.applied_seq(), 1, "pulls resume after the new seq 1");
        assert_eq!(state.persist_guard().unwrap().journal.next_seq(), 2);
        drop(state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_without_v3_is_refused() {
        let (addr, primary) = scripted(b"ERR unknown command \"HELLO\"\n", Vec::new());
        let err = PrimaryLink::connect(&addr).err().expect("no text fallback");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("did not accept HELLO v3"), "{err}");
        primary.join().unwrap();
    }

    #[test]
    fn jitter_stays_within_a_quarter_of_base() {
        let mut rng = Lcg::new(7);
        let base = Duration::from_millis(400);
        for _ in 0..200 {
            let d = jittered(&mut rng, base);
            assert!(d >= Duration::from_millis(300), "{d:?}");
            assert!(d < Duration::from_millis(500), "{d:?}");
        }
    }

    #[test]
    fn disabled_replication_reports_clean_errors() {
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(2));
        let state = ServerState::in_memory(
            store,
            ServerConfig {
                repl_buffer: 0,
                ..ServerConfig::default()
            },
        );
        assert_eq!(
            repl_command(&state, &["HELLO", "r"]),
            "ERR replication disabled (--repl-buffer 0)"
        );
        assert_eq!(
            repl_command(&state, &["STATUS"]),
            "OK role=primary replication=disabled"
        );
    }
}

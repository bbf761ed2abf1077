//! Cluster membership and automatic failover: lease-based promotion,
//! epoch fencing, the rejoin/handoff path for revived primaries, and the
//! one replication loop every replica runs.
//!
//! ## Voters and learners
//!
//! Every replica is a cluster node. A `--peers` node is a **voter**: it
//! renews the primary's lease, votes, and may be elected. A
//! `--replicate-from` replica is a **learner** (Raft's non-voting
//! member): it only pulls from its one primary. It never sends `REPL
//! LEASE`, so it counts toward no majority; it never campaigns and
//! answers `REPL VOTE`, `REPL LEASE`, `PROMOTE` and `DEMOTE` with `ERR`;
//! it never hands off, because it never acked a write; and it takes its
//! epochs only from the primary's `HELLO`. Both run [`cluster_loop`].
//!
//! The decision logic — who may write, who may be elected, which vote
//! to grant — lives in [`streamlink_core::failover`] as a pure state
//! machine. This module wires it to the wire:
//!
//! ```text
//! REPL LEASE <id> <epoch> <applied_seq> [corr=<id>]
//!     voter -> primary, every pull. The primary treats it as
//!     a lease renewal and answers `OK lease epoch=<e>
//!     primary_seq=<s> tl=<timeline>`; a stale sender gets
//!     `ERR fenced epoch=<e>`, a non-primary answers
//!     `ERR not-primary epoch=<e>`.
//! REPL VOTE <candidate> <target_epoch> <data_epoch> <candidate_seq> [corr=<id>]
//!     candidate -> everyone, once its lease expired and its stagger
//!     slot came up. Granted (`OK vote granted epoch=<t>`) at most once
//!     per epoch, only to candidates at least as caught up as the
//!     granter, and only while the granter's own lease agrees the
//!     primary is gone.
//! REPL HANDOFF <old_epoch> F <seq> <u> <v> <crc> [corr=<id>]
//!     a revived node -> the current primary: one un-replicated entry
//!     from a dead timeline, re-acked as a fresh write. Deduped by a
//!     per-old-epoch contiguous high-water mark, so retries and
//!     concurrent survivors never double-insert.
//! ```
//!
//! Every message above accepts an optional trailing `corr=<id>` token:
//! a correlation id minted by the sender at session/campaign start,
//! stamped into the [`streamlink_core::trace`] span on both ends and
//! into every [`streamlink_core::events`] journal entry the exchange
//! produces — so one id threads an election (or rejoin) across every
//! node it touched.
//!
//! This module is also where the control plane becomes *observable*:
//! every election, vote, promotion, fence, handoff and resync is
//! recorded into the global [`streamlink_core::events`] journal with
//! `(node, epoch, applied_seq, tick_ms)` provenance, and the
//! `CLUSTER INFO` / `CLUSTER STATUS` commands (plus HTTP `/clusterz`)
//! aggregate every member's self-reported view into one JSON snapshot
//! that flags belief divergence (two primaries, epoch skew, lag-SLO
//! breach, unreachable members).
//!
//! ## Why split-brain is impossible by construction
//!
//! A primary accepts a write only while a majority of the cluster
//! (itself included) has renewed its lease within one lease window
//! ([`FailoverNode::writable`]). A candidate is promoted only after a
//! majority granted its target epoch, and granting requires the
//! granter's *own* lease to have expired. Any freshness-majority and
//! any grant-majority intersect in at least one node, and that node
//! cannot simultaneously have renewed the old primary's lease and
//! considered it dead — so the old primary's writable window provably
//! closes before the new epoch can open. Every write is additionally
//! epoch-fenced at the protocol layer (`write_gate`), so a revived
//! pre-failover primary answers `ERR fenced` instead of accepting.
//!
//! ## Durability across the fence
//!
//! Roles are never persisted — a restarting node always rejoins as a
//! replica and re-learns the epoch. What *is* persisted (durable nodes
//! only, `<data-dir>/cluster.state`) is the epoch, the vote, and the
//! timeline, so a revived node cannot vote twice in an epoch or
//! bootstrap a second epoch-1 primary. A write acked on a dead
//! timeline survives wherever it is durable: the revived node replays
//! its own journal tail through `REPL HANDOFF` before resyncing onto
//! the new timeline. Experiment E25 (`exp_failover`) chaos-tests
//! exactly these invariants.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use streamlink_core::events::{self, ClusterEvent, EventKind};
use streamlink_core::failover::{ExchangeOutcome, FailoverNode, Role, Timeline};
use streamlink_core::journal::{self, JournalEntry};
use streamlink_core::{metrics, trace, PullOutcome};

use super::protocol::parse_bounded;
use super::replication::{
    adopt_config, id_seed, jittered, new_corr_id, next_backoff, pull_once, readonly_moved,
    say_hello, sleep_poll, snapshot_round_with, take_corr, Hello, Lcg, PrimaryLink, ReplicaRuntime,
};
use super::ServerState;

/// Flag-level cluster settings, assembled by `streamlink serve`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's id in events and `CLUSTER INFO`. A voter's is its
    /// own address as peers dial it (what `MOVED` hints point at); a
    /// learner is never dialed and uses its `--repl-id`.
    pub advertise: String,
    /// Whether this node takes part in elections.
    pub membership: Membership,
}

/// How a node belongs to its cluster; `serve` picks it from which flag
/// was given.
#[derive(Debug, Clone)]
pub enum Membership {
    /// A `--peers` member: renews the primary's lease, votes, and may be
    /// elected.
    Voter {
        /// The other members' protocol addresses.
        peers: Vec<String>,
        /// Lease window `L`: a primary stays writable while a majority
        /// renewed within `L`; elections start after `2L` of silence.
        lease: Duration,
        /// Seed epoch 1 as primary on a fresh cluster (`--primary`).
        /// Ignored — loudly — once a persisted epoch exists.
        bootstrap_primary: bool,
    },
    /// A `--replicate-from` replica: a non-voting learner that only
    /// pulls from `primary` (see the module docs).
    Learner {
        /// The primary it replicates from.
        primary: String,
    },
}

/// Shared cluster state: the failover node behind a lock, the fork
/// timeline, and lock-free caches for the hot write path.
pub struct ClusterRuntime {
    node: Mutex<FailoverNode>,
    timeline: Mutex<Timeline>,
    /// The voting roster (other members); empty for a learner.
    peers: Vec<String>,
    /// The primary a learner replicates from; `None` for a voter.
    learner_of: Option<String>,
    advertise: String,
    lease_ms: u64,
    started: Instant,
    /// Current belief where the primary is (ourselves when primary).
    believed: Mutex<Option<String>>,
    /// Cached role for the lock-free [`write_gate`] fast path.
    role_primary: AtomicBool,
    /// Cached writable deadline, in ms since `started` (0 = fenced).
    /// Refreshed on every lease/role event; between events the deadline
    /// can only shrink with time, which the load-side compare handles.
    writable_until: AtomicU64,
    epoch_cache: AtomicU64,
    /// The epoch our *data* belongs to: the epoch we were last
    /// contiguously replicating (or serving) in. Compared against the
    /// primary's fork timeline to detect a dead-timeline tail.
    data_epoch: AtomicU64,
    /// Durable home of `cluster.state` (epoch/vote/timeline), `None`
    /// for in-memory nodes (which may double-vote after a restart — an
    /// accepted, documented trade).
    dir: Option<PathBuf>,
    probe_cursor: AtomicUsize,
}

impl ClusterRuntime {
    /// Builds the runtime, restoring any persisted epoch/vote/timeline
    /// from `dir` and applying `--primary` bootstrap (epoch 0 only).
    /// `local_seq` is the node's recovered WAL high-water mark, used as
    /// the epoch-1 fork base when bootstrapping.
    ///
    /// # Errors
    /// Fails when the durable cluster state cannot be written — a node
    /// that cannot persist its vote must not join the cluster.
    pub fn new(config: &ClusterConfig, dir: Option<&Path>, local_seq: u64) -> io::Result<Self> {
        let (peers, lease, bootstrap_primary, learner_of) = match &config.membership {
            Membership::Voter {
                peers,
                lease,
                bootstrap_primary,
            } => (peers.clone(), *lease, *bootstrap_primary, None),
            // A learner holds no lease: its lease window reads 0.
            Membership::Learner { primary } => {
                (Vec::new(), Duration::ZERO, false, Some(primary.clone()))
            }
        };
        let lease_ms = u64::try_from(lease.as_millis()).unwrap_or(u64::MAX);
        let mut node = FailoverNode::new(&config.advertise, peers.len() + 1, lease_ms.max(1));
        let mut timeline = Timeline::new();
        let mut data_epoch = 0u64;
        if let Some(dir) = dir {
            if let Some(saved) = load_state_file(&state_path(dir)) {
                node.restore(saved.epoch, saved.voted);
                timeline = saved.timeline;
                data_epoch = saved.data_epoch;
                eprintln!(
                    "failover: restored cluster state (epoch {}, data epoch {data_epoch}, tl {})",
                    saved.epoch,
                    timeline.render(),
                );
            }
        }
        // A learner knows its primary from the start.
        let mut believed = learner_of.clone();
        let mut bootstrapped = false;
        if bootstrap_primary {
            if node.bootstrap_primary() {
                timeline.record_fork(1, local_seq);
                data_epoch = 1;
                believed = Some(config.advertise.clone());
                bootstrapped = true;
                eprintln!("failover: bootstrapped as primary at epoch 1 (base seq {local_seq})");
            } else {
                eprintln!(
                    "failover: --primary ignored: cluster already at epoch {} \
                     (rejoining as a replica; use PROMOTE to force)",
                    node.epoch(),
                );
            }
        }
        let runtime = ClusterRuntime {
            epoch_cache: AtomicU64::new(node.epoch()),
            role_primary: AtomicBool::new(node.role() == Role::Primary),
            writable_until: AtomicU64::new(0),
            data_epoch: AtomicU64::new(data_epoch),
            node: Mutex::new(node),
            timeline: Mutex::new(timeline),
            peers,
            learner_of,
            advertise: config.advertise.clone(),
            lease_ms,
            started: Instant::now(),
            believed: Mutex::new(believed),
            dir: dir.map(Path::to_path_buf),
            probe_cursor: AtomicUsize::new(0),
        };
        runtime.refresh_cache();
        runtime.persist_state()?;
        if bootstrapped {
            runtime.record_event(
                EventKind::Bootstrap,
                1,
                local_seq,
                format!("bootstrapped as primary (base seq {local_seq})"),
                None,
            );
        }
        runtime.record_event(
            EventKind::ConfigChange,
            runtime.epoch(),
            local_seq,
            format!(
                "cluster config: peers={} lease_ms={} learner_of={} durable={}",
                runtime.peers.len(),
                runtime.lease_ms,
                runtime.learner_of.as_deref().unwrap_or("-"),
                runtime.dir.is_some(),
            ),
            None,
        );
        Ok(runtime)
    }

    fn node(&self) -> MutexGuard<'_, FailoverNode> {
        self.node.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn timeline(&self) -> MutexGuard<'_, Timeline> {
        self.timeline.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Monotonic milliseconds since this runtime was created — the
    /// clock every lease/candidacy decision runs on, and the
    /// `tick_ms` provenance stamp on every recorded cluster event.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// This node's advertised address (its cluster id).
    #[must_use]
    pub fn advertise(&self) -> &str {
        &self.advertise
    }

    /// The other voting members' protocol addresses (empty for a
    /// learner).
    #[must_use]
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Whether this node is a non-voting learner (`--replicate-from`).
    #[must_use]
    pub fn is_learner(&self) -> bool {
        self.learner_of.is_some()
    }

    /// Records one control-plane event into the global
    /// [`streamlink_core::events`] journal, stamped with this node's
    /// identity and monotonic clock.
    fn record_event(
        &self,
        kind: EventKind,
        epoch: u64,
        applied_seq: u64,
        detail: String,
        corr_id: Option<u64>,
    ) {
        events::emit(ClusterEvent {
            node_id: self.advertise.clone(),
            epoch,
            applied_seq,
            tick_ms: self.now_ms(),
            kind,
            detail,
            corr_id,
        });
    }

    /// The lease window in milliseconds.
    #[must_use]
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }

    /// The current fencing epoch (cached; exact after every exchange).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch_cache.load(Ordering::Relaxed)
    }

    /// The epoch this node's local data belongs to.
    #[must_use]
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch.load(Ordering::Relaxed)
    }

    /// Whether this node currently holds the primary role (it may still
    /// be fenced — see [`Self::writable_now`]).
    #[must_use]
    pub fn is_primary(&self) -> bool {
        self.role_primary.load(Ordering::Relaxed)
    }

    /// Lock-free write check: primary role *and* inside the cached
    /// majority-lease window.
    #[must_use]
    pub fn writable_now(&self) -> bool {
        self.is_primary() && self.now_ms() <= self.writable_until.load(Ordering::Relaxed)
    }

    /// Where this node believes the primary is (itself when primary).
    #[must_use]
    pub fn believed_primary(&self) -> Option<String> {
        if self.is_primary() {
            return Some(self.advertise.clone());
        }
        self.believed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set_believed(&self, addr: Option<String>) {
        *self.believed.lock().unwrap_or_else(PoisonError::into_inner) = addr;
    }

    /// The rendered fork timeline (`REPL HELLO` / `REPL LEASE` `tl=`).
    #[must_use]
    pub fn timeline_spec(&self) -> String {
        self.timeline().render()
    }

    fn adopt_timeline(&self, tl: &Timeline) {
        *self.timeline() = tl.clone();
    }

    /// A learner's only source of epochs: take the primary's epoch as
    /// both its fencing epoch and its data epoch (it replicates
    /// contiguously in it from now on), and the primary's timeline, and
    /// persist them. The epoch may go down: a primary re-bootstrapped
    /// into a fresh cluster is still the one to follow.
    fn follow_primary(&self, epoch: u64, tl: &Timeline) {
        self.node().restore(epoch, None);
        self.adopt_timeline(tl);
        self.set_data_epoch(epoch);
        self.refresh_cache();
        if let Err(e) = self.persist_state() {
            eprintln!("replication: could not persist the primary's epoch {epoch}: {e}");
        }
    }

    fn set_data_epoch(&self, epoch: u64) {
        self.data_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Re-derives the lock-free caches (and the epoch gauge) from the
    /// node. Call after *any* mutation of the failover state.
    fn refresh_cache(&self) {
        let now = self.now_ms();
        let (role, epoch, deadline) = {
            let node = self.node();
            (node.role(), node.epoch(), node.writable_deadline(now))
        };
        self.epoch_cache.store(epoch, Ordering::Relaxed);
        self.writable_until
            .store(deadline.unwrap_or(0), Ordering::Relaxed);
        // Order matters for the gate: publish the deadline before the
        // role so a freshly-promoted node is never "primary with a
        // stale fence" in between.
        self.role_primary
            .store(role == Role::Primary, Ordering::Release);
        metrics::global().repl_epoch.set(epoch);
    }

    /// Refreshes the `repl.epoch` / `repl.lease_ms` gauges.
    pub fn update_gauges(&self) {
        let m = metrics::global();
        m.repl_epoch.set(self.epoch());
        m.repl_lease_ms.set(self.lease_ms);
    }

    /// This node's election stagger rank: its position in the sorted
    /// roster. Deterministic and collision-free; the caught-up gate is
    /// enforced by the voters, not by the rank.
    fn rank(&self) -> u64 {
        let mut ids: Vec<&str> = self.peers.iter().map(String::as_str).collect();
        ids.push(&self.advertise);
        ids.sort_unstable();
        ids.iter().position(|&id| id == self.advertise).unwrap_or(0) as u64
    }

    /// The next address worth contacting: the believed primary if any,
    /// else round-robin over the peer roster.
    fn probe_target(&self) -> String {
        if let Some(addr) = self.believed_primary() {
            if addr != self.advertise {
                return addr;
            }
        }
        if self.peers.is_empty() {
            return self.advertise.clone();
        }
        let i = self.probe_cursor.load(Ordering::Relaxed) % self.peers.len();
        self.peers[i].clone()
    }

    /// Records that `target` was not (or no longer is) the primary:
    /// drop the belief if it pointed there and rotate the probe cursor.
    /// A learner's primary is fixed, so it keeps naming it.
    fn probe_failed(&self, target: &str) {
        if self.is_learner() {
            return;
        }
        let mut believed = self.believed.lock().unwrap_or_else(PoisonError::into_inner);
        if believed.as_deref() == Some(target) {
            *believed = None;
        }
        drop(believed);
        self.probe_cursor.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists epoch/vote/data-epoch/timeline to
    /// `<dir>/cluster.state` (atomic tmp + rename). No-op for
    /// in-memory nodes.
    ///
    /// # Errors
    /// Propagates the underlying IO error; callers on the vote path
    /// must surface it loudly (an unpersisted vote can be double-cast
    /// after a restart).
    fn persist_state(&self) -> io::Result<()> {
        let node = self.node();
        let timeline = self.timeline();
        self.persist_with(&node, &timeline)
    }

    /// [`Self::persist_state`] for callers already holding both guards
    /// (lock order: node, then timeline).
    fn persist_with(&self, node: &FailoverNode, timeline: &Timeline) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let voted = node
            .voted()
            .map_or_else(|| "-".to_string(), |(e, who)| format!("{e}:{who}"));
        let body = format!(
            "epoch={}\nvoted={voted}\ndata_epoch={}\ntl={}\n",
            node.epoch(),
            self.data_epoch.load(Ordering::Relaxed),
            timeline.render(),
        );
        let tmp = dir.join("cluster.state.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, state_path(dir))
    }
}

fn state_path(dir: &Path) -> PathBuf {
    dir.join("cluster.state")
}

struct SavedState {
    epoch: u64,
    voted: Option<(u64, String)>,
    data_epoch: u64,
    timeline: Timeline,
}

fn load_state_file(path: &Path) -> Option<SavedState> {
    let text = fs::read_to_string(path).ok()?;
    let mut saved = SavedState {
        epoch: 0,
        voted: None,
        data_epoch: 0,
        timeline: Timeline::new(),
    };
    for line in text.lines() {
        let (key, value) = line.split_once('=')?;
        match key {
            "epoch" => saved.epoch = value.parse().ok()?,
            "voted" if value != "-" => {
                // The vote target id is an address and contains
                // colons itself; split only the leading epoch off.
                let (epoch, who) = value.split_once(':')?;
                saved.voted = Some((epoch.parse().ok()?, who.to_string()));
            }
            "data_epoch" => saved.data_epoch = value.parse().ok()?,
            "tl" => saved.timeline = Timeline::parse(value)?,
            _ => {}
        }
    }
    Some(saved)
}

// ---------------------------------------------------------------------
// The write gate.
// ---------------------------------------------------------------------

/// The fence in front of every write. `None` means "go ahead"; `Some`
/// carries the complete refusal line. Lock-free on the accept path
/// (two atomics), so fencing costs nothing on a healthy primary.
pub(super) fn write_gate(state: &ServerState) -> Option<String> {
    let cluster = state.cluster()?;
    if !cluster.is_primary() {
        return Some(readonly_moved(state));
    }
    if cluster.writable_now() {
        return None;
    }
    metrics::global().repl_fenced_writes.incr();
    Some(format!(
        "ERR fenced epoch={} (majority lease lost; retry once the cluster heals)",
        cluster.epoch(),
    ))
}

// ---------------------------------------------------------------------
// Wire handlers (called from the REPL dispatcher / protocol layer).
// ---------------------------------------------------------------------

fn not_clustered() -> String {
    "ERR not clustered (start with --peers to enable failover)".into()
}

/// The refusal a learner answers to every election or role command.
fn learner_refusal(what: &str) -> String {
    format!("ERR learner never {what} (a --replicate-from replica takes no part in elections)")
}

/// `REPL LEASE <id> <epoch> <applied_seq> [corr=<id>]` — the replica's
/// combined liveness probe and lease renewal.
pub(super) fn lease_command(state: &ServerState, args: &[&str]) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    if cluster.is_learner() {
        // Its epochs come only from its primary's HELLO.
        return learner_refusal("holds a lease");
    }
    let (args, corr) = take_corr(args);
    let [_, id, epoch, seq] = args else {
        return "ERR REPL LEASE takes <id> <epoch> <applied_seq> [corr=<id>]".into();
    };
    let peer_epoch = match parse_bounded("epoch", epoch, 0, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let peer_seq = match parse_bounded("applied_seq", seq, 0, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let now = cluster.now_ms();
    let (outcome, prior_role, my_epoch) = {
        let mut node = cluster.node();
        let prior = node.role();
        let outcome = node.note_peer(id, peer_epoch, now);
        (outcome, prior, node.epoch())
    };
    match outcome {
        ExchangeOutcome::RemoteStale => {
            cluster.record_event(
                EventKind::Fence,
                my_epoch,
                peer_seq,
                format!("fenced lease from {id} at stale epoch {peer_epoch}"),
                corr,
            );
            format!(
                "ERR fenced epoch={my_epoch} (your epoch {peer_epoch} is stale; \
                 rejoin via the current primary)"
            )
        }
        ExchangeOutcome::Adopted => {
            after_adoption(state, cluster, prior_role);
            format!("ERR not-primary epoch={}", cluster.epoch())
        }
        ExchangeOutcome::Ok => {
            if prior_role != Role::Primary {
                return format!("ERR not-primary epoch={my_epoch} (this node is a replica)");
            }
            // A renewal can extend the writable deadline: refresh the
            // gate's cache while we are at it.
            cluster.refresh_cache();
            let primary_seq = state.primary_repl().map_or(0, |repl| {
                repl.note_peer(id, peer_seq);
                repl.log().last_seq()
            });
            format!(
                "OK lease epoch={my_epoch} primary_seq={primary_seq} tl={}",
                cluster.timeline_spec(),
            )
        }
    }
}

/// `REPL VOTE <candidate> <target_epoch> <data_epoch> <candidate_seq>
/// [corr=<id>]`.
///
/// The candidate's log identity is `(data_epoch, seq)`, compared
/// lexicographically against ours: a revived ex-primary with a long
/// journal on a dead timeline must not outrank a shorter log that
/// carries the newer epoch's acknowledged writes.
pub(super) fn vote_command(state: &ServerState, args: &[&str]) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    if cluster.is_learner() {
        return learner_refusal("votes");
    }
    let (args, corr) = take_corr(args);
    let [_, candidate, target, data_epoch, seq] = args else {
        return "ERR REPL VOTE takes <candidate> <target_epoch> <data_epoch> <candidate_seq> \
                [corr=<id>]"
            .into();
    };
    let target_epoch = match parse_bounded("target_epoch", target, 1, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let candidate_data_epoch = match parse_bounded("data_epoch", data_epoch, 0, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let candidate_seq = match parse_bounded("candidate_seq", seq, 0, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let own_log = (cluster.data_epoch(), local_seq(state, cluster));
    let now = cluster.now_ms();
    let (granted, prior_role, my_epoch) = {
        let mut node = cluster.node();
        let prior = node.role();
        let granted = node.grant_vote(
            candidate,
            target_epoch,
            (candidate_data_epoch, candidate_seq),
            own_log,
            now,
        );
        (granted, prior, node.epoch())
    };
    if !granted {
        return format!("ERR vote denied epoch={my_epoch}");
    }
    if prior_role == Role::Primary {
        after_step_down(state, cluster);
    } else {
        cluster.refresh_cache();
    }
    cluster.set_believed(Some((*candidate).to_string()));
    if let Err(e) = cluster.persist_state() {
        eprintln!("failover: could not persist vote for epoch {target_epoch}: {e}");
    }
    cluster.record_event(
        EventKind::VoteGranted,
        target_epoch,
        own_log.1,
        format!("vote granted to {candidate}"),
        corr,
    );
    format!("OK vote granted epoch={target_epoch}")
}

/// `REPL HANDOFF <old_epoch> F <seq> <u> <v> <crc> [corr=<id>]` — one
/// dead-timeline entry, re-acked as a fresh write on the current
/// primary.
pub(super) fn handoff_command(state: &ServerState, args: &[&str]) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    let (args, corr) = take_corr(args);
    if args.len() < 3 {
        return "ERR REPL HANDOFF takes <old_epoch> <wal line> [corr=<id>]".into();
    }
    let old_epoch = match parse_bounded("old_epoch", args[1], 1, u64::MAX) {
        Ok(v) => v,
        Err(e) => return format!("ERR {e}"),
    };
    let line = args[2..].join(" ");
    let Some(entry) = JournalEntry::parse(&line) else {
        return "ERR bad handoff frame (expected `F <seq> <u> <v> <crc>`)".into();
    };
    let now = cluster.now_ms();
    // Lock order: node → timeline → store/persist (via insert_edge).
    // Holding both across the insert makes check-insert-commit atomic
    // against concurrent survivors handing off the same epoch.
    let node = cluster.node();
    if node.role() != Role::Primary || !node.writable(now) {
        return format!(
            "ERR not-primary epoch={} (handoff needs a writable primary)",
            node.epoch(),
        );
    }
    let mut timeline = cluster.timeline();
    let Some(highwater) = timeline.handoff_highwater(old_epoch) else {
        return format!("ERR handoff unknown epoch {old_epoch} (no fork recorded after it)");
    };
    if entry.seq <= highwater {
        return format!("OK handoff dup seq={}", entry.seq);
    }
    if entry.seq != highwater + 1 {
        return format!("ERR handoff gap expected={}", highwater + 1);
    }
    match state.insert_edge(entry.u, entry.v) {
        Ok(new_seq) => {
            let accepted = timeline.accept_handoff(old_epoch, entry.seq, new_seq);
            debug_assert!(accepted, "highwater moved while both locks were held");
            if let Err(e) = cluster.persist_with(&node, &timeline) {
                eprintln!("failover: could not persist handoff highwater: {e}");
            }
            cluster.record_event(
                EventKind::HandoffAccepted,
                node.epoch(),
                new_seq,
                format!("re-acked seq {} of dead epoch {old_epoch}", entry.seq),
                corr,
            );
            format!("OK handoff accepted seq={}", entry.seq)
        }
        Err(e) => format!("ERR storage: {e}"),
    }
}

/// The top-level `PROMOTE` command: manual, lease-bypassing promotion
/// (the operator's big red switch; see OPERATIONS §11.3).
pub(super) fn promote_command(state: &ServerState) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    if cluster.is_learner() {
        return learner_refusal("becomes primary");
    }
    if cluster.is_primary() {
        return format!("OK promoted epoch={} (already primary)", cluster.epoch());
    }
    let epoch = cluster.node().force_promote();
    complete_promotion(state, cluster, epoch, None);
    format!("OK promoted epoch={epoch} (forced; fencing resumes once a majority reconnects)")
}

/// The top-level `DEMOTE` command: step down and rejoin as a replica.
pub(super) fn demote_command(state: &ServerState) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    if cluster.is_learner() {
        return learner_refusal("changes role");
    }
    let was_primary = {
        let mut node = cluster.node();
        let was = node.role() == Role::Primary;
        node.force_demote();
        was
    };
    if was_primary {
        after_step_down(state, cluster);
        format!(
            "OK demoted epoch={} (rejoining as a replica)",
            cluster.epoch()
        )
    } else {
        format!("OK demoted epoch={} (already a replica)", cluster.epoch())
    }
}

// ---------------------------------------------------------------------
// Role-transition plumbing.
// ---------------------------------------------------------------------

/// The node's local WAL high-water mark, whichever side it is on.
fn local_seq(state: &ServerState, cluster: &ClusterRuntime) -> u64 {
    if cluster.is_primary() {
        state.primary_repl().map_or(0, |repl| repl.log().last_seq())
    } else {
        state.replica_runtime().map_or(0, |r| r.applied_seq())
    }
}

/// Everything promotion entails beyond the role flip: record the fork,
/// re-seat the ship ring and journal at the fork base, persist, and
/// refresh the gate caches. `corr` threads the election's correlation
/// id into the recorded Promotion event (None for operator `PROMOTE`).
fn complete_promotion(
    state: &ServerState,
    cluster: &ClusterRuntime,
    epoch: u64,
    corr: Option<u64>,
) {
    let base = state.replica_runtime().map_or(0, |r| r.applied_seq());
    {
        let node = cluster.node();
        let mut timeline = cluster.timeline();
        timeline.record_fork(epoch, base);
        cluster.set_data_epoch(epoch);
        if let Err(e) = cluster.persist_with(&node, &timeline) {
            eprintln!("failover: could not persist promotion to epoch {epoch}: {e}");
        }
    }
    if let Some(repl) = state.primary_repl() {
        // The ring may hold stale boot-time seqs; re-seat it so new
        // writes number contiguously from the fork base.
        repl.log().reset(base);
    }
    if let Some(mut persist) = state.persist_guard() {
        if persist.journal.next_seq() != base + 1 {
            if let Err(e) = persist.journal.rotate(base + 1) {
                eprintln!("failover: journal realign at promotion failed: {e}");
            }
        }
    }
    cluster.set_believed(Some(cluster.advertise.clone()));
    cluster.refresh_cache();
    let m = metrics::global();
    m.repl_promotions.incr();
    m.repl_epoch.set(epoch);
    cluster.record_event(
        EventKind::Promotion,
        epoch,
        base,
        format!("promoted to primary (base seq {base})"),
        corr,
    );
    eprintln!("failover: promoted to primary at epoch {epoch} (base seq {base})");
}

/// Everything stepping down entails: refresh the gate caches (fencing
/// writes immediately), forget the primary belief, and re-seat the pull
/// gate at our local high-water mark so pulling resumes where this
/// node's data actually ends.
fn after_step_down(state: &ServerState, cluster: &ClusterRuntime) {
    cluster.refresh_cache();
    cluster.set_believed(None);
    if let (Some(runtime), Some(repl)) = (state.replica_runtime(), state.primary_repl()) {
        let last = repl.log().last_seq();
        if runtime.applied_seq() != last {
            runtime.seed_applied(last);
        }
    }
    if let Err(e) = cluster.persist_state() {
        eprintln!("failover: could not persist step-down: {e}");
    }
    cluster.record_event(
        EventKind::StepDown,
        cluster.epoch(),
        state.replica_runtime().map_or(0, |r| r.applied_seq()),
        "stepped down; rejoining as a replica".to_string(),
        None,
    );
    eprintln!(
        "failover: stepped down at epoch {} (rejoining as a replica)",
        cluster.epoch(),
    );
}

/// A peer exchange adopted a higher epoch. Only an ex-primary needs the
/// full step-down treatment; a replica just refreshes its caches.
fn after_adoption(state: &ServerState, cluster: &ClusterRuntime, prior_role: Role) {
    if prior_role == Role::Primary {
        after_step_down(state, cluster);
    } else {
        cluster.refresh_cache();
        if let Err(e) = cluster.persist_state() {
            eprintln!("failover: could not persist adopted epoch: {e}");
        }
        cluster.record_event(
            EventKind::EpochAdopted,
            cluster.epoch(),
            state.replica_runtime().map_or(0, |r| r.applied_seq()),
            "adopted newer epoch from a peer exchange".to_string(),
            None,
        );
    }
}

/// Adopts a higher epoch learned from an error reply or probe.
fn adopt_observed(state: &ServerState, cluster: &ClusterRuntime, epoch: u64) {
    let (changed, prior_role) = {
        let mut node = cluster.node();
        let prior = node.role();
        let was_primary = node.observe_epoch(epoch, cluster.now_ms());
        (was_primary || node.epoch() == epoch, prior)
    };
    if changed {
        after_adoption(state, cluster, prior_role);
    }
}

/// The value of the first `key` (`name=`) field of a reply line.
fn reply_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key))
}

/// Pulls the first `epoch=` field out of a reply line.
fn parse_epoch_field(line: &str) -> Option<u64> {
    reply_field(line, "epoch=").and_then(|v| v.parse().ok())
}

// ---------------------------------------------------------------------
// The cluster loop.
// ---------------------------------------------------------------------

/// What one replica session concluded about its target.
pub(super) enum SessionEnd {
    /// Shutdown was requested; stop the loop.
    Shutdown,
    /// The target is not (or no longer) the primary; probe elsewhere.
    NotPrimary,
}

/// The one replication thread, for voters and learners alike. As
/// primary, keep the gate caches fresh; as replica, follow the primary
/// (pull, plus lease renewal on a voter) and, on a voter, campaign once
/// the lease dies.
pub fn cluster_loop(state: &Arc<ServerState>, cluster: &Arc<ClusterRuntime>) {
    let Some(runtime) = state.replica_runtime().cloned() else {
        eprintln!("failover: cluster node without a replica runtime; loop disabled");
        return;
    };
    let mut rng = Lcg::new(id_seed(&cluster.advertise));
    let tick = Duration::from_millis((cluster.lease_ms / 4).clamp(10, 1000));
    // A voter bounds its reconnect backoff by the lease so elections do
    // not wait out a 5s ceiling. No election waits on a learner, so it
    // keeps the plain `--repl-*` schedule.
    let (base, max) = (runtime.tuning.backoff_base, runtime.tuning.backoff_max);
    let (backoff_floor, backoff_ceiling, sleep_cap) = if cluster.is_learner() {
        (base, max, Duration::MAX)
    } else {
        let lease = Duration::from_millis(cluster.lease_ms.max(100));
        (base.min(tick), max.min(lease), tick)
    };
    let mut backoff = backoff_floor;
    cluster.node().arm(cluster.now_ms());
    cluster.refresh_cache();
    cluster.update_gauges();
    while !state.shutdown_requested() {
        if cluster.is_primary() {
            cluster.refresh_cache();
            cluster.update_gauges();
            if !cluster.writable_now() {
                // Fenced: probe for a newer epoch so a superseded
                // primary discovers the new timeline and rejoins
                // instead of serving `ERR fenced` forever.
                fenced_probe(state, cluster);
            }
            sleep_poll(state, tick);
            continue;
        }
        let target = cluster.probe_target();
        match replica_session(state, cluster, &runtime, &target) {
            Ok(SessionEnd::Shutdown) => break,
            Ok(SessionEnd::NotPrimary) => {
                runtime.set_connected(false);
                cluster.probe_failed(&target);
                backoff = backoff_floor;
            }
            Err(e) => {
                // A session that got past its handshake proves the
                // primary was healthy: the next outage starts from the
                // base delay.
                if runtime.connected() {
                    backoff = backoff_floor;
                }
                runtime.set_connected(false);
                runtime.update_gauges();
                metrics::global().repl_reconnects.incr();
                cluster.probe_failed(&target);
                if state.shutdown_requested() {
                    break;
                }
                eprintln!("replication: link to {target}: {e}");
            }
        }
        maybe_campaign(state, cluster, &runtime);
        if cluster.is_primary() {
            continue;
        }
        sleep_poll(state, jittered(&mut rng, backoff).min(sleep_cap));
        backoff = next_backoff(backoff, backoff_ceiling);
    }
    runtime.set_connected(false);
    runtime.update_gauges();
}

/// One session against a presumed primary: handshake, leave a dead
/// timeline if our data sits on one, then pull (and, on a voter, renew
/// the lease) until the link dies or the remote stops being primary.
pub(super) fn replica_session(
    state: &ServerState,
    cluster: &ClusterRuntime,
    runtime: &ReplicaRuntime,
    target: &str,
) -> io::Result<SessionEnd> {
    let mut link = PrimaryLink::connect(target)?;
    // One correlation id per session: every LEASE/PULL/HANDOFF this
    // session sends carries it, so both ends' spans and events thread
    // into one cross-node story.
    let corr = new_corr_id(&cluster.advertise, cluster.now_ms());
    runtime.set_corr(corr);
    {
        let _t = trace::op("repl.session");
        trace::note_corr(corr);
    }
    let hello = say_hello(&runtime.id, &mut link)?;
    let learner = cluster.is_learner();
    if let Some(epoch) = hello.epoch.filter(|_| !learner) {
        if epoch < cluster.epoch() {
            return Ok(SessionEnd::NotPrimary);
        }
        if epoch > cluster.epoch() {
            adopt_observed(state, cluster, epoch);
        }
    }
    adopt_config(state, runtime, &hello)?;
    if learner {
        learner_rejoin(state, cluster, runtime, &mut link, &hello, corr)?;
    } else if let Some(remote_tl) = hello.timeline.as_deref().and_then(Timeline::parse) {
        // A plain (non-cluster) primary ships no timeline; the lease
        // below then fails.
        rejoin_timeline(state, cluster, runtime, &mut link, &remote_tl, corr)?;
    }
    runtime.note_primary_seq(hello.primary_seq);
    runtime.set_connected(true);
    runtime.update_gauges();
    // Only a voter's idle poll is bounded by the lease: its pulls carry
    // the renewals.
    let idle = if learner {
        runtime.tuning.poll_interval
    } else {
        let lease_tick = Duration::from_millis((cluster.lease_ms / 4).max(10));
        runtime.tuning.poll_interval.min(lease_tick)
    };
    let mut last_anti_entropy = Instant::now();
    loop {
        if state.shutdown_requested() {
            return Ok(SessionEnd::Shutdown);
        }
        if cluster.is_primary() {
            // Promoted mid-session (election or PROMOTE): stop pulling.
            return Ok(SessionEnd::NotPrimary);
        }
        if !learner && !renew_lease(state, cluster, runtime, &mut link, target, corr)? {
            return Ok(SessionEnd::NotPrimary);
        }
        let advanced = pull_once(state, runtime, &mut link)?;
        if !runtime.tuning.anti_entropy_every.is_zero()
            && last_anti_entropy.elapsed() >= runtime.tuning.anti_entropy_every
        {
            last_anti_entropy = Instant::now();
            snapshot_round_with(state, runtime, &mut link, false)?;
            metrics::global().repl_anti_entropy_rounds.incr();
        }
        runtime.update_gauges();
        cluster.update_gauges();
        if !advanced {
            sleep_poll(state, idle);
        }
    }
}

/// One `REPL LEASE` exchange, which doubles as the liveness probe: only
/// an `OK lease` from the *primary* renews our timer. Returns whether
/// the target still is the primary.
fn renew_lease(
    state: &ServerState,
    cluster: &ClusterRuntime,
    runtime: &ReplicaRuntime,
    link: &mut PrimaryLink,
    target: &str,
    corr: u64,
) -> io::Result<bool> {
    link.send(&format!(
        "REPL LEASE {} {} {} corr={corr}",
        cluster.advertise,
        cluster.epoch(),
        runtime.applied_seq(),
    ))?;
    let reply = link.recv()?;
    let epoch = parse_epoch_field(&reply);
    if !reply.starts_with("OK lease ") {
        if let Some(epoch) = epoch.filter(|&e| e > cluster.epoch()) {
            adopt_observed(state, cluster, epoch);
        }
        return Ok(false);
    }
    let epoch = epoch.unwrap_or_else(|| cluster.epoch());
    cluster.node().note_primary(epoch, cluster.now_ms());
    cluster.refresh_cache();
    cluster.set_believed(Some(target.to_string()));
    cluster.set_data_epoch(epoch);
    if let Some(seq) = reply_field(&reply, "primary_seq=").and_then(|v| v.parse().ok()) {
        runtime.note_primary_seq(seq);
    }
    if let Some(tl) = reply_field(&reply, "tl=").and_then(Timeline::parse) {
        cluster.adopt_timeline(&tl);
    }
    Ok(true)
}

/// A learner's rejoin. Its data is on a dead timeline when the primary's
/// seq is below our applied seq (a primary restarted empty or into an
/// older WAL), its epoch went down (a re-bootstrapped cluster), or its
/// timeline forked below our applied seq. A learner never acked a write,
/// so there is no tail to hand off: it installs the primary's snapshot
/// wholesale. Then it takes the primary's epochs and timeline as its
/// own, so a restart does not mistake its seqs for a dead tail.
fn learner_rejoin(
    state: &ServerState,
    cluster: &ClusterRuntime,
    runtime: &ReplicaRuntime,
    link: &mut PrimaryLink,
    hello: &Hello,
    corr: u64,
) -> io::Result<()> {
    let epoch = hello.epoch.unwrap_or(0);
    let remote_tl = hello
        .timeline
        .as_deref()
        .and_then(Timeline::parse)
        .unwrap_or_default();
    let applied = runtime.applied_seq();
    let dead = hello.primary_seq < applied
        || epoch < cluster.epoch()
        || remote_tl
            .fork_after(cluster.data_epoch())
            .is_some_and(|base| applied > base);
    if dead {
        snapshot_round_with(state, runtime, link, true)?;
        let detail = format!("learner left a dead timeline at seq {applied}");
        cluster.record_event(
            EventKind::Resync,
            epoch,
            runtime.applied_seq(),
            detail,
            Some(corr),
        );
    }
    cluster.follow_primary(epoch, &remote_tl);
    Ok(())
}

/// Detects a fork past our data epoch, hands off our un-replicated
/// tail entry-by-entry, then resyncs wholesale onto the new timeline.
fn rejoin_timeline(
    state: &ServerState,
    cluster: &ClusterRuntime,
    runtime: &ReplicaRuntime,
    link: &mut PrimaryLink,
    remote_tl: &Timeline,
    corr: u64,
) -> io::Result<()> {
    let data_epoch = cluster.data_epoch();
    let Some(base) = remote_tl.fork_after(data_epoch) else {
        // Our data is a prefix of the current timeline; nothing forked.
        cluster.adopt_timeline(remote_tl);
        return Ok(());
    };
    let applied = runtime.applied_seq();
    if applied > base {
        let handed = handoff_tail(state, cluster, link, data_epoch, base, applied, corr)?;
        eprintln!(
            "failover: handed off {handed} un-replicated entr(y/ies) \
             from dead epoch {data_epoch} (seqs {}..={applied})",
            base + 1,
        );
    }
    // Whatever remains local of the dead timeline is superseded:
    // replace wholesale with the new primary's state.
    snapshot_round_with(state, runtime, link, true)?;
    cluster.adopt_timeline(remote_tl);
    cluster.set_data_epoch(remote_tl.latest_epoch());
    if let Err(e) = cluster.persist_state() {
        eprintln!("failover: could not persist rejoin: {e}");
    }
    cluster.record_event(
        EventKind::Resync,
        remote_tl.latest_epoch(),
        runtime.applied_seq(),
        format!(
            "resynced off dead epoch {data_epoch} onto timeline {}",
            remote_tl.render()
        ),
        Some(corr),
    );
    Ok(())
}

/// Ships seqs `base+1..=applied` of the dead timeline to the current
/// primary via `REPL HANDOFF`. Returns how many entries were accepted
/// (duplicates and gaps end the attempt quietly — another survivor got
/// there first, or our journal has a hole; both are fine).
///
/// Entries that entered our journal as handoff re-acks are presented
/// under their *origin* `(epoch, seq)` (per our timeline's provenance
/// map), so the copy in the origin's own journal and ours dedup
/// against the same high-water mark instead of being applied twice.
fn handoff_tail(
    state: &ServerState,
    cluster: &ClusterRuntime,
    link: &mut PrimaryLink,
    old_epoch: u64,
    base: u64,
    applied: u64,
    corr: u64,
) -> io::Result<u64> {
    let provenance = cluster.timeline().clone();
    let mut handed = 0u64;
    let mut after = base;
    'outer: while after < applied {
        let batch = local_tail(state, after, 4096);
        if batch.is_empty() {
            break;
        }
        for entry in batch {
            if entry.seq <= after {
                continue;
            }
            if entry.seq > applied {
                break 'outer;
            }
            after = entry.seq;
            let (send_epoch, entry) = match provenance.reack_origin(entry.seq) {
                Some((origin_epoch, origin_seq)) => (
                    origin_epoch,
                    JournalEntry {
                        seq: origin_seq,
                        ..entry
                    },
                ),
                None => (old_epoch, entry),
            };
            link.send(&format!("REPL HANDOFF {send_epoch} {entry} corr={corr}"))?;
            let reply = link.recv()?;
            if reply.starts_with("OK handoff accepted") {
                handed += 1;
            } else if !reply.starts_with("OK handoff") {
                // Gap (hole in our journal / other survivor ahead) or a
                // primary change mid-handoff; stop, resync will follow.
                eprintln!("failover: handoff stopped at seq {}: {reply}", entry.seq);
                break 'outer;
            }
        }
    }
    Ok(handed)
}

/// The local WAL tail after `after`: a durable node reads its own
/// journal (which holds everything it applied or acked); an in-memory
/// ex-primary falls back to its ship ring. An in-memory ex-replica has
/// neither — its tail is only recoverable from other survivors.
fn local_tail(state: &ServerState, after: u64, max: usize) -> Vec<JournalEntry> {
    if let Some(dir) = state.persist_guard().map(|p| p.dir.clone()) {
        if let Ok(entries) = journal::read_entries_after(&dir, after, max) {
            if !entries.is_empty() {
                return entries;
            }
        }
    }
    if let Some(repl) = state.primary_repl() {
        if let PullOutcome::Entries(entries) = repl.log().entries_after(after, max) {
            return entries;
        }
    }
    Vec::new()
}

/// Opens (or retries) a candidacy once the lease is dead and our
/// stagger slot came up, then runs one synchronous vote round.
fn maybe_campaign(state: &ServerState, cluster: &ClusterRuntime, runtime: &ReplicaRuntime) {
    if cluster.is_learner() {
        return;
    }
    let now = cluster.now_ms();
    let target = {
        let mut node = cluster.node();
        if node.role() == Role::Primary {
            return;
        }
        if !node.candidacy_due(now, cluster.rank()) {
            return;
        }
        if node.candidacy_epoch().is_some() && !node.candidacy_stale(now) {
            return;
        }
        node.start_candidacy(now)
    };
    if let Err(e) = cluster.persist_state() {
        eprintln!("failover: could not persist candidacy: {e}");
    }
    cluster.refresh_cache();
    let my_seq = runtime.applied_seq();
    let my_data_epoch = cluster.data_epoch();
    // One correlation id per campaign: every VOTE it sends (and the
    // Promotion it may end in) carries it, on both ends.
    let corr = new_corr_id(&cluster.advertise, now);
    let _campaign_span = trace::op("repl.campaign");
    trace::note_corr(corr);
    cluster.record_event(
        EventKind::CandidacyStarted,
        target,
        my_seq,
        format!("lease expired; seeking votes (local log {my_data_epoch}:{my_seq})"),
        Some(corr),
    );
    eprintln!(
        "failover: primary lease expired; seeking votes for epoch {target} \
         (local log {my_data_epoch}:{my_seq})"
    );
    // Our own vote may already complete the majority (single-node
    // clusters, or a quorum of grants recorded on a previous retry).
    if cluster
        .node()
        .record_grant(&cluster.advertise, cluster.now_ms())
    {
        complete_promotion(state, cluster, target, Some(corr));
        return;
    }
    for peer in &cluster.peers {
        if state.shutdown_requested() {
            return;
        }
        match request_vote(
            peer,
            &cluster.advertise,
            target,
            my_data_epoch,
            my_seq,
            corr,
        ) {
            VoteReply::Granted => {
                let won = cluster.node().record_grant(peer, cluster.now_ms());
                if won {
                    complete_promotion(state, cluster, target, Some(corr));
                    return;
                }
            }
            VoteReply::Denied(epoch) => {
                if epoch > target {
                    adopt_observed(state, cluster, epoch);
                    return;
                }
            }
            VoteReply::Unreachable => {}
        }
    }
}

enum VoteReply {
    Granted,
    Denied(u64),
    Unreachable,
}

fn request_vote(
    peer: &str,
    candidate: &str,
    target: u64,
    data_epoch: u64,
    seq: u64,
    corr: u64,
) -> VoteReply {
    let ask = || -> io::Result<String> {
        let mut link = PrimaryLink::connect(peer)?;
        link.send(&format!(
            "REPL VOTE {candidate} {target} {data_epoch} {seq} corr={corr}"
        ))?;
        link.recv()
    };
    match ask() {
        Ok(line) if line.starts_with("OK vote granted") => VoteReply::Granted,
        Ok(line) => VoteReply::Denied(parse_epoch_field(&line).unwrap_or(0)),
        Err(_) => VoteReply::Unreachable,
    }
}

/// A fenced primary's way out: ask one peer whether a newer epoch
/// exists, adopting it (and stepping down into the rejoin path) if so.
fn fenced_probe(state: &ServerState, cluster: &ClusterRuntime) {
    let target = cluster.probe_target();
    if target == cluster.advertise {
        return;
    }
    let corr = new_corr_id(&cluster.advertise, cluster.now_ms());
    let probe = || -> io::Result<String> {
        let mut link = PrimaryLink::connect(&target)?;
        link.send(&format!(
            "REPL LEASE {} {} {} corr={corr}",
            cluster.advertise,
            cluster.epoch(),
            local_seq(state, cluster),
        ))?;
        link.recv()
    };
    match probe() {
        Ok(reply) => {
            if let Some(epoch) = parse_epoch_field(&reply) {
                if epoch > cluster.epoch() {
                    adopt_observed(state, cluster, epoch);
                    return;
                }
            }
            cluster.probe_failed(&target);
        }
        Err(_) => cluster.probe_failed(&target),
    }
}

// ---------------------------------------------------------------------
// Cluster-wide status aggregation (`CLUSTER INFO` / `CLUSTER STATUS`,
// HTTP `/clusterz`).
// ---------------------------------------------------------------------

/// Executes one `CLUSTER <sub>` command. `INFO` answers from local
/// state only (one parseable `OK cluster ...` line); `STATUS` fans out
/// to every peer and returns the merged single-line
/// `streamlink.clusterz.v1` JSON snapshot.
pub(super) fn cluster_command(state: &ServerState, args: &[&str]) -> String {
    let (args, _corr) = take_corr(args);
    let Some(sub) = args.first() else {
        return "ERR CLUSTER takes a subcommand (INFO, STATUS)".into();
    };
    match sub.to_ascii_uppercase().as_str() {
        "INFO" => {
            if args.len() != 1 {
                return "ERR CLUSTER INFO takes no arguments".into();
            }
            cluster_info_line(state)
        }
        "STATUS" => {
            if args.len() != 1 {
                return "ERR CLUSTER STATUS takes no arguments".into();
            }
            clusterz_json(state).map_or_else(not_clustered, |(json, _divergent)| json)
        }
        other => format!("ERR unknown CLUSTER subcommand {other:?} (INFO, STATUS)"),
    }
}

/// One node's own view as a single parseable `OK cluster ...` line —
/// what `CLUSTER INFO` answers and what the `/clusterz` fan-out
/// collects from each member.
pub(super) fn cluster_info_line(state: &ServerState) -> String {
    let Some(cluster) = state.cluster() else {
        return not_clustered();
    };
    let is_primary = cluster.is_primary();
    let role = if is_primary { "primary" } else { "replica" };
    let (applied, persisted, lag) = match state.replica_runtime() {
        Some(r) if !is_primary => (r.applied_seq(), r.persisted_seq(), r.durable_lag()),
        _ => {
            let seq = state.primary_repl().map_or(0, |repl| repl.log().last_seq());
            (seq, seq, 0)
        }
    };
    let lag_slo = state.replica_runtime().map_or(0, |r| r.lag_slo);
    let healthy = if is_primary {
        cluster.writable_now()
    } else {
        state
            .replica_runtime()
            .is_some_and(|r| r.connected() && !r.lag_exceeds_slo())
    };
    format!(
        "OK cluster node={} role={role} epoch={} data_epoch={} applied_seq={applied} \
         persisted_seq={persisted} lag={lag} lag_slo={lag_slo} writable={} \
         believed={} healthy={}",
        cluster.advertise(),
        cluster.epoch(),
        cluster.data_epoch(),
        u64::from(cluster.writable_now()),
        cluster.believed_primary().unwrap_or_else(|| "?".into()),
        u64::from(healthy),
    )
}

/// One member's parsed (or unreachable) view during a status fan-out.
struct NodeView {
    node: String,
    reachable: bool,
    role: String,
    epoch: u64,
    data_epoch: u64,
    applied_seq: u64,
    persisted_seq: u64,
    lag: u64,
    lag_slo: u64,
    writable: bool,
    believed: String,
    healthy: bool,
}

impl NodeView {
    fn unreachable(node: &str) -> NodeView {
        NodeView {
            node: node.to_string(),
            reachable: false,
            role: "unknown".into(),
            epoch: 0,
            data_epoch: 0,
            applied_seq: 0,
            persisted_seq: 0,
            lag: 0,
            lag_slo: 0,
            writable: false,
            believed: "?".into(),
            healthy: false,
        }
    }

    /// Parses an `OK cluster ...` line into a view; anything else
    /// (error reply, old binary) counts as unreachable.
    fn parse(node: &str, line: &str) -> NodeView {
        if !line.starts_with("OK cluster ") {
            return NodeView::unreachable(node);
        }
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .map(str::to_string)
        };
        let num = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        NodeView {
            node: node.to_string(),
            reachable: true,
            role: field("role=").unwrap_or_else(|| "unknown".into()),
            epoch: num("epoch="),
            data_epoch: num("data_epoch="),
            applied_seq: num("applied_seq="),
            persisted_seq: num("persisted_seq="),
            lag: num("lag="),
            lag_slo: num("lag_slo="),
            writable: num("writable=") == 1,
            believed: field("believed=").unwrap_or_else(|| "?".into()),
            healthy: num("healthy=") == 1,
        }
    }

    fn render_json(&self) -> String {
        if !self.reachable {
            return format!("{{\"node\":{},\"reachable\":false}}", json_str(&self.node));
        }
        format!(
            "{{\"node\":{},\"reachable\":true,\"role\":{},\"epoch\":{},\"data_epoch\":{},\
             \"applied_seq\":{},\"persisted_seq\":{},\"lag\":{},\"lag_slo\":{},\
             \"writable\":{},\"believed\":{},\"healthy\":{}}}",
            json_str(&self.node),
            json_str(&self.role),
            self.epoch,
            self.data_epoch,
            self.applied_seq,
            self.persisted_seq,
            self.lag,
            self.lag_slo,
            self.writable,
            json_str(&self.believed),
            self.healthy,
        )
    }
}

/// `s` as a quoted JSON string.
fn json_str(s: &str) -> String {
    format!("\"{}\"", events::escape_json(s))
}

/// Dials one member and asks for its `CLUSTER INFO` line. The
/// connect/read timeouts on [`PrimaryLink`] bound the wait, and the
/// fan-out corr id rides along so the probe shows up correlated in the
/// remote's trace ring.
fn probe_cluster_info(addr: &str, corr: u64) -> Option<String> {
    let mut link = PrimaryLink::connect(addr).ok()?;
    link.send(&format!("CLUSTER INFO corr={corr}")).ok()?;
    link.recv().ok()
}

/// The merged `streamlink.clusterz.v1` snapshot: this node's view plus
/// a bounded, timeout-guarded parallel fan-out to every `--peers`
/// member. Returns `(single-line json, divergent)`; `None` when this
/// node is not clustered or is a learner, which has no voting peers to
/// describe.
///
/// Divergence flags cover the beliefs that must agree on a healthy
/// cluster: at most one primary, one epoch, every member reachable,
/// and no replica past its lag SLO.
pub(super) fn clusterz_json(state: &ServerState) -> Option<(String, bool)> {
    let cluster = state.cluster().filter(|c| !c.is_learner())?;
    let corr = new_corr_id(cluster.advertise(), cluster.now_ms());
    trace::note_corr(corr);
    let mut views = vec![NodeView::parse(
        cluster.advertise(),
        &cluster_info_line(state),
    )];
    let peer_views: Vec<NodeView> = std::thread::scope(|scope| {
        let handles: Vec<_> = cluster
            .peers()
            .iter()
            .map(|peer| {
                scope.spawn(move || match probe_cluster_info(peer, corr) {
                    Some(line) => NodeView::parse(peer, &line),
                    None => NodeView::unreachable(peer),
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(cluster.peers())
            .map(|(h, peer)| h.join().unwrap_or_else(|_| NodeView::unreachable(peer)))
            .collect()
    });
    views.extend(peer_views);
    let primaries = views
        .iter()
        .filter(|v| v.reachable && v.role == "primary")
        .count();
    let epochs: Vec<u64> = views
        .iter()
        .filter(|v| v.reachable)
        .map(|v| v.epoch)
        .collect();
    let epoch_min = epochs.iter().copied().min().unwrap_or(0);
    let epoch_max = epochs.iter().copied().max().unwrap_or(0);
    let unreachable = views.iter().filter(|v| !v.reachable).count();
    let lag_breach = views
        .iter()
        .any(|v| v.reachable && v.lag_slo > 0 && v.lag > v.lag_slo);
    let mut flags: Vec<&str> = Vec::new();
    if primaries > 1 {
        flags.push("multiple-primaries");
    }
    if primaries == 0 {
        flags.push("no-reachable-primary");
    }
    if epoch_min != epoch_max {
        flags.push("epoch-skew");
    }
    if lag_breach {
        flags.push("lag-slo-breach");
    }
    if unreachable > 0 {
        flags.push("unreachable-members");
    }
    let divergent = !flags.is_empty();
    let node_rows: Vec<String> = views.iter().map(NodeView::render_json).collect();
    let flag_rows: Vec<String> = flags.iter().map(|f| json_str(f)).collect();
    let json = format!(
        "{{\"schema\":\"streamlink.clusterz.v1\",\"observer\":{},\"corr_id\":{corr},\
         \"epoch_min\":{epoch_min},\"epoch_max\":{epoch_max},\"primaries\":{primaries},\
         \"unreachable\":{unreachable},\"divergent\":{divergent},\"flags\":[{}],\"nodes\":[{}]}}",
        json_str(cluster.advertise()),
        flag_rows.join(","),
        node_rows.join(","),
    );
    Some((json, divergent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::protocol::handle_command;
    use crate::server::replication::{apply_entry, repl_command, repl_pull_frame};
    use crate::server::testkit::{self, scripted};
    use crate::server::{http, ServerConfig, ServerState};
    use graphstream::VertexId;
    use streamlink_core::snapshot::StoreSnapshot;
    use streamlink_core::{codec, SketchConfig, SketchStore};

    fn cluster_config(advertise: &str, peers: &[&str], bootstrap: bool) -> ClusterConfig {
        ClusterConfig {
            advertise: advertise.into(),
            membership: voter(peers, bootstrap),
        }
    }

    fn voter(peers: &[&str], bootstrap: bool) -> Membership {
        Membership::Voter {
            peers: peers.iter().map(|s| (*s).to_string()).collect(),
            lease: Duration::from_millis(200),
            bootstrap_primary: bootstrap,
        }
    }

    fn store() -> SketchStore {
        SketchStore::new(SketchConfig::with_slots(32).seed(5))
    }

    fn cluster_state(bootstrap: bool) -> (ServerState, Arc<ClusterRuntime>) {
        let peers = voter(&["127.0.0.1:7002", "127.0.0.1:7003"], bootstrap);
        let (state, _runtime, cluster) =
            testkit::node("127.0.0.1:7001", peers, 100_000, store(), None);
        (state, cluster)
    }

    fn learner_state() -> (ServerState, Arc<ReplicaRuntime>, Arc<ClusterRuntime>) {
        testkit::learner("127.0.0.1:7002", "r1", 100_000, store())
    }

    #[test]
    fn bootstrap_primary_serves_writes_and_ships_epoch() {
        let (state, cluster) = cluster_state(true);
        assert!(cluster.is_primary());
        assert!(cluster.writable_now(), "bootstrap primary starts writable");
        assert_eq!(cluster.epoch(), 1);
        assert!(write_gate(&state).is_none());
        assert!(!state.is_replica());
        let reply = lease_command(&state, &["LEASE", "127.0.0.1:7002", "1", "0"]);
        assert!(
            reply.starts_with("OK lease epoch=1 primary_seq=0 tl=1:0"),
            "{reply}"
        );
    }

    #[test]
    fn replica_nodes_point_writes_at_the_believed_primary() {
        let (state, cluster) = cluster_state(false);
        assert!(!cluster.is_primary());
        assert!(state.is_replica());
        let gate = write_gate(&state).expect("replicas refuse writes");
        assert!(gate.starts_with("ERR readonly MOVED ? "), "{gate}");
        cluster.set_believed(Some("127.0.0.1:7002".into()));
        let gate = write_gate(&state).expect("still refused");
        assert_eq!(
            gate.split_whitespace().nth(3),
            Some("127.0.0.1:7002"),
            "{gate}"
        );
    }

    #[test]
    fn stale_epoch_lease_gets_fenced_and_newer_epoch_adopts() {
        let (state, cluster) = cluster_state(true);
        // A sender still on epoch 0 is fenced.
        let reply = lease_command(&state, &["LEASE", "127.0.0.1:7002", "0", "0"]);
        assert!(reply.starts_with("ERR fenced epoch=1"), "{reply}");
        // A sender on epoch 3 demotes us on the spot.
        let reply = lease_command(&state, &["LEASE", "127.0.0.1:7002", "3", "0"]);
        assert!(reply.starts_with("ERR not-primary epoch=3"), "{reply}");
        assert!(!cluster.is_primary());
        assert_eq!(cluster.epoch(), 3);
        let gate = write_gate(&state).expect("stepped-down node refuses writes");
        assert!(gate.starts_with("ERR readonly MOVED"), "{gate}");
    }

    #[test]
    fn votes_grant_once_per_epoch_and_only_to_caught_up_candidates() {
        let (state, cluster) = cluster_state(false);
        // Not armed yet / lease considered expired (never renewed) —
        // grants are allowed once the node has an expired lease.
        cluster.node().arm(0);
        // Candidate behind our applied seq is refused.
        state.replica_runtime().unwrap().seed_applied(10);
        let reply = vote_command(&state, &["VOTE", "127.0.0.1:7002", "1", "0", "5"]);
        assert!(reply.starts_with("ERR vote denied"), "{reply}");
        // A caught-up candidate gets the vote after the lease expires...
        std::thread::sleep(Duration::from_millis(250));
        let reply = vote_command(&state, &["VOTE", "127.0.0.1:7002", "1", "0", "10"]);
        assert_eq!(reply, "OK vote granted epoch=1");
        assert_eq!(cluster.epoch(), 1);
        // ...exactly once per epoch: another candidate is refused,
        // the same one re-granted idempotently.
        let reply = vote_command(&state, &["VOTE", "127.0.0.1:7003", "1", "0", "99"]);
        assert!(reply.starts_with("ERR vote denied"), "{reply}");
        let reply = vote_command(&state, &["VOTE", "127.0.0.1:7002", "1", "0", "10"]);
        assert_eq!(reply, "OK vote granted epoch=1");
        // The belief now points at the candidate.
        assert_eq!(
            cluster.believed_primary().as_deref(),
            Some("127.0.0.1:7002")
        );
    }

    #[test]
    fn promote_and_demote_flip_the_gate() {
        let (state, cluster) = cluster_state(false);
        assert!(write_gate(&state).is_some());
        let reply = promote_command(&state);
        assert!(reply.starts_with("OK promoted epoch=1"), "{reply}");
        assert!(cluster.is_primary());
        assert!(
            cluster.writable_now(),
            "forced promotion bypasses the lease"
        );
        assert!(write_gate(&state).is_none());
        assert!(!state.is_replica());
        // Idempotent.
        let again = promote_command(&state);
        assert!(again.starts_with("OK promoted epoch=1 (already"), "{again}");
        let reply = demote_command(&state);
        assert!(reply.starts_with("OK demoted epoch=1"), "{reply}");
        assert!(!cluster.is_primary());
        assert!(write_gate(&state).is_some());
    }

    #[test]
    fn handoff_replays_a_dead_tail_exactly_once() {
        let (state, cluster) = cluster_state(true);
        // Live writes land first; the fork for dead epoch 0 sits at 0...
        // give the timeline a later fork to hand off against.
        for i in 1..=3u64 {
            state.insert_edge(VertexId(i), VertexId(i + 50)).unwrap();
        }
        {
            let mut tl = cluster.timeline();
            tl.record_fork(2, 3);
        }
        cluster.node().force_promote(); // epoch 2
        cluster.refresh_cache();
        let entry = JournalEntry {
            seq: 4,
            u: VertexId(9),
            v: VertexId(90),
        };
        let line = entry.to_string();
        let mut args = vec!["HANDOFF", "1"];
        args.extend(line.split_whitespace());
        let reply = handoff_command(&state, &args);
        assert_eq!(reply, "OK handoff accepted seq=4", "{reply}");
        assert_eq!(state.read_store().edges_processed(), 4);
        // Retry (same survivor, or another) is a dup, not a double
        // insert.
        let reply = handoff_command(&state, &args);
        assert_eq!(reply, "OK handoff dup seq=4");
        assert_eq!(state.read_store().edges_processed(), 4);
        // A gap is refused with the expected seq.
        let gap = JournalEntry {
            seq: 7,
            u: VertexId(9),
            v: VertexId(91),
        };
        let line = gap.to_string();
        let mut args = vec!["HANDOFF", "1"];
        args.extend(line.split_whitespace());
        let reply = handoff_command(&state, &args);
        assert_eq!(reply, "ERR handoff gap expected=5");
    }

    #[test]
    fn cluster_state_round_trips_through_the_state_file() {
        let dir =
            std::env::temp_dir().join(format!("streamlink-failover-test-{}", std::process::id(),));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let config = cluster_config("127.0.0.1:7001", &["127.0.0.1:7002"], true);
        {
            let cluster = ClusterRuntime::new(&config, Some(&dir), 42).unwrap();
            assert!(cluster.is_primary());
            assert_eq!(cluster.epoch(), 1);
        }
        // A restart restores the epoch; --primary is refused (epoch !=
        // 0) and the node rejoins as a replica — roles are never
        // persisted.
        let cluster = ClusterRuntime::new(&config, Some(&dir), 42).unwrap();
        assert!(!cluster.is_primary(), "roles are not persisted");
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(cluster.data_epoch(), 1);
        assert_eq!(cluster.timeline_spec(), "1:42");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commands_without_a_cluster_answer_not_clustered() {
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        let state = ServerState::in_memory(store, ServerConfig::default());
        for reply in [
            lease_command(&state, &["LEASE", "a", "1", "0"]),
            vote_command(&state, &["VOTE", "a", "1", "0", "0"]),
            handoff_command(&state, &["HANDOFF", "1", "F", "1", "2", "3", "0"]),
            promote_command(&state),
            demote_command(&state),
            cluster_command(&state, &["INFO"]),
            cluster_command(&state, &["STATUS"]),
        ] {
            assert!(reply.starts_with("ERR not clustered"), "{reply}");
        }
    }

    #[test]
    fn lease_round_trips_a_trailing_corr_token() {
        let (state, _cluster) = cluster_state(true);
        let reply = lease_command(
            &state,
            &["LEASE", "127.0.0.1:7002", "1", "0", "corr=42424242"],
        );
        assert!(
            reply.starts_with("OK lease epoch=1 primary_seq=0 tl=1:0"),
            "{reply}"
        );
        // A stale lease carrying a corr id stamps the Fence event with
        // it, so the fence shows up correlated in the merged timeline.
        let reply = lease_command(
            &state,
            &["LEASE", "127.0.0.1:7002", "0", "7", "corr=42424243"],
        );
        assert!(reply.starts_with("ERR fenced epoch=1"), "{reply}");
        let fence = streamlink_core::events::recent(streamlink_core::events::RING_CAPACITY)
            .into_iter()
            .find(|e| e.corr_id == Some(42_424_243))
            .expect("fence event recorded with the corr id");
        assert_eq!(fence.kind, EventKind::Fence);
        assert_eq!(fence.applied_seq, 7);
        // A malformed corr value is not silently eaten: it fails the
        // arity check instead of being parsed as a positional arg.
        let reply = lease_command(&state, &["LEASE", "127.0.0.1:7002", "1", "0", "corr=xyz"]);
        assert!(reply.starts_with("ERR REPL LEASE takes"), "{reply}");
    }

    #[test]
    fn granted_votes_record_an_event_with_the_campaign_corr() {
        let (state, cluster) = cluster_state(false);
        cluster.node().arm(0);
        std::thread::sleep(Duration::from_millis(250));
        let reply = vote_command(
            &state,
            &["VOTE", "127.0.0.1:7002", "1", "0", "0", "corr=99990001"],
        );
        assert_eq!(reply, "OK vote granted epoch=1");
        let vote = streamlink_core::events::recent(streamlink_core::events::RING_CAPACITY)
            .into_iter()
            .find(|e| e.corr_id == Some(99_990_001))
            .expect("vote event recorded with the corr id");
        assert_eq!(vote.kind, EventKind::VoteGranted);
        assert_eq!(vote.epoch, 1);
        assert!(vote.detail.contains("127.0.0.1:7002"), "{}", vote.detail);
    }

    #[test]
    fn handoff_accepts_a_trailing_corr_without_corrupting_the_frame() {
        let (state, cluster) = cluster_state(true);
        for i in 1..=3u64 {
            state.insert_edge(VertexId(i), VertexId(i + 50)).unwrap();
        }
        {
            let mut tl = cluster.timeline();
            tl.record_fork(2, 3);
        }
        cluster.node().force_promote();
        cluster.refresh_cache();
        let entry = JournalEntry {
            seq: 4,
            u: VertexId(9),
            v: VertexId(90),
        };
        let line = entry.to_string();
        let mut args = vec!["HANDOFF", "1"];
        args.extend(line.split_whitespace());
        args.push("corr=55500177");
        let reply = handoff_command(&state, &args);
        assert_eq!(reply, "OK handoff accepted seq=4");
        let ev = streamlink_core::events::recent(streamlink_core::events::RING_CAPACITY)
            .into_iter()
            .find(|e| e.corr_id == Some(55_500_177))
            .expect("handoff event recorded with the corr id");
        assert_eq!(ev.kind, EventKind::HandoffAccepted);
        assert_eq!(ev.applied_seq, 4);
    }

    #[test]
    fn clusterz_snapshot_flags_unreachable_peers() {
        let (state, _cluster) = cluster_state(true);
        let (json, divergent) = clusterz_json(&state).expect("clustered node");
        assert!(
            json.starts_with("{\"schema\":\"streamlink.clusterz.v1\""),
            "{json}"
        );
        assert!(!json.contains('\n'), "snapshot must be one line");
        assert!(divergent, "dead peers must flag divergence: {json}");
        assert!(json.contains("\"unreachable\":2"), "{json}");
        assert!(json.contains("\"unreachable-members\""), "{json}");
        assert!(json.contains("\"role\":\"primary\""), "{json}");
        // The protocol command returns the same snapshot shape.
        let via_cmd = cluster_command(&state, &["STATUS"]);
        assert!(
            via_cmd.starts_with("{\"schema\":\"streamlink.clusterz.v1\""),
            "{via_cmd}"
        );
        // INFO answers locally with one parseable line.
        let info = cluster_command(&state, &["INFO"]);
        assert!(
            info.starts_with("OK cluster node=127.0.0.1:7001 role=primary epoch=1"),
            "{info}"
        );
        let view = NodeView::parse("127.0.0.1:7001", &info);
        assert!(view.reachable);
        assert_eq!(view.role, "primary");
        assert_eq!(view.epoch, 1);
        assert_eq!(view.believed, "127.0.0.1:7001");
    }

    #[test]
    fn a_learner_never_opens_a_candidacy() {
        let (state, runtime, cluster) = learner_state();
        cluster.node().arm(0);
        std::thread::sleep(Duration::from_millis(20));
        // Its lease on the primary is long expired...
        assert!(cluster.node().candidacy_due(cluster.now_ms(), 0));
        // ...yet it does not campaign.
        maybe_campaign(&state, &cluster, &runtime);
        assert_eq!(cluster.node().candidacy_epoch(), None);
        assert_eq!(cluster.epoch(), 0);
        assert!(!cluster.is_primary());
        assert!(state.is_replica());
    }

    #[test]
    fn a_learner_refuses_votes_and_role_changes() {
        let (state, _runtime, cluster) = learner_state();
        for reply in [
            handle_command(&state, "REPL VOTE 127.0.0.1:7003 1 0 0"),
            handle_command(&state, "REPL LEASE 127.0.0.1:7003 5 0"),
            handle_command(&state, "PROMOTE"),
            handle_command(&state, "DEMOTE"),
        ] {
            assert!(reply.starts_with("ERR learner never "), "{reply}");
        }
        assert_eq!(cluster.epoch(), 0);
        assert_eq!(cluster.node().voted(), None);
        assert!(!cluster.is_primary());
    }

    #[test]
    fn a_learner_session_never_leases_or_hands_off_even_across_a_fork() {
        let (state, runtime, cluster) = learner_state();
        // Seqs 1..=5 applied while following epoch 1...
        cluster.follow_primary(1, &Timeline::parse("1:0").unwrap());
        for seq in 1..=5u64 {
            let (u, v) = (VertexId(seq), VertexId(seq + 10));
            apply_entry(&state, &runtime, JournalEntry { seq, u, v });
        }
        // ...then epoch 2 forked at seq 3, so seqs 4..=5 are a dead tail.
        // A voter would hand them off; a learner installs a snapshot.
        let hello = "OK repl hello primary_seq=9 slots=32 seed=5 backend=mixer epoch=2 tl=1:0,2:3";
        let mut primary_store = store();
        primary_store.insert_edge(VertexId(70), VertexId(80));
        let snapshot = StoreSnapshot::capture(&primary_store);
        let (addr, primary) = scripted(
            b"OK fmt=v3\n",
            vec![
                codec::encode_text_frame(hello),
                codec::encode_snapshot_frame(9, &snapshot).unwrap(),
                codec::encode_wal_batch(&[], 9),
            ],
        );
        assert!(replica_session(&state, &cluster, &runtime, &addr).is_err());
        let requests = primary.join().expect("no LEASE or HANDOFF line");
        assert_eq!(requests[..2], ["REPL HELLO r1", "REPL SNAPSHOT"]);
        assert!(requests[2].starts_with("REPL PULL r1 9 "), "{requests:?}");
        assert_eq!(runtime.applied_seq(), 9);
        assert_eq!(state.read_store().degree(VertexId(4)), 0);
        assert_eq!(state.read_store().degree(VertexId(70)), 1);
        // It took the primary's epoch, data epoch and timeline...
        assert_eq!(
            (cluster.epoch(), cluster.data_epoch()),
            (2, 2),
            "epochs come from HELLO"
        );
        assert_eq!(cluster.timeline_spec(), "1:0,2:3");
        // ...so the next session does not mistake seqs 4..=9 for a dead
        // tail: it goes straight to pulling.
        let (addr, primary) = scripted(
            b"OK fmt=v3\n",
            vec![
                codec::encode_text_frame(hello),
                codec::encode_wal_batch(&[], 9),
            ],
        );
        assert!(replica_session(&state, &cluster, &runtime, &addr).is_err());
        let requests = primary.join().unwrap();
        assert!(requests[1].starts_with("REPL PULL r1 9 "), "{requests:?}");
        assert!(!cluster.is_primary());
    }

    #[test]
    fn learner_pulls_do_not_keep_a_voting_primary_writable() {
        let (state, cluster) = cluster_state(true);
        std::thread::sleep(Duration::from_millis(5));
        for id in ["r1", "r2"] {
            assert!(repl_command(&state, &["HELLO", id]).starts_with("OK repl hello"));
            let (_, is_err) = repl_pull_frame(&state, &["PULL", id, "0", "10"]);
            assert!(!is_err);
        }
        cluster.refresh_cache();
        assert!(!cluster.writable_now(), "learners count toward no majority");
        // One voter's lease is a majority of three.
        let reply = lease_command(&state, &["LEASE", "127.0.0.1:7002", "1", "0"]);
        assert!(reply.starts_with("OK lease"), "{reply}");
        assert!(cluster.writable_now());
    }

    #[test]
    fn moved_status_and_healthz_name_the_same_believed_primary() {
        let (state, cluster) = cluster_state(false);
        let views = |state: &ServerState| {
            let moved = write_gate(state).expect("a replica refuses writes");
            let status = repl_command(state, &["STATUS"]);
            let healthz = http::respond(state, "GET", "/healthz").body;
            (
                moved.split_whitespace().nth(3).unwrap().to_string(),
                status
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("primary="))
                    .unwrap()
                    .to_string(),
                healthz
                    .split("\"primary\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap()
                    .to_string(),
            )
        };
        let unknown = ("?".to_string(), "?".to_string(), "?".to_string());
        assert_eq!(views(&state), unknown, "no belief yet");
        cluster.set_believed(Some("127.0.0.1:7003".into()));
        let known = "127.0.0.1:7003".to_string();
        assert_eq!(views(&state), (known.clone(), known.clone(), known));
        cluster.set_believed(None);
        assert_eq!(views(&state), unknown, "belief cleared");
        // A learner names its primary before any contact.
        let (learner, _, _) = learner_state();
        let primary = "127.0.0.1:7002".to_string();
        assert_eq!(views(&learner), (primary.clone(), primary.clone(), primary));
    }
}

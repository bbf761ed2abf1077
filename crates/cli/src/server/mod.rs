//! The serving runtime behind `streamlink serve`.
//!
//! [`commands::serve`](crate::commands::serve) parses flags; everything
//! that actually runs lives here, split by concern:
//!
//! * [`protocol`] — executes one text command against the shared state
//!   (pure with respect to IO, unit-testable without sockets).
//! * [`connection`] — per-connection loop: read/poll with a timeout,
//!   idle disconnect, drain on shutdown.
//! * [`signals`] — SIGINT/SIGTERM handlers flipping the shutdown flag.
//! * [`persistence`] — data-directory recovery, the edge journal, and
//!   the background checkpointer.
//! * [`http`] — the optional scrape plane (`--http-addr`): Prometheus
//!   `/metrics`, `/healthz`, `/tracez`, and `/memz` over a bounded,
//!   timeboxed std-only HTTP/1.1 listener.
//! * [`replication`] — WAL shipping: the primary's bounded ship ring
//!   and `REPL` command family, and the replica's pulls, applies and
//!   snapshot installs (see `docs/OPERATIONS.md` §11).
//! * [`failover`] — cluster membership: the lease/vote/handoff wire
//!   handlers around [`streamlink_core::failover`], the epoch fence in
//!   front of every write, and the one replication loop every replica
//!   runs — a `--peers` node as a voter, a `--replicate-from` replica as
//!   a non-voting learner.
//!
//! ## Lifecycle
//!
//! [`serve`] accepts connections (shedding with `ERR busy retry` past
//! the connection cap) until shutdown is requested, then stops accepting,
//! drains live connections up to a deadline, writes a final snapshot
//! when a data directory is configured, and returns — so the process
//! exits 0 on SIGINT/SIGTERM.
//!
//! ## Durability contract
//!
//! With a data directory, every `INSERT` is appended to the journal
//! *before* it is acked (see [`ServerState::insert_edge`]); a crash at
//! any instant loses at most un-acked work. The checkpointer
//! periodically folds the journal into an atomic snapshot so recovery
//! stays fast and the journal stays short.

pub mod connection;
pub mod failover;
pub mod http;
pub mod persistence;
pub mod protocol;
pub mod replication;
pub mod signals;
#[cfg(test)]
mod testkit;

use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

use graphstream::VertexId;
use streamlink_core::journal::JournalEntry;
use streamlink_core::{AccuracyAuditor, AuditConfig, AuditSnapshot, MemoryReport, SketchStore};

use persistence::Persist;

/// How often the housekeeping and connection loops wake up to poll the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How often housekeeping refreshes the `mem.*` gauges from a fresh
/// [`MemoryReport`] (scrapes also refresh on demand; this keeps the TCP
/// `METRICS` view current even with no scraper attached).
pub const MEM_REFRESH_INTERVAL: Duration = Duration::from_secs(5);

/// Tunables for one server instance. All have serving-grade defaults;
/// `streamlink serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneous connections; extras are shed with
    /// `ERR busy retry`.
    pub max_conns: usize,
    /// Close a connection after this long without a complete command.
    pub idle_timeout: Duration,
    /// How long shutdown waits for live connections before giving up.
    pub drain_deadline: Duration,
    /// Checkpoint at least this often while new edges exist.
    pub snapshot_every: Duration,
    /// Checkpoint as soon as the journal lag reaches this many edges.
    pub snapshot_every_edges: u64,
    /// Snapshot generations each checkpoint retains (the recovery
    /// chain's depth; at least 1).
    pub snapshot_keep: usize,
    /// Log a one-line metrics summary this often (zero disables).
    pub metrics_log_every: Duration,
    /// Run an accuracy-audit cycle this often (zero disables the
    /// auditor entirely — no shadow tracking, no background thread).
    pub audit_interval: Duration,
    /// Vertex pairs scored per audit cycle.
    pub audit_pairs: usize,
    /// Capacity (entries) of the replication ship ring on a primary;
    /// zero disables serving `REPL` pulls entirely.
    pub repl_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 1024,
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            snapshot_every: Duration::from_secs(30),
            snapshot_every_edges: 50_000,
            snapshot_keep: streamlink_core::DEFAULT_SNAPSHOT_KEEP,
            metrics_log_every: Duration::from_secs(60),
            audit_interval: Duration::from_secs(30),
            audit_pairs: 64,
            repl_buffer: 65_536,
        }
    }
}

/// Everything the serving threads share: the store, the optional
/// persistence layer, counters, and the shutdown flag.
///
/// Lock order is `store` then `persist` everywhere; both locks recover
/// from poisoning (a panicked connection thread must not take the
/// server down with it).
pub struct ServerState {
    store: RwLock<SketchStore>,
    persist: Option<Mutex<Persist>>,
    config: ServerConfig,
    started: Instant,
    active: AtomicUsize,
    /// Live HTTP-plane handlers (capped at
    /// [`http::MAX_SCRAPER_CONNS`]).
    scrapers_active: AtomicUsize,
    /// Where to connect, once shutdown is requested, to free each
    /// acceptor blocked in `accept` (see [`ServerState::listen`]).
    wakes: Mutex<Vec<SocketAddr>>,
    last_snapshot_seq: AtomicU64,
    local_shutdown: AtomicBool,
    /// False after a journal append fails, true again after the next
    /// success — the `/healthz` degraded-storage signal. Always true
    /// for in-memory deployments.
    storage_ok: AtomicBool,
    /// Online accuracy auditor (`None` when `audit_interval` is zero).
    /// Lock order: the store lock is always taken before the auditor's
    /// internal lock — both the insert path (write store → observe) and
    /// the audit cycle (read store → score) follow it.
    auditor: Option<AccuracyAuditor>,
    /// Primary-side replication: the bounded ship ring + peer registry
    /// (`None` when `repl_buffer` is zero). A replica holds one but
    /// serves no pulls from it unless a promotion makes it primary.
    /// Lock order: the ring's lock is taken under the store write lock
    /// on the insert path, so store → ring everywhere.
    repl: Option<replication::PrimaryRepl>,
    /// Replica-side replication: how far apply has gotten (`None` on a
    /// plain primary).
    replica: Option<Arc<replication::ReplicaRuntime>>,
    /// Cluster membership and the failover state machine (`None` on a
    /// plain primary). Every replica is a cluster node — a voter or a
    /// learner — carrying *both* `repl` and `replica`; a voter switches
    /// sides as its role changes.
    cluster: Option<Arc<failover::ClusterRuntime>>,
}

impl ServerState {
    /// A server over an in-memory store: no journal, no snapshots.
    #[must_use]
    pub fn in_memory(store: SketchStore, config: ServerConfig) -> Self {
        Self::new(store, None, 0, config)
    }

    /// A server backed by a data directory (opened via
    /// [`persistence::open`]); `snapshot_seq` is the recovered
    /// snapshot's high-water mark.
    #[must_use]
    pub fn with_persistence(
        store: SketchStore,
        persist: Persist,
        snapshot_seq: u64,
        config: ServerConfig,
    ) -> Self {
        Self::new(store, Some(persist), snapshot_seq, config)
    }

    /// A replica: a cluster node, voter (`--peers`) or learner
    /// (`--replicate-from`). It keeps its ship ring (a voter's promotion
    /// turns it into the serving primary) and may carry a data directory
    /// (durable replicas journal what they apply). Whether it currently
    /// *acts* as a replica is decided by the cluster runtime's role, not
    /// by construction.
    #[must_use]
    pub fn with_cluster(
        store: SketchStore,
        persist: Option<Persist>,
        snapshot_seq: u64,
        config: ServerConfig,
        runtime: Arc<replication::ReplicaRuntime>,
        cluster: Arc<failover::ClusterRuntime>,
    ) -> Self {
        let mut state = Self::new(store, persist, snapshot_seq, config);
        state.replica = Some(runtime);
        state.cluster = Some(cluster);
        state
    }

    fn new(
        store: SketchStore,
        persist: Option<Persist>,
        snapshot_seq: u64,
        config: ServerConfig,
    ) -> Self {
        let auditor = (!config.audit_interval.is_zero())
            .then(|| AccuracyAuditor::new(AuditConfig::default()));
        // Seed the ship ring at the primary's current WAL position so
        // replicated seqs line up with what is already on disk; a
        // journal-less primary numbers from its edge count instead.
        let repl = (config.repl_buffer > 0).then(|| {
            let last_seq = persist.as_ref().map_or_else(
                || store.edges_processed(),
                |p| p.journal.next_seq().saturating_sub(1),
            );
            replication::PrimaryRepl::new(config.repl_buffer, last_seq)
        });
        ServerState {
            store: RwLock::new(store),
            persist: persist.map(Mutex::new),
            config,
            started: Instant::now(),
            active: AtomicUsize::new(0),
            scrapers_active: AtomicUsize::new(0),
            wakes: Mutex::new(Vec::new()),
            last_snapshot_seq: AtomicU64::new(snapshot_seq),
            local_shutdown: AtomicBool::new(false),
            storage_ok: AtomicBool::new(true),
            auditor,
            repl,
            replica: None,
            cluster: None,
        }
    }

    /// The server's tunables.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Read access to the store, recovering from lock poisoning.
    pub fn read_store(&self) -> RwLockReadGuard<'_, SketchStore> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the store, recovering from lock poisoning.
    pub fn write_store(&self) -> RwLockWriteGuard<'_, SketchStore> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn persist_guard(&self) -> Option<MutexGuard<'_, Persist>> {
        self.persist
            .as_ref()
            .map(|p| p.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Applies one edge: journal first (when persistence is on), then
    /// the in-memory store. Returns the seq the write was assigned
    /// (WAL/ship-ring; the post-insert edge count on bare in-memory
    /// servers), and only after the edge is at least crash-durable —
    /// callers ack the client on `Ok` and must not on `Err`.
    ///
    /// The seq comes from the journal's own high-water mark, not the
    /// store's edge count: after recovery has quarantined corrupt
    /// records the two diverge, and deriving seqs from the count would
    /// reuse numbers already on disk (replay would then silently skip
    /// the new edges).
    ///
    /// # Errors
    /// Fails if the journal append fails — real disk trouble or an
    /// injected fault; the store is then left untouched, so an errored
    /// (un-acked) edge is never half-applied, and the server keeps
    /// serving reads.
    pub fn insert_edge(&self, u: VertexId, v: VertexId) -> io::Result<u64> {
        // Cheap hash check first: only audited edges pay for the two
        // pre-insert degree lookups and the auditor lock.
        let audit = self.auditor.as_ref().filter(|a| a.wants(u) || a.wants(v));
        let mut store = self.write_store();
        let degrees_before = audit.map(|_| (store.degree(u), store.degree(v)));
        let mut wal_seq = None;
        if let Some(mut persist) = self.persist_guard() {
            let seq = persist.journal.next_seq();
            if let Err(e) = persist.journal.append(JournalEntry { seq, u, v }) {
                self.storage_ok.store(false, Ordering::SeqCst);
                return Err(e);
            }
            self.storage_ok.store(true, Ordering::SeqCst);
            wal_seq = Some(seq);
        }
        store.insert_edge(u, v);
        // The span's degree class, noted under the write lock already held.
        streamlink_core::trace::note_degree(store.degree(u).max(store.degree(v)));
        let mut assigned = wal_seq;
        // Ship-ring record happens under the store write lock, so a
        // `REPL SNAPSHOT` (read store, then ring) always sees a ring
        // seq consistent with the captured store.
        if let Some(repl) = &self.repl {
            let mut log = repl.log();
            match wal_seq {
                Some(seq) => log.record(JournalEntry { seq, u, v }),
                None => {
                    assigned = Some(log.assign_and_record(u, v));
                }
            }
        }
        let assigned = assigned.unwrap_or_else(|| store.edges_processed());
        if let (Some(a), Some((du, dv))) = (audit, degrees_before) {
            a.observe_edge(u, v, du, dv);
        }
        Ok(assigned)
    }

    /// Primary-side replication state, when this node ships WAL entries.
    #[must_use]
    pub fn primary_repl(&self) -> Option<&replication::PrimaryRepl> {
        self.repl.as_ref()
    }

    /// Replica-side replication state, on every cluster node.
    #[must_use]
    pub fn replica_runtime(&self) -> Option<&Arc<replication::ReplicaRuntime>> {
        self.replica.as_ref()
    }

    /// Cluster membership, on every node that is or may become a
    /// replica (`--peers` or `--replicate-from`).
    #[must_use]
    pub fn cluster(&self) -> Option<&Arc<failover::ClusterRuntime>> {
        self.cluster.as_ref()
    }

    /// Whether this node currently acts as a read replica (writes get
    /// `ERR readonly MOVED ...`): it follows the live failover role.
    #[must_use]
    pub fn is_replica(&self) -> bool {
        self.cluster.as_ref().is_some_and(|c| !c.is_primary())
    }

    /// The auditor's current rolling error state, if auditing is on.
    #[must_use]
    pub fn audit_snapshot(&self) -> Option<AuditSnapshot> {
        self.auditor.as_ref().map(AccuracyAuditor::snapshot)
    }

    /// The online accuracy auditor, if auditing is on ( `EXPLAIN` uses
    /// it to report shadow-sample coverage of the queried endpoints).
    #[must_use]
    pub fn auditor(&self) -> Option<&AccuracyAuditor> {
        self.auditor.as_ref()
    }

    /// Whether the most recent journal append failed — the storage leg
    /// of the `/healthz` verdict. Heals itself on the next successful
    /// append.
    #[must_use]
    pub fn storage_degraded(&self) -> bool {
        !self.storage_ok.load(Ordering::SeqCst)
    }

    /// Assembles a fresh component [`MemoryReport`] over the live store,
    /// journal, trace ring, and audit shadow state.
    ///
    /// Takes the persistence lock and the store read lock in sequence
    /// (never nested), so it is safe from any thread.
    #[must_use]
    pub fn memory_report(&self) -> MemoryReport {
        let journal_buffer = self.persist_guard().map_or(0, |p| p.journal.buffer_bytes());
        let repl_buffer = self.repl.as_ref().map_or(0, |r| r.buffer_bytes());
        let store = self.read_store();
        MemoryReport::collect(&store, self.auditor.as_ref(), journal_buffer, repl_buffer)
    }

    /// Refreshes every observation-time gauge: live connections,
    /// journal lag, and the full `mem.*` breakdown. Called by the
    /// housekeeping thread every [`MEM_REFRESH_INTERVAL`] and by `/metrics` so
    /// scrapes are never staler than one request.
    pub fn refresh_observable_gauges(&self) {
        let m = streamlink_core::metrics::global();
        m.connections_active.set(self.connections_active() as u64);
        m.journal_lag_edges.set(self.journal_lag());
        if let Some(repl) = &self.repl {
            repl.update_gauges();
        }
        if let Some(replica) = &self.replica {
            replica.update_gauges();
        }
        self.memory_report().publish();
    }

    /// Runs one accuracy-audit cycle against the live store (the
    /// background audit thread's body; public so tests and tools can
    /// force a cycle). `None` when auditing is disabled.
    pub fn run_audit_cycle(&self) -> Option<AuditSnapshot> {
        let auditor = self.auditor.as_ref()?;
        let store = self.read_store();
        Some(auditor.run_cycle(&store, self.config.audit_pairs))
    }

    /// Whether shutdown was requested, by signal or programmatically.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst) || signals::shutdown_requested()
    }

    /// Requests shutdown without a signal (used by tests), and wakes
    /// every acceptor so it sees the request at once.
    pub fn request_shutdown(&self) {
        self.local_shutdown.store(true, Ordering::SeqCst);
        self.wake_acceptors();
    }

    /// Makes `listener` block in `accept` and registers its address with
    /// the shutdown wake-up.
    fn listen(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(false)?;
        let addr = wake_addr(listener)?;
        self.wakes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(addr);
        Ok(())
    }

    /// Connects once to every registered listener, so each acceptor
    /// blocked in `accept` returns and sees the shutdown flag. Only the
    /// first call after shutdown connects; a listener registered later
    /// sees the flag before it first blocks.
    fn wake_acceptors(&self) {
        let wakes = std::mem::take(&mut *self.wakes.lock().unwrap_or_else(PoisonError::into_inner));
        for wake in wakes {
            if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
                eprintln!("cannot wake the accept loop at {wake}: {e}");
            }
        }
    }

    /// Connections currently being served.
    #[must_use]
    pub fn connections_active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Seconds since this server state was created.
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Journal records not yet covered by a durable snapshot, counted
    /// in WAL seqs on both sides (0 when serving purely in memory).
    ///
    /// Not the store's edge count: after recovery has quarantined
    /// corrupt records that count runs behind the journal's seqs.
    #[must_use]
    pub fn journal_lag(&self) -> u64 {
        let Some(persist) = self.persist_guard() else {
            return 0;
        };
        let last_seq = persist.journal.next_seq().saturating_sub(1);
        last_seq.saturating_sub(self.last_snapshot_seq.load(Ordering::SeqCst))
    }

    fn set_last_snapshot_seq(&self, seq: u64) {
        self.last_snapshot_seq.store(seq, Ordering::SeqCst);
    }
}

/// The two listeners a server runs, which share one acceptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    /// The line protocol (`serve`'s own listener).
    Protocol,
    /// The HTTP exposition plane (`--http-addr`).
    Http,
}

impl Plane {
    /// Handlers of this plane currently running.
    fn live(self, state: &ServerState) -> &AtomicUsize {
        match self {
            Plane::Protocol => &state.active,
            Plane::Http => &state.scrapers_active,
        }
    }

    /// How many handlers may run at once; connections past it are shed.
    fn cap(self, state: &ServerState) -> usize {
        match self {
            Plane::Protocol => state.config.max_conns,
            Plane::Http => http::MAX_SCRAPER_CONNS,
        }
    }

    /// Answers a connection past the cap with a back-off hint.
    fn shed(self, stream: TcpStream, cap: usize) {
        match self {
            Plane::Protocol => shed(stream, cap),
            Plane::Http => http::shed(stream),
        }
    }

    /// Serves one accepted connection to its end.
    fn handle(self, stream: TcpStream, state: &ServerState) {
        match self {
            Plane::Protocol => connection::handle(stream, state),
            Plane::Http => http::handle_connection(stream, state),
        }
    }

    fn thread_name(self) -> &'static str {
        match self {
            Plane::Protocol => "connection",
            Plane::Http => "http-conn",
        }
    }
}

/// Releases a handler's slot when dropped, so a panicked handler thread
/// still frees it.
struct SlotGuard<'a>(&'a AtomicUsize);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Takes connections on `listener` (registered with
/// [`ServerState::listen`]) until shutdown is requested: one handler
/// thread per connection up to the plane's cap, shedding the rest.
/// `accept` blocks; the shutdown wake-up connection frees it.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, plane: Plane) {
    // Phase attribution: how long the acceptor idled before each
    // connection arrived. Near-zero accept waits under load mean the
    // listener itself is the bottleneck; large waits mean it is starved
    // for work and latency lives elsewhere.
    let mut last_accept = Instant::now();
    while !state.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown_requested() {
                    // The wake-up, or a client that raced shutdown:
                    // either way, serve nothing more.
                    break;
                }
                if plane == Plane::Protocol {
                    let m = streamlink_core::metrics::global();
                    m.connections_accepted.incr();
                    m.serve_accept_wait_ms
                        .set(u64::try_from(last_accept.elapsed().as_millis()).unwrap_or(u64::MAX));
                    last_accept = Instant::now();
                }
                let cap = plane.cap(state);
                if plane.live(state).fetch_add(1, Ordering::SeqCst) >= cap {
                    plane.live(state).fetch_sub(1, Ordering::SeqCst);
                    plane.shed(stream, cap);
                    continue;
                }
                let st = Arc::clone(state);
                let spawned = thread::Builder::new()
                    .name(plane.thread_name().into())
                    .spawn(move || {
                        let _slot = SlotGuard(plane.live(&st));
                        plane.handle(stream, &st);
                    });
                if let Err(e) = spawned {
                    plane.live(state).fetch_sub(1, Ordering::SeqCst);
                    eprintln!("cannot spawn {plane:?} connection thread: {e}");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("{plane:?} accept failed: {e}");
                thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// Runs the full server lifecycle: accept until shutdown, drain, write
/// the final checkpoint. Returns `Ok(())` on a clean shutdown so the
/// process can exit 0.
///
/// `accept` blocks, so a connection is taken the moment it arrives. The
/// periodic work lives on a housekeeping thread, which also wakes every
/// acceptor once a signal requests shutdown.
///
/// # Errors
/// Fails if the listener cannot be configured or the final checkpoint
/// cannot be written (acked edges are still safe in the journal).
pub fn serve(listener: TcpListener, state: &Arc<ServerState>) -> io::Result<()> {
    state.listen(&listener)?;
    let checkpointer = if state.persist.is_some() {
        let st = Arc::clone(state);
        Some(
            thread::Builder::new()
                .name("checkpointer".into())
                .spawn(move || persistence::checkpoint_loop(&st))?,
        )
    } else {
        None
    };
    let audit_thread = if state.auditor.is_some() && !state.config.audit_interval.is_zero() {
        let st = Arc::clone(state);
        Some(
            thread::Builder::new()
                .name("auditor".into())
                .spawn(move || audit_loop(&st))?,
        )
    } else {
        None
    };
    // One loop owns both sides: it pulls while the node is a replica
    // and maintains the lease while a voter is primary.
    let repl_thread = match &state.cluster {
        Some(cluster) => {
            let st = Arc::clone(state);
            let cl = Arc::clone(cluster);
            Some(
                thread::Builder::new()
                    .name("replication".into())
                    .spawn(move || failover::cluster_loop(&st, &cl))?,
            )
        }
        None => None,
    };

    state.refresh_observable_gauges();
    let housekeeping = {
        let st = Arc::clone(state);
        thread::Builder::new()
            .name("housekeeping".into())
            .spawn(move || housekeeping_loop(&st))?
    };
    accept_loop(&listener, state, Plane::Protocol);
    drop(listener); // stop accepting before draining
    let _ = housekeeping.join();

    let deadline = Instant::now() + state.config.drain_deadline;
    while state.connections_active() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let stragglers = state.connections_active();
    if stragglers > 0 {
        eprintln!("drain deadline hit with {stragglers} connection(s) still open");
    }

    if let Some(handle) = checkpointer {
        let _ = handle.join();
    }
    if let Some(handle) = audit_thread {
        let _ = handle.join();
    }
    if let Some(handle) = repl_thread {
        let _ = handle.join();
    }
    if state.persist.is_some() {
        let report = persistence::checkpoint_now(state)?;
        eprintln!(
            "final snapshot at seq {} ({} journal segment(s) pruned)",
            report.snapshot_seq, report.segments_pruned
        );
    }
    Ok(())
}

/// Where the shutdown wake-up connects to free a blocked `accept`: the
/// listener's own address, with a wildcard IP replaced by loopback.
fn wake_addr(listener: &TcpListener) -> io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    Ok(addr)
}

/// The housekeeping thread body: the periodic metrics log line and
/// `mem.*` refresh until shutdown is requested, then the wake-up of
/// every acceptor (a signal flips the flag without waking anyone).
fn housekeeping_loop(state: &ServerState) {
    let mut last_metrics_log = Instant::now();
    let mut last_mem_refresh = Instant::now();
    while !state.shutdown_requested() {
        let log_every = state.config.metrics_log_every;
        if !log_every.is_zero() && last_metrics_log.elapsed() >= log_every {
            last_metrics_log = Instant::now();
            eprintln!("{}", metrics_log_line(state));
        }
        if last_mem_refresh.elapsed() >= MEM_REFRESH_INTERVAL {
            last_mem_refresh = Instant::now();
            state.refresh_observable_gauges();
        }
        thread::sleep(POLL_INTERVAL);
    }
    state.wake_acceptors();
}

/// The accuracy-audit thread body: one cycle per `audit_interval`,
/// polling the shutdown flag between sleeps so draining stays prompt.
fn audit_loop(state: &ServerState) {
    let mut last = Instant::now();
    while !state.shutdown_requested() {
        if last.elapsed() >= state.config.audit_interval {
            last = Instant::now();
            let _ = state.run_audit_cycle();
        }
        thread::sleep(POLL_INTERVAL);
    }
}

/// Rejects a connection past the cap: one `ERR busy retry` line with a
/// back-off hint (so clients can distinguish "retry later" from a hard
/// failure), then close.
fn shed(stream: TcpStream, cap: usize) {
    let m = streamlink_core::metrics::global();
    m.connections_shed.incr();
    m.sheds_busy.incr();
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(
        stream,
        "ERR busy retry: connection cap {cap} reached, back off and reconnect"
    );
}

/// The periodic one-line metrics summary housekeeping logs: the
/// load-bearing subset of `METRICS` (full catalogue via the protocol
/// command).
fn metrics_log_line(state: &ServerState) -> String {
    let m = streamlink_core::metrics::global();
    m.connections_active.set(state.connections_active() as u64);
    m.journal_lag_edges.set(state.journal_lag());
    let snap = m.snapshot();
    let insert = snap
        .histogram("core.insert.latency_ns")
        .copied()
        .unwrap_or_default();
    let cmd = snap
        .histogram("server.command_latency_ns")
        .copied()
        .unwrap_or_default();
    let audit = state.audit_snapshot().unwrap_or_default();
    format!(
        "metrics: edges={} commands={} errors={} conns={} shed={} \
         journal_lag={} insert_p99_ns={} cmd_p50_ns={} cmd_p99_ns={} \
         slow_ops={} audit_cycles={} audit_tracked={} \
         audit_jaccard_mae={:.6} audit_cn_rel_err_p95={:.6}",
        snap.value("core.insert.edges").unwrap_or(0),
        snap.value("server.commands").unwrap_or(0),
        snap.value("server.command_errors").unwrap_or(0),
        state.connections_active(),
        snap.value("server.connections_shed").unwrap_or(0),
        state.journal_lag(),
        insert.p99_ns,
        cmd.p50_ns,
        cmd.p99_ns,
        snap.value("trace.slow_ops").unwrap_or(0),
        audit.cycles,
        audit.tracked,
        audit.jaccard_mae,
        audit.cn_rel_err_p95,
    )
}

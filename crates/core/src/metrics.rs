//! Zero-dependency observability: atomic counters, gauges, and
//! fixed-bucket latency histograms behind one process-wide registry.
//!
//! The serving north-star needs workload *measurement* before any
//! workload-aware optimization (gSketch-style partitioning, EdgeSketch's
//! throughput/latency evaluation) is possible. This module provides the
//! counters, cheap enough for the O(k) insert hot path:
//!
//! * [`Counter`] — one relaxed `fetch_add` per event.
//! * [`Gauge`] — a last-write-wins level (set at observation time).
//! * [`LatencyHistogram`] — 32 power-of-two nanosecond buckets; recording
//!   is two relaxed `fetch_add`s plus a `fetch_max`, and percentiles are
//!   computed from a single coherent pass over a bucket snapshot, so a
//!   reported p50 can never exceed the p99 of the same snapshot.
//!
//! ## The registry
//!
//! [`global()`] returns the process-wide [`Metrics`] — a plain `static`
//! of named instruments, so the hot path pays no map lookup and no lock.
//! Everything is always safe to call from any thread.
//!
//! ## Cost model and the `enabled` switch
//!
//! [`Metrics::set_enabled`] gates the *data-plane* hot path
//! ([`crate::store::SketchStore::insert_edge`]): when disabled, inserts
//! skip even the counter increment. Insert latency is additionally
//! *sampled* (1 in [`INSERT_SAMPLE_INTERVAL`]) because two `Instant`
//! reads per edge would be measurable at small `k`. Control-plane
//! instruments (journal, checkpoint, server commands) are always
//! recorded — their cost is dwarfed by the IO they measure. The E19
//! plane of the `exp_overhead` experiment gates the enabled-vs-disabled
//! ingest overhead (median of paired passes; budget 5%, CI fails
//! above 10%).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime};

/// Insert latency is timed once every this many inserts (power of two).
pub const INSERT_SAMPLE_INTERVAL: u64 = 64;

const SAMPLE_MASK: u64 = INSERT_SAMPLE_INTERVAL - 1;

/// A monotone event counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter, usable in `static` contexts.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one; returns the *previous* value (useful for sampling).
    #[inline]
    pub fn incr(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (e.g. live connections, journal lag).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in `static` contexts.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the level by one (a gauge used as an in-flight count).
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one, undoing an [`Gauge::incr`].
    #[inline]
    pub fn decr(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Bucket 0 holds everything at or below this many nanoseconds; each
/// later bucket doubles the bound.
const FIRST_BUCKET_NS: u64 = 128;

/// Upper bound (inclusive, in ns) of bucket `i`; the last bucket absorbs
/// every larger value.
#[must_use]
fn bucket_bound_ns(i: usize) -> u64 {
    FIRST_BUCKET_NS << i
}

fn bucket_index(ns: u64) -> usize {
    // Values <= 128ns land in bucket 0; each doubling moves one bucket up.
    let shifted = ns.saturating_sub(1) / FIRST_BUCKET_NS;
    let idx = (u64::BITS - shifted.leading_zeros()) as usize;
    idx.min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket latency histogram over power-of-two nanosecond bins.
///
/// Recording is lock-free and allocation-free. Percentiles are answered
/// from a coherent single-pass snapshot of the buckets, which makes them
/// monotone in `p` by construction — p50 ≤ p95 ≤ p99 always holds for
/// values reported together via [`LatencyHistogram::summary`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram, usable in `static` contexts.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records the time elapsed since `start`.
    #[inline]
    pub fn observe(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(ns);
    }

    /// A coherent summary (count, mean, max, p50/p95/p99) from one pass
    /// over the buckets.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let percentile = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // ceil(p * count) with pure integer arithmetic would overflow
            // for huge counts; f64 rank is exact enough for bucket walks.
            let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_bound_ns(i);
                }
            }
            bucket_bound_ns(HISTOGRAM_BUCKETS - 1)
        };
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets.copy_from_slice(&counts);
        HistogramSummary {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            p50_ns: percentile(0.50),
            p95_ns: percentile(0.95),
            p99_ns: percentile(0.99),
            p999_ns: percentile(0.999),
            buckets,
        }
    }
}

/// One coherent histogram read-out. Latencies are bucket upper bounds in
/// nanoseconds, so reported percentiles are conservative (never
/// understated) and p50 ≤ p95 ≤ p99 by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded durations (ns).
    pub sum_ns: u64,
    /// Largest recorded duration (ns).
    pub max_ns: u64,
    /// Median latency (ns, bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile latency (ns).
    pub p95_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile latency (ns) — the tail the slow-op log hunts.
    pub p999_ns: u64,
    /// Raw per-bucket counts from the same coherent pass; bucket `i`
    /// covers durations up to `128 << i` ns (see [`HistogramSummary::bucket_bound_ns`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSummary {
    /// Upper bound (inclusive, ns) of bucket `i`; the last bucket
    /// absorbs every larger value.
    #[must_use]
    pub fn bucket_bound_ns(i: usize) -> u64 {
        bucket_bound_ns(i.min(HISTOGRAM_BUCKETS - 1))
    }

    /// Export lines this histogram contributes to
    /// [`MetricsSnapshot::render_text`]: seven scalar lines plus one per
    /// non-zero bucket (empty buckets are elided to keep `METRICS`
    /// output proportional to observed behavior).
    #[must_use]
    pub fn text_lines(&self) -> usize {
        7 + self.buckets.iter().filter(|&&c| c > 0).count()
    }
}

/// The process-wide instrument registry. Obtain it via [`global()`].
///
/// Field names mirror the exported metric keys (see
/// `docs/OPERATIONS.md` §8 for meanings and units).
#[derive(Debug)]
pub struct Metrics {
    enabled: AtomicBool,
    /// Edges folded into any [`crate::store::SketchStore`] (data plane).
    pub insert_edges: Counter,
    /// Sampled per-edge insert latency (1 in [`INSERT_SAMPLE_INTERVAL`]).
    pub insert_latency: LatencyHistogram,
    /// Successful [`crate::merge::merge_into`] calls.
    pub merge_ops: Counter,
    /// Whole-merge latency.
    pub merge_latency: LatencyHistogram,
    /// [`crate::parallel::ingest_parallel`] invocations.
    pub parallel_ingests: Counter,
    /// Per-shard ingest duration inside `ingest_parallel`.
    pub shard_latency: LatencyHistogram,
    /// Journal entries appended.
    pub journal_appends: Counter,
    /// Explicit `fdatasync`s issued by the journal.
    pub journal_fsyncs: Counter,
    /// Per-append latency (write + flush + optional sync), failed
    /// attempts included.
    pub journal_append_latency: LatencyHistogram,
    /// Journal segment rotations.
    pub journal_rotations: Counter,
    /// Journal entries replayed during recovery.
    pub journal_replayed: Counter,
    /// Mid-file corrupt journal records quarantined (not replayed)
    /// during recovery.
    pub wal_replay_skipped: Counter,
    /// Snapshot generations found corrupt on load and skipped in favor
    /// of an older one.
    pub snapshot_fallbacks: Counter,
    /// Checkpoints completed (snapshot written + journal pruned).
    pub checkpoints: Counter,
    /// Checkpoints that failed with an IO error.
    pub checkpoint_failures: Counter,
    /// Whole-checkpoint latency, failed attempts included.
    pub checkpoint_latency: LatencyHistogram,
    /// Protocol commands executed (any result).
    pub server_commands: Counter,
    /// Protocol commands answered with `ERR`.
    pub server_command_errors: Counter,
    /// `INSERT` commands accepted.
    pub server_inserts: Counter,
    /// Measure/DEGREE read queries served.
    pub server_queries: Counter,
    /// Whole-command latency: a served command's request arrival to its
    /// flushed response, the sum of its three `serve.phase.*` laps.
    pub server_command_latency: LatencyHistogram,
    /// Connections accepted into a handler thread.
    pub connections_accepted: Counter,
    /// Connections shed with `ERR busy retry` at the cap.
    pub connections_shed: Counter,
    /// Connections refused at the text-protocol connection cap
    /// (`serve.sheds_by_reason.busy`).
    pub sheds_busy: Counter,
    /// Connections closed by the idle-timeout reaper
    /// (`serve.sheds_by_reason.idle_timeout`).
    pub sheds_idle_timeout: Counter,
    /// Scrape requests refused at the HTTP scraper-connection cap
    /// (`serve.sheds_by_reason.http_cap`).
    pub sheds_http_cap: Counter,
    /// Milliseconds the acceptor idled in `accept()` before the most
    /// recent connection arrived (set at accept time): near zero means
    /// the listener is saturated, large means it is waiting for work.
    pub serve_accept_wait_ms: Gauge,
    /// Protocol commands currently in flight across all connection
    /// handlers: raised when a request line arrives, lowered once its
    /// response is flushed.
    pub serve_conn_queue_depth: Gauge,
    /// Serve-path phase: from the request line's arrival through
    /// classifying its command word.
    pub serve_phase_parse: LatencyHistogram,
    /// Serve-path phase: the command body (tokenizing, store locks,
    /// journal append, estimators, encoding the reply).
    pub serve_phase_execute: LatencyHistogram,
    /// Serve-path phase: writing and flushing the response.
    pub serve_phase_respond: LatencyHistogram,
    /// `INSERT` commands nacked with `ERR storage` because the journal
    /// append failed.
    pub storage_errors: Counter,
    /// Live connections (set at observation time).
    pub connections_active: Gauge,
    /// Acked edges not yet covered by a snapshot (set at observation
    /// time).
    pub journal_lag_edges: Gauge,
    /// Snapshot generations currently retained on disk (set at
    /// checkpoint/recovery time).
    pub snapshot_generations_kept: Gauge,
    /// Exit code of the most recent in-process `scrub` run (0 = clean,
    /// 1 = repaired/repairable, 2 = unrepairable loss).
    pub scrub_last_exit: Gauge,
    /// Trace spans recorded into the [`crate::trace`] ring.
    pub trace_spans: Counter,
    /// Spans that met the slow-op threshold.
    pub trace_slow_ops: Counter,
    /// Completed [`crate::audit`] cycles.
    pub audit_cycles: Counter,
    /// Vertex pairs scored by the auditor.
    pub audit_pairs: Counter,
    /// Vertices currently under exact shadow tracking.
    pub audit_tracked_vertices: Gauge,
    /// Rolling mean absolute Jaccard error, parts-per-million.
    pub audit_jaccard_mae_ppm: Gauge,
    /// Rolling p95 relative common-neighbors error, parts-per-million.
    pub audit_cn_rel_err_p95_ppm: Gauge,
    /// Rolling mean absolute Adamic–Adar error, parts-per-million.
    pub audit_aa_mae_ppm: Gauge,
    /// HTTP exposition-plane requests served (any status).
    pub http_requests: Counter,
    /// HTTP requests answered with a non-200 status (bad path, parse
    /// failure, timeout, or shed at the scraper-connection cap).
    pub http_errors: Counter,
    /// Whole-request latency at the HTTP exposition plane.
    pub http_request_latency: LatencyHistogram,
    /// Total modeled resident bytes across every accounted component
    /// (see [`crate::memory::MemoryReport`]).
    pub mem_total_bytes: Gauge,
    /// Sketch slot bytes (`vertices × k × slot size`).
    pub mem_sketch_slot_bytes: Gauge,
    /// Vertex-map overhead less its degree words (capacity-based model).
    pub mem_sketch_map_bytes: Gauge,
    /// Degree words inside the vertex map (capacity-based model).
    pub mem_degree_map_bytes: Gauge,
    /// Fixed store overhead: the struct itself.
    pub mem_store_fixed_bytes: Gauge,
    /// Journal write-buffer capacity (0 without persistence).
    pub mem_journal_buffer_bytes: Gauge,
    /// Trace-ring capacity bytes (constant once the ring exists).
    pub mem_trace_ring_bytes: Gauge,
    /// Audit shadow-adjacency bytes (0 when auditing is off).
    pub mem_audit_shadow_bytes: Gauge,
    /// Vertices covered by the memory report.
    pub mem_vertices: Gauge,
    /// Live total bytes per observed vertex — the paper's
    /// "constant space per vertex" claim as a scrapeable gauge.
    pub mem_bytes_per_vertex: Gauge,
    /// Primary's replication ship-buffer capacity bytes (0 when not a
    /// primary or replication serving is disabled).
    pub mem_repl_buffer_bytes: Gauge,
    /// WAL entries served to pulling replicas (primary).
    pub repl_entries_shipped: Counter,
    /// Full snapshots served to resyncing replicas (primary).
    pub repl_snapshots_shipped: Counter,
    /// Entries applied through the seq-dedup gate (replica).
    pub repl_entries_applied: Counter,
    /// Entries dropped as duplicates / late reorders (replica).
    pub repl_entries_deduped: Counter,
    /// Anti-entropy snapshot joins completed (replica).
    pub repl_anti_entropy_rounds: Counter,
    /// Snapshot resyncs forced by buffer shed, discontinuity, or
    /// primary restart (replica).
    pub repl_resyncs: Counter,
    /// Reconnect attempts after a lost primary link (replica).
    pub repl_reconnects: Counter,
    /// Distinct replicas seen in the last replica-liveness window
    /// (primary; set at observation time).
    pub repl_replicas_connected: Gauge,
    /// Worst known replica lag in edges (primary; set at observation
    /// time).
    pub repl_max_lag_edges: Gauge,
    /// Whether the primary link is currently up (replica; 0/1).
    pub repl_connected: Gauge,
    /// Highest primary seq reflected in the local store (replica).
    pub repl_applied_seq: Gauge,
    /// Known lag behind the primary in edges (replica).
    pub repl_lag_edges: Gauge,
    /// Highest primary seq durably journaled locally (replica; equals
    /// `repl.applied_seq` on in-memory replicas).
    pub repl_persisted_seq: Gauge,
    /// Current failover epoch (cluster mode; 0 outside it).
    pub repl_epoch: Gauge,
    /// Configured failover lease in milliseconds (cluster mode).
    pub repl_lease_ms: Gauge,
    /// Elections won by this node (self-promotion or forced PROMOTE).
    pub repl_promotions: Counter,
    /// Writes refused because this node's primaryship is fenced (lost
    /// majority lease or a newer epoch exists).
    pub repl_fenced_writes: Counter,
    /// Cluster control-plane events recorded into the
    /// [`crate::events`] journal ring.
    pub events_recorded: Counter,
    /// `events.jsonl` size-cap rotations.
    pub events_log_rotations: Counter,
    /// Event-journal ring capacity bytes (constant once the ring
    /// exists).
    pub mem_events_ring_bytes: Gauge,
}

impl Metrics {
    const fn new() -> Self {
        Metrics {
            enabled: AtomicBool::new(true),
            insert_edges: Counter::new(),
            insert_latency: LatencyHistogram::new(),
            merge_ops: Counter::new(),
            merge_latency: LatencyHistogram::new(),
            parallel_ingests: Counter::new(),
            shard_latency: LatencyHistogram::new(),
            journal_appends: Counter::new(),
            journal_fsyncs: Counter::new(),
            journal_append_latency: LatencyHistogram::new(),
            journal_rotations: Counter::new(),
            journal_replayed: Counter::new(),
            wal_replay_skipped: Counter::new(),
            snapshot_fallbacks: Counter::new(),
            checkpoints: Counter::new(),
            checkpoint_failures: Counter::new(),
            checkpoint_latency: LatencyHistogram::new(),
            server_commands: Counter::new(),
            server_command_errors: Counter::new(),
            server_inserts: Counter::new(),
            server_queries: Counter::new(),
            server_command_latency: LatencyHistogram::new(),
            connections_accepted: Counter::new(),
            connections_shed: Counter::new(),
            sheds_busy: Counter::new(),
            sheds_idle_timeout: Counter::new(),
            sheds_http_cap: Counter::new(),
            serve_accept_wait_ms: Gauge::new(),
            serve_conn_queue_depth: Gauge::new(),
            serve_phase_parse: LatencyHistogram::new(),
            serve_phase_execute: LatencyHistogram::new(),
            serve_phase_respond: LatencyHistogram::new(),
            storage_errors: Counter::new(),
            connections_active: Gauge::new(),
            journal_lag_edges: Gauge::new(),
            snapshot_generations_kept: Gauge::new(),
            scrub_last_exit: Gauge::new(),
            trace_spans: Counter::new(),
            trace_slow_ops: Counter::new(),
            audit_cycles: Counter::new(),
            audit_pairs: Counter::new(),
            audit_tracked_vertices: Gauge::new(),
            audit_jaccard_mae_ppm: Gauge::new(),
            audit_cn_rel_err_p95_ppm: Gauge::new(),
            audit_aa_mae_ppm: Gauge::new(),
            http_requests: Counter::new(),
            http_errors: Counter::new(),
            http_request_latency: LatencyHistogram::new(),
            mem_total_bytes: Gauge::new(),
            mem_sketch_slot_bytes: Gauge::new(),
            mem_sketch_map_bytes: Gauge::new(),
            mem_degree_map_bytes: Gauge::new(),
            mem_store_fixed_bytes: Gauge::new(),
            mem_journal_buffer_bytes: Gauge::new(),
            mem_trace_ring_bytes: Gauge::new(),
            mem_audit_shadow_bytes: Gauge::new(),
            mem_vertices: Gauge::new(),
            mem_bytes_per_vertex: Gauge::new(),
            mem_repl_buffer_bytes: Gauge::new(),
            repl_entries_shipped: Counter::new(),
            repl_snapshots_shipped: Counter::new(),
            repl_entries_applied: Counter::new(),
            repl_entries_deduped: Counter::new(),
            repl_anti_entropy_rounds: Counter::new(),
            repl_resyncs: Counter::new(),
            repl_reconnects: Counter::new(),
            repl_replicas_connected: Gauge::new(),
            repl_max_lag_edges: Gauge::new(),
            repl_connected: Gauge::new(),
            repl_applied_seq: Gauge::new(),
            repl_lag_edges: Gauge::new(),
            repl_persisted_seq: Gauge::new(),
            repl_epoch: Gauge::new(),
            repl_lease_ms: Gauge::new(),
            repl_promotions: Counter::new(),
            repl_fenced_writes: Counter::new(),
            events_recorded: Counter::new(),
            events_log_rotations: Counter::new(),
            mem_events_ring_bytes: Gauge::new(),
        }
    }

    /// Whether data-plane (insert hot path) instrumentation is on.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns data-plane instrumentation on or off. Control-plane
    /// instruments are unaffected.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Hot-path hook for `SketchStore::insert_edge`: counts the edge and
    /// decides (by sampling) whether this one should be timed. Returns
    /// `Some(start)` when the caller must time it from `start` into
    /// [`Metrics::insert_latency`] (`SketchStore` opens a
    /// [`crate::trace::timed_op_at`] guard there).
    #[inline]
    #[must_use]
    pub fn on_insert(&self) -> Option<Instant> {
        if !self.enabled() {
            return None;
        }
        let n = self.insert_edges.incr();
        (n & SAMPLE_MASK == 0).then(Instant::now)
    }

    /// A coherent snapshot of every instrument, in a stable export order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("core.insert.edges", self.insert_edges.get()),
                ("core.merge.ops", self.merge_ops.get()),
                ("core.parallel.ingests", self.parallel_ingests.get()),
                ("journal.appends", self.journal_appends.get()),
                ("journal.fsyncs", self.journal_fsyncs.get()),
                ("journal.rotations", self.journal_rotations.get()),
                ("journal.replayed", self.journal_replayed.get()),
                (
                    "journal.replay_skipped_records",
                    self.wal_replay_skipped.get(),
                ),
                ("snapshot.fallbacks_total", self.snapshot_fallbacks.get()),
                ("checkpoint.count", self.checkpoints.get()),
                ("checkpoint.failures", self.checkpoint_failures.get()),
                ("server.commands", self.server_commands.get()),
                ("server.command_errors", self.server_command_errors.get()),
                ("server.inserts", self.server_inserts.get()),
                ("server.queries", self.server_queries.get()),
                (
                    "server.connections_accepted",
                    self.connections_accepted.get(),
                ),
                ("server.connections_shed", self.connections_shed.get()),
                ("serve.sheds_by_reason.busy", self.sheds_busy.get()),
                (
                    "serve.sheds_by_reason.idle_timeout",
                    self.sheds_idle_timeout.get(),
                ),
                ("serve.sheds_by_reason.http_cap", self.sheds_http_cap.get()),
                ("server.storage_errors", self.storage_errors.get()),
                ("trace.spans", self.trace_spans.get()),
                ("trace.slow_ops", self.trace_slow_ops.get()),
                ("audit.cycles", self.audit_cycles.get()),
                ("audit.pairs", self.audit_pairs.get()),
                ("http.requests", self.http_requests.get()),
                ("http.errors", self.http_errors.get()),
                ("repl.entries_shipped", self.repl_entries_shipped.get()),
                ("repl.snapshots_shipped", self.repl_snapshots_shipped.get()),
                ("repl.entries_applied", self.repl_entries_applied.get()),
                ("repl.entries_deduped", self.repl_entries_deduped.get()),
                (
                    "repl.anti_entropy_rounds",
                    self.repl_anti_entropy_rounds.get(),
                ),
                ("repl.resyncs", self.repl_resyncs.get()),
                ("repl.reconnects", self.repl_reconnects.get()),
                ("repl.promotions", self.repl_promotions.get()),
                ("repl.fenced_writes", self.repl_fenced_writes.get()),
                ("events.recorded", self.events_recorded.get()),
                ("events.log_rotations", self.events_log_rotations.get()),
            ],
            gauges: vec![
                ("server.connections_active", self.connections_active.get()),
                ("serve.accept_wait_ms", self.serve_accept_wait_ms.get()),
                ("serve.conn_queue_depth", self.serve_conn_queue_depth.get()),
                ("journal.lag_edges", self.journal_lag_edges.get()),
                (
                    "snapshot.generations_kept",
                    self.snapshot_generations_kept.get(),
                ),
                ("scrub.last_exit", self.scrub_last_exit.get()),
                ("audit.tracked_vertices", self.audit_tracked_vertices.get()),
                ("audit.jaccard_mae_ppm", self.audit_jaccard_mae_ppm.get()),
                (
                    "audit.cn_rel_err_p95_ppm",
                    self.audit_cn_rel_err_p95_ppm.get(),
                ),
                ("audit.aa_mae_ppm", self.audit_aa_mae_ppm.get()),
                ("mem.total_bytes", self.mem_total_bytes.get()),
                ("mem.sketch_slot_bytes", self.mem_sketch_slot_bytes.get()),
                ("mem.sketch_map_bytes", self.mem_sketch_map_bytes.get()),
                ("mem.degree_map_bytes", self.mem_degree_map_bytes.get()),
                ("mem.store_fixed_bytes", self.mem_store_fixed_bytes.get()),
                (
                    "mem.journal_buffer_bytes",
                    self.mem_journal_buffer_bytes.get(),
                ),
                ("mem.trace_ring_bytes", self.mem_trace_ring_bytes.get()),
                ("mem.audit_shadow_bytes", self.mem_audit_shadow_bytes.get()),
                ("mem.vertices", self.mem_vertices.get()),
                ("mem.bytes_per_vertex", self.mem_bytes_per_vertex.get()),
                ("mem.repl_buffer_bytes", self.mem_repl_buffer_bytes.get()),
                ("mem.events_ring_bytes", self.mem_events_ring_bytes.get()),
                (
                    "repl.replicas_connected",
                    self.repl_replicas_connected.get(),
                ),
                ("repl.max_lag_edges", self.repl_max_lag_edges.get()),
                ("repl.connected", self.repl_connected.get()),
                ("repl.applied_seq", self.repl_applied_seq.get()),
                ("repl.lag_edges", self.repl_lag_edges.get()),
                ("repl.persisted_seq", self.repl_persisted_seq.get()),
                ("repl.epoch", self.repl_epoch.get()),
                ("repl.lease_ms", self.repl_lease_ms.get()),
                ("process.uptime_secs", uptime_secs()),
                ("process.as_of_unix_ms", as_of_unix_ms()),
            ],
            histograms: vec![
                ("core.insert.latency_ns", self.insert_latency.summary()),
                ("core.merge.latency_ns", self.merge_latency.summary()),
                (
                    "core.parallel.shard_latency_ns",
                    self.shard_latency.summary(),
                ),
                (
                    "journal.append_latency_ns",
                    self.journal_append_latency.summary(),
                ),
                ("checkpoint.latency_ns", self.checkpoint_latency.summary()),
                (
                    "server.command_latency_ns",
                    self.server_command_latency.summary(),
                ),
                ("serve.phase.parse_ns", self.serve_phase_parse.summary()),
                ("serve.phase.execute_ns", self.serve_phase_execute.summary()),
                ("serve.phase.respond_ns", self.serve_phase_respond.summary()),
                (
                    "http.request_latency_ns",
                    self.http_request_latency.summary(),
                ),
            ],
        }
    }
}

static GLOBAL: Metrics = Metrics::new();

/// The process-wide metrics registry.
#[must_use]
pub fn global() -> &'static Metrics {
    // Anchor the uptime clock on first registry access so
    // `process.uptime_secs` measures from effective process start.
    let _ = process_start();
    &GLOBAL
}

/// The instant the registry was first touched (≈ process start; the
/// `Metrics` static is `const`-constructed so it cannot hold an
/// `Instant` itself).
#[must_use]
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Whole seconds since [`process_start`] — monotone, restart-resetting.
#[must_use]
pub fn uptime_secs() -> u64 {
    process_start().elapsed().as_secs()
}

/// Current wall-clock time in Unix milliseconds (0 if the system clock
/// sits before the epoch).
#[must_use]
pub fn as_of_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// One coherent read-out of the whole registry, renderable as text
/// key=value lines (the `METRICS` protocol command) or JSON
/// (`--metrics-out`).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(key, value)` monotone counters.
    pub counters: Vec<(&'static str, u64)>,
    /// `(key, value)` point-in-time levels.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(key, summary)` latency histograms.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter or gauge by key.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by key.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// Renders `key=value` lines — one per counter and gauge, and per
    /// histogram seven scalars (`.count`, `.sum`, `.max`, `.p50`,
    /// `.p95`, `.p99`, `.p999`) plus one `.bucket_le_<ns>` line per
    /// non-zero bucket — in stable order, one metric per line, no
    /// trailing newline.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.counters.iter().chain(&self.gauges) {
            out.push_str(&format!("{k}={v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k}.count={}\n{k}.sum={}\n{k}.max={}\n{k}.p50={}\n{k}.p95={}\n{k}.p99={}\n\
                 {k}.p999={}\n",
                h.count, h.sum_ns, h.max_ns, h.p50_ns, h.p95_ns, h.p99_ns, h.p999_ns
            ));
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    out.push_str(&format!(
                        "{k}.bucket_le_{}={c}\n",
                        HistogramSummary::bucket_bound_ns(i)
                    ));
                }
            }
        }
        out.pop(); // drop the final '\n'
        out
    }

    /// Renders the snapshot as a self-describing JSON object (schema
    /// `streamlink.metrics.v1`). Hand-rolled: keys are static
    /// identifiers and values are integers, so no escaping is needed.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"streamlink.metrics.v1\",\"counters\":{");
        let kv: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&kv.join(","));
        out.push_str("},\"gauges\":{");
        let kv: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&kv.join(","));
        out.push_str("},\"histograms\":{");
        let kv: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect();
                format!(
                    "\"{k}\":{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\
                     \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
                     \"buckets\":[{}]}}",
                    h.count,
                    h.sum_ns,
                    h.max_ns,
                    h.p50_ns,
                    h.p95_ns,
                    h.p99_ns,
                    h.p999_ns,
                    buckets.join(",")
                )
            })
            .collect();
        out.push_str(&kv.join(","));
        // Snapshot timestamps at top level so scraped files are
        // orderable even when the gauges section is filtered away.
        out.push_str(&format!(
            "}},\"uptime_secs\":{},\"as_of_unix_ms\":{}}}",
            self.value("process.uptime_secs").unwrap_or(0),
            self.value("process.as_of_unix_ms").unwrap_or(0),
        ));
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), for the HTTP `/metrics` endpoint.
    ///
    /// Dotted keys are mangled to legal metric names (`.` → `_`) under a
    /// `streamlink_` namespace; counters gain the conventional `_total`
    /// suffix. Each histogram becomes a native Prometheus histogram:
    /// cumulative `_bucket{le="…"}` series over the registry's
    /// power-of-two nanosecond bounds (the last, open-ended bucket is
    /// exported as `le="+Inf"` only, so every finite bound is honest),
    /// plus `_sum` and `_count`. Ends with a trailing newline, as the
    /// format requires.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        fn mangle(key: &str) -> String {
            let mut name = String::with_capacity(key.len() + 11);
            name.push_str("streamlink_");
            for c in key.chars() {
                name.push(if c == '.' { '_' } else { c });
            }
            name
        }
        let mut out = String::new();
        for (key, value) in &self.counters {
            let name = format!("{}_total", mangle(key));
            out.push_str(&format!(
                "# HELP {name} Streamlink counter `{key}`.\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        for (key, value) in &self.gauges {
            let name = mangle(key);
            out.push_str(&format!(
                "# HELP {name} Streamlink gauge `{key}`.\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
        for (key, h) in &self.histograms {
            let name = mangle(key);
            out.push_str(&format!(
                "# HELP {name} Streamlink latency histogram `{key}` (nanoseconds).\n\
                 # TYPE {name} histogram\n"
            ));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                cumulative += c;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    HistogramSummary::bucket_bound_ns(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {}\n",
                h.sum_ns, h.count
            ));
        }
        out
    }

    /// Number of exported metric lines ([`MetricsSnapshot::render_text`]
    /// line count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
            + self.gauges.len()
            + self
                .histograms
                .iter()
                .map(|(_, h)| h.text_lines())
                .sum::<usize>()
    }

    /// Whether the snapshot exports nothing (never true for the global
    /// registry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.incr(), 0);
        assert_eq!(c.incr(), 1);
        c.add(10);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(128), 0);
        assert_eq!(bucket_index(129), 1);
        assert_eq!(bucket_index(256), 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut prev = 0;
        for ns in [1u64, 50, 200, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            let idx = bucket_index(ns);
            assert!(idx >= prev, "bucket index must be monotone in ns");
            prev = idx;
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_data() {
        let h = LatencyHistogram::new();
        // 90 fast samples, 10 slow ones: p50 low, p99 high.
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(
            s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.p999_ns,
            "{s:?}"
        );
        assert!(s.p50_ns <= 128, "median should sit in the fast bucket");
        assert!(s.p99_ns >= 1_000_000, "p99 must cover the slow tail");
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.sum_ns, 90 * 100 + 10 * 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.buckets[bucket_index(100)], 90);
        assert_eq!(s.buckets[bucket_index(1_000_000)], 10);
    }

    #[test]
    fn single_sample_percentiles_agree() {
        let h = LatencyHistogram::new();
        h.record_ns(5_000);
        let s = h.summary();
        assert_eq!(s.p50_ns, s.p99_ns);
        assert!(s.p50_ns >= 5_000, "bucket bound must not understate");
    }

    #[test]
    fn snapshot_text_lines_match_len() {
        let snap = global().snapshot();
        assert_eq!(snap.render_text().lines().count(), snap.len());
        for line in snap.render_text().lines() {
            let (k, v) = line.split_once('=').expect("every line is key=value");
            assert!(!k.is_empty());
            v.parse::<u64>().expect("every value is an integer");
        }
    }

    #[test]
    fn snapshot_lookup_finds_known_keys() {
        let snap = global().snapshot();
        assert!(snap.value("core.insert.edges").is_some());
        assert!(snap.value("journal.lag_edges").is_some());
        assert!(snap.histogram("core.insert.latency_ns").is_some());
        assert!(snap.value("no.such.metric").is_none());
        assert!(!snap.is_empty());
    }

    #[test]
    fn snapshot_json_is_valid() {
        let json = global().snapshot().render_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("render_json must emit valid JSON");
        drop(parsed);
        assert!(json.contains("\"schema\":\"streamlink.metrics.v1\""));
        assert!(json.contains("\"core.insert.edges\""));
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"buckets\":["));
        assert!(json.contains("\"uptime_secs\":"));
        assert!(json.contains("\"as_of_unix_ms\":"));
    }

    #[test]
    fn render_json_round_trips_through_parser() {
        // Put nonzero data everywhere so the round trip exercises real
        // values, not just zeroes.
        let m = Metrics::new();
        m.server_commands.add(41);
        m.connections_active.set(3);
        m.server_command_latency.record_ns(900);
        m.server_command_latency.record_ns(5_000_000);
        let snap = m.snapshot();
        let json = snap.render_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");

        assert_eq!(
            v.get("schema").and_then(serde_json::Value::as_str),
            Some("streamlink.metrics.v1")
        );
        // Every counter and gauge survives with its exact value.
        for (k, val) in snap.counters.iter().chain(&snap.gauges) {
            let section = if snap.counters.iter().any(|(ck, _)| ck == k) {
                "counters"
            } else {
                "gauges"
            };
            let got = v
                .get(section)
                .and_then(|s| s.get(k))
                .and_then(serde_json::Value::as_u64);
            assert_eq!(got, Some(*val), "round trip lost {k}");
        }
        // Histogram scalars and the bucket array survive.
        let h = snap.histogram("server.command_latency_ns").unwrap();
        let hv = v
            .get("histograms")
            .and_then(|s| s.get("server.command_latency_ns"))
            .expect("histogram object");
        assert_eq!(
            hv.get("count").and_then(serde_json::Value::as_u64),
            Some(h.count)
        );
        assert_eq!(
            hv.get("p999_ns").and_then(serde_json::Value::as_u64),
            Some(h.p999_ns)
        );
        let buckets = hv.get("buckets").expect("buckets array");
        let serde_json::Value::Array(items) = buckets else {
            panic!("buckets must be an array")
        };
        assert_eq!(items.len(), HISTOGRAM_BUCKETS);
        let total: u64 = items
            .iter()
            .map(|b| b.as_u64().expect("bucket counts are u64"))
            .sum();
        assert_eq!(total, h.count);
        // Top-level timestamps parse as integers.
        assert!(v
            .get("uptime_secs")
            .and_then(serde_json::Value::as_u64)
            .is_some());
        assert!(v
            .get("as_of_unix_ms")
            .and_then(serde_json::Value::as_u64)
            .is_some());
    }

    #[test]
    fn text_lines_include_p999_and_nonzero_buckets_only() {
        let m = Metrics::new();
        m.insert_latency.record_ns(100); // bucket 0
        m.insert_latency.record_ns(100);
        m.insert_latency.record_ns(1_000_000);
        let snap = m.snapshot();
        let text = snap.render_text();
        assert_eq!(text.lines().count(), snap.len());
        assert!(text.contains("core.insert.latency_ns.p999="));
        assert!(
            text.contains("core.insert.latency_ns.bucket_le_128=2"),
            "{text}"
        );
        // Only 2 buckets are populated for this histogram.
        let bucket_lines = text
            .lines()
            .filter(|l| l.starts_with("core.insert.latency_ns.bucket_le_"))
            .count();
        assert_eq!(bucket_lines, 2);
        // Empty histograms contribute exactly their 7 scalar lines.
        let merge_lines = text
            .lines()
            .filter(|l| l.starts_with("core.merge.latency_ns."))
            .count();
        assert_eq!(merge_lines, 7);
    }

    #[test]
    fn snapshot_carries_timestamps() {
        let snap = global().snapshot();
        assert!(snap.value("process.uptime_secs").is_some());
        let as_of = snap.value("process.as_of_unix_ms").expect("as_of gauge");
        assert!(as_of > 1_500_000_000_000, "wall clock should be post-2017");
    }

    #[test]
    fn on_insert_counts_and_samples() {
        // Use a private registry so concurrent tests cannot interfere.
        let m = Metrics::new();
        let mut timed = 0;
        for _ in 0..(2 * INSERT_SAMPLE_INTERVAL) {
            if let Some(start) = m.on_insert() {
                m.insert_latency.observe(start);
                timed += 1;
            }
        }
        assert_eq!(m.insert_edges.get(), 2 * INSERT_SAMPLE_INTERVAL);
        assert_eq!(timed, 2, "exactly 1 in {INSERT_SAMPLE_INTERVAL} sampled");
        assert_eq!(m.insert_latency.summary().count, 2);
        m.set_enabled(false);
        assert!(m.on_insert().is_none());
        assert_eq!(
            m.insert_edges.get(),
            2 * INSERT_SAMPLE_INTERVAL,
            "disabled inserts are not counted"
        );
    }

    #[test]
    fn prometheus_rendering_mangles_and_types_every_family() {
        let m = Metrics::new();
        m.insert_edges.add(17);
        m.connections_active.set(3);
        m.insert_latency.record_ns(100);
        m.insert_latency.record_ns(1_000_000);
        let text = m.snapshot().render_prometheus();
        assert!(text.ends_with('\n'), "exposition must end with a newline");
        assert!(text.contains("# TYPE streamlink_core_insert_edges_total counter"));
        assert!(text.contains("streamlink_core_insert_edges_total 17"));
        assert!(text.contains("# TYPE streamlink_server_connections_active gauge"));
        assert!(text.contains("streamlink_server_connections_active 3"));
        assert!(text.contains("# TYPE streamlink_core_insert_latency_ns histogram"));
        assert!(text.contains("streamlink_core_insert_latency_ns_bucket{le=\"128\"} 1"));
        assert!(text.contains("streamlink_core_insert_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("streamlink_core_insert_latency_ns_sum 1000100"));
        assert!(text.contains("streamlink_core_insert_latency_ns_count 2"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unmangled metric name: {line:?}");
            assert!(name.starts_with("streamlink_"), "unprefixed name: {line:?}");
        }
        // New memory and http instruments are exported.
        assert!(text.contains("streamlink_mem_bytes_per_vertex "));
        assert!(text.contains("streamlink_http_requests_total "));
    }

    #[test]
    fn serve_phase_and_shed_reason_instruments_are_exported() {
        let m = Metrics::new();
        m.sheds_busy.incr();
        m.sheds_idle_timeout.add(2);
        m.sheds_http_cap.add(3);
        m.serve_accept_wait_ms.set(40);
        m.serve_conn_queue_depth.set(5);
        m.serve_phase_parse.record_ns(200);
        m.serve_phase_execute.record_ns(9_000);
        m.serve_phase_respond.record_ns(700);
        let snap = m.snapshot();
        assert_eq!(snap.value("serve.sheds_by_reason.busy"), Some(1));
        assert_eq!(snap.value("serve.sheds_by_reason.idle_timeout"), Some(2));
        assert_eq!(snap.value("serve.sheds_by_reason.http_cap"), Some(3));
        assert_eq!(snap.value("serve.accept_wait_ms"), Some(40));
        assert_eq!(snap.value("serve.conn_queue_depth"), Some(5));
        for key in [
            "serve.phase.parse_ns",
            "serve.phase.execute_ns",
            "serve.phase.respond_ns",
        ] {
            let h = snap.histogram(key).unwrap_or_else(|| panic!("{key}"));
            assert_eq!(h.count, 1, "{key}");
        }
        let prom = snap.render_prometheus();
        assert!(prom.contains("streamlink_serve_sheds_by_reason_busy_total 1"));
        assert!(prom.contains("streamlink_serve_sheds_by_reason_idle_timeout_total 2"));
        assert!(prom.contains("streamlink_serve_sheds_by_reason_http_cap_total 3"));
        assert!(prom.contains("# TYPE streamlink_serve_conn_queue_depth gauge"));
        assert!(prom.contains("# TYPE streamlink_serve_phase_execute_ns histogram"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let m = Metrics::new();
        for ns in [1u64, 100, 200, 5_000, 5_000, u64::MAX] {
            m.server_command_latency.record_ns(ns);
        }
        let text = m.snapshot().render_prometheus();
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("streamlink_server_command_latency_ns_bucket{le=\"")
            else {
                continue;
            };
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            let count: u64 = count.parse().expect("bucket count");
            assert!(count >= last, "bucket series regressed at le={le}");
            last = count;
            if le == "+Inf" {
                inf = Some(count);
            }
        }
        assert_eq!(inf, Some(6), "+Inf bucket must equal the sample count");
    }
}

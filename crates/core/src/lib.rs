//! # streamlink-core
//!
//! The paper's primary contribution: **per-vertex MinHash sketches for
//! link prediction in graph streams**, with constant space per vertex and
//! constant time per edge.
//!
//! ## The model
//!
//! Edges `(u, v)` arrive one at a time. For every vertex we keep a sketch
//! of `k` slots; slot `i` holds the minimum of `h_i(·)` over the neighbors
//! seen so far. Each `h_i` is a bijection, so that minimum also names the
//! vertex that achieved it (see [`sketch::Slot`]). Per edge we
//! fold `h_i(v)` into `u`'s sketch and `h_i(u)` into `v`'s sketch — `O(k)`
//! work, no allocation, independent of the graph size.
//!
//! From two sketches we estimate the three neighborhood measures:
//!
//! * **Jaccard** — the fraction of agreeing slots is an unbiased estimator
//!   of `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`.
//! * **Common neighbors** — exact degree counters (one word per vertex)
//!   invert the Jaccard identity: `CN = J · (d(u)+d(v)) / (1+J)`.
//! * **Adamic–Adar** — the agreeing slots are min-wise samples of the
//!   *intersection*; averaging `1/ln d(w)` over the sampled common
//!   neighbors and scaling by `ĈN` estimates AA
//!   ([`SketchStore::adamic_adar`]).
//!
//! The research variants (bottom-k, vertex-biased, windowed,
//! duplicate-robust and b-bit compressed sketches) live in the
//! `streamlink-variants` crate, built on this crate's public API.
//!
//! ## Modules
//!
//! * [`config`] — [`SketchConfig`] builder (slots, seed).
//! * [`store`] — [`SketchStore`], the main API.
//! * [`sketch`] — the per-vertex [`sketch::VertexSketch`].
//! * [`estimators`] — the pure estimation formulas, testable in isolation.
//! * [`accuracy`] — the `(ε, δ)` guarantee calculator.
//! * [`lsh`] — banded LSH index for sub-linear top-k similarity search.
//! * [`merge`] — sketch-store union for distributed ingestion.
//! * [`metrics`] — zero-dependency observability: atomic counters,
//!   gauges, and latency histograms behind one global registry, with
//!   Prometheus text exposition rendering.
//! * [`memory`] — live component-wise memory accounting
//!   ([`memory::MemoryReport`]): the "constant space per vertex" claim
//!   as a set of scrapeable `mem.*` gauges.
//! * [`trace`] — request tracing: span guards over a fixed-capacity
//!   ring buffer, sampled on the insert hot path, plus a rotating
//!   slow-op JSONL log and a live span-aggregated self-profile
//!   (`streamlink.profilez.v1`).
//! * [`loadgen`] — deterministic open-loop workload synthesis
//!   (Zipf-skewed mixed INSERT/read streams) and the
//!   coordinated-omission-safe `streamlink.loadreport.v1` artifact.
//! * [`events`] — the causally-ordered cluster event journal: typed
//!   control-plane events (elections, fences, handoffs) with
//!   `(node, epoch, seq, tick)` provenance, a bounded ring plus a
//!   rotating `events.jsonl`, and a deterministic cross-node merge
//!   that asserts at most one primary per epoch.
//! * [`audit`] — online sketch-health auditing: a bounded exact shadow
//!   adjacency over sampled vertices, scored against the live sketch
//!   estimates into rolling error gauges.
//! * [`parallel`] — sharded multi-threaded ingestion.
//! * [`codec`] — the storage/wire format: the checksummed binary v3
//!   envelope (LEB128 varints, delta-encoded slot columns), the only
//!   format written or read; a file in a pre-v3 text format is refused
//!   by name.
//! * [`snapshot`] — store snapshots for persistence: atomic
//!   (temp-file–fsync–rename) writes of checksummed v3 files.
//! * [`journal`] — append-only edge WAL with per-record CRC-32 framing:
//!   acked edges survive crashes, and corruption is detected, not
//!   replayed.
//! * [`durable`] — self-healing recovery (last-known-good snapshot
//!   chain + journal tail, quarantine of corrupt artifacts) and
//!   retention-aware checkpointing.
//! * [`chaos`] — fault injection (torn/partial writes, scripted
//!   [`chaos::FaultPlan`] ENOSPC/short-write/failed-fsync schedules,
//!   scripted [`chaos::DeliveryPlan`] drop/duplicate/reorder delivery
//!   schedules, bit flips) for durability and replication tests.
//! * [`repl`] — replication primitives: seq-deduplicated apply
//!   ([`repl::ReplicaApplier`]), the primary's bounded ship buffer
//!   ([`repl::ReplLog`]), and the byte-exact convergence check
//!   ([`repl::divergence`]).
//!
//! ## Quick example
//!
//! ```
//! use streamlink_core::{SketchConfig, SketchStore};
//! use graphstream::VertexId;
//!
//! let mut store = SketchStore::new(SketchConfig::with_slots(256));
//! // A tiny stream: 0 and 1 share neighbors 2, 3, 4.
//! for w in 2u64..5 {
//!     store.insert_edge(VertexId(0), VertexId(w));
//!     store.insert_edge(VertexId(1), VertexId(w));
//! }
//! let j = store.jaccard(VertexId(0), VertexId(1)).unwrap();
//! assert!(j > 0.5, "perfect overlap should estimate near 1.0, got {j}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod audit;
pub mod chaos;
pub mod codec;
pub mod config;
pub mod durable;
pub mod estimators;
pub mod events;
pub mod failover;
pub mod journal;
pub mod loadgen;
pub mod lsh;
pub mod memory;
pub mod merge;
pub mod metrics;
pub mod parallel;
pub mod repl;
pub mod sketch;
pub mod snapshot;
pub mod store;
pub mod trace;

pub use accuracy::AccuracyPlan;
pub use audit::{AccuracyAuditor, AuditConfig, AuditSnapshot};
pub use chaos::{DeliveryFault, DeliveryPlan, FaultKind, FaultPlan};
pub use codec::{CodecError, WireFormat};
pub use config::SketchConfig;
pub use durable::{checkpoint, recover, Recovery, DEFAULT_SNAPSHOT_KEEP};
pub use events::{ClusterEvent, EventJournal, EventKind};
pub use journal::{FsyncPolicy, Journal, JournalEntry, ReplayReport};
pub use loadgen::{LoadReport, MixSpec, OpKind, OpStream, WorkloadSpec};
pub use lsh::LshIndex;
pub use memory::{MemoryComponent, MemoryReport};
pub use metrics::{Metrics, MetricsSnapshot};
pub use repl::{ApplyOutcome, PullOutcome, ReplLog, ReplicaApplier};
pub use store::SketchStore;

//! # graphstream
//!
//! The graph-stream substrate for `streamlink`.
//!
//! A *graph stream* is a sequence of undirected edges `(u, v, t)` arriving
//! in timestamp order. This crate provides everything around the stream
//! itself, independent of any sketching:
//!
//! * [`types`] — [`VertexId`], [`Edge`] and the canonical pair ordering.
//! * [`adapters`] — stream combinators (interleave, concatenate) and
//!   deterministic fault injection ([`NoiseInjector`]).
//! * [`stream`] — the [`EdgeStream`] abstraction, in-memory streams, and
//!   stream adapters (prefixes, interleaving).
//! * [`adjacency`] — [`AdjacencyGraph`], the exact in-memory graph used as
//!   ground truth and as the exact baseline (this is what the stream model
//!   says you *cannot* afford; we build it anyway to compare against).
//! * [`generators`] — Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
//!   power-law configuration model and forest-fire stream generators, all
//!   deterministic under a seed.
//! * [`io`] — CSV, SNAP, fixed-width binary and compact varint edge-list
//!   codecs.
//! * [`reservoir`] — uniform edge reservoir sampling (the equal-memory
//!   streaming baseline).
//! * [`split`] — temporal train/test splitting for link-prediction
//!   evaluation.
//! * [`stats`] — single-pass stream statistics (degrees, skew) used by the
//!   dataset tables.
//!
//! ## Model assumptions
//!
//! Graphs are simple and undirected: generators emit each edge exactly
//! once, with `src < dst` canonicalized by [`Edge::canonical`]. Consumers
//! that need robustness against duplicate deliveries (the sketch layer)
//! are idempotent by construction; consumers that count (degree trackers)
//! document the distinct-edge assumption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod adjacency;
pub mod error;
pub mod generators;
pub mod io;
pub mod reservoir;
pub mod split;
pub mod stats;
pub mod stream;
pub mod types;

pub use adapters::NoiseInjector;
pub use adjacency::AdjacencyGraph;
pub use error::StreamError;
pub use generators::{BarabasiAlbert, ErdosRenyi, ForestFire, PowerLawConfig, WattsStrogatz};
pub use reservoir::EdgeReservoir;
pub use split::TemporalSplit;
pub use stats::StreamStats;
pub use stream::{EdgeStream, MemoryStream};
pub use types::{Edge, VertexId};

//! # streamlink
//!
//! Sketch-based link prediction in graph streams.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`hash`] — the seeded, invertible hash family ([`hashkit`]).
//! * [`stream`] — graph-stream substrate: edge streams, generators, exact
//!   adjacency ([`graphstream`]).
//! * [`sketch`] — the paper's contribution: per-vertex MinHash sketches with
//!   constant space per vertex and constant time per edge
//!   ([`streamlink_core`]).
//! * [`variants`] — research sketches built on [`sketch`]: bottom-k and
//!   vertex-biased ablations, sliding windows, duplicate-robust degrees,
//!   b-bit compressed replicas ([`streamlink_variants`]).
//! * [`predict`] — link-prediction scorers, evaluation metrics and
//!   experiment drivers ([`linkpred`]).
//! * [`data`] — synthetic stand-ins for the paper's real-world graph
//!   streams ([`datasets`]).
//!
//! ## Quickstart
//!
//! ```
//! use streamlink::prelude::*;
//!
//! // Build a sketch store: 64 slots per vertex.
//! let mut store = SketchStore::new(SketchConfig::with_slots(64));
//!
//! // Feed it a small synthetic stream.
//! let stream = BarabasiAlbert::new(500, 4, 42);
//! let mut exact = AdjacencyGraph::new();
//! for edge in stream.edges() {
//!     store.insert_edge(edge.src, edge.dst);
//!     exact.insert_edge(edge.src, edge.dst);
//! }
//!
//! // Estimate the Jaccard coefficient of a vertex pair and compare with
//! // the exact value.
//! let (u, v) = (VertexId(1), VertexId(2));
//! let est = store.jaccard(u, v).unwrap_or(0.0);
//! let truth = exact.jaccard(u, v);
//! assert!((est - truth).abs() <= 1.0);
//! ```

pub use datasets as data;
pub use graphstream as stream;
pub use hashkit as hash;
pub use linkpred as predict;
pub use streamlink_core as sketch;
pub use streamlink_variants as variants;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use datasets::{DatasetSpec, SimulatedDataset};
    pub use graphstream::{AdjacencyGraph, BarabasiAlbert, Edge, EdgeStream, ErdosRenyi, VertexId};
    pub use linkpred::{EvaluationReport, ExactScorer, Measure, Scorer, SketchScorer};
    pub use streamlink_core::{SketchConfig, SketchStore};
}

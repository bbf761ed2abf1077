//! A thread-safe sketch store for concurrent ingest + query workloads.
//!
//! [`crate::parallel`] covers offline throughput (shard, then merge). A
//! *serving* system interleaves writers and readers instead: edges arrive
//! while queries run. [`ConcurrentSketchStore`] supports that with
//! per-vertex-shard `RwLock`s:
//!
//! * vertices are assigned to `S` shards by hashing their id;
//! * an edge insert write-locks the two affected shards (in shard-index
//!   order, so two inserts can never deadlock);
//! * a query read-locks the two shards the same way; reads never block
//!   reads.
//!
//! Linearizability note: a query observes each endpoint's sketch at some
//! point between the query's start and end — the same freshness contract
//! a single-threaded store interleaving the same operations would give.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use hashkit::mix64;

use graphstream::{Edge, VertexId};

use crate::config::SketchConfig;
use crate::estimators;
use crate::store::SketchStore;

/// A sharded, thread-safe sketch store.
///
/// Shares query semantics with [`SketchStore`]; `&self` methods are safe
/// to call from any number of threads.
pub struct ConcurrentSketchStore {
    config: SketchConfig,
    shards: Vec<RwLock<SketchStore>>,
    edges_processed: AtomicU64,
}

impl std::fmt::Debug for ConcurrentSketchStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSketchStore")
            .field("shards", &self.shards.len())
            .field(
                "edges_processed",
                &self.edges_processed.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl ConcurrentSketchStore {
    /// A store with `shards` vertex shards (rounded up to at least 1).
    ///
    /// Each shard holds an independent [`SketchStore`] over its vertices;
    /// the per-shard `edges_processed`/degree bookkeeping is maintained
    /// so that per-vertex state is identical to a sequential store.
    #[must_use]
    pub fn new(config: SketchConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            config,
            shards: (0..shards)
                .map(|_| RwLock::new(SketchStore::new(config)))
                .collect(),
            edges_processed: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, v: VertexId) -> usize {
        (mix64(v.0 ^ 0xC0C0_57AB) % self.shards.len() as u64) as usize
    }

    /// Processes one stream edge (thread-safe).
    pub fn insert_edge(&self, u: VertexId, v: VertexId) {
        self.edges_processed.fetch_add(1, Ordering::Relaxed);
        if u == v {
            return;
        }
        let (su, sv) = (self.shard_of(u), self.shard_of(v));
        if su == sv {
            // Single shard: the inner store handles both endpoints.
            self.shards[su].write().insert_edge(u, v);
            return;
        }
        // Distinct shards: lock both in shard-index order (no deadlock),
        // then feed the edge to each endpoint's home shard. Each shard's
        // inner store updates both endpoints, but the query path only
        // ever reads a vertex from its home shard, so the duplicate
        // bookkeeping in the partner shard is invisible.
        let (mut a, mut b) = if su < sv {
            let a = self.shards[su].write();
            let b = self.shards[sv].write();
            (a, b)
        } else {
            let b = self.shards[sv].write();
            let a = self.shards[su].write();
            (a, b)
        };
        a.insert_edge(u, v);
        b.insert_edge(u, v);
    }

    /// Processes a whole stream from one thread (convenience).
    pub fn insert_stream(&self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Estimated Jaccard coefficient (thread-safe read).
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.shard_of(u), self.shard_of(v));
        let k = self.config.slots();
        if su == sv {
            let shard = self.shards[su].read();
            let (a, b) = (shard.sketch(u)?.clone(), shard.sketch(v)?.clone());
            return Some(estimators::jaccard_from_matches(a.match_count(&b), k));
        }
        let (first, second) = if su < sv { (su, sv) } else { (sv, su) };
        let g1 = self.shards[first].read();
        let g2 = self.shards[second].read();
        let (gu, gv) = if su < sv { (&g1, &g2) } else { (&g2, &g1) };
        let a = gu.sketch(u)?;
        let b = gv.sketch(v)?;
        Some(estimators::jaccard_from_matches(a.match_count(b), k))
    }

    /// Estimated common-neighbor count (thread-safe read).
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let j = self.jaccard(u, v)?;
        Some(estimators::cn_from_jaccard(
            j,
            self.degree(u),
            self.degree(v),
        ))
    }

    /// Degree counter of `v` (0 for unseen).
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.shards[self.shard_of(v)].read().degree(v)
    }

    /// Total edges processed.
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed.load(Ordering::Relaxed)
    }

    /// Number of distinct vertices (sums home shards; each vertex's
    /// sketch lives in exactly one shard's view for counting purposes —
    /// the partner shard also tracks it, so count home vertices only).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        let mut count = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = shard.read();
            count += guard.vertices().filter(|&v| self.shard_of(v) == i).count();
        }
        count
    }

    /// Collapses into a single-threaded [`SketchStore`] holding every
    /// vertex's *home-shard* state (exactly the sequential result).
    #[must_use]
    pub fn into_store(self) -> SketchStore {
        let mut out = SketchStore::new(self.config);
        let total = self.edges_processed.load(Ordering::Relaxed);
        {
            let (vertices, edges) = out.parts_mut();
            for (i, shard) in self.shards.iter().enumerate() {
                let guard = shard.read();
                let (shard_vertices, _) = guard.parts();
                for (&v, x) in shard_vertices {
                    if self.shard_of(v) == i {
                        vertices.insert(v, x.clone());
                    }
                }
            }
            *edges = total;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(32).seed(3)
    }

    #[test]
    fn sequential_equivalence() {
        let edges: Vec<Edge> = BarabasiAlbert::new(300, 3, 5).edges().collect();
        let concurrent = ConcurrentSketchStore::new(cfg(), 8);
        concurrent.insert_stream(edges.iter().copied());
        let mut plain = SketchStore::new(cfg());
        plain.insert_stream(edges.iter().copied());

        assert_eq!(concurrent.vertex_count(), plain.vertex_count());
        for u in 0..60u64 {
            for v in (u + 1)..60u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(concurrent.jaccard(u, v), plain.jaccard(u, v), "({u},{v})");
                assert_eq!(concurrent.degree(u), plain.degree(u));
            }
        }
    }

    #[test]
    fn into_store_equals_sequential() {
        let edges: Vec<Edge> = BarabasiAlbert::new(200, 2, 9).edges().collect();
        let concurrent = ConcurrentSketchStore::new(cfg(), 4);
        concurrent.insert_stream(edges.iter().copied());
        let collapsed = concurrent.into_store();

        let mut plain = SketchStore::new(cfg());
        plain.insert_stream(edges.iter().copied());

        assert_eq!(collapsed.vertex_count(), plain.vertex_count());
        assert_eq!(collapsed.edges_processed(), plain.edges_processed());
        for v in plain.vertices() {
            assert_eq!(collapsed.sketch(v), plain.sketch(v), "sketch at {v}");
            assert_eq!(collapsed.degree(v), plain.degree(v));
        }
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let edges: Vec<Edge> = BarabasiAlbert::new(400, 3, 7).edges().collect();
        let store = ConcurrentSketchStore::new(cfg(), 16);
        let chunk = edges.len().div_ceil(4);

        crossbeam::scope(|scope| {
            for part in edges.chunks(chunk) {
                let store = &store;
                scope.spawn(move |_| {
                    for e in part {
                        store.insert_edge(e.src, e.dst);
                    }
                });
            }
            // Interleave readers while writers run.
            for t in 0..2 {
                let store = &store;
                scope.spawn(move |_| {
                    for i in 0..500u64 {
                        let u = VertexId((i + t) % 100);
                        let v = VertexId((i * 7 + t) % 100);
                        let _ = store.jaccard(u, v);
                        let _ = store.degree(u);
                    }
                });
            }
        })
        .expect("threads panicked");

        assert_eq!(store.edges_processed(), edges.len() as u64);
        // Final state equals sequential regardless of interleaving.
        let collapsed = store.into_store();
        let mut plain = SketchStore::new(cfg());
        plain.insert_stream(edges.iter().copied());
        for v in plain.vertices() {
            assert_eq!(
                collapsed.sketch(v),
                plain.sketch(v),
                "sketch diverged at {v}"
            );
            assert_eq!(
                collapsed.degree(v),
                plain.degree(v),
                "degree diverged at {v}"
            );
        }
    }

    #[test]
    fn writer_bursts_on_a_hot_vertex_lose_no_updates() {
        // Worst-case write contention: every edge touches vertex 0, so
        // every insert write-locks the same home shard. The degree
        // counter and edge count must come out exact — a lost update
        // here would silently corrupt degree-based estimators.
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 500;
        let hot = VertexId(0);
        let store = ConcurrentSketchStore::new(cfg(), 16);
        crossbeam::scope(|scope| {
            for t in 0..WRITERS {
                let store = &store;
                scope.spawn(move |_| {
                    for i in 0..PER_WRITER {
                        // Distinct partner per insert: degree counts edges.
                        store.insert_edge(hot, VertexId(1 + t * PER_WRITER + i));
                    }
                });
            }
        })
        .expect("threads panicked");
        assert_eq!(store.edges_processed(), WRITERS * PER_WRITER);
        assert_eq!(store.degree(hot), WRITERS * PER_WRITER);
    }

    #[test]
    fn readers_observe_monotone_degrees_during_writer_bursts() {
        // Degree counters only ever increment, so any single reader must
        // observe a non-decreasing sequence even while writers burst —
        // a dip would mean a reader saw a torn or rolled-back update.
        const TOTAL: u64 = 2_000;
        let hot = VertexId(7);
        let store = ConcurrentSketchStore::new(cfg(), 8);
        crossbeam::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move |_| {
                    for i in 0..TOTAL / 4 {
                        store.insert_edge(hot, VertexId(1_000 + t * (TOTAL / 4) + i));
                    }
                });
            }
            for _ in 0..3 {
                let store = &store;
                scope.spawn(move |_| {
                    let mut prev = 0u64;
                    loop {
                        let d = store.degree(hot);
                        assert!(d >= prev, "degree went backwards: {prev} -> {d}");
                        // Reads stay sane mid-burst, not just at the end.
                        if let Some(j) = store.jaccard(hot, VertexId(1_000)) {
                            assert!((0.0..=1.0).contains(&j), "jaccard out of range: {j}");
                        }
                        if d == TOTAL {
                            break;
                        }
                        prev = d;
                    }
                });
            }
        })
        .expect("threads panicked");
        assert_eq!(store.degree(hot), TOTAL);
    }

    #[test]
    fn self_loops_ignored() {
        let store = ConcurrentSketchStore::new(cfg(), 4);
        store.insert_edge(VertexId(1), VertexId(1));
        assert_eq!(store.vertex_count(), 0);
        assert_eq!(store.edges_processed(), 1);
    }

    #[test]
    fn single_shard_still_works() {
        let store = ConcurrentSketchStore::new(cfg(), 1);
        for w in 10..30u64 {
            store.insert_edge(VertexId(0), VertexId(w));
            store.insert_edge(VertexId(1), VertexId(w));
        }
        assert_eq!(store.jaccard(VertexId(0), VertexId(1)), Some(1.0));
    }
}

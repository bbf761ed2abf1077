//! Property-based tests for the sketch layer: estimator bounds,
//! idempotence, merge correctness, snapshot fidelity.

use graphstream::{Edge, VertexId};
use proptest::prelude::*;
use streamlink_core::journal::JournalEntry;
use streamlink_core::merge::merge_into;
use streamlink_core::repl::{divergence, ApplyOutcome, ReplicaApplier};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

fn arb_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec(
        (0u64..64, 0u64..64).prop_map(|(u, v)| Edge::new(u, v, 0)),
        1..150,
    )
}

fn build(edges: &[Edge], k: usize, seed: u64) -> SketchStore {
    let mut s = SketchStore::new(SketchConfig::with_slots(k).seed(seed));
    s.insert_stream(edges.iter().copied());
    s
}

proptest! {
    /// Estimates are always in their feasible ranges.
    #[test]
    fn estimates_in_range(edges in arb_edges(), seed in any::<u64>(),
                          a in 0u64..64, b in 0u64..64) {
        let s = build(&edges, 32, seed);
        let (a, b) = (VertexId(a), VertexId(b));
        if let Some(j) = s.jaccard(a, b) {
            prop_assert!((0.0..=1.0).contains(&j));
        }
        if let Some(cn) = s.common_neighbors(a, b) {
            prop_assert!(cn >= 0.0);
            prop_assert!(cn <= s.degree(a).min(s.degree(b)) as f64 + 1e-9);
        }
        if let Some(aa) = s.adamic_adar(a, b) {
            prop_assert!(aa.is_finite() && aa >= 0.0);
        }
    }

    /// Queries are symmetric in their arguments.
    #[test]
    fn queries_symmetric(edges in arb_edges(), a in 0u64..64, b in 0u64..64) {
        let s = build(&edges, 16, 7);
        let (a, b) = (VertexId(a), VertexId(b));
        prop_assert_eq!(s.jaccard(a, b), s.jaccard(b, a));
        prop_assert_eq!(s.common_neighbors(a, b), s.common_neighbors(b, a));
    }

    /// Replaying the same stream twice (duplicate deliveries) never
    /// changes any sketch — slot idempotence at store scale.
    #[test]
    fn sketches_idempotent_under_replay(edges in arb_edges()) {
        let once = build(&edges, 16, 3);
        let mut twice = build(&edges, 16, 3);
        twice.insert_stream(edges.iter().copied());
        for v in once.vertices() {
            prop_assert_eq!(once.sketch(v), twice.sketch(v));
        }
    }

    /// Edge order does not matter: sketches are order-insensitive.
    #[test]
    fn sketches_order_insensitive(mut edges in arb_edges(), swaps in any::<u64>()) {
        let forward = build(&edges, 16, 5);
        // Deterministic pseudo-shuffle.
        let n = edges.len();
        for i in 0..n {
            let j = (hashkit::mix64(swaps ^ i as u64) % n as u64) as usize;
            edges.swap(i, j);
        }
        let shuffled = build(&edges, 16, 5);
        for v in forward.vertices() {
            prop_assert_eq!(forward.sketch(v), shuffled.sketch(v));
            prop_assert_eq!(forward.degree(v), shuffled.degree(v));
        }
    }

    /// Merging a split stream equals the single-pass store, wherever the
    /// split point falls.
    #[test]
    fn merge_exactness(edges in arb_edges(), cut_frac in 0.0f64..1.0) {
        let cut = ((edges.len() as f64) * cut_frac) as usize;
        let mut left = build(&edges[..cut], 16, 9);
        let right = build(&edges[cut..], 16, 9);
        let whole = build(&edges, 16, 9);
        merge_into(&mut left, &right).unwrap();
        prop_assert_eq!(left.vertex_count(), whole.vertex_count());
        for v in whole.vertices() {
            prop_assert_eq!(left.sketch(v), whole.sketch(v));
            prop_assert_eq!(left.degree(v), whole.degree(v));
        }
    }

    /// Applying the same WAL segment twice through the seq-dedup path
    /// leaves sketch slots unchanged and never double-counts degrees or
    /// edge counts — replicated delivery is exactly-once in effect.
    #[test]
    fn replayed_segment_dedupes_not_double_counts(edges in arb_edges()) {
        let entries: Vec<JournalEntry> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| JournalEntry { seq: i as u64 + 1, u: e.src, v: e.dst })
            .collect();
        let mut primary = SketchStore::new(SketchConfig::with_slots(16).seed(19));
        for e in &entries {
            primary.insert_edge(e.u, e.v);
        }
        let mut replica = SketchStore::new(SketchConfig::with_slots(16).seed(19));
        let mut applier = ReplicaApplier::new(0);
        // The same segment delivered twice back to back.
        let applied = entries
            .iter()
            .chain(entries.iter())
            .filter(|e| applier.offer(&mut replica, **e) == ApplyOutcome::Applied)
            .count();
        prop_assert_eq!(applied, entries.len());
        prop_assert_eq!(divergence(&primary, &replica), None);
    }

    /// Snapshot round-trips preserve every query answer.
    #[test]
    fn snapshot_fidelity(edges in arb_edges(), a in 0u64..64, b in 0u64..64) {
        let s = build(&edges, 16, 11);
        let restored = StoreSnapshot::capture(&s).restore();
        let (a, b) = (VertexId(a), VertexId(b));
        prop_assert_eq!(s.jaccard(a, b), restored.jaccard(a, b));
        prop_assert_eq!(s.adamic_adar(a, b), restored.adamic_adar(a, b));
    }

    /// A vertex's sketch depends only on its neighbor set, not on what
    /// the rest of the graph does (locality).
    #[test]
    fn sketch_locality(extra in arb_edges()) {
        // Fixed local neighborhood for vertex 1000.
        let local: Vec<Edge> =
            (0..10u64).map(|w| Edge::new(1000u64, 2000 + w, 0)).collect();
        let s_alone = build(&local, 16, 2);
        let mut combined_edges = local.clone();
        // Extra edges never touch vertex 1000 or its neighbors.
        combined_edges.extend(extra.iter().copied());
        let s_comb = build(&combined_edges, 16, 2);
        prop_assert_eq!(
            s_alone.sketch(VertexId(1000)),
            s_comb.sketch(VertexId(1000))
        );
    }
}

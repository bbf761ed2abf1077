//! Property-based tests for the LSH index.

use graphstream::{Edge, VertexId};
use proptest::prelude::*;
use streamlink_core::{LshIndex, SketchConfig, SketchStore};

fn arb_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec(
        (0u64..48, 0u64..48).prop_map(|(u, v)| Edge::new(u, v, 0)),
        1..120,
    )
}

fn cfg() -> SketchConfig {
    SketchConfig::with_slots(32).seed(17)
}

proptest! {
    /// LSH candidacy is symmetric, never contains the query, and only
    /// returns indexed vertices.
    #[test]
    fn lsh_candidate_invariants(edges in arb_edges(), q in 0u64..48) {
        let mut store = SketchStore::new(cfg());
        store.insert_stream(edges.iter().copied());
        let Ok(index) = LshIndex::build(&store, 8, 4) else {
            return Ok(());
        };
        let q = VertexId(q);
        let cands = index.candidates(&store, q);
        let all: std::collections::HashSet<VertexId> = store.vertices().collect();
        for &c in &cands {
            prop_assert!(c != q, "query in its own candidates");
            prop_assert!(all.contains(&c), "candidate not indexed");
            let back = index.candidates(&store, c);
            prop_assert!(back.contains(&q), "candidacy not symmetric: {q} -> {c}");
        }
        // No duplicates.
        let set: std::collections::HashSet<_> = cands.iter().collect();
        prop_assert_eq!(set.len(), cands.len());
    }

    /// top_k scores are sorted descending and bounded by k.
    #[test]
    fn lsh_topk_sorted(edges in arb_edges(), q in 0u64..48, k in 1usize..8) {
        let mut store = SketchStore::new(cfg());
        store.insert_stream(edges.iter().copied());
        let Ok(index) = LshIndex::build(&store, 8, 4) else {
            return Ok(());
        };
        let top = index.top_k(&store, VertexId(q), k);
        prop_assert!(top.len() <= k);
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "scores not descending");
        }
        for &(_, j) in &top {
            prop_assert!((0.0..=1.0).contains(&j));
        }
    }

    /// Identical twins (same neighborhood) always collide in every band.
    #[test]
    fn lsh_twins_always_candidates(nbrs in proptest::collection::hash_set(100u64..200, 1..20)) {
        let mut store = SketchStore::new(cfg());
        for &w in &nbrs {
            store.insert_edge(VertexId(0), VertexId(w));
            store.insert_edge(VertexId(1), VertexId(w));
        }
        let index = LshIndex::build(&store, 8, 4).unwrap();
        prop_assert!(index.candidates(&store, VertexId(0)).contains(&VertexId(1)));
    }
}

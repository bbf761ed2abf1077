//! Property-based tests for the research variants: sliding-window
//! stores, HyperLogLog degrees, the duplicate-robust store, b-bit
//! compressed replicas and the bottom-k sketch.

use graphstream::{Edge, VertexId};
use proptest::prelude::*;
use streamlink_core::{SketchConfig, SketchStore};
use streamlink_variants::{BottomKStore, CompressedStore, HyperLogLog, RobustStore, WindowedStore};

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
    /// A window large enough to hold the whole stream answers exactly
    /// like a plain store fed each distinct edge once — re-deliveries
    /// inside the live window are exact no-ops, degrees included.
    #[test]
    fn window_covering_stream_equals_plain(edges in arb_edges()) {
        let mut windowed = WindowedStore::new(cfg(), 10_000, 2);
        let mut plain = SketchStore::new(cfg());
        let mut seen = std::collections::HashSet::new();
        for e in &edges {
            windowed.insert_edge(e.src, e.dst);
            if seen.insert((e.src.0.min(e.dst.0), e.src.0.max(e.dst.0))) {
                plain.insert_edge(e.src, e.dst);
            }
        }
        for v in plain.vertices() {
            let ws = windowed.window_sketch(v);
            prop_assert_eq!(ws.as_ref(), plain.sketch(v));
            prop_assert_eq!(windowed.degree(v), plain.degree(v));
        }
    }

    /// The epoch count never exceeds the configured maximum, whatever
    /// the stream shape.
    #[test]
    fn window_epoch_bound(edges in arb_edges(), epoch_len in 1u64..20, max_epochs in 1usize..6) {
        let mut windowed = WindowedStore::new(cfg(), epoch_len, max_epochs);
        for e in &edges {
            windowed.insert_edge(e.src, e.dst);
        }
        prop_assert!(windowed.epoch_count() <= max_epochs);
        prop_assert_eq!(windowed.edges_processed(), edges.len() as u64);
    }

    /// Windowed queries over the live suffix equal a fresh store over
    /// that suffix (exact equivalence of epoch merging). The stream is
    /// globally dedup'd first so epoch rotation tracks stream position
    /// (duplicate deliveries don't advance the window).
    #[test]
    fn window_suffix_equivalence(raw in arb_edges(), epoch_len in 5u64..30) {
        let mut seen = std::collections::HashSet::new();
        let edges: Vec<Edge> = raw
            .into_iter()
            .filter(|e| seen.insert((e.src.0.min(e.dst.0), e.src.0.max(e.dst.0))))
            .collect();
        let max_epochs = 3usize;
        let mut windowed = WindowedStore::new(cfg(), epoch_len, max_epochs);
        for e in &edges {
            windowed.insert_edge(e.src, e.dst);
        }
        // Reconstruct which suffix the live epochs hold: epochs rotate
        // every `epoch_len` edges; the window holds the last
        // (full_epochs_kept * epoch_len + remainder) edges.
        let n = edges.len() as u64;
        let completed = n / epoch_len;
        let remainder = n % epoch_len;
        let kept_full = (max_epochs as u64 - 1).min(completed);
        let window_edges = kept_full * epoch_len + remainder;
        let suffix = &edges[(n - window_edges) as usize..];

        let mut fresh = SketchStore::new(cfg());
        for e in suffix {
            fresh.insert_edge(e.src, e.dst);
        }
        for v in fresh.vertices() {
            let ws = windowed.window_sketch(v);
            prop_assert_eq!(ws.as_ref(), fresh.sketch(v), "sketch mismatch at {}", v);
            prop_assert_eq!(windowed.degree(v), fresh.degree(v));
        }
    }

    /// HLL estimates are monotone under insertion and duplicate-immune.
    #[test]
    fn hll_monotone_and_idempotent(items in proptest::collection::hash_set(any::<u64>(), 1..300)) {
        let h = hashkit::SeededHash::new(3);
        let mut hll = HyperLogLog::new(8);
        let mut last = 0.0;
        for &x in &items {
            hll.insert_hash(h.hash(x));
            let est = hll.estimate();
            prop_assert!(est >= last - 1e-9, "estimate decreased: {est} < {last}");
            last = est;
        }
        // Re-inserting everything changes nothing.
        let snapshot = hll.clone();
        for &x in &items {
            hll.insert_hash(h.hash(x));
        }
        prop_assert_eq!(hll, snapshot);
    }

    /// HLL merge is commutative and equals the union sketch.
    #[test]
    fn hll_merge_commutative(
        a in proptest::collection::hash_set(any::<u64>(), 0..200),
        b in proptest::collection::hash_set(any::<u64>(), 0..200),
    ) {
        let h = hashkit::SeededHash::new(4);
        let build = |s: &std::collections::HashSet<u64>| {
            let mut hll = HyperLogLog::new(6);
            for &x in s {
                hll.insert_hash(h.hash(x));
            }
            hll
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(&ab, &ba);
        let union: std::collections::HashSet<u64> = a.union(&b).copied().collect();
        prop_assert_eq!(ab, build(&union));
    }
}

proptest! {
    /// Compressed replicas: estimates stay in [0, 1], agree with the
    /// builder at b = 16 within the collision-correction noise, and the
    /// replica answers exactly the builder's vertex set.
    #[test]
    fn compressed_replica_invariants(edges in arb_edges(), b in 1u8..=16) {
        let mut builder = SketchStore::new(cfg());
        builder.insert_stream(edges.iter().copied());
        let replica = CompressedStore::from_store(&builder, b);
        for u in 0..16u64 {
            for v in (u + 1)..16u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                let full = builder.jaccard(u, v);
                let comp = replica.jaccard(u, v);
                prop_assert_eq!(full.is_some(), comp.is_some(), "presence mismatch");
                if let Some(j) = comp {
                    prop_assert!((0.0..=1.0).contains(&j));
                    if b == 16 {
                        // One 32-slot sketch: a single low-bit collision
                        // at b = 16 has probability 32·2^-16 ≈ 0.0005.
                        prop_assert!((j - full.unwrap()).abs() < 0.2);
                    }
                }
            }
        }
    }

    /// Robust store: Jaccard identical to the plain store on any stream
    /// (same slots), and degree estimates are duplicate-invariant.
    #[test]
    fn robust_store_invariants(edges in arb_edges()) {
        let mut plain = SketchStore::new(cfg());
        let mut robust = RobustStore::new(cfg(), 8);
        let mut robust_dup = RobustStore::new(cfg(), 8);
        for e in &edges {
            plain.insert_edge(e.src, e.dst);
            robust.insert_edge(e.src, e.dst);
            robust_dup.insert_edge(e.src, e.dst);
            robust_dup.insert_edge(e.src, e.dst); // double delivery
        }
        for u in 0..16u64 {
            for v in (u + 1)..16u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                prop_assert_eq!(plain.jaccard(u, v), robust.jaccard(u, v));
                prop_assert_eq!(robust.jaccard(u, v), robust_dup.jaccard(u, v));
            }
        }
        for v in plain.vertices() {
            let once = robust.degree_estimate(v);
            let twice = robust_dup.degree_estimate(v);
            prop_assert!((once - twice).abs() < 1e-9, "HLL not duplicate-invariant at {}", v);
        }
    }

    /// Bottom-k estimates stay in range and are symmetric.
    #[test]
    fn bottomk_in_range(edges in arb_edges(), a in 0u64..48, b in 0u64..48) {
        let mut s = BottomKStore::new(16, 3);
        s.insert_stream(edges.iter().copied());
        let (a, b) = (VertexId(a), VertexId(b));
        if let Some(j) = s.jaccard(a, b) {
            prop_assert!((0.0..=1.0).contains(&j));
            prop_assert_eq!(Some(j), s.jaccard(b, a));
        }
    }
}

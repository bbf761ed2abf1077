//! Sketch-store union — the distributed/parallel ingestion primitive.
//!
//! MinHash slots are min-registers, so the union of two stores built from
//! edge-disjoint sub-streams is *exactly* the store a single pass over the
//! combined stream would produce: merge slots component-wise by `min`, add
//! degree counters, add edge counts. This holds per vertex, so shards can
//! split the stream arbitrarily — by range, by hash, round-robin — as long
//! as no edge is delivered to two shards (that would double-count
//! degrees; slots themselves would still be correct).
//!
//! Replicas never merge: two states of one stream overlap, and a replica
//! that fell behind installs a primary snapshot wholesale instead.

use crate::store::SketchStore;

/// Why two stores could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Slot counts differ.
    SlotMismatch {
        /// Slots of the destination store.
        left: usize,
        /// Slots of the source store.
        right: usize,
    },
    /// Base seeds differ — the hash families are incompatible and slot
    /// values are not comparable.
    SeedMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::SlotMismatch { left, right } => {
                write!(f, "cannot merge sketches of {left} and {right} slots")
            }
            MergeError::SeedMismatch => write!(f, "cannot merge stores with different seeds"),
        }
    }
}

impl std::error::Error for MergeError {}

fn check_compat(dst: &SketchStore, src: &SketchStore) -> Result<(), MergeError> {
    let (dc, sc) = (dst.config(), src.config());
    if dc.slots() != sc.slots() {
        return Err(MergeError::SlotMismatch {
            left: dc.slots(),
            right: sc.slots(),
        });
    }
    if dc.base_seed() != sc.base_seed() {
        return Err(MergeError::SeedMismatch);
    }
    Ok(())
}

/// Merges `src` into `dst` (neighborhood union per vertex).
///
/// This is the **shard union**: degrees and edge counts are *added*, so
/// it is exact only when the two stores were built from edge-disjoint
/// sub-streams.
///
/// # Errors
/// Fails without modifying `dst` if the configurations are incompatible.
pub fn merge_into(dst: &mut SketchStore, src: &SketchStore) -> Result<(), MergeError> {
    check_compat(dst, src)?;

    let m = crate::metrics::global();
    let _t = crate::trace::timed_op("merge", &m.merge_latency);
    // `dst` and `src` are distinct objects (`&mut` + `&`): merge straight
    // out of `src` with zero transient allocation.
    dst.join_from(src);
    m.merge_ops.incr();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(64).seed(7)
    }

    #[test]
    fn merged_equals_single_pass() {
        let stream: Vec<_> = BarabasiAlbert::new(300, 3, 2).edges().collect();
        let (first, second) = stream.split_at(stream.len() / 2);

        let mut a = SketchStore::new(cfg());
        a.insert_stream(first.iter().copied());
        let mut b = SketchStore::new(cfg());
        b.insert_stream(second.iter().copied());

        let mut whole = SketchStore::new(cfg());
        whole.insert_stream(stream.iter().copied());

        merge_into(&mut a, &b).unwrap();

        assert_eq!(a.vertex_count(), whole.vertex_count());
        assert_eq!(a.edges_processed(), whole.edges_processed());
        for v in whole.vertices() {
            assert_eq!(a.degree(v), whole.degree(v), "degree mismatch at {v}");
            assert_eq!(a.sketch(v), whole.sketch(v), "sketch mismatch at {v}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(100, 2, 1).edges());
        let before: Vec<_> = a.vertices().map(|v| (v, a.degree(v))).collect();
        merge_into(&mut a, &SketchStore::new(cfg())).unwrap();
        for (v, d) in before {
            assert_eq!(a.degree(v), d);
        }
    }

    #[test]
    fn merge_order_does_not_matter_for_sketches() {
        let stream: Vec<_> = BarabasiAlbert::new(200, 2, 3).edges().collect();
        let (x, y) = stream.split_at(stream.len() / 3);

        let build = |edges: &[graphstream::Edge]| {
            let mut s = SketchStore::new(cfg());
            s.insert_stream(edges.iter().copied());
            s
        };
        let mut ab = build(x);
        merge_into(&mut ab, &build(y)).unwrap();
        let mut ba = build(y);
        merge_into(&mut ba, &build(x)).unwrap();
        for v in ab.vertices() {
            assert_eq!(ab.sketch(v), ba.sketch(v));
            assert_eq!(ab.degree(v), ba.degree(v));
        }
    }

    #[test]
    fn slot_mismatch_rejected() {
        let mut a = SketchStore::new(SketchConfig::with_slots(32).seed(7));
        let b = SketchStore::new(SketchConfig::with_slots(64).seed(7));
        assert_eq!(
            merge_into(&mut a, &b),
            Err(MergeError::SlotMismatch {
                left: 32,
                right: 64
            })
        );
    }

    #[test]
    fn seed_mismatch_rejected() {
        let mut a = SketchStore::new(SketchConfig::with_slots(32).seed(1));
        let b = SketchStore::new(SketchConfig::with_slots(32).seed(2));
        assert_eq!(merge_into(&mut a, &b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn failed_merge_leaves_dst_untouched() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(50, 2, 1).edges());
        let edges_before = a.edges_processed();
        let b = SketchStore::new(SketchConfig::with_slots(128).seed(7));
        assert!(merge_into(&mut a, &b).is_err());
        assert_eq!(a.edges_processed(), edges_before);
    }
}

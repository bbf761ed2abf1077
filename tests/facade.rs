//! The facade crate's prelude must stay sufficient for the README
//! quickstart — this test is the compile-time contract for the public
//! entry path a new user takes.

use streamlink::prelude::*;

#[test]
fn readme_quickstart_compiles_and_runs() {
    let mut store = SketchStore::new(SketchConfig::with_slots(64).seed(7));
    for edge in BarabasiAlbert::new(500, 3, 42).edges() {
        store.insert_edge(edge.src, edge.dst);
    }
    let (u, v) = (VertexId(1), VertexId(2));
    assert!(store.jaccard(u, v).is_some());
    assert!(store.common_neighbors(u, v).is_some());
    assert!(store.adamic_adar(u, v).is_some());
}

#[test]
fn prelude_covers_the_evaluation_path() {
    let stream = ErdosRenyi::new(100, 300, 1);
    let exact = ExactScorer::from_edges(stream.edges());
    for m in Measure::PAPER_TARGETS {
        assert!(exact.score(m, VertexId(0), VertexId(1)).is_some());
    }
    let edges: Vec<Edge> = stream.edges().collect();
    assert_eq!(edges.len(), 300);
    let g = AdjacencyGraph::from_edges(edges);
    assert_eq!(g.edge_count(), 300);
}

#[test]
fn module_aliases_resolve() {
    // The six documented module aliases of the facade.
    let _ = streamlink::hash::mix64(1);
    let _ = streamlink::stream::VertexId(1);
    let _ = streamlink::sketch::SketchConfig::with_slots(4);
    let _ = streamlink::variants::BottomKStore::new(4, 1);
    let _ = streamlink::predict::Measure::Jaccard;
    let _ = streamlink::data::SimulatedDataset::ALL;
}

#[test]
fn all_datasets_reachable_from_facade() {
    use streamlink::data::{Scale, SimulatedDataset};
    assert_eq!(SimulatedDataset::ALL.len(), 5);
    for d in SimulatedDataset::ALL {
        assert!(!d.stream(Scale::Small).is_empty(), "{d} produced no edges");
    }
}

//! `streamlink recommend` — top-k link recommendations for a vertex:
//! LSH candidate retrieval re-ranked by a chosen measure.

use graphstream::VertexId;
use linkpred::recommend::{recommend, LshCandidates};
use linkpred::{Measure, SketchScorer};
use streamlink_core::LshIndex;

use crate::args::Flags;

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    let snapshot_path = flags.require("snapshot")?;
    let vertex = VertexId(flags.get_parsed_or("vertex", u64::MAX)?);
    if vertex.0 == u64::MAX {
        return Err("missing required flag --vertex".into());
    }
    let k = flags.get_parsed_or("k", 10usize)?;
    let bands = flags.get_parsed_or("bands", 32usize)?;
    let rows = flags.get_parsed_or("rows", 2usize)?;
    let measure = Measure::parse(flags.get("measure").unwrap_or("aa"))
        .ok_or_else(|| "unknown measure (jaccard|cn|aa|ra|pa|cosine|overlap)".to_string())?;

    let store = super::load_snapshot(snapshot_path)?;
    if !store.contains(vertex) {
        return Err(format!("{vertex} never appeared in the ingested stream"));
    }

    let index = LshIndex::build(&store, bands, rows).map_err(|e| e.to_string())?;
    let scorer = SketchScorer::new(store.clone());
    let source = LshCandidates::new(&index, &store);
    let recs = recommend(&scorer, measure, &source, vertex, k);

    println!(
        "# top-{k} {} recommendations for {vertex} (LSH {bands}x{rows}, threshold ~{:.3})",
        measure,
        index.threshold()
    );
    if recs.is_empty() {
        println!("no candidates above the retrieval threshold; try --bands higher / --rows lower");
        return Ok(());
    }
    for (rank, (v, score)) in recs.iter().enumerate() {
        println!("{:>3}. {} {}={:.4}", rank + 1, v, measure.key(), score);
    }
    Ok(())
}

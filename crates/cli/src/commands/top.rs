//! `streamlink top` — top-k most similar vertices via the LSH index.

use graphstream::VertexId;
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
    let bands = flags.get_parsed_or("bands", 16usize)?;
    let rows = flags.get_parsed_or("rows", 4usize)?;

    let store = super::load_snapshot(snapshot_path)?;

    let index = LshIndex::build(&store, bands, rows).map_err(|e| e.to_string())?;
    println!(
        "# LSH {bands} bands x {rows} rows (similarity threshold ~{:.3}), {} candidates for {vertex}",
        index.threshold(),
        index.candidates(&store, vertex).len()
    );
    let top = index.top_k(&store, vertex, k);
    if top.is_empty() {
        println!("no similar vertices found (vertex unseen or no collisions)");
        return Ok(());
    }
    for (rank, (v, j)) in top.iter().enumerate() {
        println!("{:>3}. {} jaccard={:.4}", rank + 1, v, j);
    }
    Ok(())
}

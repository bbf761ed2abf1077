//! `streamlink ingest` — build a sketch store from a stream file and
//! persist a snapshot (a checksummed binary v3 file, the format
//! `serve --snapshot`, `query`, `top` and `recommend` load).
//!
//! `--metrics-out PATH` additionally dumps the global metrics registry
//! (ingest counters, insert-latency percentiles) as JSON, and
//! `--trace-out PATH` dumps the sampled insert spans from the trace
//! ring for after-the-fact breakdowns.

use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

use crate::args::Flags;
use crate::commands::{load_stream, write_metrics_out, write_trace_out};

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    let input = flags.require("input")?;
    let snapshot_path = flags.require("snapshot")?;
    let slots = flags.get_parsed_or("slots", 256usize)?;
    let seed = flags.get_parsed_or("seed", 0u64)?;
    if slots == 0 {
        return Err("--slots must be positive".into());
    }

    let stream = load_stream(input)?;
    let mut store = SketchStore::new(SketchConfig::with_slots(slots).seed(seed));
    let start = std::time::Instant::now();
    store.insert_stream(stream.as_slice().iter().copied());
    let elapsed = start.elapsed();

    StoreSnapshot::capture(&store)
        .write_atomic(std::path::Path::new(snapshot_path))
        .map_err(|e| format!("cannot write {snapshot_path}: {e}"))?;

    let eps = store.edges_processed() as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "ingested {} edges over {} vertices in {:.2?} ({:.0} edges/s); snapshot: {snapshot_path} ({} bytes sketch memory)",
        store.edges_processed(),
        store.vertex_count(),
        elapsed,
        eps,
        store.memory_bytes(),
    );
    write_metrics_out(&flags)?;
    write_trace_out(&flags)?;
    Ok(())
}

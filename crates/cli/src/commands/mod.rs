//! CLI subcommand implementations.

pub mod cluster_events;
pub mod convert;
pub mod evaluate;
pub mod generate;
pub mod ingest;
pub mod loadgen;
pub mod query;
pub mod recommend;
pub mod scrub;
pub mod serve;
pub mod stats;
pub mod top;

use datasets::{Scale, SimulatedDataset};
use graphstream::{io, MemoryStream, StreamError};

use crate::args::Flags;

/// Honors the shared `--metrics-out PATH` flag of batch commands: dumps
/// the global metrics registry as JSON (schema `streamlink.metrics.v1`)
/// so experiment harnesses can record the same counters the `METRICS`
/// protocol command exports. A missing flag is a no-op.
pub fn write_metrics_out(flags: &Flags) -> Result<(), String> {
    let Some(path) = flags.get("metrics-out") else {
        return Ok(());
    };
    let json = streamlink_core::metrics::global().snapshot().render_json();
    std::fs::write(path, json).map_err(|e| format!("cannot write metrics to {path}: {e}"))
}

/// Honors the shared `--trace-out PATH` flag of batch commands: dumps
/// the newest completed trace spans as JSON (schema
/// `streamlink.trace.v1`) so a slow batch run can be broken down after
/// the fact without a live server. A missing flag is a no-op.
pub fn write_trace_out(flags: &Flags) -> Result<(), String> {
    let Some(path) = flags.get("trace-out") else {
        return Ok(());
    };
    let json = streamlink_core::trace::render_trace_json(streamlink_core::trace::RING_CAPACITY);
    std::fs::write(path, json).map_err(|e| format!("cannot write trace to {path}: {e}"))
}

/// Loads the store a `--snapshot` file holds (a `serve --data-dir`
/// generation or an `ingest` output), verifying its checksum as the v3
/// file streams straight into the store. A file a pre-v3 build wrote is
/// refused with an error naming it.
pub fn load_snapshot(path: &str) -> Result<streamlink_core::SketchStore, String> {
    streamlink_core::snapshot::load_store(std::path::Path::new(path))
        .map_err(|e| format!("cannot load snapshot {path}: {e}"))
}

/// Parses `--scale` values.
pub fn parse_scale(raw: Option<&str>) -> Result<Scale, String> {
    match raw.unwrap_or("small") {
        "small" => Ok(Scale::Small),
        "standard" => Ok(Scale::Standard),
        "large" => Ok(Scale::Large),
        other => Err(format!("unknown scale {other:?} (small|standard|large)")),
    }
}

/// Parses `--dataset` values.
pub fn parse_dataset(key: &str) -> Result<SimulatedDataset, String> {
    SimulatedDataset::from_key(key)
        .ok_or_else(|| format!("unknown dataset {key:?} (dblp|flickr|wiki|youtube|smallworld)"))
}

/// Loads an edge file, auto-detecting the binary magic vs CSV.
pub fn load_stream(path: &str) -> Result<MemoryStream, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let result = if bytes.len() >= 4 && bytes[..4] == io::BINARY_MAGIC.to_le_bytes() {
        io::decode_binary(bytes.as_slice())
    } else if bytes.len() >= 4 && bytes[..4] == io::COMPACT_MAGIC.to_le_bytes() {
        io::decode_compact(bytes.as_slice())
    } else {
        io::read_csv(bytes.as_slice())
    };
    result.map_err(|e: StreamError| format!("cannot parse {path}: {e}"))
}

//! `streamlink query` — answer measure queries from a snapshot.

use graphstream::VertexId;
use linkpred::Measure;

use crate::args::Flags;
use crate::commands::{write_metrics_out, write_trace_out};

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    let snapshot_path = flags.require("snapshot")?;
    let measure = Measure::parse(flags.require("measure")?)
        .ok_or_else(|| "unknown measure (jaccard|cn|aa|ra|pa)".to_string())?;
    let pairs = flags.get_all("pair");
    if pairs.is_empty() {
        return Err("at least one --pair U:V is required".into());
    }

    let store = super::load_snapshot(snapshot_path)?;

    for raw in pairs {
        let (u, v) = parse_pair(raw)?;
        // One trace op per pair so `--trace-out` shows the per-query
        // estimator breakdown, same as a served cmd.query span.
        let t = streamlink_core::trace::op("cmd.query");
        streamlink_core::trace::note_degree(store.degree(u).max(store.degree(v)));
        let score = match measure {
            Measure::Jaccard => store.jaccard(u, v),
            Measure::CommonNeighbors => store.common_neighbors(u, v),
            Measure::AdamicAdar => store.adamic_adar(u, v),
            Measure::ResourceAllocation => store.resource_allocation(u, v),
            Measure::PreferentialAttachment => store.preferential_attachment(u, v),
            Measure::Cosine => store.cosine(u, v),
            Measure::Overlap => store.overlap(u, v),
        };
        drop(t);
        match score {
            Some(s) => println!("{} {}:{} {:.6}", measure.key(), u.0, v.0, s),
            None => println!("{} {}:{} unseen", measure.key(), u.0, v.0),
        }
    }
    write_metrics_out(&flags)?;
    write_trace_out(&flags)?;
    Ok(())
}

fn parse_pair(raw: &str) -> Result<(VertexId, VertexId), String> {
    let (a, b) = raw
        .split_once(':')
        .ok_or_else(|| format!("bad pair {raw:?}, expected U:V"))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .map(VertexId)
            .map_err(|e| format!("bad vertex id {s:?} in pair {raw:?}: {e}"))
    };
    Ok((parse(a)?, parse(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pair_accepts_colon_form() {
        assert_eq!(parse_pair("3:9").unwrap(), (VertexId(3), VertexId(9)));
        assert_eq!(parse_pair(" 3 : 9 ").unwrap(), (VertexId(3), VertexId(9)));
    }

    #[test]
    fn parse_pair_rejects_garbage() {
        assert!(parse_pair("39").is_err());
        assert!(parse_pair("a:b").is_err());
        assert!(parse_pair("1:").is_err());
    }
}

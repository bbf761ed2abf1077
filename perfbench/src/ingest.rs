//! `ingest`: the `streamlink ingest` job as library calls on one thread.
//!
//! Set-up reads and parses the generated CSV edge list (about 10⁶
//! power-law edges over about 10⁵ vertices) with
//! `graphstream::io::read_csv`, as the CLI does. The window then inserts
//! the whole stream into fresh k=256 stores, pass after pass, with
//! `SketchStore::insert_edge`; throughput is the median over 50k-edge
//! chunks, latency is exact per-edge time on every 8th edge. The job ends
//! with a fixed batch of JACCARD/CN/AA estimates. Only `hashkit` and
//! `core::sketch`/`core::store` do work here — no protocol, TCP, journal
//! or lock.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

use graphstream::{Edge, VertexId};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{AccuracyPlan, SketchConfig, SketchStore, WireFormat};

use crate::fixture::Fixture;
use crate::gen::{self, Rng};
use crate::layers::{self, Blocking, Inserts};
use crate::trace::Tracer;
use crate::{procfs, Ctx, E2e, Report, Slice};

/// Slots per vertex: the `streamlink ingest` default.
const INGEST_K: usize = 256;
/// Times the edge file is read per run; `setup_s` is the median. More
/// than the serve workloads' five: each read is short and dominated by
/// page faults, whose cost the host varies the most.
const SETUP_REPS: usize = 9;
const CHUNK: usize = 50_000;
/// Every this many inserts one is timed on its own.
const LATENCY_EVERY: usize = 8;
/// Vertex pairs in the closing estimate batch (each asked J, CN and AA).
const QUERY_PAIRS: usize = 1_000;
/// Failure probability of the accuracy envelope checked per pair.
const DELTA: f64 = 1e-3;
/// Files the ingest snapshot is split into for its round trip.
const SNAPSHOT_PARTS: usize = 4;

fn read_edges(csv: &Path) -> io::Result<Vec<Edge>> {
    let stream = graphstream::io::read_csv(BufReader::new(File::open(csv)?))
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(stream.as_slice().to_vec())
}

/// Inserts whole passes of `edges` into fresh stores until `seconds`
/// have been measured; the pass under way at the deadline is finished
/// untimed so the returned store holds the whole stream.
fn window(
    edges: &[Edge],
    config: SketchConfig,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (E2e, SketchStore) {
    let cpu0 = procfs::cpu(None).ok();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut slices = Vec::new();
    let (mut inserted, mut total) = (0u64, 0u64);
    loop {
        let mut store = SketchStore::new(config);
        let mut finished = false;
        total += edges.len() as u64;
        for chunk in edges.chunks(CHUNK) {
            if finished || Instant::now() >= deadline {
                finished = true;
                store.insert_stream(chunk.iter().copied());
                continue;
            }
            let mut latencies = Vec::with_capacity(chunk.len() / LATENCY_EVERY + 1);
            let mut insert_chunk = || {
                let start = Instant::now();
                for (i, e) in chunk.iter().enumerate() {
                    if i % LATENCY_EVERY == 0 {
                        let t = Instant::now();
                        store.insert_edge(e.src, e.dst);
                        latencies.push(t.elapsed().as_nanos() as u64);
                    } else {
                        store.insert_edge(e.src, e.dst);
                    }
                }
                start.elapsed()
            };
            let took = match tracer {
                Some(t) => t.span("ingest.chunk", chunk.len() as u64, insert_chunk),
                None => insert_chunk(),
            };
            slices.push(Slice::new(
                latencies,
                chunk.len() as f64,
                took.as_secs_f64(),
            ));
            inserted += chunk.len() as u64;
        }
        if finished {
            let cpu_us = match (cpu0, procfs::cpu(None).ok()) {
                (Some(a), Some(b)) => b.total_us() - a.total_us(),
                _ => 0.0,
            };
            let e2e = E2e {
                slices,
                attempted: inserted,
                failed: 0,
                cpu_us_per_op: cpu_us / total as f64,
            };
            return (e2e, store);
        }
    }
}

/// Co-neighbor pairs `(b, c)` with `a–b` and `a–c` edges: pairs whose
/// Jaccard is usually non-zero, where the estimate has something to get
/// wrong.
fn query_pairs(seed: u64, edges: &[Edge], adj: &HashMap<u64, Vec<u64>>) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, 11);
    let mut pairs = Vec::with_capacity(QUERY_PAIRS);
    while pairs.len() < QUERY_PAIRS {
        let e = edges[rng.below(edges.len() as u64) as usize];
        let (a, b) = (e.src.0, e.dst.0);
        let around = &adj[&a];
        let c = around[rng.below(around.len() as u64) as usize];
        if c != b {
            pairs.push((b, c));
        }
    }
    pairs
}

fn exact_jaccard(adj: &HashMap<u64, Vec<u64>>, u: u64, v: u64) -> f64 {
    let (a, b) = (&adj[&u], &adj[&v]);
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common as f64 / (a.len() + b.len() - common) as f64
}

/// The closing estimate batch plus the output checks. Returns
/// (correct, estimates that came back `None`, snapshot bytes).
fn finish(ctx: &Ctx, store: &SketchStore, edges: &[Edge]) -> io::Result<(bool, u64, u64)> {
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in edges {
        adj.entry(e.src.0).or_default().push(e.dst.0);
        adj.entry(e.dst.0).or_default().push(e.src.0);
    }
    adj.values_mut().for_each(|n| n.sort_unstable());
    let pairs = query_pairs(ctx.seed, edges, &adj);
    let ask = |s: &SketchStore| -> Vec<[Option<f64>; 3]> {
        pairs
            .iter()
            .map(|&(u, v)| {
                let (u, v) = (VertexId(u), VertexId(v));
                [
                    s.jaccard(u, v),
                    s.common_neighbors(u, v),
                    s.adamic_adar(u, v),
                ]
            })
            .collect()
    };
    let answers = ask(store);
    let missing = answers.iter().flatten().filter(|a| a.is_none()).count() as u64;

    // Degrees are exact counters.
    let degrees_ok = pairs
        .iter()
        .all(|&(u, _)| store.degree(VertexId(u)) == adj[&u].len() as u64);

    // Jaccard estimates inside the (ε, δ) envelope of the exact value;
    // at most the δ share (plus 5σ of it) may fall outside.
    let eps = AccuracyPlan::error_bound(INGEST_K, DELTA);
    let outside = pairs
        .iter()
        .zip(&answers)
        .filter(|(&(u, v), a)| a[0].is_some_and(|j| (j - exact_jaccard(&adj, u, v)).abs() > eps))
        .count();
    let expected = DELTA * pairs.len() as f64;
    let accurate = outside as f64 <= (expected + 5.0 * expected.sqrt()).ceil();

    // The snapshot round-trips with identical estimates. A whole k=256
    // store of this size encodes past the v3 reader's body limit
    // (`codec::MAX_BODY_LEN`), so it goes through in vertex-range parts.
    let StoreSnapshot {
        config,
        edges_processed,
        vertices: mut rest,
    } = StoreSnapshot::capture(store);
    let per_part = rest.len().div_ceil(SNAPSHOT_PARTS);
    let (mut bytes, mut read_back) = (0, Vec::with_capacity(rest.len()));
    for part in 0..SNAPSHOT_PARTS {
        let tail = rest.split_off(per_part.min(rest.len()));
        let path = ctx.work.join(format!("ingest.{part}.snap"));
        let piece = StoreSnapshot {
            config,
            edges_processed,
            vertices: std::mem::replace(&mut rest, tail),
        };
        piece.write_atomic_as(&path, WireFormat::BinaryV3)?;
        drop(piece);
        bytes += fs::metadata(&path)?.len();
        read_back.extend(StoreSnapshot::read_from(&path)?.vertices);
        fs::remove_file(&path)?;
    }
    let restored = StoreSnapshot {
        config,
        edges_processed,
        vertices: read_back,
    }
    .restore();
    let bits = |a: &[[Option<f64>; 3]]| -> Vec<Option<u64>> {
        a.iter().flatten().map(|x| x.map(f64::to_bits)).collect()
    };
    let round_trip = restored.edges_processed() == store.edges_processed()
        && restored.vertex_count() == store.vertex_count()
        && bits(&ask(&restored)) == bits(&answers);

    if !(degrees_ok && accurate && round_trip) {
        eprintln!(
            "ingest: degrees_ok={degrees_ok} round_trip={round_trip} \
             outside_envelope={outside}/{} (eps {eps:.4})",
            pairs.len()
        );
    }
    Ok((degrees_ok && accurate && round_trip, missing, bytes))
}

pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let csv = ctx.work.join("edges.csv");
    gen::write_csv(
        &gen::power_law_edges(ctx.seed, gen::GRAPH),
        File::create(&csv)?,
    )?;
    crate::settle_disk()?;
    // The job runs on the program's cores, like the server does on the
    // serve workloads; the checks and probes afterwards run anywhere.
    let split = procfs::cpu_split();
    if let Some((program, _)) = &split {
        procfs::pin_current_thread(program)?;
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut edges = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(edges);
        let start = Instant::now();
        edges = read_edges(&csv)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let config = SketchConfig::with_slots(INGEST_K).seed(ctx.seed);
    let mut report = Report::default();

    let tracer = Tracer::new(Instant::now());
    let (e2e, store, traced) = if ctx.trace {
        let (plain, store) = window(&edges, config, ctx.seconds / 2.0, None);
        drop(store);
        let (traced, store) = window(&edges, config, ctx.seconds / 2.0, Some(&tracer));
        (plain, store, Some(traced))
    } else {
        let (e2e, store) = window(&edges, config, ctx.seconds, None);
        (e2e, store, None)
    };
    if let Some((program, load)) = &split {
        procfs::pin_current_thread(&format!("{load},{program}"))?;
    }
    let rss_mb = procfs::peak_rss_mb(None)?;
    let (correct, missing, snapshot_bytes) = finish(ctx, &store, &edges)?;
    report.correct = correct && missing == 0;
    report.attempted =
        e2e.attempted + traced.as_ref().map_or(0, |t| t.attempted) + 3 * QUERY_PAIRS as u64;
    report.failed = missing;

    match traced {
        None => {
            let per_edge = snapshot_bytes as f64 / store.edges_processed() as f64;
            e2e.report(&mut report, &setups, rss_mb, per_edge);
        }
        Some(traced) => {
            let pairs: Vec<(u64, u64)> = edges.iter().map(|e| (e.src.0, e.dst.0)).collect();
            let mut counts =
                layers::store_layers(&tracer, store, &pairs, &csv, ctx.seed, Inserts::FreshStore)?;
            drop(edges);
            // The serving layers run on the k=64 fixture of the same graph,
            // against a server loaded from it.
            let fixture = Fixture::build(ctx.seed, &ctx.work)?;
            let (server, _) = crate::client::Server::start(
                &ctx.server_bin,
                &crate::serve::server_args(&fixture, None),
                &ctx.work.join("server.log"),
            )?;
            layers::serving_layers(&tracer, &fixture, server.addr, &ctx.work, &mut counts)?;
            drop(server);
            let overhead = (e2e.throughput_ops_s() / traced.throughput_ops_s() - 1.0) * 100.0;
            layers::report(
                &mut report,
                &tracer,
                counts,
                Blocking::Ingest,
                1e9 / e2e.throughput_ops_s(),
                e2e.cpu_us_per_op,
                overhead,
            );
            tracer.write_jsonl(&ctx.trace_out)?;
            eprintln!("spans written to {}", ctx.trace_out.display());
        }
    }
    Ok(report)
}

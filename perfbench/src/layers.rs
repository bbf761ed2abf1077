//! The traced run's per-layer probes: each times one public call of one
//! layer, in-process, on the workload's own inputs, inside a span.
//!
//! | span | layer | call |
//! |---|---|---|
//! | `hashkit.hash_all` | hashkit | `HasherBank::hash_all_into` |
//! | `store.insert` | core::store | `SketchStore::insert_edge` |
//! | `store.estimate` | core::store | `jaccard` / `common_neighbors` / `adamic_adar` |
//! | `graphstream.read_csv` | graphstream::io | `read_csv` |
//! | `protocol.<kind>` | cli::server::protocol | `handle_command` |
//! | `server.insert_edge` | cli::server | `ServerState::insert_edge` |
//! | `server.store_write_lock_wait` | cli::server | `ServerState::write_store` under insert load |
//! | `journal.append` | core::journal | `Journal::append` |
//! | `snapshot.{capture,write,read}` | core::snapshot | `capture`, `write_atomic_as`, `read_from` |
//! | `durable.recover`, `journal.replay` | core::durable, core::journal | `recover`, `replay` |
//! | `persistence.checkpoint` | cli::server::persistence | `checkpoint_now` |
//! | `audit.cycle` | core::audit | `ServerState::run_audit_cycle` |
//! | `tcp.ping`, `server.connect` | connection + TCP | `PING` round trip; connect + first reply |

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use graphstream::VertexId;
use streamlink_cli::server::protocol::handle_command;
use streamlink_cli::server::{persistence, ServerConfig, ServerState};
use streamlink_core::journal::{self, FsyncPolicy, Journal, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{durable, SketchStore, WireFormat};

use crate::client::{closed_loop, Conn, Window};
use crate::fixture::{Fixture, TAIL_EDGES};
use crate::gen::{Mix, Op, OpStream, Rng, Zipf};
use crate::trace::Tracer;

/// Counts measured beside the spans (ratios and sizes, not times).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub slot_update_ratio: f64,
    pub bytes_per_vertex: f64,
    pub journal_bytes_per_edge: f64,
    pub checkpoint_stall_ms: f64,
}

const BATCH: usize = 256;
const INSERT_PROBE_EDGES: usize = 200_000;
const RATIO_PROBE_EDGES: usize = 20_000;
const ESTIMATE_PROBE_CALLS: usize = 30_000;
const PROTOCOL_PROBE_CALLS: usize = 20_000;
const JOURNAL_PROBE_EDGES: usize = 50_000;

const READS: Mix = Mix {
    insert: 0.0,
    degree: 0.1,
    explain: 0.1,
};
const INSERTS: Mix = Mix {
    insert: 1.0,
    degree: 0.0,
    explain: 0.0,
};

fn ops<'a>(seed: u64, conn: u64, mix: Mix, zipf: &'a Zipf, order: &'a [u64]) -> OpStream<'a> {
    // Probe streams use connection ids the measured loops never use.
    OpStream::new(seed, 1_000 + conn, mix, zipf, order)
}

/// Where the insert probe puts its edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserts {
    /// The graph's own stream into a fresh store, as ingest does.
    FreshStore,
    /// New edges among existing vertices into the workload's store, as
    /// `serve_write` does.
    WorkloadStore,
}

/// Hashing, folding, insert, estimate and CSV parsing, at the
/// workload's own `k` on its own graph. `store` is the workload's store.
pub fn store_layers(
    t: &Tracer,
    mut store: SketchStore,
    edges: &[(u64, u64)],
    csv: &Path,
    seed: u64,
    inserts: Inserts,
) -> io::Result<Counts> {
    let config = *store.config();
    let k = config.slots();

    let bank = config.build_bank();
    let mut out = vec![0u64; k];
    for keys in edges[..INSERT_PROBE_EDGES / 4].chunks(BATCH / 2) {
        t.span("hashkit.hash_all", 2 * keys.len() as u64, || {
            for &(u, v) in keys {
                bank.hash_all_into(u, &mut out);
                black_box(&out);
                bank.hash_all_into(v, &mut out);
                black_box(&out);
            }
        });
    }

    let order = crate::gen::popularity_order(seed, edges);
    let zipf = Zipf::new(order.len(), crate::serve::ZIPF_S);
    let pairs: Vec<(VertexId, VertexId)> = ops(seed, 0, READS, &zipf, &order)
        .filter_map(|op| match op {
            Op::Query(_, u, v) | Op::Explain(u, v) => Some((VertexId(u), VertexId(v))),
            _ => None,
        })
        .take(ESTIMATE_PROBE_CALLS)
        .collect();
    for (i, batch) in pairs.chunks(BATCH / 4).enumerate() {
        t.span("store.estimate", batch.len() as u64, || {
            for &(u, v) in batch {
                black_box(match i % 3 {
                    0 => store.jaccard(u, v),
                    1 => store.common_neighbors(u, v),
                    _ => store.adamic_adar(u, v),
                });
            }
        });
    }
    let bytes_per_vertex = store.memory_bytes() as f64 / store.vertex_count() as f64;

    // A fresh store takes the whole stream, so the per-edge median spans
    // the same mix of first-seen and known vertices as ingest's chunks.
    let (stream, timed): (Vec<(u64, u64)>, usize) = match inserts {
        Inserts::FreshStore => {
            store = SketchStore::new(config);
            (edges.to_vec(), edges.len() - RATIO_PROBE_EDGES)
        }
        Inserts::WorkloadStore => (
            ops(seed, 3, INSERTS, &zipf, &order)
                .take(INSERT_PROBE_EDGES + RATIO_PROBE_EDGES)
                .map(|op| match op {
                    Op::Insert(u, v) => (u, v),
                    other => unreachable!("insert-only mix produced {other:?}"),
                })
                .collect(),
            INSERT_PROBE_EDGES,
        ),
    };
    for batch in stream[..timed].chunks(BATCH) {
        t.span("store.insert", batch.len() as u64, || {
            for &(u, v) in batch {
                store.insert_edge(VertexId(u), VertexId(v));
            }
        });
    }
    // Useful work per fold: slots a fold changed over slots it compared.
    let (mut changed, mut compared) = (0usize, 0usize);
    for &(u, v) in &stream[timed..] {
        let (u, v) = (VertexId(u), VertexId(v));
        let before = [store.sketch(u).cloned(), store.sketch(v).cloned()];
        store.insert_edge(u, v);
        for (vertex, old) in [u, v].into_iter().zip(before) {
            let new = store.sketch(vertex).expect("inserted vertex has a sketch");
            compared += k;
            changed += match old {
                Some(old) => old
                    .slots()
                    .iter()
                    .zip(new.slots())
                    .filter(|(a, b)| a != b)
                    .count(),
                None => new.slots().iter().filter(|s| !s.is_empty()).count(),
            };
        }
    }
    drop(store);

    for _ in 0..3 {
        t.span("graphstream.read_csv", 1, || -> io::Result<()> {
            let stream = graphstream::io::read_csv(BufReader::new(File::open(csv)?))
                .map_err(|e| io::Error::other(e.to_string()))?;
            black_box(stream.len());
            Ok(())
        })?;
    }

    Ok(Counts {
        slot_update_ratio: changed as f64 / compared as f64,
        bytes_per_vertex,
        ..Counts::default()
    })
}

/// Protocol, server, journal, snapshot, recovery, checkpoint, audit and
/// transport probes on the serving fixture; `addr` is a live server
/// loaded from it.
pub fn serving_layers(
    t: &Tracer,
    fixture: &Fixture,
    addr: SocketAddr,
    work: &Path,
    counts: &mut Counts,
) -> io::Result<()> {
    let seed = fixture.seed;
    let order = &fixture.by_popularity;
    let zipf = Zipf::new(order.len(), crate::serve::ZIPF_S);

    // Reads through the protocol on an in-memory state, as `serve
    // --snapshot` builds it.
    let reader = ServerState::in_memory(fixture.restore()?, ServerConfig::default());
    let mut line = Vec::new();
    for op in ops(seed, 1, READS, &zipf, order).take(PROTOCOL_PROBE_CALLS) {
        op.write_line(&mut line);
        let text = std::str::from_utf8(&line)
            .expect("ascii request")
            .trim_end();
        let name = match op {
            Op::Degree(_) => "protocol.degree",
            Op::Explain(..) => "protocol.explain",
            _ => "protocol.query",
        };
        let reply = t.span(name, 1, || handle_command(&reader, text));
        if !reply.starts_with("OK") {
            return Err(io::Error::other(format!("{text} -> {reply}")));
        }
    }

    let snap_store = reader.read_store();
    for _ in 0..3 {
        t.span("snapshot.capture", 1, || {
            black_box(StoreSnapshot::capture(&snap_store))
        });
    }
    let snapshot = StoreSnapshot::capture(&snap_store);
    drop(snap_store);
    drop(reader);
    let probe_snap = work.join("probe.snap");
    for _ in 0..2 {
        t.span("snapshot.write", 1, || {
            snapshot.write_atomic_as(&probe_snap, WireFormat::default())
        })?;
    }
    drop(snapshot);
    fs::remove_file(&probe_snap)?;
    for _ in 0..3 {
        t.span("snapshot.read", 1, || {
            StoreSnapshot::read_from(&fixture.snapshot).map(black_box)
        })?;
    }

    let recover_dir = work.join("recover-probe");
    fixture.copy_data_dir(&recover_dir)?;
    let config = Fixture::config(seed);
    for _ in 0..3 {
        t.span("durable.recover", 1, || {
            durable::recover(&recover_dir, config).map(black_box)
        })?;
    }
    let snapshot_seq = (fixture.edges.len() - TAIL_EDGES) as u64;
    for _ in 0..3 {
        let mut applied = 0u64;
        t.span("journal.replay", 1, || {
            journal::replay(&recover_dir, snapshot_seq, |_| applied += 1)
        })?;
        if applied != TAIL_EDGES as u64 {
            return Err(io::Error::other(format!(
                "replayed {applied} of {TAIL_EDGES}"
            )));
        }
    }
    fs::remove_dir_all(&recover_dir)?;

    let journal_dir = work.join("journal-probe");
    let mut journal = Journal::create_with_format(
        &journal_dir,
        1,
        FsyncPolicy::default(),
        WireFormat::default(),
        None,
    )?;
    for batch in fixture.edges[..JOURNAL_PROBE_EDGES].chunks(BATCH / 4) {
        t.span(
            "journal.append",
            batch.len() as u64,
            || -> io::Result<()> {
                for &(u, v) in batch {
                    let seq = journal.next_seq();
                    journal.append(JournalEntry {
                        seq,
                        u: VertexId(u),
                        v: VertexId(v),
                    })?;
                }
                Ok(())
            },
        )?;
    }
    drop(journal);
    counts.journal_bytes_per_edge =
        crate::fixture::data_dir_bytes(&journal_dir)? as f64 / JOURNAL_PROBE_EDGES as f64;
    fs::remove_dir_all(&journal_dir)?;

    writer_layers(t, fixture, &zipf, work, counts)?;

    // PING round trips under the workloads' own concurrency (two closed
    // loops), so transport cost is measured with the cores as busy as
    // in the measured window rather than waking an idle server.
    let window = Window::new(Duration::from_millis(200), 1.0, Duration::from_secs(1));
    let origin = t.origin();
    let loops = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    closed_loop(
                        addr,
                        std::iter::repeat(Op::Ping),
                        window,
                        Some(Tracer::new(origin)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping probe thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    for l in loops {
        if l.failed > 0 {
            return Err(io::Error::other("PING not answered OK"));
        }
        t.absorb(l.tracer.expect("ping loops are traced"));
    }
    for _ in 0..20 {
        t.span("server.connect", 1, || -> io::Result<()> {
            Conn::open(addr)?.request(b"PING\n").map(|_| ())
        })?;
    }
    Ok(())
}

/// The write path on a durable in-process state over a copy of the
/// fixture data directory, as `serve --data-dir` builds it.
fn writer_layers(
    t: &Tracer,
    fixture: &Fixture,
    zipf: &Zipf,
    work: &Path,
    counts: &mut Counts,
) -> io::Result<()> {
    let seed = fixture.seed;
    let order = &fixture.by_popularity;
    let dir = work.join("writer-probe");
    fixture.copy_data_dir(&dir)?;
    let (persist, recovery) = persistence::open(
        &dir,
        Fixture::config(seed),
        FsyncPolicy::default(),
        WireFormat::default(),
    )?;
    let state = ServerState::with_persistence(
        recovery.store,
        persist,
        recovery.snapshot_seq,
        ServerConfig::default(),
    );
    let mut inserts = ops(seed, 2, INSERTS, zipf, order).map(|op| match op {
        Op::Insert(u, v) => (VertexId(u), VertexId(v)),
        other => unreachable!("insert-only mix produced {other:?}"),
    });

    let mut line = Vec::new();
    for (u, v) in inserts.by_ref().take(PROTOCOL_PROBE_CALLS) {
        Op::Insert(u.0, v.0).write_line(&mut line);
        let text = std::str::from_utf8(&line)
            .expect("ascii request")
            .trim_end();
        let reply = t.span("protocol.insert", 1, || handle_command(&state, text));
        if reply != "OK inserted" {
            return Err(io::Error::other(format!("{text} -> {reply}")));
        }
    }
    for (u, v) in inserts.by_ref().take(PROTOCOL_PROBE_CALLS) {
        t.span("server.insert_edge", 1, || state.insert_edge(u, v))?;
    }

    // Lock wait: a second thread takes the write lock while this one
    // inserts.
    let done = AtomicBool::new(false);
    let origin = t.origin();
    let waiter = std::thread::scope(|s| -> io::Result<Tracer> {
        let (done, state) = (&done, &state);
        let handle = s.spawn(move || {
            let waiter = Tracer::new(origin);
            while !done.load(Ordering::Relaxed) {
                let start = Instant::now();
                let guard = state.write_store();
                waiter.record("server.store_write_lock_wait", start, Instant::now(), 1);
                drop(guard);
                std::thread::yield_now();
            }
            waiter
        });
        let result = inserts
            .by_ref()
            .take(PROTOCOL_PROBE_CALLS)
            .try_for_each(|(u, v)| state.insert_edge(u, v).map(|_| ()));
        done.store(true, Ordering::Relaxed);
        let waiter = handle.join().expect("lock-wait probe thread panicked");
        result.map(|()| waiter)
    })?;
    t.absorb(waiter);

    for _ in 0..5 {
        let cycle = t.span("audit.cycle", 1, || state.run_audit_cycle());
        if cycle.is_none() {
            return Err(io::Error::other("auditor is off in the default config"));
        }
    }

    // Checkpoint stall: the longest insert a second thread sees while a
    // checkpoint runs.
    let mut stall_ns = 0u64;
    for _ in 0..2 {
        let done = AtomicBool::new(false);
        let longest = std::thread::scope(|s| -> io::Result<u64> {
            let inserter = s.spawn(|| -> io::Result<u64> {
                let mut longest = 0u64;
                let mut rng = Rng::new(seed, 3);
                while !done.load(Ordering::Relaxed) {
                    let u = VertexId(order[zipf.sample(&mut rng)]);
                    let v = VertexId(order[rng.below(order.len() as u64) as usize]);
                    if u == v {
                        continue;
                    }
                    let start = Instant::now();
                    state.insert_edge(u, v)?;
                    longest = longest.max(start.elapsed().as_nanos() as u64);
                }
                Ok(longest)
            });
            let checkpoint = t.span("persistence.checkpoint", 1, || {
                persistence::checkpoint_now(&state)
            });
            done.store(true, Ordering::Relaxed);
            let longest = inserter.join().expect("stall probe thread panicked");
            checkpoint?;
            longest
        })?;
        stall_ns = stall_ns.max(longest);
    }
    counts.checkpoint_stall_ms = stall_ns as f64 / 1e6;
    drop(state);
    fs::remove_dir_all(&dir)
}

/// Which layers block one request of a workload, in the order a
/// request meets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// One edge: two `hash_all` calls, then the folds and counters.
    Ingest,
    /// TCP round trip, protocol parse/execute, the estimator.
    ServeRead,
    /// TCP round trip, protocol, `ServerState::insert_edge` (lock, ship
    /// ring, audit), the journal append, then the store insert.
    ServeWrite,
}

/// Writes every per-layer metric, each layer's share of `e2e_ns` (the
/// untraced per-op time: ns per edge for ingest, p50 latency for the
/// serve workloads), the unexplained residual, and the tracing overhead.
pub fn report(
    r: &mut crate::Report,
    t: &Tracer,
    counts: Counts,
    path: Blocking,
    e2e_ns: f64,
    cpu_us_per_op: f64,
    overhead_pct: f64,
) {
    let m = |name: &str| t.median_ns(name);
    let hash = m("hashkit.hash_all");
    let insert = m("store.insert");
    let estimate = m("store.estimate");
    let ping = m("tcp.ping");
    let query_cmd = m("protocol.query");
    let insert_cmd = m("protocol.insert");
    let server_insert = m("server.insert_edge");
    let append = m("journal.append");

    r.metric("hashkit.hash_all_ns", hash, "ns");
    r.metric(
        "sketch.slot_update_ratio",
        counts.slot_update_ratio,
        "ratio",
    );
    r.metric("store.insert_ns", insert, "ns");
    r.metric("store.estimate_ns", estimate, "ns");
    r.metric(
        "store.bytes_per_vertex",
        counts.bytes_per_vertex,
        "B/vertex",
    );
    r.metric(
        "graphstream.read_csv_ms",
        m("graphstream.read_csv") / 1e6,
        "ms",
    );
    r.metric("protocol.handle_command_ns.query", query_cmd, "ns");
    r.metric("protocol.handle_command_ns.insert", insert_cmd, "ns");
    r.metric(
        "protocol.handle_command_ns.degree",
        m("protocol.degree"),
        "ns",
    );
    r.metric(
        "protocol.handle_command_ns.explain",
        m("protocol.explain"),
        "ns",
    );
    r.metric("server.insert_edge_ns", server_insert, "ns");
    r.metric(
        "server.store_write_lock_wait_ns",
        m("server.store_write_lock_wait"),
        "ns",
    );
    r.metric("server.cpu_us_per_op", cpu_us_per_op, "us");
    r.metric("tcp.ping_rtt_us", ping / 1e3, "us");
    r.metric("server.connect_ms", m("server.connect") / 1e6, "ms");
    r.metric("journal.append_ns", append, "ns");
    r.metric(
        "journal.bytes_per_edge",
        counts.journal_bytes_per_edge,
        "B/edge",
    );
    r.metric("snapshot.capture_ms", m("snapshot.capture") / 1e6, "ms");
    r.metric("snapshot.write_ms", m("snapshot.write") / 1e6, "ms");
    r.metric("snapshot.read_ms", m("snapshot.read") / 1e6, "ms");
    r.metric("durable.recover_ms", m("durable.recover") / 1e6, "ms");
    r.metric("journal.replay_ms", m("journal.replay") / 1e6, "ms");
    r.metric(
        "persistence.checkpoint_ms",
        m("persistence.checkpoint") / 1e6,
        "ms",
    );
    r.metric(
        "persistence.checkpoint_stall_ms",
        counts.checkpoint_stall_ms,
        "ms",
    );
    r.metric("audit.cycle_ms", m("audit.cycle") / 1e6, "ms");

    // Self time of each layer on the blocking path: a layer's call minus
    // the calls of the layers beneath it.
    let (transport, protocol, server, journal, store, hashkit) = match path {
        Blocking::Ingest => (0.0, 0.0, 0.0, 0.0, insert - 2.0 * hash, 2.0 * hash),
        Blocking::ServeRead => (ping, query_cmd - estimate, 0.0, 0.0, estimate, 0.0),
        Blocking::ServeWrite => (
            ping,
            insert_cmd - server_insert,
            server_insert - append - insert,
            append,
            insert - 2.0 * hash,
            2.0 * hash,
        ),
    };
    let explained = transport + protocol + server + journal + store + hashkit;
    for (name, ns) in [
        ("share.transport", transport),
        ("share.protocol", protocol),
        ("share.server", server),
        ("share.journal", journal),
        ("share.store", store),
        ("share.hashkit", hashkit),
        ("share.residual", e2e_ns - explained),
    ] {
        r.metric(name, ns / e2e_ns, "ratio");
    }
    r.metric("trace.overhead_pct", overhead_pct, "%");
}

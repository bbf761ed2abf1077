//! `serve_read` and `serve_write`: closed loops against the real
//! `streamlink serve` binary over TCP.
//!
//! * `serve_read` — `serve --snapshot FIXTURE`; 2 connections, ~90%
//!   JACCARD/CN/AA, 5% DEGREE, 5% EXPLAIN, Zipf s=1.1 endpoints; no
//!   writes. Set-up is a pure snapshot decode.
//! * `serve_write` — `serve --data-dir COPY` (default `--fsync interval`,
//!   default format); 2 connections, ~90% INSERTs of new edges among
//!   existing vertices, 10% reads. Set-up is recovery: snapshot decode
//!   plus a 100k-record journal replay. The final checkpoint at shutdown
//!   is the only one.
//!
//! Neither grows the vertex set during the window, and no background
//! work fires inside it: the metrics log is off, the audit interval is
//! longer than any run, and checkpoints wait for shutdown.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use graphstream::VertexId;
use streamlink_core::durable;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::SketchStore;

use crate::client::{closed_loop, Conn, LoopResult, Server, Window};
use crate::fixture::{data_dir_bytes, Fixture};
use crate::gen::{Mix, OpStream, Rng, Zipf};
use crate::layers::{self, Blocking, Inserts};
use crate::trace::Tracer;
use crate::{procfs, Ctx, E2e, Report, Slice};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// Zipf exponent of read endpoints and insert sources.
pub const ZIPF_S: f64 = 1.1;
/// Closed-loop client connections, both on the load generator's core.
const CONNS: u64 = 2;
/// Server starts per run; `setup_s` is their median and the last one is
/// the server measured.
const SETUP_REPS: usize = 5;
const WARMUP: Duration = Duration::from_secs(1);
/// Length of one slice of the measured window.
const SLICE: Duration = Duration::from_secs(1);
/// Checkpoint edge budget for `serve_write`: far above what any run
/// inserts, so the only checkpoint is the final one at shutdown. One
/// checkpoint of this store in the default text format is seconds of CPU
/// and gigabytes of peak RSS, and how many fit in a window swung
/// throughput by a quarter between runs; the checkpoint path is measured
/// by the traced run's `persistence.*` and `snapshot.*` probes instead.
const CHECKPOINT_EVERY_EDGES: &str = "50000000";
/// Seeded probe requests compared against an in-process store.
const PROBES: usize = 400;

impl Kind {
    fn mix(self) -> Mix {
        match self {
            Kind::Read => Mix {
                insert: 0.0,
                degree: 0.05,
                explain: 0.05,
            },
            Kind::Write => Mix {
                insert: 0.9,
                degree: 0.03,
                explain: 0.0,
            },
        }
    }

    fn blocking(self) -> Blocking {
        match self {
            Kind::Read => Blocking::ServeRead,
            Kind::Write => Blocking::ServeWrite,
        }
    }
}

/// Flags for one server start. `data_dir` is set for `serve_write`.
pub fn server_args(fixture: &Fixture, data_dir: Option<&Path>) -> Vec<String> {
    // No metrics log; the auditor stays on, as by default, but no audit
    // cycle fires within a run.
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--metrics-log-secs",
        "0",
        "--audit-secs",
        "3600",
    ]
    .map(String::from)
    .to_vec();
    match data_dir {
        None => args.extend(["--snapshot".into(), fixture.snapshot.display().to_string()]),
        Some(dir) => args.extend([
            "--data-dir".into(),
            dir.display().to_string(),
            "--slots".into(),
            crate::fixture::SERVE_K.to_string(),
            "--seed".into(),
            fixture.seed.to_string(),
            "--snapshot-every-edges".into(),
            CHECKPOINT_EVERY_EDGES.into(),
            "--snapshot-every-secs".into(),
            "3600".into(),
        ]),
    }
    args
}

/// Starts the server `SETUP_REPS` times, each on fresh inputs, and keeps
/// the last one running. Returns it, its data dir, and every start time.
fn start(
    ctx: &Ctx,
    kind: Kind,
    fixture: &Fixture,
) -> io::Result<(Server, Option<PathBuf>, Vec<f64>)> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let dir = match kind {
            Kind::Read => None,
            Kind::Write => {
                let dir = ctx.work.join(format!("data-{rep}"));
                fixture.copy_data_dir(&dir)?;
                Some(dir)
            }
        };
        let log = ctx.work.join(format!("server-{rep}.log"));
        let (server, secs) =
            Server::start(&ctx.server_bin, &server_args(fixture, dir.as_deref()), &log)?;
        setups.push(secs);
        if rep + 1 == SETUP_REPS {
            return Ok((server, dir, setups));
        }
        drop(server);
        if let Some(dir) = dir {
            fs::remove_dir_all(dir)?;
        }
    }
    unreachable!("SETUP_REPS is positive")
}

/// One measured window of `CONNS` closed loops. `round` keeps every
/// window's op streams distinct, so no window re-inserts another's edges.
fn measure(
    server: &Server,
    fixture: &Fixture,
    mix: Mix,
    seconds: f64,
    round: u64,
    tracer: Option<&Tracer>,
    acked: &mut Vec<(u64, u64)>,
) -> io::Result<E2e> {
    let zipf = Zipf::new(fixture.by_popularity.len(), ZIPF_S);
    let window = Window::new(WARMUP, seconds, SLICE);
    let addr: SocketAddr = server.addr;
    let origin = tracer.map(Tracer::origin);
    let (results, cpu) = std::thread::scope(|s| -> io::Result<(Vec<LoopResult>, f64)> {
        let zipf = &zipf;
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let ops = OpStream::new(
                    fixture.seed,
                    round * CONNS + c,
                    mix,
                    zipf,
                    &fixture.by_popularity,
                );
                s.spawn(move || closed_loop(addr, ops, window, origin.map(Tracer::new)))
            })
            .collect();
        std::thread::sleep(window.start.saturating_duration_since(Instant::now()));
        let cpu0 = procfs::cpu(Some(server.pid()));
        std::thread::sleep(window.end.saturating_duration_since(Instant::now()));
        let cpu1 = procfs::cpu(Some(server.pid()));
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((results, cpu1?.total_us() - cpu0?.total_us()))
    })?;
    let mut slices = vec![Vec::new(); window.slices()];
    let (mut attempted, mut failed) = (0, 0);
    for r in results {
        for (all, mine) in slices.iter_mut().zip(&r.latencies_ns) {
            all.extend_from_slice(mine);
        }
        attempted += r.attempted;
        failed += r.failed;
        acked.extend_from_slice(&r.acked);
        if let (Some(t), Some(child)) = (tracer, r.tracer) {
            t.absorb(child);
        }
    }
    let ops = slices.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let slices = slices
        .into_iter()
        .enumerate()
        .map(|(i, lat)| {
            let n = lat.len() as f64;
            Slice::new(lat, n, window.slice_secs(i))
        })
        .collect();
    Ok(E2e {
        slices,
        attempted,
        failed,
        cpu_us_per_op: cpu / ops,
    })
}

/// Seeded JACCARD/CN/AA/DEGREE probes: the server's replies must equal
/// the answers of an in-process store restored from the same fixture.
fn probes_match(addr: SocketAddr, fixture: &Fixture, store: &SketchStore) -> io::Result<usize> {
    let mut conn = Conn::open(addr)?;
    let mut rng = Rng::new(fixture.seed, 7);
    let order = &fixture.by_popularity;
    let mut mismatches = 0;
    for i in 0..PROBES {
        let u = order[rng.below(order.len() as u64) as usize];
        let v = order[rng.below(order.len() as u64) as usize];
        let (uu, vv) = (VertexId(u), VertexId(v));
        let (request, estimate) = match i % 4 {
            0 => (format!("JACCARD {u} {v}\n"), store.jaccard(uu, vv)),
            1 => (format!("CN {u} {v}\n"), store.common_neighbors(uu, vv)),
            2 => (format!("AA {u} {v}\n"), store.adamic_adar(uu, vv)),
            _ => (format!("DEGREE {u}\n"), None),
        };
        let expected = match (i % 4, estimate) {
            (3, _) => format!("OK {}", store.degree(uu)),
            (_, Some(s)) => format!("OK {s:.6}"),
            (_, None) => "OK unseen".into(),
        };
        if conn.request(request.as_bytes())? != expected {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn run(ctx: &Ctx, kind: Kind) -> io::Result<Report> {
    let fixture = Fixture::build(ctx.seed, &ctx.work)?;
    crate::settle_disk()?;
    let (server, data_dir, setups) = start(ctx, kind, &fixture)?;
    crate::settle_disk()?;
    let mix = kind.mix();
    let mut acked = Vec::new();
    let mut report = Report::default();

    let tracer = Tracer::new(Instant::now());
    let (mut attempted, mut failed) = (0, 0);
    let e2e = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let plain = measure(&server, &fixture, mix, half, 0, None, &mut acked)?;
        let traced = tracer.span("e2e.traced_window", 1, || {
            measure(&server, &fixture, mix, half, 1, Some(&tracer), &mut acked)
        })?;
        let overhead = (traced.p50_us() / plain.p50_us() - 1.0) * 100.0;
        (attempted, failed) = (traced.attempted, traced.failed);
        let mut counts = {
            let store = fixture.restore()?;
            let csv = ctx.work.join("edges.csv");
            crate::gen::write_csv(&fixture.edges, fs::File::create(&csv)?)?;
            layers::store_layers(
                &tracer,
                store,
                &fixture.edges,
                &csv,
                ctx.seed,
                Inserts::WorkloadStore,
            )?
        };
        layers::serving_layers(&tracer, &fixture, server.addr, &ctx.work, &mut counts)?;
        layers::report(
            &mut report,
            &tracer,
            counts,
            kind.blocking(),
            plain.p50_us() * 1e3,
            plain.cpu_us_per_op,
            overhead,
        );
        tracer.write_jsonl(&ctx.trace_out)?;
        eprintln!("spans written to {}", ctx.trace_out.display());
        plain
    } else {
        measure(&server, &fixture, mix, ctx.seconds, 0, None, &mut acked)?
    };
    let rss_mb = procfs::peak_rss_mb(Some(server.pid()))?;

    let (correct, disk_bytes_per_edge) = match (kind, data_dir) {
        (Kind::Read, _) => {
            let store = fixture.restore()?;
            let mismatches = probes_match(server.addr, &fixture, &store)?;
            drop(server);
            if mismatches > 0 {
                eprintln!("serve_read: {mismatches} of {PROBES} probe replies differ");
            }
            let bytes = fs::metadata(&fixture.snapshot)?.len();
            (
                mismatches == 0,
                bytes as f64 / store.edges_processed() as f64,
            )
        }
        (Kind::Write, Some(dir)) => {
            let exited = server.terminate()?;
            let bytes = data_dir_bytes(&dir)?;
            let recovered = durable::recover(&dir, Fixture::config(ctx.seed))?.store;
            let mut model = fixture.restore()?;
            for &(u, v) in &acked {
                model.insert_edge(VertexId(u), VertexId(v));
            }
            let same = StoreSnapshot::capture(&recovered) == StoreSnapshot::capture(&model);
            if !exited.success() || !same {
                eprintln!(
                    "serve_write: exit {exited}, recovered {} edges, expected {} (fixture + {} acked)",
                    recovered.edges_processed(),
                    model.edges_processed(),
                    acked.len()
                );
            }
            (
                exited.success() && same,
                bytes as f64 / model.edges_processed() as f64,
            )
        }
        (Kind::Write, None) => unreachable!("serve_write always has a data dir"),
    };

    report.attempted = attempted + e2e.attempted;
    report.failed = failed + e2e.failed;
    report.correct = correct && report.failed == 0;
    if !ctx.trace {
        e2e.report(&mut report, &setups, rss_mb, disk_bytes_per_edge);
        eprintln!("server cpu {:.2} us/op", e2e.cpu_us_per_op);
    }
    Ok(report)
}

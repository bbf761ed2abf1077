//! **Observability overhead (E19, E21, E22, E26, E27)** — one gate for
//! every plane that rides the O(k) insert path: the metrics registry,
//! trace spans plus the accuracy auditor, the HTTP scrape plane, the
//! cluster event journal, and the `/profilez` profiler.
//!
//! Each plane is one entry of [`PLANES`]: a pass function that ingests
//! the stream once, with the plane off or exercised, against that
//! plane's own baseline:
//!
//! | plane | off | on |
//! |---|---|---|
//! | E19 | registry off | registry on |
//! | E21 | registry on, trace off | trace on, plus an auditor cycle every [`AUDIT_EVERY_EDGES`] |
//! | E22 | `ServerState::insert_edge` | same, with `/metrics` + `/memz` scraped from that state at 1 Hz |
//! | E26 | metrics and trace on | one corr-stamped span plus one event every [`EVENT_EVERY_EDGES`], into the ring and a jsonl sink |
//! | E27 | `handle_command("INSERT u v")` | same, with `/metrics` + `/profilez` scraped from that state at 1 Hz and a full-ring profile every [`PROFILE_PERIOD`] |
//!
//! ## Method
//!
//! For each plane and each k in [`KS`]: one warm-up pass, then
//! [`PAIRS`] pairs of passes, alternating off→on and on→off, each pass
//! on a fresh store or server state. The verdict is the median over
//! pairs of `on / off - 1`; rows also carry `min(on) / min(off) - 1` and
//! the distance between the quartiles of the paired ratios. Pairing is
//! what makes the gate stable: timing one mode's block of passes and
//! then the other's lets host drift between the blocks read as
//! overhead, and best-of-N over such blocks swung by ±20% at unchanged
//! code.
//!
//! The stream is always the standard-scale dblp stream (296k edges);
//! `--scale` is ignored. At `--scale small` the stream has 4069 edges,
//! a pass takes 2–17 ms, and the planes barely fire: no audit cycle
//! completes, and a 1 Hz scraper lands one or two scrapes per run.
//!
//! `--max-overhead-pct N` fails the run if any plane's median overhead
//! at any k exceeds N% (CI runs 10; the design budget in
//! docs/OPERATIONS.md is 5%). Whatever the flag, the run fails if any
//! exercised pass fired its plane zero times: such a pass measured
//! nothing. Rows go to `results/overhead.jsonl`, one per plane and k.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_overhead -- [--max-overhead-pct 10]
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datasets::{Scale, SimulatedDataset};
use graphstream::{Edge, EdgeStream};
use serde::Serialize;
use streamlink_bench::{
    flag_value, run_pairs, table_header, table_row, Pass, ResultWriter, Verdict, EXP_SEED,
};
use streamlink_cli::server::{http, protocol, ServerConfig, ServerState};
use streamlink_core::events::{self, ClusterEvent, EventKind};
use streamlink_core::{metrics, trace, AccuracyAuditor, AuditConfig, SketchConfig, SketchStore};

/// Timed off/on pass pairs per plane and sketch size.
const PAIRS: usize = 10;

/// The sketch sizes every plane is measured at.
const KS: [usize; 2] = [64, 256];

/// Edges between audit cycles in E21 — the per-edge-rate equivalent of
/// a background auditor ticking every ~30 s.
const AUDIT_EVERY_EDGES: usize = 200_000;

/// Pairs scored per audit cycle (the `--audit-pairs` default).
const AUDIT_PAIRS: usize = 64;

/// Edges between emitted events in E26: ~100× denser than real
/// failover traffic, so the gate bounds the cost from above.
const EVENT_EVERY_EDGES: usize = 1_000;

/// Scrape cadence for E22 and E27 (the Prometheus default).
const SCRAPE_PERIOD: Duration = Duration::from_secs(1);

/// Profile-aggregation cadence in E27: ~20× denser than an operator
/// dashboard would poll.
const PROFILE_PERIOD: Duration = Duration::from_millis(50);

/// One observability plane under test.
struct Plane {
    name: &'static str,
    /// What the plane's `fired` count counts.
    fires: &'static str,
    /// One timed pass over `edges` at sketch size `k`, plane on or off.
    pass: fn(&[Edge], usize, bool) -> Pass,
}

const PLANES: [Plane; 5] = [
    Plane {
        name: "e19_metrics",
        fires: "inserts counted",
        pass: metrics_pass,
    },
    Plane {
        name: "e21_trace_audit",
        fires: "audit pairs scored",
        pass: trace_audit_pass,
    },
    Plane {
        name: "e22_scrape",
        fires: "scrape rounds",
        pass: scrape_pass,
    },
    Plane {
        name: "e26_events",
        fires: "events recorded",
        pass: events_pass,
    },
    Plane {
        name: "e27_profile",
        fires: "min(scrape rounds, profiles)",
        pass: profile_pass,
    },
];

#[derive(Serialize)]
struct Row {
    plane: &'static str,
    fires: &'static str,
    dataset: &'static str,
    k: usize,
    edges: usize,
    pairs: usize,
    off_min_secs: f64,
    on_min_secs: f64,
    median_overhead_pct: f64,
    min_min_overhead_pct: f64,
    iqr_pct: f64,
    fired_min: u64,
    fired_total: u64,
}

/// Sets the two process-wide switches every pass depends on, so no
/// pass inherits them from the plane measured before it.
fn switches(metrics_on: bool, trace_on: bool) {
    metrics::global().set_enabled(metrics_on);
    trace::set_enabled(trace_on);
}

fn fresh_store(k: usize) -> SketchStore {
    SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED))
}

/// E19: the plain store insert with the registry off vs on.
fn metrics_pass(edges: &[Edge], k: usize, on: bool) -> Pass {
    switches(on, true);
    let counted = &metrics::global().insert_edges;
    let before = counted.get();
    let mut store = fresh_store(k);
    let t = Instant::now();
    store.insert_stream(edges.iter().copied());
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&store);
    Pass {
        secs,
        fired: counted.get() - before,
    }
}

/// E21: trace off and no auditor vs trace on with an auditor shadowing
/// its sampled vertices and running a cycle every
/// [`AUDIT_EVERY_EDGES`] edges.
fn trace_audit_pass(edges: &[Edge], k: usize, on: bool) -> Pass {
    switches(true, on);
    let auditor = on.then(|| AccuracyAuditor::new(AuditConfig::default()));
    let mut store = fresh_store(k);
    let t = Instant::now();
    let mut since_cycle = 0usize;
    for e in edges {
        if let Some(a) = &auditor {
            let (u, v) = (e.src, e.dst);
            if a.wants(u) || a.wants(v) {
                let (du, dv) = (store.degree(u), store.degree(v));
                store.insert_edge(u, v);
                a.observe_edge(u, v, du, dv);
            } else {
                store.insert_edge(u, v);
            }
            since_cycle += 1;
            if since_cycle >= AUDIT_EVERY_EDGES {
                since_cycle = 0;
                a.run_cycle(&store, AUDIT_PAIRS);
            }
        } else {
            store.insert_edge(e.src, e.dst);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&store);
    Pass {
        secs,
        fired: auditor.map_or(0, |a| a.snapshot().pairs_evaluated),
    }
}

/// E22: the server insert path, with the same state's `/metrics` and
/// `/memz` scraped while it runs.
fn scrape_pass(edges: &[Edge], k: usize, on: bool) -> Pass {
    switches(true, true);
    served_pass(k, on, &["/metrics", "/memz"], false, |state| {
        for e in edges {
            state
                .insert_edge(e.src, e.dst)
                .expect("in-memory insert cannot fail");
        }
    })
}

/// Where E26's exercised passes append their events.
fn event_log_dir() -> PathBuf {
    std::env::temp_dir().join(format!("streamlink-overhead-{}", std::process::id()))
}

/// E26: metrics and trace on in both modes; on adds what one
/// replication round costs a live cluster node — a corr-stamped span
/// plus one event in the ring and the on-disk jsonl sink.
fn events_pass(edges: &[Edge], k: usize, on: bool) -> Pass {
    switches(true, true);
    if on {
        let dir = event_log_dir();
        std::fs::create_dir_all(&dir).expect("temp events dir");
        events::install_event_log(&dir.join("events.jsonl"), events::DEFAULT_EVENT_LOG_BYTES)
            .expect("install events log");
    }
    let before = events::events_recorded();
    let mut store = fresh_store(k);
    let t = Instant::now();
    let mut since_event = 0usize;
    let mut tick = 0u64;
    for e in edges {
        store.insert_edge(e.src, e.dst);
        since_event += 1;
        if since_event >= EVENT_EVERY_EDGES {
            since_event = 0;
            tick += 1;
            if on {
                let corr = (EXP_SEED << 20) | tick;
                {
                    let _span = trace::op("repl.session");
                    trace::note_corr(corr);
                }
                events::emit(ClusterEvent {
                    node_id: "bench-node".into(),
                    epoch: 1,
                    applied_seq: store.edges_processed(),
                    tick_ms: tick,
                    kind: EventKind::ConfigChange,
                    detail: "bench: synthetic replication round".into(),
                    corr_id: Some(corr),
                });
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&store);
    events::uninstall_event_log();
    Pass {
        secs,
        fired: events::events_recorded() - before,
    }
}

/// E27: the full command path, with the same state's `/metrics` and
/// `/profilez` scraped and the whole span ring profiled while it runs.
fn profile_pass(edges: &[Edge], k: usize, on: bool) -> Pass {
    switches(true, true);
    served_pass(k, on, &["/metrics", "/profilez"], true, |state| {
        for e in edges {
            let reply = protocol::handle_command(state, &format!("INSERT {} {}", e.src.0, e.dst.0));
            debug_assert!(reply.starts_with("OK"), "{reply}");
        }
    })
}

/// Times `drive` against a fresh in-memory server state at `k`. With
/// `on`, that state's own HTTP plane is up while `drive` runs, one
/// scraper GETs every target once per [`SCRAPE_PERIOD`], and with
/// `profile` another thread aggregates a full-ring profile every
/// [`PROFILE_PERIOD`]. `fired` counts completed scrape rounds (or
/// profiles, if fewer).
fn served_pass(
    k: usize,
    on: bool,
    targets: &[&str],
    profile: bool,
    drive: impl FnOnce(&ServerState),
) -> Pass {
    let state = Arc::new(ServerState::in_memory(
        fresh_store(k),
        ServerConfig::default(),
    ));
    let time_drive = || {
        let t = Instant::now();
        drive(&state);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(state.read_store().edges_processed());
        secs
    };
    if !on {
        return Pass {
            secs: time_drive(),
            fired: 0,
        };
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the http plane");
    let addr = listener.local_addr().expect("http plane address");
    let plane = http::spawn(listener, Arc::clone(&state)).expect("spawn the http plane");
    let stop = AtomicBool::new(false);
    let (rounds, profiles) = (AtomicU64::new(0), AtomicU64::new(0));
    let secs = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if targets.iter().all(|t| scrape_once(addr, t)) {
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
                let pause = Instant::now();
                while pause.elapsed() < SCRAPE_PERIOD && !stop.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(20));
                }
            }
        });
        if profile {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(trace::render_profilez_json(trace::RING_CAPACITY));
                    profiles.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(PROFILE_PERIOD);
                }
            });
        }
        let secs = time_drive();
        stop.store(true, Ordering::Relaxed);
        secs
    });
    state.request_shutdown();
    plane.join().expect("http plane thread");
    let rounds = rounds.load(Ordering::Relaxed);
    Pass {
        secs,
        fired: if profile {
            rounds.min(profiles.load(Ordering::Relaxed))
        } else {
            rounds
        },
    }
}

/// One full GET over a fresh connection; true on a 200.
fn scrape_once(addr: SocketAddr, target: &str) -> bool {
    let Ok(mut conn) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return false;
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
    if write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .is_err()
    {
        return false;
    }
    let mut body = String::new();
    conn.read_to_string(&mut body).is_ok() && body.starts_with("HTTP/1.1 200")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_overhead_pct: Option<f64> = flag_value(&args, "--max-overhead-pct")
        .map(|v| v.parse().expect("--max-overhead-pct expects a number"));
    let mut out = ResultWriter::new("overhead");

    let dataset = SimulatedDataset::DblpLike;
    let edges: Vec<Edge> = dataset.stream(Scale::Standard).edges().collect();
    println!(
        "\nObservability overhead: dataset {} ({} edges), {PAIRS} alternating off/on pairs \
         per plane and k, median of on/off - 1\n",
        dataset.spec().key,
        edges.len()
    );
    table_header(&["plane", "k", "median %", "min/min %", "IQR pp", "fired min"]);

    let mut failures = Vec::new();
    for plane in &PLANES {
        for k in KS {
            (plane.pass)(&edges, k, true); // warm-up
            let pairs = run_pairs(PAIRS, |on| (plane.pass)(&edges, k, on));
            let v = Verdict::of(&pairs);
            table_row(&[
                plane.name.to_string(),
                k.to_string(),
                format!("{:+.2}", v.median_overhead_pct),
                format!("{:+.2}", v.min_min_overhead_pct),
                format!("{:.2}", v.iqr_pct),
                v.fired_min.to_string(),
            ]);
            out.write_row(&Row {
                plane: plane.name,
                fires: plane.fires,
                dataset: dataset.spec().key,
                k,
                edges: edges.len(),
                pairs: PAIRS,
                off_min_secs: v.off_min_secs,
                on_min_secs: v.on_min_secs,
                median_overhead_pct: v.median_overhead_pct,
                min_min_overhead_pct: v.min_min_overhead_pct,
                iqr_pct: v.iqr_pct,
                fired_min: v.fired_min,
                fired_total: v.fired_total,
            });
            if let Some(why) = v.failure(max_overhead_pct.unwrap_or(f64::INFINITY)) {
                failures.push(format!("{} at k={k}: {why}", plane.name));
            }
        }
    }
    switches(true, true);
    let _ = std::fs::remove_dir_all(event_log_dir());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if let Some(limit) = max_overhead_pct {
        println!("\nPASS: every plane's median overhead is within the {limit}% budget");
    }
}

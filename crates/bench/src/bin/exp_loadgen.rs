//! **E27 (performance observability plane, SLO leg)** — a live durable
//! server (WAL + checkpoints + accuracy auditor + HTTP scrape plane, all
//! on) is driven by the *real* `streamlink loadgen` command — open-loop,
//! coordinated-omission-safe — at the scale's offered rate, while a
//! scraper hammers the observability endpoints. The run's
//! `streamlink.loadreport.v1` verdict (p99 against the pinned SLO) is the
//! gate, and the report row lands in `results/e27_loadgen.jsonl`.
//!
//! The profiling plane's overhead on the serve path is gated with the
//! other planes' by `exp_overhead`.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_loadgen -- \
//!     [--scale small|standard|large] [--slo-p99-ms MS]
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datasets::Scale;
use serde::Serialize;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_cli::server::{http, persistence, ServerConfig, ServerState};
use streamlink_core::journal::FsyncPolicy;
use streamlink_core::loadgen::LoadReport;
use streamlink_core::{trace, SketchConfig};

#[derive(Serialize)]
struct SloRow {
    leg: &'static str,
    scale: String,
    offered_ops_per_sec: u64,
    achieved_ops_per_sec: f64,
    ops_ok: u64,
    ops_err: u64,
    ops_shed: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    slo_p99_ms: u64,
    slo_pass: bool,
    profile_nodes: u64,
}

/// One full GET over a fresh connection; true on a 200 with a body.
fn scrape_once(addr: SocketAddr, target: &str) -> bool {
    let Ok(mut conn) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return false;
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
    if write!(conn, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").is_err() {
        return false;
    }
    let mut body = String::new();
    conn.read_to_string(&mut body).is_ok() && body.starts_with("HTTP/1.1 200")
}

/// Offered rate, op count, and pinned p99 SLO per scale. The SLO is
/// deliberately loose for shared CI runners — it exists to catch
/// collapse (a stalled serve path blows it by orders of magnitude),
/// not to benchmark the hardware.
fn slo_params(scale: Scale) -> (u64, u64, u64) {
    match scale {
        Scale::Small => (2_000, 10_000, 250),
        Scale::Standard => (5_000, 50_000, 150),
        Scale::Large => (10_000, 200_000, 100),
    }
}

/// The SLO leg: the real `loadgen` command against a live durable
/// server under scrape + audit + checkpoint load.
fn slo_leg(scale: Scale, slo_override: Option<u64>, out: &mut ResultWriter) -> bool {
    let (rate, ops, default_slo) = slo_params(scale);
    let slo_p99_ms = slo_override.unwrap_or(default_slo);

    let dir = std::env::temp_dir().join(format!("streamlink-e27-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sketch_config = SketchConfig::with_slots(256).seed(EXP_SEED);
    let (persist, recovery) =
        persistence::open_with_faults(&dir, sketch_config, FsyncPolicy::OnRotate, None)
            .expect("open data dir");
    // Aggressive audit + checkpoint cadence: the SLO must hold while
    // the server is also journaling, snapshotting, and auditing.
    let config = ServerConfig {
        snapshot_every: Duration::from_millis(500),
        snapshot_every_edges: 5_000,
        audit_interval: Duration::from_millis(200),
        audit_pairs: 64,
        metrics_log_every: Duration::ZERO,
        ..ServerConfig::default()
    };
    let snapshot_seq = recovery.next_seq().saturating_sub(1);
    let state = Arc::new(ServerState::with_persistence(
        recovery.store,
        persist,
        snapshot_seq,
        config,
    ));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let addr = listener.local_addr().expect("tcp addr");
    let http_listener = TcpListener::bind("127.0.0.1:0").expect("bind http");
    let http_addr = http_listener.local_addr().expect("http addr");
    let http_handle = http::spawn(http_listener, Arc::clone(&state)).expect("spawn http");
    let serve_state = Arc::clone(&state);
    let serve_handle =
        std::thread::spawn(move || streamlink_cli::server::serve(listener, &serve_state));

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for target in ["/metrics", "/healthz", "/profilez"] {
                    let _ = scrape_once(http_addr, target);
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        })
    };

    println!(
        "\nSLO leg: loadgen vs live durable server at {addr} \
         (rate {rate}/s, {ops} ops, audit @200ms, checkpoint @500ms/5k edges,\n\
         scrape /metrics+/healthz+/profilez @4Hz, pinned p99 SLO {slo_p99_ms}ms)"
    );
    let report_path = dir.join("loadreport.json");
    let argv: Vec<String> = [
        "--addr",
        &addr.to_string(),
        "--rate",
        &rate.to_string(),
        "--ops",
        &ops.to_string(),
        "--conns",
        "4",
        "--seed",
        &EXP_SEED.to_string(),
        "--slo-p99-ms",
        &slo_p99_ms.to_string(),
        "--report",
        &report_path.display().to_string(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let exit = streamlink_cli::commands::loadgen::run(&argv).expect("loadgen run");

    // The profile the run leaves behind must be coherent — this is the
    // live-fire check that /profilez describes the workload just driven.
    let profile = trace::profile(trace::RING_CAPACITY);
    assert!(profile.spans > 0, "profile saw no spans under load");
    for node in &profile.nodes {
        assert!(
            node.exclusive_ns <= node.inclusive_ns,
            "incoherent profile node {}",
            node.op
        );
    }

    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper");
    state.request_shutdown();
    serve_handle
        .join()
        .expect("serve thread")
        .expect("serve ok");
    http_handle.join().expect("http thread");

    let report =
        LoadReport::parse_json(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("parse loadreport");
    let _ = std::fs::remove_dir_all(&dir);

    table_header(&[
        "offered/s",
        "achieved/s",
        "ok",
        "err",
        "shed",
        "p99 (ms)",
        "slo",
    ]);
    table_row(&[
        report.offered_ops_per_sec.to_string(),
        format!("{:.0}", report.achieved_ops_per_sec),
        report.ops_ok.to_string(),
        report.ops_err.to_string(),
        report.ops_shed.to_string(),
        format!("{:.3}", report.latency.p99_ns as f64 / 1e6),
        if report.slo_pass { "pass" } else { "BREACH" }.to_string(),
    ]);
    out.write_row(&SloRow {
        leg: "slo",
        scale: format!("{scale:?}"),
        offered_ops_per_sec: report.offered_ops_per_sec,
        achieved_ops_per_sec: report.achieved_ops_per_sec,
        ops_ok: report.ops_ok,
        ops_err: report.ops_err,
        ops_shed: report.ops_shed,
        p50_ns: report.latency.p50_ns,
        p99_ns: report.latency.p99_ns,
        p999_ns: report.latency.p999_ns,
        slo_p99_ms,
        slo_pass: report.slo_pass,
        profile_nodes: profile.nodes.len() as u64,
    });
    exit == 0 && report.slo_pass
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let slo_override: Option<u64> = flag_value(&args, "--slo-p99-ms")
        .map(|v| v.parse().expect("--slo-p99-ms expects a number"));
    let mut out = ResultWriter::new("e27_loadgen");

    println!("\nE27 — performance observability plane, SLO leg ({scale:?})");

    if !slo_leg(scale, slo_override, &mut out) {
        eprintln!("FAIL: loadgen run breached its pinned p99 SLO (see report row)");
        std::process::exit(1);
    }
    println!("PASS: loadgen run met its pinned p99 SLO");
}

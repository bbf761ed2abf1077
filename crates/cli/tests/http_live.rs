//! Live HTTP exposition-plane tests over a real `streamlink serve`
//! process.
//!
//! The first test spawns the binary with both `--addr` and
//! `--http-addr`, ingests over the TCP line protocol, and scrapes
//! `/metrics` with a raw HTTP/1.1 request: the Prometheus counter for
//! ingested edges must land between the `METRICS` readings taken just
//! before and just after the scrape, and `/healthz`, `/tracez`, and
//! `/memz` must all answer with their advertised schemas. The second
//! test drives the router in-process against a journal with a scripted
//! disk fault and checks that `/healthz` flips to 503 while storage is
//! degraded and recovers to 200 once a write succeeds again.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A `streamlink serve` child that is killed on drop.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `streamlink serve` with both planes on ephemeral ports and
/// returns the child plus the protocol and HTTP addresses.
fn spawn_server() -> (ServeChild, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--http-addr",
            "127.0.0.1:0",
            "--slots",
            "64",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn streamlink serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let child = ServeChild(child);
    let mut lines = BufReader::new(stdout).lines();
    let mut proto_addr = None;
    let mut http_addr = None;
    while proto_addr.is_none() || http_addr.is_none() {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(a) = line.strip_prefix("HTTP LISTENING ") {
                    http_addr = Some(a.to_string());
                } else if let Some(a) = line.strip_prefix("LISTENING ") {
                    proto_addr = Some(a.to_string());
                }
            }
            _ => panic!("server exited before announcing both listeners"),
        }
    }
    (child, proto_addr.unwrap(), http_addr.unwrap())
}

struct Session {
    reader: BufReader<TcpStream>,
    conn: TcpStream,
}

impl Session {
    fn connect(addr: &str) -> Self {
        let conn = TcpStream::connect(addr).expect("connect protocol port");
        conn.set_nodelay(true).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Session { reader, conn }
    }

    fn send(&mut self, command: &str) -> String {
        writeln!(self.conn, "{command}").expect("write command");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line.trim_end().to_string()
    }

    /// Sends `METRICS` and parses the multi-line reply into key=value.
    fn metrics(&mut self) -> HashMap<String, u64> {
        writeln!(self.conn, "METRICS").expect("write METRICS");
        let mut out = HashMap::new();
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).expect("read line") > 0,
                "EOF mid-METRICS"
            );
            let trimmed = line.trim_end();
            if trimmed.starts_with("OK ") {
                break;
            }
            let (k, v) = trimmed.split_once('=').expect("key=value metric line");
            out.insert(k.to_string(), v.parse::<u64>().expect("u64 metric"));
        }
        out
    }
}

/// Issues one raw HTTP/1.1 GET and returns (status, content-type, body).
fn http_get(addr: &str, target: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect http port");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: streamlink-test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in response: {raw:?}"));
    let status_line = head.lines().next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));
    let content_type = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-type")
                .then(|| value.trim().to_string())
        })
        .unwrap_or_default();
    (status, content_type, body.to_string())
}

/// Extracts the value of a bare (unlabeled) Prometheus sample line.
fn prometheus_value(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let rest = rest.strip_prefix(' ')?;
            rest.parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("sample {name} not found in exposition"))
}

#[test]
fn scrape_plane_agrees_with_tcp_metrics_over_live_session() {
    let (child, proto_addr, http_addr) = spawn_server();
    let mut session = Session::connect(&proto_addr);

    const INSERTS: u64 = 60;
    for i in 0..INSERTS {
        let reply = session.send(&format!("INSERT {} {}", i % 7, 100 + i));
        assert!(reply.starts_with("OK"), "insert reply: {reply}");
    }

    // The Prometheus view of a counter must land between two TCP
    // `METRICS` readings that bracket the scrape.
    let before = session.metrics();
    let (status, content_type, exposition) = http_get(&http_addr, "/metrics");
    let after = session.metrics();
    assert_eq!(status, 200);
    assert!(
        content_type.starts_with("text/plain; version=0.0.4"),
        "unexpected /metrics content type: {content_type}"
    );
    for key in ["core.insert.edges", "server.commands", "http.requests"] {
        let mangled = format!("streamlink_{}_total", key.replace('.', "_"));
        let scraped = prometheus_value(&exposition, &mangled);
        let (lo, hi) = (before[key] as f64, after[key] as f64);
        assert!(
            scraped >= lo && scraped <= hi,
            "{mangled}={scraped} outside METRICS bracket [{lo}, {hi}]"
        );
    }
    assert_eq!(
        prometheus_value(&exposition, "streamlink_core_insert_edges_total") as u64,
        INSERTS,
        "all inserts visible in the scrape"
    );
    // /metrics refreshes the memory gauges before rendering, so the
    // live accounting is present without waiting for the background
    // cycle.
    assert!(prometheus_value(&exposition, "streamlink_mem_total_bytes") > 0.0);
    assert!(prometheus_value(&exposition, "streamlink_mem_bytes_per_vertex") > 0.0);
    // Histograms render cumulatively: the +Inf bucket equals _count.
    let count = prometheus_value(&exposition, "streamlink_server_command_latency_ns_count");
    assert!(count >= INSERTS as f64);
    let inf = exposition
        .lines()
        .find(|l| l.starts_with("streamlink_server_command_latency_ns_bucket{le=\"+Inf\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("+Inf bucket for command latency");
    assert_eq!(inf, count, "+Inf bucket vs _count");

    // STATS carries the same process clock the registry exports.
    let stats = session.send("STATS");
    let stats_fields: HashMap<&str, &str> = stats
        .strip_prefix("OK ")
        .expect("STATS reply is OK")
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .collect();
    let stats_ms: u64 = stats_fields["process_as_of_unix_ms"]
        .parse()
        .expect("process_as_of_unix_ms u64");
    let metrics_ms = session.metrics()["process.as_of_unix_ms"];
    assert!(
        metrics_ms.abs_diff(stats_ms) < 10_000,
        "STATS clock {stats_ms} vs METRICS clock {metrics_ms} disagree"
    );
    let uptime: u64 = stats_fields["process_uptime_secs"]
        .parse()
        .expect("process_uptime_secs u64");
    assert!(
        uptime < 3600,
        "implausible uptime {uptime}s in a fresh test"
    );

    // The sibling endpoints answer with their advertised schemas.
    let (status, content_type, body) = http_get(&http_addr, "/healthz");
    assert_eq!(status, 200, "fresh server should be healthy: {body}");
    assert!(content_type.starts_with("application/json"));
    let health: serde_json::Value = serde_json::from_str(&body).expect("healthz JSON");
    assert_eq!(
        health.get("schema").and_then(|v| v.as_str()),
        Some("streamlink.healthz.v1")
    );
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));

    let (status, _, body) = http_get(&http_addr, "/memz");
    assert_eq!(status, 200);
    let memz: serde_json::Value = serde_json::from_str(&body).expect("memz JSON");
    assert_eq!(
        memz.get("schema").and_then(|v| v.as_str()),
        Some("streamlink.memz.v1")
    );
    let components = memz
        .get("components")
        .and_then(|v| v.as_array())
        .expect("memz components array");
    assert!(!components.is_empty());
    let total = memz
        .get("total_bytes")
        .and_then(|v| v.as_u64())
        .expect("memz total_bytes");
    assert!(total > 0);

    let (status, _, body) = http_get(&http_addr, "/tracez?n=8");
    assert_eq!(status, 200);
    let trace: serde_json::Value = serde_json::from_str(&body).expect("tracez JSON");
    assert_eq!(
        trace.get("schema").and_then(|v| v.as_str()),
        Some("streamlink.trace.v1")
    );
    let spans = trace
        .get("spans")
        .and_then(|v| v.as_array())
        .expect("tracez spans array");
    assert!(spans.len() <= 8, "tracez honored n=8: {}", spans.len());

    // Unknown paths 404 with a valid-JSON error body; the scrape plane
    // never panics the server.
    let (status, _, body) = http_get(&http_addr, "/nope");
    assert_eq!(status, 404);
    let err: serde_json::Value = serde_json::from_str(&body).expect("404 body is JSON");
    assert!(err
        .get("error")
        .and_then(|e| e.as_str())
        .is_some_and(|e| e.contains("/nope")));
    assert_eq!(session.send("PING"), "OK pong");

    assert_eq!(session.send("QUIT"), "OK bye");
    drop(child);
}

#[test]
fn healthz_flips_to_503_while_storage_is_degraded() {
    use std::sync::Arc;
    use streamlink_cli::server::protocol::handle_command;
    use streamlink_cli::server::{http, persistence, ServerConfig, ServerState};
    use streamlink_core::chaos::{FaultKind, FaultPlan};
    use streamlink_core::journal::FsyncPolicy;
    use streamlink_core::SketchConfig;

    let dir = std::env::temp_dir().join(format!("streamlink-http-healthz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plan = Arc::new(FaultPlan::new());
    plan.fail_append(1, FaultKind::Enospc);
    let (persist, recovery) = persistence::open_with_faults(
        &dir,
        SketchConfig::with_slots(16).seed(11),
        FsyncPolicy::Never,
        Some(plan),
    )
    .unwrap();
    let state = ServerState::with_persistence(
        recovery.store,
        persist,
        recovery.snapshot_seq,
        ServerConfig::default(),
    );

    // Healthy while writes succeed.
    assert_eq!(handle_command(&state, "INSERT 1 2"), "OK inserted");
    let r = http::respond(&state, "GET", "/healthz");
    assert_eq!(r.status, 200, "healthy before the fault: {}", r.body);
    assert!(r.body.contains("\"storage_ok\":true"));

    // The scripted fault nacks the next INSERT and degrades /healthz.
    let nack = handle_command(&state, "INSERT 3 4");
    assert!(nack.starts_with("ERR storage"), "{nack}");
    let r = http::respond(&state, "GET", "/healthz");
    assert_eq!(r.status, 503, "degraded while storage fails: {}", r.body);
    assert!(r.body.contains("\"status\":\"degraded\""));
    assert!(r.body.contains("\"storage_ok\":false"));

    // One successful write heals the verdict.
    assert_eq!(handle_command(&state, "INSERT 3 4"), "OK inserted");
    let r = http::respond(&state, "GET", "/healthz");
    assert_eq!(r.status, 200, "healed after a good write: {}", r.body);

    std::fs::remove_dir_all(&dir).unwrap();
}

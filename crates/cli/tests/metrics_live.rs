//! Live metrics coherence tests.
//!
//! The registry is read lock-free while writers are hot, so the
//! interesting failures are torn or regressing snapshots: a counter
//! that appears to go backwards between two `METRICS` responses, or a
//! histogram whose p50 exceeds its p99. The first test hammers
//! `METRICS` from several reader threads while a writer ingests through
//! the real command path; the second drives a real `streamlink serve`
//! process over TCP and checks the multi-line `METRICS` response shape
//! end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use streamlink_cli::server::protocol::handle_command;
use streamlink_cli::server::{ServerConfig, ServerState};
use streamlink_core::{SketchConfig, SketchStore};

/// Parses a `METRICS` response body into `(key, value)` pairs, checking
/// the `OK <n> metrics` terminator and that every value is a bare u64.
fn parse_metrics(response: &str) -> std::collections::HashMap<String, u64> {
    let mut lines: Vec<&str> = response.lines().collect();
    let terminator = lines.pop().expect("empty METRICS response");
    assert!(
        terminator.starts_with("OK ") && terminator.ends_with(" metrics"),
        "bad terminator: {terminator:?}"
    );
    let announced: usize = terminator
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("terminator count");
    assert_eq!(lines.len(), announced, "terminator count vs body lines");
    lines
        .iter()
        .map(|line| {
            let (k, v) = line.split_once('=').expect("key=value line");
            (k.to_string(), v.parse::<u64>().expect("u64 metric value"))
        })
        .collect()
}

/// Asserts every histogram in a parsed snapshot reports ordered
/// percentiles (p50 ≤ p95 ≤ p99 ≤ p999 ≤ max when non-empty) and that
/// its per-bucket lines sum back to the recorded count.
fn assert_percentiles_ordered(m: &std::collections::HashMap<String, u64>) {
    for (key, &count) in m {
        let Some(base) = key.strip_suffix(".count") else {
            continue;
        };
        if count == 0 {
            continue;
        }
        let get = |s: &str| m[&format!("{base}.{s}")];
        let (p50, p95, p99, p999) = (get("p50"), get("p95"), get("p99"), get("p999"));
        assert!(p50 <= p95 && p95 <= p99, "{base}: {p50} > {p95} > {p99}?");
        assert!(p99 <= p999, "{base}: p99 {p99} above p999 {p999}");
        assert!(
            p999 <= get("max").max(p999),
            "{base}: p999 above max bucket"
        );
        let bucket_sum: u64 = m
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(base)
                    .is_some_and(|rest| rest.starts_with(".bucket_le_"))
            })
            .map(|(_, v)| v)
            .sum();
        assert_eq!(bucket_sum, count, "{base}: bucket counts vs count");
    }
}

#[test]
fn metrics_stay_coherent_under_concurrent_ingest() {
    const EDGES: u64 = 20_000;
    const READERS: usize = 3;

    let store = SketchStore::new(SketchConfig::with_slots(32).seed(7));
    let state = Arc::new(ServerState::in_memory(store, ServerConfig::default()));
    let baseline = parse_metrics(&handle_command(&state, "METRICS"))["core.insert.edges"];

    let writer = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            for i in 0..EDGES {
                let reply = handle_command(&state, &format!("INSERT {} {}", i % 97, 1000 + i));
                assert!(reply.starts_with("OK"), "insert failed: {reply}");
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let mut last_edges = 0u64;
                let mut last_commands = 0u64;
                for _ in 0..200 {
                    let snap = parse_metrics(&handle_command(&state, "METRICS"));
                    let edges = snap["core.insert.edges"];
                    let commands = snap["server.commands"];
                    assert!(edges >= last_edges, "edges went backwards: {edges}");
                    assert!(commands >= last_commands, "commands went backwards");
                    assert_percentiles_ordered(&snap);
                    last_edges = edges;
                    last_commands = commands;
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for r in readers {
        r.join().expect("reader panicked");
    }

    let final_snap = parse_metrics(&handle_command(&state, "METRICS"));
    assert!(
        final_snap["core.insert.edges"] >= baseline + EDGES,
        "final edge count {} below baseline {baseline} + {EDGES}",
        final_snap["core.insert.edges"]
    );
    assert!(final_snap["server.inserts"] >= EDGES);
    assert_percentiles_ordered(&final_snap);
}

/// A `streamlink serve` child for the TCP end-to-end check.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `streamlink serve` with `extra` flags on an ephemeral port and
/// returns it with the address it printed on its `LISTENING` line.
fn spawn_serve(extra: &[&str]) -> (ServeChild, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args(["serve", "--addr", "127.0.0.1:0", "--slots", "32"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn streamlink serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let child = ServeChild(child);
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(a) = line.strip_prefix("LISTENING ") {
                    break a.to_string();
                }
            }
            _ => panic!("server exited before LISTENING"),
        }
    };
    (child, addr)
}

#[test]
fn metrics_command_works_over_live_tcp_session() {
    let (child, addr) = spawn_serve(&[]);

    let conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut conn = conn;
    let mut line = String::new();

    const INSERTS: u64 = 50;
    for i in 0..INSERTS {
        writeln!(conn, "insert {i} {}", i + 1).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK"), "insert reply: {line:?}");
    }

    // METRICS is multi-line: read until the OK terminator.
    writeln!(conn, "METRICS").unwrap();
    let mut body = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF mid-METRICS");
        body.push_str(&line);
        if line.starts_with("OK ") {
            break;
        }
    }
    let snap = parse_metrics(body.trim_end());
    assert!(snap["core.insert.edges"] >= INSERTS);
    assert!(snap["server.inserts"] >= INSERTS);
    // The in-flight METRICS command itself is counted only after it
    // renders its own snapshot, so equality is the floor here.
    assert!(snap["server.commands"] >= INSERTS);
    assert_eq!(snap["server.connections_active"], 1);
    assert_percentiles_ordered(&snap);

    writeln!(conn, "QUIT").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK bye");
    drop(child);
}

/// Sends one command and reads its reply through the `OK` line that
/// ends every multi-line response.
fn request(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, command: &str) -> String {
    writeln!(conn, "{command}").unwrap();
    let mut body = String::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF mid-reply");
        body.push_str(&line);
        if line.starts_with("OK") || line.starts_with("ERR") {
            return body.trim_end().to_string();
        }
    }
}

/// One served `INSERT` is timed once per phase: each histogram gains
/// exactly one sample, and the span and the histograms hold the same
/// readings. The server is fresh and the `INSERT` is its first command,
/// so every count starts at zero; a command's phases are fed when its
/// op closes, so `METRICS` does not count its own.
#[test]
fn a_served_insert_is_timed_once_per_phase() {
    let dir = std::env::temp_dir().join(format!("streamlink-one-reading-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data_dir = dir.to_str().expect("utf-8 temp path");
    // Checkpoints stay out of the window: no background op may land
    // between the INSERT and the reads.
    let (child, addr) = spawn_serve(&[
        "--data-dir",
        data_dir,
        "--snapshot-every-edges",
        "1000000",
        "--snapshot-every-secs",
        "9999",
    ]);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    assert_eq!(request(&mut conn, &mut reader, "INSERT 1 2"), "OK inserted");
    let snap = parse_metrics(&request(&mut conn, &mut reader, "METRICS"));
    let phases = [
        "serve.phase.parse_ns",
        "serve.phase.execute_ns",
        "serve.phase.respond_ns",
    ];
    for key in ["server.command_latency_ns", "journal.append_latency_ns"]
        .iter()
        .chain(&phases)
    {
        assert_eq!(snap[&format!("{key}.count")], 1, "{key}");
    }
    assert!(
        !snap.contains_key("serve.phase.journal_append_ns.count"),
        "journal.append_latency_ns is the one journal reading"
    );

    // Newest first: the INSERT's is the newest `cmd.insert` span.
    let trace = request(&mut conn, &mut reader, "TRACE 16");
    let span = trace
        .lines()
        .find(|l| l.contains(" op=cmd.insert "))
        .unwrap_or_else(|| panic!("no cmd.insert span in {trace}"));
    let field = |name: &str| {
        span.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name))
            .unwrap_or_else(|| panic!("no {name} in {span}"))
    };
    let dur_ns: u64 = field("dur_ns=").parse().unwrap();
    let journal_ns: u64 = field("children=")
        .split(',')
        .find_map(|c| c.strip_prefix("journal.append:"))
        .unwrap_or_else(|| panic!("no journal.append child in {span}"))
        .parse()
        .unwrap();
    assert_eq!(snap["journal.append_latency_ns.sum"], journal_ns);
    assert_eq!(snap["server.command_latency_ns.sum"], dur_ns);
    let phase_sum: u64 = phases.iter().map(|k| snap[&format!("{k}.sum")]).sum();
    assert_eq!(phase_sum, dur_ns, "the phases partition the command");

    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

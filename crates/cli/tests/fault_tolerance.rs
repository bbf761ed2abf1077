//! Fault-injection tests against the real `streamlink` binary.
//!
//! Each test boots `streamlink serve` as a child process, talks the
//! line protocol over TCP, and then does something hostile: SIGKILL
//! mid-ingest, SIGTERM mid-serve, tearing the journal tail, planting a
//! half-written snapshot, going silent, or piling on connections. The
//! assertions pin the durability contract: **every acked edge survives,
//! and recovered estimates match an uninterrupted run.**

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use graphstream::VertexId;
use streamlink_core::{SketchConfig, SketchStore};

const SLOTS: &str = "64";
const SEED: &str = "42";

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("streamlink-fault-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `streamlink serve` child plus the address it actually bound.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Boots `streamlink serve --addr 127.0.0.1:0 <extra>` and waits
    /// for its `LISTENING <addr>` line.
    fn start(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--slots", SLOTS, "--seed", SEED])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn streamlink serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        break addr.to_string();
                    }
                }
                _ => panic!("server exited before announcing LISTENING"),
            }
        };
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        // The listener is live once LISTENING is printed; no retry loop
        // needed.
        Client::connect(&self.addr)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL: the crash. Nothing gets to run, flush, or clean up.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
    }

    /// SIGTERM: the orderly shutdown request. Returns the exit status
    /// observed within `deadline`.
    fn terminate(&mut self, deadline: Duration) -> std::process::ExitStatus {
        let ok = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                start.elapsed() < deadline,
                "server did not exit within {deadline:?} of SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let conn = TcpStream::connect(addr).expect("connect to server");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.set_nodelay(true).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Client { conn, reader }
    }

    fn ask(&mut self, cmd: &str) -> String {
        writeln!(self.conn, "{cmd}").expect("send command");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    }

    /// Like [`Client::ask`] but maps IO failures (e.g. the server shed
    /// this connection mid-handshake) to `None` instead of panicking.
    fn try_ask(&mut self, cmd: &str) -> Option<String> {
        writeln!(self.conn, "{cmd}").ok()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).ok()?;
        (n > 0).then(|| line.trim_end().to_string())
    }
}

/// A deterministic edge stream with real structure: two hubs sharing a
/// neighborhood (so JACCARD/CN/AA are non-trivial) plus a long tail.
fn edges(n: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for w in 0..n {
        out.push((1, 100 + w % 17));
        out.push((2, 100 + w % 13));
        out.push((w % 5 + 3, 200 + w));
    }
    out
}

/// The estimates an uninterrupted in-process run produces, formatted
/// exactly as the server formats them.
fn reference_answers(stream: &[(u64, u64)], pairs: &[(u64, u64)]) -> Vec<String> {
    let slots: usize = SLOTS.parse().unwrap();
    let seed: u64 = SEED.parse().unwrap();
    let mut store = SketchStore::new(SketchConfig::with_slots(slots).seed(seed));
    for &(u, v) in stream {
        store.insert_edge(VertexId(u), VertexId(v));
    }
    let fmt = |score: Option<f64>| match score {
        Some(s) => format!("OK {s:.6}"),
        None => "OK unseen".to_string(),
    };
    let mut out = Vec::new();
    for &(u, v) in pairs {
        out.push(fmt(store.jaccard(VertexId(u), VertexId(v))));
        out.push(fmt(store.common_neighbors(VertexId(u), VertexId(v))));
        out.push(fmt(store.adamic_adar(VertexId(u), VertexId(v))));
    }
    out
}

fn server_answers(client: &mut Client, pairs: &[(u64, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    for &(u, v) in pairs {
        out.push(client.ask(&format!("JACCARD {u} {v}")));
        out.push(client.ask(&format!("CN {u} {v}")));
        out.push(client.ask(&format!("AA {u} {v}")));
    }
    out
}

fn stats_field(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {stats:?}"))
        .parse()
        .unwrap()
}

const QUERY_PAIRS: &[(u64, u64)] = &[(1, 2), (1, 3), (3, 4), (2, 999)];

#[test]
fn sigkill_mid_ingest_loses_no_acked_edges() {
    let dir = temp_dir("sigkill");
    let stream = edges(120);
    let cut = stream.len() / 2;

    let mut server = Server::start(&[
        "--data-dir",
        dir.to_str().unwrap(),
        "--fsync",
        "always",
        // A tiny edge budget forces checkpoints *during* ingest, so the
        // crash lands with both a snapshot and a journal tail on disk.
        "--snapshot-every-edges",
        "37",
    ]);
    let mut client = server.connect();
    for &(u, v) in &stream[..cut] {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    server.kill(); // crash: no drain, no final snapshot

    // Restart over the same directory: every acked edge must be back.
    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(stats_field(&stats, "edges"), cut as u64, "{stats}");

    // Finish the stream and compare every estimate against an
    // uninterrupted in-process run of the same configuration.
    for &(u, v) in &stream[cut..] {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    assert_eq!(
        server_answers(&mut client, QUERY_PAIRS),
        reference_answers(&stream, QUERY_PAIRS),
        "recovered estimates diverge from the uninterrupted run"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigterm_drains_writes_final_snapshot_and_exits_zero() {
    let dir = temp_dir("sigterm");
    let stream = edges(40);

    let mut server = Server::start(&["--data-dir", dir.to_str().unwrap(), "--drain-secs", "3"]);
    let mut client = server.connect();
    for &(u, v) in &stream {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    drop(client);
    let status = server.terminate(Duration::from_secs(8));
    assert!(status.success(), "expected exit 0, got {status:?}");

    // The final snapshot generation covers everything: recovery needs
    // no replay. Generations are checksummed v3 envelopes; read through
    // the verifying path, exactly as recovery does.
    let generations = streamlink_core::durable::list_generations(&dir).unwrap();
    let (_, newest) = generations.last().expect("no final snapshot written");
    let snap = streamlink_core::snapshot::StoreSnapshot::read_from(newest).unwrap();
    assert_eq!(snap.edges_processed, stream.len() as u64);

    // And a restarted server agrees with the uninterrupted run.
    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(stats_field(&stats, "edges"), stream.len() as u64);
    assert_eq!(stats_field(&stats, "journal_lag_edges"), 0, "{stats}");
    assert_eq!(
        server_answers(&mut client, QUERY_PAIRS),
        reference_answers(&stream, QUERY_PAIRS),
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_journal_tail_is_dropped_on_restart() {
    let dir = temp_dir("torn");
    let stream = edges(30);

    let mut server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    for &(u, v) in &stream {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    server.kill();

    // Simulate a crash mid-append: a half-written, never-acked entry at
    // the tail of the newest journal segment.
    let newest = newest_wal_segment(&dir);
    streamlink_core::chaos::append_garbage(&newest, b"E 99999 12").unwrap();

    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(
        stats_field(&stats, "edges"),
        stream.len() as u64,
        "torn tail must cost exactly the un-acked entry: {stats}"
    );
    // The server keeps serving and ingesting past the repair.
    assert_eq!(client.ask("INSERT 7 7000"), "OK inserted");
    assert_eq!(client.ask("DEGREE 7000"), "OK 1");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_snapshot_write_is_harmless() {
    let dir = temp_dir("tmpsnap");
    let stream = edges(25);

    let mut server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    for &(u, v) in &stream {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    server.kill();

    // A crash mid-checkpoint leaves the temp file but never the rename:
    // recovery must ignore it and use the journal.
    fs::write(dir.join("snapshot.json.tmp"), b"{\"config\": {\"slo").unwrap();

    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(stats_field(&stats, "edges"), stream.len() as u64, "{stats}");
    assert_eq!(
        server_answers(&mut client, QUERY_PAIRS),
        reference_answers(&stream, QUERY_PAIRS),
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn idle_client_is_disconnected() {
    let server = Server::start(&["--idle-timeout-ms", "300"]);
    let mut client = server.connect();
    assert_eq!(client.ask("PING"), "OK pong");

    // Go silent; the server must hang up on its own.
    let start = Instant::now();
    let mut line = String::new();
    client.reader.read_line(&mut line).expect("read disconnect");
    assert_eq!(line.trim_end(), "ERR idle timeout, closing");
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).unwrap(), 0, "then EOF");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "disconnect took {:?}",
        start.elapsed()
    );

    // A fresh, active connection is still welcome.
    let mut again = server.connect();
    assert_eq!(again.ask("PING"), "OK pong");
}

#[test]
fn busy_shedding_beyond_connection_cap() {
    let server = Server::start(&["--max-conns", "2"]);
    let mut a = server.connect();
    let mut b = server.connect();
    assert_eq!(a.ask("PING"), "OK pong");
    assert_eq!(b.ask("PING"), "OK pong");

    let mut shed = server.connect();
    let mut line = String::new();
    shed.reader.read_line(&mut line).expect("read shed notice");
    assert_eq!(
        line.trim_end(),
        "ERR busy retry: connection cap 2 reached, back off and reconnect"
    );
    let mut rest = String::new();
    assert_eq!(shed.reader.read_line(&mut rest).unwrap(), 0, "then EOF");

    // Held connections are unaffected, and a freed slot is reusable.
    assert_eq!(a.ask("PING"), "OK pong");
    assert_eq!(a.ask("QUIT"), "OK bye");
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = loop {
        let mut c = server.connect();
        match c.try_ask("PING").as_deref() {
            Some("OK pong") => break c,
            _ if Instant::now() < deadline => {
                // The freed slot may take a poll tick to release.
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("slot never freed after QUIT (last answer: {other:?})"),
        }
    };
    assert_eq!(c.ask("PING"), "OK pong");
    drop(b);
}

#[test]
fn corrupt_newest_snapshot_generation_falls_back_on_restart() {
    let dir = temp_dir("snapfall");
    let stream = edges(20);
    let thirds: Vec<_> = stream.chunks(stream.len() / 3).collect();

    // Three serve/SIGTERM cycles leave three snapshot generations (the
    // shutdown checkpoint writes one each), all within the default
    // retention of 3, with the WAL kept back to the oldest generation.
    for chunk in &thirds {
        let mut server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
        let mut client = server.connect();
        for &(u, v) in *chunk {
            assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
        }
        drop(client);
        let status = server.terminate(Duration::from_secs(8));
        assert!(status.success(), "expected exit 0, got {status:?}");
    }
    let generations = streamlink_core::durable::list_generations(&dir).unwrap();
    assert!(
        generations.len() >= 2,
        "need at least two generations to fall back, got {generations:?}"
    );

    // Rot a bit inside the newest generation's JSON payload; recovery
    // must quarantine it and rebuild from the previous generation plus
    // the retained WAL tail — losing nothing that was acked.
    let (_, newest) = generations.last().unwrap();
    streamlink_core::chaos::flip_bit(newest, 200, 3).unwrap();

    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(stats_field(&stats, "edges"), stream.len() as u64, "{stats}");
    assert_eq!(
        server_answers(&mut client, QUERY_PAIRS),
        reference_answers(&stream, QUERY_PAIRS),
        "fallback recovery diverges from the uninterrupted run"
    );
    let quarantined: Vec<_> = fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        quarantined.iter().any(|n| n.starts_with("snapshot.")),
        "corrupt generation should be quarantined, got {quarantined:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_mid_journal_is_quarantined_not_fatal() {
    let dir = temp_dir("bitflip");
    let stream = edges(10);

    let mut server = Server::start(&["--data-dir", dir.to_str().unwrap(), "--fsync", "always"]);
    let mut client = server.connect();
    for &(u, v) in &stream {
        assert_eq!(client.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    server.kill();

    // Flip one bit in the body of a mid-file record (not the tail), so
    // restart sees a CRC mismatch with valid records after it.
    let segment = newest_wal_segment(&dir);
    let bytes = fs::read(&segment).unwrap();
    let records = streamlink_core::journal::scan_segment(&bytes);
    assert!(records.len() > 4, "expected a populated segment");
    let third = records[2].raw.as_ptr() as usize - bytes.as_ptr() as usize;
    // Magic (4), version, mode and a one-byte length precede the body.
    streamlink_core::chaos::flip_bit(&segment, third as u64 + 7, 0).unwrap();

    let mut server = Server::start(&["--data-dir", dir.to_str().unwrap(), "--fsync", "always"]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(
        stats_field(&stats, "edges"),
        stream.len() as u64 - 1,
        "exactly the corrupted record is lost: {stats}"
    );
    assert_eq!(stats_field(&stats, "replay_quarantined"), 1, "{stats}");
    let quarantine: Vec<_> = fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        quarantine.len(),
        1,
        "one record quarantined: {quarantine:?}"
    );

    // The server keeps ingesting, and the fresh ack survives another
    // crash/restart cycle: new seqs skip past the quarantined gap
    // instead of colliding with on-disk history.
    assert_eq!(client.ask("INSERT 7 7000"), "OK inserted");
    server.kill();
    let server = Server::start(&["--data-dir", dir.to_str().unwrap()]);
    let mut client = server.connect();
    let stats = client.ask("STATS");
    assert_eq!(stats_field(&stats, "edges"), stream.len() as u64, "{stats}");
    assert_eq!(client.ask("DEGREE 7000"), "OK 1");
    fs::remove_dir_all(&dir).unwrap();
}

fn newest_wal_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?;
            let seq: u64 = name
                .strip_prefix("wal.")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((seq, path))
        })
        .collect();
    segments.sort();
    segments.pop().expect("at least one wal segment").1
}

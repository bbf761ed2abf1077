//! The scrub fault matrix: build a real data directory with the
//! `streamlink` binary, damage it the way disks do (bit rot, truncation,
//! garbage appends), then assert `streamlink scrub` classifies the
//! damage with the right exit code, `--repair` heals what is healable,
//! and a restarted server recovers every acked edge that a good
//! artifact still covers.
//!
//! Exit-code contract under test: 0 = clean, 1 = damage repaired (or
//! repairable) with no acked loss, 2 = acked records unrecoverable.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use streamlink_core::journal;

const SLOTS: &str = "64";
const SEED: &str = "42";

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("streamlink-scrub-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--slots", SLOTS, "--seed", SEED])
            .args(["--data-dir", dir.to_str().unwrap(), "--fsync", "always"])
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

    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
    }

    fn terminate(&mut self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "SIGTERM exit: {status:?}");
                return;
            }
            assert!(start.elapsed() < Duration::from_secs(8), "SIGTERM hang");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn ask(&self, cmd: &str) -> String {
        let mut conn = TcpStream::connect(&self.addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        writeln!(conn, "{cmd}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn insert_all(server: &Server, edges: &[(u64, u64)]) {
    let mut conn = TcpStream::connect(&server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for &(u, v) in edges {
        writeln!(conn, "INSERT {u} {v}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK inserted");
    }
}

fn edges_stat(server: &Server) -> u64 {
    let stats = server.ask("STATS");
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("edges="))
        .unwrap_or_else(|| panic!("no edges= in {stats:?}"))
        .parse()
        .unwrap()
}

/// 80 acked edges across three server lifetimes. Two SIGTERM
/// checkpoints leave generations at seq 30 and 60; retention prunes the
/// WAL only below the *oldest* generation, so `wal.31.log` (seq
/// 31..=60, redundant with generation 60) stays on disk. A final
/// SIGKILL strands seq 61..=80 as a journal-only tail in `wal.61.log`.
fn build_fixture(tag: &str) -> (PathBuf, Vec<(u64, u64)>) {
    let stream: Vec<(u64, u64)> = (0..80u64).map(|i| (i % 7, 100 + i)).collect();
    let dir = temp_dir(tag);
    for (range, clean_exit) in [(0..30, true), (30..60, true), (60..80, false)] {
        let mut server = Server::start(&dir);
        insert_all(&server, &stream[range]);
        if clean_exit {
            server.terminate();
        } else {
            server.kill();
        }
    }
    (dir, stream)
}

fn scrub(dir: &Path, repair: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_streamlink"));
    cmd.args(["scrub", "--data-dir", dir.to_str().unwrap()]);
    if repair {
        cmd.arg("--repair");
    }
    cmd.output().expect("run streamlink scrub")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("scrub exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The WAL segment whose records start at `first_seq`.
fn segment(dir: &Path, first_seq: u64) -> PathBuf {
    let path = dir.join(format!("wal.{first_seq}.log"));
    assert!(path.exists(), "fixture lacks {path:?}");
    path
}

/// Byte offset inside record `idx` where a single flipped bit breaks
/// the record CRC: the first body byte of its envelope.
fn record_offset(path: &Path, idx: usize) -> u64 {
    let bytes = fs::read(path).unwrap();
    let records = journal::scan_segment(&bytes);
    assert!(records.len() > idx, "segment shorter than expected");
    let raw = records[idx].raw;
    let start = raw.as_ptr() as usize - bytes.as_ptr() as usize;
    // Magic (4), version, mode and a one-byte length precede the body.
    (start + 7) as u64
}

#[test]
fn clean_directory_scrubs_exit_zero() {
    let (dir, _) = build_fixture("clean");
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("CLEAN"), "{}", stdout(&out));
    assert!(stdout(&out).contains("v3 verified"), "{}", stdout(&out));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_under_snapshot_coverage_repairs_with_zero_loss() {
    let (dir, stream) = build_fixture("bitflip");
    let seg = segment(&dir, 31);
    streamlink_core::chaos::flip_bit(&seg, record_offset(&seg, 4), 0).unwrap();

    // Check-only: damage reported, nothing mutated, repairable → 1.
    let before = fs::read(&seg).unwrap();
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("DAMAGED"), "{}", stdout(&out));
    assert_eq!(
        fs::read(&seg).unwrap(),
        before,
        "check-only run must not write"
    );

    // Repair quarantines the rotted record; a second pass is clean.
    let out = scrub(&dir, true);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("REPAIRED"), "{}", stdout(&out));
    assert!(dir.join("quarantine").is_dir(), "quarantine dir created");
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // The record was covered by the snapshot generation: zero acked loss.
    let mut server = Server::start(&dir);
    assert_eq!(edges_stat(&server), stream.len() as u64);
    server.kill();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_append_is_a_torn_tail_truncated_by_repair() {
    let (dir, stream) = build_fixture("garbage");
    let seg = segment(&dir, 61);
    streamlink_core::chaos::append_garbage(&seg, b"F 99 7 7 deadbeef trailing junk").unwrap();

    let out = scrub(&dir, true);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("torn tail"), "{}", stdout(&out));
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // The junk was never acked; everything that was survives.
    let mut server = Server::start(&dir);
    assert_eq!(edges_stat(&server), stream.len() as u64);
    server.kill();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_generation_is_quarantined_and_wal_rebuilds() {
    let (dir, stream) = build_fixture("snaptrunc");
    let generations = streamlink_core::durable::list_generations(&dir).unwrap();
    let (_, newest) = generations.last().expect("fixture has a generation");
    streamlink_core::chaos::tear_file(newest, 10).unwrap();

    // Generation 30 plus the WAL from seq 31 still covers everything,
    // so the newest generation is redundant: repairable, zero loss.
    let out = scrub(&dir, true);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("CORRUPT"), "{}", stdout(&out));
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    let mut server = Server::start(&dir);
    assert_eq!(edges_stat(&server), stream.len() as u64);
    server.kill();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_above_coverage_is_reported_as_loss() {
    let (dir, stream) = build_fixture("loss");
    let seg = segment(&dir, 61);
    streamlink_core::chaos::flip_bit(&seg, record_offset(&seg, 2), 0).unwrap();

    // Seq 63 lives only in the WAL: no snapshot can rebuild it.
    let out = scrub(&dir, false);
    assert_eq!(exit_code(&out), 2, "{}", stdout(&out));
    assert!(stdout(&out).contains("LOSS"), "{}", stdout(&out));
    let out = scrub(&dir, true);
    assert_eq!(exit_code(&out), 2, "{}", stdout(&out));

    // The loss is explicit — quarantined, never silent: the restarted
    // server is exactly one acked edge short.
    let mut server = Server::start(&dir);
    assert_eq!(edges_stat(&server), stream.len() as u64 - 1);
    server.kill();
    fs::remove_dir_all(&dir).unwrap();
}

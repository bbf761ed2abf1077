//! Wire/storage format v3 end-to-end: a data directory left in the v1/v2
//! text formats migrates to v3 by a restart (recovery reads every
//! format, new records are written v3, scrub exits 0 on the mixed
//! directory), the line protocol upgrades to framed binary responses
//! after `HELLO v3`, and a replica converges over binary WAL shipping.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use graphstream::VertexId;
use streamlink_core::codec::{self, v2};
use streamlink_core::journal::{self, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{durable, SketchConfig, SketchStore};

const SLOTS: &str = "64";
const SEED: &str = "42";

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("streamlink-codec-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra: &[&str], replica: bool) -> Server {
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
        if replica {
            match lines.next() {
                Some(Ok(line)) => assert!(
                    line.starts_with("REPLICATING "),
                    "expected REPLICATING after LISTENING, got {line:?}"
                ),
                other => panic!("replica exited before announcing REPLICATING: {other:?}"),
            }
        }
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    fn durable(dir: &Path) -> Server {
        Server::start(
            &["--data-dir", dir.to_str().unwrap(), "--fsync", "always"],
            false,
        )
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
    }

    /// Graceful SIGTERM: drains and writes a final snapshot.
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
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let reader = BufReader::new(stream.try_clone().unwrap());
                    return Client { stream, reader };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {addr}: {e}"),
            }
        }
    }

    fn ask(&mut self, cmd: &str) -> String {
        writeln!(self.stream, "{cmd}").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Reads one framed response; only meaningful after `HELLO v3`.
    fn read_frame(&mut self) -> (u8, Vec<u8>) {
        codec::read_envelope_blocking(&mut self.reader).expect("read envelope")
    }
}

fn scrub(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args(["scrub", "--data-dir", dir.to_str().unwrap()])
        .output()
        .expect("run streamlink scrub")
}

/// Lays down what a pre-v3 server left behind for the edges `1 100..140`:
/// a v2 generation covering seqs 1..=20, v1 `E` lines for 21..=30 and
/// v2 `F` lines for 31..=40. Returns the same edges applied in memory.
fn write_text_directory(dir: &Path) -> SketchStore {
    let config = SketchConfig::with_slots(SLOTS.parse().unwrap()).seed(SEED.parse().unwrap());
    let mut store = SketchStore::new(config);
    let entries: Vec<JournalEntry> = (1..=40u64)
        .map(|seq| JournalEntry {
            seq,
            u: VertexId(1),
            v: VertexId(99 + seq),
        })
        .collect();
    for e in &entries[..20] {
        store.insert_edge(e.u, e.v);
    }
    fs::write(
        durable::generation_path(dir, 20),
        v2::store_snapshot(&StoreSnapshot::capture(&store)),
    )
    .unwrap();
    let v1: String = entries[20..30]
        .iter()
        .map(|e| format!("E {} {} {}\n", e.seq, e.u.0, e.v.0))
        .collect();
    fs::write(journal::segment_path(dir, 21), v1).unwrap();
    fs::write(
        journal::segment_path(dir, 31),
        v2::wal_segment(&entries[30..]),
    )
    .unwrap();
    for e in &entries[20..] {
        store.insert_edge(e.u, e.v);
    }
    store
}

/// The migration path: a directory in the v1/v2 text formats recovers
/// as it is on a v3 server, new journal entries and checkpoints come
/// out binary, a crash replays the v3 WAL, and scrub audits the mixed
/// directory clean.
#[test]
fn v2_directory_migrates_to_v3_in_place() {
    let dir = temp_dir("migrate");
    let mut expected = write_text_directory(&dir);
    let out = scrub(&dir);
    assert_eq!(out.status.code(), Some(0), "scrub of the text dir: {out:?}");

    // Lifetime 1: the text state recovers; new appends are binary
    // envelopes. SIGKILL forces the next boot to replay them from the
    // WAL.
    let mut server = Server::durable(&dir);
    let mut c = server.connect();
    assert_eq!(c.ask("DEGREE 1"), "OK 40");
    for i in 0..40u64 {
        assert_eq!(c.ask(&format!("INSERT 2 {}", 200 + i)), "OK inserted");
        expected.insert_edge(VertexId(2), VertexId(200 + i));
    }
    drop(c);
    server.kill();

    // The live segment now holds binary records.
    let has_binary_wal = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal."))
        .any(|e| {
            fs::read(e.path())
                .map(|b| b.starts_with(&codec::BINARY_MAGIC))
                .unwrap_or(false)
        });
    assert!(has_binary_wal, "no binary WAL segment written");

    // Lifetime 2: everything acked survives the mixed directory, with
    // estimates bit-identical to the same edges applied in memory, and
    // a graceful exit checkpoints a binary snapshot.
    let mut server = Server::durable(&dir);
    let mut c = server.connect();
    assert_eq!(c.ask("DEGREE 1"), "OK 40");
    assert_eq!(c.ask("DEGREE 2"), "OK 40");
    for (u, v) in [(1, 2), (100, 101), (1, 139), (200, 239)] {
        let want = match expected.jaccard(VertexId(u), VertexId(v)) {
            Some(j) => format!("OK {j:.6}"),
            None => "OK unseen".into(),
        };
        assert_eq!(c.ask(&format!("JACCARD {u} {v}")), want);
    }
    drop(c);
    server.terminate();

    let snapshot_binary = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            name.starts_with("snapshot.") && name.ends_with(".json")
        })
        .any(|e| {
            fs::read(e.path())
                .map(|b| b.starts_with(&codec::BINARY_MAGIC))
                .unwrap_or(false)
        });
    assert!(snapshot_binary, "graceful exit left no binary snapshot");

    // The mixed directory audits clean.
    let out = scrub(&dir);
    assert_eq!(out.status.code(), Some(0), "scrub: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CLEAN"), "{stdout}");
}

/// `HELLO v3` flips one connection to framed responses: requests stay
/// text lines, every answer afterwards is a checksummed envelope, and
/// pipelined requests come back as distinct frames in order.
#[test]
fn hello_v3_upgrades_responses_to_envelopes() {
    let server = Server::start(&[], false);
    let mut c = server.connect();

    // Before the upgrade: plain text, and HELLO v2 is a no-op.
    assert_eq!(c.ask("PING"), "OK pong");
    assert_eq!(c.ask("HELLO v2"), "OK fmt=v2");
    // The acceptance itself is the last text line on the connection.
    assert_eq!(c.ask("HELLO v3"), "OK fmt=v3");

    // Pipeline a batch of requests; each response is one envelope.
    write!(c.stream, "PING\nDEGREE 7\nINSERT 7 8\nDEGREE 7\nHELLO v3\n").unwrap();
    let expect = ["OK pong", "OK 0", "OK inserted", "OK 1", "OK fmt=v3"];
    for want in expect {
        let (mode, body) = c.read_frame();
        assert_eq!(mode, codec::MODE_TEXT_FRAME);
        assert_eq!(String::from_utf8(body).unwrap(), want);
    }

    // Multi-line responses arrive as a single frame.
    writeln!(c.stream, "METRICS").unwrap();
    let (mode, body) = c.read_frame();
    assert_eq!(mode, codec::MODE_TEXT_FRAME);
    let text = String::from_utf8(body).unwrap();
    assert!(text.lines().count() > 1, "METRICS should be multi-line");
    let last = text.lines().last().unwrap();
    assert!(
        last.starts_with("OK ") && last.ends_with("metrics"),
        "{last}"
    );

    // QUIT is framed too, then the server closes the connection.
    writeln!(c.stream, "QUIT").unwrap();
    let (mode, body) = c.read_frame();
    assert_eq!(mode, codec::MODE_TEXT_FRAME);
    assert_eq!(body, b"OK bye");
    let mut rest = Vec::new();
    assert_eq!(c.reader.read_to_end(&mut rest).unwrap(), 0, "clean close");
}

/// A replica negotiates binary WAL shipping with the primary (and
/// anti-entropy snapshot frames) and converges to its exact state.
#[test]
fn v3_replica_converges_over_binary_shipping() {
    let primary = Server::start(&[], false);
    let mut p = primary.connect();
    for i in 0..50u64 {
        assert_eq!(p.ask(&format!("INSERT 5 {}", 500 + i)), "OK inserted");
    }

    let replica = Server::start(
        &[
            "--replicate-from",
            &primary.addr,
            "--repl-id",
            "r-v3",
            "--repl-poll-ms",
            "20",
            "--repl-anti-entropy-secs",
            "1",
        ],
        true,
    );
    let mut r = replica.connect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if r.ask("DEGREE 5") == "OK 50" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica did not converge over binary shipping"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Writes keep flowing after convergence (steady-state pulls).
    assert_eq!(p.ask("INSERT 5 999"), "OK inserted");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if r.ask("DEGREE 5") == "OK 51" {
            break;
        }
        assert!(Instant::now() < deadline, "steady-state pull stalled");
        std::thread::sleep(Duration::from_millis(50));
    }
    let nack = r.ask("INSERT 1 2");
    assert!(nack.starts_with("ERR readonly"), "{nack}");
}

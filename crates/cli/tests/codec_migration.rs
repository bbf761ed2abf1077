//! Wire/storage format v3 end-to-end: a data directory or snapshot file
//! that a pre-v3 build wrote is refused by name on every read path of
//! the real binary, with nothing written; the line protocol upgrades to
//! framed binary responses after `HELLO v3`; and a replica converges
//! over binary WAL shipping.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use streamlink_core::codec;

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

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
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

/// The golden files pre-v3 builds wrote, committed under
/// `tests/fixtures/pre_v3/`: a v2 generation, a v1 `snapshot.json`, a v1
/// `E` segment and a v2 `F` segment.
const PRE_V3_FIXTURES: [&str; 4] = ["snapshot.6.json", "snapshot.json", "wal.1.log", "wal.7.log"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/pre_v3")
        .join(name)
}

/// Every entry of `dir` with its bytes (a subdirectory with none), by
/// name.
fn contents(dir: &Path) -> Vec<(String, Option<Vec<u8>>)> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, path.is_file().then(|| fs::read(&path).unwrap()))
        })
        .collect();
    entries.sort();
    entries
}

fn names(contents: &[(String, Option<Vec<u8>>)]) -> Vec<&str> {
    contents.iter().map(|(name, _)| name.as_str()).collect()
}

fn streamlink(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args(args)
        .output()
        .expect("run streamlink")
}

/// Asserts `out` failed with the refusal that names `file`.
fn assert_refused(out: &Output, file: &Path) {
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = format!("{}: written by a pre-v3 build", file.display());
    assert!(stderr.contains(&named), "{stderr}");
    assert!(stderr.contains(codec::LAST_PRE_V3_READER), "{stderr}");
}

/// Runs `serve --data-dir dir`, which must exit on its own; a server
/// that starts serving instead is killed and the test fails.
fn serve_data_dir(dir: &Path) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--slots",
            SLOTS,
            "--seed",
            SEED,
        ])
        .args(["--data-dir", dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn streamlink serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve --data-dir {} kept running", dir.display());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("reap serve")
}

/// Every pre-v3 file fails closed by name on the real binary: `serve
/// --data-dir` exits non-zero, `scrub` exits 2 with a `PRE-V3` verdict
/// with or without `--repair`, and not one byte of the directory
/// changes (nothing quarantined, truncated or written); `query
/// --snapshot` refuses a v2 file.
#[test]
fn pre_v3_directory_fails_closed() {
    for name in PRE_V3_FIXTURES {
        let dir = temp_dir("pre-v3");
        let file = dir.join(name);
        fs::copy(fixture(name), &file).unwrap();
        let before = contents(&dir);

        assert_refused(&serve_data_dir(&dir), &file);
        let after = contents(&dir);
        assert!(
            after == before,
            "{name}: serve changed the dir: {:?}",
            names(&after)
        );

        for repair in [false, true] {
            let mut args = vec!["scrub", "--data-dir", dir.to_str().unwrap()];
            if repair {
                args.push("--repair");
            }
            let out = streamlink(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(2), "{name}: {stdout}");
            assert!(stdout.contains(&format!("{name}: PRE-V3 (")), "{stdout}");
            assert!(stdout.contains("— PRE-V3"), "{stdout}");
            let after = contents(&dir);
            assert!(
                after == before,
                "{name}: scrub changed the dir: {:?}",
                names(&after)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    let v2 = fixture("snapshot.6.json");
    let v2 = v2.to_str().unwrap();
    let out = streamlink(&[
        "query",
        "--snapshot",
        v2,
        "--measure",
        "jaccard",
        "--pair",
        "1:2",
    ]);
    assert_refused(&out, Path::new(v2));
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

/// A replica negotiates binary WAL shipping with the primary and
/// converges to its exact state.
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

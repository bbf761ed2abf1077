//! Peak memory of loading a snapshot, measured on the real binary.
//!
//! `serve --snapshot` streams a v3 file straight into its store, so the
//! process should peak at about the live store: not at the file plus a
//! decoded image plus a copy of it. The test reads the child's `VmHWM`
//! (peak resident set) from `/proc/<pid>/status` once it listens,
//! subtracts an empty-store server's, and holds the difference to 1.3×
//! the store's own accounting (`STATS memory=`). Holding two copies of
//! the sketches, as a decode-then-clone load does, lands near 2×.
//!
//! `query` on the same file must print the estimates of the store that
//! wrote it.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use graphstream::VertexId;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

/// Vertices in the fixture store, each with a k=64 sketch (1 KiB of
/// slots apiece, about 41 MB in all).
const VERTICES: u64 = 40_000;

/// The peak-over-baseline allowance, as a multiple of `STATS memory=`.
const MAX_LOAD_OVERHEAD: f64 = 1.3;

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--metrics-log-secs", "0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn streamlink serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let addr = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .find_map(|line| line.strip_prefix("LISTENING ").map(str::to_string))
            .expect("server exited before announcing LISTENING");
        Server { child, addr }
    }

    /// Peak resident set of the server process so far, in bytes.
    fn peak_rss(&self) -> u64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc/<pid>/status");
        let kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM line in /proc/<pid>/status");
        kib * 1024
    }

    fn ask(&self, cmd: &str) -> String {
        let mut conn = TcpStream::connect(&self.addr).expect("connect");
        writeln!(conn, "{cmd}").expect("send");
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .expect("read reply");
        line.trim_end().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stats_field(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {stats:?}"))
}

/// A k=64 store in which every vertex has a few neighbours.
fn fixture() -> SketchStore {
    let mut store = SketchStore::new(SketchConfig::with_slots(64).seed(11));
    for u in 0..VERTICES {
        store.insert_edge(VertexId(u), VertexId((u + 1) % VERTICES));
        store.insert_edge(VertexId(u), VertexId((u * 7 + 13) % VERTICES));
    }
    store
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("streamlink-loadlive-{}-{name}", std::process::id()))
}

#[test]
fn serve_snapshot_peaks_at_about_the_live_store() {
    let store = fixture();
    let path = temp_path("store.snap");
    StoreSnapshot::capture(&store).write_atomic(&path).unwrap();
    let file = path.to_str().unwrap();

    let baseline = Server::start(&["--slots", "64"]).peak_rss();
    let server = Server::start(&["--snapshot", file]);
    let peak = server.peak_rss();
    let stats = server.ask("STATS");
    assert_eq!(stats_field(&stats, "vertices"), VERTICES);
    let memory = stats_field(&stats, "memory");
    let ratio = peak.saturating_sub(baseline) as f64 / memory as f64;
    println!(
        "load peak {peak} B over an empty server's {baseline} B = {:.2}x of STATS memory={memory}",
        ratio
    );
    assert!(
        ratio <= MAX_LOAD_OVERHEAD,
        "loading peaked at {ratio:.2}x the live store (limit {MAX_LOAD_OVERHEAD}x)"
    );

    // `query` loads the same file the same way and answers as the
    // store that wrote it.
    let pairs: Vec<(u64, u64)> = (0..8).map(|i| (i * 97, i * 97 + 1)).collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_streamlink"));
    cmd.args(["query", "--snapshot", file, "--measure", "jaccard"]);
    for (u, v) in &pairs {
        cmd.args(["--pair", &format!("{u}:{v}")]);
    }
    let out = cmd.output().expect("run streamlink query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected: Vec<String> = pairs
        .iter()
        .map(|&(u, v)| {
            let j = store.jaccard(VertexId(u), VertexId(v)).expect("both seen");
            format!("jaccard {u}:{v} {j:.6}")
        })
        .collect();
    let printed: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(printed, expected);
    fs::remove_file(&path).unwrap();
}

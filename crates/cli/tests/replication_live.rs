//! Live replication tests against the real `streamlink` binary.
//!
//! Each test boots a primary and read replicas as child processes over
//! loopback TCP, then exercises the replication contract end to end:
//! replicas converge to the primary's exact state and serve every read,
//! writes on a replica are refused with `ERR readonly`, a SIGKILLed
//! replica rejoins and reconverges without the primary ever stalling,
//! a replica that starts behind a small ship ring installs the
//! primary's snapshot, both roles expose their lag through `REPL STATUS`,
//! and a durable replica that outlived its primary's timeline restarts
//! onto the new one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SLOTS: &str = "64";
const SEED: &str = "42";

/// A `streamlink serve` child plus the address it actually bound.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Boots `streamlink serve --addr 127.0.0.1:0 <extra>`.
    fn start(extra: &[&str], replica: bool) -> Server {
        Server::start_at("127.0.0.1:0", extra, replica)
    }

    /// Boots `streamlink serve --addr <addr> <extra>` and waits for its
    /// `LISTENING <addr>` line (and, for replicas, the following
    /// `REPLICATING <primary>` line).
    fn start_at(addr: &str, extra: &[&str], replica: bool) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
            .arg("serve")
            .args(["--addr", addr, "--slots", SLOTS, "--seed", SEED])
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
        // Keep draining stdout so the child can never block (or die on a
        // closed pipe) if it prints again.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    /// A primary with a fast checkpoint-free in-memory configuration.
    fn primary() -> Server {
        Server::start(&[], false)
    }

    /// [`Server::primary`] with a ship ring of `entries`.
    fn primary_with_ring(entries: &str) -> Server {
        Server::start(&["--repl-buffer", entries], false)
    }

    /// A replica of `primary` polling fast enough for test deadlines.
    fn replica(primary: &str, id: &str) -> Server {
        Server::start(&Server::replica_flags(primary, id), true)
    }

    /// [`Server::replica`] journaling into its own data directory.
    fn durable_replica(primary: &str, id: &str, dir: &str) -> Server {
        let mut flags = Server::replica_flags(primary, id);
        flags.extend(["--data-dir", dir]);
        Server::start(&flags, true)
    }

    fn replica_flags<'a>(primary: &'a str, id: &'a str) -> Vec<&'a str> {
        vec![
            "--replicate-from",
            primary,
            "--repl-id",
            id,
            "--repl-poll-ms",
            "20",
        ]
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// SIGKILL: the crash. Nothing gets to run, flush, or clean up.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
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
}

/// Extracts `key=value` from a status line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {line:?}"))
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Blocks until a replica reports `applied_seq=want` over `REPL STATUS`.
fn wait_applied(server: &Server, want: u64, what: &str) {
    let mut client = server.connect();
    wait_for(what, || {
        let status = client.ask("REPL STATUS");
        field(&status, "applied_seq") == want
    });
}

/// A deterministic edge stream with shared neighborhoods so similarity
/// queries are non-trivial.
fn edges(n: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for w in 0..n {
        out.push((1, 100 + w % 17));
        out.push((2, 100 + w % 13));
        out.push((w % 5 + 3, 200 + w));
    }
    out
}

const QUERY_PAIRS: &[(u64, u64)] = &[(1, 2), (1, 3), (3, 4), (2, 999)];

/// Every estimate the node serves for the standard query pairs.
fn answers(client: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    for &(u, v) in QUERY_PAIRS {
        out.push(client.ask(&format!("JACCARD {u} {v}")));
        out.push(client.ask(&format!("CN {u} {v}")));
        out.push(client.ask(&format!("AA {u} {v}")));
        out.push(client.ask(&format!("DEGREE {u}")));
    }
    out
}

#[test]
fn replicas_converge_serve_reads_and_refuse_writes() {
    let primary = Server::primary();
    let r1 = Server::replica(&primary.addr, "r1");
    let r2 = Server::replica(&primary.addr, "r2");

    let stream = edges(60);
    let mut feed = primary.connect();
    for &(u, v) in &stream {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    let want = stream.len() as u64;
    wait_applied(&r1, want, "r1 to catch up");
    wait_applied(&r2, want, "r2 to catch up");

    // Replicas serve every read with exactly the primary's estimates.
    let reference = answers(&mut feed);
    assert_eq!(answers(&mut r1.connect()), reference, "r1 diverges");
    assert_eq!(answers(&mut r2.connect()), reference, "r2 diverges");

    // Writes on a replica are refused with a machine-parseable MOVED
    // hint: the 4th whitespace token is the primary's address.
    let mut write = r1.connect();
    let refusal = write.ask("INSERT 9 9000");
    assert!(refusal.starts_with("ERR readonly MOVED "), "{refusal}");
    assert_eq!(
        refusal.split_whitespace().nth(3),
        Some(primary.addr.as_str()),
        "{refusal}"
    );
    assert_eq!(write.ask("DEGREE 9000"), "OK 0", "refused write leaked");

    // Both roles expose lag. The replica is caught up and connected;
    // the primary sees both peers at zero lag.
    let r1_status = r1.connect().ask("REPL STATUS");
    assert!(r1_status.starts_with("OK role=replica"), "{r1_status}");
    assert_eq!(field(&r1_status, "connected"), 1, "{r1_status}");
    assert_eq!(field(&r1_status, "lag_edges"), 0, "{r1_status}");
    // The durable watermark is exposed alongside the applied one; an
    // in-memory replica's persisted seq tracks its applied seq.
    assert_eq!(field(&r1_status, "persisted_seq"), want, "{r1_status}");
    wait_for("primary to see two caught-up peers", || {
        let status = feed.ask("REPL STATUS");
        field(&status, "replicas_connected") == 2 && field(&status, "max_lag_edges") == 0
    });
}

#[test]
fn sigkilled_replica_rejoins_and_reconverges() {
    let primary = Server::primary();
    let r1 = Server::replica(&primary.addr, "r1");
    let mut r2 = Server::replica(&primary.addr, "r2");

    let stream = edges(80);
    let cut = stream.len() / 2;
    let mut feed = primary.connect();
    for &(u, v) in &stream[..cut] {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    wait_applied(&r2, cut as u64, "r2 to reach the cut");

    // Crash one replica mid-stream. The primary keeps acking writes and
    // the surviving replica keeps converging: slow or dead peers never
    // stall ingest.
    r2.kill();
    for &(u, v) in &stream[cut..] {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    let want = stream.len() as u64;
    wait_applied(&r1, want, "r1 to converge past the crash");

    // The crashed replica rejoins under the same id, resumes from the
    // primary's ship buffer, and reconverges to the exact same answers.
    let r2 = Server::replica(&primary.addr, "r2");
    wait_applied(&r2, want, "restarted r2 to reconverge");
    let reference = answers(&mut feed);
    assert_eq!(answers(&mut r1.connect()), reference, "r1 diverges");
    assert_eq!(
        answers(&mut r2.connect()),
        reference,
        "rejoined r2 diverges"
    );
    wait_for("primary to see both peers again", || {
        let status = feed.ask("REPL STATUS");
        field(&status, "replicas_connected") == 2 && field(&status, "max_lag_edges") == 0
    });
}

#[test]
fn replica_behind_a_small_ring_installs_the_primarys_snapshot() {
    let primary = Server::primary_with_ring("8");
    let stream = edges(34);
    let mut feed = primary.connect();
    for &(u, v) in &stream[..100] {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    // The ring holds seqs 93..=100 only, and an in-memory primary has
    // no WAL to read: the replica's first pull is answered `ERR resync`,
    // and a SNAPSHOT_FRAME install is its only way to seq 100.
    let replica = Server::replica(&primary.addr, "r1");
    wait_applied(&replica, 100, "replica to install the snapshot");
    assert_eq!(answers(&mut replica.connect()), answers(&mut feed));
    for &(u, v) in &stream[100..] {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    wait_applied(&replica, stream.len() as u64, "replica to pull on");
    assert_eq!(answers(&mut replica.connect()), answers(&mut feed));
}

#[test]
fn durable_replica_restarts_onto_a_restarted_primarys_timeline() {
    let dir = std::env::temp_dir().join(format!("streamlink-repl-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let mut primary = Server::primary();
    let addr = primary.addr.clone();
    let mut replica = Server::durable_replica(&addr, "r1", dir_arg);

    let stream = edges(40);
    let mut feed = primary.connect();
    for &(u, v) in &stream {
        assert_eq!(feed.ask(&format!("INSERT {u} {v}")), "OK inserted");
    }
    wait_applied(&replica, stream.len() as u64, "replica to catch up");

    // The primary dies and comes back empty on the same address: a new
    // timeline whose seq 1 is a different edge from the journaled one.
    primary.kill();
    let primary = Server::start_at(&addr, &[], false);
    let mut feed = primary.connect();
    assert_eq!(feed.ask("INSERT 1 5000"), "OK inserted");
    wait_for("replica to leave the dead timeline", || {
        let stats = replica.connect().ask("STATS");
        field(&stats, "edges") == 1
    });
    wait_applied(&replica, 1, "replica to apply the new seq 1");
    let status = replica.connect().ask("REPL STATUS");
    assert_eq!(
        field(&status, "lag_edges"),
        0,
        "dead seqs still count as lag"
    );
    let want_edges = field(&feed.ask("STATS"), "edges");
    let want_jaccard = feed.ask("JACCARD 1 2");
    let want_degree = feed.ask("DEGREE 1");

    // Restart the replica while no primary is up, so what it serves is
    // exactly what it recovered from its own disk.
    drop(feed);
    drop(primary);
    replica.kill();
    let replica = Server::durable_replica(&addr, "r1", dir_arg);
    let mut client = replica.connect();
    assert_eq!(field(&client.ask("STATS"), "edges"), want_edges);
    assert_eq!(client.ask("JACCARD 1 2"), want_jaccard);
    assert_eq!(client.ask("DEGREE 1"), want_degree);
    assert_eq!(field(&client.ask("REPL STATUS"), "applied_seq"), 1);
    drop(client);
    drop(replica);
    let _ = std::fs::remove_dir_all(&dir);
}

//! **E23 (replica catch-up)** — randomized fault schedules over the
//! real replication link, pinning its one-way catch-up contract: **once
//! writes stop and every learner has applied the primary's last seq,
//! every learner equals the primary byte for byte** — every per-vertex
//! sketch slot, every degree counter, and the edge count — with no
//! repair round.
//!
//! Each seed runs, in this process and over loopback TCP, one primary
//! under `server::serve` and 2–3 learners built the way
//! `streamlink serve --replicate-from` builds them (`ReplicaRuntime`,
//! `ClusterRuntime`, `ServerState::with_cluster`, `server::serve`).
//! Per seed it randomizes:
//!
//! * a durable primary, so a pull its ring cannot serve is read from
//!   the on-disk WAL (the first window is written by an earlier
//!   incarnation, so it sits in a sealed segment);
//! * one rotted record in that sealed segment, flipped after the
//!   primary applied it: a disk read must stop there, and the learner
//!   must install the primary's snapshot instead of skipping the edge;
//! * a ship ring of 8–32 entries, so lagging learners hit `ERR resync`
//!   and install the primary's snapshot wholesale;
//! * crash-resets of learners while writes flow: an in-memory learner
//!   restarts empty and pulls from seq 0.
//!
//! Learners start one at a time after the first window, with no writes
//! in flight, so the primary's shipped-entry and snapshot counters tell
//! how each one caught up: streamed from the ring, streamed from disk,
//! installed at once, or streamed from disk until the rot and then
//! installed. The rest of the stream is written in bursts with
//! crash-resets in between.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_replication -- \
//!     [--scale small|standard|large] [--seeds 30]
//! ```
//!
//! Exits nonzero if any seed leaves a learner divergent or stuck, and
//! on seed sets in which crash-resets, installs, disk-served catch-ups
//! or rot-triggered resyncs never happened — CI runs this as a gate.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use graphstream::VertexId;
use serde::Serialize;
use streamlink_bench::{flag_value, scale_from_args, ResultWriter, EXP_SEED};
use streamlink_cli::server::failover::{ClusterConfig, ClusterRuntime, Membership};
use streamlink_cli::server::replication::{ReplicaRuntime, ReplicaTuning};
use streamlink_cli::server::{self, persistence, ServerConfig, ServerState};
use streamlink_core::journal::{self, FsyncPolicy, JournalEntry};
use streamlink_core::repl::divergence;
use streamlink_core::{codec, metrics, SketchConfig, SketchStore};

/// How long a learner may take to catch up before the seed fails.
const CATCH_UP_DEADLINE: Duration = Duration::from_secs(30);

/// Deterministic xorshift64 PRNG: the schedule replays from its seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

#[derive(Serialize)]
struct Row {
    seed: u64,
    entries: u64,
    learners: u64,
    durable: bool,
    ring: usize,
    /// Seq of the rotted WAL record (0: none).
    rot_seq: u64,
    crash_resets: u64,
    /// Snapshots the primary shipped over the whole seed.
    installs: u64,
    /// First-window catch-ups the primary streamed from its on-disk WAL.
    disk_catchups: u64,
    /// First-window catch-ups that streamed from disk up to the rotted
    /// record and then installed a snapshot.
    rot_resyncs: u64,
    ok: bool,
    violation: String,
}

/// One node under `server::serve` on its own loopback port.
struct Node {
    state: Arc<ServerState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Node {
    fn serve(state: ServerState) -> (Node, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address").to_string();
        let state = Arc::new(state);
        let served = Arc::clone(&state);
        let thread = thread::spawn(move || server::serve(listener, &served));
        (Node { state, thread }, addr)
    }

    /// A `--replicate-from primary --repl-id id` learner over an empty
    /// store.
    fn learner(primary: &str, id: &str, config: SketchConfig) -> Node {
        let tuning = ReplicaTuning {
            poll_interval: Duration::from_millis(2),
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_millis(200),
            ..ReplicaTuning::default()
        };
        let membership = Membership::Learner {
            primary: primary.into(),
        };
        let advertise = id.into();
        let cluster = ClusterRuntime::new(
            &ClusterConfig {
                advertise,
                membership,
            },
            None,
            0,
        );
        let state = ServerState::with_cluster(
            SketchStore::new(config),
            None,
            0,
            server_config(ServerConfig::default().repl_buffer),
            Arc::new(ReplicaRuntime::new(id.into(), 100_000, tuning)),
            Arc::new(cluster.expect("in-memory cluster")),
        );
        Node::serve(state).0
    }

    fn runtime(&self) -> &ReplicaRuntime {
        self.state.replica_runtime().expect("a learner")
    }

    /// Waits until the learner has applied `seq` and reports no lag.
    fn wait_caught_up(&self, seq: u64) -> Result<(), String> {
        let deadline = Instant::now() + CATCH_UP_DEADLINE;
        let runtime = self.runtime();
        while runtime.applied_seq() != seq || runtime.lag() != 0 {
            if Instant::now() >= deadline {
                let applied = runtime.applied_seq();
                return Err(format!("{} stuck at seq {applied} of {seq}", runtime.id));
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    fn stop(self) {
        self.state.request_shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server shut down cleanly");
    }
}

fn server_config(repl_buffer: usize) -> ServerConfig {
    ServerConfig {
        drain_deadline: Duration::from_secs(1),
        // No checkpoint during a run: the sealed segment stays on disk.
        snapshot_every: Duration::from_secs(3600),
        metrics_log_every: Duration::ZERO,
        audit_interval: Duration::ZERO,
        repl_buffer,
        ..ServerConfig::default()
    }
}

/// `(entries shipped, snapshots shipped)` so far, process-wide. Only the
/// primary ships, so deltas across a quiet interval are its own.
fn shipped() -> (u64, u64) {
    let m = metrics::global();
    (m.repl_entries_shipped.get(), m.repl_snapshots_shipped.get())
}

/// Flips one bit inside the record of `seq` in the segment starting at
/// seq 1, which holds exactly `entries` (every record is one
/// `encode_wal_entry` envelope).
fn rot_record(dir: &Path, entries: &[JournalEntry], seq: u64) {
    let offset: usize = entries[..(seq - 1) as usize]
        .iter()
        .map(|e| codec::encode_wal_entry(e).len())
        .sum();
    let segment = journal::segment_path(dir, 1);
    streamlink_core::chaos::flip_bit(&segment, offset as u64 + 3, 5).expect("flip a WAL bit");
}

/// The primary's state after the first window: in memory, or durable
/// with the window written by an earlier incarnation.
fn primary_state(
    dir: Option<&Path>,
    config: SketchConfig,
    ring: usize,
    first: &[JournalEntry],
) -> ServerState {
    let Some(dir) = dir else {
        let state = ServerState::in_memory(SketchStore::new(config), server_config(ring));
        for e in first {
            state.insert_edge(e.u, e.v).expect("in-memory insert");
        }
        return state;
    };
    let open = || {
        let (persist, recovery) =
            persistence::open_with_faults(dir, config, FsyncPolicy::Never, None)
                .expect("open the primary's data dir");
        ServerState::with_persistence(
            recovery.store,
            persist,
            recovery.snapshot_seq,
            server_config(ring),
        )
    };
    let earlier = open();
    for e in first {
        earlier.insert_edge(e.u, e.v).expect("journaled insert");
    }
    // Dropped without a checkpoint: reopening replays the window and
    // starts a new segment, sealing the one that holds it.
    drop(earlier);
    open()
}

fn run_seed(seed: u64, scratch: &Path) -> Row {
    let mut rng = Rng::new(seed);
    let config = SketchConfig::with_slots(32).seed(EXP_SEED);
    let entries = 150 + rng.below(150);
    let stream: Vec<JournalEntry> = (1..=entries)
        .map(|seq| JournalEntry {
            seq,
            u: VertexId(rng.below(48)),
            v: VertexId(48 + rng.below(48)),
        })
        .collect();
    let first_len = (entries / 4 + rng.below(entries / 4)) as usize;
    let durable = rng.chance(2);
    let ring = if rng.chance(4) {
        ServerConfig::default().repl_buffer
    } else {
        8 + rng.below(25) as usize
    };
    let rot_seq = if durable && !rng.chance(3) {
        2 + rng.below(first_len as u64 - 1)
    } else {
        0
    };
    let learners = 2 + rng.below(2);

    let dir = durable.then(|| scratch.join(format!("seed-{seed}")));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let state = primary_state(dir.as_deref(), config, ring, &stream[..first_len]);
    if rot_seq > 0 {
        rot_record(
            dir.as_deref().expect("durable"),
            &stream[..first_len],
            rot_seq,
        );
    }
    let (primary, addr) = Node::serve(state);
    let start_snapshots = shipped().1;
    let mut violations: Vec<String> = Vec::new();

    // First window: learners start one at a time with no writes in
    // flight, so each catch-up's counters are its own.
    let first_seq = first_len as u64;
    let ring_covers_start = primary
        .state
        .primary_repl()
        .and_then(|repl| repl.log().first_buffered())
        == Some(1);
    let (mut disk_catchups, mut rot_resyncs) = (0u64, 0u64);
    let mut fleet: Vec<Node> = Vec::new();
    for i in 0..learners {
        let before = shipped();
        let learner = Node::learner(&addr, &format!("learner-{i}"), config);
        violations.extend(learner.wait_caught_up(first_seq).err());
        let after = shipped();
        if durable && !ring_covers_start && after.0 > before.0 {
            disk_catchups += 1;
            rot_resyncs += after.1 - before.1;
        }
        fleet.push(learner);
    }

    // The rest in bursts, crash-resetting learners in between.
    let mut crash_resets = 0u64;
    let mut rest = &stream[first_len..];
    while !rest.is_empty() {
        let (burst, tail) = rest.split_at((1 + rng.below(8) as usize).min(rest.len()));
        for e in burst {
            primary.state.insert_edge(e.u, e.v).expect("primary insert");
        }
        rest = tail;
        if rng.chance(12) {
            let i = rng.below(fleet.len() as u64) as usize;
            let id = fleet[i].runtime().id.clone();
            let crashed = std::mem::replace(&mut fleet[i], Node::learner(&addr, &id, config));
            crashed.stop();
            crash_resets += 1;
        }
        thread::sleep(Duration::from_micros(200 * rng.below(10)));
    }

    // Writes have stopped: every learner must catch up on its own and
    // then equal the primary exactly.
    let last_seq = primary
        .state
        .primary_repl()
        .map_or(0, |repl| repl.log().last_seq());
    for learner in &fleet {
        violations.extend(learner.wait_caught_up(last_seq).err());
        let want = primary.state.read_store();
        let diverged = divergence(&want, &learner.state.read_store());
        violations.extend(diverged.map(|d| format!("{} diverges: {d}", learner.runtime().id)));
    }
    let installs = shipped().1 - start_snapshots;
    for learner in fleet {
        learner.stop();
    }
    primary.stop();
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    Row {
        seed,
        entries,
        learners,
        durable,
        ring,
        rot_seq,
        crash_resets,
        installs,
        disk_catchups,
        rot_resyncs,
        ok: violations.is_empty(),
        violation: violations.join("; "),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let default_seeds = match scale_from_args(&args) {
        datasets::Scale::Small => 30,
        datasets::Scale::Standard => 40,
        datasets::Scale::Large => 120,
    };
    let seeds: u64 = flag_value(&args, "--seeds")
        .map(|s| s.parse().expect("--seeds takes a number"))
        .unwrap_or(default_seeds);
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("streamlink-e23-{}", std::process::id()));

    let mut writer = ResultWriter::new("replication");
    let mut failures = 0u64;
    let (mut crashes, mut installs, mut disk, mut rot) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let row = run_seed(seed, &scratch);
        println!("{}", serde_json::to_string(&row).expect("row serializes"));
        if !row.ok {
            eprintln!("seed {}: {}", row.seed, row.violation);
            failures += 1;
        }
        crashes += row.crash_resets;
        installs += row.installs;
        disk += row.disk_catchups;
        rot += row.rot_resyncs;
        writer.write_row(&row);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "# {seeds} seeds, {failures} failure(s); coverage: {crashes} crash-reset(s), \
         {installs} install(s), {disk} disk-served catch-up(s), {rot} rot-triggered resync(s)"
    );
    if failures > 0 {
        eprintln!("FAIL: a learner diverged from the primary or never caught up (see rows above)");
        return ExitCode::FAILURE;
    }
    // A seed set that never crashed a learner, never installed, never
    // read the disk or never met the rot leaves a path unexercised.
    if seeds >= 10 && (crashes == 0 || installs == 0 || disk == 0 || rot == 0) {
        eprintln!(
            "FAIL: schedule coverage regressed (crash-resets={crashes} installs={installs} \
             disk={disk} rot-resyncs={rot})"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

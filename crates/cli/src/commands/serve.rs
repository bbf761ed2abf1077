//! `streamlink serve` — a fault-tolerant line-protocol server over a
//! sketch store.
//!
//! This module is the flag-parsing shell; the runtime lives in
//! [`crate::server`] (protocol, connection handling, signals,
//! persistence). The protocol itself is documented in
//! [`crate::server::protocol`].
//!
//! ## Flags
//!
//! ```text
//! --addr HOST:PORT            bind address        (127.0.0.1:7878)
//! --http-addr HOST:PORT       also serve the HTTP exposition plane
//!                             (/metrics, /healthz, /tracez, /profilez,
//!                             /memz);
//!                             off unless set
//! --data-dir DIR              durable mode: recover snapshot+journal,
//!                             journal every INSERT before acking
//! --snapshot FILE             read-mostly mode: load a snapshot file
//!                             (mutually exclusive with --data-dir)
//! --slots N --seed S          sketch shape for a fresh store  (256, 0)
//! --fsync always|interval|never   journal durability      (interval)
//! --max-conns N               connection cap, shed `ERR busy`  (1024)
//! --idle-timeout-ms MS        disconnect quiet clients        (30000)
//! --drain-secs S              shutdown drain deadline             (5)
//! --snapshot-every-secs S     checkpoint interval                (30)
//! --snapshot-every-edges N    checkpoint edge budget          (50000)
//! --snapshot-keep K           snapshot generations retained       (3)
//! --metrics-log-secs S        periodic metrics log line; 0 off   (60)
//! --slow-op-ms MS             slow-op threshold; 0 off           (50)
//! --slow-op-log PATH          slow-op JSONL sink (default
//!                             DATA_DIR/slowops.jsonl in durable mode,
//!                             otherwise off unless set)
//! --slow-op-log-bytes N       rotate the slow-op log past N bytes
//!                             (10485760)
//! --events-log PATH           cluster event journal JSONL sink — the
//!                             input of `streamlink cluster-events`
//!                             (default DATA_DIR/events.jsonl in
//!                             durable mode, otherwise off unless set)
//! --events-log-bytes N        rotate the events log past N bytes
//!                             (10485760)
//! --audit-secs S              accuracy-audit cycle interval; 0
//!                             disables the auditor               (30)
//! --audit-pairs K             vertex pairs scored per cycle      (64)
//! --replicate-from HOST:PORT  run as a read replica of that primary:
//!                             a non-voting cluster learner (mutually
//!                             exclusive with --snapshot); writes
//!                             answer `ERR readonly MOVED`. With
//!                             --data-dir the replica journals what it
//!                             applies and resumes from its own disk
//!                             after a restart
//! --repl-id NAME              replica id shown in the primary's lag
//!                             gauges              (replica-<pid>)
//! --peers A,B                 cluster mode: the other members'
//!                             protocol addresses, comma-separated.
//!                             Enables lease-based automatic failover
//!                             (REPL LEASE/VOTE, epoch fencing,
//!                             PROMOTE/DEMOTE); mutually exclusive
//!                             with --replicate-from and --snapshot
//! --advertise HOST:PORT       this node's address as peers dial it
//!                             (default --addr; required in cluster
//!                             mode when --addr uses port 0)
//! --lease-ms MS               failover lease window L: the primary
//!                             stays writable while a majority renewed
//!                             within L; elections start after 2L of
//!                             silence               (1000, min 50)
//! --primary true              bootstrap a *fresh* cluster as the
//!                             epoch-1 primary; refused (and the node
//!                             rejoins as a replica) once any epoch
//!                             exists
//! --repl-buffer N             primary ship-ring capacity in entries;
//!                             0 disables serving REPL      (65536)
//! --repl-pull-batch N         entries per REPL PULL, at most
//!                             65536                         (4096)
//! --repl-poll-ms MS           idle poll between pulls        (100)
//! --repl-lag-slo N            lag (edges) past which a replica's
//!                             /healthz flips 503          (100000)
//! ```
//!
//! Any other flag is refused by name.
//!
//! On SIGINT/SIGTERM the server stops accepting, drains, writes a final
//! snapshot (durable mode), and exits 0. The first stdout line is
//! `LISTENING <addr>` so scripts and tests can discover the bound port;
//! with `--http-addr` a second line `HTTP LISTENING <addr>` follows.
//!
//! Everything the server writes to disk or ships to replicas is binary
//! v3, and v3 is all it reads: a data directory holding a file a pre-v3
//! build wrote is refused by name, before anything in it is touched.

use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use streamlink_core::journal::FsyncPolicy;
use streamlink_core::{SketchConfig, SketchStore};

use crate::args::Flags;
use crate::server::{self, persistence, signals, ServerConfig, ServerState};

/// Every flag of the table above.
const FLAGS: &str = "addr http-addr data-dir snapshot slots seed fsync max-conns \
     idle-timeout-ms drain-secs snapshot-every-secs snapshot-every-edges \
     snapshot-keep metrics-log-secs slow-op-ms slow-op-log \
     slow-op-log-bytes events-log events-log-bytes audit-secs audit-pairs \
     replicate-from repl-id peers advertise lease-ms primary repl-buffer \
     repl-pull-batch repl-poll-ms repl-lag-slo";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    flags.only(FLAGS)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let config = ServerConfig {
        max_conns: flags.get_parsed_or("max-conns", 1024usize)?,
        idle_timeout: Duration::from_millis(flags.get_parsed_or("idle-timeout-ms", 30_000u64)?),
        drain_deadline: Duration::from_secs(flags.get_parsed_or("drain-secs", 5u64)?),
        snapshot_every: Duration::from_secs(flags.get_parsed_or("snapshot-every-secs", 30u64)?),
        snapshot_every_edges: flags.get_parsed_or("snapshot-every-edges", 50_000u64)?,
        snapshot_keep: flags
            .get_parsed_or("snapshot-keep", streamlink_core::DEFAULT_SNAPSHOT_KEEP)?,
        metrics_log_every: Duration::from_secs(flags.get_parsed_or("metrics-log-secs", 60u64)?),
        audit_interval: Duration::from_secs(flags.get_parsed_or("audit-secs", 30u64)?),
        audit_pairs: flags.get_parsed_or("audit-pairs", 64usize)?,
        repl_buffer: flags.get_parsed_or("repl-buffer", 65_536usize)?,
    };
    if config.max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    if config.snapshot_keep == 0 {
        return Err("--snapshot-keep must be positive".into());
    }
    if !config.audit_interval.is_zero() && config.audit_pairs == 0 {
        return Err("--audit-pairs must be positive while auditing is on".into());
    }

    // Slow-op settings are process-global (the trace ring is too).
    let slow_op_ms =
        flags.get_parsed_or("slow-op-ms", streamlink_core::trace::DEFAULT_SLOW_OP_MS)?;
    streamlink_core::trace::set_slow_op_threshold_ms(slow_op_ms);
    let slow_op_log_bytes = flags.get_parsed_or(
        "slow-op-log-bytes",
        streamlink_core::trace::DEFAULT_SLOW_OP_LOG_BYTES,
    )?;
    if slow_op_log_bytes == 0 {
        return Err("--slow-op-log-bytes must be positive".into());
    }
    let slow_op_log: Option<std::path::PathBuf> = match flags.get("slow-op-log") {
        Some(path) => Some(path.into()),
        None => flags
            .get("data-dir")
            .map(|dir| Path::new(dir).join("slowops.jsonl")),
    };
    // The cluster event journal follows the same defaulting: on by
    // default wherever there is a data dir to hold it.
    let events_log_bytes = flags.get_parsed_or(
        "events-log-bytes",
        streamlink_core::events::DEFAULT_EVENT_LOG_BYTES,
    )?;
    if events_log_bytes == 0 {
        return Err("--events-log-bytes must be positive".into());
    }
    let events_log: Option<std::path::PathBuf> = match flags.get("events-log") {
        Some(path) => Some(path.into()),
        None => flags
            .get("data-dir")
            .map(|dir| Path::new(dir).join("events.jsonl")),
    };
    // Installed after recovery, so a data dir recovery refuses is left
    // as it was, and before the cluster runtime exists: bootstrap and
    // config-change events are the journal's first records, so the sink
    // must be listening when they fire.
    let install_events_log = || -> Result<(), String> {
        let Some(path) = &events_log else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        streamlink_core::events::install_event_log(path, events_log_bytes)
            .map_err(|e| format!("cannot open events log {}: {e}", path.display()))?;
        eprintln!(
            "cluster event journal: {} (rotate past {events_log_bytes} bytes)",
            path.display()
        );
        Ok(())
    };
    let slots = flags.get_parsed_or("slots", 256usize)?;
    let seed = flags.get_parsed_or("seed", 0u64)?;
    if slots == 0 {
        return Err("--slots must be positive".into());
    }
    let sketch_config = SketchConfig::with_slots(slots).seed(seed);
    let fsync = match flags.get("fsync") {
        None => FsyncPolicy::OnRotate,
        Some(raw) => FsyncPolicy::parse(raw)
            .ok_or_else(|| format!("bad --fsync {raw:?}, expected always|interval|never"))?,
    };

    // Replica flags parse (and validate) regardless of role so typos
    // fail fast; the runtime only exists with --replicate-from.
    let repl_tuning = server::replication::ReplicaTuning {
        pull_batch: flags.get_parsed_or("repl-pull-batch", 4096usize)?,
        poll_interval: Duration::from_millis(flags.get_parsed_or("repl-poll-ms", 100u64)?),
        ..server::replication::ReplicaTuning::default()
    };
    if repl_tuning.pull_batch == 0 {
        return Err("--repl-pull-batch must be positive".into());
    }
    if repl_tuning.pull_batch > server::replication::MAX_PULL_BATCH {
        return Err(format!(
            "--repl-pull-batch must be at most {}",
            server::replication::MAX_PULL_BATCH
        ));
    }
    let repl_lag_slo = flags.get_parsed_or("repl-lag-slo", 100_000u64)?;
    if repl_lag_slo == 0 {
        return Err("--repl-lag-slo must be positive".into());
    }
    let repl_id = flags
        .get("repl-id")
        .map_or_else(|| format!("replica-{}", std::process::id()), str::to_string);

    // Every replica runs on the cluster runtime; which flag was given
    // decides whether it votes.
    let membership = match (flags.get("peers"), flags.get("replicate-from")) {
        (Some(_), Some(_)) => {
            return Err(
                "--peers (cluster mode) is mutually exclusive with --replicate-from \
                 (cluster nodes discover the primary through the lease protocol)"
                    .into(),
            )
        }
        (Some(peers_raw), None) => Some(voter(&flags, peers_raw, &addr, config.repl_buffer)?),
        (None, Some(primary)) => Some((
            repl_id,
            server::failover::Membership::Learner {
                primary: primary.to_string(),
            },
        )),
        (None, None) => None,
    };
    let state = if let Some((advertise, membership)) = membership {
        if flags.get("snapshot").is_some() {
            return Err(
                "--peers and --replicate-from are mutually exclusive with --snapshot \
                 (a replica's state is the primary's, pulled over the wire; use \
                 --data-dir for durability)"
                    .into(),
            );
        }
        let runtime = Arc::new(server::replication::ReplicaRuntime::new(
            advertise.clone(),
            repl_lag_slo,
            repl_tuning,
        ));
        let cluster_config = server::failover::ClusterConfig {
            advertise,
            membership,
        };
        let data_dir = flags.get("data-dir").map(Path::new);
        // A durable replica journals what it applies and resumes from
        // its own disk seq after a restart, unless recovery left a hole
        // below that seq. A fresh store's shape is provisional: the
        // handshake adopts the primary's slots/seed/backend while the
        // store is empty.
        let (store, persist, snapshot_seq, local_seq) = match data_dir {
            Some(dir) => {
                let (persist, recovery) =
                    persistence::open_with_faults(dir, sketch_config, fsync, None)
                        .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
                let (local_seq, install_due) = persistence::replica_resume(dir, &recovery)
                    .map_err(|e| format!("cannot write to data dir {}: {e}", dir.display()))?;
                eprintln!(
                    "replica recovered {} edges from {} (local WAL seq {local_seq})",
                    recovery.store.edges_processed(),
                    dir.display(),
                );
                if install_due {
                    eprintln!(
                        "replica store may lack seqs below {local_seq} (recovery healed \
                         around damage); installing the primary's snapshot before pulling"
                    );
                    runtime.require_install();
                }
                (
                    recovery.store,
                    Some(persist),
                    recovery.snapshot_seq,
                    local_seq,
                )
            }
            None => (SketchStore::new(sketch_config), None, 0, 0),
        };
        runtime.seed_applied(local_seq);
        install_events_log()?;
        let cluster = Arc::new(
            server::failover::ClusterRuntime::new(&cluster_config, data_dir, local_seq)
                .map_err(|e| format!("cannot persist cluster state: {e}"))?,
        );
        ServerState::with_cluster(store, persist, snapshot_seq, config, runtime, cluster)
    } else {
        let state = match (flags.get("data-dir"), flags.get("snapshot")) {
            (Some(_), Some(_)) => {
                return Err(
                    "--data-dir and --snapshot are mutually exclusive (a data dir carries \
                 its own snapshot)"
                        .into(),
                )
            }
            (Some(dir), None) => {
                let (persist, recovery) =
                    persistence::open_with_faults(Path::new(dir), sketch_config, fsync, None)
                        .map_err(|e| format!("cannot open data dir {dir}: {e}"))?;
                eprintln!(
                    "recovered {} edges from {dir} (snapshot seq {}, {} journal entr{} replayed{})",
                    recovery.store.edges_processed(),
                    recovery.snapshot_seq,
                    recovery.journal.replayed,
                    if recovery.journal.replayed == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                    if recovery.journal.torn_tail {
                        ", torn tail dropped"
                    } else {
                        ""
                    },
                );
                if recovery.fallbacks > 0 || recovery.journal.quarantined > 0 {
                    eprintln!(
                        "recovery healed around damage: {} snapshot generation(s) skipped, \
                     {} journal record(s) quarantined (see {dir}/quarantine/)",
                        recovery.fallbacks, recovery.journal.quarantined,
                    );
                }
                ServerState::with_persistence(
                    recovery.store,
                    persist,
                    recovery.snapshot_seq,
                    config,
                )
            }
            (None, Some(path)) => ServerState::in_memory(super::load_snapshot(path)?, config),
            (None, None) => ServerState::in_memory(SketchStore::new(sketch_config), config),
        };
        install_events_log()?;
        state
    };

    // Install the slow-op sink after the data dir exists (recovery
    // above creates it in durable mode).
    if slow_op_ms > 0 {
        if let Some(path) = &slow_op_log {
            streamlink_core::trace::install_slow_op_log(path, slow_op_log_bytes)
                .map_err(|e| format!("cannot open slow-op log {}: {e}", path.display()))?;
            eprintln!(
                "slow-op log: {} (threshold {slow_op_ms} ms, rotate past {slow_op_log_bytes} \
                 bytes)",
                path.display()
            );
        }
    }

    // Bind the optional HTTP exposition plane first so a bad
    // --http-addr fails fast, before the protocol port is taken.
    let http_listener = match flags.get("http-addr") {
        Some(http_addr) => Some(
            TcpListener::bind(http_addr)
                .map_err(|e| format!("cannot bind --http-addr {http_addr}: {e}"))?,
        ),
        None => None,
    };
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    signals::install();
    let local = listener.local_addr().map_or(addr, |a| a.to_string());
    println!("LISTENING {local}");
    if let Some(cluster) = state.cluster().filter(|c| c.is_learner()) {
        let primary = cluster.believed_primary().unwrap_or_default();
        println!("REPLICATING {primary}");
        eprintln!(
            "read replica (learner) of {primary}, id {}",
            cluster.advertise()
        );
    } else if let Some(cluster) = state.cluster() {
        println!(
            "CLUSTER role={} epoch={} peers={}",
            if cluster.is_primary() {
                "primary"
            } else {
                "replica"
            },
            cluster.epoch(),
            cluster.peers().len(),
        );
        eprintln!(
            "failover cluster member {} (lease {} ms, epoch {}); replicas answer \
             ERR readonly MOVED, a fenced primary answers ERR fenced",
            cluster.advertise(),
            cluster.lease_ms(),
            cluster.epoch(),
        );
    }
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving {} vertices on {local} (commands: JACCARD/CN/AA/RA/PA/COSINE/OVERLAP u v, \
         DEGREE u, INSERT u v, EXPLAIN m u v, STATS, METRICS, TRACE [n], HEALTH, QUIT)",
        state.read_store().vertex_count(),
    );
    let state = Arc::new(state);
    let http_thread = match http_listener {
        Some(l) => {
            let http_local = l
                .local_addr()
                .map_err(|e| format!("cannot resolve --http-addr: {e}"))?;
            println!("HTTP LISTENING {http_local}");
            let _ = std::io::stdout().flush();
            eprintln!(
                "scrape plane on http://{http_local} (/metrics /healthz /tracez /profilez /memz)"
            );
            Some(
                server::http::spawn(l, Arc::clone(&state))
                    .map_err(|e| format!("cannot start http listener: {e}"))?,
            )
        }
        None => None,
    };
    server::serve(listener, &state).map_err(|e| format!("server error: {e}"))?;
    if let Some(handle) = http_thread {
        let _ = handle.join();
    }
    eprintln!("shut down cleanly");
    Ok(())
}

/// Validates the `--peers` flags into a voter's `(advertise, membership)`.
fn voter(
    flags: &Flags,
    peers_raw: &str,
    addr: &str,
    repl_buffer: usize,
) -> Result<(String, server::failover::Membership), String> {
    if repl_buffer == 0 {
        return Err("cluster mode needs a ship ring; raise --repl-buffer above 0".into());
    }
    let peers: Vec<String> = peers_raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if peers.is_empty() {
        return Err("--peers needs at least one peer address".into());
    }
    let lease_ms = flags.get_parsed_or("lease-ms", 1_000u64)?;
    if lease_ms < 50 {
        return Err("--lease-ms must be at least 50".into());
    }
    let advertise = match flags.get("advertise") {
        Some(a) => a.to_string(),
        // Peers dial the advertised address; an OS-assigned port is
        // unknown to them, so it must be stated explicitly.
        None if addr.ends_with(":0") => {
            return Err("cluster mode with an ephemeral --addr port needs --advertise".into())
        }
        None => addr.to_string(),
    };
    if peers.contains(&advertise) {
        return Err(format!(
            "--peers must list the *other* members; {advertise} is this node"
        ));
    }
    let membership = server::failover::Membership::Voter {
        peers,
        lease: Duration::from_millis(lease_ms),
        bootstrap_primary: flags.get_parsed_or("primary", false)?,
    };
    Ok((advertise, membership))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::protocol::handle_command;
    use graphstream::VertexId;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Serves `store` in memory with default limits on a background
    /// thread, until the test process exits.
    fn spawn_in_memory(listener: TcpListener, store: SketchStore) {
        let state = Arc::new(ServerState::in_memory(store, ServerConfig::default()));
        std::thread::spawn(move || server::serve(listener, &state));
    }

    #[test]
    fn end_to_end_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut s = SketchStore::new(SketchConfig::with_slots(32).seed(2));
        for w in 100..120u64 {
            s.insert_edge(VertexId(7), VertexId(w));
            s.insert_edge(VertexId(8), VertexId(w));
        }
        spawn_in_memory(listener, s);

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut ask = |cmd: &str| -> String {
            writeln!(conn, "{cmd}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        assert_eq!(ask("PING"), "OK pong");
        assert_eq!(ask("JACCARD 7 8"), "OK 1.000000");
        assert_eq!(ask("INSERT 7 9000"), "OK inserted");
        assert_eq!(ask("DEGREE 9000"), "OK 1");
        assert_eq!(ask("QUIT"), "OK bye");
    }

    #[test]
    fn concurrent_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut s = SketchStore::new(SketchConfig::with_slots(16).seed(3));
        s.insert_edge(VertexId(1), VertexId(2));
        spawn_in_memory(listener, s);

        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    for i in 0..50u64 {
                        writeln!(conn, "INSERT {} {}", 1000 + t, 2000 + i).unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        assert_eq!(line.trim_end(), "OK inserted");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        writeln!(conn, "STATS").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(" edges=201 "), "{line}");
    }

    #[test]
    fn connection_cap_sheds_with_err_busy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(4));
        let state = Arc::new(ServerState::in_memory(
            store,
            ServerConfig {
                max_conns: 2,
                ..ServerConfig::default()
            },
        ));
        let st = Arc::clone(&state);
        std::thread::spawn(move || server::serve(listener, &st));

        // Fill both slots with live connections.
        let mut held = Vec::new();
        for _ in 0..2 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            writeln!(conn, "PING").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "OK pong");
            held.push((conn, reader));
        }
        // The third is shed before any command is read.
        let conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            line.trim_end(),
            "ERR busy retry: connection cap 2 reached, back off and reconnect"
        );
        state.request_shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_and_returns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(5));
        let state = Arc::new(ServerState::in_memory(store, ServerConfig::default()));
        let st = Arc::clone(&state);
        let server = std::thread::spawn(move || server::serve(listener, &st));

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        writeln!(conn, "INSERT 1 2").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK inserted");

        state.request_shutdown();
        server.join().unwrap().unwrap();
        assert_eq!(state.connections_active(), 0);
        assert_eq!(state.read_store().edges_processed(), 1);
    }

    #[test]
    fn blocking_accept_takes_connections_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(5));
        let state = Arc::new(ServerState::in_memory(store, ServerConfig::default()));
        let st = Arc::clone(&state);
        let server = std::thread::spawn(move || server::serve(listener, &st));
        // A polling acceptor leaves each connection waiting up to one
        // poll interval (25 ms), so 20 quick ones in a row would take it
        // thousands of tries. Three rounds absorb a scheduler hiccup on a
        // loaded host.
        let slowest_of_round = || {
            (0..20)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    writeln!(conn, "PING").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert_eq!(line.trim_end(), "OK pong");
                    start.elapsed()
                })
                .max()
                .unwrap()
        };
        let rounds: Vec<Duration> = (0..3).map(|_| slowest_of_round()).collect();
        assert!(
            rounds
                .iter()
                .any(|&slowest| slowest < Duration::from_millis(5)),
            "slowest connect + PING per round of 20: {rounds:?}"
        );
        state.request_shutdown();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_wakes_an_idle_acceptor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let store = SketchStore::new(SketchConfig::with_slots(16).seed(5));
        let state = Arc::new(ServerState::in_memory(store, ServerConfig::default()));
        let st = Arc::clone(&state);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = server::serve(listener, &st);
            let _ = done_tx.send(result.is_ok());
        });
        // No client ever connects: the acceptor sits in a blocking
        // accept, and only the wake-up connection can free it.
        std::thread::sleep(Duration::from_millis(50));
        state.request_shutdown();
        let returned = done_rx.recv_timeout(ServerConfig::default().drain_deadline);
        assert_eq!(
            returned,
            Ok(true),
            "serve must return within the drain deadline"
        );
        assert_eq!(state.connections_active(), 0);
    }

    #[test]
    fn in_memory_state_answers_protocol() {
        // The command surface itself is covered in server::protocol;
        // this pins the wiring the `serve` command relies on.
        let state = ServerState::in_memory(
            SketchStore::new(SketchConfig::with_slots(16).seed(6)),
            ServerConfig::default(),
        );
        assert_eq!(handle_command(&state, "INSERT 3 4"), "OK inserted");
        assert_eq!(handle_command(&state, "DEGREE 3"), "OK 1");
    }

    #[test]
    fn rejects_bad_flags() {
        let argv =
            |flags: &[&str]| -> Vec<String> { flags.iter().map(|s| s.to_string()).collect() };
        assert!(run(&argv(&["--slots", "0"])).is_err());
        assert!(run(&argv(&["--max-conns", "0"])).is_err());
        assert!(run(&argv(&["--snapshot-keep", "0"])).is_err());
        assert!(run(&argv(&["--fsync", "sometimes"])).is_err());
        assert!(run(&argv(&["--data-dir", "/tmp/x", "--snapshot", "/tmp/y"])).is_err());
        assert!(run(&argv(&["--idle-timeout-ms", "soon"])).is_err());
        assert!(run(&argv(&["--slow-op-ms", "fast"])).is_err());
        assert!(run(&argv(&["--slow-op-log-bytes", "0"])).is_err());
        assert!(run(&argv(&["--events-log-bytes", "0"])).is_err());
        assert!(run(&argv(&["--events-log-bytes", "soon"])).is_err());
        assert!(run(&argv(&["--audit-secs", "later"])).is_err());
        assert!(run(&argv(&["--audit-pairs", "0"])).is_err());
        assert!(run(&argv(&["--repl-pull-batch", "0"])).is_err());
        assert!(run(&argv(&["--repl-pull-batch", "65537"])).is_err());
        assert!(run(&argv(&["--repl-poll-ms", "soon"])).is_err());
        assert!(run(&argv(&["--repl-lag-slo", "0"])).is_err());
        assert!(run(&argv(&["--repl-buffer", "many"])).is_err());
        // (--replicate-from with --data-dir is now a *valid* durable
        // replica; only the snapshot combination stays refused.)
        assert!(run(&argv(&[
            "--replicate-from",
            "127.0.0.1:1",
            "--snapshot",
            "/tmp/y"
        ]))
        .is_err());
        // Cluster-mode flag validation.
        assert!(run(&argv(&[
            "--peers",
            "127.0.0.1:1",
            "--replicate-from",
            "127.0.0.1:2"
        ]))
        .is_err());
        assert!(run(&argv(&["--peers", "127.0.0.1:1", "--snapshot", "/tmp/y"])).is_err());
        assert!(run(&argv(&["--peers", " , ,"])).is_err());
        assert!(run(&argv(&["--peers", "127.0.0.1:1", "--lease-ms", "10"])).is_err());
        assert!(run(&argv(&["--peers", "127.0.0.1:1", "--primary", "maybe"])).is_err());
        assert!(run(&argv(&["--peers", "127.0.0.1:1", "--addr", "127.0.0.1:0"])).is_err());
        assert!(run(&argv(&[
            "--peers",
            "127.0.0.1:1",
            "--addr",
            "127.0.0.1:0",
            "--advertise",
            "127.0.0.1:1"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "--peers",
            "127.0.0.1:1",
            "--repl-buffer",
            "0",
            "--addr",
            "127.0.0.1:0",
            "--advertise",
            "127.0.0.1:9"
        ]))
        .is_err());
        // A malformed --http-addr fails at bind time, before the
        // protocol port is ever taken.
        assert!(run(&argv(&["--http-addr", "not-an-addr"])).is_err());
    }

    #[test]
    fn refuses_flags_outside_the_table_by_name() {
        let argv =
            |flags: &[&str]| -> Vec<String> { flags.iter().map(|s| s.to_string()).collect() };
        // The deleted snapshot-join period, and a typo of a real flag.
        for flag in ["repl-anti-entropy-secs", "snapshot-evry-edges"] {
            let err = run(&argv(&[&format!("--{flag}"), "30"])).unwrap_err();
            assert!(err.contains(&format!("--{flag}")), "{err}");
        }
        // Every flag the benchmark harness starts the server with
        // (`perfbench/src/serve.rs`, `server_args`) stays accepted.
        let harness = "--addr 127.0.0.1:0 --metrics-log-secs 0 --audit-secs 3600 --snapshot f \
             --data-dir d --slots 64 --seed 1 --snapshot-every-edges 1000000000 \
             --snapshot-every-secs 3600";
        let harness: Vec<String> = harness.split_whitespace().map(String::from).collect();
        assert_eq!(Flags::parse(&harness).unwrap().only(FLAGS), Ok(()));
    }

    #[test]
    fn flag_list_matches_the_documented_table() {
        let rows = include_str!("serve.rs")
            .lines()
            .filter(|l| l.starts_with("//! --"));
        let words = rows.flat_map(str::split_whitespace);
        let mut documented: Vec<&str> = words.filter_map(|w| w.strip_prefix("--")).collect();
        let mut listed: Vec<&str> = FLAGS.split_whitespace().collect();
        documented.sort_unstable();
        listed.sort_unstable();
        assert_eq!(documented, listed);
    }
}

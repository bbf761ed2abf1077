//! Fixtures shared by the server's unit tests: replica nodes built the
//! way `streamlink serve` builds them, and a scripted primary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use streamlink_core::SketchStore;

use super::failover::{ClusterConfig, ClusterRuntime, Membership};
use super::persistence::Persist;
use super::replication::{ReplicaRuntime, ReplicaTuning};
use super::{ServerConfig, ServerState};

/// A replica node: the cluster and replica runtimes `serve` pairs for
/// `membership`, over `store` and an optional data directory.
pub(crate) fn node(
    advertise: &str,
    membership: Membership,
    lag_slo: u64,
    store: SketchStore,
    persist: Option<Persist>,
) -> (ServerState, Arc<ReplicaRuntime>, Arc<ClusterRuntime>) {
    let dir = persist.as_ref().map(|p| p.dir.clone());
    let local_seq = persist
        .as_ref()
        .map_or(0, |p| p.journal.next_seq().saturating_sub(1));
    let runtime = Arc::new(ReplicaRuntime::new(
        advertise.into(),
        lag_slo,
        ReplicaTuning::default(),
    ));
    runtime.seed_applied(local_seq);
    let config = ClusterConfig {
        advertise: advertise.into(),
        membership,
    };
    let cluster = Arc::new(ClusterRuntime::new(&config, dir.as_deref(), local_seq).unwrap());
    let state = ServerState::with_cluster(
        store,
        persist,
        0,
        ServerConfig::default(),
        Arc::clone(&runtime),
        Arc::clone(&cluster),
    );
    (state, runtime, cluster)
}

/// An in-memory `--replicate-from primary --repl-id id` replica.
pub(crate) fn learner(
    primary: &str,
    id: &str,
    lag_slo: u64,
    store: SketchStore,
) -> (ServerState, Arc<ReplicaRuntime>, Arc<ClusterRuntime>) {
    let membership = Membership::Learner {
        primary: primary.into(),
    };
    node(id, membership, lag_slo, store, None)
}

/// A one-shot scripted primary: it answers the link's `HELLO v3` line
/// with `hello`, then each request line with the next frame, and
/// returns the request lines it read. It panics on a `REPL LEASE` or
/// `REPL HANDOFF` line, which no learner may send.
pub(crate) fn scripted(
    hello: &'static [u8],
    frames: Vec<Vec<u8>>,
) -> (String, thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let primary = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "HELLO v3\n");
        writer.write_all(hello).unwrap();
        let mut requests = Vec::new();
        for frame in frames {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let request = line.trim_end().to_string();
            assert!(
                !request.starts_with("REPL LEASE") && !request.starts_with("REPL HANDOFF"),
                "a learner sent {request:?}"
            );
            requests.push(request);
            writer.write_all(&frame).unwrap();
        }
        requests
    });
    (addr, primary)
}

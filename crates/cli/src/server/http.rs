//! The optional HTTP exposition plane behind `--http-addr`.
//!
//! A deliberately minimal std-only HTTP/1.1 listener — no framework, no
//! keep-alive, one response per connection — serving the observability
//! surfaces to standard scrapers:
//!
//! * `GET /metrics` — the full registry in Prometheus text exposition
//!   format 0.0.4 ([`MetricsSnapshot::render_prometheus`]).
//! * `GET /healthz` — liveness verdict: `200` when storage is healthy
//!   and the audit error gauges sit inside the accuracy envelope,
//!   `503` otherwise, with a JSON body explaining which leg failed.
//! * `GET /tracez[?n=N]` — the most recent `N` spans from the trace
//!   ring as `streamlink.trace.v1` JSON.
//! * `GET /profilez[?n=N]` — the most recent `N` spans merged into a
//!   call-tree profile (inclusive/exclusive time, counts, slowest
//!   spans) as `streamlink.profilez.v1` JSON.
//! * `GET /memz` — the live component memory breakdown as
//!   `streamlink.memz.v1` JSON (also refreshes the `mem.*` gauges).
//! * `GET /clusterz` — the single-pane cluster view: this node fans
//!   out `CLUSTER INFO` to every `--peers` member and answers one
//!   `streamlink.clusterz.v1` JSON snapshot — `200` when the members'
//!   beliefs agree, `503` when they diverge (two primaries, epoch
//!   skew, lag-SLO breach, unreachable members) so the endpoint can
//!   drive an alert directly. `503` with an `error` body outside
//!   cluster mode.
//!
//! ## Why a stuck scraper cannot stall ingest
//!
//! The plane runs on its own accept thread (the same blocking acceptor
//! as `serve`'s) with per-connection handler threads, capped at
//! [`MAX_SCRAPER_CONNS`] (extras are shed with a
//! `503`). Every socket gets a short read/write timeout and request
//! heads are bounded to [`MAX_REQUEST_BYTES`], so the worst a hostile
//! or wedged scraper can do is occupy a capped scraper slot for a
//! couple of seconds. The ingest plane shares nothing with this module
//! except the atomic metrics registry and short-lived store read locks.
//!
//! [`MetricsSnapshot::render_prometheus`]: streamlink_core::MetricsSnapshot::render_prometheus

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use streamlink_core::{trace, AccuracyPlan};

use super::ServerState;

/// Maximum simultaneous scraper connections; extras get an immediate
/// `503` and a `Retry-After` hint.
pub const MAX_SCRAPER_CONNS: usize = 8;

/// Per-socket read/write timeout: a scraper that cannot send a request
/// line or drain a response this fast forfeits its slot.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on the request head (request line + headers) in bytes.
pub const MAX_REQUEST_BYTES: usize = 8192;

/// Default span count for `/tracez` without an `n` parameter.
const DEFAULT_TRACEZ_SPANS: usize = 64;

/// Content type for the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One routed HTTP response, independent of the socket that carries it.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code (200, 400, 404, 405, 503).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (already rendered).
    pub body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Starts the exposition plane on an already-bound listener. Returns
/// the accept thread's handle; the thread exits once shutdown is
/// requested ([`ServerState::request_shutdown`] wakes it at once).
///
/// It runs the same blocking acceptor as `serve`, so a scrape is taken
/// the moment it connects.
///
/// # Errors
/// Fails if the listener cannot be switched to blocking mode or its
/// address read, or the accept thread cannot be spawned.
pub fn spawn(listener: TcpListener, state: Arc<ServerState>) -> io::Result<JoinHandle<()>> {
    state.listen(&listener)?;
    thread::Builder::new()
        .name("http".into())
        .spawn(move || super::accept_loop(&listener, &state, super::Plane::Http))
}

/// Sheds a connection over the scraper cap: counted as a served (error)
/// request so the cap itself is observable.
pub(super) fn shed(stream: TcpStream) {
    let m = streamlink_core::metrics::global();
    m.http_requests.incr();
    m.http_errors.incr();
    m.sheds_http_cap.incr();
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = "{\"error\":\"scraper connection cap reached\"}";
    let _ = write!(
        stream,
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
}

/// Serves exactly one request on `stream`: read a bounded head, route,
/// respond, close. Every outcome is counted and timed.
pub(super) fn handle_connection(stream: TcpStream, state: &ServerState) {
    let m = streamlink_core::metrics::global();
    let start = Instant::now();
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        m.http_requests.incr();
        m.http_errors.incr();
        return;
    }
    let response = match read_request_head(&mut stream) {
        Some(head) => match parse_request_line(&head) {
            Some((method, target)) => respond(state, method, target),
            None => Response::json(400, "{\"error\":\"malformed request line\"}".into()),
        },
        None => Response::json(
            400,
            "{\"error\":\"incomplete or oversized request\"}".into(),
        ),
    };
    m.http_requests.incr();
    if response.status != 200 {
        m.http_errors.incr();
    }
    let _ = write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
        response.body
    );
    let _ = stream.flush();
    m.http_request_latency.observe(start);
}

/// Reads until the end of the request head (blank line), an EOF, a
/// timeout, or the [`MAX_REQUEST_BYTES`] bound. Returns `None` unless a
/// complete head arrived within bounds.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    return Some(String::from_utf8_lossy(&buf).into_owned());
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None, // timeout or reset: forfeit the slot
        }
    }
}

/// Extracts `(method, target)` from the request line, requiring an
/// `HTTP/1.x` version tag.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

/// Routes one parsed request to its endpoint. Public so tests can
/// exercise routing without sockets.
#[must_use]
pub fn respond(state: &ServerState, method: &str, target: &str) -> Response {
    if method != "GET" {
        return Response::json(
            405,
            format!(
                "{{\"error\":\"method {} not allowed\"}}",
                json_safe(method, 16)
            ),
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            state.refresh_observable_gauges();
            let mut body = streamlink_core::metrics::global()
                .snapshot()
                .render_prometheus();
            append_labeled_gauges(state, &mut body);
            Response {
                status: 200,
                content_type: PROMETHEUS_CONTENT_TYPE,
                body,
            }
        }
        "/healthz" => healthz(state),
        "/clusterz" => clusterz(state),
        "/tracez" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n=").and_then(|v| v.parse().ok()))
                })
                .unwrap_or(DEFAULT_TRACEZ_SPANS)
                .clamp(1, trace::RING_CAPACITY);
            Response::json(200, trace::render_trace_json(n))
        }
        "/profilez" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n=").and_then(|v| v.parse().ok()))
                })
                .unwrap_or(trace::RING_CAPACITY)
                .clamp(1, trace::RING_CAPACITY);
            Response::json(200, trace::render_profilez_json(n))
        }
        "/memz" => {
            let report = state.memory_report();
            report.publish();
            Response::json(200, report.render_json())
        }
        _ => Response::json(
            404,
            format!("{{\"error\":\"no such path {}\"}}", json_safe(path, 64)),
        ),
    }
}

/// Client-controlled text echoed into a JSON error body: keep only
/// printable ASCII that cannot terminate a JSON string, and bound the
/// length so an absurd request line cannot inflate the response.
fn json_safe(raw: &str, max: usize) -> String {
    raw.chars()
        .filter(|c| c.is_ascii_graphic() && *c != '"' && *c != '\\')
        .take(max)
        .collect()
}

/// Appends the dynamically-labeled gauges the static registry cannot
/// hold to the Prometheus body: one `streamlink_repl_peer_*` series
/// per checked-in replica, plus the `streamlink_repl_believed_primary_info`
/// info-style gauge whose label carries the MOVED hint this node would
/// answer — so a dashboard can show "who does each node think is
/// primary" without parsing the TCP protocol.
fn append_labeled_gauges(state: &ServerState, body: &mut String) {
    use std::fmt::Write as _;
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    // The Prometheus "info metric" convention: a constant-1 gauge whose
    // labels carry the build identity, joinable onto any other series.
    let _ = writeln!(body, "# TYPE streamlink_build_info gauge");
    let _ = writeln!(
        body,
        "streamlink_build_info{{version=\"{}\"}} 1",
        json_safe(crate::build_version(), 64)
    );
    if let Some(repl) = state.primary_repl() {
        let peers = repl.peer_overview();
        if !peers.is_empty() {
            let _ = writeln!(body, "# TYPE streamlink_repl_peer_lag_seq gauge");
            for p in &peers {
                let _ = writeln!(
                    body,
                    "streamlink_repl_peer_lag_seq{{peer=\"{}\"}} {}",
                    json_safe(&p.id, 64),
                    p.lag_seq
                );
            }
            let _ = writeln!(body, "# TYPE streamlink_repl_peer_last_seen_ms gauge");
            for p in &peers {
                let _ = writeln!(
                    body,
                    "streamlink_repl_peer_last_seen_ms{{peer=\"{}\"}} {}",
                    json_safe(&p.id, 64),
                    p.last_seen_ms
                );
            }
            let _ = writeln!(body, "# TYPE streamlink_repl_peer_state gauge");
            for p in &peers {
                let _ = writeln!(
                    body,
                    "streamlink_repl_peer_state{{peer=\"{}\"}} {}",
                    json_safe(&p.id, 64),
                    u64::from(p.live)
                );
            }
        }
    }
    if let Some(primary) = state.cluster().and_then(|c| c.believed_primary()) {
        let _ = writeln!(body, "# TYPE streamlink_repl_believed_primary_info gauge");
        let _ = writeln!(
            body,
            "streamlink_repl_believed_primary_info{{primary=\"{}\"}} 1",
            json_safe(&primary, 64)
        );
    }
}

/// The `/clusterz` verdict: the whole-cluster snapshot from this
/// node's vantage point. Divergence (or an unreachable member) answers
/// `503` so the endpoint doubles as an alert probe; a server without
/// `--peers` has no cluster plane to describe.
fn clusterz(state: &ServerState) -> Response {
    match super::failover::clusterz_json(state) {
        Some((json, divergent)) => Response::json(if divergent { 503 } else { 200 }, json),
        None => Response::json(
            503,
            "{\"error\":\"not clustered: start with --peers to enable the cluster plane\"}".into(),
        ),
    }
}

/// The `/healthz` verdict: `200` iff storage is healthy, the rolling
/// audit Jaccard MAE sits inside twice the offline Hoeffding envelope
/// for the deployed `k` (the OPERATIONS.md §9 alert rule), *and* — on a
/// read replica — *durable* replication lag (`primary_seq -
/// persisted_seq`) sits inside the `--repl-lag-slo` budget (the §11
/// alert rule; an in-memory replica's persisted seq tracks its applied
/// seq, so the check degrades gracefully). Legs with nothing to report
/// pass vacuously. In cluster mode the body also carries a `failover`
/// object (epoch, role, writable, believed primary) so one scrape
/// answers "who is the primary right now" — informational only, the
/// verdict does not depend on it.
fn healthz(state: &ServerState) -> Response {
    let storage_ok = !state.storage_degraded();
    let k = state.read_store().config().slots();
    let envelope = 2.0 * AccuracyPlan::error_bound(k, 0.01);
    let audit = state.audit_snapshot();
    let (audit_ok, audit_json) = match &audit {
        Some(snap) => {
            let scored = snap.cycles > 0 && snap.pairs_evaluated > 0;
            let ok = !scored || snap.jaccard_mae <= envelope;
            (
                ok,
                format!(
                    "{{\"cycles\":{},\"pairs\":{},\"tracked\":{},\"jaccard_mae\":{:.6},\
                     \"envelope\":{envelope:.6}}}",
                    snap.cycles, snap.pairs_evaluated, snap.tracked, snap.jaccard_mae
                ),
            )
        }
        None => (true, "null".to_string()),
    };
    // A cluster node carries a replica runtime in both roles; route on
    // the *current* role, not on which structs exist.
    let replica = state.replica_runtime().filter(|_| state.is_replica());
    let (repl_ok, repl_json) = if let Some(runtime) = replica {
        let primary = super::replication::primary_hint(state);
        (
            !runtime.lag_exceeds_slo(),
            format!(
                "{{\"role\":\"replica\",\"primary\":\"{primary}\",\"connected\":{},\
                 \"applied_seq\":{},\"persisted_seq\":{},\"primary_seq\":{},\
                 \"lag_edges\":{},\"durable_lag_edges\":{},\"lag_slo\":{}}}",
                runtime.connected(),
                runtime.applied_seq(),
                runtime.persisted_seq(),
                runtime.primary_seq(),
                runtime.lag(),
                runtime.durable_lag(),
                runtime.lag_slo,
            ),
        )
    } else {
        match state.primary_repl() {
            Some(repl) => {
                // A primary's own health does not depend on its replicas —
                // lag is surfaced for alerting, never flips this endpoint.
                let (connected, max_lag) = repl.lag_overview();
                // The believed-primary field mirrors the MOVED hint the
                // TCP plane answers; on a healthy primary that is its
                // own advertise address.
                let believed = state
                    .cluster()
                    .and_then(|c| c.believed_primary())
                    .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
                (
                    true,
                    format!(
                        "{{\"role\":\"primary\",\"believed_primary\":{believed},\
                         \"replicas_connected\":{connected},\
                         \"max_lag_edges\":{max_lag}}}"
                    ),
                )
            }
            None => (true, "null".to_string()),
        }
    };
    let failover_json =
        match state.cluster() {
            Some(cluster) => {
                format!(
            "{{\"epoch\":{},\"role\":\"{}\",\"writable\":{},\"lease_ms\":{},\"primary\":{}}}",
            cluster.epoch(),
            if cluster.is_primary() { "primary" } else { "replica" },
            cluster.writable_now(),
            cluster.lease_ms(),
            cluster
                .believed_primary()
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
        )
            }
            None => "null".to_string(),
        };
    let healthy = storage_ok && audit_ok && repl_ok;
    let body = format!(
        "{{\"schema\":\"streamlink.healthz.v1\",\"status\":\"{}\",\"version\":\"{}\",\
         \"storage_ok\":{storage_ok},\
         \"audit_ok\":{audit_ok},\"repl_ok\":{repl_ok},\"uptime_secs\":{},\"audit\":{audit_json},\
         \"replication\":{repl_json},\"failover\":{failover_json}}}",
        if healthy { "ok" } else { "degraded" },
        json_safe(crate::build_version(), 64),
        state.uptime_secs()
    );
    Response::json(if healthy { 200 } else { 503 }, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::failover::Membership;
    use crate::server::testkit;
    use crate::server::ServerConfig;
    use streamlink_core::{SketchConfig, SketchStore};

    /// A bootstrapped voting primary whose `peers` are never contacted.
    fn bootstrap_primary(advertise: &str, peers: &[&str]) -> ServerState {
        let membership = Membership::Voter {
            peers: peers.iter().map(|p| (*p).to_string()).collect(),
            lease: std::time::Duration::from_millis(200),
            bootstrap_primary: true,
        };
        let store = SketchStore::new(SketchConfig::with_slots(64).seed(3));
        testkit::node(advertise, membership, 100_000, store, None).0
    }

    fn state() -> ServerState {
        let store = SketchStore::new(SketchConfig::with_slots(64).seed(3));
        ServerState::in_memory(store, ServerConfig::default())
    }

    #[test]
    fn blocking_accept_answers_healthz_at_once_and_stops_on_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new(state());
        let plane = spawn(listener, Arc::clone(&state)).unwrap();
        // A polling acceptor leaves each connection waiting up to one
        // poll interval (25 ms). Three rounds absorb a scheduler hiccup
        // on a loaded host.
        let slowest_of_round = || {
            (0..20)
                .map(|_| {
                    let start = Instant::now();
                    let mut conn = TcpStream::connect(addr).unwrap();
                    write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                    let mut reply = String::new();
                    conn.read_to_string(&mut reply).unwrap();
                    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
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
            "slowest GET /healthz per round of 20: {rounds:?}"
        );
        let stop = Instant::now();
        state.request_shutdown();
        plane.join().unwrap();
        assert!(
            stop.elapsed() < Duration::from_secs(1),
            "the plane took {:?} to stop",
            stop.elapsed()
        );
    }

    #[test]
    fn request_line_parsing_accepts_http1_gets_only() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("POST /metrics HTTP/1.0\r\n\r\n"),
            Some(("POST", "/metrics"))
        );
        assert_eq!(parse_request_line("GET /metrics\r\n\r\n"), None);
        assert_eq!(parse_request_line("GET /metrics HTTP/2\r\n\r\n"), None);
        assert_eq!(parse_request_line("GET /a b HTTP/1.1\r\n\r\n"), None);
        assert_eq!(parse_request_line(""), None);
    }

    #[test]
    fn metrics_route_renders_prometheus() {
        let s = state();
        let r = respond(&s, "GET", "/metrics");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, PROMETHEUS_CONTENT_TYPE);
        assert!(r
            .body
            .contains("# TYPE streamlink_core_insert_edges_total counter"));
        assert!(r.body.contains("streamlink_mem_total_bytes"));
        assert!(r.body.contains(&format!(
            "streamlink_build_info{{version=\"{}\"}} 1",
            crate::build_version()
        )));
    }

    #[test]
    fn healthz_is_ok_on_a_fresh_in_memory_server() {
        let s = state();
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"status\":\"ok\""));
        assert!(r
            .body
            .contains(&format!("\"version\":\"{}\"", crate::build_version())));
        assert!(r.body.contains("\"storage_ok\":true"));
    }

    #[test]
    fn tracez_clamps_and_parses_span_count() {
        let s = state();
        for target in ["/tracez", "/tracez?n=5", "/tracez?n=0", "/tracez?n=junk"] {
            let r = respond(&s, "GET", target);
            assert_eq!(r.status, 200, "{target}");
            assert!(r.body.starts_with("{\"schema\":\"streamlink.trace.v1\""));
        }
    }

    #[test]
    fn profilez_clamps_and_parses_span_count() {
        let s = state();
        drop(trace::op("profilez.test"));
        for target in [
            "/profilez",
            "/profilez?n=5",
            "/profilez?n=0",
            "/profilez?n=junk",
        ] {
            let r = respond(&s, "GET", target);
            assert_eq!(r.status, 200, "{target}");
            assert!(r.body.starts_with("{\"schema\":\"streamlink.profilez.v1\""));
            let profile = trace::Profile::parse_json(&r.body).expect("parseable profile");
            for node in &profile.nodes {
                assert!(node.exclusive_ns <= node.inclusive_ns, "{}", node.op);
            }
        }
    }

    #[test]
    fn memz_reports_all_components() {
        let s = state();
        let r = respond(&s, "GET", "/memz");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("{\"schema\":\"streamlink.memz.v1\""));
        for name in ["store.sketch_slots", "trace.ring", "journal.write_buffer"] {
            assert!(r.body.contains(name), "missing component {name}");
        }
    }

    #[test]
    fn healthz_flips_503_when_replica_lag_exceeds_the_slo() {
        let store = SketchStore::new(SketchConfig::with_slots(64).seed(3));
        let (s, runtime, _) = testkit::learner("127.0.0.1:9", "lag-test", 1_000, store);

        // Caught up: healthy, and the replication leg is reported.
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"repl_ok\":true"), "{}", r.body);
        assert!(r.body.contains("\"role\":\"replica\""), "{}", r.body);

        // The primary runs ahead of what we've applied by more than the
        // SLO: degraded.
        runtime.note_primary_seq(1_001);
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("\"status\":\"degraded\""), "{}", r.body);
        assert!(r.body.contains("\"repl_ok\":false"), "{}", r.body);
        assert!(r.body.contains("\"lag_edges\":1001"), "{}", r.body);
        // The durable watermark rides along: the SLO verdict is driven
        // by persisted_seq, not just applied_seq.
        assert!(r.body.contains("\"persisted_seq\":0"), "{}", r.body);
        assert!(r.body.contains("\"durable_lag_edges\":1001"), "{}", r.body);
    }

    #[test]
    fn healthz_slo_uses_the_durable_watermark_not_the_applied_one() {
        let store = SketchStore::new(SketchConfig::with_slots(64).seed(3));
        let (s, runtime, _) = testkit::learner("127.0.0.1:9", "durable-lag-test", 1_000, store);
        // Everything applied AND persisted up to the primary's seq:
        // healthy even at a high watermark.
        runtime.seed_applied(2_000);
        runtime.note_primary_seq(2_000);
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200, "{}", r.body);
        // Applied keeps up but the journal stalls: the durable lag
        // blows the SLO even though lag_edges stays 0.
        runtime.set_persisted(500);
        runtime.note_primary_seq(2_000);
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("\"lag_edges\":0"), "{}", r.body);
        assert!(r.body.contains("\"durable_lag_edges\":1500"), "{}", r.body);
    }

    #[test]
    fn healthz_reports_the_failover_leg_in_cluster_mode() {
        let s = bootstrap_primary("127.0.0.1:7101", &["127.0.0.1:7102"]);
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"failover\":{\"epoch\":1"), "{}", r.body);
        assert!(r.body.contains("\"role\":\"primary\""), "{}", r.body);
        assert!(r.body.contains("\"writable\":true"), "{}", r.body);
        assert!(
            r.body.contains("\"primary\":\"127.0.0.1:7101\""),
            "{}",
            r.body
        );
        // Non-clustered servers report the leg as null.
        let plain = state();
        let r = respond(&plain, "GET", "/healthz");
        assert!(r.body.contains("\"failover\":null"), "{}", r.body);
    }

    #[test]
    fn healthz_reports_the_primary_replication_leg_without_flipping() {
        // A primary with lagging replicas stays 200 — replica lag is an
        // alerting signal, not a primary liveness failure.
        let s = state();
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"role\":\"primary\""), "{}", r.body);
        assert!(r.body.contains("\"repl_ok\":true"), "{}", r.body);
    }

    #[test]
    fn clusterz_is_503_with_an_error_outside_cluster_mode() {
        let s = state();
        let r = respond(&s, "GET", "/clusterz");
        assert_eq!(r.status, 503);
        assert!(r.body.contains("not clustered"), "{}", r.body);
    }

    #[test]
    fn clusterz_answers_503_and_flags_when_members_diverge() {
        // A bootstrapped primary whose two peers are dead sockets: the
        // snapshot must come back divergent with both members flagged
        // unreachable, and the endpoint must turn that into a 503.
        let s = bootstrap_primary("127.0.0.1:7111", &["127.0.0.1:1", "127.0.0.1:2"]);
        let r = respond(&s, "GET", "/clusterz");
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(
            r.body.starts_with("{\"schema\":\"streamlink.clusterz.v1\""),
            "{}",
            r.body
        );
        assert!(r.body.contains("\"divergent\":true"), "{}", r.body);
        assert!(r.body.contains("unreachable-members"), "{}", r.body);
        // The believed-primary info gauge rides the Prometheus surface.
        let m = respond(&s, "GET", "/metrics");
        assert!(
            m.body
                .contains("streamlink_repl_believed_primary_info{primary=\"127.0.0.1:7111\"} 1"),
            "{}",
            m.body.lines().rev().take(8).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn metrics_exposes_per_peer_series_once_replicas_check_in() {
        let mut store = SketchStore::new(SketchConfig::with_slots(64).seed(3));
        for v in 0..10u64 {
            store.insert_edge(graphstream::VertexId(v), graphstream::VertexId(v + 100));
        }
        let s = ServerState::in_memory(store, ServerConfig::default());
        let repl = s.primary_repl().expect("primary has a ship ring");
        repl.note_peer("gamma", 4);
        let r = respond(&s, "GET", "/metrics");
        assert!(
            r.body.contains("# TYPE streamlink_repl_peer_lag_seq gauge"),
            "missing TYPE header"
        );
        assert!(
            r.body
                .contains("streamlink_repl_peer_lag_seq{peer=\"gamma\"} 6"),
            "{}",
            r.body.lines().rev().take(12).collect::<Vec<_>>().join("\n")
        );
        assert!(r
            .body
            .contains("streamlink_repl_peer_state{peer=\"gamma\"} 1"));
        assert!(r
            .body
            .contains("streamlink_repl_peer_last_seen_ms{peer=\"gamma\"}"));
    }

    #[test]
    fn healthz_primary_leg_reports_the_believed_primary_in_cluster_mode() {
        let s = bootstrap_primary("127.0.0.1:7112", &["127.0.0.1:1"]);
        let r = respond(&s, "GET", "/healthz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.body.contains("\"believed_primary\":\"127.0.0.1:7112\""),
            "{}",
            r.body
        );
        // Outside cluster mode the field is null, not absent.
        let plain = state();
        let r = respond(&plain, "GET", "/healthz");
        assert!(r.body.contains("\"believed_primary\":null"), "{}", r.body);
    }

    #[test]
    fn unknown_paths_and_methods_are_errors() {
        let s = state();
        assert_eq!(respond(&s, "GET", "/nope").status, 404);
        assert_eq!(respond(&s, "POST", "/metrics").status, 405);
        assert_eq!(respond(&s, "DELETE", "/healthz").status, 405);
    }
}

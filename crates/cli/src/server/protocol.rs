//! The text protocol: one command in, one response line out.
//!
//! ```text
//! JACCARD u v | CN u v | AA u v | RA u v | PA u v | COSINE u v | OVERLAP u v
//!     -> OK <float>        measure estimate
//!     -> OK unseen         either endpoint never appeared
//! DEGREE u                 -> OK <int>
//! EXPLAIN <JACCARD|OVERLAP|DEGREE> u v
//!     -> OK measure=<m> u=<u> v=<v> estimate=<f> k=<k> fill_u=<n>
//!           fill_v=<n> epsilon95=<f> interval_low=<f> interval_high=<f>
//!           audit_u=<0|1> audit_v=<0|1> [...]   (one line; the estimate
//!           plus its 95%-confidence machinery — see docs/THEORY.md)
//!     -> OK unseen         either endpoint never appeared
//! INSERT u v               -> OK inserted          (journaled first when
//!                                                   a data dir is set)
//! STATS                    -> OK vertices=<n> edges=<m> memory=<bytes>
//!                                uptime_secs=<s> connections_active=<c>
//!                                journal_lag_edges=<l> shed_total=<n>
//!                                snapshot_generations=<k>
//!                                replay_quarantined=<q>
//!                                scrub_last_exit=<code>
//!                                process_uptime_secs=<s>
//!                                process_as_of_unix_ms=<ms>   (one line)
//! METRICS                  -> one key=value line per exported metric,
//!                             terminated by `OK <n> metrics`
//! TRACE [N]                -> newest N (default 16) completed trace
//!                             spans, one line each, terminated by
//!                             `OK <n> spans`
//! PROFILE [N]              -> one `streamlink.profilez.v1` JSON line:
//!                             the newest N (default: whole ring) spans
//!                             merged into a call-tree with
//!                             inclusive/exclusive time and the top-k
//!                             slowest ops, terminated by `OK <n> nodes`
//! HEALTH                   -> OK audit_cycles=<n> audit_pairs=<n>
//!                                tracked_vertices=<n> jaccard_mae=<f>
//!                                cn_rel_err_p95=<f> aa_mae=<f>
//!                                slow_ops=<n> spans_recorded=<n>
//!                                slow_op_threshold_ms=<n>
//!                                uptime_secs=<s>   (one line)
//! REPL HELLO <id>          -> OK repl hello primary_seq=<s> slots=<k>
//!                                seed=<s> backend=<b>   (handshake)
//! REPL PULL <id> <after> <n>
//!                          -> (framed connections only) one `WAL_BATCH`
//!                             envelope of up to n entries with
//!                             seq > after; or `ERR resync` when the
//!                             range was shed
//! REPL SNAPSHOT            -> (framed connections only) one
//!                             `SNAPSHOT_FRAME` envelope: seq + the v3
//!                             store-snapshot body
//! REPL STATUS              -> one-line role/lag summary (either role)
//! REPL LEASE <id> <epoch> <applied_seq>
//!                          -> OK lease epoch=<e> primary_seq=<s>
//!                             tl=<timeline> | ERR fenced epoch=<e> |
//!                             ERR not-primary epoch=<e>  (cluster mode)
//! REPL VOTE <cand> <epoch> <seq>
//!                          -> OK vote granted epoch=<e> |
//!                             ERR vote denied epoch=<e>  (cluster mode)
//! REPL HANDOFF <old_epoch> F <seq> <u> <v> <crc>
//!                          -> OK handoff accepted seq=<s> | OK handoff
//!                             dup seq=<s> | ERR handoff gap expected=<s>
//! PROMOTE                  -> OK promoted epoch=<e>  (forced primary;
//!                             cluster mode only)
//! DEMOTE                   -> OK demoted epoch=<e>   (step down;
//!                             cluster mode only)
//! CLUSTER INFO             -> OK cluster node=<a> role=<r> epoch=<e>
//!                             data_epoch=<d> applied_seq=<n>
//!                             persisted_seq=<n> lag=<n> lag_slo=<n>
//!                             writable=<0|1> believed=<addr|?>
//!                             healthy=<0|1>   (this node's own belief)
//! CLUSTER STATUS           -> one `streamlink.clusterz.v1` JSON line:
//!                             the whole cluster as seen from here —
//!                             fans out CLUSTER INFO to every --peers
//!                             member and flags belief divergence
//!                             (two primaries, epoch skew, lag breach)
//! HELLO [v2|v3]            -> OK fmt=v2 | OK fmt=v3; `HELLO v3`
//!                             switches this connection's *responses*
//!                             to length-prefixed binary envelopes
//!                             (requests stay text lines) — see below
//! PING                     -> OK pong
//! QUIT                     -> OK bye (closes the connection)
//! anything else            -> ERR <reason>
//! ```
//!
//! ## Binary response mode (wire format v3)
//!
//! `HELLO v3` is answered with a plain `OK fmt=v3` text line; from the
//! next command on, every response is one self-delimiting
//! [`streamlink_core::codec`] envelope: a `TEXT_FRAME` carrying the
//! usual response text, except `REPL PULL`, whose batch ships as a
//! single `WAL_BATCH` record (CRC-covered, seqs delta-encoded), and
//! `REPL SNAPSHOT`, which ships as one `SNAPSHOT_FRAME` record. Those
//! two have no text rendering and answer `ERR` on an unframed
//! connection. Because frames are length-prefixed, clients can pipeline
//! requests freely — multi-line responses like `METRICS` arrive as one
//! frame instead of a parse-until-`OK` stream. The switch is
//! per-connection and one-way; `HELLO` inside binary mode just
//! re-reports `OK fmt=v3`.
//!
//! ## Numeric argument hardening
//!
//! Every numeric protocol argument goes through one checked parser
//! (`parse_bounded`): ASCII digits only (no sign, no leading zeros,
//! no whitespace), overflow-checked, and bounds-checked against the
//! argument's documented range. Violations answer a uniform
//! `ERR bad-arg <name>: expected integer in <range>, got <raw>` line.
//!
//! On a read replica (`--replicate-from` or a non-primary cluster
//! node), `INSERT` and the serving `REPL` subcommands answer
//! `ERR readonly MOVED <addr> ...` — the fourth whitespace-separated
//! token is the primary's address, machine-parseable so clients can
//! follow the redirect; reads, `STATS`/`METRICS`/`HEALTH`, and
//! `REPL STATUS` keep serving. A cluster primary that lost its
//! majority lease answers `ERR fenced epoch=<e>` instead — see
//! [`super::failover`].
//!
//! Command words are case-insensitive, and leading/trailing whitespace —
//! including the `\r` a telnet/netcat client leaves on every line — is
//! ignored. Vertex-id and measure parsing stays strict. Every malformed
//! input maps to an `ERR` line — nothing a client sends can panic a
//! connection thread.
//!
//! `METRICS` is the complete counterpart of the one-line `STATS`: every
//! counter, gauge, and latency-histogram percentile in the global
//! [`streamlink_core::metrics`] registry, one `key=value` per line (see
//! `docs/OPERATIONS.md` §8 for the key catalogue). Clients read until
//! the `OK` line.
//!
//! `TRACE` and `HEALTH` surface the [`streamlink_core::trace`] ring and
//! the [`streamlink_core::audit`] rolling error state (§9): `TRACE`
//! answers "where did recent requests spend their time", `HEALTH`
//! answers "are the sketches still inside their error envelope". Both
//! follow the same CRLF/case tolerance as every other command.
//!
//! `EXPLAIN` turns the accuracy guarantee into a per-query answer: the
//! estimate, the slot evidence behind it (`k`, matches, slot fill), the
//! Hoeffding ε at 95% confidence, the Wilson interval implied by the
//! observed matches, and whether the online audit's shadow sample
//! covers either endpoint (`audit_u`/`audit_v`).

use std::io::{self, Write};
use std::time::Instant;

use graphstream::VertexId;
use linkpred::Measure;
use streamlink_core::{codec, metrics, trace};

use super::ServerState;

/// Parses one numeric protocol argument with explicit bounds: ASCII
/// digits only (no sign, no leading zeros beyond a lone `0`), checked
/// against `min..=max`. Every numeric argument in the protocol goes
/// through here so malformed input always earns the same
/// `bad-arg <name>` wording.
pub(super) fn parse_bounded(name: &str, raw: &str, min: u64, max: u64) -> Result<u64, String> {
    let bad = || format!("bad-arg {name}: expected integer in {min}..={max}, got {raw:?}");
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    if raw.len() > 1 && raw.starts_with('0') {
        return Err(bad());
    }
    let value: u64 = raw.parse().map_err(|_| bad())?;
    if value < min || value > max {
        return Err(bad());
    }
    Ok(value)
}

/// Every command word with its span name, matched case-insensitively
/// without allocating, so a request's command word is classified once.
const COMMANDS: [(&str, &str); 22] = [
    ("INSERT", "cmd.insert"),
    ("JACCARD", "cmd.query"),
    ("CN", "cmd.query"),
    ("AA", "cmd.query"),
    ("RA", "cmd.query"),
    ("PA", "cmd.query"),
    ("COSINE", "cmd.query"),
    ("OVERLAP", "cmd.query"),
    ("DEGREE", "cmd.degree"),
    ("EXPLAIN", "cmd.explain"),
    ("STATS", "cmd.stats"),
    ("METRICS", "cmd.metrics"),
    ("TRACE", "cmd.trace"),
    ("PROFILE", "cmd.profile"),
    ("HEALTH", "cmd.health"),
    ("REPL", "cmd.repl"),
    ("CLUSTER", "cmd.cluster"),
    ("PROMOTE", "cmd.failover"),
    ("DEMOTE", "cmd.failover"),
    ("HELLO", "cmd.hello"),
    ("PING", "cmd.ping"),
    ("QUIT", "cmd.quit"),
];

/// Times one command as a `cmd.*` op opened at `arrival`. Classifying
/// the command word (its canonical spelling, `""` if unknown) is the
/// parse phase, span child `serve.parse`; `run` and the command
/// counters are the execute phase, the op's own time. `run` returns the
/// reply and whether it is an error. The op is returned still open, so
/// [`serve`] can lap the respond phase before it closes.
fn command<R>(
    line: &str,
    arrival: Instant,
    run: impl FnOnce(&'static str) -> (R, bool),
) -> (R, trace::OpGuard) {
    let m = metrics::global();
    let (verb, span) = line
        .split_whitespace()
        .next()
        .and_then(|word| COMMANDS.iter().find(|(c, _)| c.eq_ignore_ascii_case(word)))
        .map_or(("", "cmd.other"), |&entry| entry);
    let mut op = trace::timed_op_at(span, &m.server_command_latency, arrival);
    op.lap(&m.serve_phase_parse, Some("serve.parse"));
    let (reply, is_err) = run(verb);
    m.server_commands.incr();
    if is_err {
        m.server_command_errors.incr();
    }
    op.lap(&m.serve_phase_execute, None);
    (reply, op)
}

/// Executes one protocol command against the shared state. Pure with
/// respect to IO, so the full command surface is unit-testable without
/// sockets. Timed like a served command without the respond phase.
#[must_use]
pub fn handle_command(state: &ServerState, line: &str) -> String {
    command(line, Instant::now(), |verb| {
        let reply = execute(state, line, verb);
        let is_err = reply.starts_with("ERR");
        (reply, is_err)
    })
    .0
}

/// Serves one request line that arrived at `arrival` and writes the
/// response to `out`: the one instrumented path for both wire modes.
/// The command is one `cmd.*` op from `arrival` to the flushed response,
/// lapped into parse, execute and respond (span child `serve.respond`),
/// so its `server.command_latency_ns` sample is the sum of its three
/// `serve.phase.*` samples. Returns whether the connection closes.
///
/// On a `framed` (v3) connection every reply is one codec envelope:
/// `REPL PULL` a `WAL_BATCH` record, `REPL SNAPSHOT` a `SNAPSHOT_FRAME`,
/// anything else a `TEXT_FRAME` of the usual text, and `HELLO` just
/// re-reports `OK fmt=v3` (the switch is one-way). An unframed
/// connection turns framed once it answers `OK fmt=v3`.
///
/// # Errors
/// Fails if writing the response fails.
pub(super) fn serve(
    state: &ServerState,
    line: &str,
    arrival: Instant,
    framed: &mut bool,
    out: &mut impl Write,
) -> io::Result<bool> {
    let ((bytes, closing), mut op) = command(line, arrival, |verb| {
        if let Some((frame, is_err)) = repl_frame(state, line, verb, *framed) {
            return ((frame, false), is_err);
        }
        let mut reply = match verb {
            "HELLO" if *framed => "OK fmt=v3".to_string(),
            _ => execute(state, line, verb),
        };
        let is_err = reply.starts_with("ERR");
        let closing = reply == "OK bye";
        let bytes = if *framed {
            codec::encode_text_frame(&reply)
        } else {
            *framed = reply == "OK fmt=v3";
            reply.push('\n');
            reply.into_bytes()
        };
        ((bytes, closing), is_err)
    });
    let written = out.write_all(&bytes);
    op.lap(
        &metrics::global().serve_phase_respond,
        Some("serve.respond"),
    );
    written.map(|()| closing)
}

/// On a framed connection, `REPL PULL` and `REPL SNAPSHOT` answer with
/// their dedicated binary envelopes (`WAL_BATCH`, `SNAPSHOT_FRAME`);
/// returns that envelope and whether it reports an error.
fn repl_frame(
    state: &ServerState,
    line: &str,
    verb: &str,
    framed: bool,
) -> Option<(Vec<u8>, bool)> {
    if !framed || verb != "REPL" {
        return None;
    }
    let args: Vec<&str> = line.split_whitespace().skip(1).collect();
    let sub = args.first()?;
    if sub.eq_ignore_ascii_case("PULL") {
        Some(super::replication::repl_pull_frame(state, &args))
    } else if !sub.eq_ignore_ascii_case("SNAPSHOT") {
        None
    } else if args.len() == 1 {
        Some(super::replication::repl_snapshot_frame(state))
    } else {
        let err = "ERR REPL SNAPSHOT takes no arguments";
        Some((codec::encode_text_frame(err), true))
    }
}

fn execute(state: &ServerState, line: &str, verb: &str) -> String {
    // Telnet/netcat clients terminate lines with `\r\n`, and humans pad
    // with spaces; `split_whitespace` treats `\r`, tabs, and padding as
    // separators, so both parse like the bare command.
    let mut parts = line.split_whitespace();
    let Some(command) = parts.next() else {
        return "ERR empty command".into();
    };
    let args: Vec<&str> = parts.collect();

    let parse_vertex = |raw: &str| -> Result<VertexId, String> {
        parse_bounded("vertex-id", raw, 0, u64::MAX).map(VertexId)
    };
    let pair = |args: &[&str]| -> Result<(VertexId, VertexId), String> {
        if args.len() != 2 {
            return Err(format!("expected 2 vertex ids, got {}", args.len()));
        }
        Ok((parse_vertex(args[0])?, parse_vertex(args[1])?))
    };

    match verb {
        "PING" => "OK pong".into(),
        "QUIT" => "OK bye".into(),
        // Wire-format negotiation: the connection layer watches for the
        // `OK fmt=v3` answer and flips this connection's responses to
        // binary envelopes.
        "HELLO" => match args.as_slice() {
            [] => "OK fmt=v2".into(),
            [v] if v.eq_ignore_ascii_case("v2") => "OK fmt=v2".into(),
            [v] if v.eq_ignore_ascii_case("v3") => "OK fmt=v3".into(),
            _ => "ERR HELLO takes an optional wire format (v2 or v3)".into(),
        },
        "STATS" => {
            let (vertices, edges, memory) = {
                let guard = state.read_store();
                (
                    guard.vertex_count(),
                    guard.edges_processed(),
                    guard.memory_bytes(),
                )
            };
            let m = metrics::global();
            // The process_* timestamps mirror METRICS's
            // `process.uptime_secs` / `process.as_of_unix_ms` so the two
            // surfaces can be correlated sample-for-sample.
            format!(
                "OK version={} vertices={vertices} edges={edges} memory={memory} \
                 uptime_secs={} connections_active={} journal_lag_edges={} \
                 shed_total={} snapshot_generations={} replay_quarantined={} \
                 scrub_last_exit={} process_uptime_secs={} \
                 process_as_of_unix_ms={}",
                crate::build_version(),
                state.uptime_secs(),
                state.connections_active(),
                state.journal_lag(),
                m.connections_shed.get(),
                m.snapshot_generations_kept.get(),
                m.wal_replay_skipped.get(),
                m.scrub_last_exit.get(),
                metrics::uptime_secs(),
                metrics::as_of_unix_ms(),
            )
        }
        "METRICS" => {
            let m = metrics::global();
            // Gauges are levels, not events: refresh them at read time.
            m.connections_active.set(state.connections_active() as u64);
            m.journal_lag_edges.set(state.journal_lag());
            let snapshot = m.snapshot();
            // Per-peer replication gauges carry a dynamic peer id the
            // static-keyed registry cannot hold, so they are rendered
            // here at the exposition point; the terminator's announced
            // count covers them so clients can still trust it.
            let mut body = snapshot.render_text();
            let mut extra = 0usize;
            if let Some(repl) = state.primary_repl() {
                for peer in repl.peer_overview() {
                    body.push_str(&format!(
                        "\nrepl.peer.{id}.lag_seq={}\nrepl.peer.{id}.last_seen_ms={}\
                         \nrepl.peer.{id}.state={}",
                        peer.lag_seq,
                        peer.last_seen_ms,
                        u64::from(peer.live),
                        id = peer.id,
                    ));
                    extra += 3;
                }
            }
            format!("{body}\nOK {} metrics", snapshot.len() + extra)
        }
        "TRACE" => {
            let n = match args.as_slice() {
                [] => 16,
                // The count itself only needs to be a well-formed
                // integer; asks beyond the ring are capped, not errors.
                [raw] => match parse_bounded("count", raw, 1, u64::MAX) {
                    Ok(n) => usize::try_from(n)
                        .unwrap_or(trace::RING_CAPACITY)
                        .min(trace::RING_CAPACITY),
                    Err(e) => return format!("ERR {e}"),
                },
                _ => return "ERR TRACE takes at most one count".into(),
            };
            let spans = trace::recent(n);
            let mut out = String::new();
            for span in &spans {
                out.push_str(&span.render_line());
                out.push('\n');
            }
            out.push_str(&format!("OK {} spans", spans.len()));
            out
        }
        "PROFILE" => {
            let n = match args.as_slice() {
                [] => trace::RING_CAPACITY,
                // Like TRACE: the window only needs to be a well-formed
                // integer; asks beyond the ring are capped, not errors.
                [raw] => match parse_bounded("count", raw, 1, u64::MAX) {
                    Ok(n) => usize::try_from(n)
                        .unwrap_or(trace::RING_CAPACITY)
                        .min(trace::RING_CAPACITY),
                    Err(e) => return format!("ERR {e}"),
                },
                _ => return "ERR PROFILE takes at most one count".into(),
            };
            let profile = trace::profile(n);
            format!(
                "{}\nOK {} nodes",
                profile.render_json(),
                profile.nodes.len()
            )
        }
        "HEALTH" => {
            if !args.is_empty() {
                return "ERR HEALTH takes no arguments".into();
            }
            let m = metrics::global();
            // Prefer the auditor's live rolling state; a server without
            // an auditor (in-memory, audit disabled) reports the last
            // published gauges, which stay at zero.
            let (cycles, pairs, tracked, j_mae, cn_p95, aa_mae) = match state.audit_snapshot() {
                Some(s) => (
                    s.cycles,
                    s.pairs_evaluated,
                    s.tracked as u64,
                    s.jaccard_mae,
                    s.cn_rel_err_p95,
                    s.aa_mae,
                ),
                None => (
                    m.audit_cycles.get(),
                    m.audit_pairs.get(),
                    m.audit_tracked_vertices.get(),
                    m.audit_jaccard_mae_ppm.get() as f64 / 1e6,
                    m.audit_cn_rel_err_p95_ppm.get() as f64 / 1e6,
                    m.audit_aa_mae_ppm.get() as f64 / 1e6,
                ),
            };
            format!(
                "OK audit_cycles={cycles} audit_pairs={pairs} \
                 tracked_vertices={tracked} jaccard_mae={j_mae:.6} \
                 cn_rel_err_p95={cn_p95:.6} aa_mae={aa_mae:.6} \
                 slow_ops={} spans_recorded={} slow_op_threshold_ms={} \
                 uptime_secs={}",
                m.trace_slow_ops.get(),
                trace::spans_recorded(),
                trace::slow_op_threshold_ns() / 1_000_000,
                state.uptime_secs(),
            )
        }
        "DEGREE" => match args.as_slice() {
            [raw] => match parse_vertex(raw) {
                Ok(v) => {
                    metrics::global().server_queries.incr();
                    let d = state.read_store().degree(v);
                    trace::note_degree(d);
                    format!("OK {d}")
                }
                Err(e) => format!("ERR {e}"),
            },
            _ => "ERR DEGREE takes exactly one vertex id".into(),
        },
        "REPL" => super::replication::repl_command(state, &args),
        "CLUSTER" => super::failover::cluster_command(state, &args),
        "PROMOTE" => {
            if !args.is_empty() {
                return "ERR PROMOTE takes no arguments".into();
            }
            super::failover::promote_command(state)
        }
        "DEMOTE" => {
            if !args.is_empty() {
                return "ERR DEMOTE takes no arguments".into();
            }
            super::failover::demote_command(state)
        }
        "INSERT" => {
            // Replicas are readonly (their store is the primary's, and
            // a local write would fork it permanently) and a fenced
            // cluster primary must not ack what a successor may not
            // have; the failover gate covers both.
            if let Some(refusal) = super::failover::write_gate(state) {
                return refusal;
            }
            match pair(&args) {
                Ok((u, v)) => match state.insert_edge(u, v) {
                    Ok(_) => {
                        metrics::global().server_inserts.incr();
                        let guard = state.read_store();
                        trace::note_degree(guard.degree(u).max(guard.degree(v)));
                        "OK inserted".into()
                    }
                    // Not acked: the edge was neither journaled nor
                    // applied. The connection stays up and reads keep
                    // serving — a failing disk degrades writes, it does
                    // not kill the server.
                    Err(e) => {
                        metrics::global().storage_errors.incr();
                        format!("ERR storage: {e}")
                    }
                },
                Err(e) => format!("ERR {e}"),
            }
        }
        "EXPLAIN" => {
            if args.len() != 3 {
                return "ERR EXPLAIN takes <JACCARD|OVERLAP|DEGREE> u v".into();
            }
            let what = args[0].to_ascii_uppercase();
            if !matches!(what.as_str(), "JACCARD" | "OVERLAP" | "DEGREE") {
                return format!(
                    "ERR EXPLAIN supports JACCARD, OVERLAP, or DEGREE, got {:?}",
                    args[0]
                );
            }
            match pair(&args[1..]) {
                Ok((u, v)) => {
                    metrics::global().server_queries.incr();
                    let guard = state.read_store();
                    trace::note_degree(guard.degree(u).max(guard.degree(v)));
                    explain(state, &guard, &what, u, v)
                }
                Err(e) => format!("ERR {e}"),
            }
        }
        "JACCARD" | "CN" | "AA" | "RA" | "PA" | "COSINE" | "OVERLAP" => {
            let Some(measure) = Measure::ALL
                .into_iter()
                .find(|m| m.key().eq_ignore_ascii_case(verb))
            else {
                return format!("ERR unknown measure {verb:?}");
            };
            match pair(&args) {
                Ok((u, v)) => {
                    metrics::global().server_queries.incr();
                    let guard = state.read_store();
                    trace::note_degree(guard.degree(u).max(guard.degree(v)));
                    let score = match measure {
                        Measure::Jaccard => guard.jaccard(u, v),
                        Measure::CommonNeighbors => guard.common_neighbors(u, v),
                        Measure::AdamicAdar => guard.adamic_adar(u, v),
                        Measure::ResourceAllocation => guard.resource_allocation(u, v),
                        Measure::PreferentialAttachment => guard.preferential_attachment(u, v),
                        Measure::Cosine => guard.cosine(u, v),
                        Measure::Overlap => guard.overlap(u, v),
                    };
                    match score {
                        Some(s) => format!("OK {s:.6}"),
                        None => "OK unseen".into(),
                    }
                }
                Err(e) => format!("ERR {e}"),
            }
        }
        _ => format!(
            "ERR unknown command {:?} (commands: INSERT, JACCARD, CN, AA, \
             RA, PA, COSINE, OVERLAP, DEGREE, EXPLAIN, STATS, METRICS, TRACE, \
             PROFILE, HEALTH, REPL, CLUSTER, PROMOTE, DEMOTE, HELLO, PING, QUIT)",
            command.to_ascii_uppercase()
        ),
    }
}

/// Builds the one-line `EXPLAIN` response: the estimate plus the
/// `(ε, δ)` machinery behind it, so an operator can see not just a
/// number but how much to trust it.
///
/// `what` is pre-validated to one of `JACCARD`, `OVERLAP`, `DEGREE`.
fn explain(
    state: &ServerState,
    store: &streamlink_core::SketchStore,
    what: &str,
    u: VertexId,
    v: VertexId,
) -> String {
    use streamlink_core::AccuracyPlan;

    /// z-score for a two-sided 95% confidence interval.
    const Z95: f64 = 1.959_964;

    let (Some(su), Some(sv)) = (store.sketch(u), store.sketch(v)) else {
        return "OK unseen".into();
    };
    let k = store.config().slots();
    let (du, dv) = (store.degree(u), store.degree(v));
    let matches = su.match_count(sv);
    let covered = |x: VertexId| u8::from(state.auditor().is_some_and(|a| a.covers(x)));
    let common = format!(
        "u={} v={} k={k} fill_u={} fill_v={} audit_u={} audit_v={}",
        u.0,
        v.0,
        su.filled_slots(),
        sv.filled_slots(),
        covered(u),
        covered(v),
    );
    match what {
        "JACCARD" => {
            let estimate = matches as f64 / k as f64;
            let (lo, hi) = AccuracyPlan::wilson_interval(matches, k, Z95);
            format!(
                "OK measure=JACCARD {common} estimate={estimate:.6} matches={matches} \
                 epsilon95={:.6} interval_low={lo:.6} interval_high={hi:.6}",
                AccuracyPlan::error_bound(k, 0.05),
            )
        }
        "OVERLAP" => {
            // Overlap = CN / min(d(u), d(v)); propagate the CN interval
            // through the same denominator the estimator uses.
            let denom = du.min(dv).max(1) as f64;
            let estimate = store.overlap(u, v).unwrap_or(0.0);
            let (cn_lo, cn_hi) = AccuracyPlan::cn_interval(matches, k, du, dv, Z95);
            format!(
                "OK measure=OVERLAP {common} estimate={estimate:.6} matches={matches} \
                 epsilon95={:.6} interval_low={:.6} interval_high={:.6}",
                AccuracyPlan::error_bound(k, 0.05),
                (cn_lo / denom).clamp(0.0, 1.0),
                (cn_hi / denom).clamp(0.0, 1.0),
            )
        }
        // DEGREE: exact counters, so the interval is degenerate and the
        // error bound is zero — included so clients can treat every
        // EXPLAIN response uniformly.
        _ => format!(
            "OK measure=DEGREE {common} estimate={du} degree_u={du} degree_v={dv} \
             epsilon95=0.000000 interval_low={du}.000000 interval_high={du}.000000"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, ServerState};
    use streamlink_core::{SketchConfig, SketchStore};

    /// A command served on a framed (v3) connection: the reply envelope
    /// and whether the connection closes.
    fn handle_command_framed(s: &ServerState, line: &str) -> (Vec<u8>, bool) {
        let mut out = Vec::new();
        let closing = serve(s, line, Instant::now(), &mut true, &mut out).expect("write to a Vec");
        (out, closing)
    }

    fn state() -> ServerState {
        let mut s = SketchStore::new(SketchConfig::with_slots(64).seed(1));
        for w in 10..30u64 {
            s.insert_edge(VertexId(0), VertexId(w));
            s.insert_edge(VertexId(1), VertexId(w));
        }
        ServerState::in_memory(s, ServerConfig::default())
    }

    #[test]
    fn ping_and_quit() {
        let s = state();
        assert_eq!(handle_command(&s, "PING"), "OK pong");
        assert_eq!(handle_command(&s, "quit"), "OK bye");
    }

    #[test]
    fn measure_queries() {
        let s = state();
        assert_eq!(handle_command(&s, "JACCARD 0 1"), "OK 1.000000");
        assert!(handle_command(&s, "CN 0 1").starts_with("OK 20"));
        assert!(handle_command(&s, "AA 0 1").starts_with("OK "));
        assert!(handle_command(&s, "cosine 0 1").starts_with("OK "));
        assert_eq!(handle_command(&s, "JACCARD 0 9999"), "OK unseen");
    }

    #[test]
    fn degree_and_stats() {
        let s = state();
        assert_eq!(handle_command(&s, "DEGREE 0"), "OK 20");
        assert_eq!(handle_command(&s, "DEGREE 404"), "OK 0");
        let stats = handle_command(&s, "STATS");
        assert!(
            stats.contains("vertices=22") && stats.contains(" edges=40"),
            "{stats}"
        );
    }

    #[test]
    fn stats_reports_serving_fields() {
        let s = state();
        let stats = handle_command(&s, "STATS");
        assert!(
            stats.contains(&format!("version={}", crate::build_version())),
            "{stats}"
        );
        assert!(stats.contains("uptime_secs="), "{stats}");
        assert!(stats.contains("connections_active=0"), "{stats}");
        // In-memory serving has no journal, hence no lag.
        assert!(stats.contains("journal_lag_edges=0"), "{stats}");
        // The self-healing-storage fields are always present.
        assert!(stats.contains("shed_total="), "{stats}");
        assert!(stats.contains("snapshot_generations="), "{stats}");
        assert!(stats.contains("replay_quarantined="), "{stats}");
        assert!(stats.contains("scrub_last_exit="), "{stats}");
    }

    #[test]
    fn insert_degrades_to_err_storage_and_reads_keep_serving() {
        // A failing journal append must nack the INSERT with
        // `ERR storage`, leave the store untouched, and leave the server
        // serving reads — never panic or half-apply.
        use crate::server::persistence;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use streamlink_core::chaos::{FaultKind, FaultPlan};
        use streamlink_core::journal::FsyncPolicy;

        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "streamlink-proto-storage-{}-{n}",
            std::process::id()
        ));

        let plan = Arc::new(FaultPlan::new());
        plan.fail_append(1, FaultKind::Enospc);
        let (persist, recovery) = persistence::open_with_faults(
            &dir,
            SketchConfig::with_slots(16).seed(3),
            FsyncPolicy::Never,
            Some(plan),
        )
        .unwrap();
        let before = metrics::global().storage_errors.get();
        let s = ServerState::with_persistence(
            recovery.store,
            persist,
            recovery.snapshot_seq,
            ServerConfig::default(),
        );

        assert_eq!(handle_command(&s, "INSERT 1 2"), "OK inserted");
        let nack = handle_command(&s, "INSERT 3 4");
        assert!(nack.starts_with("ERR storage"), "{nack}");
        assert!(nack.contains("injected fault"), "{nack}");
        assert_eq!(metrics::global().storage_errors.get(), before + 1);
        // The failed edge was never applied; reads still serve.
        assert_eq!(handle_command(&s, "DEGREE 3"), "OK 0");
        assert_eq!(handle_command(&s, "DEGREE 1"), "OK 1");
        // One-shot fault: the write path heals.
        assert_eq!(handle_command(&s, "INSERT 3 4"), "OK inserted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crlf_and_surrounding_whitespace_are_trimmed() {
        // What telnet/netcat actually deliver: trailing `\r`, padding.
        let s = state();
        assert!(handle_command(&s, "stats\r").starts_with("OK version="));
        assert_eq!(handle_command(&s, "  INSERT 1 2  "), "OK inserted");
        assert_eq!(handle_command(&s, "\tPING\r"), "OK pong");
        assert_eq!(handle_command(&s, "degree 0\r"), "OK 20");
        // Strictness is preserved where it matters: a vertex id with
        // embedded garbage still errors.
        assert!(handle_command(&s, "INSERT 1\r2 3").starts_with("ERR"));
    }

    #[test]
    fn commands_are_case_insensitive() {
        let s = state();
        assert_eq!(handle_command(&s, "ping"), "OK pong");
        assert!(handle_command(&s, "jaccard 0 1").starts_with("OK 1.0"));
        assert_eq!(handle_command(&s, "Insert 0 600"), "OK inserted");
        assert!(handle_command(&s, "metrics\r").ends_with(" metrics"));
    }

    #[test]
    fn metrics_returns_key_value_lines_with_ok_terminator() {
        let s = state();
        // Generate some traffic so counters are visibly nonzero.
        let _ = handle_command(&s, "JACCARD 0 1");
        let _ = handle_command(&s, "INSERT 5 6");
        let response = handle_command(&s, "METRICS");
        let lines: Vec<&str> = response.lines().collect();
        let last = lines.last().unwrap();
        assert!(
            last.starts_with("OK ") && last.ends_with(" metrics"),
            "terminator: {last}"
        );
        let body = &lines[..lines.len() - 1];
        assert_eq!(
            body.len().to_string(),
            last.split_whitespace().nth(1).unwrap(),
            "OK line must announce the metric count"
        );
        for line in body {
            let (k, v) = line.split_once('=').expect("key=value line");
            assert!(!k.is_empty(), "{line}");
            v.parse::<u64>()
                .unwrap_or_else(|_| panic!("bad value in {line}"));
        }
        let find = |key: &str| {
            body.iter()
                .find_map(|l| l.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("missing {key}"))
                .parse::<u64>()
                .unwrap()
        };
        assert!(find("core.insert.edges") >= 41, "ingest counter");
        assert!(find("server.queries") >= 1, "query counter");
        assert!(find("server.inserts") >= 1);
        let (p50, p99) = (
            find("core.insert.latency_ns.p50"),
            find("core.insert.latency_ns.p99"),
        );
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert_eq!(find("server.connections_active"), 0);
        assert_eq!(find("journal.lag_edges"), 0);
    }

    #[test]
    fn trace_returns_span_lines_with_ok_terminator() {
        let s = state();
        // Generate traced traffic first.
        let _ = handle_command(&s, "JACCARD 0 1");
        let _ = handle_command(&s, "INSERT 7 8");
        let response = handle_command(&s, "TRACE 8");
        let lines: Vec<&str> = response.lines().collect();
        let last = lines.last().unwrap();
        assert!(
            last.starts_with("OK ") && last.ends_with(" spans"),
            "terminator: {last}"
        );
        let announced: usize = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(lines.len() - 1, announced, "count must match body");
        assert!(announced >= 1, "previous commands must have left spans");
        for line in &lines[..lines.len() - 1] {
            assert!(line.contains("seq="), "{line}");
            assert!(line.contains("op="), "{line}");
            assert!(line.contains("dur_ns="), "{line}");
            assert!(line.contains("degree_class="), "{line}");
        }
        // The query span carries the degree class of its endpoints.
        assert!(
            response.contains("op=cmd.query"),
            "expected a cmd.query span: {response}"
        );
    }

    #[test]
    fn trace_and_health_are_crlf_and_case_tolerant() {
        let s = state();
        let _ = handle_command(&s, "PING");
        assert!(handle_command(&s, "trace\r").ends_with(" spans"));
        assert!(handle_command(&s, "  Trace 4  \r").ends_with(" spans"));
        assert!(handle_command(&s, "health\r").starts_with("OK audit_cycles="));
        assert!(handle_command(&s, "\tHEALTH\r").starts_with("OK audit_cycles="));
    }

    #[test]
    fn trace_and_health_bad_arguments_are_err() {
        let s = state();
        assert!(
            handle_command(&s, "TRACE 0").starts_with("ERR"),
            "zero count"
        );
        assert!(
            handle_command(&s, "TRACE abc").starts_with("ERR"),
            "non-numeric"
        );
        assert!(
            handle_command(&s, "TRACE -3").starts_with("ERR"),
            "negative"
        );
        assert!(
            handle_command(&s, "TRACE 1 2").starts_with("ERR"),
            "extra args"
        );
        assert!(
            handle_command(&s, "HEALTH now").starts_with("ERR"),
            "HEALTH args"
        );
    }

    #[test]
    fn profile_returns_json_call_tree_with_ok_terminator() {
        let s = state();
        // Generate traced traffic so the profile has nodes to merge.
        let _ = handle_command(&s, "JACCARD 0 1");
        let _ = handle_command(&s, "INSERT 7 8");
        let response = handle_command(&s, "PROFILE");
        let lines: Vec<&str> = response.lines().collect();
        assert_eq!(lines.len(), 2, "one JSON line + terminator: {response}");
        let body: serde_json::Value =
            serde_json::from_str(lines[0]).expect("PROFILE body must be valid JSON");
        assert_eq!(
            body.get("schema").and_then(serde_json::Value::as_str),
            Some("streamlink.profilez.v1")
        );
        let nodes = body
            .get("nodes")
            .and_then(serde_json::Value::as_array)
            .expect("nodes array");
        assert!(!nodes.is_empty(), "traffic must have produced nodes");
        let last = lines.last().unwrap();
        assert!(
            last.starts_with("OK ") && last.ends_with(" nodes"),
            "terminator: {last}"
        );
        let announced: usize = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(nodes.len(), announced, "count must match the node list");
    }

    #[test]
    fn profile_is_crlf_and_case_tolerant_and_rejects_bad_args() {
        let s = state();
        let _ = handle_command(&s, "PING");
        assert!(handle_command(&s, "profile\r").ends_with(" nodes"));
        assert!(handle_command(&s, "  Profile 4  \r").ends_with(" nodes"));
        assert!(handle_command(&s, "PROFILE 0").starts_with("ERR"), "zero");
        assert!(
            handle_command(&s, "PROFILE abc").starts_with("ERR"),
            "non-numeric"
        );
        assert!(
            handle_command(&s, "PROFILE 010").starts_with("ERR bad-arg count"),
            "leading zeros"
        );
        assert!(
            handle_command(&s, "PROFILE 1 2").starts_with("ERR"),
            "extra args"
        );
        // Asks beyond the ring are capped, not errors.
        assert!(
            handle_command(&s, &format!("PROFILE {}", trace::RING_CAPACITY * 10))
                .ends_with(" nodes")
        );
    }

    #[test]
    fn explain_jaccard_reports_estimate_with_interval() {
        let s = state();
        let reply = handle_command(&s, "EXPLAIN JACCARD 0 1");
        let body = reply.strip_prefix("OK ").expect("OK response");
        let fields: std::collections::HashMap<&str, &str> = body
            .split_whitespace()
            .map(|kv| kv.split_once('=').expect("key=value field"))
            .collect();
        assert_eq!(fields["measure"], "JACCARD");
        assert_eq!(fields["k"], "64");
        // The fixture populates the store before the server (and its
        // auditor) exists, so no endpoint is shadow-covered.
        assert_eq!(fields["audit_u"], "0");
        assert_eq!(fields["audit_v"], "0");
        let estimate: f64 = fields["estimate"].parse().unwrap();
        let matches: usize = fields["matches"].parse().unwrap();
        let lo: f64 = fields["interval_low"].parse().unwrap();
        let hi: f64 = fields["interval_high"].parse().unwrap();
        let eps: f64 = fields["epsilon95"].parse().unwrap();
        // Perfect overlap: every slot matches, estimate 1.0.
        assert_eq!(matches, 64);
        assert!((estimate - 1.0).abs() < 1e-9);
        assert!(
            lo <= estimate && estimate <= hi,
            "{lo} <= {estimate} <= {hi}"
        );
        assert!(
            lo > 0.9,
            "Wilson low bound at p=1, k=64 should be tight: {lo}"
        );
        assert!(eps > 0.0 && eps < 1.0);
        let fill: usize = fields["fill_u"].parse().unwrap();
        assert!((1..=64).contains(&fill));
    }

    #[test]
    fn explain_overlap_and_degree_variants() {
        let s = state();
        let overlap = handle_command(&s, "EXPLAIN OVERLAP 0 1");
        assert!(overlap.contains("measure=OVERLAP"), "{overlap}");
        assert!(overlap.contains("interval_low="), "{overlap}");
        let degree = handle_command(&s, "EXPLAIN DEGREE 0 1");
        assert!(degree.contains("measure=DEGREE"), "{degree}");
        assert!(degree.contains("degree_u=20"), "{degree}");
        assert!(degree.contains("degree_v=20"), "{degree}");
        assert!(degree.contains("epsilon95=0.000000"), "{degree}");
        assert_eq!(handle_command(&s, "EXPLAIN JACCARD 0 9999"), "OK unseen");
    }

    #[test]
    fn explain_is_crlf_and_case_tolerant() {
        // Mirrors the TRACE/HEALTH hygiene suite: telnet-style CRLF
        // terminators, padding, and any case must all parse.
        let s = state();
        assert!(handle_command(&s, "explain jaccard 0 1\r").starts_with("OK measure=JACCARD"));
        assert!(handle_command(&s, "  Explain Overlap 0 1  \r").starts_with("OK measure=OVERLAP"));
        assert!(handle_command(&s, "\tEXPLAIN degree 0 1\r").starts_with("OK measure=DEGREE"));
    }

    #[test]
    fn explain_bad_arguments_are_err() {
        let s = state();
        assert!(handle_command(&s, "EXPLAIN").starts_with("ERR"), "no args");
        assert!(
            handle_command(&s, "EXPLAIN JACCARD 0").starts_with("ERR"),
            "one vertex"
        );
        assert!(
            handle_command(&s, "EXPLAIN JACCARD 0 1 2").starts_with("ERR"),
            "extra args"
        );
        assert!(
            handle_command(&s, "EXPLAIN COSINE 0 1").starts_with("ERR EXPLAIN supports"),
            "unsupported measure"
        );
        assert!(
            handle_command(&s, "EXPLAIN JACCARD a b").starts_with("ERR bad-arg vertex-id"),
            "non-numeric ids"
        );
    }

    #[test]
    fn parse_bounded_is_strict() {
        assert_eq!(parse_bounded("n", "0", 0, 9), Ok(0));
        assert_eq!(parse_bounded("n", "9", 0, 9), Ok(9));
        assert_eq!(
            parse_bounded("n", &u64::MAX.to_string(), 0, u64::MAX),
            Ok(u64::MAX)
        );
        for raw in [
            "",
            "-1",
            "+1",
            " 1",
            "1 ",
            "01",
            "007",
            "1.0",
            "1e3",
            "0x10",
            "ten",
            "18446744073709551616", // u64::MAX + 1
            "99999999999999999999999999",
        ] {
            let err = parse_bounded("n", raw, 0, u64::MAX).unwrap_err();
            assert!(err.starts_with("bad-arg n:"), "{raw:?} -> {err}");
        }
        // Bounds are enforced, and the error names them.
        let err = parse_bounded("count", "10", 1, 9).unwrap_err();
        assert!(err.contains("1..=9") && err.contains("\"10\""), "{err}");
        assert!(parse_bounded("count", "0", 1, 9).is_err());
    }

    #[test]
    fn numeric_args_use_uniform_bad_arg_wording() {
        let s = state();
        for cmd in [
            "DEGREE 01",
            "DEGREE +1",
            "DEGREE 18446744073709551616",
            "INSERT 1 -2",
            "JACCARD 1.0 2",
            "EXPLAIN JACCARD 0 0x1",
        ] {
            let reply = handle_command(&s, cmd);
            assert!(reply.starts_with("ERR bad-arg vertex-id"), "{cmd}: {reply}");
        }
        assert!(handle_command(&s, "TRACE 010").starts_with("ERR bad-arg count"));
    }

    #[test]
    fn hello_negotiates_wire_format() {
        let s = state();
        assert_eq!(handle_command(&s, "HELLO"), "OK fmt=v2");
        assert_eq!(handle_command(&s, "HELLO v2"), "OK fmt=v2");
        assert_eq!(handle_command(&s, "HELLO v3"), "OK fmt=v3");
        assert_eq!(handle_command(&s, "hello V3\r"), "OK fmt=v3");
        assert!(handle_command(&s, "HELLO v9").starts_with("ERR HELLO"));
        assert!(handle_command(&s, "HELLO v2 v3").starts_with("ERR HELLO"));
    }

    #[test]
    fn framed_mode_wraps_responses_in_envelopes() {
        use streamlink_core::codec;
        let s = state();
        let (frame, closing) = handle_command_framed(&s, "PING");
        assert!(!closing);
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_TEXT_FRAME);
        assert_eq!(env.body, b"OK pong");
        // Multi-line responses arrive as one frame.
        let (frame, _) = handle_command_framed(&s, "METRICS");
        let env = codec::decode_envelope(&frame).unwrap();
        let text = std::str::from_utf8(env.body).unwrap();
        assert!(text.lines().last().unwrap().ends_with(" metrics"), "{text}");
        // QUIT closes, HELLO re-reports v3, and REPL PULL ships a
        // WAL_BATCH record.
        assert!(handle_command_framed(&s, "QUIT").1);
        let (frame, _) = handle_command_framed(&s, "HELLO v2");
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.body, b"OK fmt=v3");
        let _ = handle_command(&s, "INSERT 900 901");
        let (frame, _) = handle_command_framed(&s, "REPL PULL r1 40 10");
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_WAL_BATCH);
        let (entries, primary_seq) = codec::decode_wal_batch_body(env.body).unwrap();
        assert!(!entries.is_empty());
        assert!(primary_seq >= entries.last().unwrap().seq);
    }

    #[test]
    fn unknown_command_help_lists_explain() {
        let s = state();
        let reply = handle_command(&s, "FROBNICATE");
        assert!(reply.starts_with("ERR unknown command"), "{reply}");
        for cmd in ["EXPLAIN", "INSERT", "METRICS", "TRACE", "PROFILE", "HEALTH"] {
            assert!(reply.contains(cmd), "help text missing {cmd}: {reply}");
        }
    }

    #[test]
    fn stats_carries_process_timestamps_matching_metrics() {
        let s = state();
        let stats = handle_command(&s, "STATS");
        assert!(stats.contains("process_uptime_secs="), "{stats}");
        let stats_ms: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("process_as_of_unix_ms="))
            .expect("process_as_of_unix_ms field")
            .parse()
            .expect("u64 ms");
        let response = handle_command(&s, "METRICS");
        let metrics_ms: u64 = response
            .lines()
            .find_map(|l| l.strip_prefix("process.as_of_unix_ms="))
            .expect("METRICS as_of")
            .parse()
            .expect("u64 ms");
        // Taken moments apart in the same process: within 10 s.
        assert!(
            metrics_ms.abs_diff(stats_ms) < 10_000,
            "STATS ({stats_ms}) and METRICS ({metrics_ms}) disagree"
        );
    }

    #[test]
    fn trace_caps_requested_count_at_ring_capacity() {
        let s = state();
        let response = handle_command(&s, &format!("TRACE {}", trace::RING_CAPACITY * 10));
        assert!(response.ends_with(" spans"), "{response}");
    }

    #[test]
    fn health_reports_parseable_fields() {
        let s = state();
        let response = handle_command(&s, "HEALTH");
        let body = response.strip_prefix("OK ").expect("OK response");
        let mut keys = Vec::new();
        for field in body.split_whitespace() {
            let (k, v) = field.split_once('=').expect("key=value field");
            keys.push(k);
            // Error gauges are fixed-precision floats; everything else
            // is an integer.
            if k.ends_with("_mae") || k.ends_with("_p95") {
                let f: f64 = v.parse().unwrap_or_else(|_| panic!("bad float {field}"));
                assert!(f >= 0.0, "{field}");
            } else {
                v.parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad integer {field}"));
            }
        }
        for expect in [
            "audit_cycles",
            "audit_pairs",
            "tracked_vertices",
            "jaccard_mae",
            "cn_rel_err_p95",
            "aa_mae",
            "slow_ops",
            "spans_recorded",
            "slow_op_threshold_ms",
            "uptime_secs",
        ] {
            assert!(keys.contains(&expect), "missing {expect} in {response}");
        }
    }

    /// A framed `REPL PULL`/`SNAPSHOT` reply: `Ok((entries,
    /// primary_seq))` for a `WAL_BATCH`, `Err(text)` for a `TEXT_FRAME`.
    fn framed_pull(s: &ServerState, line: &str) -> Result<(usize, u64), String> {
        use streamlink_core::codec;
        let (frame, closing) = handle_command_framed(s, line);
        assert!(!closing);
        let env = codec::decode_envelope(&frame).unwrap();
        match env.mode {
            codec::MODE_WAL_BATCH => {
                let (entries, primary_seq) = codec::decode_wal_batch_body(env.body).unwrap();
                Ok((entries.len(), primary_seq))
            }
            codec::MODE_TEXT_FRAME => Err(String::from_utf8(env.body.to_vec()).unwrap()),
            mode => panic!("unexpected frame mode {mode:#04x}"),
        }
    }

    fn replica() -> ServerState {
        let store = SketchStore::new(SketchConfig::with_slots(64).seed(1));
        crate::server::testkit::learner("127.0.0.1:9", "test-replica", 100_000, store).0
    }

    #[test]
    fn repl_commands_are_crlf_and_case_tolerant() {
        let s = state();
        let _ = handle_command(&s, "INSERT 50 51");
        assert!(handle_command(&s, "repl status\r").starts_with("OK role=primary"));
        assert!(handle_command(&s, "  Repl Hello r1  \r").starts_with("OK repl hello"));
        // The fixture store carries 40 pre-server edges, so the ring
        // starts at seq 40 and the INSERT above is seq 41.
        assert_eq!(framed_pull(&s, "\tREPL pull r1 40 10\r"), Ok((1, 41)));
        let (frame, _) = handle_command_framed(&s, "repl snapshot\r");
        let env = streamlink_core::codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, streamlink_core::codec::MODE_SNAPSHOT_FRAME);
        // Unframed, both answer ERR whatever the spelling.
        assert!(handle_command(&s, "\tREPL pull r1 40 10\r").starts_with("ERR REPL PULL"));
        assert!(handle_command(&s, "repl snapshot\r").starts_with("ERR REPL SNAPSHOT"));
    }

    #[test]
    fn repl_bad_arguments_are_err_lines() {
        let s = state();
        assert!(handle_command(&s, "REPL").starts_with("ERR"));
        assert!(handle_command(&s, "REPL HELLO").starts_with("ERR"));
        for line in ["REPL PULL r1", "REPL PULL r1 x 10", "REPL PULL r1 0 0"] {
            assert!(
                framed_pull(&s, line).unwrap_err().starts_with("ERR"),
                "{line}"
            );
        }
        assert!(framed_pull(&s, "REPL SNAPSHOT now")
            .unwrap_err()
            .starts_with("ERR"));
        assert!(handle_command(&s, "REPL FROBNICATE").starts_with("ERR unknown REPL"));
    }

    #[test]
    fn replica_rejects_writes_with_err_readonly() {
        let s = replica();
        let nack = handle_command(&s, "INSERT 1 2");
        assert!(nack.starts_with("ERR readonly"), "{nack}");
        assert!(nack.contains("127.0.0.1:9"), "{nack}");
        // Nothing was applied, and reads keep serving.
        assert_eq!(handle_command(&s, "DEGREE 1"), "OK 0");
        assert!(handle_command(&s, "STATS").contains(" vertices=0 "));
        assert!(handle_command(&s, "JACCARD 1 2").starts_with("OK"));
        assert!(handle_command(&s, "HEALTH").starts_with("OK audit_cycles="));
        // Case/CRLF tolerance applies to the readonly gate too.
        assert!(handle_command(&s, "insert 1 2\r").starts_with("ERR readonly"));
        // Serving REPL subcommands are also refused on a replica.
        assert!(handle_command(&s, "REPL HELLO x").starts_with("ERR readonly"));
        assert!(handle_command(&s, "REPL STATUS").starts_with("OK role=replica"));
    }

    #[test]
    fn readonly_refusal_is_moved_with_parseable_address() {
        let s = replica();
        let nack = handle_command(&s, "INSERT 1 2");
        assert!(
            nack.starts_with("ERR readonly MOVED 127.0.0.1:9 "),
            "{nack}"
        );
        // The 4th whitespace token is the address a client should
        // redirect to — the machine-parseable part of the hint.
        assert_eq!(nack.split_whitespace().nth(3), Some("127.0.0.1:9"));
        // CRLF/case tolerance holds on the refusal path too.
        let nack = handle_command(&s, "  insert 1 2\r");
        assert_eq!(nack.split_whitespace().nth(3), Some("127.0.0.1:9"));
    }

    #[test]
    fn promote_and_demote_answer_err_outside_cluster_mode() {
        let s = state();
        assert!(handle_command(&s, "PROMOTE").starts_with("ERR not clustered"));
        assert!(handle_command(&s, "DEMOTE").starts_with("ERR not clustered"));
        // CRLF/case tolerant, argument-strict.
        assert!(handle_command(&s, "  promote \r").starts_with("ERR not clustered"));
        assert!(handle_command(&s, "\tDemote\r").starts_with("ERR not clustered"));
        assert!(handle_command(&s, "PROMOTE now").starts_with("ERR PROMOTE takes"));
        assert!(handle_command(&s, "DEMOTE now").starts_with("ERR DEMOTE takes"));
        // They appear in the help text.
        let help = handle_command(&s, "FROBNICATE");
        assert!(
            help.contains("PROMOTE") && help.contains("DEMOTE"),
            "{help}"
        );
    }

    #[test]
    fn cluster_commands_are_crlf_case_tolerant_and_argument_strict() {
        // Outside cluster mode every CLUSTER subcommand answers the
        // same refusal the other failover verbs use, through any
        // spelling a telnet client can produce.
        let s = state();
        assert!(handle_command(&s, "CLUSTER INFO").starts_with("ERR not clustered"));
        assert!(handle_command(&s, "cluster info\r").starts_with("ERR not clustered"));
        assert!(handle_command(&s, "  Cluster Status  \r").starts_with("ERR not clustered"));
        // A trailing correlation token is stripped before dispatch.
        assert!(handle_command(&s, "CLUSTER STATUS corr=17\r").starts_with("ERR not clustered"));
        // Arity and spelling stay strict.
        assert!(handle_command(&s, "CLUSTER").starts_with("ERR CLUSTER takes"));
        assert!(handle_command(&s, "CLUSTER INFO now").starts_with("ERR CLUSTER"));
        assert!(handle_command(&s, "CLUSTER FROBNICATE").starts_with("ERR unknown CLUSTER"));
        // And the verb appears in the help text.
        let help = handle_command(&s, "FROBNICATE");
        assert!(help.contains("CLUSTER"), "{help}");
    }

    #[test]
    fn repl_corr_tokens_round_trip_through_the_command_surface() {
        // A trailing `corr=<id>` rides any REPL verb without changing
        // the reply grammar; a malformed one is left in place so the
        // arity check rejects it loudly.
        let s = state();
        let _ = handle_command(&s, "INSERT 50 51");
        assert_eq!(
            framed_pull(&s, "\tREPL pull r1 40 10 corr=9000001\r"),
            Ok((1, 41))
        );
        assert!(framed_pull(&s, "REPL PULL r1 40 10 corr=xyz")
            .unwrap_err()
            .starts_with("ERR REPL PULL"));
        // Cluster-only verbs still answer not-clustered with a corr.
        assert!(
            handle_command(&s, "repl lease n2 1 0 corr=9000002\r").starts_with("ERR not clustered")
        );
        assert!(
            handle_command(&s, "REPL VOTE n2 2 0 corr=9000003").starts_with("ERR not clustered")
        );
    }

    #[test]
    fn metrics_exposes_per_peer_replication_gauges() {
        let s = state();
        // Two replicas check in at different lags. The fixture ring
        // starts at seq 40, so alpha's ask-from-5 earns a resync nack —
        // but its ack mark (and so its lag) is recorded regardless.
        assert!(handle_command(&s, "REPL HELLO alpha").starts_with("OK repl hello"));
        assert!(framed_pull(&s, "REPL PULL alpha 5 5")
            .unwrap_err()
            .starts_with("ERR resync"));
        assert!(handle_command(&s, "REPL HELLO beta").starts_with("OK repl hello"));
        assert_eq!(framed_pull(&s, "REPL PULL beta 40 5"), Ok((0, 40)));
        let response = handle_command(&s, "METRICS");
        let lines: Vec<&str> = response.lines().collect();
        let last = lines.last().unwrap();
        let announced: usize = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(lines.len() - 1, announced, "count must cover peer rows");
        for key in [
            "repl.peer.alpha.lag_seq=",
            "repl.peer.alpha.last_seen_ms=",
            "repl.peer.alpha.state=1",
            "repl.peer.beta.lag_seq=0",
            "repl.peer.beta.state=1",
        ] {
            assert!(
                lines.iter().any(|l| l.starts_with(key)),
                "missing {key}: {response}"
            );
        }
        // alpha stopped at seq 5-of-40, so its lag is visible.
        let alpha_lag: u64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("repl.peer.alpha.lag_seq="))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(alpha_lag, 35);
    }

    #[test]
    fn framed_repl_snapshot_ships_a_snapshot_frame() {
        use streamlink_core::codec;
        let s = state();
        let (frame, closing) = handle_command_framed(&s, "REPL SNAPSHOT");
        assert!(!closing);
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_SNAPSHOT_FRAME);
        let (seq, snap) = codec::decode_snapshot_frame_body(env.body).unwrap();
        assert_eq!(seq, 40, "fixture pre-seeds 40 edges");
        assert_eq!(snap.edges_processed, 40);
        assert_eq!(snap.config, *s.read_store().config());
        // Arguments are still refused, as a text frame.
        let (frame, _) = handle_command_framed(&s, "REPL SNAPSHOT now");
        let env = codec::decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, codec::MODE_TEXT_FRAME);
    }

    #[test]
    fn insert_updates_state() {
        let s = state();
        assert_eq!(handle_command(&s, "INSERT 0 500"), "OK inserted");
        assert_eq!(handle_command(&s, "DEGREE 500"), "OK 1");
        assert_eq!(handle_command(&s, "DEGREE 0"), "OK 21");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let s = state();
        assert!(handle_command(&s, "").starts_with("ERR"));
        assert!(handle_command(&s, "FROBNICATE 1 2").starts_with("ERR"));
        assert!(handle_command(&s, "JACCARD 1").starts_with("ERR"));
        assert!(handle_command(&s, "JACCARD a b").starts_with("ERR"));
        assert!(handle_command(&s, "DEGREE").starts_with("ERR"));
        assert!(handle_command(&s, "INSERT 1 2 3").starts_with("ERR"));
        assert!(handle_command(&s, "INSERT x 2").starts_with("ERR"));
    }
}

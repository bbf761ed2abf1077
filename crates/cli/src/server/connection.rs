//! One connection: a line-in/line-out loop with timeouts.
//!
//! The socket read timeout doubles as the poll tick: every tick the
//! loop checks the shutdown flag (drain) and the idle clock (slow or
//! stuck clients are disconnected instead of pinning a thread and a
//! connection slot forever).
//!
//! A read timeout can fire mid-line; the partially read bytes stay in
//! the line buffer across ticks, so a slow writer loses nothing.
//!
//! Requests are newline-terminated text in both wire modes. After the
//! client sends `HELLO v3` (and the server answers `OK fmt=v3` as a
//! plain text line), every subsequent response on the connection is a
//! self-delimiting codec envelope instead of a text line. The switch
//! is one-way and per-connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use super::{protocol, ServerState, POLL_INTERVAL};

/// Holds one unit of the `serve.conn_queue_depth` gauge, the count of
/// commands in flight (request read → response flushed) across every
/// connection thread.
struct InFlightGuard;

impl InFlightGuard {
    fn enter() -> Self {
        streamlink_core::metrics::global()
            .serve_conn_queue_depth
            .incr();
        InFlightGuard
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        streamlink_core::metrics::global()
            .serve_conn_queue_depth
            .decr();
    }
}

/// Serves one accepted connection until the client quits, goes idle,
/// errors out, or the server drains.
pub(super) fn handle(stream: TcpStream, state: &ServerState) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "?".into(), |a| a.to_string());
    let poll = POLL_INTERVAL.max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(poll)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .is_err()
    {
        return;
    }
    // One write per response below; without this, Nagle + delayed ACK
    // add tens of milliseconds to every request round-trip.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{peer}: clone failed: {e}");
            return;
        }
    });
    let mut writer = stream;
    let mut line = String::new();
    let mut last_activity = Instant::now();
    let mut framed = false;
    loop {
        let buffered = line.len();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                // The request's arrival: the command's op opens here.
                last_activity = Instant::now();
                let _in_flight = InFlightGuard::enter();
                let trimmed = line.trim_end_matches(['\r', '\n']);
                match protocol::serve(state, trimmed, last_activity, &mut framed, &mut writer) {
                    Ok(false) => line.clear(),
                    Ok(true) | Err(_) => break,
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if line.len() > buffered {
                    // Partial progress mid-line still counts as activity.
                    last_activity = Instant::now();
                }
                if state.shutdown_requested() && line.is_empty() {
                    // Quiet connection during drain: close it so the
                    // server can finish shutting down.
                    break;
                }
                if last_activity.elapsed() >= state.config().idle_timeout {
                    streamlink_core::metrics::global().sheds_idle_timeout.incr();
                    let _ = writeln!(writer, "ERR idle timeout, closing");
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

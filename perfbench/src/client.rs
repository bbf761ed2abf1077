//! The real `streamlink serve` process, driven from outside over TCP.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::gen::Op;
use crate::procfs;
use crate::trace::Tracer;

/// A running server. Dropping it kills the process and waits for it, so
/// no server outlives the benchmark even on an error path.
pub struct Server {
    child: Child,
    // Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin serve <args>` and waits until it answers `PING`.
    /// Returns the server and the seconds from spawn to that answer.
    ///
    /// # Errors
    /// Fails if the process cannot start, exits before listening, or
    /// does not answer `PING`.
    pub fn start(bin: &Path, args: &[String], stderr_log: &Path) -> io::Result<(Server, f64)> {
        let start = Instant::now();
        // The server gets the program's cores; see `procfs::cpu_split`.
        let mut command = match procfs::cpu_split() {
            Some((program, _)) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &program]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = command
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(stderr_log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let listening = stdout.read_line(&mut line).map(|_| {
            line.trim()
                .strip_prefix("LISTENING ")
                .and_then(|a| a.parse::<SocketAddr>().ok())
        });
        let mut server = match listening {
            Ok(Some(addr)) => Server {
                child,
                _stdout: stdout,
                addr,
            },
            other => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(stderr_log).unwrap_or_default();
                return Err(io::Error::other(format!(
                    "server did not start ({other:?}): {}",
                    log.trim()
                )));
            }
        };
        let pong = Conn::open(server.addr)?.request(b"PING\n")?.to_string();
        let setup = start.elapsed().as_secs_f64();
        if pong != "OK pong" {
            server.kill();
            return Err(io::Error::other(format!("PING answered {pong:?}")));
        }
        Ok((server, setup))
    }

    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait: a durable server drains and writes its final
    /// checkpoint before exiting 0.
    ///
    /// # Errors
    /// Fails if the signal cannot be sent or the wait fails.
    pub fn terminate(mut self) -> io::Result<ExitStatus> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()?;
        if !sent.success() {
            return Err(io::Error::other("kill -TERM failed"));
        }
        self.child.wait()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// One client connection: a request line out, one reply line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// # Errors
    /// Fails if the connection cannot be made.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request and returns the reply line
    /// without its terminator.
    ///
    /// # Errors
    /// Fails on IO errors or when the server closes the connection.
    pub fn request(&mut self, req: &[u8]) -> io::Result<&str> {
        self.writer.write_all(req)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

/// When a closed loop warms up and when it measures; the measured part
/// is cut into equal slices.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub slice: Duration,
}

impl Window {
    /// A window measuring `seconds` after `warmup`, in `slice`-long parts.
    #[must_use]
    pub fn new(warmup: Duration, seconds: f64, slice: Duration) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
            slice,
        }
    }

    /// Number of slices (the last may be shorter).
    #[must_use]
    pub fn slices(&self) -> usize {
        let total = self.end.duration_since(self.start).as_secs_f64();
        (total / self.slice.as_secs_f64()).ceil().max(1.0) as usize
    }

    /// Length of slice `i` in seconds.
    #[must_use]
    pub fn slice_secs(&self, i: usize) -> f64 {
        let from = self.slice.as_secs_f64() * i as f64;
        let total = self.end.duration_since(self.start).as_secs_f64();
        (total - from).min(self.slice.as_secs_f64())
    }

    fn slice_of(&self, t: Instant) -> usize {
        let offset = t.duration_since(self.start).as_secs_f64();
        ((offset / self.slice.as_secs_f64()) as usize).min(self.slices() - 1)
    }
}

/// What one closed-loop connection did.
pub struct LoopResult {
    /// Exact latency of every request sent in the window, ns, per slice.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests not answered `OK` (or lost to a broken connection).
    pub failed: u64,
    /// Every `INSERT` the server acked, warm-up included.
    pub acked: Vec<(u64, u64)>,
    pub tracer: Option<Tracer>,
}

/// Client-side span names per op kind (one sampled request in
/// `TRACE_EVERY` is recorded).
fn span_name(op: Op) -> &'static str {
    match op {
        Op::Query(..) => "client.query",
        Op::Degree(_) => "client.degree",
        Op::Explain(..) => "client.explain",
        Op::Insert(..) => "client.insert",
        Op::Ping => "tcp.ping",
    }
}

const TRACE_EVERY: u64 = 16;

/// Runs one connection's closed loop: the next request goes out only
/// after the previous reply arrived. Requests start until `window.end`;
/// those started before `window.start` are the warm-up. Latency runs
/// from writing the request to reading the whole reply.
///
/// # Errors
/// Fails only if the connection cannot be opened; a connection that
/// breaks mid-loop counts one failed request and ends the loop.
pub fn closed_loop(
    addr: SocketAddr,
    ops: impl Iterator<Item = Op>,
    window: Window,
    tracer: Option<Tracer>,
) -> io::Result<LoopResult> {
    if let Some((_, load)) = procfs::cpu_split() {
        procfs::pin_current_thread(&load)?;
    }
    let mut conn = Conn::open(addr)?;
    let mut out = LoopResult {
        latencies_ns: vec![Vec::new(); window.slices()],
        attempted: 0,
        failed: 0,
        acked: Vec::new(),
        tracer,
    };
    let mut buf = Vec::with_capacity(64);
    for op in ops {
        op.write_line(&mut buf);
        let t0 = Instant::now();
        if t0 >= window.end {
            break;
        }
        out.attempted += 1;
        let ok = match conn.request(&buf) {
            Ok(reply) => reply.starts_with("OK"),
            Err(_) => {
                out.failed += 1;
                break;
            }
        };
        let t1 = Instant::now();
        if !ok {
            out.failed += 1;
        } else if let Op::Insert(u, v) = op {
            out.acked.push((u, v));
        }
        if t0 >= window.start {
            out.latencies_ns[window.slice_of(t0)].push(t1.duration_since(t0).as_nanos() as u64);
            if let Some(t) = &out.tracer {
                if out.attempted.is_multiple_of(TRACE_EVERY) {
                    t.record(span_name(op), t0, t1, 1);
                }
            }
        }
    }
    Ok(out)
}

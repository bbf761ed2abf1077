//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ingest|serve_read|serve_write> --seed N --seconds S --trace 0|1
//!           --server-bin PATH
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for
//! `--seconds` after a set-up and warm-up, checks the program's outputs,
//! and prints one JSON line as the last line of stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! nothing traced. With `--trace 1` the run is split into an untraced and
//! a traced half (their difference is the tracing overhead), then each
//! layer's public calls are timed in-process on the workload's own
//! inputs; the metrics are the per-layer ones, and every span is written
//! to `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! The program is touched only from outside: the serve workloads drive
//! the real `streamlink serve` binary over TCP and read its `/proc`
//! files; everything else calls public library functions.

mod client;
mod fixture;
mod gen;
mod ingest;
mod layers;
mod procfs;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where work files live, relative to the directory the benchmark runs in.
const WORK_ROOT: &str = ".perfbench";

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's verdict and numbers.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; report them as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// One slice of a measured window: its rate and exact percentiles.
pub struct Slice {
    pub ops_per_s: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub samples: usize,
    pub beyond_p99: usize,
}

impl Slice {
    /// A slice from its exact per-op latencies (any order) and the work
    /// it completed in `secs`. A slice in which no op started (every
    /// client stuck on an earlier one) has a rate but no percentiles.
    #[must_use]
    pub fn new(mut latencies_ns: Vec<u64>, ops: f64, secs: f64) -> Slice {
        latencies_ns.sort_unstable();
        let (p50_ns, p99_ns, beyond_p99) = if latencies_ns.is_empty() {
            (0, 0, 0)
        } else {
            (
                stats::percentile(&latencies_ns, 0.50),
                stats::percentile(&latencies_ns, 0.99),
                stats::beyond(&latencies_ns, 0.99),
            )
        };
        Slice {
            ops_per_s: ops / secs,
            p50_ns,
            p99_ns,
            samples: latencies_ns.len(),
            beyond_p99,
        }
    }
}

/// End-to-end numbers of one measured window, shared by all workloads.
/// The window is cut into slices, and each reported figure is the median
/// over slices, so a burst of interference on the host moves one slice,
/// not the result.
pub struct E2e {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// CPU time of the process under test per completed op, µs.
    pub cpu_us_per_op: f64,
}

impl E2e {
    pub fn throughput_ops_s(&self) -> f64 {
        stats::median(&self.slices.iter().map(|s| s.ops_per_s).collect::<Vec<_>>())
    }

    fn latency_us(&self, f: impl Fn(&Slice) -> u64) -> f64 {
        let timed = self.slices.iter().filter(|s| s.samples > 0);
        stats::median(&timed.map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
    }

    pub fn p50_us(&self) -> f64 {
        self.latency_us(|s| s.p50_ns)
    }

    pub fn p99_us(&self) -> f64 {
        self.latency_us(|s| s.p99_ns)
    }

    /// Adds the six end-to-end metrics every workload reports and logs
    /// the sample counts behind the percentiles.
    pub fn report(&self, r: &mut Report, setups: &[f64], rss_mb: f64, disk_bytes_per_edge: f64) {
        let fewest = self
            .slices
            .iter()
            .filter(|s| s.samples > 0)
            .min_by_key(|s| s.samples)
            .expect("no op was timed");
        eprintln!(
            "setup_s: median of {} starts; rate and latency: medians over {} slices, \
             the smallest with {} latency samples, {} beyond its p99",
            setups.len(),
            self.slices.len(),
            fewest.samples,
            fewest.beyond_p99,
        );
        let list = |f: &dyn Fn(&Slice) -> f64| {
            self.slices
                .iter()
                .map(|s| format!("{:.0}", f(s)))
                .collect::<Vec<_>>()
                .join(",")
        };
        eprintln!("slice ops/s: {}", list(&|s| s.ops_per_s));
        eprintln!("slice p50 ns: {}", list(&|s| s.p50_ns as f64));
        eprintln!("slice p99 ns: {}", list(&|s| s.p99_ns as f64));
        eprintln!("setup s: {setups:?}");
        r.metric("setup_s", stats::median(setups), "s");
        r.metric("throughput_ops_s", self.throughput_ops_s(), "ops/s");
        r.metric("latency_p50_us", self.p50_us(), "us");
        r.metric("latency_p99_us", self.p99_us(), "us");
        r.metric("rss_mb", rss_mb, "MB");
        r.metric("disk_bytes_per_edge", disk_bytes_per_edge, "B/edge");
    }
}

/// Writes every dirty page back to disk, so the kernel's writeback of the
/// inputs just generated does not compete with what is measured next.
///
/// # Errors
/// Fails if `sync` cannot run.
pub fn settle_disk() -> std::io::Result<()> {
    let status = std::process::Command::new("sync").status()?;
    if status.success() {
        Ok(())
    } else {
        Err(std::io::Error::other("sync failed"))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(WORK_ROOT);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        server_bin: args.server_bin,
        work: root.join(format!(
            "run-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        trace_out: root.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "ingest" => ingest::run(&ctx),
        "serve_read" => serve::run(&ctx, serve::Kind::Read),
        "serve_write" => serve::run(&ctx, serve::Kind::Write),
        other => Err(std::io::Error::other(format!("unknown workload {other:?}"))),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

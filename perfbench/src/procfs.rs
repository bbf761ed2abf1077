//! Readers for `/proc/<pid>/stat` and `/proc/<pid>/status`: the CPU time
//! and peak resident memory of the process under test, read from outside.

use std::io;

/// Kernel clock ticks per second for the `stat` time fields (`USER_HZ`,
/// fixed at 100 on Linux for every architecture's user ABI).
pub const TICKS_PER_SEC: u64 = 100;

/// CPU time consumed so far by every thread of a process, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    pub user: u64,
    pub system: u64,
}

impl CpuTicks {
    #[must_use]
    pub fn total_us(self) -> f64 {
        (self.user + self.system) as f64 * 1e6 / TICKS_PER_SEC as f64
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a `stat` line.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
#[must_use]
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, so utime (14) is the 12th here.
    let user = fields.nth(11)?.parse().ok()?;
    let system = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, system })
}

/// A `kB` field of a `status` file (e.g. `VmHWM`, `VmRSS`), in kB.
#[must_use]
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Cores of the host split between the program under test and the load
/// generator, so the two never compete for one core and the kernel
/// cannot move them into a different arrangement from run to run. `None`
/// on a single-core host, where nothing is pinned.
#[must_use]
pub fn cpu_split() -> Option<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    (cores >= 2).then(|| (format!("1-{}", cores - 1), "0".to_string()))
}

/// Pins the calling thread to `cpus` (a `taskset` CPU list). Threads it
/// spawns later inherit the pinning.
///
/// # Errors
/// Fails if the thread id cannot be read or `taskset` fails.
pub fn pin_current_thread(cpus: &str) -> io::Result<()> {
    let link = std::fs::read_link("/proc/thread-self")?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or_else(|| invalid("unreadable /proc/thread-self"))?
        .to_string();
    let status = std::process::Command::new("taskset")
        .args(["-pc", cpus, &tid])
        .stdout(std::process::Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!("taskset -pc {cpus} {tid} failed")))
    }
}

fn read(pid: Option<u32>, file: &str) -> io::Result<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(path)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// CPU ticks of `pid` (`None`: this process).
pub fn cpu(pid: Option<u32>) -> io::Result<CpuTicks> {
    parse_stat(&read(pid, "stat")?).ok_or_else(|| invalid("unparseable stat"))
}

/// Peak resident set (`VmHWM`) of `pid` (`None`: this process), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let kb = parse_status_kb(&read(pid, "status")?, "VmHWM").ok_or_else(|| invalid("no VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_odd_command_names() {
        let line = "4242 (stream link) (x)) S 1 4242 4242 0 -1 4194560 2718 0 0 0 \
                    1234 567 0 0 20 0 7 0 99 1000 50 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                user: 1234,
                system: 567
            })
        );
        assert_eq!(CpuTicks { user: 1, system: 1 }.total_us(), 20_000.0);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn status_kb_fields() {
        let status = "Name:\tstreamlink\nVmPeak:\t  900000 kB\nVmHWM:\t  218112 kB\n\
                      VmRSS:\t  200000 kB\nThreads:\t5\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(218_112));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(200_000));
        assert_eq!(parse_status_kb(status, "Threads"), None, "not a kB field");
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu(None).is_ok());
    }
}

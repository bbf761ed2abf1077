//! `streamlink scrub` — offline integrity audit (and repair) of a data
//! directory.
//!
//! Walks every snapshot generation and WAL segment, verifies the
//! framing each record actually uses — text v2 (versioned header +
//! whole-file CRC for snapshots, per-record CRC for journal lines) or
//! binary v3 (checksummed envelopes) — and prints one verdict per
//! file. Mixed-format directories are normal mid-migration; scrub
//! audits each record under its own framing. With `--repair` it heals
//! what it can: torn tails are truncated away, corrupt records and
//! snapshot generations are moved into `quarantine/` so restart-time
//! recovery never sees them.
//!
//! ## Exit codes (the contract with operators and CI)
//!
//! * `0` — every file verified clean.
//! * `1` — damage found, all of it survivable without losing acked
//!   records: torn tails (never-acked crash debris), corrupt records
//!   still covered by a good snapshot, corrupt generations shadowed by
//!   an older good generation plus the retained WAL.
//! * `2` — acked records were lost: corruption above the best good
//!   snapshot's coverage, or a replay gap the snapshots cannot bridge.
//!
//! The same exit code is published as the `scrub.last_exit` gauge
//! (visible via `--metrics-out`).

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use streamlink_core::codec;
use streamlink_core::durable;
use streamlink_core::journal::{self, JournalEntry, RecordKind};
use streamlink_core::snapshot::{self, SnapshotIntegrity};

use crate::args::Flags;

pub fn run(argv: &[String]) -> Result<u8, String> {
    let mut repair = false;
    let filtered: Vec<String> = argv
        .iter()
        .filter(|a| {
            let hit = a.as_str() == "--repair";
            repair |= hit;
            !hit
        })
        .cloned()
        .collect();
    let flags = Flags::parse(&filtered)?;
    let dir = PathBuf::from(flags.require("data-dir")?);
    if !dir.is_dir() {
        return Err(format!("--data-dir {}: not a directory", dir.display()));
    }
    let report = scrub(&dir, repair).map_err(|e| format!("scrub {}: {e}", dir.display()))?;
    let code = report.exit_code();
    streamlink_core::metrics::global()
        .scrub_last_exit
        .set(u64::from(code));
    super::write_metrics_out(&flags)?;
    super::write_trace_out(&flags)?;
    println!("{}", report.summary(repair));
    Ok(code)
}

/// Everything one scrub pass established about a data directory.
#[derive(Debug, Default)]
struct ScrubReport {
    snapshots_ok: usize,
    snapshots_corrupt: usize,
    records_ok: u64,
    records_legacy: u64,
    records_binary: u64,
    corrupt_records: u64,
    tail_dropped: u64,
    torn_files: usize,
    /// Acked records no surviving artifact can reproduce.
    lost_acked: u64,
}

impl ScrubReport {
    fn clean(&self) -> bool {
        self.snapshots_corrupt == 0 && self.corrupt_records == 0 && self.torn_files == 0
    }

    fn exit_code(&self) -> u8 {
        if self.lost_acked > 0 {
            2
        } else if self.clean() {
            0
        } else {
            1
        }
    }

    fn summary(&self, repair: bool) -> String {
        let state = if self.lost_acked > 0 {
            "LOSS"
        } else if self.clean() {
            "CLEAN"
        } else if repair {
            "REPAIRED"
        } else {
            "DAMAGED (rerun with --repair)"
        };
        format!(
            "scrub: {} snapshot(s) ok, {} corrupt; {} record(s) ok ({} legacy v1, \
             {} binary v3), {} corrupt, {} torn-tail; {} acked record(s) lost — {state}",
            self.snapshots_ok,
            self.snapshots_corrupt,
            self.records_ok,
            self.records_legacy,
            self.records_binary,
            self.corrupt_records,
            self.tail_dropped,
            self.lost_acked,
        )
    }
}

/// Verifies one snapshot through the same decoding path recovery uses,
/// keeping none of it, and returns a framing tag for the verdict line
/// and the edge count it carries.
fn check_snapshot(path: &Path) -> io::Result<(&'static str, u64)> {
    let mut head = Vec::with_capacity(codec::BINARY_MAGIC.len());
    File::open(path)?
        .take(codec::BINARY_MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    let (integrity, edges) = snapshot::verify_file(path)?;
    let tag = if codec::is_binary(&head) {
        "v3 verified"
    } else {
        match integrity {
            SnapshotIntegrity::Verified => "v2 verified",
            SnapshotIntegrity::Legacy => "v1 legacy, no checksum",
        }
    };
    Ok((tag, edges))
}

/// One journal record, owned (scrub outlives the segment buffer it was
/// scanned from), classified for repair and quarantine naming.
struct ScannedLine {
    /// The record's stored bytes: text lines without their newline
    /// terminator, binary envelopes whole.
    raw: Vec<u8>,
    /// The verified record, `None` for anything replay would not apply
    /// (malformed, bad CRC, truncated envelope, or an unterminated
    /// final line).
    entry: Option<JournalEntry>,
    kind: RecordKind,
}

/// Splits a segment into records the way replay does, sniffing each
/// record's framing (binary envelope vs text line) from its first
/// bytes.
fn scan_lines(bytes: &[u8]) -> Vec<ScannedLine> {
    journal::scan_segment(bytes)
        .into_iter()
        .map(|r| ScannedLine {
            raw: r.raw.to_vec(),
            entry: r.entry,
            kind: r.kind,
        })
        .collect()
}

fn scrub(dir: &Path, repair: bool) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();

    // --- Snapshots: every generation plus the legacy snapshot.json. ---
    // `coverage` is the highest WAL seq a *good* snapshot reproduces;
    // journal corruption at or below it costs nothing.
    let mut coverage = 0u64;
    let mut max_corrupt_gen = 0u64;
    let mut snapshots: Vec<(Option<u64>, PathBuf)> = durable::list_generations(dir)?
        .into_iter()
        .map(|(seq, path)| (Some(seq), path))
        .collect();
    let legacy_snapshot = durable::snapshot_path(dir);
    if legacy_snapshot.exists() {
        snapshots.insert(0, (None, legacy_snapshot));
    }
    for (gen_seq, path) in snapshots {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("snapshot")
            .to_string();
        match check_snapshot(&path) {
            Ok((tag, edges)) => {
                report.snapshots_ok += 1;
                // A legacy file carries no watermark in its name; its
                // edge count *is* its seq (pre-quarantine data dirs).
                coverage = coverage.max(gen_seq.unwrap_or(edges));
                println!("{name}: OK ({tag}, {edges} edges)");
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                report.snapshots_corrupt += 1;
                max_corrupt_gen = max_corrupt_gen.max(gen_seq.unwrap_or(0));
                if repair {
                    let moved = journal::quarantine_file(dir, &path);
                    let action = if moved {
                        "quarantined"
                    } else {
                        "quarantine FAILED"
                    };
                    println!("{name}: CORRUPT ({e}) — {action}");
                } else {
                    println!("{name}: CORRUPT ({e})");
                }
            }
            Err(e) => return Err(e),
        }
    }

    // --- WAL segments, classified exactly as replay classifies. ---
    let segments = journal::list_segments(dir)?;
    let mut scanned: Vec<(String, PathBuf, Vec<ScannedLine>)> = Vec::new();
    for (_, path) in &segments {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("wal.unknown.log")
            .to_string();
        scanned.push((name, path.clone(), scan_lines(&fs::read(path)?)));
    }

    // The last valid record in the whole chain: invalid lines after it
    // are the torn tail, invalid lines before it are rotted acked data.
    let last_valid: Option<(usize, usize)> = scanned
        .iter()
        .enumerate()
        .flat_map(|(seg, (_, _, lines))| {
            lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.entry.is_some())
                .map(move |(i, _)| (seg, i))
        })
        .next_back();

    let mut first_seq: Option<u64> = None;
    let mut prev_seq = 0u64;
    for (seg_idx, (name, path, lines)) in scanned.iter().enumerate() {
        let mut file_ok = 0u64;
        let mut file_legacy = 0u64;
        let mut file_binary = 0u64;
        let mut file_corrupt: Vec<usize> = Vec::new();
        let mut file_torn = 0u64;
        for (line_idx, line) in lines.iter().enumerate() {
            match &line.entry {
                Some(entry) => {
                    file_ok += 1;
                    file_legacy += u64::from(line.kind == RecordKind::LegacyLine);
                    file_binary += u64::from(line.kind == RecordKind::Binary);
                    first_seq = Some(first_seq.map_or(entry.seq, |s| s.min(entry.seq)));
                    prev_seq = entry.seq;
                }
                None if line.raw.is_empty() && Some((seg_idx, line_idx)) > last_valid => {
                    // Blank padding at the end of the chain.
                }
                None if last_valid.is_none_or(|pos| (seg_idx, line_idx) > pos) => {
                    file_torn += 1;
                }
                None => {
                    file_corrupt.push(line_idx);
                    // The rotted record's seq is gone with its bytes;
                    // its slot in the chain pins it well enough to ask
                    // whether a snapshot still covers it.
                    if prev_seq + 1 > coverage {
                        report.lost_acked += 1;
                    }
                }
            }
        }
        report.records_ok += file_ok;
        report.records_legacy += file_legacy;
        report.records_binary += file_binary;
        report.corrupt_records += file_corrupt.len() as u64;
        report.tail_dropped += file_torn;
        report.torn_files += usize::from(file_torn > 0);

        let mut verdict = if file_corrupt.is_empty() && file_torn == 0 {
            format!("OK ({file_ok} record(s))")
        } else {
            let mut parts = Vec::new();
            if !file_corrupt.is_empty() {
                parts.push(format!("{} corrupt record(s)", file_corrupt.len()));
            }
            if file_torn > 0 {
                parts.push(format!("torn tail ({file_torn} partial line(s))"));
            }
            format!("CORRUPT: {}", parts.join(", "))
        };
        if file_legacy > 0 {
            verdict.push_str(&format!(", {file_legacy} legacy v1 record(s)"));
        }
        if file_binary > 0 {
            verdict.push_str(&format!(", {file_binary} binary v3 record(s)"));
        }

        if repair && (!file_corrupt.is_empty() || file_torn > 0) {
            for &line_idx in &file_corrupt {
                journal::quarantine_bytes(
                    dir,
                    &format!("{name}.line{line_idx}.rec"),
                    &lines[line_idx].raw,
                );
            }
            rewrite_segment(path, lines)?;
            verdict.push_str(" — repaired (bad records quarantined, tail truncated)");
        }
        println!("{name}: {verdict}");
    }

    // --- Replay-gap accounting the per-record checks cannot see. ---
    if let Some(first) = first_seq {
        // The WAL only reaches back to `first`; everything older must
        // come from a good snapshot.
        if first > coverage.saturating_add(1) {
            let gap = first - coverage - 1;
            report.lost_acked += gap;
            println!(
                "gap: records {}..={} are neither in the WAL nor covered by a \
                 good snapshot ({gap} record(s) unrecoverable)",
                coverage + 1,
                first - 1,
            );
        }
    } else if max_corrupt_gen > coverage {
        // No journal records at all, and the best snapshot left standing
        // covers less than a corrupt generation claimed to.
        let gap = max_corrupt_gen - coverage;
        report.lost_acked += gap;
        println!(
            "gap: corrupt generation covered seq {max_corrupt_gen} but the best \
             surviving snapshot stops at {coverage} ({gap} record(s) unrecoverable)",
        );
    }

    Ok(report)
}

/// Rewrites a damaged segment in place to exactly its valid records, in
/// order and each under its original framing (raw bytes preserved, so a
/// repair never re-encodes acked data): corrupt records (already
/// quarantined by the caller) disappear and the torn tail is truncated
/// away. Atomic via the temp-file-then-rename protocol the snapshots
/// use.
fn rewrite_segment(path: &Path, lines: &[ScannedLine]) -> io::Result<()> {
    let mut content = Vec::new();
    for line in lines {
        if line.entry.is_none() {
            continue;
        }
        content.extend_from_slice(&line.raw);
        if line.kind != RecordKind::Binary {
            content.push(b'\n');
        }
    }
    let tmp = path.with_extension("log.tmp");
    fs::write(&tmp, &content)?;
    fs::rename(&tmp, path)
}

//! `streamlink scrub` — offline integrity audit (and repair) of a data
//! directory.
//!
//! Walks every snapshot generation and WAL segment, verifies each
//! checksummed v3 envelope, and prints one verdict per file. With
//! `--repair` it heals what it can: torn tails are truncated away,
//! corrupt records and snapshot generations are moved into
//! `quarantine/` so restart-time recovery never sees them.
//!
//! A file a pre-v3 build wrote (a text generation or segment, or a bare
//! `snapshot.json`) is not damage: scrub reads every file first and, on
//! finding one, prints a `PRE-V3` verdict per such file and stops, with
//! nothing judged or repaired (see `docs/OPERATIONS.md` §12.2).
//!
//! ## Exit codes (the contract with operators and CI)
//!
//! * `0` — every file verified clean.
//! * `1` — damage found, all of it survivable without losing acked
//!   records: torn tails (never-acked crash debris), corrupt records
//!   still covered by a good snapshot, corrupt generations shadowed by
//!   an older good generation plus the retained WAL.
//! * `2` — acked records were lost: corruption above the best good
//!   snapshot's coverage, or a replay gap the snapshots cannot bridge;
//!   or the directory holds a pre-v3 file, which this build cannot read.
//!
//! The same exit code is published as the `scrub.last_exit` gauge
//! (visible via `--metrics-out`).

use std::fs;
use std::io;
use std::path::Path;
use std::path::PathBuf;

use streamlink_core::durable;
use streamlink_core::journal::{self, ChainClassifier, ScannedRecord, Verdict};
use streamlink_core::snapshot;

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
    /// Files a pre-v3 build wrote; any stops the pass.
    pre_v3: usize,
    snapshots_ok: usize,
    snapshots_corrupt: usize,
    records_ok: u64,
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
        if self.pre_v3 > 0 || self.lost_acked > 0 {
            2
        } else if self.clean() {
            0
        } else {
            1
        }
    }

    fn summary(&self, repair: bool) -> String {
        if self.pre_v3 > 0 {
            return format!(
                "scrub: {} file(s) written by a pre-v3 build; nothing verified or \
                 repaired — PRE-V3 (see docs/OPERATIONS.md §12.2)",
                self.pre_v3
            );
        }
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
            "scrub: {} snapshot(s) ok, {} corrupt; {} record(s) ok ({} binary v3), \
             {} corrupt, {} torn-tail; {} acked record(s) lost — {state}",
            self.snapshots_ok,
            self.snapshots_corrupt,
            self.records_ok,
            self.records_ok,
            self.corrupt_records,
            self.tail_dropped,
            self.lost_acked,
        )
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unknown")
        .to_string()
}

fn scrub(dir: &Path, repair: bool) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();

    // --- Read and verify everything before judging or repairing
    // anything: a pre-v3 file stops the pass with the directory as it
    // was. ---
    let mut refused: Vec<(String, io::Error)> = Vec::new();
    if let Err(e) = durable::refuse_legacy_snapshot(dir) {
        refused.push((durable::LEGACY_SNAPSHOT.into(), e));
    }
    let mut generations: Vec<(u64, PathBuf, io::Result<u64>)> = Vec::new();
    for (seq, path) in durable::list_generations(dir)? {
        match snapshot::verify_file(&path) {
            Err(e) if e.kind() == io::ErrorKind::Unsupported => refused.push((file_name(&path), e)),
            Err(e) if e.kind() != io::ErrorKind::InvalidData => return Err(e),
            verified => generations.push((seq, path, verified)),
        }
    }
    let segments = journal::list_segments(dir)?;
    let mut files = Vec::with_capacity(segments.len());
    for (_, path) in &segments {
        match journal::read_segment(path) {
            Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                refused.push((file_name(path), e));
                files.push(Vec::new());
            }
            read => files.push(read?),
        }
    }
    if !refused.is_empty() {
        for (name, e) in &refused {
            println!("{name}: PRE-V3 ({e})");
        }
        report.pre_v3 = refused.len();
        return Ok(report);
    }

    // --- Snapshots. `coverage` is the highest WAL seq a *good* snapshot
    // reproduces; journal corruption at or below it costs nothing. ---
    let mut coverage = 0u64;
    let mut max_corrupt_gen = 0u64;
    for (seq, path, verified) in generations {
        let name = file_name(&path);
        match verified {
            Ok(edges) => {
                report.snapshots_ok += 1;
                coverage = coverage.max(seq);
                println!("{name}: OK (v3 verified, {edges} edges)");
            }
            Err(e) => {
                report.snapshots_corrupt += 1;
                max_corrupt_gen = max_corrupt_gen.max(seq);
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
        }
    }

    // --- WAL segments, classified exactly as replay classifies. ---
    let chain: Vec<Vec<ScannedRecord>> = files.iter().map(|b| journal::scan_segment(b)).collect();
    let classifier = ChainClassifier::new(&chain);
    let mut first_seq: Option<u64> = None;
    let mut prev_seq = 0u64;
    for (seg_idx, ((_, path), records)) in segments.iter().zip(&chain).enumerate() {
        let name = file_name(path);
        let mut file_ok = 0u64;
        let mut file_corrupt: Vec<usize> = Vec::new();
        let mut file_torn = 0u64;
        for (idx, record) in records.iter().enumerate() {
            match classifier.verdict(seg_idx, idx, record) {
                Verdict::Entry(entry) => {
                    file_ok += 1;
                    first_seq = Some(first_seq.map_or(entry.seq, |s| s.min(entry.seq)));
                    prev_seq = entry.seq;
                }
                Verdict::TornTail => file_torn += 1,
                Verdict::Rot => {
                    file_corrupt.push(idx);
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
        if file_ok > 0 {
            verdict.push_str(&format!(", {file_ok} binary v3 record(s)"));
        }

        if repair && (!file_corrupt.is_empty() || file_torn > 0) {
            for &idx in &file_corrupt {
                journal::quarantine_bytes(
                    dir,
                    &journal::quarantine_name(path, idx),
                    records[idx].raw,
                );
            }
            rewrite_segment(path, records)?;
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
/// order and as stored (raw bytes preserved, so a repair never
/// re-encodes acked data): corrupt records (already quarantined by the
/// caller) disappear and the torn tail is truncated away. Atomic via the
/// temp-file-then-rename protocol the snapshots use.
fn rewrite_segment(path: &Path, records: &[ScannedRecord]) -> io::Result<()> {
    let content: Vec<u8> = records
        .iter()
        .filter(|record| record.entry.is_some())
        .flat_map(|record| record.raw.iter().copied())
        .collect();
    let tmp = path.with_extension("log.tmp");
    fs::write(&tmp, &content)?;
    fs::rename(&tmp, path)
}

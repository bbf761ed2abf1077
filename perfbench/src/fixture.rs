//! The serving fixture: one generated graph, loaded into a k=64 store and
//! written two ways — a snapshot file for `serve --snapshot`, and a data
//! directory (snapshot generation plus journal tail) for
//! `serve --data-dir`.
//!
//! Both are written in binary v3, the format the ROADMAP keeps as the
//! only writer (text v2 stays readable). The server's own writes —
//! journal appends and checkpoints — use whatever its default format is,
//! since the benchmark passes no `--format`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graphstream::VertexId;
use streamlink_core::durable;
use streamlink_core::journal::{FsyncPolicy, Journal, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore, WireFormat};

use crate::gen;

/// Slots per vertex on the serving path.
pub const SERVE_K: usize = 64;
/// Edges at the end of the stream that live in the journal tail rather
/// than the snapshot generation (replayed on every `serve_write` start).
pub const TAIL_EDGES: usize = 100_000;
const FIXTURE_FORMAT: WireFormat = WireFormat::BinaryV3;

pub struct Fixture {
    pub seed: u64,
    pub edges: Vec<(u64, u64)>,
    /// Vertices in the seeded order op streams draw Zipf ranks from.
    pub by_popularity: Vec<u64>,
    /// The whole graph as one snapshot file.
    pub snapshot: PathBuf,
    /// A data directory: generation covering all but the tail, then the
    /// tail as journal records.
    pub data_dir: PathBuf,
}

impl Fixture {
    #[must_use]
    pub fn config(seed: u64) -> SketchConfig {
        SketchConfig::with_slots(SERVE_K).seed(seed)
    }

    /// Generates the graph for `seed` and writes both fixture forms
    /// under `work`.
    ///
    /// # Errors
    /// Fails on IO errors.
    pub fn build(seed: u64, work: &Path) -> io::Result<Fixture> {
        let edges = gen::power_law_edges(seed, gen::GRAPH);
        let by_popularity = gen::popularity_order(seed, &edges);
        let head = edges.len() - TAIL_EDGES;
        let mut store = SketchStore::new(Self::config(seed));
        for &(u, v) in &edges[..head] {
            store.insert_edge(VertexId(u), VertexId(v));
        }

        let data_dir = work.join("fixture-data");
        fs::create_dir_all(&data_dir)?;
        StoreSnapshot::capture(&store).write_atomic_as(
            &durable::generation_path(&data_dir, head as u64),
            FIXTURE_FORMAT,
        )?;
        let mut journal = Journal::create_with_format(
            &data_dir,
            head as u64 + 1,
            FsyncPolicy::OnRotate,
            FIXTURE_FORMAT,
            None,
        )?;
        for (i, &(u, v)) in edges[head..].iter().enumerate() {
            let (u, v) = (VertexId(u), VertexId(v));
            journal.append(JournalEntry {
                seq: (head + i + 1) as u64,
                u,
                v,
            })?;
            store.insert_edge(u, v);
        }
        journal.sync()?;

        let snapshot = work.join("fixture.snap");
        StoreSnapshot::capture(&store).write_atomic_as(&snapshot, FIXTURE_FORMAT)?;
        Ok(Fixture {
            seed,
            edges,
            by_popularity,
            snapshot,
            data_dir,
        })
    }

    /// The in-process store an unmodified server would serve.
    ///
    /// # Errors
    /// Fails if the fixture snapshot cannot be read.
    pub fn restore(&self) -> io::Result<SketchStore> {
        Ok(StoreSnapshot::read_from(&self.snapshot)?.restore())
    }

    /// A fresh copy of the data directory at `to`.
    ///
    /// # Errors
    /// Fails on IO errors.
    pub fn copy_data_dir(&self, to: &Path) -> io::Result<()> {
        if to.exists() {
            fs::remove_dir_all(to)?;
        }
        fs::create_dir_all(to)?;
        for entry in fs::read_dir(&self.data_dir)? {
            let entry = entry?;
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    }
}

/// Bytes of snapshot generations plus journal segments in a data dir.
///
/// # Errors
/// Fails if the directory cannot be listed.
pub fn data_dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let snapshot = name.starts_with("snapshot.") && name.ends_with(".json");
        let segment = name.starts_with("wal.") && name.ends_with(".log");
        if snapshot || segment {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

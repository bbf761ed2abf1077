//! Snapshots of a sketch store.
//!
//! A [`StoreSnapshot`] is a plain-data image of a [`SketchStore`]:
//! persist it, ship it across processes, or archive per-epoch states of
//! a long-running stream. Restoring rebuilds the hasher bank from the
//! embedded config, so a restored store continues ingesting the stream
//! exactly where the original left off.
//!
//! ## Crash-safe writes
//!
//! [`StoreSnapshot::write_atomic`] uses the temp-file–fsync–rename
//! protocol: readers either see the previous complete snapshot or the
//! new complete snapshot, never a torn one. A crash mid-write leaves at
//! most a stale `.tmp` file, which the next successful write replaces.
//!
//! ## Loading
//!
//! [`load_store`] streams a v3 file through the codec's one body decoder
//! straight into a [`SketchStore`]: one buffered pass, one allocation per
//! vertex, the CRC folded over each buffer as it goes, and the store
//! returned only once the trailer verifies. Loading therefore peaks at
//! about the live store, not at the file plus a decoded image plus the
//! store.
//!
//! ## Verifiable files
//!
//! Atomic rename proves a snapshot was written *whole*; it proves nothing
//! about the bytes staying intact afterwards. Every file is therefore
//! written as a checksummed binary v3 envelope ([`crate::codec`]), so
//! truncation and bit rot are detected before anything is decoded.
//!
//! v3 is the only format read. A file that fails to decode and opens
//! with a pre-v3 snapshot signature is refused by name
//! ([`codec::refuse_pre_v3`]) rather than reported as damage.

use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use graphstream::VertexId;

use crate::codec::{self, FileKind, SnapshotSink};
use crate::config::{HasherBank, SketchConfig};
use crate::sketch::VertexSketch;
use crate::store::SketchStore;

fn corrupt(path: &Path, detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt snapshot {}: {detail}", path.display()),
    )
}

/// Writes `parts`, one after another, to `path` atomically: temp file in
/// the same directory, flush + fsync, rename over the target, fsync the
/// directory.
fn write_atomic_bytes(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync can be unsupported on
    // some filesystems; failing the write for that would be worse than
    // the (tiny) window it closes.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// One vertex's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexEntry {
    /// The vertex.
    pub vertex: VertexId,
    /// Its sketch.
    pub sketch: VertexSketch,
    /// Its degree counter.
    pub degree: u64,
    /// Under the Tabulation backend only, each slot's argmin: `Some` once
    /// any slot is filled. `None` under Mixer, whose argmins are
    /// recovered from the slot hashes.
    pub argmins: Option<Box<[VertexId]>>,
}

impl VertexEntry {
    /// The argmin of slot `i`, which holds `hash`: recovered through the
    /// bank under Mixer, read from the column under Tabulation.
    pub(crate) fn argmin(&self, bank: &HasherBank, i: usize, hash: u64) -> Option<VertexId> {
        match bank.invert(i, hash) {
            Some(key) => Some(VertexId(key)),
            None => self
                .argmins
                .as_ref()
                .and_then(|column| column.get(i).copied()),
        }
    }
}

/// A plain-data image of a whole store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// The configuration (slots, seed, backend).
    pub config: SketchConfig,
    /// Edges processed when the snapshot was taken.
    pub edges_processed: u64,
    /// Per-vertex state, sorted by vertex id for deterministic output.
    pub vertices: Vec<VertexEntry>,
}

impl StoreSnapshot {
    /// Captures a snapshot of `store`.
    #[must_use]
    pub fn capture(store: &SketchStore) -> Self {
        let mut vertices: Vec<VertexEntry> = store.entries().collect();
        vertices.sort_by_key(|e| e.vertex);
        Self {
            config: *store.config(),
            edges_processed: store.edges_processed(),
            vertices,
        }
    }

    /// Restores a live store from the snapshot, cloning every sketch
    /// (see [`Self::into_store`] to move them instead).
    #[must_use]
    pub fn restore(&self) -> SketchStore {
        let mut store =
            SketchStore::with_capacity(self.config, self.edges_processed, self.vertices.len());
        for entry in &self.vertices {
            store.push(entry.clone());
        }
        store
    }

    /// Turns the snapshot into a live store, moving every sketch into it.
    #[must_use]
    pub fn into_store(self) -> SketchStore {
        let mut store =
            SketchStore::with_capacity(self.config, self.edges_processed, self.vertices.len());
        for entry in self.vertices {
            store.push(entry);
        }
        store
    }

    /// Persists the snapshot at `path` as a binary v3 file using the
    /// atomic temp-file–fsync–rename protocol. The body is encoded once
    /// and written between its header and trailer as it is, never
    /// copied into a whole-file buffer.
    ///
    /// # Errors
    /// Fails on IO errors, or with [`io::ErrorKind::InvalidData`] when
    /// the store's encoding is past the codec's body limit
    /// ([`codec::MAX_BODY_LEN`]); the previous snapshot at `path` (if
    /// any) is untouched on failure.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let body = codec::store_snapshot_body(self)?;
        let (header, trailer) = codec::envelope_frame(codec::MODE_STORE_SNAPSHOT, &body);
        write_atomic_bytes(path, &[&header, &body, &trailer])
    }

    /// [`Self::write_atomic`] under the signature the `perfbench`
    /// harness calls; `WireFormat` has a single value.
    ///
    /// # Errors
    /// As [`Self::write_atomic`].
    pub fn write_atomic_as(&self, path: &Path, _format: codec::WireFormat) -> io::Result<()> {
        self.write_atomic(path)
    }

    /// Loads a v3 snapshot file.
    ///
    /// # Errors
    /// Fails if the file is missing ([`io::ErrorKind::NotFound`]), does
    /// not verify ([`io::ErrorKind::InvalidData`]), or was written by a
    /// pre-v3 build ([`io::ErrorKind::Unsupported`], see
    /// [`codec::refuse_pre_v3`]).
    pub fn read_from(path: &Path) -> io::Result<Self> {
        read_file(path)
    }
}

/// How much of a v3 file one read brings in; the CRC is folded over each
/// such buffer as the decoder finishes with it.
const READ_BUFFER: usize = 256 * 1024;

/// Reads the v3 snapshot file at `path`, streaming its body through
/// the codec's decoder into `S`. Only a file that fails to decode is
/// checked for a pre-v3 signature, which turns the failure into a
/// refusal by name instead of damage.
fn read_file<S: SnapshotSink>(path: &Path) -> io::Result<S> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    codec::read_store_snapshot(BufReader::with_capacity(READ_BUFFER, file), len).map_err(|e| {
        if e.kind() != io::ErrorKind::InvalidData {
            return e;
        }
        let mut head = Vec::with_capacity(codec::PRE_V3_HEAD_LEN);
        let refused = File::open(path)
            .and_then(|f| f.take(codec::PRE_V3_HEAD_LEN as u64).read_to_end(&mut head))
            .and_then(|_| codec::refuse_pre_v3(FileKind::Snapshot, path, &head));
        match refused {
            Err(refusal) if refusal.kind() == io::ErrorKind::Unsupported => refusal,
            _ => corrupt(path, &e.to_string()),
        }
    })
}

/// Loads the store a v3 snapshot file holds without building a
/// [`StoreSnapshot`]: the body streams into the store's vertex map (see
/// the module docs).
///
/// # Errors
/// As [`StoreSnapshot::read_from`].
pub fn load_store(path: &Path) -> io::Result<SketchStore> {
    read_file(path)
}

/// Verifies the snapshot file at `path` exactly as a load would,
/// without keeping its vertices, and returns the edge count it carries.
/// The body streams through the decoder, so this holds one read buffer,
/// not the file.
///
/// # Errors
/// As [`StoreSnapshot::read_from`].
pub fn verify_file(path: &Path) -> io::Result<u64> {
    let EdgeCount(edges) = read_file(path)?;
    Ok(edges)
}

/// A [`SnapshotSink`] that keeps only the edge count.
struct EdgeCount(u64);

impl SnapshotSink for EdgeCount {
    fn with_capacity(_config: SketchConfig, edges_processed: u64, _count: usize) -> Self {
        EdgeCount(edges_processed)
    }

    fn push(&mut self, _entry: VertexEntry) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn populated() -> SketchStore {
        let mut s = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        s.insert_stream(BarabasiAlbert::new(150, 2, 8).edges());
        s
    }

    #[test]
    fn capture_restore_preserves_everything() {
        let original = populated();
        let restored = StoreSnapshot::capture(&original).restore();
        assert_eq!(restored.vertex_count(), original.vertex_count());
        assert_eq!(restored.edges_processed(), original.edges_processed());
        for v in original.vertices() {
            assert_eq!(restored.degree(v), original.degree(v));
            assert_eq!(restored.sketch(v), original.sketch(v));
        }
    }

    #[test]
    fn restored_store_answers_identically() {
        let original = populated();
        let restored = StoreSnapshot::capture(&original).restore();
        for u in 0..30u64 {
            for v in (u + 1)..30u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(original.jaccard(u, v), restored.jaccard(u, v));
                assert_eq!(original.adamic_adar(u, v), restored.adamic_adar(u, v));
            }
        }
    }

    #[test]
    fn restored_store_continues_ingesting_consistently() {
        // Split a stream; snapshot after the prefix; restored store fed
        // the suffix must equal a store fed the whole stream.
        let edges: Vec<_> = BarabasiAlbert::new(200, 2, 6).edges().collect();
        let (head, tail) = edges.split_at(edges.len() / 2);

        let mut prefix_store = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        prefix_store.insert_stream(head.iter().copied());
        let mut resumed = StoreSnapshot::capture(&prefix_store).restore();
        resumed.insert_stream(tail.iter().copied());

        let mut whole = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        whole.insert_stream(edges.iter().copied());

        for v in whole.vertices() {
            assert_eq!(resumed.sketch(v), whole.sketch(v), "divergence at {v}");
            assert_eq!(resumed.degree(v), whole.degree(v));
        }
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let s = populated();
        let a = codec::encode_store_snapshot(&StoreSnapshot::capture(&s)).unwrap();
        let b = codec::encode_store_snapshot(&StoreSnapshot::capture(&s)).unwrap();
        assert_eq!(
            a, b,
            "snapshots of the same store must serialize identically"
        );
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = SketchStore::new(SketchConfig::with_slots(4));
        let restored = StoreSnapshot::capture(&s).restore();
        assert_eq!(restored.vertex_count(), 0);
        assert_eq!(restored.edges_processed(), 0);
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "streamlink-snap-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    #[test]
    fn atomic_write_replaces_previous_snapshot() {
        let path = temp_path("replace");
        let mut store = populated();
        StoreSnapshot::capture(&store).write_atomic(&path).unwrap();
        store.insert_edge(VertexId(1000), VertexId(1001));
        let newer = StoreSnapshot::capture(&store);
        newer.write_atomic(&path).unwrap();
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), newer);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_file_does_not_break_reads_or_writes() {
        // A crash between temp-write and rename leaves `.json.tmp`; the
        // real snapshot must stay readable and the next write must win.
        let path = temp_path("staletmp");
        let snap = StoreSnapshot::capture(&populated());
        snap.write_atomic(&path).unwrap();
        fs::write(path.with_extension("json.tmp"), b"{ torn garbage").unwrap();
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap);
        snap.write_atomic(&path).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_errors_are_typed() {
        let missing = temp_path("missing");
        let err = StoreSnapshot::read_from(&missing).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

        let corrupt = temp_path("corrupt");
        fs::write(&corrupt, b"not json at all").unwrap();
        let err = StoreSnapshot::read_from(&corrupt).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        fs::remove_file(&corrupt).unwrap();
    }

    #[test]
    fn writes_are_binary_v3() {
        let path = temp_path("v3");
        let snap = StoreSnapshot::capture(&populated());
        snap.write_atomic(&path).unwrap();
        assert!(fs::read(&path).unwrap().starts_with(&codec::BINARY_MAGIC));
        assert!(
            !path.with_extension("json.tmp").exists(),
            "no temp file left"
        );
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap);
        // A flipped payload bit fails the envelope CRC.
        crate::chaos::flip_bit(&path, 40, 0).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_appended_after_payload_is_detected() {
        let path = temp_path("trailing");
        StoreSnapshot::capture(&populated())
            .write_atomic(&path)
            .unwrap();
        crate::chaos::append_garbage(&path, b"   {}").unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_robust_mode_fails_closed_on_every_read_path() {
        // A well-formed store body under the retired 0x03 mode byte must
        // be refused on the mode, not decoded as a store.
        let body = codec::store_snapshot_body(&StoreSnapshot::capture(&populated())).unwrap();
        let bytes = codec::encode_envelope(codec::MODE_ROBUST_SNAPSHOT, &body);
        let bad_mode = codec::CodecError::BadMode(0x03);
        assert_eq!(codec::decode_store_snapshot(&bytes), Err(bad_mode.clone()));

        let path = temp_path("retired-mode");
        fs::write(&path, &bytes).unwrap();
        let errors = [
            load_store(&path).map(drop).unwrap_err(),
            verify_file(&path).map(drop).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&bad_mode.to_string()), "{err}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_v3_files_fail_closed_on_every_read_path() {
        // The bytes pre-v3 builds wrote, committed as golden files: a v2
        // generation, a v1 `snapshot.json`, a v1 `E` and a v2 `F` segment.
        const V2_GENERATION: &[u8] =
            include_bytes!("../../cli/tests/fixtures/pre_v3/snapshot.6.json");
        const V1_SNAPSHOT: &[u8] = include_bytes!("../../cli/tests/fixtures/pre_v3/snapshot.json");
        const V1_SEGMENT: &[u8] = include_bytes!("../../cli/tests/fixtures/pre_v3/wal.1.log");
        const V2_SEGMENT: &[u8] = include_bytes!("../../cli/tests/fixtures/pre_v3/wal.7.log");
        let refused = |err: io::Error, file: &Path| {
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
            let msg = err.to_string();
            assert!(msg.starts_with(&format!("{}: ", file.display())), "{msg}");
            assert!(msg.contains(codec::LAST_PRE_V3_READER), "{msg}");
        };
        let config = SketchConfig::with_slots(8).seed(42);

        // `load_store` (`serve --snapshot`, `query`, `top`, `recommend`)
        // and `verify_file` (`scrub`) refuse either snapshot format.
        for bytes in [V2_GENERATION, V1_SNAPSHOT] {
            let path = temp_path("pre-v3");
            fs::write(&path, bytes).unwrap();
            refused(load_store(&path).map(drop).unwrap_err(), &path);
            refused(verify_file(&path).map(drop).unwrap_err(), &path);
            refused(
                StoreSnapshot::read_from(&path).map(drop).unwrap_err(),
                &path,
            );
            fs::remove_file(&path).unwrap();
        }

        // `recover` refuses a pre-v3 generation, a bare `snapshot.json`
        // and a pre-v3 segment, and `replay` the segments; none of them
        // quarantines, truncates or writes anything.
        for (name, bytes) in [
            ("snapshot.6.json", V2_GENERATION),
            ("snapshot.json", V1_SNAPSHOT),
            ("wal.1.log", V1_SEGMENT),
            ("wal.7.log", V2_SEGMENT),
        ] {
            let dir = temp_path("pre-v3-dir");
            fs::create_dir_all(&dir).unwrap();
            let file = dir.join(name);
            fs::write(&file, bytes).unwrap();
            refused(crate::durable::recover(&dir, config).unwrap_err(), &file);
            if name.starts_with("wal.") {
                let err = crate::journal::replay(&dir, 0, |_| panic!("nothing applies"));
                refused(err.unwrap_err(), &file);
            }
            let left: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(left, vec![file.clone()], "{name}: nothing added or moved");
            assert_eq!(fs::read(&file).unwrap(), bytes, "{name}: bytes unchanged");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

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
//! Reads also accept the two retired text formats, so old data
//! directories load unmodified. v2 carries a versioned header with a
//! whole-payload digest:
//!
//! ```text
//! STREAMLINK-SNAP v2 len=<payload bytes> crc32=<lower-hex-8>\n
//! <JSON payload>
//! ```
//!
//! The CRC-32 ([`hashkit::crc32()`]) covers the payload and `len` pins
//! its exact size. v1 is bare JSON with no header: it loads, but cannot
//! be *verified* (see [`SnapshotIntegrity::Legacy`]).

use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use hashkit::crc32;
use serde::{Deserialize, Error, Serialize, Value};

use graphstream::VertexId;

use crate::codec::{self, SnapshotSink};
use crate::config::{HasherBackend, HasherBank, SketchConfig};
use crate::sketch::{Slot, VertexSketch};
use crate::store::SketchStore;

/// The magic prefix of a v2 snapshot header line.
pub const SNAPSHOT_MAGIC: &str = "STREAMLINK-SNAP";

/// What the framing check proved about a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotIntegrity {
    /// v3 envelope CRC, or v2 length and payload CRC, verified.
    Verified,
    /// Legacy v1 file — parseable bare JSON, but carrying no digest, so
    /// integrity cannot be proven.
    Legacy,
}

/// Verifies v2/v1 text framing, returning the JSON payload and what the
/// check proved.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] for a malformed header, a length
/// mismatch (truncation or trailing garbage), or a CRC mismatch (bit
/// rot). The message says which.
fn verify_text(bytes: &[u8]) -> io::Result<(String, SnapshotIntegrity)> {
    let invalid = |detail: &str| io::Error::new(io::ErrorKind::InvalidData, detail.to_string());
    let content = std::str::from_utf8(bytes).map_err(|_| invalid("unreadable or not UTF-8"))?;
    let Some(rest) = content.strip_prefix(SNAPSHOT_MAGIC) else {
        // No magic: a legacy v1 bare-JSON snapshot.
        return Ok((content.to_string(), SnapshotIntegrity::Legacy));
    };
    let (header, payload) = rest
        .split_once('\n')
        .ok_or_else(|| invalid("v2 header line is unterminated"))?;
    let mut fields = header.split(' ').filter(|f| !f.is_empty());
    if fields.next() != Some("v2") {
        return Err(invalid("unsupported snapshot format version"));
    }
    let len: usize = fields
        .next()
        .and_then(|f| f.strip_prefix("len="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid("v2 header has no parseable len field"))?;
    let expected: u32 = fields
        .next()
        .and_then(|f| f.strip_prefix("crc32="))
        .filter(|v| v.len() == 8)
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| invalid("v2 header has no parseable crc32 field"))?;
    if payload.len() != len {
        return Err(invalid(&format!(
            "payload length mismatch: header says {len} bytes, file holds {}",
            payload.len()
        )));
    }
    let found = crc32(payload.as_bytes());
    if found != expected {
        return Err(invalid(&format!(
            "payload CRC mismatch: header {expected:08x}, computed {found:08x}"
        )));
    }
    Ok((payload.to_string(), SnapshotIntegrity::Verified))
}

fn corrupt(path: &Path, detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt snapshot {}: {detail}", path.display()),
    )
}

/// Re-wraps an `InvalidData` error with the snapshot's path context;
/// other kinds (e.g. `NotFound`) pass through untouched.
fn rewrap(e: io::Error, path: &Path) -> io::Error {
    if e.kind() == io::ErrorKind::InvalidData {
        corrupt(path, &e.to_string())
    } else {
        e
    }
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

    /// The v1/v2 JSON object: `{"vertex", "sketch": {"slots": [{"hash",
    /// "argmin"}, ..]}, "degree"}`, each argmin derived from its slot.
    fn to_json(&self, bank: &HasherBank) -> Value {
        let slots = self
            .sketch
            .slots()
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let argmin = if slot.is_empty() {
                    Some(VertexId(u64::MAX))
                } else {
                    self.argmin(bank, i, slot.hash)
                };
                Value::Object(vec![
                    ("hash".into(), slot.hash.to_value()),
                    ("argmin".into(), argmin.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("vertex".into(), self.vertex.to_value()),
            (
                "sketch".into(),
                Value::Object(vec![("slots".into(), Value::Array(slots))]),
            ),
            ("degree".into(), self.degree.to_value()),
        ])
    }

    /// Reads a v1/v2 JSON vertex object, refusing a sketch whose width is
    /// not the config's or a filled slot whose argmin does not hash to
    /// it; the argmins are then dropped, except for Tabulation's column.
    fn from_json(value: &Value, config: &SketchConfig, bank: &HasherBank) -> Result<Self, Error> {
        let slots = field(field(value, "sketch")?, "slots")?
            .as_array()
            .ok_or_else(|| Error::custom("sketch slots are not an array"))?;
        if slots.len() != config.slots() {
            return Err(Error::custom("sketch width differs from the config's"));
        }
        let mut hashes = Vec::with_capacity(slots.len());
        let mut column = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let hash = u64::from_value(field(slot, "hash")?)?;
            let argmin = u64::from_value(field(slot, "argmin")?)?;
            let filled = !(Slot { hash }).is_empty();
            if filled && bank.hash(i, argmin) != hash {
                return Err(Error::custom("slot argmin does not hash to its slot"));
            }
            hashes.push(Slot { hash });
            column.push(VertexId(argmin));
        }
        let any_filled = hashes.iter().any(|s| !s.is_empty());
        let tabulation = config.hasher_backend() == HasherBackend::Tabulation;
        Ok(Self {
            vertex: VertexId::from_value(field(value, "vertex")?)?,
            sketch: VertexSketch::from_slots(hashes.into_boxed_slice()),
            degree: u64::from_value(field(value, "degree")?)?,
            argmins: (tabulation && any_filled).then(|| column.into_boxed_slice()),
        })
    }
}

/// The member `name` of a JSON object.
fn field<'a>(value: &'a Value, name: &str) -> Result<&'a Value, Error> {
    value
        .get(name)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

/// A serializable image of a whole store.
///
/// Its v1/v2 JSON form is serialized here rather than derived: the JSON
/// carries each slot's argmin, which only the config's hash functions
/// can derive (when writing) or check (when reading).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// The configuration (slots, seed, backend).
    pub config: SketchConfig,
    /// Edges processed when the snapshot was taken.
    pub edges_processed: u64,
    /// Per-vertex state, sorted by vertex id for deterministic output.
    pub vertices: Vec<VertexEntry>,
}

impl Serialize for StoreSnapshot {
    fn to_value(&self) -> Value {
        let bank = self.config.build_bank();
        Value::Object(vec![
            ("config".into(), self.config.to_value()),
            ("edges_processed".into(), self.edges_processed.to_value()),
            (
                "vertices".into(),
                Value::Array(self.vertices.iter().map(|e| e.to_json(&bank)).collect()),
            ),
        ])
    }
}

impl Deserialize for StoreSnapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let config = SketchConfig::from_value(field(value, "config")?)?;
        let bank = config.build_bank();
        let vertices = field(value, "vertices")?
            .as_array()
            .ok_or_else(|| Error::custom("vertices are not an array"))?
            .iter()
            .map(|entry| VertexEntry::from_json(entry, &config, &bank))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            config,
            edges_processed: u64::from_value(field(value, "edges_processed")?)?,
            vertices,
        })
    }
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

    /// Loads a snapshot file in any format this crate ever wrote (v3
    /// binary, v2 framed text, v1 bare JSON), sniffing it from the bytes.
    ///
    /// # Errors
    /// Fails if the file is missing ([`io::ErrorKind::NotFound`]) or does
    /// not verify ([`io::ErrorKind::InvalidData`]).
    pub fn read_from(path: &Path) -> io::Result<Self> {
        Ok(Self::read_with_integrity(path)?.0)
    }

    /// Like [`Self::read_from`], also reporting what the framing check
    /// proved. Binary v3 snapshots always verify (the envelope CRC is
    /// mandatory); text snapshots report v2 verified or v1 legacy.
    ///
    /// # Errors
    /// Fails if the file is missing or does not verify.
    pub fn read_with_integrity(path: &Path) -> io::Result<(Self, SnapshotIntegrity)> {
        read_file(path, |snap| snap)
    }

    /// Decodes the contents of a v2 or v1 text snapshot file.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] when the bytes do not verify.
    pub(crate) fn decode_text(bytes: &[u8]) -> io::Result<(Self, SnapshotIntegrity)> {
        let (payload, integrity) = verify_text(bytes)?;
        let snap = serde_json::from_str(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((snap, integrity))
    }
}

/// How much of a v3 file one read brings in; the CRC is folded over each
/// such buffer as the decoder finishes with it.
const READ_BUFFER: usize = 256 * 1024;

/// Reads the snapshot file at `path`, sniffing its format from the first
/// bytes. A v3 file streams through the codec's body decoder into `S`;
/// a v1 or v2 text file is read whole, decoded as JSON, and handed to
/// `from_text`.
fn read_file<S: SnapshotSink>(
    path: &Path,
    from_text: impl FnOnce(StoreSnapshot) -> S,
) -> io::Result<(S, SnapshotIntegrity)> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut head = Vec::with_capacity(codec::BINARY_MAGIC.len());
    (&mut file)
        .take(codec::BINARY_MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    let binary = codec::is_binary(&head);
    let mut source = io::Cursor::new(head).chain(file);
    if binary {
        let sink = codec::read_store_snapshot(BufReader::with_capacity(READ_BUFFER, source), len)
            .map_err(|e| rewrap(e, path))?;
        return Ok((sink, SnapshotIntegrity::Verified));
    }
    let mut bytes = Vec::new();
    source.read_to_end(&mut bytes)?;
    let (snap, integrity) = StoreSnapshot::decode_text(&bytes).map_err(|e| rewrap(e, path))?;
    Ok((from_text(snap), integrity))
}

/// Loads the store a snapshot file holds, in any format this crate ever
/// wrote, without building a [`StoreSnapshot`] for a v3 file: the body
/// streams into the store's vertex map (see the module docs).
///
/// # Errors
/// As [`StoreSnapshot::read_from`].
pub fn load_store(path: &Path) -> io::Result<SketchStore> {
    Ok(read_file(path, StoreSnapshot::into_store)?.0)
}

/// Verifies the snapshot file at `path` exactly as a load would, in any
/// format this crate ever wrote, without keeping its vertices: returns
/// what the framing check proved and the edge count the snapshot
/// carries. A v3 file streams through the body decoder, so this holds
/// one read buffer, not the file.
///
/// # Errors
/// As [`StoreSnapshot::read_from`].
pub fn verify_file(path: &Path) -> io::Result<(SnapshotIntegrity, u64)> {
    let (EdgeCount(edges), integrity) = read_file(path, |snap| EdgeCount(snap.edges_processed))?;
    Ok((integrity, edges))
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
    fn json_roundtrip() {
        let snap = StoreSnapshot::capture(&populated());
        let json = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
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

    /// Writes the v2 text fixture of the populated store at `path`.
    fn write_v2(path: &Path) {
        let snap = StoreSnapshot::capture(&populated());
        fs::write(path, codec::v2::store_snapshot(&snap)).unwrap();
    }

    #[test]
    fn writes_are_binary_v3() {
        let path = temp_path("v3");
        let snap = StoreSnapshot::capture(&populated());
        snap.write_atomic(&path).unwrap();
        assert!(codec::is_binary(&fs::read(&path).unwrap()));
        assert!(
            !path.with_extension("json.tmp").exists(),
            "no temp file left"
        );
        let (back, integrity) = StoreSnapshot::read_with_integrity(&path).unwrap();
        assert_eq!(back, snap);
        assert_eq!(integrity, SnapshotIntegrity::Verified);
        // A flipped payload bit fails the envelope CRC.
        crate::chaos::flip_bit(&path, 40, 0).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_file_carries_verifiable_header() {
        let path = temp_path("v2header");
        write_v2(&path);
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("STREAMLINK-SNAP v2 len="), "{content}");
        let (payload, integrity) = verify_text(content.as_bytes()).unwrap();
        assert_eq!(integrity, SnapshotIntegrity::Verified);
        assert!(payload.starts_with('{'), "payload is the bare JSON");
        let (snap, integrity) = StoreSnapshot::read_with_integrity(&path).unwrap();
        assert_eq!(integrity, SnapshotIntegrity::Verified);
        assert_eq!(snap, StoreSnapshot::capture(&populated()));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_bare_json_still_reads_as_legacy() {
        // A pre-framing data dir: bare JSON, no header.
        let path = temp_path("v1compat");
        let snap = StoreSnapshot::capture(&populated());
        fs::write(&path, codec::v2::legacy_store_snapshot(&snap)).unwrap();
        let (back, integrity) = StoreSnapshot::read_with_integrity(&path).unwrap();
        assert_eq!(integrity, SnapshotIntegrity::Legacy);
        assert_eq!(back, snap);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_bit_flip_is_detected_before_parsing() {
        let path = temp_path("bitflip");
        write_v2(&path);
        let header_len = fs::read_to_string(&path).unwrap().find('\n').unwrap() as u64 + 1;
        // Flip a low bit of a payload digit: likely still valid JSON —
        // only the CRC can catch it.
        crate::chaos::flip_bit(&path, header_len + 40, 0).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected_by_length_check() {
        let path = temp_path("truncate");
        write_v2(&path);
        crate::chaos::tear_file(&path, 17).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_appended_after_payload_is_detected() {
        let path = temp_path("trailing");
        write_v2(&path);
        crate::chaos::append_garbage(&path, b"   {}").unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_is_rejected_not_misparsed() {
        let path = temp_path("badheader");
        for bad in [
            "STREAMLINK-SNAP v9 len=2 crc32=00000000\n{}",
            "STREAMLINK-SNAP v2 len=x crc32=00000000\n{}",
            "STREAMLINK-SNAP v2 len=2 crc32=nothex00\n{}",
            "STREAMLINK-SNAP v2 len=2 crc32=00000000", // no payload line
        ] {
            fs::write(&path, bad).unwrap();
            let err = StoreSnapshot::read_from(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
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
}

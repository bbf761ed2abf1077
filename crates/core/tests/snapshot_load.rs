//! The streaming snapshot loader: `snapshot::load_store` and
//! `durable::recover` decode a v3 file in one pass straight into a
//! store. These tests pin that it loads exactly what was written, that
//! it fails closed on every
//! truncation and on bit flips anywhere, including the last sketch and
//! the trailer, that a corrupt count cannot make it reserve memory, and
//! that recovery discards a half-decoded generation whole.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use graphstream::{Edge, VertexId};
use proptest::prelude::*;
use streamlink_core::codec;
use streamlink_core::durable::{self, generation_path};
use streamlink_core::journal::QUARANTINE_DIR;
use streamlink_core::sketch::VertexSketch;
use streamlink_core::snapshot::{self, StoreSnapshot, VertexEntry};
use streamlink_core::{SketchConfig, SketchStore};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("streamlink-load-{}-{tag}-{n}", std::process::id()))
}

fn store(edges: &[Edge], k: usize, seed: u64) -> SketchStore {
    let config = SketchConfig::with_slots(k).seed(seed);
    let mut s = SketchStore::new(config);
    s.insert_stream(edges.iter().copied());
    s
}

/// A snapshot of `s` plus `empty` vertices that have an empty sketch
/// and a zero degree, kept in id order.
fn with_empty_vertices(s: &SketchStore, empty: &[u64]) -> StoreSnapshot {
    let mut snap = StoreSnapshot::capture(s);
    for &id in empty {
        let vertex = VertexId(1_000_000 + id);
        if snap.vertices.iter().all(|e| e.vertex != vertex) {
            snap.vertices.push(VertexEntry {
                vertex,
                sketch: VertexSketch::new(s.config().slots()),
                degree: 0,
            });
        }
    }
    snap.vertices.sort_by_key(|e| e.vertex);
    snap
}

fn load_bytes(path: &Path, bytes: &[u8]) -> io::Result<SketchStore> {
    fs::write(path, bytes)?;
    snapshot::load_store(path)
}

fn populated() -> SketchStore {
    let edges: Vec<Edge> = (0..300u64)
        .map(|i| Edge::new(i % 37, (i * 7 + 3) % 53 + 40, 0))
        .collect();
    store(&edges, 12, 4)
}

fn assert_invalid(result: io::Result<SketchStore>, what: &str) {
    match result {
        Ok(_) => panic!("{what}: loaded"),
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `capture(load(write(s))) == capture(s)`, and the atomic writer's
    /// bytes are exactly the codec's encoding.
    #[test]
    fn load_roundtrips_every_format(
        edges in proptest::collection::vec(
            (0u64..80, 0u64..80).prop_map(|(u, v)| Edge::new(u, v, 0)),
            0..120,
        ),
        k in 1usize..70,
        seed in any::<u64>(),
        empty in proptest::collection::vec(0u64..8, 0..4),
    ) {
        let snap = with_empty_vertices(&store(&edges, k, seed), &empty);
        let path = temp_path("roundtrip");

        snap.write_atomic(&path).unwrap();
        let written = fs::read(&path).unwrap();
        prop_assert_eq!(&written, &codec::encode_store_snapshot(&snap).unwrap());
        let loaded = snapshot::load_store(&path).unwrap();
        prop_assert_eq!(StoreSnapshot::capture(&loaded), snap.clone());
        prop_assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap.clone());
        fs::remove_file(&path).unwrap();
    }

    /// A flipped bit anywhere in a v3 file never loads and never panics.
    #[test]
    fn random_bit_flips_fail_closed(flip in any::<u64>()) {
        let bytes = codec::encode_store_snapshot(&StoreSnapshot::capture(&populated())).unwrap();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let path = temp_path("flip");
        let result = load_bytes(&path, &damaged);
        fs::remove_file(&path).unwrap();
        prop_assert!(result.is_err(), "flip at bit {} loaded", bit);
        prop_assert_eq!(result.err().map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }
}

/// A v3 file of `s` whose last argmin (a one-byte varint: every id in
/// these stores is below 128) names another vertex, re-framed with a
/// valid CRC so that only the argmin check can refuse it.
fn with_altered_last_argmin(s: &SketchStore) -> Vec<u8> {
    let file = codec::encode_store_snapshot(&StoreSnapshot::capture(s)).unwrap();
    let mut body = codec::decode_envelope(&file).unwrap().body.to_vec();
    let last = body.len() - 1;
    assert!(body[last] < 0x80, "the last argmin is a one-byte varint");
    body[last] ^= 1;
    codec::encode_envelope(codec::MODE_STORE_SNAPSHOT, &body)
}

#[test]
fn an_argmin_that_does_not_hash_to_its_slot_fails_closed() {
    let edges: Vec<Edge> = (0..120u64)
        .map(|i| Edge::new(i % 23, (i * 5 + 1) % 31 + 24, 0))
        .collect();
    let damaged = with_altered_last_argmin(&store(&edges, 8, 2));
    let why = "slot argmin does not hash to its slot";
    assert_eq!(
        codec::decode_store_snapshot(&damaged),
        Err(codec::CodecError::Malformed(why))
    );
    let path = temp_path("argmin");
    fs::write(&path, &damaged).unwrap();
    // `scrub` verifies a generation through `verify_file`.
    let errors = [
        snapshot::load_store(&path).map(drop).unwrap_err(),
        snapshot::verify_file(&path).map(drop).unwrap_err(),
    ];
    for err in errors {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(why), "{err}");
    }
    fs::remove_file(&path).unwrap();
}

#[test]
fn empty_store_roundtrips() {
    let empty = store(&[], 5, 9);
    let path = temp_path("empty");
    StoreSnapshot::capture(&empty).write_atomic(&path).unwrap();
    let loaded = snapshot::load_store(&path).unwrap();
    assert_eq!(loaded.vertex_count(), 0);
    assert_eq!(
        StoreSnapshot::capture(&loaded),
        StoreSnapshot::capture(&empty)
    );
    fs::remove_file(&path).unwrap();
}

#[test]
fn every_truncation_fails_closed() {
    let bytes = codec::encode_store_snapshot(&StoreSnapshot::capture(&populated())).unwrap();
    let path = temp_path("truncate");
    for cut in 0..bytes.len() {
        assert_invalid(load_bytes(&path, &bytes[..cut]), &format!("cut at {cut}"));
        assert!(codec::decode_store_snapshot(&bytes[..cut]).is_err());
    }
    // Bytes past the trailer are refused as well.
    let mut longer = bytes.clone();
    longer.push(0);
    assert_invalid(load_bytes(&path, &longer), "one byte past the trailer");
    fs::remove_file(&path).unwrap();
}

#[test]
fn every_bit_of_the_last_sketch_and_the_trailer_fails_closed() {
    // The last sketch is decoded, and its vertex handed to the store,
    // before the trailer is read: only the CRC can stop it.
    let bytes = codec::encode_store_snapshot(&StoreSnapshot::capture(&populated())).unwrap();
    let path = temp_path("tail");
    for byte in bytes.len() - 40..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert_invalid(load_bytes(&path, &damaged), &format!("flip {byte}:{bit}"));
        }
    }
    fs::remove_file(&path).unwrap();
}

/// A 64-byte v3 file: a valid header and config, then `count` as the
/// vertex count, zero padding, and a correct CRC. The body is declared
/// as `body_len` bytes, or as its true length when `None`.
fn claims(body_len: Option<u64>, count: u64) -> Vec<u8> {
    let mut body = Vec::new();
    codec::write_varint(&mut body, 8); // slots
    codec::write_varint(&mut body, 1); // seed
    body.push(0); // backend
    codec::write_varint(&mut body, 0); // edges processed
    codec::write_varint(&mut body, count);
    let mut declared = Vec::new();
    // A true length below 128 is a one-byte varint.
    codec::write_varint(&mut declared, body_len.unwrap_or(0));
    let header_len = codec::BINARY_MAGIC.len() + 2 + declared.len();
    body.resize(64 - header_len - 4, 0);
    declared.clear();
    codec::write_varint(&mut declared, body_len.unwrap_or(body.len() as u64));
    let mut file = Vec::new();
    file.extend_from_slice(&codec::BINARY_MAGIC);
    file.push(codec::BINARY_VERSION);
    file.push(codec::MODE_STORE_SNAPSHOT);
    file.extend_from_slice(&declared);
    file.extend_from_slice(&body);
    let crc = hashkit::crc32(&file[codec::BINARY_MAGIC.len()..]);
    file.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(file.len(), 64);
    file
}

#[test]
fn huge_claimed_counts_are_refused_before_reserving() {
    let path = temp_path("huge");
    let huge = 1u64 << 34;
    for (what, file) in [
        ("count of 2^34", claims(None, huge)),
        // The declared length allows the count; the 64 bytes held do not.
        ("body_len of 2^34", claims(Some(huge), huge / 2)),
    ] {
        let err = load_bytes(&path, &file).expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(
            err.to_string().contains("vertex count exceeds body"),
            "{what}: {err}"
        );
        assert!(codec::decode_store_snapshot(&file).is_err(), "{what}");
    }
    fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_discards_a_generation_damaged_in_its_last_vertex() {
    let dir = temp_path("recover");
    fs::create_dir_all(&dir).unwrap();
    let config = SketchConfig::with_slots(16).seed(3);
    let old_edges: Vec<Edge> = (0..6u64).map(|i| Edge::new(i, i + 100, 0)).collect();
    let new_edges: Vec<Edge> = (0..4u64).map(|i| Edge::new(500 + i, 600 + i, 0)).collect();
    let mut s = SketchStore::new(config);
    s.insert_stream(old_edges.iter().copied());
    let older = StoreSnapshot::capture(&s);
    older.write_atomic(&generation_path(&dir, 6)).unwrap();
    s.insert_stream(new_edges.iter().copied());
    let newest = generation_path(&dir, 10);
    StoreSnapshot::capture(&s).write_atomic(&newest).unwrap();

    // The body's last byte belongs to the last vertex's sketch (vertex
    // 603, from the newer edges); the 4 bytes after it are the CRC.
    let len = fs::metadata(&newest).unwrap().len();
    streamlink_core::chaos::flip_bit(&newest, len - 5, 0).unwrap();

    let rec = durable::recover(&dir, config).unwrap();
    assert_eq!(rec.fallbacks, 1);
    assert_eq!(rec.snapshot_seq, 6);
    assert_eq!(StoreSnapshot::capture(&rec.store), older);
    for e in &new_edges {
        assert!(!rec.store.contains(e.src) && !rec.store.contains(e.dst));
    }
    assert!(!newest.exists());
    assert!(dir.join(QUARANTINE_DIR).join("snapshot.10.json").exists());
    fs::remove_dir_all(&dir).unwrap();
}

/// The golden generation's stream: vertex 9 has degree 1, and the
/// self-loop counts as processed but adds nothing.
const GOLDEN_EDGES: [(u64, u64); 20] = [
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 5),
    (3, 4),
    (3, 6),
    (4, 5),
    (4, 7),
    (5, 6),
    (5, 8),
    (6, 7),
    (6, 10),
    (7, 8),
    (7, 300),
    (8, 10),
    (10, 300),
    (2, 300),
    (9, 1),
    (4, 4),
];

/// A vertex the golden file holds with degree 0 and all eight slots
/// empty, the state no edge can leave.
const GOLDEN_EMPTY: VertexId = VertexId(1_000);

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3/store.k8.seed57005.snap")
}

fn golden_rebuilt() -> SketchStore {
    let edges: Vec<Edge> = GOLDEN_EDGES
        .iter()
        .map(|&(u, v)| Edge::new(u, v, 0))
        .collect();
    let config = SketchConfig::with_slots(8).seed(0xDEAD);
    let mut s = SketchStore::new(config);
    s.insert_stream(edges);
    s
}

fn golden_snapshot(s: &SketchStore) -> StoreSnapshot {
    let mut snap = StoreSnapshot::capture(s);
    snap.vertices.push(VertexEntry {
        vertex: GOLDEN_EMPTY,
        sketch: VertexSketch::new(8),
        degree: 0,
    });
    snap.vertices.sort_by_key(|e| e.vertex);
    snap
}

/// A committed v3 generation pins the file format across builds: a
/// refactor that changes one byte of what the writer emits, or of how
/// the reader reads it, fails here. Regenerate (`UPDATE_GOLDEN=1`) only
/// for a deliberate format change, which also needs a new version byte.
#[test]
fn golden_v3_generation_loads_and_reencodes_byte_for_byte() {
    let rebuilt = golden_rebuilt();
    let encoded = codec::encode_store_snapshot(&golden_snapshot(&rebuilt)).unwrap();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &encoded).unwrap();
        return;
    }
    let golden = fs::read(&path).unwrap();
    assert_eq!(encoded, golden, "the v3 writer's bytes moved");

    let loaded = snapshot::load_store(&path).unwrap();
    assert_eq!(loaded.edges_processed(), GOLDEN_EDGES.len() as u64);
    assert_eq!(loaded.vertex_count(), rebuilt.vertex_count() + 1);
    assert_eq!(loaded.degree(VertexId(9)), 1);
    assert_eq!(loaded.degree(GOLDEN_EMPTY), 0);
    assert_eq!(loaded.sketch(GOLDEN_EMPTY).unwrap().filled_slots(), 0);
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let ids: Vec<VertexId> = rebuilt.vertices().collect();
    for &u in &ids {
        assert_eq!(loaded.degree(u), rebuilt.degree(u), "degree of {u:?}");
        for &v in &ids {
            assert_eq!(bits(loaded.jaccard(u, v)), bits(rebuilt.jaccard(u, v)));
            assert_eq!(
                bits(loaded.common_neighbors(u, v)),
                bits(rebuilt.common_neighbors(u, v))
            );
            assert_eq!(
                bits(loaded.adamic_adar(u, v)),
                bits(rebuilt.adamic_adar(u, v))
            );
        }
    }
}

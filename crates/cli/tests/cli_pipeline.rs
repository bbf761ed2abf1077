//! End-to-end CLI pipeline tests: generate → stats → ingest → query →
//! top, driven through the library entry point against a temp directory,
//! plus `query` on the snapshot files a server writes.

use std::path::Path;
use std::process::Command;

use graphstream::VertexId;
use streamlink_cli::run;
use streamlink_cli::server::{persistence, ServerConfig, ServerState};
use streamlink_core::codec::{self, v2};
use streamlink_core::journal::FsyncPolicy;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{durable, SketchConfig, SketchStore};

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(ToString::to_string).collect()
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("streamlink_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn full_pipeline_csv() {
    let dir = TempDir::new("csv");
    let data = dir.path("dblp.csv");
    let snap = dir.path("snap.json");

    run(&argv(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .expect("generate");
    assert!(std::fs::metadata(&data).unwrap().len() > 1000);

    run(&argv(&["stats", "--input", &data])).expect("stats");

    run(&argv(&[
        "ingest",
        "--input",
        &data,
        "--slots",
        "64",
        "--snapshot",
        &snap,
    ]))
    .expect("ingest");
    // A checksummed v3 file, readable through the verifying path.
    assert!(codec::is_binary(&std::fs::read(&snap).unwrap()));
    let snapshot = StoreSnapshot::read_from(Path::new(&snap)).unwrap();
    assert_eq!(snapshot.config.slots(), 64);

    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "jaccard",
        "--pair",
        "1:2",
    ]))
    .expect("query");
    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "aa",
        "--pair",
        "0:1",
        "--pair",
        "2:3",
    ]))
    .expect("multi-pair query");

    run(&argv(&[
        "top",
        "--snapshot",
        &snap,
        "--vertex",
        "2",
        "--bands",
        "16",
        "--rows",
        "2",
    ]))
    .expect("top");
}

#[test]
fn binary_format_roundtrips_through_ingest() {
    let dir = TempDir::new("bin");
    let data = dir.path("wiki.bin");
    let snap = dir.path("snap.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "wiki",
        "--scale",
        "small",
        "--out",
        &data,
        "--format",
        "bin",
    ]))
    .expect("generate bin");
    run(&argv(&["ingest", "--input", &data, "--snapshot", &snap])).expect("ingest bin");
    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "cn",
        "--pair",
        "5:6",
    ]))
    .expect("query");
}

#[test]
fn evaluate_runs_end_to_end() {
    run(&argv(&[
        "evaluate",
        "--dataset",
        "youtube",
        "--scale",
        "small",
        "--slots",
        "32",
    ]))
    .expect("evaluate");
}

#[test]
fn errors_are_descriptive() {
    let err = run(&argv(&["frobnicate"])).unwrap_err();
    assert!(err.contains("frobnicate"), "{err}");

    let err = run(&argv(&[
        "generate",
        "--dataset",
        "nope",
        "--out",
        "/dev/null",
    ]))
    .unwrap_err();
    assert!(err.contains("nope"), "{err}");

    let err = run(&argv(&[
        "query",
        "--snapshot",
        "/no/such/file",
        "--measure",
        "jaccard",
        "--pair",
        "1:2",
    ]))
    .unwrap_err();
    assert!(err.contains("/no/such/file"), "{err}");

    let err = run(&argv(&[
        "ingest",
        "--input",
        "/no/such/file",
        "--snapshot",
        "/tmp/x",
    ]))
    .unwrap_err();
    assert!(err.contains("/no/such/file"), "{err}");

    let dir = TempDir::new("badpair");
    let data = dir.path("d.csv");
    let snap = dir.path("s.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "flickr",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .unwrap();
    run(&argv(&["ingest", "--input", &data, "--snapshot", &snap])).unwrap();
    let err = run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "jaccard",
        "--pair",
        "xy",
    ]))
    .unwrap_err();
    assert!(err.contains("xy"), "{err}");
}

#[test]
fn help_succeeds_and_empty_fails() {
    run(&argv(&["help"])).expect("help");
    assert!(run(&[]).is_err());
}

#[test]
fn corrupt_snapshot_is_rejected() {
    let dir = TempDir::new("corrupt");
    let snap = dir.path("bad.json");
    std::fs::write(&snap, "{ not json").unwrap();
    let err = run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "aa",
        "--pair",
        "1:2",
    ]))
    .unwrap_err();
    assert!(err.contains("snapshot"), "{err}");
}

#[test]
fn convert_roundtrips_between_formats() {
    let dir = TempDir::new("convert");
    let csv = dir.path("d.csv");
    let compact = dir.path("d.slk2");
    let back = dir.path("d2.csv");
    run(&argv(&[
        "generate",
        "--dataset",
        "wiki",
        "--scale",
        "small",
        "--out",
        &csv,
    ]))
    .unwrap();
    run(&argv(&[
        "convert", "--input", &csv, "--out", &compact, "--format", "compact",
    ]))
    .expect("csv -> compact");
    run(&argv(&[
        "convert", "--input", &compact, "--out", &back, "--format", "csv",
    ]))
    .expect("compact -> csv");
    // Compact file is much smaller; round trip preserves content.
    let csv_size = std::fs::metadata(&csv).unwrap().len();
    let compact_size = std::fs::metadata(&compact).unwrap().len();
    assert!(
        compact_size * 2 < csv_size,
        "compact {compact_size} vs csv {csv_size}"
    );
    assert_eq!(std::fs::read(&csv).unwrap(), std::fs::read(&back).unwrap());
}

#[test]
fn recommend_produces_ranked_output() {
    let dir = TempDir::new("recommend");
    let data = dir.path("dblp.csv");
    let snap = dir.path("snap.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .unwrap();
    run(&argv(&[
        "ingest",
        "--input",
        &data,
        "--slots",
        "128",
        "--snapshot",
        &snap,
    ]))
    .unwrap();
    run(&argv(&[
        "recommend",
        "--snapshot",
        &snap,
        "--vertex",
        "2",
        "--k",
        "5",
        "--measure",
        "aa",
        "--bands",
        "48",
        "--rows",
        "2",
    ]))
    .expect("recommend");
    // Unseen vertex is a clean error.
    let err = run(&argv(&[
        "recommend",
        "--snapshot",
        &snap,
        "--vertex",
        "99999999",
    ]))
    .unwrap_err();
    assert!(err.contains("never appeared"), "{err}");
}

/// Runs the `streamlink query` binary and returns its stdout lines.
fn query_lines(snapshot: &str, pairs: &[(u64, u64)]) -> Vec<String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_streamlink"));
    cmd.args(["query", "--snapshot", snapshot, "--measure", "jaccard"]);
    for (u, v) in pairs {
        cmd.args(["--pair", &format!("{u}:{v}")]);
    }
    let out = cmd.output().expect("run streamlink query");
    assert!(out.status.success(), "query {snapshot}: {out:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn query_reads_server_generations_and_legacy_json() {
    let dir = TempDir::new("servesnap");
    let data_dir = dir.path("data");
    let config = SketchConfig::with_slots(32).seed(7);
    let edges: Vec<(u64, u64)> = (0..120u64).map(|i| (i % 9, 50 + i % 23)).collect();

    // The durable server state `serve --data-dir` runs, checkpointed the
    // way its shutdown path does.
    let (persist, recovery) =
        persistence::open_with_faults(Path::new(&data_dir), config, FsyncPolicy::Never, None)
            .unwrap();
    let state = ServerState::with_persistence(recovery.store, persist, 0, ServerConfig::default());
    let mut store = SketchStore::new(config);
    for &(u, v) in &edges {
        state.insert_edge(VertexId(u), VertexId(v)).unwrap();
        store.insert_edge(VertexId(u), VertexId(v));
    }
    persistence::checkpoint_now(&state).unwrap();
    let generations = durable::list_generations(Path::new(&data_dir)).unwrap();
    let (_, newest) = generations.last().expect("generation written");

    // The same edges applied in memory, also saved as a v1 bare-JSON file.
    let legacy = dir.path("legacy.json");
    std::fs::write(
        &legacy,
        v2::legacy_store_snapshot(&StoreSnapshot::capture(&store)),
    )
    .unwrap();

    let pairs = [(0, 1), (2, 5), (50, 51), (3, 999)];
    let expected: Vec<String> = pairs
        .iter()
        .map(|&(u, v)| match store.jaccard(VertexId(u), VertexId(v)) {
            Some(j) => format!("jaccard {u}:{v} {j:.6}"),
            None => format!("jaccard {u}:{v} unseen"),
        })
        .collect();
    assert_eq!(query_lines(&newest.to_string_lossy(), &pairs), expected);
    assert_eq!(query_lines(&legacy, &pairs), expected, "legacy v1 file");
}

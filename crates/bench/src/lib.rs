//! Shared harness for the experiment binaries (`src/bin/exp_*`).
//!
//! Every binary regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §4 for the index), prints it as an aligned
//! text table, and appends machine-readable JSON rows to
//! `results/<experiment>.jsonl` so EXPERIMENTS.md can cite exact numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

use serde::Serialize;

use datasets::{Scale, SimulatedDataset};
use graphstream::{AdjacencyGraph, EdgeStream, MemoryStream, VertexId};
use linkpred::Measure;
use streamlink_core::{SketchConfig, SketchStore};

/// The sketch sizes every accuracy sweep uses (the x-axis of the paper's
/// error figures).
pub const K_SWEEP: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Default seed for experiment determinism.
pub const EXP_SEED: u64 = 0xE0;

/// Writes experiment rows as JSON lines under `results/`, creating the
/// directory on first use, and echoes a human-readable table to stdout.
pub struct ResultWriter {
    file: std::fs::File,
    experiment: String,
}

impl ResultWriter {
    /// Opens (truncates) `results/<experiment>.jsonl`.
    ///
    /// # Panics
    /// Panics if the results directory cannot be created — experiments
    /// cannot meaningfully continue without an output channel.
    #[must_use]
    pub fn new(experiment: &str) -> Self {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("cannot create results directory");
        let path = dir.join(format!("{experiment}.jsonl"));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        println!("# {experiment} -> {}", path.display());
        Self {
            file,
            experiment: experiment.to_string(),
        }
    }

    /// Appends one JSON row.
    ///
    /// # Panics
    /// Panics on serialization or IO failure.
    pub fn write_row<T: Serialize>(&mut self, row: &T) {
        let json = serde_json::to_string(row)
            .unwrap_or_else(|e| panic!("{}: row serialization failed: {e}", self.experiment));
        writeln!(self.file, "{json}")
            .unwrap_or_else(|e| panic!("{}: write failed: {e}", self.experiment));
    }
}

/// Where experiment outputs go: `$STREAMLINK_RESULTS` or `./results`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("STREAMLINK_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Parses `--scale small|standard|large` from argv (default standard —
/// experiments are meant to run at paper scale; tests pass small).
#[must_use]
pub fn scale_from_args(args: &[String]) -> Scale {
    match flag_value(args, "--scale").unwrap_or("standard") {
        "small" => Scale::Small,
        "large" => Scale::Large,
        _ => Scale::Standard,
    }
}

/// Returns the value following `flag` in `args`.
#[must_use]
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Builds a sketch store over a stream with `k` slots.
#[must_use]
pub fn build_store(stream: &MemoryStream, k: usize, seed: u64) -> SketchStore {
    let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(seed));
    store.insert_stream(stream.edges());
    store
}

/// Scores a pair with a [`SketchStore`] under a measure.
#[must_use]
pub fn sketch_score(
    store: &SketchStore,
    measure: Measure,
    u: VertexId,
    v: VertexId,
) -> Option<f64> {
    match measure {
        Measure::Jaccard => store.jaccard(u, v),
        Measure::CommonNeighbors => store.common_neighbors(u, v),
        Measure::AdamicAdar => store.adamic_adar(u, v),
        Measure::ResourceAllocation => store.resource_allocation(u, v),
        Measure::PreferentialAttachment => store.preferential_attachment(u, v),
        Measure::Cosine => store.cosine(u, v),
        Measure::Overlap => store.overlap(u, v),
    }
}

/// Scores a pair exactly on an adjacency graph.
#[must_use]
pub fn exact_score(g: &AdjacencyGraph, measure: Measure, u: VertexId, v: VertexId) -> f64 {
    match measure {
        Measure::Jaccard => g.jaccard(u, v),
        Measure::CommonNeighbors => g.common_neighbors(u, v) as f64,
        Measure::AdamicAdar => g.adamic_adar(u, v),
        Measure::ResourceAllocation => g.resource_allocation(u, v),
        Measure::PreferentialAttachment => g.preferential_attachment(u, v),
        Measure::Cosine => g.cosine(u, v),
        Measure::Overlap => g.overlap(u, v),
    }
}

/// Materializes every dataset at a scale, with its stream, once.
#[must_use]
pub fn all_datasets(scale: Scale) -> Vec<(SimulatedDataset, MemoryStream)> {
    SimulatedDataset::ALL
        .iter()
        .map(|&d| (d, d.stream(scale)))
        .collect()
}

/// Prints an aligned table header.
pub fn table_header(columns: &[&str]) {
    let row: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * columns.len()));
}

/// Prints one aligned row.
pub fn table_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// One timed pass of an overhead plane: its wall time, and how many
/// times the plane fired during it (scrapes, audit pairs, events, ...;
/// zero on a pass with the plane off).
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall-clock seconds of the timed loop.
    pub secs: f64,
    /// How often the plane acted while the loop ran.
    pub fired: u64,
}

/// Runs `pairs` pairs of one "off" and one "on" pass, alternating which
/// side goes first (off→on, then on→off, ...), so host drift during a
/// run lands on both sides alike. Returns `(off, on)` per pair.
pub fn run_pairs(pairs: usize, mut pass: impl FnMut(bool) -> Pass) -> Vec<(Pass, Pass)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let off = pass(false);
                (off, pass(true))
            } else {
                let on = pass(true);
                (pass(false), on)
            }
        })
        .collect()
}

/// What a set of paired passes says about one plane at one sketch size.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// The gated statistic: the median over pairs of `on / off - 1`, in
    /// percent.
    pub median_overhead_pct: f64,
    /// `min(on) / min(off) - 1` over the same passes, in percent
    /// (reported, not gated: one lucky pass on either side moves it).
    pub min_min_overhead_pct: f64,
    /// Distance between the quartiles of the paired overheads, in
    /// percentage points.
    pub iqr_pct: f64,
    /// The fastest "off" pass, in seconds.
    pub off_min_secs: f64,
    /// The fastest "on" pass, in seconds.
    pub on_min_secs: f64,
    /// The fewest times the plane fired in any "on" pass.
    pub fired_min: u64,
    /// How often the plane fired across all "on" passes.
    pub fired_total: u64,
}

impl Verdict {
    /// Summarizes `(off, on)` pairs as [`run_pairs`] returns them.
    ///
    /// # Panics
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(pairs: &[(Pass, Pass)]) -> Self {
        assert!(!pairs.is_empty(), "a verdict needs at least one pair");
        let mut ratios: Vec<f64> = pairs
            .iter()
            .map(|(off, on)| (on.secs / off.secs - 1.0) * 100.0)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let min = |f: fn(&(Pass, Pass)) -> f64| pairs.iter().map(f).fold(f64::INFINITY, f64::min);
        let (off_min, on_min) = (min(|p| p.0.secs), min(|p| p.1.secs));
        Verdict {
            median_overhead_pct: quantile(&ratios, 0.5),
            min_min_overhead_pct: (on_min / off_min - 1.0) * 100.0,
            iqr_pct: quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
            off_min_secs: off_min,
            on_min_secs: on_min,
            fired_min: pairs.iter().map(|p| p.1.fired).min().unwrap_or(0),
            fired_total: pairs.iter().map(|p| p.1.fired).sum(),
        }
    }

    /// Why this verdict fails a gate of `max_overhead_pct`, if it does:
    /// the median overhead is above the budget, or some "on" pass never
    /// exercised the plane (so it measured nothing).
    #[must_use]
    pub fn failure(&self, max_overhead_pct: f64) -> Option<String> {
        if self.fired_min == 0 {
            Some("an exercised pass fired its plane zero times".into())
        } else if self.median_overhead_pct > max_overhead_pct {
            Some(format!(
                "median overhead {:.2}% exceeds the {max_overhead_pct}% budget",
                self.median_overhead_pct
            ))
        } else {
            None
        }
    }
}

/// Linear-interpolated quantile `q` of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_finds_pairs() {
        let args: Vec<String> = ["--scale", "small", "--k", "64"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(flag_value(&args, "--scale"), Some("small"));
        assert_eq!(flag_value(&args, "--k"), Some("64"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn scale_parsing_defaults_to_standard() {
        assert_eq!(scale_from_args(&[]), Scale::Standard);
        let args: Vec<String> = ["--scale", "small"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(scale_from_args(&args), Scale::Small);
    }

    #[test]
    fn build_store_ingests_everything() {
        let stream = SimulatedDataset::FlickrLike.stream(Scale::Small);
        let store = build_store(&stream, 16, 1);
        assert_eq!(store.edges_processed() as usize, stream.len());
    }

    #[test]
    fn scores_agree_between_backends_at_high_k() {
        let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
        let g = AdjacencyGraph::from_edges(stream.edges());
        let store = build_store(&stream, 512, 2);
        let (u, v) = (VertexId(0), VertexId(1));
        for m in Measure::ALL {
            if let Some(est) = sketch_score(&store, m, u, v) {
                let exact = exact_score(&g, m, u, v);
                if m == Measure::Jaccard {
                    assert!((est - exact).abs() < 0.2, "{m}: {est} vs {exact}");
                }
            }
        }
    }

    #[test]
    fn result_writer_writes_jsonl() {
        let dir = std::env::temp_dir().join("streamlink_test_results");
        std::env::set_var("STREAMLINK_RESULTS", &dir);
        {
            let mut w = ResultWriter::new("unit_test");
            w.write_row(&serde_json::json!({"a": 1}));
            w.write_row(&serde_json::json!({"a": 2}));
        }
        let content = std::fs::read_to_string(dir.join("unit_test.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
        std::env::remove_var("STREAMLINK_RESULTS");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pairs_of(overheads: &[f64], fired: u64) -> Vec<(Pass, Pass)> {
        overheads
            .iter()
            .map(|pct| {
                let off = Pass {
                    secs: 1.0,
                    fired: 0,
                };
                let on = Pass {
                    secs: 1.0 + pct / 100.0,
                    fired,
                };
                (off, on)
            })
            .collect()
    }

    #[test]
    fn a_steady_fifteen_percent_overhead_fails_the_gate() {
        let v = Verdict::of(&pairs_of(
            &[14.0, 15.0, 16.0, 15.0, 15.5, 14.5, 15.0, 16.0, 14.0, 15.0],
            3,
        ));
        assert!((v.median_overhead_pct - 15.0).abs() < 1e-9, "{v:?}");
        assert!(v.failure(10.0).is_some());
    }

    #[test]
    fn one_outlier_pair_does_not_fail_a_zero_overhead() {
        let mut overheads = [0.0; 10];
        overheads[3] = 60.0;
        let v = Verdict::of(&pairs_of(&overheads, 3));
        assert_eq!(v.median_overhead_pct, 0.0);
        assert!(v.min_min_overhead_pct.abs() < 1e-9);
        assert_eq!(v.failure(10.0), None);
    }

    #[test]
    fn a_pass_that_never_fired_fails_the_gate() {
        let mut pairs = pairs_of(&[0.0; 10], 5);
        pairs[7].1.fired = 0;
        let v = Verdict::of(&pairs);
        assert_eq!((v.fired_min, v.fired_total), (0, 45));
        assert!(v.failure(10.0).is_some());
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let mut order = Vec::new();
        let pairs = run_pairs(4, |on| {
            order.push(on);
            Pass {
                secs: 1.0,
                fired: u64::from(on),
            }
        });
        assert_eq!(order, [false, true, true, false, false, true, true, false]);
        assert!(pairs
            .iter()
            .all(|(off, on)| off.fired == 0 && on.fired == 1));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}

//! Open-loop load generation: deterministic workload synthesis and the
//! coordinated-omission-safe `streamlink.loadreport.v1` artifact.
//!
//! The serving north-star (ROADMAP item 2, the multi-core serve path)
//! needs *measurement before mechanism*: any rearchitecture must be
//! judged by a workload that does not lie about latency. Two classic
//! lies this module is built to avoid:
//!
//! 1. **Closed-loop back-pressure.** A generator that waits for each
//!    response before issuing the next request slows down exactly when
//!    the server does, silently thinning the arrival rate during the
//!    very stalls it should be measuring. The generator here is
//!    **open-loop**: every operation has an *intended start time* fixed
//!    by the offered rate alone ([`intended_start_ns`]), independent of
//!    how the server is coping.
//! 2. **Coordinated omission.** Measuring latency from the moment the
//!    request was *actually sent* (after queueing behind a stalled
//!    predecessor) hides the stall. Latency here is defined from the
//!    *intended* start time — if the server freezes for a second, every
//!    operation scheduled inside that second reports ≥ its share of the
//!    freeze, exactly as a real client arrival process would experience
//!    it (the HdrHistogram methodology).
//!
//! Everything is deterministic under a fixed seed: the PRNG is
//! [`SplitMix64`], vertex choice is Zipf-skewed ([`ZipfPicker`], hot
//! vertices get most of the traffic, as in real graph streams), and the
//! INSERT/JACCARD/DEGREE/EXPLAIN ratio is a [`MixSpec`]. Two
//! [`OpStream`]s built from the same [`WorkloadSpec`] and stream id
//! yield byte-identical command sequences, so a regression can be
//! replayed exactly.
//!
//! The run's verdict is a [`LoadReport`], rendered as
//! `streamlink.loadreport.v1` JSON — the artifact format CI uploads and
//! the golden-schema test pins. Percentiles come from the same
//! power-of-two [`HistogramSummary`] the rest of the registry uses, so
//! a load report and a `/metrics` scrape are directly comparable.

use crate::metrics::HistogramSummary;

/// Default operation mix: a write-heavy graph-stream workload with a
/// read tail (60% INSERT, 25% JACCARD, 10% DEGREE, 5% EXPLAIN).
pub const DEFAULT_MIX: MixSpec = MixSpec {
    insert: 60,
    jaccard: 25,
    degree: 10,
    explain: 5,
};

/// Default Zipf skew exponent (`s = 1.1`, mildly heavy-tailed — the
/// shape reported for follower graphs and web link streams).
pub const DEFAULT_ZIPF_S: f64 = 1.1;

/// A tiny, fast, seedable PRNG (Steele et al.'s SplitMix64).
///
/// Deterministic, allocation-free, and good enough for workload
/// synthesis; *not* cryptographic. Distinct streams should be derived
/// via [`SplitMix64::fork`] so per-connection sequences decorrelate.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0).
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[0, n)`; `n` must be non-zero.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "gen_below(0)");
        // Lemire's multiply-shift; the tiny modulo bias is irrelevant
        // for workload synthesis.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A decorrelated child generator for stream `id` — used to give
    /// every client connection its own deterministic sequence.
    #[must_use]
    pub fn fork(&self, id: u64) -> Self {
        let mut parent = SplitMix64::new(self.state ^ id.wrapping_mul(0xA076_1D64_78BD_642F));
        // Burn one output so forks of adjacent ids diverge immediately.
        let seed = parent.next_u64();
        SplitMix64::new(seed)
    }
}

/// Zipf-distributed rank picker over `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r+1)^s`.
///
/// Built once per stream from a cumulative table (`O(n)` memory,
/// `O(log n)` per draw) — exact, deterministic, and fast enough for the
/// vertex-universe sizes a load test uses.
#[derive(Debug, Clone)]
pub struct ZipfPicker {
    cdf: Vec<f64>,
}

impl ZipfPicker {
    /// A picker over `0..n` with exponent `s ≥ 0` (`s = 0` is uniform).
    /// `n` is clamped to at least 1.
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        let n = usize::try_from(n.max(1)).unwrap_or(usize::MAX);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        ZipfPicker { cdf }
    }

    /// Number of ranks in the universe.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Whether the universe is empty (never true — `new` clamps to 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..n` using `rng`.
    #[must_use]
    pub fn pick(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// The operation kinds a mixed workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `INSERT u v` — the write path (journal + sketch fold).
    Insert,
    /// `JACCARD u v` — the similarity read path.
    Jaccard,
    /// `DEGREE u` — the cheapest read (one counter lookup).
    Degree,
    /// `EXPLAIN JACCARD u v` — the estimator-provenance read path.
    Explain,
}

impl OpKind {
    /// Stable lowercase name, used as the mix key in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Jaccard => "jaccard",
            OpKind::Degree => "degree",
            OpKind::Explain => "explain",
        }
    }
}

/// Integer weights for the four operation kinds, e.g. `60/25/10/5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSpec {
    /// Weight of `INSERT`.
    pub insert: u32,
    /// Weight of `JACCARD`.
    pub jaccard: u32,
    /// Weight of `DEGREE`.
    pub degree: u32,
    /// Weight of `EXPLAIN`.
    pub explain: u32,
}

impl MixSpec {
    /// Parses a `insert/jaccard/degree/explain` weight string like
    /// `"60/25/10/5"`. All four fields are required; the total must be
    /// non-zero.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let parts: Vec<&str> = raw.split('/').collect();
        if parts.len() != 4 {
            return Err(format!(
                "mix must be insert/jaccard/degree/explain (e.g. 60/25/10/5), got {raw:?}"
            ));
        }
        let mut w = [0u32; 4];
        for (slot, part) in w.iter_mut().zip(&parts) {
            *slot = part
                .parse::<u32>()
                .map_err(|_| format!("mix weight {part:?} is not a non-negative integer"))?;
        }
        let spec = MixSpec {
            insert: w[0],
            jaccard: w[1],
            degree: w[2],
            explain: w[3],
        };
        if spec.total() == 0 {
            return Err("mix weights must not all be zero".into());
        }
        Ok(spec)
    }

    /// Sum of all weights.
    #[must_use]
    pub fn total(self) -> u64 {
        u64::from(self.insert)
            + u64::from(self.jaccard)
            + u64::from(self.degree)
            + u64::from(self.explain)
    }

    /// Draws one [`OpKind`] according to the weights.
    #[must_use]
    pub fn pick(self, rng: &mut SplitMix64) -> OpKind {
        let mut roll = rng.gen_below(self.total());
        for (kind, weight) in [
            (OpKind::Insert, u64::from(self.insert)),
            (OpKind::Jaccard, u64::from(self.jaccard)),
            (OpKind::Degree, u64::from(self.degree)),
        ] {
            if roll < weight {
                return kind;
            }
            roll -= weight;
        }
        OpKind::Explain
    }
}

/// One generated operation, renderable as a protocol command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// First vertex (always used).
    pub u: u64,
    /// Second vertex (ignored by `DEGREE`).
    pub v: u64,
}

impl Op {
    /// The text-protocol command line for this operation (no newline).
    #[must_use]
    pub fn command_line(&self) -> String {
        match self.kind {
            OpKind::Insert => format!("INSERT {} {}", self.u, self.v),
            OpKind::Jaccard => format!("JACCARD {} {}", self.u, self.v),
            OpKind::Degree => format!("DEGREE {}", self.u),
            OpKind::Explain => format!("EXPLAIN JACCARD {} {}", self.u, self.v),
        }
    }
}

/// Everything that determines a workload, minus the transport: fix the
/// spec and a stream id, and the operation sequence is fixed.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Master seed; per-connection streams fork from it.
    pub seed: u64,
    /// Vertex-universe size (ids are `0..vertices`).
    pub vertices: u64,
    /// Zipf skew exponent for vertex choice (0 = uniform).
    pub zipf_s: f64,
    /// Operation-kind weights.
    pub mix: MixSpec,
}

impl WorkloadSpec {
    /// A spec with the default mix and skew over `vertices` ids.
    #[must_use]
    pub fn new(seed: u64, vertices: u64) -> Self {
        WorkloadSpec {
            seed,
            vertices: vertices.max(2),
            zipf_s: DEFAULT_ZIPF_S,
            mix: DEFAULT_MIX,
        }
    }
}

/// A deterministic, endless iterator of [`Op`]s for one client stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    zipf: ZipfPicker,
    mix: MixSpec,
    vertices: u64,
}

impl OpStream {
    /// The operation stream for connection `stream_id` of `spec`.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, stream_id: u64) -> Self {
        OpStream {
            rng: SplitMix64::new(spec.seed).fork(stream_id),
            zipf: ZipfPicker::new(spec.vertices, spec.zipf_s),
            mix: spec.mix,
            vertices: spec.vertices.max(2),
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = self.mix.pick(&mut self.rng);
        let u = self.zipf.pick(&mut self.rng);
        let mut v = self.zipf.pick(&mut self.rng);
        if v == u {
            // Self-loops are rejected by the store; nudge to a neighbor
            // rank deterministically.
            v = (v + 1) % self.vertices;
        }
        Some(Op { kind, u, v })
    }
}

/// Nanosecond offset (from the run's start instant) at which operation
/// `index` of an open-loop schedule at `rate_per_sec` is *intended* to
/// start. This is the coordinated-omission anchor: latency is measured
/// from this instant, never from the actual (possibly delayed) send.
#[must_use]
pub fn intended_start_ns(index: u64, rate_per_sec: u64) -> u64 {
    let rate = rate_per_sec.max(1);
    u64::try_from(u128::from(index) * 1_000_000_000u128 / u128::from(rate)).unwrap_or(u64::MAX)
}

/// The machine-readable verdict of one load-generation run — schema
/// `streamlink.loadreport.v1`, the artifact CI uploads and dashboards
/// ingest. Rendering is hand-rolled with a stable field order so the
/// golden-schema test can pin it byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Version of the binary that produced the report (git describe or
    /// crate version).
    pub version: String,
    /// Master workload seed (reports are replayable).
    pub seed: u64,
    /// Client connections driven.
    pub conns: u64,
    /// Wall-clock run duration in milliseconds.
    pub duration_ms: u64,
    /// Offered (target) rate, operations per second across all
    /// connections.
    pub offered_ops_per_sec: u64,
    /// Achieved rate: completed operations over wall-clock duration.
    pub achieved_ops_per_sec: f64,
    /// Operations scheduled (attempted) by the open-loop pacer.
    pub ops_attempted: u64,
    /// Operations answered with a success response.
    pub ops_ok: u64,
    /// Operations answered with a non-shed `ERR`.
    pub ops_err: u64,
    /// Operations refused with `ERR busy` (server shed).
    pub ops_shed: u64,
    /// Completed `INSERT`s.
    pub mix_insert: u64,
    /// Completed `JACCARD`s.
    pub mix_jaccard: u64,
    /// Completed `DEGREE`s.
    pub mix_degree: u64,
    /// Completed `EXPLAIN`s.
    pub mix_explain: u64,
    /// Intended-start-time latency distribution (coordinated-omission
    /// safe), from the same power-of-two buckets as the registry.
    pub latency: HistogramSummary,
    /// The p99 SLO limit in milliseconds (0 = no SLO was set).
    pub slo_p99_ms: u64,
    /// Whether the run met the SLO (always true when no SLO was set).
    pub slo_pass: bool,
}

impl LoadReport {
    /// Evaluates the SLO verdict from the latency summary: passes when
    /// no SLO is set, or when `p99 ≤ slo_p99_ms`.
    #[must_use]
    pub fn slo_verdict(slo_p99_ms: u64, latency: &HistogramSummary) -> bool {
        slo_p99_ms == 0 || latency.p99_ns <= slo_p99_ms.saturating_mul(1_000_000)
    }

    /// Process exit code for scripts/CI: 0 on SLO pass, 1 on breach.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.slo_pass)
    }

    /// Renders the report as one `streamlink.loadreport.v1` JSON object
    /// (no trailing newline). Field order is stable and golden-pinned.
    #[must_use]
    pub fn render_json(&self) -> String {
        let l = &self.latency;
        format!(
            "{{\"schema\":\"streamlink.loadreport.v1\",\"version\":\"{}\",\"seed\":{},\
             \"conns\":{},\"duration_ms\":{},\"offered_ops_per_sec\":{},\
             \"achieved_ops_per_sec\":{:.3},\
             \"ops\":{{\"attempted\":{},\"ok\":{},\"err\":{},\"shed\":{}}},\
             \"mix\":{{\"insert\":{},\"jaccard\":{},\"degree\":{},\"explain\":{}}},\
             \"latency_ns\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\
             \"p99\":{},\"p999\":{}}},\
             \"slo\":{{\"p99_ms\":{},\"pass\":{}}}}}",
            crate::events::escape_json(&self.version),
            self.seed,
            self.conns,
            self.duration_ms,
            self.offered_ops_per_sec,
            self.achieved_ops_per_sec,
            self.ops_attempted,
            self.ops_ok,
            self.ops_err,
            self.ops_shed,
            self.mix_insert,
            self.mix_jaccard,
            self.mix_degree,
            self.mix_explain,
            l.count,
            l.sum_ns,
            l.max_ns,
            l.p50_ns,
            l.p95_ns,
            l.p99_ns,
            l.p999_ns,
            self.slo_p99_ms,
            self.slo_pass,
        )
    }

    /// Parses a `streamlink.loadreport.v1` JSON object back into a
    /// report. Bucket counts are not part of the wire format, so the
    /// parsed `latency.buckets` array is zeroed.
    pub fn parse_json(raw: &str) -> Result<Self, String> {
        let v: serde_json::Value =
            serde_json::from_str(raw).map_err(|e| format!("invalid JSON: {e}"))?;
        if v.get("schema").and_then(serde_json::Value::as_str) != Some("streamlink.loadreport.v1") {
            return Err("not a streamlink.loadreport.v1 object".into());
        }
        let field = |obj: &serde_json::Value, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let section = |key: &str| -> Result<serde_json::Value, String> {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing section {key:?}"))
        };
        let ops = section("ops")?;
        let mix = section("mix")?;
        let lat = section("latency_ns")?;
        let slo = section("slo")?;
        let latency = HistogramSummary {
            count: field(&lat, "count")?,
            sum_ns: field(&lat, "sum")?,
            max_ns: field(&lat, "max")?,
            p50_ns: field(&lat, "p50")?,
            p95_ns: field(&lat, "p95")?,
            p99_ns: field(&lat, "p99")?,
            p999_ns: field(&lat, "p999")?,
            buckets: [0; crate::metrics::HISTOGRAM_BUCKETS],
        };
        Ok(LoadReport {
            version: v
                .get("version")
                .and_then(serde_json::Value::as_str)
                .ok_or("missing field \"version\"")?
                .to_string(),
            seed: field(&v, "seed")?,
            conns: field(&v, "conns")?,
            duration_ms: field(&v, "duration_ms")?,
            offered_ops_per_sec: field(&v, "offered_ops_per_sec")?,
            achieved_ops_per_sec: v
                .get("achieved_ops_per_sec")
                .and_then(serde_json::Value::as_f64)
                .ok_or("missing field \"achieved_ops_per_sec\"")?,
            ops_attempted: field(&ops, "attempted")?,
            ops_ok: field(&ops, "ok")?,
            ops_err: field(&ops, "err")?,
            ops_shed: field(&ops, "shed")?,
            mix_insert: field(&mix, "insert")?,
            mix_jaccard: field(&mix, "jaccard")?,
            mix_degree: field(&mix, "degree")?,
            mix_explain: field(&mix, "explain")?,
            latency,
            slo_p99_ms: field(&slo, "p99_ms")?,
            slo_pass: match slo.get("pass") {
                Some(serde_json::Value::Bool(b)) => *b,
                _ => return Err("missing field \"pass\"".into()),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_forks_decorrelate() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let root = SplitMix64::new(42);
        let mut f0 = root.fork(0);
        let mut f1 = root.fork(1);
        let same = (0..64).filter(|_| f0.next_u64() == f1.next_u64()).count();
        assert_eq!(same, 0, "adjacent forks must diverge immediately");
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn gen_below_is_bounded() {
        let mut rng = SplitMix64::new(9);
        for n in [1u64, 2, 3, 10, 1_000_000] {
            for _ in 0..200 {
                assert!(rng.gen_below(n) < n);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let picker = ZipfPicker::new(1_000, 1.1);
        let mut rng = SplitMix64::new(0xDEAD);
        let mut head = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            if picker.pick(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under s=1.1 the top-10 of 1000 ranks carry ~40% of mass; under
        // uniform they'd carry 1%. Assert well above uniform.
        assert!(
            head > draws / 5,
            "Zipf head too light: {head}/{draws} draws in the top 10 ranks"
        );
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let picker = ZipfPicker::new(100, 0.0);
        let mut rng = SplitMix64::new(3);
        let mut head = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            if picker.pick(&mut rng) < 10 {
                head += 1;
            }
        }
        let frac = head as f64 / draws as f64;
        assert!((0.05..0.15).contains(&frac), "uniform head fraction {frac}");
    }

    #[test]
    fn mix_parse_accepts_and_rejects() {
        assert_eq!(MixSpec::parse("60/25/10/5").unwrap(), DEFAULT_MIX);
        assert_eq!(
            MixSpec::parse("1/0/0/0").unwrap(),
            MixSpec {
                insert: 1,
                jaccard: 0,
                degree: 0,
                explain: 0
            }
        );
        assert!(MixSpec::parse("60/25/10").is_err());
        assert!(MixSpec::parse("a/b/c/d").is_err());
        assert!(MixSpec::parse("0/0/0/0").is_err());
        assert!(MixSpec::parse("-1/2/3/4").is_err());
    }

    #[test]
    fn mix_pick_respects_weights() {
        let mix = MixSpec::parse("50/50/0/0").unwrap();
        let mut rng = SplitMix64::new(11);
        let mut inserts = 0u64;
        for _ in 0..10_000 {
            match mix.pick(&mut rng) {
                OpKind::Insert => inserts += 1,
                OpKind::Jaccard => {}
                other => panic!("zero-weight kind drawn: {other:?}"),
            }
        }
        assert!((4_000..6_000).contains(&inserts), "{inserts}");
    }

    #[test]
    fn op_streams_are_deterministic_per_seed_and_stream() {
        let spec = WorkloadSpec::new(0x5EED, 10_000);
        let a: Vec<Op> = OpStream::new(&spec, 3).take(500).collect();
        let b: Vec<Op> = OpStream::new(&spec, 3).take(500).collect();
        assert_eq!(a, b, "same seed + stream id must replay identically");
        let c: Vec<Op> = OpStream::new(&spec, 4).take(500).collect();
        assert_ne!(a, c, "different stream ids must differ");
        let other = WorkloadSpec::new(0x5EED + 1, 10_000);
        let d: Vec<Op> = OpStream::new(&other, 3).take(500).collect();
        assert_ne!(a, d, "different seeds must differ");
    }

    #[test]
    fn ops_never_self_loop_and_stay_in_universe() {
        let spec = WorkloadSpec::new(1, 50);
        for op in OpStream::new(&spec, 0).take(5_000) {
            assert!(op.u < 50 && op.v < 50, "{op:?}");
            assert_ne!(op.u, op.v, "self-loop generated: {op:?}");
        }
    }

    #[test]
    fn command_lines_match_the_protocol_grammar() {
        let mk = |kind, u, v| Op { kind, u, v }.command_line();
        assert_eq!(mk(OpKind::Insert, 3, 9), "INSERT 3 9");
        assert_eq!(mk(OpKind::Jaccard, 3, 9), "JACCARD 3 9");
        assert_eq!(mk(OpKind::Degree, 3, 9), "DEGREE 3");
        assert_eq!(mk(OpKind::Explain, 3, 9), "EXPLAIN JACCARD 3 9");
    }

    #[test]
    fn intended_starts_pace_the_offered_rate() {
        assert_eq!(intended_start_ns(0, 1_000), 0);
        assert_eq!(intended_start_ns(1, 1_000), 1_000_000);
        assert_eq!(intended_start_ns(500, 1_000), 500_000_000);
        // Monotone, and independent of anything but index and rate.
        let mut prev = 0;
        for i in 0..1_000 {
            let t = intended_start_ns(i, 7_777);
            assert!(t >= prev);
            prev = t;
        }
        // Rate 0 is clamped rather than dividing by zero.
        assert_eq!(intended_start_ns(10, 0), 10_000_000_000);
    }

    fn sample_report() -> LoadReport {
        let mut latency = HistogramSummary {
            count: 9_000,
            sum_ns: 4_500_000_000,
            max_ns: 12_000_000,
            p50_ns: 262_144,
            p95_ns: 1_048_576,
            p99_ns: 4_194_304,
            p999_ns: 8_388_608,
            buckets: [0; crate::metrics::HISTOGRAM_BUCKETS],
        };
        latency.buckets[11] = 9_000; // ignored by the wire format
        latency.buckets = [0; crate::metrics::HISTOGRAM_BUCKETS];
        LoadReport {
            version: "0.1.0-test".into(),
            seed: 0x5EED,
            conns: 4,
            duration_ms: 10_000,
            offered_ops_per_sec: 1_000,
            achieved_ops_per_sec: 900.125,
            ops_attempted: 10_000,
            ops_ok: 9_000,
            ops_err: 700,
            ops_shed: 300,
            mix_insert: 5_400,
            mix_jaccard: 2_250,
            mix_degree: 900,
            mix_explain: 450,
            latency,
            slo_p99_ms: 250,
            slo_pass: true,
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let json = report.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(serde_json::Value::as_str),
            Some("streamlink.loadreport.v1")
        );
        let back = LoadReport::parse_json(&json).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn report_parse_rejects_wrong_schema_and_missing_fields() {
        assert!(LoadReport::parse_json("{}").is_err());
        assert!(LoadReport::parse_json("not json").is_err());
        let mut json = sample_report().render_json();
        json = json.replace("loadreport.v1", "loadreport.v9");
        assert!(LoadReport::parse_json(&json).is_err());
    }

    #[test]
    fn slo_verdict_and_exit_code() {
        let summary = HistogramSummary {
            p99_ns: 3_000_000, // 3ms
            ..HistogramSummary::default()
        };
        assert!(LoadReport::slo_verdict(0, &summary), "no SLO always passes");
        assert!(LoadReport::slo_verdict(5, &summary), "3ms under a 5ms SLO");
        assert!(!LoadReport::slo_verdict(2, &summary), "3ms over a 2ms SLO");
        let mut report = sample_report();
        report.slo_pass = true;
        assert_eq!(report.exit_code(), 0);
        report.slo_pass = false;
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn report_escapes_version_strings() {
        let mut report = sample_report();
        report.version = "v1 \"quoted\"\nline".into();
        let json = report.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("escaped JSON parses");
        assert_eq!(
            parsed.get("version").and_then(serde_json::Value::as_str),
            Some("v1 \"quoted\"\nline")
        );
        let back = LoadReport::parse_json(&json).unwrap();
        assert_eq!(back.version, report.version);
    }
}

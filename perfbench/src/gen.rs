//! Seed-driven input generators owned by the benchmark.
//!
//! Everything a workload feeds the program — the edge file, the
//! fixtures and the per-connection op streams — comes from here, keyed
//! only by the `--seed` argument. Nothing depends on the repository's
//! own generators (`core::loadgen`, `datasets`), so changes to those
//! modules cannot change the workloads.

use std::collections::HashSet;

/// SplitMix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; different `stream`
    /// values give independent sequences.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth noting).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Inverse-CDF sampler over ranks `0..n` with `P(r) ∝ (r + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|r| {
                total += ((r + 1) as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// The shape of the generated graph every workload starts from.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub vertices: u64,
    pub edges: usize,
    /// Chung–Lu weight exponent: vertex of rank `r` draws endpoints with
    /// weight `(r + 1)^-exponent`; 0.7 gives a degree tail of about 2.4.
    pub exponent: f64,
}

pub const GRAPH: GraphSpec = GraphSpec {
    vertices: 100_000,
    edges: 1_000_000,
    exponent: 0.7,
};

/// A simple power-law graph: `spec.edges` distinct undirected edges, no
/// self-loops, endpoints drawn Chung–Lu style and vertex ids permuted so
/// hubs are not the small ids. The order is the stream's arrival order.
#[must_use]
pub fn power_law_edges(seed: u64, spec: GraphSpec) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, 1);
    let zipf = Zipf::new(spec.vertices as usize, spec.exponent);
    let mut ids: Vec<u64> = (0..spec.vertices).collect();
    rng.shuffle(&mut ids);
    let mut seen = HashSet::with_capacity(spec.edges);
    let mut edges = Vec::with_capacity(spec.edges);
    while edges.len() < spec.edges {
        let u = ids[zipf.sample(&mut rng)];
        let v = ids[zipf.sample(&mut rng)];
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u, v));
        }
    }
    edges
}

/// Writes `edges` as the `src,dst,ts` CSV that `graphstream::io::read_csv`
/// and `streamlink ingest` read.
pub fn write_csv(edges: &[(u64, u64)], out: impl std::io::Write) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(out);
    writeln!(out, "src,dst,ts")?;
    for (ts, (u, v)) in edges.iter().enumerate() {
        writeln!(out, "{u},{v},{ts}")?;
    }
    out.flush()
}

/// One protocol request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `JACCARD`, `CN` or `AA`.
    Query(&'static str, u64, u64),
    Degree(u64),
    Explain(u64, u64),
    Insert(u64, u64),
    Ping,
}

impl Op {
    /// The request line, newline-terminated.
    pub fn write_line(self, out: &mut Vec<u8>) {
        use std::io::Write;
        out.clear();
        let _ = match self {
            Op::Query(m, u, v) => writeln!(out, "{m} {u} {v}"),
            Op::Degree(u) => writeln!(out, "DEGREE {u}"),
            Op::Explain(u, v) => writeln!(out, "EXPLAIN JACCARD {u} {v}"),
            Op::Insert(u, v) => writeln!(out, "INSERT {u} {v}"),
            Op::Ping => writeln!(out, "PING"),
        };
    }
}

/// The traffic mix of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of `INSERT`s of new edges among existing vertices.
    pub insert: f64,
    /// Share of `DEGREE` reads.
    pub degree: f64,
    /// Share of `EXPLAIN JACCARD` reads; the rest are JACCARD/CN/AA.
    pub explain: f64,
}

/// An endless, deterministic op stream for one connection: read
/// endpoints are Zipf-skewed over `vertices` (in a seeded popularity
/// order), insert sources likewise and insert targets uniform.
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    rng: Rng,
    mix: Mix,
    zipf: &'a Zipf,
    by_popularity: &'a [u64],
}

impl<'a> OpStream<'a> {
    pub fn new(seed: u64, conn: u64, mix: Mix, zipf: &'a Zipf, by_popularity: &'a [u64]) -> Self {
        OpStream {
            rng: Rng::new(seed, 100 + conn),
            mix,
            zipf,
            by_popularity,
        }
    }

    fn popular(&mut self) -> u64 {
        self.by_popularity[self.zipf.sample(&mut self.rng)]
    }

    fn pair(&mut self) -> (u64, u64) {
        let u = self.popular();
        let mut v = self.popular();
        while v == u {
            v = self.popular();
        }
        (u, v)
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let x = self.rng.unit();
        let m = self.mix;
        Some(if x < m.insert {
            let u = self.popular();
            let mut v = u;
            while v == u {
                v = self.by_popularity[self.rng.below(self.by_popularity.len() as u64) as usize];
            }
            Op::Insert(u, v)
        } else if x < m.insert + m.degree {
            Op::Degree(self.popular())
        } else if x < m.insert + m.degree + m.explain {
            let (u, v) = self.pair();
            Op::Explain(u, v)
        } else {
            let (u, v) = self.pair();
            let measure = ["JACCARD", "CN", "AA"][self.rng.below(3) as usize];
            Op::Query(measure, u, v)
        })
    }
}

/// The vertices of `edges` in a seeded popularity order (rank 0 is the
/// hottest under a Zipf draw), independent of the graph's own hubs.
#[must_use]
pub fn popularity_order(seed: u64, edges: &[(u64, u64)]) -> Vec<u64> {
    let mut vertices: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    vertices.sort_unstable();
    vertices.dedup();
    Rng::new(seed, 2).shuffle(&mut vertices);
    vertices
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: GraphSpec = GraphSpec {
        vertices: 2_000,
        edges: 10_000,
        exponent: 0.7,
    };

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(power_law_edges(7, SMALL), power_law_edges(7, SMALL));
        let (a, b) = (power_law_edges(7, SMALL), power_law_edges(7, SMALL));
        let ops = |edges: &[(u64, u64)]| -> Vec<Op> {
            let order = popularity_order(7, edges);
            let zipf = Zipf::new(order.len(), 1.1);
            let mix = Mix {
                insert: 0.5,
                degree: 0.1,
                explain: 0.1,
            };
            OpStream::new(7, 0, mix, &zipf, &order)
                .take(1_000)
                .collect()
        };
        assert_eq!(ops(&a), ops(&b));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(power_law_edges(1, SMALL), power_law_edges(2, SMALL));
        let mut a = Rng::new(1, 0);
        let mut b = Rng::new(1, 1);
        assert_ne!(a.next_u64(), b.next_u64(), "streams must be independent");
    }

    #[test]
    fn graph_is_simple_and_sized() {
        let edges = power_law_edges(3, SMALL);
        assert_eq!(edges.len(), SMALL.edges);
        let mut canon: Vec<_> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert!(canon.iter().all(|&(u, v)| u != v), "self-loop generated");
        canon.sort_unstable();
        canon.dedup();
        assert_eq!(canon.len(), SMALL.edges, "duplicate edge generated");
        assert!(canon.iter().all(|&(_, v)| v < SMALL.vertices));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1_000, 1.1);
        let mut rng = Rng::new(5, 0);
        let mut counts = [0u32; 1_000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn mix_shares_hold() {
        let order: Vec<u64> = (0..500).collect();
        let zipf = Zipf::new(order.len(), 1.1);
        let mix = Mix {
            insert: 0.9,
            degree: 0.0,
            explain: 0.0,
        };
        let inserts = OpStream::new(9, 1, mix, &zipf, &order)
            .take(10_000)
            .filter(|op| matches!(op, Op::Insert(..)))
            .count();
        assert!((8_800..9_200).contains(&inserts), "{inserts}");
    }

    #[test]
    fn op_lines_render() {
        let mut buf = Vec::new();
        Op::Query("CN", 1, 2).write_line(&mut buf);
        assert_eq!(buf, b"CN 1 2\n");
        Op::Explain(3, 4).write_line(&mut buf);
        assert_eq!(buf, b"EXPLAIN JACCARD 3 4\n");
        Op::Insert(5, 6).write_line(&mut buf);
        assert_eq!(buf, b"INSERT 5 6\n");
    }
}

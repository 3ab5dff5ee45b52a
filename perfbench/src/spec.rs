//! Workload traces: seeded synthetic edge streams with exact per-user
//! truth, written once per (spec, seed) as fedge and TSV files.
//!
//! The generator is the benchmark's own (it does not call the product's
//! `synth`), so a change to the program never changes its inputs. Each
//! user draws a target cardinality from a truncated Pareto law; the user's
//! edges are its distinct items plus duplicates of them, and all users'
//! edges are interleaved by one seeded shuffle. Truth is therefore exact
//! by construction: user `u` has exactly `n_u` distinct items.

use graphstream::{Edge, FedgeWriter};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Where generated traces are cached, relative to the working directory.
pub const DATA_DIR: &str = ".bench_data";

/// Shape of one synthetic trace.
#[derive(Debug)]
pub struct TraceSpec {
    /// Cache-directory prefix.
    pub name: &'static str,
    /// Users in the trace.
    pub users: u32,
    /// Pareto scale: the smallest untruncated cardinality.
    pub x_min: f64,
    /// Pareto tail index (smaller is heavier).
    pub alpha: f64,
    /// Largest per-user cardinality.
    pub max_card: u32,
    /// Edges per distinct pair (the stream's duplication ratio).
    pub duplication: f64,
}

/// Orkut-like social trace: heavy-tailed degrees, 1.2× duplication.
pub const SOCIAL: TraceSpec = TraceSpec {
    name: "social",
    users: 300_000,
    x_min: 18.0,
    alpha: 1.6,
    max_card: 3_200,
    duplication: 1.2,
};

/// Traffic-like trace (the sanjose profile's shape): most users touch a
/// handful of destinations, a few touch thousands; 1.8× duplication.
pub const TRAFFIC: TraceSpec = TraceSpec {
    name: "traffic",
    users: 6_000,
    x_min: 8.0,
    alpha: 0.9,
    max_card: 20_000,
    duplication: 1.8,
};

/// SplitMix64: the benchmark's own generator, so inputs stay fixed even
/// if the product's hash mixers change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A bijection on `u32`, so distinct user indices get distinct,
/// scattered identifier tokens.
fn permute32(x: u32, key: u32) -> u32 {
    let mut z = x ^ key;
    z = (z ^ (z >> 16)).wrapping_mul(0x7FEB_352D);
    z = (z ^ (z >> 15)).wrapping_mul(0x846C_A68B);
    z ^ (z >> 16)
}

/// One user's truth: its identifier token and exact distinct count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserTruth {
    /// The user's token: the raw fedge id, and in decimal the TSV field.
    pub token: u32,
    /// Exact number of distinct items.
    pub n: u32,
}

/// A generated trace on disk plus its truth.
#[derive(Debug)]
pub struct Trace {
    /// Binary trace.
    pub fedge: PathBuf,
    /// The same edges as TSV text, after a `#` header line.
    pub tsv: PathBuf,
    /// A fedge file with a header and no edges (for set-up timing).
    pub fedge_empty: PathBuf,
    /// A TSV file with only the header line (for set-up timing).
    pub tsv_empty: PathBuf,
    /// Edges in the trace.
    pub edges: u64,
    /// Per-user truth, in user-index order.
    pub users: Vec<UserTruth>,
}

/// Which file of a trace a phase reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `graphstream::fedge` binary.
    Fedge,
    /// Whitespace-separated text, ids hashed by `graphstream::tsv::hash_id`.
    Tsv,
}

impl Trace {
    /// Distinct (user, item) pairs in the whole trace.
    pub fn distinct(&self) -> u64 {
        self.users.iter().map(|u| u64::from(u.n)).sum()
    }

    /// Path of the trace in `format`.
    pub fn path(&self, format: Format) -> &Path {
        match format {
            Format::Fedge => &self.fedge,
            Format::Tsv => &self.tsv,
        }
    }

    /// Path of the header-only file in `format`.
    pub fn empty_path(&self, format: Format) -> &Path {
        match format {
            Format::Fedge => &self.fedge_empty,
            Format::Tsv => &self.tsv_empty,
        }
    }

    /// The user id the program derives from `token` when reading `format`.
    pub fn user_id(token: u32, format: Format) -> u64 {
        match format {
            Format::Fedge => u64::from(token),
            Format::Tsv => graphstream::tsv::hash_id(&token.to_string()),
        }
    }

    /// The protocol token that names `token`'s user to the daemon.
    pub fn query_token(token: u32, format: Format) -> String {
        match format {
            Format::Fedge => format!("#{:016x}", u64::from(token)),
            Format::Tsv => token.to_string(),
        }
    }

    /// Truth keyed by the program-side user id for `format`.
    pub fn truth_by_id(&self, format: Format) -> HashMap<u64, u32> {
        self.users
            .iter()
            .map(|u| (Self::user_id(u.token, format), u.n))
            .collect()
    }
}

/// Draws every user's target cardinality and duplicate count.
fn draw_users(spec: &TraceSpec, rng: &mut Rng) -> Vec<(u32, u32)> {
    (0..spec.users)
        .map(|_| {
            let x = spec.x_min * rng.unit().powf(-1.0 / spec.alpha);
            let n = (x.floor() as u64).clamp(1, u64::from(spec.max_card)) as u32;
            let extra = f64::from(n) * (spec.duplication - 1.0);
            // Randomized rounding keeps the duplication ratio exact on average.
            let dups = extra.floor() as u32 + u32::from(rng.unit() <= extra.fract());
            (n, dups)
        })
        .collect()
}

/// Generates the edge stream and its truth in memory.
pub fn generate(spec: &TraceSpec, seed: u64) -> (Vec<Edge>, Vec<UserTruth>) {
    let mut rng = Rng::new(seed ^ 0x5EED_0FBE_4C4D);
    let key = rng.next_u64() as u32;
    let draws = draw_users(spec, &mut rng);
    let total: usize = draws.iter().map(|&(n, d)| (n + d) as usize).sum();
    let mut order: Vec<u32> = Vec::with_capacity(total);
    for (i, &(n, d)) in draws.iter().enumerate() {
        order.extend(std::iter::repeat_n(i as u32, (n + d) as usize));
    }
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    // Per user: items emitted so far, and edges/new items still owed.
    let mut emitted = vec![0u32; draws.len()];
    let mut left_new: Vec<u32> = draws.iter().map(|&(n, _)| n).collect();
    let mut left_all: Vec<u32> = draws.iter().map(|&(n, d)| n + d).collect();
    let base: Vec<u32> = draws.iter().map(|_| rng.below(1_000_000) as u32).collect();
    let tokens: Vec<u32> = (0..draws.len() as u32).map(|i| permute32(i, key)).collect();
    let mut edges = Vec::with_capacity(total);
    for &u in &order {
        let u = u as usize;
        let fresh = emitted[u] == 0 || rng.below(u64::from(left_all[u])) < u64::from(left_new[u]);
        let k = if fresh {
            left_new[u] -= 1;
            emitted[u] += 1;
            emitted[u] - 1
        } else {
            rng.below(u64::from(emitted[u])) as u32
        };
        left_all[u] -= 1;
        edges.push(Edge::new(
            u64::from(tokens[u]),
            u64::from(base[u]) + u64::from(k),
        ));
    }
    let users = draws
        .iter()
        .zip(&tokens)
        .map(|(&(n, _), &token)| UserTruth { token, n })
        .collect();
    (edges, users)
}

fn write_tsv(path: &Path, header: &str, edges: &[Edge]) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    writeln!(w, "# {header}")?;
    for e in edges {
        writeln!(w, "{} {}", e.user, e.item)?;
    }
    w.flush()
}

fn write_fedge(path: &Path, edges: &[Edge]) -> std::io::Result<()> {
    let mut w = FedgeWriter::new(BufWriter::with_capacity(1 << 20, File::create(path)?))?;
    w.write_edges(edges)?;
    w.finish()?.flush()
}

fn write_truth(path: &Path, users: &[UserTruth]) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for u in users {
        w.write_all(&u.token.to_le_bytes())?;
        w.write_all(&u.n.to_le_bytes())?;
    }
    w.flush()
}

fn read_truth(path: &Path) -> std::io::Result<Vec<UserTruth>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| UserTruth {
            token: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            n: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        })
        .collect())
}

/// Returns the trace for (`spec`, `seed`), generating it into
/// [`DATA_DIR`] unless a complete copy is already there. Other seeds of
/// the same spec are removed first, so the cache holds one trace per spec.
pub fn prepare(spec: &TraceSpec, seed: u64) -> std::io::Result<Trace> {
    let root = Path::new(DATA_DIR);
    // The spec's parameters are part of the key, so editing a spec
    // never reuses a stale trace.
    let fingerprint = format!("{spec:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
    let dir = root.join(format!("{}-{fingerprint:016x}-{seed}", spec.name));
    let done = dir.join("done");
    let trace = |edges: u64, users: Vec<UserTruth>| Trace {
        fedge: dir.join("trace.fedge"),
        tsv: dir.join("trace.tsv"),
        fedge_empty: dir.join("empty.fedge"),
        tsv_empty: dir.join("empty.tsv"),
        edges,
        users,
    };
    if let Ok(text) = fs::read_to_string(&done) {
        if let Ok(edges) = text.trim().parse::<u64>() {
            return Ok(trace(edges, read_truth(&dir.join("truth.bin"))?));
        }
    }
    fs::create_dir_all(root)?;
    let prefix = format!("{}-", spec.name);
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            fs::remove_dir_all(entry.path())?;
        }
    }
    fs::create_dir_all(&dir)?;
    let (edges, users) = generate(spec, seed);
    let t = trace(edges.len() as u64, users);
    let header = format!("perfbench {} seed={seed} edges={}", spec.name, edges.len());
    write_fedge(&t.fedge, &edges)?;
    write_tsv(&t.tsv, &header, &edges)?;
    write_fedge(&t.fedge_empty, &[])?;
    write_tsv(&t.tsv_empty, &header, &[])?;
    write_truth(&dir.join("truth.bin"), &t.users)?;
    // Write the traces back to disk now; otherwise the kernel flushes
    // about 0.5 GB of dirty pages during the first timed runs.
    for path in [&t.fedge, &t.tsv] {
        File::open(path)?.sync_all()?;
    }
    fs::write(&done, format!("{}\n", t.edges))?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: TraceSpec = TraceSpec {
        name: "tiny",
        users: 500,
        x_min: 3.0,
        alpha: 1.2,
        max_card: 400,
        duplication: 1.5,
    };

    #[test]
    fn truth_is_exact_and_seeded() {
        let (edges, users) = generate(&TINY, 7);
        let mut seen: HashMap<u64, std::collections::HashSet<u64>> = HashMap::new();
        for e in &edges {
            seen.entry(e.user).or_default().insert(e.item);
        }
        for u in &users {
            assert_eq!(seen[&u64::from(u.token)].len(), u.n as usize);
        }
        let distinct: usize = users.iter().map(|u| u.n as usize).sum();
        let ratio = edges.len() as f64 / distinct as f64;
        assert!((ratio - 1.5).abs() < 0.05, "duplication {ratio}");
        assert_eq!(generate(&TINY, 7).0, edges);
        assert_ne!(generate(&TINY, 8).0, edges);
    }

    #[test]
    fn tokens_are_distinct() {
        let (_, users) = generate(&TINY, 1);
        let ids: std::collections::HashSet<u32> = users.iter().map(|u| u.token).collect();
        assert_eq!(ids.len(), users.len());
    }
}

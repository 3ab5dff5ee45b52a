//! The traced replay of the offline `estimate` path: the same layers the
//! CLI drives (source decode, engine or sharded fan-out, ranking the
//! report), called from here so each call can be wrapped in a span.
//!
//! With the tracer disabled the replay is the untraced baseline the
//! tracing overhead is measured against.

use crate::check::Method;
use crate::offline::{MEMORY_BITS, SKETCH_SEED, TOP};
use crate::trace::Tracer;
use freesketch::{CardinalityEstimator, ConcurrentEstimator};
use freesketch::{FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS};
use graphstream::Edge;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The CLI's default `--chunk` and `--batch`.
pub const CHUNK: usize = 1 << 16;
/// See [`CHUNK`].
pub const BATCH: usize = 8192;

/// What one replay did.
#[derive(Debug)]
pub struct Replay {
    /// Wall time, decode to finished report, in seconds.
    pub wall_s: f64,
    /// Edges decoded and applied.
    pub edges: u64,
    /// Edges that changed the array per edge (bit stores only).
    pub growth_frac: Option<f64>,
}

/// The estimator the CLI builds for a method and thread count.
enum Engine {
    FreeBS(FreeBS),
    FreeRS(FreeRS),
    ShardedFreeBS(ShardedFreeBS),
    ShardedFreeRS(ShardedFreeRS),
}

impl Engine {
    fn new(method: Method, threads: usize) -> Self {
        let slots = method.slots(MEMORY_BITS);
        let shards = threads.next_power_of_two();
        match (method, threads > 1) {
            (Method::FreeBS, false) => Self::FreeBS(FreeBS::new(slots, SKETCH_SEED)),
            (Method::FreeRS, false) => Self::FreeRS(FreeRS::new(slots, SKETCH_SEED)),
            (Method::FreeBS, true) => {
                Self::ShardedFreeBS(ShardedFreeBS::new(slots, shards, SKETCH_SEED))
            }
            (Method::FreeRS, true) => {
                Self::ShardedFreeRS(ShardedFreeRS::new(slots, shards, SKETCH_SEED))
            }
        }
    }

    fn query(&self) -> &dyn CardinalityEstimator {
        match self {
            Self::FreeBS(e) => e,
            Self::FreeRS(e) => e,
            Self::ShardedFreeBS(e) => e,
            Self::ShardedFreeRS(e) => e,
        }
    }

    fn scalar(&mut self) -> Option<&mut dyn CardinalityEstimator> {
        match self {
            Self::FreeBS(e) => Some(e),
            Self::FreeRS(e) => Some(e),
            _ => None,
        }
    }

    fn shared(&self) -> Option<&dyn ConcurrentEstimator> {
        match self {
            Self::ShardedFreeBS(e) => Some(e),
            Self::ShardedFreeRS(e) => Some(e),
            _ => None,
        }
    }

    /// Bits set per edge: a bit store's `m₀/M` is `q`, so `(1 − q)·M`
    /// edges changed the array. `None` for register stores.
    fn growth_frac(&self, edges: u64) -> Option<f64> {
        let (q, m) = match self {
            Self::FreeBS(e) => (e.q(), e.capacity()),
            Self::ShardedFreeBS(e) => (e.q(), e.capacity()),
            _ => return None,
        };
        Some((1.0 - q) * m as f64 / edges.max(1) as f64)
    }
}

/// Ranks users like the CLI report does and renders the top lines.
fn report(est: &dyn CardinalityEstimator) -> String {
    let mut users: Vec<(u64, f64)> = Vec::new();
    est.for_each_estimate(&mut |u, e| users.push((u, e)));
    users.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out = String::with_capacity(TOP * 32);
    for (u, e) in users.iter().take(TOP) {
        let _ = writeln!(out, "  {u:016x}  {e:.1}");
    }
    out
}

/// Replays `estimate --method <method> --threads <threads>` over `path`,
/// recording spans `estimate` ⊃ {`decode`, `apply` ⊃ `fanout` ⊃ `part`,
/// `report`}, one request id per chunk.
pub fn replay(
    path: &Path,
    method: Method,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let t0 = Instant::now();
    let root = tracer.begin("estimate", None, 0);
    let mut engine = Engine::new(method, threads);
    let (mut src, _) = freesketch_cli::open_source(&path.display().to_string(), None)
        .map_err(|e| e.to_string())?;
    let mut buf: Vec<Edge> = Vec::with_capacity(CHUNK);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(CHUNK);
    let mut edges = 0u64;
    for chunk in 1u64.. {
        let span = tracer.begin("decode", root, chunk);
        let n = src.next_chunk(&mut buf, CHUNK).map_err(|e| e.to_string())?;
        tracer.end(span);
        if n == 0 {
            break;
        }
        let apply = tracer.begin("apply", root, chunk);
        pairs.clear();
        pairs.extend(buf.iter().map(|e| e.pair()));
        if let Some(est) = engine.scalar() {
            for slice in pairs.chunks(BATCH) {
                est.process_batch(slice);
            }
        } else if let Some(est) = engine.shared() {
            let fanout = tracer.begin("fanout", apply, chunk);
            let part_len = n.div_ceil(threads).max(1);
            let parts: Result<Vec<(Instant, Instant)>, String> = std::thread::scope(|s| {
                let handles: Vec<_> = pairs
                    .chunks(part_len)
                    .map(|part| {
                        s.spawn(move || {
                            let start = Instant::now();
                            for slice in part.chunks(BATCH) {
                                est.ingest_batch(slice);
                            }
                            (start, Instant::now())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| "an ingest thread panicked".to_string())
                    })
                    .collect()
            });
            tracer.end(fanout);
            for (start, end) in parts? {
                tracer.record("part", fanout, chunk, start, end);
            }
        }
        tracer.end(apply);
        edges += n as u64;
    }
    let span = tracer.begin("report", root, 0);
    std::hint::black_box(report(engine.query()));
    tracer.end(span);
    tracer.end(root);
    Ok(Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        edges,
        growth_frac: engine.growth_frac(edges),
    })
}

/// Sum over `fanout` spans of the time the fan-out took beyond its parts'
/// mean duration: spawn/join cost plus the wait for the slowest part.
pub fn fanout_wait_ns(tracer: &Tracer) -> u64 {
    let spans = tracer.spans();
    let mut parts: Vec<(u64, u64)> = vec![(0, 0); spans.len()];
    for s in spans.iter().filter(|s| s.name == "part") {
        if let Some(p) = s.parent {
            parts[p].0 += s.end - s.start;
            parts[p].1 += 1;
        }
    }
    spans
        .iter()
        .zip(&parts)
        .filter(|(s, (_, k))| s.name == "fanout" && *k > 0)
        .map(|(s, (sum, k))| (s.end - s.start).saturating_sub(sum / k))
        .sum()
}

//! The traced run: per-layer metrics. Each layer's public functions are
//! called from here on the workload's own data and timed (median of a few
//! repetitions), then the offline path is replayed under spans and the
//! serve phase is run again to split round trips from compute.

use crate::check::{Gate, Method};
use crate::loadgen::Kind;
use crate::offline::{MEMORY_BITS, SKETCH_SEED};
use crate::replay::{fanout_wait_ns, replay, BATCH, CHUNK};
use crate::serve::{build_sketch, query_mix, run_phase, ServeRun, TOPK_N};
use crate::spec::{Rng, Trace, DATA_DIR};
use crate::trace::Tracer;
use crate::{stats, Metric, Workload};
use bitpack::{AtomicBitArray, AtomicPackedArray, BitArray, ConcurrentSlotStore, SlotStore};
use freesketch::ingest::{stream_into, stream_into_parallel};
use freesketch::{CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS, ShardedFreeRS};
use graphstream::{Edge, EdgeSource, FedgeReader, SliceSource, TsvEdgeSource};
use hashkit::{geometric_rank, splitmix64, CounterMap, EdgeHasher};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Edges of the social trace the micro-measurements run over.
const SAMPLE_EDGES: usize = 1 << 21;

/// Repetitions per micro-measurement (the median is reported).
const REPS: usize = 5;

/// Block the engines' batch path hashes and updates at a time.
const BLOCK: usize = 512;

/// Median over [`REPS`] of `f`'s wall time divided by `ops`, in ns. Each
/// repetition gets fresh state from `setup`, which is not timed.
fn ns_per<S>(ops: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut t = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let state = setup();
        let t0 = Instant::now();
        f(state);
        t.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    stats::median(&t)
}

/// Decodes up to `limit` edges of `src` chunk by chunk, keeping none;
/// returns how many there were.
fn drain(src: &mut dyn EdgeSource, limit: usize) -> Result<usize, String> {
    let mut buf = Vec::with_capacity(CHUNK);
    let mut seen = 0usize;
    while seen < limit {
        let n = src.next_chunk(&mut buf, CHUNK).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        black_box(&buf);
        seen += n;
    }
    Ok(seen)
}

fn read_edges(src: &mut dyn EdgeSource, limit: usize) -> Result<Vec<Edge>, String> {
    let mut all = Vec::new();
    let mut buf = Vec::with_capacity(CHUNK);
    while all.len() < limit {
        let n = src.next_chunk(&mut buf, CHUNK).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        all.extend_from_slice(&buf[..n.min(limit - all.len())]);
    }
    Ok(all)
}

fn open(path: &Path) -> Result<std::fs::File, String> {
    std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Decode cost of both sources, and the TSV id hash.
fn graphstream_layers(social: &Trace, out: &mut Vec<Metric>) -> Result<(), String> {
    // Both decoders read the page-cached file through a `BufReader`, as
    // `open_source` sets them up.
    let mut fails = None;
    let mut note = |r: Result<usize, String>| {
        if let Err(e) = r {
            fails = Some(e);
        }
    };
    let fedge = ns_per(
        social.edges as usize,
        || open(&social.fedge).map(BufReader::new),
        |file| {
            note(file.and_then(|f| {
                drain(
                    &mut FedgeReader::new(f).map_err(|e| e.to_string())?,
                    usize::MAX,
                )
            }));
        },
    );
    let tsv = ns_per(
        SAMPLE_EDGES,
        || open(&social.tsv).map(BufReader::new),
        |file| note(file.and_then(|f| drain(&mut TsvEdgeSource::new(f), SAMPLE_EDGES))),
    );
    if let Some(e) = fails {
        return Err(e);
    }
    let tokens: Vec<String> = social.users.iter().map(|u| u.token.to_string()).collect();
    let hash = ns_per(
        tokens.len(),
        || (),
        |()| {
            for t in &tokens {
                black_box(graphstream::tsv::hash_id(black_box(t)));
            }
        },
    );
    out.push(("graphstream.fedge.next_chunk_ns_per_edge", fedge, "ns"));
    out.push(("graphstream.tsv.next_chunk_ns_per_edge", tsv, "ns"));
    out.push(("graphstream.tsv.hash_id_ns", hash, "ns"));
    Ok(())
}

/// Hashing, the counter map and the three slot stores, over the sample.
fn store_layers(pairs: &[(u64, u64)], traffic_ids: &[u64], out: &mut Vec<Metric>) {
    let n = pairs.len();
    let m_bits = Method::FreeBS.slots(MEMORY_BITS);
    let m_regs = Method::FreeRS.slots(MEMORY_BITS);
    let hasher = EdgeHasher::new(SKETCH_SEED);
    let mut slots = vec![0usize; n];
    out.push((
        "hashkit.slots_many_ns_per_edge",
        ns_per(
            n,
            || (),
            |()| {
                for (e, s) in pairs.chunks(BLOCK).zip(slots.chunks_mut(BLOCK)) {
                    hasher.slots_many(e, m_bits, s);
                }
                black_box(&slots);
            },
        ),
        "ns",
    ));
    out.push((
        "hashkit.countermap.add_ns_per_op",
        ns_per(n, CounterMap::new, |mut map| {
            for &(u, _) in pairs {
                map.add(u, 1.0);
            }
            black_box(map.len());
        }),
        "ns",
    ));
    let mut loaded = CounterMap::new();
    for &u in traffic_ids {
        loaded.add(u, 1.0);
    }
    let mut rng = Rng::new(7);
    let lookups: Vec<u64> = (0..1 << 18)
        .map(|_| traffic_ids[rng.below(traffic_ids.len() as u64) as usize])
        .collect();
    out.push((
        "hashkit.countermap.get_ns_per_op",
        ns_per(
            lookups.len(),
            || (),
            |()| {
                for &u in &lookups {
                    black_box(loaded.get(u));
                }
            },
        ),
        "ns",
    ));

    let ones = vec![1u16; BLOCK];
    let (mut grew, mut old) = (vec![false; BLOCK], vec![0u16; BLOCK]);
    out.push((
        "bitpack.bitarray.update_many_ns_per_edge",
        ns_per(
            n,
            || BitArray::new(m_bits),
            |mut bits| {
                for s in slots.chunks(BLOCK) {
                    let k = s.len();
                    bits.update_many(s, &ones[..k], &mut grew[..k], &mut old[..k]);
                }
                black_box(bits.zeros());
            },
        ),
        "ns",
    ));
    out.push((
        "bitpack.atomic.update_ns_per_edge",
        ns_per(
            n,
            || AtomicBitArray::new(m_bits),
            |bits| {
                let (mut grew, mut old) = (vec![false; BLOCK], vec![0u16; BLOCK]);
                for s in slots.chunks(BLOCK) {
                    let k = s.len();
                    bits.update_block(s, &ones[..k], &mut grew[..k], &mut old[..k]);
                }
                black_box(bits.zeros());
            },
        ),
        "ns",
    ));
    let mut reg_slots = vec![0usize; n];
    for (e, s) in pairs.chunks(BLOCK).zip(reg_slots.chunks_mut(BLOCK)) {
        hasher.slots_many(e, m_regs, s);
    }
    let ranks: Vec<u16> = pairs
        .iter()
        .map(|&(u, i)| {
            let r = geometric_rank(splitmix64(hasher.hash_edge(u, i)));
            u16::from(r.saturated(FreeRS::DEFAULT_WIDTH))
        })
        .collect();
    out.push((
        "bitpack.atomic_packed.update_ns_per_edge",
        ns_per(
            n,
            || AtomicPackedArray::new(m_regs, FreeRS::DEFAULT_WIDTH),
            |regs| {
                let (mut grew, mut old) = (vec![false; BLOCK], vec![0u16; BLOCK]);
                for (s, v) in reg_slots.chunks(BLOCK).zip(ranks.chunks(BLOCK)) {
                    let k = s.len();
                    regs.update_block(s, v, &mut grew[..k], &mut old[..k]);
                }
                black_box(regs.zero_slots());
            },
        ),
        "ns",
    ));
}

/// A sink estimator: the ingest drivers' own cost, with no engine behind.
struct Null;

impl CardinalityEstimator for Null {
    fn process(&mut self, user: u64, item: u64) {
        black_box((user, item));
    }
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        black_box(edges.len());
    }
    fn estimate(&self, _user: u64) -> f64 {
        0.0
    }
    fn total_estimate(&self) -> f64 {
        0.0
    }
    fn memory_bits(&self) -> usize {
        0
    }
    fn for_each_estimate(&self, _f: &mut dyn FnMut(u64, f64)) {}
    fn name(&self) -> &'static str {
        "null"
    }
}

impl ConcurrentEstimator for Null {
    fn ingest(&self, user: u64, item: u64) {
        black_box((user, item));
    }
    fn ingest_batch(&self, edges: &[(u64, u64)]) {
        black_box(edges.len());
    }
}

/// The scalar engines, the sharded engine at 1 and 2 threads, routing and
/// the ingest drivers alone.
fn engine_layers(edges: &[Edge], pairs: &[(u64, u64)], out: &mut Vec<Metric>) {
    let n = pairs.len();
    let m_bits = Method::FreeBS.slots(MEMORY_BITS);
    let m_regs = Method::FreeRS.slots(MEMORY_BITS);
    out.push((
        "core.engine.freebs.process_batch_ns_per_edge",
        ns_per(
            n,
            || FreeBS::new(m_bits, SKETCH_SEED),
            |mut est| {
                for slice in pairs.chunks(BATCH) {
                    est.process_batch(slice);
                }
                black_box(est.q());
            },
        ),
        "ns",
    ));
    out.push((
        "core.engine.freers.process_batch_ns_per_edge",
        ns_per(
            n,
            || FreeRS::new(m_regs, SKETCH_SEED),
            |mut est| {
                for slice in pairs.chunks(BATCH) {
                    est.process_batch(slice);
                }
                black_box(est.q());
            },
        ),
        "ns",
    ));
    let sharded = || ShardedFreeRS::new(m_regs, 2, SKETCH_SEED);
    let router = sharded();
    let mut counts = [0u64; 2];
    out.push((
        "core.sharded.route_ns_per_edge",
        ns_per(
            n,
            || (),
            |()| {
                counts = [0; 2];
                for &(u, i) in pairs {
                    counts[router.route(u, i)] += 1;
                }
            },
        ),
        "ns",
    ));
    let mean = n as f64 / counts.len() as f64;
    let skew = counts.iter().copied().max().unwrap_or(0) as f64 / mean;
    out.push((
        "core.sharded.process_batch_ns_per_edge.t1",
        ns_per(n, sharded, |est| {
            for slice in pairs.chunks(BATCH) {
                est.process_batch(slice);
            }
            black_box(est.q());
        }),
        "ns",
    ));
    out.push((
        "core.sharded.process_batch_ns_per_edge.t2",
        ns_per(n, sharded, |est| {
            std::thread::scope(|s| {
                for half in pairs.chunks(n.div_ceil(2)) {
                    let est = &est;
                    s.spawn(move || {
                        for slice in half.chunks(BATCH) {
                            est.process_batch(slice);
                        }
                    });
                }
            });
            black_box(est.q());
        }),
        "ns",
    ));
    out.push(("core.sharded.shard_skew", skew, "ratio"));
    out.push((
        "core.ingest.stream_into_overhead_ns_per_edge",
        ns_per(
            n,
            || SliceSource::new(edges),
            |mut src| {
                let got = stream_into(&mut Null, &mut src, CHUNK, BATCH);
                black_box(got.ok());
            },
        ),
        "ns",
    ));
    let chunks = n.div_ceil(CHUNK);
    out.push((
        "core.ingest.parallel_chunk_us",
        ns_per(
            chunks,
            || SliceSource::new(edges),
            |mut src| {
                let got = stream_into_parallel(&Null, &mut src, CHUNK, BATCH, 2);
                black_box(got.ok());
            },
        ) / 1e3,
        "us",
    ));
}

/// The daemon's query work (the same public calls `respond` makes) on a
/// sketch loaded with the whole traffic trace, and request parsing.
fn query_layers(
    w: &Workload,
    traffic: &Trace,
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<f64, String> {
    let sketch = build_sketch(w.method);
    let est = sketch
        .as_concurrent()
        .ok_or("serve sketch is not concurrent")?;
    let (mut src, _) =
        freesketch_cli::open_source(&traffic.path(w.format).display().to_string(), None)
            .map_err(|e| e.to_string())?;
    let edges = read_edges(src.as_mut(), usize::MAX)?;
    let pairs: Vec<(u64, u64)> = edges.iter().map(|e| e.pair()).collect();
    for slice in pairs.chunks(BATCH) {
        est.ingest_batch(slice);
    }
    let mut rng = Rng::new(seed);
    let queries = query_mix(traffic, w.format, 20_000, &mut rng);
    let parse = ns_per(
        queries.len(),
        || (),
        |()| {
            for q in &queries {
                black_box(freesketch_cli::protocol::parse_request(q.line.as_bytes()).ok());
            }
        },
    );
    let users: Vec<u64> = queries
        .iter()
        .filter(|q| q.kind == Kind::Estimate)
        .filter_map(
            |q| match freesketch_cli::protocol::parse_request(q.line.as_bytes()) {
                Ok(freesketch_cli::protocol::Request::Estimate { user }) => Some(user),
                _ => None,
            },
        )
        .collect();
    let estimate = ns_per(
        users.len(),
        || (),
        |()| {
            for &u in &users {
                black_box(format!("OK {:.3}", sketch.estimate(u)));
            }
        },
    ) / 1e3;
    let mut topk = Vec::new();
    let mut stats_t = Vec::new();
    for _ in 0..31 {
        let t0 = Instant::now();
        let mut all: Vec<(u64, f64)> = Vec::new();
        sketch.for_each_estimate(&mut |u, e| all.push((u, e)));
        all.sort_by(|a, b| b.1.total_cmp(&a.1));
        all.truncate(TOPK_N);
        let mut s = format!("OK {}", all.len());
        for (u, e) in &all {
            let _ = write!(s, " #{u:016x}:{e:.3}");
        }
        black_box(s);
        topk.push(t0.elapsed().as_secs_f64() * 1e6);

        let t0 = Instant::now();
        let mut n_users = 0u64;
        sketch.for_each_estimate(&mut |_, _| n_users += 1);
        black_box(format!(
            "OK users={n_users} total={:.3} q={:.6} memory_bits={} kind={}",
            sketch.total_estimate(),
            sketch.sampling_q(),
            sketch.memory_bits(),
            sketch.kind()
        ));
        stats_t.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("cli.protocol.parse_request_ns", parse, "ns"));
    out.push(("cli.serve.estimate_compute_us", estimate, "us"));
    out.push(("cli.serve.topk_compute_us", stats::median(&topk), "us"));
    out.push(("cli.serve.stats_compute_us", stats::median(&stats_t), "us"));
    Ok(estimate)
}

/// Traced and untraced replays of the offline path; the trace metrics come
/// from the workload's own configuration, growth from the bit-sharing
/// scalar path and the fan-out wait from a 2-thread FreeRS replay of the
/// TSV trace.
fn trace_layers(
    w: &Workload,
    social: &Trace,
    gate: &mut Gate,
    out: &mut Vec<Metric>,
) -> Result<Tracer, String> {
    let own = (social.path(w.format), w.method, 1);
    let check = |r: &crate::replay::Replay, gate: &mut Gate| {
        gate.check(r.edges == social.edges, || {
            format!(
                "replay applied {} edges, trace has {}",
                r.edges, social.edges
            )
        });
    };
    // Alternate untraced and traced replays so host drift hits both alike.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut own_trace = Tracer::new(true);
    for i in 0..4 {
        let mut t = if i % 2 == 0 {
            Tracer::new(false)
        } else {
            Tracer::new(true)
        };
        let r = replay(own.0, own.1, own.2, &mut t)?;
        check(&r, gate);
        if i % 2 == 0 {
            plain.push(r.wall_s);
        } else {
            traced.push(r.wall_s);
            own_trace = t;
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    out.push((
        "trace.decode_self_ms",
        ms(own_trace.self_ns("decode")),
        "ms",
    ));
    out.push(("trace.apply_self_ms", ms(own_trace.self_ns("apply")), "ms"));
    out.push((
        "trace.report_self_ms",
        ms(own_trace.self_ns("report")),
        "ms",
    ));
    out.push((
        "trace.overhead_frac",
        stats::median(&traced) / stats::median(&plain) - 1.0,
        "ratio",
    ));

    // The workloads run one thread, which has no fan-out.
    let mut fanned = Tracer::new(true);
    check(&replay(&social.tsv, Method::FreeRS, 2, &mut fanned)?, gate);
    out.push(("trace.fanout_wait_ms", ms(fanout_wait_ns(&fanned)), "ms"));
    let bits = replay(&social.fedge, Method::FreeBS, 1, &mut Tracer::new(false))?;
    check(&bits, gate);
    out.push((
        "core.engine.growth_frac",
        bits.growth_frac.unwrap_or(f64::NAN),
        "ratio",
    ));
    Ok(own_trace)
}

/// Spans of a serve phase: per query `query` (due → reply) ⊃ `rtt`
/// (sent → reply); per chunk `chunk` (due → applied) ⊃ `apply` (handed →
/// applied). Request ids are query and chunk indices.
fn serve_spans(run: &ServeRun) -> Tracer {
    let s = &run.session;
    let first = s.due.iter().chain(run.chunks.iter().map(|c| &c.0)).min();
    let mut t = Tracer::with_origin(true, first.copied().unwrap_or_else(Instant::now));
    for (i, ((due, sent), recv)) in s.due.iter().zip(&s.sent).zip(&s.recv).enumerate() {
        if let Some(recv) = *recv {
            let q = t.record("query", None, i as u64, *due, recv);
            t.record("rtt", q, i as u64, *sent, recv);
        }
    }
    for (i, &(due, handed, applied)) in run.chunks.iter().enumerate() {
        let c = t.record("chunk", None, i as u64, due, applied);
        t.record("apply", c, i as u64, handed, applied);
    }
    t
}

/// Runs every per-layer measurement for `w` and writes the spans of the
/// traced replay and of the serve phase to
/// `DATA_DIR/spans-<workload>-{replay,serve}.tsv`.
pub fn per_layer(
    w: &Workload,
    social: &Trace,
    traffic: &Trace,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let sample = read_edges(
        &mut FedgeReader::new(BufReader::new(open(&social.fedge)?)).map_err(|e| e.to_string())?,
        SAMPLE_EDGES,
    )?;
    let pairs: Vec<(u64, u64)> = sample.iter().map(|e| e.pair()).collect();
    let traffic_ids: Vec<u64> = traffic
        .users
        .iter()
        .map(|u| Trace::user_id(u.token, w.format))
        .collect();
    graphstream_layers(social, &mut out)?;
    store_layers(&pairs, &traffic_ids, &mut out);
    engine_layers(&sample, &pairs, &mut out);
    let compute_us = query_layers(w, traffic, seed, &mut out)?;
    let replay_spans = trace_layers(w, social, gate, &mut out)?;

    let mut rng = Rng::new(seed);
    let run = run_phase(traffic, w.format, w.method, seconds / 2.0, &mut rng, gate)?;
    let rtt = run.session.rtt_us(&run.queries, &[Kind::Estimate]);
    out.push((
        "cli.serve.rtt_overhead_us",
        stats::median(&rtt) - compute_us,
        "us",
    ));
    let lag = stats::percentile(&run.session.send_lag_us(), 0.99).unwrap_or(f64::NAN);
    out.push(("loadgen.send_lag_p99_us", lag, "us"));
    for (_, name, value, unit) in crate::serve_latencies(&run) {
        out.push((name, value, unit));
    }
    out.sort_by(|a, b| a.0.cmp(b.0));

    let dir = Path::new(DATA_DIR);
    for (tag, spans) in [("replay", &replay_spans), ("serve", &serve_spans(&run))] {
        let path = dir.join(format!("spans-{}-{tag}.tsv", w.name));
        spans
            .write_to(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

//! The serve phase: a `freesketch_cli::serve::spawn` daemon built the way
//! `freesketch serve --threads 1` builds it, fed by a paced source and
//! queried open loop over one pipelined connection.

use crate::check::{Gate, Method};
use crate::loadgen::{run_session, Kind, PacedSource, Query, Session, SharedLog};
use crate::offline::{MEMORY_BITS, SKETCH_SEED};
use crate::spec::{Format, Rng, Trace};
use freesketch::snapshot::AnySketch;
use freesketch::{ShardedFreeBS, ShardedFreeRS};
use freesketch_cli::serve::{spawn, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries per second on the connection.
pub const QUERY_RATE: f64 = 1000.0;

/// Share of `TOPK` and of `STATS` in the query mix; the rest is
/// `ESTIMATE`.
pub const TOPK_SHARE: f64 = 0.07;
/// See [`TOPK_SHARE`].
pub const STATS_SHARE: f64 = 0.03;

/// Users a `TOPK` asks for.
pub const TOPK_N: usize = 10;

/// Edges per paced chunk.
pub const PACE_CHUNK: usize = 256;

/// Users whose final estimates are checked after the drain.
pub const CHECKED_USERS: usize = 500;

/// Grace after the schedule ends before missing replies count as failed.
const GRACE: Duration = Duration::from_secs(10);

/// The sketch `serve --threads 1` starts from: sharded, one shard.
pub fn build_sketch(method: Method) -> AnySketch {
    let m = method.slots(MEMORY_BITS);
    match method {
        Method::FreeBS => AnySketch::ShardedFreeBS(ShardedFreeBS::new(m, 1, SKETCH_SEED)),
        Method::FreeRS => AnySketch::ShardedFreeRS(ShardedFreeRS::new(m, 1, SKETCH_SEED)),
    }
}

fn start_daemon(
    method: Method,
    path: &Path,
    pace: Option<(u64, Duration, Instant)>,
) -> Result<(ServerHandle, Option<SharedLog>), String> {
    let sketch = build_sketch(method);
    let path_str = path.display().to_string();
    let (src, _) = freesketch_cli::open_source(&path_str, None).map_err(|e| e.to_string())?;
    let (src, log): (Box<dyn graphstream::EdgeSource + Send>, _) = match pace {
        Some((total, period, start)) => {
            let (paced, log) = PacedSource::new(src, total, PACE_CHUNK, period, start);
            (Box::new(paced), Some(log))
        }
        None => (src, None),
    };
    let config = ServeConfig {
        writers: 1,
        ..ServeConfig::default()
    };
    let handle = spawn(sketch, src, config).map_err(|e| e.to_string())?;
    Ok((handle, log))
}

/// One set-up: from building the sketch to the first `OK` reply of a
/// daemon over the header-only trace, in seconds. The daemon is drained
/// and joined before returning.
pub fn setup_once(method: Method, empty: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let (handle, _) = start_daemon(method, empty, None)?;
    let reply = (|| -> std::io::Result<String> {
        let mut s = TcpStream::connect(handle.addr())?;
        s.write_all(b"STATS\n")?;
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line)?;
        Ok(line)
    })();
    let secs = t0.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join().map_err(|e| e.to_string())?;
    match reply {
        Ok(line) if line.starts_with("OK ") => Ok(secs),
        Ok(line) => Err(format!("first reply was `{}`", line.trim_end())),
        Err(e) => Err(format!("first query failed: {e}")),
    }
}

/// The open-loop query mix: `n` requests, users drawn uniformly.
pub fn query_mix(trace: &Trace, format: Format, n: usize, rng: &mut Rng) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let r = rng.unit();
            if r <= TOPK_SHARE {
                Query {
                    kind: Kind::TopK,
                    line: format!("TOPK {TOPK_N}"),
                }
            } else if r <= TOPK_SHARE + STATS_SHARE {
                Query {
                    kind: Kind::Stats,
                    line: "STATS".to_string(),
                }
            } else {
                let u = trace.users[rng.below(trace.users.len() as u64) as usize];
                Query {
                    kind: Kind::Estimate,
                    line: format!("ESTIMATE {}", Trace::query_token(u.token, format)),
                }
            }
        })
        .collect()
}

/// What one serve phase measured.
#[derive(Debug)]
pub struct ServeRun {
    /// The load session (queries during ingest).
    pub session: Session,
    /// The queries sent.
    pub queries: Vec<Query>,
    /// Per-chunk freshness in ms.
    pub freshness_ms: Vec<f64>,
    /// Per chunk: (due, handed out, applied).
    pub chunks: Vec<(Instant, Instant, Instant)>,
    /// Paced ingest rate, edges/s.
    pub ingest_rate: f64,
}

/// Runs the paced ingest and the query load for `seconds`, then drains
/// the daemon and gates everything it answered.
pub fn run_phase(
    trace: &Trace,
    format: Format,
    method: Method,
    seconds: f64,
    rng: &mut Rng,
    gate: &mut Gate,
) -> Result<ServeRun, String> {
    let n_queries = (QUERY_RATE * seconds).round().max(1.0) as usize;
    let queries = query_mix(trace, format, n_queries, rng);
    let chunks = trace.edges.div_ceil(PACE_CHUNK as u64).max(1);
    let period = Duration::from_secs_f64(seconds / chunks as f64);
    // Leave the daemon a moment to start before the first item is due.
    let start = Instant::now() + Duration::from_millis(20);
    let (handle, log) = start_daemon(
        method,
        trace.path(format),
        Some((trace.edges, period, start)),
    )?;
    let log = log.ok_or("paced daemon has no chunk log")?;
    let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let deadline = start + Duration::from_secs_f64(seconds) + GRACE;
    let session = run_session(handle.addr(), &queries, start, interval, deadline);

    // Wait for the writer to drain the source, then check final estimates.
    while !log.lock().exhausted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let final_check = check_final(trace, format, method, &handle, rng, gate);
    handle.shutdown();
    let report = handle.join().map_err(|e| e.to_string())?;
    let session = session.map_err(|e| format!("query session: {e}"))?;
    final_check?;

    let failed = session.failures(&queries);
    gate.tally(queries.len() as u64, failed as u64, || {
        format!(
            "{failed} of {} queries unanswered or malformed",
            queries.len()
        )
    });
    gate.check(report.edges == trace.edges, || {
        format!(
            "daemon drained {} edges, trace has {}",
            report.edges, trace.edges
        )
    });
    gate.check(!report.writer_panicked, || {
        "a writer thread panicked".into()
    });
    gate.check(report.errors.is_empty(), || {
        format!("daemon errors: {:?}", report.errors)
    });
    let log = log.lock();
    gate.check(log.exhausted && log.applied.len() == log.due.len(), || {
        "the writer never drained the paced source".into()
    });
    Ok(ServeRun {
        session,
        queries,
        freshness_ms: log.freshness_ms(),
        chunks: log
            .due
            .iter()
            .zip(&log.handed)
            .zip(&log.applied)
            .map(|((d, h), a)| (*d, *h, *a))
            .collect(),
        ingest_rate: trace.edges as f64 / seconds,
    })
}

/// After the drain: the final estimates of a seeded sample of users must
/// lie within the variance-bound tolerance of the truth.
fn check_final(
    trace: &Trace,
    format: Format,
    method: Method,
    handle: &ServerHandle,
    rng: &mut Rng,
    gate: &mut Gate,
) -> Result<(), String> {
    let users: Vec<_> = (0..CHECKED_USERS)
        .map(|_| trace.users[rng.below(trace.users.len() as u64) as usize])
        .collect();
    let mut queries = vec![Query {
        kind: Kind::Stats,
        line: "STATS".to_string(),
    }];
    queries.extend(users.iter().map(|u| Query {
        kind: Kind::Estimate,
        line: format!("ESTIMATE {}", Trace::query_token(u.token, format)),
    }));
    let now = Instant::now();
    let s = run_session(handle.addr(), &queries, now, Duration::ZERO, now + GRACE)
        .map_err(|e| format!("final check session: {e}"))?;
    // The drained sketch's own q: every credited edge saw q(t) ≥ q_end.
    let q_end = s.replies[0]
        .as_deref()
        .and_then(|r| r.split_whitespace().find_map(|f| f.strip_prefix("q=")))
        .and_then(|q| q.parse::<f64>().ok());
    gate.check(q_end.is_some_and(|q| q > 0.0 && q <= 1.0), || {
        format!("final STATS reply {:?} has no valid q", s.replies[0])
    });
    let q_end = q_end.unwrap_or(1.0);
    let n_total = trace.distinct() as f64;
    for (u, reply) in users.iter().zip(&s.replies[1..]) {
        let est = reply
            .as_deref()
            .and_then(|r| r.strip_prefix("OK "))
            .and_then(|v| v.parse::<f64>().ok());
        let n = f64::from(u.n);
        let tol = method.tolerance(MEMORY_BITS, n, n_total, q_end);
        gate.check(est.is_some_and(|e| (e - n).abs() <= tol), || {
            format!(
                "final ESTIMATE of {}: {reply:?} vs truth {n} (tolerance {tol:.1})",
                u.token
            )
        });
    }
    Ok(())
}

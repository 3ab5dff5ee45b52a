//! Open-loop load for the serve phase: a paced edge source for ingest and
//! one pipelined query connection (a sender thread and a receiver).
//!
//! Both run on a fixed schedule that does not wait for the daemon, so a
//! stall shows up as growing delay, and every operation is timed from the
//! moment it was due.

use graphstream::{Edge, EdgeSource, EdgeStreamError};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When item `i` of a fixed-rate schedule is due.
pub fn due_at(start: Instant, period: Duration, i: usize) -> Instant {
    start + period.mul_f64(i as f64)
}

/// Sleeps until `t`. The wake-up overshoot (timer slack plus scheduling)
/// is part of the measured delay and is reported as send lag; spinning it
/// away would take CPU from the daemon on a small host.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the paced source saw, per chunk.
#[derive(Debug, Default)]
pub struct ChunkLog {
    /// When each chunk was due to arrive.
    pub due: Vec<Instant>,
    /// When the writer got it.
    pub handed: Vec<Instant>,
    /// When it was applied: with one writer, the moment that writer asks
    /// for the next chunk.
    pub applied: Vec<Instant>,
    /// The source has reported its end to the writer.
    pub exhausted: bool,
}

impl ChunkLog {
    /// Per-chunk freshness (applied − due) in ms.
    pub fn freshness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.applied)
            .map(|(d, a)| a.saturating_duration_since(*d).as_secs_f64() * 1e3)
            .collect()
    }
}

/// The chunk log a [`PacedSource`] shares with the benchmark.
pub type SharedLog = Arc<Mutex<ChunkLog>>;

/// An [`EdgeSource`] that hands out `chunk`-edge pieces of `inner` no
/// earlier than a fixed schedule (`period` apart from `start`), and logs
/// due, handed-out and applied times.
pub struct PacedSource {
    inner: Box<dyn EdgeSource + Send>,
    start: Instant,
    period: Duration,
    chunk: usize,
    left: u64,
    log: SharedLog,
}

impl PacedSource {
    /// Paces the first `total` edges of `inner`.
    pub fn new(
        inner: Box<dyn EdgeSource + Send>,
        total: u64,
        chunk: usize,
        period: Duration,
        start: Instant,
    ) -> (Self, SharedLog) {
        let log = Arc::new(Mutex::new(ChunkLog::default()));
        let src = Self {
            inner,
            start,
            period,
            chunk: chunk.max(1),
            left: total,
            log: Arc::clone(&log),
        };
        (src, log)
    }
}

impl EdgeSource for PacedSource {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        let asked = Instant::now();
        let i = {
            let mut log = self.log.lock();
            if log.applied.len() < log.handed.len() {
                log.applied.push(asked);
            }
            if self.left == 0 {
                log.exhausted = true;
                buf.clear();
                return Ok(0);
            }
            log.handed.len()
        };
        let due = due_at(self.start, self.period, i);
        sleep_until(due);
        let handed = Instant::now();
        let want = (self.chunk.min(max) as u64).min(self.left) as usize;
        let n = self.inner.next_chunk(buf, want)?;
        let mut log = self.log.lock();
        if n == 0 {
            // The file is shorter than promised; the edge-count check
            // reports it.
            self.left = 0;
            log.exhausted = true;
            return Ok(0);
        }
        self.left -= n as u64;
        log.due.push(due);
        log.handed.push(handed);
        Ok(n)
    }
}

/// Query verbs in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ESTIMATE <user>`.
    Estimate,
    /// `TOPK <n>`: walks and sorts every user.
    TopK,
    /// `STATS`: walks every user.
    Stats,
}

/// One request line and its verb.
#[derive(Debug, Clone)]
pub struct Query {
    /// The verb (what reply shape to expect).
    pub kind: Kind,
    /// The request line, without newline.
    pub line: String,
}

/// Whether `reply` is a well-formed `OK` answer to a `kind` request.
pub fn reply_matches(kind: Kind, reply: &str) -> bool {
    let Some(body) = reply.strip_prefix("OK ") else {
        return false;
    };
    match kind {
        Kind::Estimate => body.parse::<f64>().is_ok_and(|v| v.is_finite() && v >= 0.0),
        Kind::TopK => {
            let mut parts = body.split(' ');
            let count = parts.next().and_then(|c| c.parse::<usize>().ok());
            let entries: Vec<&str> = parts.collect();
            count == Some(entries.len())
                && entries.iter().all(|e| {
                    e.strip_prefix('#')
                        .and_then(|x| x.split_once(':'))
                        .is_some_and(|(id, est)| {
                            u64::from_str_radix(id, 16).is_ok() && est.parse::<f64>().is_ok()
                        })
                })
        }
        Kind::Stats => body.starts_with("edges="),
    }
}

/// Timings and replies of one pipelined session.
#[derive(Debug)]
pub struct Session {
    /// When each request was due.
    pub due: Vec<Instant>,
    /// When the sender wrote it.
    pub sent: Vec<Instant>,
    /// When its reply arrived (`None`: never).
    pub recv: Vec<Option<Instant>>,
    /// The reply lines, matched to requests by order.
    pub replies: Vec<Option<String>>,
}

impl Session {
    /// Sender lateness (sent − due) in µs, per request.
    pub fn send_lag_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, d)| s.saturating_duration_since(*d).as_secs_f64() * 1e6)
            .collect()
    }

    /// Latency from due time to reply in µs for the answered requests of
    /// the given kinds, in the order they were sent.
    pub fn latency_us(&self, queries: &[Query], kinds: &[Kind]) -> Vec<f64> {
        self.lat(queries, kinds, &self.due)
    }

    /// Round trip (reply − sent) in µs for the answered requests of the
    /// given kinds, in the order they were sent.
    pub fn rtt_us(&self, queries: &[Query], kinds: &[Kind]) -> Vec<f64> {
        self.lat(queries, kinds, &self.sent)
    }

    fn lat(&self, queries: &[Query], kinds: &[Kind], from: &[Instant]) -> Vec<f64> {
        queries
            .iter()
            .zip(from)
            .zip(&self.recv)
            .filter(|((q, _), _)| kinds.contains(&q.kind))
            .filter_map(|((_, f), r)| {
                r.map(|r| r.saturating_duration_since(*f).as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// Requests with no reply or a reply of the wrong shape.
    pub fn failures(&self, queries: &[Query]) -> usize {
        queries
            .iter()
            .zip(&self.replies)
            .filter(|(q, r)| !r.as_deref().is_some_and(|r| reply_matches(q.kind, r)))
            .count()
    }
}

/// Sends `queries` over one connection, query `i` due at
/// `start + i·interval`, while this thread reads the replies (in order:
/// the daemon answers a connection's requests one by one). Stops reading
/// at `deadline`; unanswered requests stay `None`.
pub fn run_session(
    addr: SocketAddr,
    queries: &[Query],
    start: Instant,
    interval: Duration,
    deadline: Instant,
) -> std::io::Result<Session> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let due: Vec<Instant> = (0..queries.len())
        .map(|i| due_at(start, interval, i))
        .collect();
    let mut recv = vec![None; queries.len()];
    let mut replies = vec![None; queries.len()];
    let sent = std::thread::scope(|s| {
        let sender = s.spawn(|| -> std::io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(queries.len());
            let mut line = Vec::with_capacity(64);
            for (q, &d) in queries.iter().zip(&due) {
                sleep_until(d);
                line.clear();
                line.extend_from_slice(q.line.as_bytes());
                line.push(b'\n');
                writer.write_all(&line)?;
                sent.push(Instant::now());
            }
            Ok(sent)
        });
        let mut buf = String::new();
        let mut next = 0usize;
        while next < queries.len() && Instant::now() < deadline {
            // The daemon does not disable Nagle, so a reply can wait for the
            // ACK of the previous one; ACK at once (Linux clears quick-ack
            // after every read) so a delayed ACK never holds a reply back
            // until the next request goes out.
            let _ = reader.get_ref().set_quickack(true);
            match reader.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) if buf.ends_with('\n') => {
                    recv[next] = Some(Instant::now());
                    replies[next] = Some(buf.trim_end().to_string());
                    buf.clear();
                    next += 1;
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        sender
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("sender thread panicked")))
    })?;
    Ok(Session {
        due,
        sent,
        recv,
        replies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate_from_start() {
        let start = Instant::now();
        let p = Duration::from_micros(250);
        assert_eq!(due_at(start, p, 0), start);
        assert_eq!(due_at(start, p, 4), start + Duration::from_millis(1));
        assert_eq!(
            due_at(start, p, 4000) - due_at(start, p, 3999),
            Duration::from_micros(250)
        );
    }

    #[test]
    fn paced_source_hands_out_on_schedule_and_logs_applied() {
        let edges: Vec<Edge> = (0..10).map(|i| Edge::new(i, i)).collect();
        let inner = Box::new(graphstream::CycleSource::new(edges, 1));
        let start = Instant::now();
        let period = Duration::from_millis(5);
        let (mut src, log) = PacedSource::new(inner, 10, 4, period, start);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = src.next_chunk(&mut buf, 1000).expect("chunk");
            if n == 0 {
                break;
            }
            got.push(n);
        }
        assert_eq!(got, vec![4, 4, 2]);
        let log = log.lock();
        assert!(log.exhausted);
        assert_eq!(log.applied.len(), 3);
        for i in 0..3 {
            assert_eq!(log.due[i], due_at(start, period, i));
            assert!(log.handed[i] >= log.due[i], "chunk {i} handed early");
            assert!(log.applied[i] >= log.handed[i]);
        }
        assert_eq!(log.freshness_ms().len(), 3);
    }

    #[test]
    fn replies_match_their_request_kind() {
        assert!(reply_matches(Kind::Estimate, "OK 12.500"));
        assert!(!reply_matches(Kind::Estimate, "OK nan"));
        assert!(!reply_matches(Kind::Estimate, "ERR bad-arg"));
        assert!(reply_matches(
            Kind::TopK,
            "OK 2 #00000000000000ff:3.000 #0000000000000001:1.000"
        ));
        assert!(!reply_matches(Kind::TopK, "OK 3 #00000000000000ff:3.000"));
        assert!(reply_matches(Kind::TopK, "OK 0"));
        assert!(reply_matches(Kind::Stats, "OK edges=10 queries=2"));
        assert!(!reply_matches(Kind::Stats, "OK 1.000"));
    }

    #[test]
    fn session_matches_replies_in_order() {
        let queries = vec![
            Query {
                kind: Kind::Estimate,
                line: "ESTIMATE a".into(),
            },
            Query {
                kind: Kind::Stats,
                line: "STATS".into(),
            },
        ];
        let now = Instant::now();
        let s = Session {
            due: vec![now, now],
            sent: vec![now, now],
            recv: vec![Some(now + Duration::from_micros(10)), None],
            replies: vec![Some("OK 1.000".into()), None],
        };
        assert_eq!(s.failures(&queries), 1);
        assert_eq!(s.latency_us(&queries, &[Kind::Estimate]).len(), 1);
        assert!(s.latency_us(&queries, &[Kind::Stats]).is_empty());
        // A reply landing on the wrong verb is a failure.
        let swapped = Session {
            replies: vec![Some("OK edges=1".into()), Some("OK 1.000".into())],
            ..s
        };
        assert_eq!(swapped.failures(&queries), 2);
    }
}

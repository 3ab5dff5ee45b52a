//! Tests for `read_ahead`, the driver that decodes the next chunk on a
//! second thread while the caller applies the current one: the caller
//! must see the stream exactly as serial `next_chunk` calls return it,
//! errors must arrive in order, and a stopped or failed drive must return
//! without leaving the decode thread behind.

use graphstream::{read_ahead, Edge, EdgeSource, EdgeStreamError};
use proptest::prelude::*;
use std::thread::{self, ThreadId};

/// A replay that returns at most `sizes[call % sizes.len()]` edges per
/// call (its own chunking, below the caller's `max`), fails on call
/// `fail_at` after writing a partial chunk into the buffer, and records
/// the thread of every call.
struct Scripted {
    edges: Vec<Edge>,
    sizes: Vec<usize>,
    fail_at: Option<usize>,
    pos: usize,
    calls: usize,
    threads: Vec<ThreadId>,
}

impl Scripted {
    fn new(edges: Vec<Edge>, sizes: Vec<usize>) -> Self {
        Self {
            edges,
            sizes,
            fail_at: None,
            pos: 0,
            calls: 0,
            threads: Vec::new(),
        }
    }
}

impl EdgeSource for Scripted {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let call = self.calls;
        self.calls += 1;
        self.threads.push(thread::current().id());
        let cap = max.max(1).min(self.sizes[call % self.sizes.len()].max(1));
        let n = cap.min(self.edges.len() - self.pos);
        buf.extend_from_slice(&self.edges[self.pos..self.pos + n]);
        self.pos += n;
        if self.fail_at == Some(call) {
            return Err(EdgeStreamError::Io(std::io::Error::other(format!(
                "failed at call {call}"
            ))));
        }
        Ok(n)
    }
}

/// Every chunk serial `next_chunk` calls return until the end of the
/// stream or an error, and the error's text.
fn serial(src: &mut Scripted, max: usize) -> (Vec<Vec<Edge>>, Option<String>) {
    let mut chunks = Vec::new();
    let mut buf = Vec::new();
    loop {
        match src.next_chunk(&mut buf, max) {
            Ok(0) => return (chunks, None),
            Ok(_) => chunks.push(buf.clone()),
            Err(e) => return (chunks, Some(e.to_string())),
        }
    }
}

/// The chunks `read_ahead` hands its closure, its result and the error's
/// text.
fn driven(src: &mut Scripted, max: usize) -> (Vec<Vec<Edge>>, Result<u64, String>) {
    let mut chunks: Vec<Vec<Edge>> = Vec::new();
    let result = read_ahead(src, max, |c| -> Result<(), EdgeStreamError> {
        chunks.push(c.to_vec());
        Ok(())
    });
    (chunks, result.map_err(|e| e.to_string()))
}

fn to_edges(raw: &[(u64, u64)]) -> Vec<Edge> {
    raw.iter().map(|&(u, i)| Edge::new(u, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The closure sees the serial chunk sequence: the same sizes, the
    /// same edges, in the same order.
    #[test]
    fn chunks_equal_the_serial_sequence(
        raw in prop::collection::vec((0u64..50, any::<u64>()), 0..200),
        sizes in prop::collection::vec(1usize..=12, 1..6),
        max in 1usize..=9,
    ) {
        let edges = to_edges(&raw);
        let (want, none) = serial(&mut Scripted::new(edges.clone(), sizes.clone()), max);
        prop_assert!(none.is_none());
        let (got, total) = driven(&mut Scripted::new(edges.clone(), sizes), max);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(total, Ok(edges.len() as u64));
    }

    /// A source failing on its k-th call: the closure sees chunks
    /// 0..k-1, never the partial chunk the failing call wrote, and the
    /// drive returns that error.
    #[test]
    fn source_error_arrives_after_every_earlier_chunk(
        raw in prop::collection::vec((0u64..50, any::<u64>()), 1..200),
        sizes in prop::collection::vec(1usize..=12, 1..6),
        max in 1usize..=9,
        k in 0usize..40,
    ) {
        let edges = to_edges(&raw);
        let mut reference = Scripted::new(edges.clone(), sizes.clone());
        reference.fail_at = Some(k);
        let (want, want_err) = serial(&mut reference, max);
        let mut src = Scripted::new(edges, sizes);
        src.fail_at = Some(k);
        let (got, result) = driven(&mut src, max);
        prop_assert_eq!(&got, &want);
        match want_err {
            Some(e) => {
                prop_assert_eq!(got.len(), k);
                prop_assert_eq!(result, Err(e));
            }
            // The stream ended before call k.
            None => prop_assert_eq!(result, Ok(got.iter().map(|c| c.len() as u64).sum())),
        }
    }
}

#[derive(Debug, PartialEq)]
enum Stop {
    Stream(String),
    Closure(usize),
}

impl From<EdgeStreamError> for Stop {
    fn from(e: EdgeStreamError) -> Self {
        Self::Stream(e.to_string())
    }
}

/// A closure that fails at chunk j ends the drive with its error; the
/// decoder has read at most two chunks past j and is joined by then.
#[test]
fn closure_error_stops_the_drive_promptly() {
    let edges: Vec<Edge> = (0..100_000u64).map(|i| Edge::new(i % 13, i)).collect();
    for max in [1usize, 7, 64] {
        for j in [0usize, 1, 2, 5, 30] {
            let mut src = Scripted::new(edges.clone(), vec![usize::MAX]);
            let mut seen = 0usize;
            let result = read_ahead(&mut src, max, |_| {
                if seen == j {
                    return Err(Stop::Closure(j));
                }
                seen += 1;
                Ok(())
            });
            assert_eq!(result, Err(Stop::Closure(j)), "max {max}");
            assert!(
                (j + 1..=j + 3).contains(&src.calls),
                "max {max} j {j}: source polled {} times",
                src.calls
            );
        }
    }
}

/// An empty source is read once, on the calling thread; a non-empty one
/// is read ahead on another thread after the first chunk.
#[test]
fn empty_source_stays_on_the_calling_thread() {
    let me = thread::current().id();
    let mut empty = Scripted::new(Vec::new(), vec![4]);
    let (chunks, total) = driven(&mut empty, 8);
    assert!(chunks.is_empty());
    assert_eq!(total, Ok(0));
    assert_eq!(empty.threads, vec![me]);

    let edges: Vec<Edge> = (0..20u64).map(|i| Edge::new(i, i)).collect();
    let mut src = Scripted::new(edges, vec![4]);
    let (chunks, total) = driven(&mut src, 8);
    assert_eq!(chunks.len(), 5);
    assert_eq!(total, Ok(20));
    assert_eq!(src.threads[0], me);
    assert!(
        src.threads[1..].iter().all(|&t| t != me),
        "read ahead on the caller"
    );
}

/// A panic on the decode thread reaches the caller with its payload.
#[test]
fn decoder_panic_propagates() {
    struct Exploding(usize);
    impl EdgeSource for Exploding {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<Edge>,
            _max: usize,
        ) -> Result<usize, EdgeStreamError> {
            buf.clear();
            self.0 += 1;
            assert!(self.0 < 3, "decoder exploded");
            buf.push(Edge::new(1, 2));
            Ok(1)
        }
    }
    let caught = std::panic::catch_unwind(|| {
        let mut src = Exploding(0);
        read_ahead(&mut src, 4, |_| -> Result<(), EdgeStreamError> { Ok(()) })
    });
    let payload = caught.expect_err("the decoder's panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(msg.contains("decoder exploded"), "payload {msg:?}");
}

//! Streaming ingest drivers: feed any [`EdgeSource`] to an estimator
//! chunk-at-a-time, decode and apply in turn on the calling thread.
//!
//! The trace never exists in memory as a whole — only one `chunk`-edge
//! buffer (plus its bare-pair mirror) is resident, so multi-GB traces
//! stream in O(chunk) peak memory. The CLI's file commands do not loop
//! here: they drive [`graphstream::read_ahead`], which decodes the next
//! chunk on a second thread while [`ingest_slice`] (or the sharded
//! fan-out, [`ingest_slice_parallel`]) applies the current one, with two
//! chunk buffers resident.
//! [`stream_into`] is the serial reference that path is tested against.
//! The `batch` knob mirrors the CLI's `--batch`:
//! edges handed to `process_batch` per call, `0` forcing the scalar
//! per-edge path.

use crate::{CardinalityEstimator, ConcurrentEstimator};
use graphstream::{Edge, EdgeSource, EdgeStreamError};

/// Default edges per reader chunk: 64k edges = 1 MiB of `Edge`s, large
/// enough to amortize I/O and the batch pipeline, small enough that a
/// dozen concurrent readers fit comfortably in cache-adjacent memory.
pub const DEFAULT_CHUNK: usize = 1 << 16;

/// Drives `src` to exhaustion through an exclusive estimator.
///
/// Returns the number of edges processed.
///
/// # Errors
/// Stops at the first source error (I/O, corrupt binary input, malformed
/// text line); edges of earlier chunks have already been applied.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn stream_into(
    est: &mut dyn CardinalityEstimator,
    src: &mut dyn EdgeSource,
    chunk: usize,
    batch: usize,
) -> Result<u64, EdgeStreamError> {
    let chunk = chunk.max(1);
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(if batch == 0 { 0 } else { chunk });
    let mut total = 0u64;
    loop {
        let n = src.next_chunk(&mut buf, chunk)?;
        if n == 0 {
            return Ok(total);
        }
        ingest_slice(est, &buf, &mut pairs, batch);
        total += n as u64;
    }
}

/// Feeds one in-memory slice through the chosen path, reusing the caller's
/// pair buffer across chunks. Shared by [`stream_into`] and callers that
/// interleave their own bookkeeping between slices (checkpointed replay).
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn ingest_slice(
    est: &mut dyn CardinalityEstimator,
    edges: &[Edge],
    pairs: &mut Vec<(u64, u64)>,
    batch: usize,
) {
    if batch == 0 {
        for e in edges {
            est.process(e.user, e.item);
        }
    } else {
        pairs.clear();
        pairs.extend(edges.iter().map(|e| e.pair()));
        for slice in pairs.chunks(batch) {
            est.process_batch(slice);
        }
    }
}

/// Feeds one in-memory slice through a concurrent estimator with
/// `threads` ingest threads: the slice is converted to bare pairs once
/// (into the caller's reused `pairs` buffer), split into `threads`
/// contiguous parts, and each part goes through the `&self` ingest path
/// on its own thread — `batch` edges per `ingest_batch` call, `0`
/// forcing per-edge `ingest`. The first part runs on the calling thread,
/// the others on scoped threads, so one thread spawns nothing. All parts
/// are joined before returning, so the estimator is quiescent afterwards
/// (the property checkpointing relies on).
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn ingest_slice_parallel(
    est: &dyn ConcurrentEstimator,
    edges: &[Edge],
    pairs: &mut Vec<(u64, u64)>,
    batch: usize,
    threads: usize,
) {
    let ingest_part = |part: &[(u64, u64)]| {
        if batch == 0 {
            for &(user, item) in part {
                est.ingest(user, item);
            }
        } else {
            for slice in part.chunks(batch) {
                est.ingest_batch(slice);
            }
        }
    };
    pairs.clear();
    pairs.extend(edges.iter().map(|e| e.pair()));
    let part_len = pairs.len().div_ceil(threads.max(1)).max(1);
    let (first, rest) = pairs.split_at(part_len.min(pairs.len()));
    if rest.is_empty() {
        // One part: no scope, which would allocate its shared state.
        ingest_part(first);
        return;
    }
    std::thread::scope(|s| {
        for part in rest.chunks(part_len) {
            s.spawn(move || ingest_part(part));
        }
        ingest_part(first);
    });
}

/// Drives `src` to exhaustion through a concurrent estimator with
/// `threads` ingest threads per chunk ([`ingest_slice_parallel`]); the
/// next chunk is read only after the previous one is fully applied, so
/// peak memory stays O(chunk) and the source needs no synchronization.
///
/// # Errors
/// Stops at the first source error; earlier chunks have been applied.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn stream_into_parallel(
    est: &dyn ConcurrentEstimator,
    src: &mut dyn EdgeSource,
    chunk: usize,
    batch: usize,
    threads: usize,
) -> Result<u64, EdgeStreamError> {
    let chunk = chunk.max(1);
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(chunk);
    let mut total = 0u64;
    loop {
        let n = src.next_chunk(&mut buf, chunk)?;
        if n == 0 {
            return Ok(total);
        }
        ingest_slice_parallel(est, &buf, &mut pairs, batch, threads);
        total += n as u64;
    }
}

/// Reads and discards up to `n` edges from `src` (in `chunk`-sized reads),
/// returning how many were skipped — fewer than `n` only when the source
/// ends early. Restoring from a checkpoint uses this to fast-forward the
/// stream to the recorded offset before resuming ingest.
///
/// # Errors
/// Stops at the first source error.
pub fn skip_edges(src: &mut dyn EdgeSource, n: u64, chunk: usize) -> Result<u64, EdgeStreamError> {
    let chunk = chunk.max(1);
    // Sized to what is skipped: a cold start (n = 0) allocates nothing.
    let mut buf: Vec<Edge> = Vec::with_capacity(usize::try_from(n).map_or(chunk, |n| n.min(chunk)));
    let mut skipped = 0u64;
    while skipped < n {
        let want = usize::try_from((n - skipped).min(chunk as u64)).unwrap_or(chunk);
        let got = src.next_chunk(&mut buf, want)?;
        if got == 0 {
            break;
        }
        skipped += got as u64;
    }
    Ok(skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeBS, ShardedFreeBS};
    use graphstream::SliceSource;

    fn test_edges(n: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 37, hashkit::splitmix64(i) >> 24))
            .collect()
    }

    #[test]
    fn streamed_ingest_is_bit_identical_to_direct_batch() {
        let edges = test_edges(30_000);
        for (chunk, batch) in [(1usize, 64usize), (100, 512), (1 << 16, 8192), (777, 0)] {
            let mut direct = FreeBS::new(1 << 15, 3);
            let mut pairs = Vec::new();
            ingest_slice(&mut direct, &edges, &mut pairs, batch);

            let mut streamed = FreeBS::new(1 << 15, 3);
            let mut src = SliceSource::new(&edges);
            let total = stream_into(&mut streamed, &mut src, chunk, batch).expect("clean source");
            assert_eq!(total, edges.len() as u64, "chunk {chunk} batch {batch}");
            assert_eq!(
                direct.bit_array(),
                streamed.bit_array(),
                "chunk {chunk} batch {batch}: array state diverged"
            );
        }
    }

    #[test]
    fn chunk_boundaries_do_not_move_estimates_beyond_block_drift() {
        // Chunked streaming restarts the batch pipeline at every chunk
        // boundary; per the process_batch contract this only re-freezes q
        // more often, so estimates stay within the documented block drift.
        let edges = test_edges(30_000);
        let mut whole = FreeBS::new(1 << 15, 3);
        let mut pairs = Vec::new();
        ingest_slice(&mut whole, &edges, &mut pairs, 8192);
        let mut chunked = FreeBS::new(1 << 15, 3);
        let mut src = SliceSource::new(&edges);
        stream_into(&mut chunked, &mut src, 1000, 8192).expect("clean source");
        for u in 0..37u64 {
            let (a, b) = (whole.estimate(u), chunked.estimate(u));
            assert!((a / b - 1.0).abs() < 0.01, "user {u}: {a} vs {b}");
        }
    }

    #[test]
    fn parallel_stream_matches_sequential_within_noise() {
        let edges = test_edges(40_000);
        let seq = ShardedFreeBS::new(1 << 16, 4, 9);
        for e in &edges {
            seq.ingest(e.user, e.item);
        }
        let par = ShardedFreeBS::new(1 << 16, 4, 9);
        let mut src = SliceSource::new(&edges);
        let total = stream_into_parallel(&par, &mut src, 5000, 512, 3).expect("clean source");
        assert_eq!(total, edges.len() as u64);
        let (a, b) = (seq.total_estimate(), par.total_estimate());
        assert!((a / b - 1.0).abs() < 0.02, "total {a} vs {b}");
    }

    #[test]
    fn source_errors_propagate() {
        struct Failing;
        impl EdgeSource for Failing {
            fn next_chunk(
                &mut self,
                _buf: &mut Vec<Edge>,
                _max: usize,
            ) -> Result<usize, EdgeStreamError> {
                Err(EdgeStreamError::Io(std::io::Error::other("disk gone")))
            }
        }
        let mut est = FreeBS::new(1 << 12, 1);
        let err = stream_into(&mut est, &mut Failing, 64, 64).expect_err("must fail");
        assert!(err.to_string().contains("disk gone"));
    }
}

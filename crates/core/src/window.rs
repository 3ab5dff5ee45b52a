//! Windowed estimation — tracking *recent* user cardinalities.
//!
//! The paper's conclusion points at online anomaly detection in SDN
//! routers; operationally that means "cardinality over the last N packets",
//! not since boot. This extension provides the standard slice-rotation
//! construction on top of any [`CardinalityEstimator`]: the stream is cut
//! into fixed-length slices, each slice gets a fresh estimator, and a query
//! sums the per-user estimates of the `k` most recent slices. Old slices
//! (and their memory) are dropped whole.
//!
//! Slices are held as `Arc`-owned values and handed out as snapshots
//! ([`Windowed::snapshot`]) instead of being mutated through `&mut`
//! borrows. That makes two modes possible:
//!
//! * **exclusive** ([`Windowed::process`], any `E: CardinalityEstimator +
//!   Clone`): the current slice is mutated through `Arc::make_mut` —
//!   copy-on-write, so an outstanding snapshot stays frozen while the
//!   window moves on;
//! * **shared** ([`Windowed::ingest`], any `E:` [`ConcurrentEstimator`],
//!   i.e. a [`crate::ShardedSketch`] of mutex-owned engines): many threads
//!   feed the window through `&self`; slice rotation is coordinated by a
//!   monotone edge counter (exactly one thread performs each rotation) and
//!   an `RwLock` around the slice deque that ingest only read-locks.
//!   Edges already in flight when a rotation fires may land in the
//!   just-retired slice — a bounded skew of at most the number of
//!   in-flight edges.
//!
//! Semantics: the window estimate counts a user–item pair once *per slice
//! in which it appears as new*. For pairs that recur across slices this
//! over-counts relative to the distinct count over the window — the
//! classic bitmap-rotation trade (an exact sliding distinct count needs
//! per-item timestamps, cf. Chen et al.'s sliding HLL, paper ref. [7]).
//! Within a slice the estimate is exactly as unbiased as the wrapped
//! estimator. Tests pin both properties.

use crate::{CardinalityEstimator, ConcurrentEstimator};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A slice-rotating window over any cardinality estimator.
///
/// ```
/// use freesketch::{FreeBS, Windowed};
///
/// // 4 slices of 1000 edges each: estimates cover the last ~4000 edges.
/// let mut w = Windowed::new(4, 1000, |i| FreeBS::new(1 << 16, 42 + i));
/// for item in 0..500u64 {
///     w.process(1, item);
/// }
/// assert!(w.estimate(1) > 450.0);
/// // 5000 edges of other traffic expire user 1 entirely:
/// for t in 0..5000u64 {
///     w.process(2, t);
/// }
/// assert_eq!(w.estimate(1), 0.0);
/// ```
pub struct Windowed<E> {
    factory: Box<dyn Fn(u64) -> E + Send + Sync>,
    slices: RwLock<VecDeque<Arc<E>>>,
    max_slices: usize,
    edges_per_slice: u64,
    /// Total edges ever observed; rotation fires when this crosses a
    /// multiple of `edges_per_slice` (the fetch-add makes each crossing
    /// unique, so exactly one shared-mode thread rotates).
    edges_seen: AtomicU64,
    rotations: AtomicU64,
}

impl<E> Windowed<E> {
    /// Creates a window of `max_slices` slices of `edges_per_slice` edges
    /// each; `factory(i)` builds the estimator for the `i`-th slice (use
    /// `i` to derive distinct seeds so slices are independent).
    ///
    /// # Panics
    /// Panics if `max_slices == 0` or `edges_per_slice == 0`.
    pub fn new(
        max_slices: usize,
        edges_per_slice: u64,
        factory: impl Fn(u64) -> E + Send + Sync + 'static,
    ) -> Self {
        assert!(max_slices > 0, "window needs at least one slice");
        assert!(edges_per_slice > 0, "slices must hold at least one edge");
        let mut slices = VecDeque::with_capacity(max_slices + 1);
        slices.push_back(Arc::new(factory(0)));
        Self {
            factory: Box::new(factory),
            slices: RwLock::new(slices),
            max_slices,
            edges_per_slice,
            edges_seen: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
        }
    }

    /// Counts this edge and reports whether it opens a new slice.
    #[inline]
    fn tick(&self) -> bool {
        // ORDERING: relaxed-ok — the fetch-add's RMW total order hands each
        // caller a unique counter value (so each boundary fires exactly
        // once); rotation itself synchronizes via the slices RwLock.
        let t = self.edges_seen.fetch_add(1, Ordering::Relaxed);
        t > 0 && t.is_multiple_of(self.edges_per_slice)
    }

    /// Appends a fresh slice and retires the oldest once over capacity.
    fn rotate(&self, slices: &mut VecDeque<Arc<E>>) {
        // ORDERING: relaxed-ok — callers hold the slices write lock, which
        // already orders rotations; the atomic only feeds the factory seed
        // and the advisory rotations() counter.
        let r = self.rotations.fetch_add(1, Ordering::Relaxed) + 1;
        slices.push_back(Arc::new((self.factory)(r)));
        if slices.len() > self.max_slices {
            slices.pop_front();
        }
    }

    /// `Arc` snapshots of the live slices, oldest first. Cheap (`P` Arc
    /// clones under a read lock); in exclusive mode later mutation
    /// copies-on-write, in shared mode snapshots see concurrent updates to
    /// still-live slices, as the sharded sketch's anytime reads do.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<E>> {
        self.slices.read().iter().cloned().collect()
    }

    /// Number of live slices.
    #[must_use]
    pub fn live_slices(&self) -> usize {
        self.slices.read().len()
    }

    /// Total slice rotations so far.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        // ORDERING: relaxed-ok — advisory monotone counter; exact only at
        // quiescence, where thread join provides the happens-before edge.
        self.rotations.load(Ordering::Relaxed)
    }

    /// Window span in edges (slices × slice length).
    #[must_use]
    pub fn span_edges(&self) -> u64 {
        self.max_slices as u64 * self.edges_per_slice
    }
}

/// Exclusive ingest: any cloneable estimator. `Clone` powers the
/// copy-on-write isolation of outstanding [`Windowed::snapshot`]s.
impl<E: CardinalityEstimator + Clone> Windowed<E> {
    /// Observes one edge, rotating slices at slice boundaries.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&mut self, user: u64, item: u64) {
        if self.tick() {
            let mut slices = std::mem::take(self.slices.get_mut());
            self.rotate(&mut slices);
            *self.slices.get_mut() = slices;
        }
        let slices = self.slices.get_mut();
        let current = slices.back_mut().expect("window never empty");
        Arc::make_mut(current).process(user, item);
    }
}

/// Shared ingest: any [`ConcurrentEstimator`] (a sharded sketch), fed
/// from many threads through `&self`.
impl<E: ConcurrentEstimator> Windowed<E> {
    /// Observes one edge; callable concurrently.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn ingest(&self, user: u64, item: u64) {
        if self.tick() {
            let mut slices = self.slices.write();
            self.rotate(&mut slices);
        }
        let slices = self.slices.read();
        slices
            .back()
            .expect("window never empty")
            .ingest(user, item);
    }

    /// Observes a slice of edges; callable concurrently. Edges are
    /// forwarded in sub-batches that respect slice boundaries, so a batch
    /// spanning a rotation splits exactly as the per-edge path would.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn ingest_batch(&self, edges: &[(u64, u64)]) {
        let mut rest = edges;
        while !rest.is_empty() {
            // ORDERING: relaxed-ok — advisory peek to size the sub-batch; the
            // fetch-add below is the authoritative claim and the boundary
            // math tolerates this value being stale.
            let t = self.edges_seen.load(Ordering::Relaxed);
            let until_boundary = self.edges_per_slice - (t % self.edges_per_slice);
            let take = rest
                .len()
                .min(usize::try_from(until_boundary).unwrap_or(rest.len()));
            let (head, tail) = rest.split_at(take);
            // ORDERING: relaxed-ok — the RMW total order partitions the counter
            // space into disjoint `[t, t+len)` intervals across racing
            // callers; rotation synchronizes via the slices RwLock.
            let t = self
                .edges_seen
                .fetch_add(head.len() as u64, Ordering::Relaxed);
            // Rotate once per slice boundary *crossed* by this head's
            // half-open counter interval `[t, t + len)` (boundary `b`
            // fires when edge index `b` is processed, matching `tick`).
            // The intervals partition the counter space across racing
            // callers, so every boundary fires exactly once even when a
            // concurrent fetch-add made the pre-split `until_boundary`
            // stale and this head straddles a multiple.
            let end = t + head.len() as u64;
            let fires = (end - 1) / self.edges_per_slice - (t.max(1) - 1) / self.edges_per_slice;
            for _ in 0..fires {
                let mut slices = self.slices.write();
                self.rotate(&mut slices);
            }
            {
                let slices = self.slices.read();
                slices
                    .back()
                    .expect("window never empty")
                    .ingest_batch(head);
            }
            rest = tail;
        }
    }
}

/// Queries, available in both modes (`&self` throughout).
impl<E: CardinalityEstimator> Windowed<E> {
    /// The user's estimated cardinality over the current window (sum of the
    /// live slices' estimates).
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.slices.read().iter().map(|s| s.estimate(user)).sum()
    }

    /// Estimated total cardinality over the window.
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.slices.read().iter().map(|s| s.total_estimate()).sum()
    }

    /// Combined memory of all live slices, in bits.
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.slices.read().iter().map(|s| s.memory_bits()).sum()
    }
}

impl<E> std::fmt::Debug for Windowed<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Windowed")
            .field("max_slices", &self.max_slices)
            .field("edges_per_slice", &self.edges_per_slice)
            .field("live_slices", &self.slices.read().len())
            .field("rotations", &self.rotations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeBS, ShardedFreeBS};

    fn window(slices: usize, per_slice: u64) -> Windowed<FreeBS> {
        Windowed::new(slices, per_slice, |i| FreeBS::new(1 << 14, 1000 + i))
    }

    #[test]
    fn fresh_window_is_empty() {
        let w = window(4, 100);
        assert_eq!(w.estimate(1), 0.0);
        assert_eq!(w.live_slices(), 1);
        assert_eq!(w.span_edges(), 400);
    }

    #[test]
    fn within_one_slice_matches_plain_estimator() {
        let mut w = window(4, 10_000);
        let mut plain = FreeBS::new(1 << 14, 1000);
        for d in 0..500u64 {
            w.process(3, d);
            plain.process(3, d);
        }
        assert_eq!(w.estimate(3), plain.estimate(3));
        assert_eq!(w.rotations(), 0);
    }

    #[test]
    fn rotation_happens_at_slice_boundary() {
        let mut w = window(3, 100);
        for d in 0..250u64 {
            w.process(1, d);
        }
        assert_eq!(w.rotations(), 2);
        assert_eq!(w.live_slices(), 3);
    }

    #[test]
    fn idle_user_expires_after_window_passes() {
        let mut w = window(2, 100);
        // User 1 active in slice 0 only.
        for d in 0..50u64 {
            w.process(1, d);
        }
        assert!(w.estimate(1) > 40.0);
        // 300 further edges from other users → slice 0 evicted.
        for d in 0..300u64 {
            w.process(2, d);
        }
        assert_eq!(w.estimate(1), 0.0, "expired user must read zero");
        assert!(w.estimate(2) > 0.0);
    }

    #[test]
    fn active_user_keeps_recent_mass_only() {
        let mut w = window(2, 100);
        // 100 distinct items in the first slice, then fresh ones per slice
        // afterwards; after several rotations the estimate reflects ~recent
        // activity, not lifetime cardinality.
        let mut item = 0u64;
        for _ in 0..100 {
            w.process(1, item);
            item += 1;
        }
        for _ in 0..6 {
            for _ in 0..100 {
                w.process(1, item);
                item += 1;
            }
        }
        // Lifetime distinct = 700; window spans 200 edges.
        let est = w.estimate(1);
        assert!(
            (150.0..=260.0).contains(&est),
            "window estimate {est} should reflect ~200 recent items, not 700"
        );
    }

    #[test]
    fn recurring_pairs_count_once_per_slice() {
        // The documented over-count: the same pair in two different slices
        // contributes twice.
        let mut w = window(4, 100);
        for d in 0..50u64 {
            w.process(1, d);
        }
        for d in 50..150u64 {
            w.process(9, d); // push into the next slice
        }
        for d in 0..50u64 {
            w.process(1, d); // same 50 pairs again, new slice
        }
        let est = w.estimate(1);
        assert!(
            (90.0..=110.0).contains(&est),
            "recurring pairs should count per slice: {est}"
        );
    }

    #[test]
    fn memory_is_bounded_by_window() {
        let mut w = window(3, 50);
        for d in 0..10_000u64 {
            w.process(d % 7, d);
        }
        assert_eq!(w.live_slices(), 3);
        assert_eq!(w.memory_bits(), 3 * (1 << 14));
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_rejected() {
        let _ = window(0, 10);
    }

    #[test]
    fn works_with_freers_too() {
        let mut w = Windowed::new(2, 200, |i| crate::FreeRS::new(1 << 10, 7 + i));
        for d in 0..150u64 {
            w.process(1, d);
        }
        let est = w.estimate(1);
        assert!((est / 150.0 - 1.0).abs() < 0.15, "estimate {est}");
    }

    #[test]
    fn snapshots_are_isolated_from_later_mutation() {
        let mut w = window(4, 10_000);
        for d in 0..400u64 {
            w.process(1, d);
        }
        let snap = w.snapshot();
        let frozen: f64 = snap.iter().map(|s| s.estimate(1)).sum();
        for d in 400..800u64 {
            w.process(1, d);
        }
        let frozen_after: f64 = snap.iter().map(|s| s.estimate(1)).sum();
        assert_eq!(frozen, frozen_after, "snapshot must not see later edges");
        assert!(w.estimate(1) > frozen, "window keeps counting");
    }

    #[test]
    fn wraps_concurrent_estimator_with_shared_ingest_and_expiry() {
        // The composition the ROADMAP asked for: a sliding window over a
        // sharded concurrent estimator, fed from multiple threads, with
        // working expiry.
        let w = Windowed::new(2, 4_000, |i| ShardedFreeBS::new(1 << 16, 4, 900 + i));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = &w;
                s.spawn(move || {
                    for d in 0..1_000u64 {
                        w.ingest(1, t * 1_000 + d);
                    }
                });
            }
        });
        let est = w.estimate(1);
        assert!(
            (est / 4_000.0 - 1.0).abs() < 0.1,
            "windowed concurrent estimate {est} should be ~4000"
        );
        // Unrelated traffic ≥ 2 full slices expires user 1.
        let filler: Vec<(u64, u64)> = (0..8_500u64).map(|d| (2, d)).collect();
        w.ingest_batch(&filler);
        assert_eq!(w.estimate(1), 0.0, "expired user must read zero");
        assert!(w.estimate(2) > 0.0);
        assert!(w.rotations() >= 2);
    }

    #[test]
    fn racing_batches_never_lose_rotations() {
        // Regression: boundary detection must count *crossings*, not exact
        // counter hits — racing fetch-adds stride the counter past
        // multiples, but the per-call intervals partition the counter
        // space, so the total rotation count is exact regardless of
        // interleaving: (N-1) / per_slice.
        let per_slice = 100u64;
        let w = Windowed::new(3, per_slice, |i| ShardedFreeBS::new(1 << 12, 2, i));
        let n_threads = 4u64;
        let per_thread = 2_500u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let w = &w;
                s.spawn(move || {
                    // Odd batch sizes so heads rarely align with slice
                    // boundaries and races straddle multiples.
                    let edges: Vec<(u64, u64)> = (0..per_thread).map(|d| (t, d * 7 + t)).collect();
                    for chunk in edges.chunks(33) {
                        w.ingest_batch(chunk);
                    }
                });
            }
        });
        let n = n_threads * per_thread;
        assert_eq!(
            w.rotations(),
            (n - 1) / per_slice,
            "lost or doubled rotations"
        );
        assert_eq!(w.live_slices(), 3);
    }

    #[test]
    fn shared_batch_respects_slice_boundaries() {
        let w = Windowed::new(3, 100, |i| ShardedFreeBS::new(1 << 14, 2, 40 + i));
        let edges: Vec<(u64, u64)> = (0..250u64).map(|d| (1, d)).collect();
        w.ingest_batch(&edges);
        assert_eq!(w.rotations(), 2);
        assert_eq!(w.live_slices(), 3);
    }
}

//! # freesketch — streaming estimation of all user cardinalities over time
//!
//! Rust reproduction of *"Utilizing Dynamic Properties of Sharing Bits and
//! Registers to Estimate User Cardinalities over Time"* (Wang, Jia, Zhang,
//! Tao, Guan, Towsley — ICDE 2019).
//!
//! Given a bipartite graph stream of `(user, item)` pairs with duplicates,
//! every estimator here maintains, in one shared fixed-size array, enough
//! state to report **every user's distinct-item count at any time**:
//!
//! | estimator | shared state | access | paper role |
//! |-----------|--------------|--------|------------|
//! | [`FreeBS`]  | bit array `B[1..M]`       | `&mut` | contribution (§IV-A) |
//! | [`FreeRS`]  | registers `R[1..M]`       | `&mut` | contribution (§IV-B) |
//! | [`ShardedFreeBS`] / [`ShardedFreeRS`] | `P` owned FreeBS/FreeRS shards, per-shard `q` | `&self`, one mutex per shard | extension |
//! | [`Cse`]     | bit array + virtual LPC   | `&mut`, O(m) | baseline (Yoon et al.) |
//! | [`VHll`]    | registers + virtual HLL   | `&mut`, O(m) | baseline (Xiao et al.) |
//! | [`PerUserLpc`] / [`PerUserHllpp`] | one sketch per user | `&mut`, O(m) | baselines |
//!
//! The two contributions are *parameter-free* (no per-user sketch size `m`
//! to tune) and exploit the **dynamic properties** of the shared array: the
//! probability `q(t)` that a brand-new edge changes the array is tracked
//! exactly (FreeBS) or incrementally (FreeRS), and each user's estimate is a
//! Horvitz–Thompson sum of `1/q(t)` over the edges that changed the array.
//!
//! ## Architecture
//!
//! FreeBS and FreeRS are instantiations of **one generic engine** over the
//! [`bitpack::SlotStore`] storage seam: [`engine::SketchEngine`]`<S, Q>`,
//! with [`FreeBS`] = `SketchEngine<BitArray, ZeroQ>` and [`FreeRS`] =
//! `SketchEngine<PackedArray, IncrementalZ>`.
//!
//! The engine has one batch path, `process_batch`: fixed
//! [`INGEST_BLOCK`]-edge blocks, each a load-only warm pass followed by a
//! write pass with `q` frozen at the block start. Nothing about it is
//! tuned at run time.
//!
//! Concurrency comes from owning engines, not from a second, lock-free
//! engine: [`ShardedSketch`] routes each edge to one of `P` engines, each
//! behind a mutex (per-shard `q`, HT sums merged across shards), and is
//! the [`ConcurrentEstimator`] that many threads ingest through `&self`.
//! [`Windowed`] rotates `Arc`-owned slices of any estimator — including a
//! sharded one under parallel ingest — for sliding-window semantics.
//!
//! ```
//! use freesketch::{CardinalityEstimator, FreeBS};
//!
//! let mut fbs = FreeBS::new(1 << 20, 42);
//! for item in 0..10_000u64 {
//!     fbs.process(7, item);       // user 7 connects to 10k distinct items
//!     fbs.process(7, item);       // duplicates are absorbed
//! }
//! let est = fbs.estimate(7);      // O(1), available at any time
//! assert!((est / 10_000.0 - 1.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confidence;
mod cse;
pub mod engine;
mod freebs;
mod freers;
pub mod ingest;
mod jointlpc;
mod peruser;
mod sharded;
#[cfg(feature = "serde")]
pub mod snapshot;
mod spreader;
pub mod theory;
mod vhll;
mod window;

/// Block depth of the batched ingest path: `process_batch` freezes the
/// sampling probability `q` for one block of edges at a time (see
/// [`CardinalityEstimator::process_batch`] for the resulting drift bound)
/// and phases each block's memory traffic so cache misses overlap. It is
/// a compile-time constant, so the per-block scratch lives on the stack
/// and every pass has a known trip count; tests reason about the drift
/// tolerance through it.
pub const INGEST_BLOCK: usize = 512;

pub use confidence::{anytime_ci, ConfidenceTracking, EstimateWithCi, SamplingProbability};
pub use cse::Cse;
pub use engine::{IncrementalZ, QTracker, SketchEngine, ZeroQ};
pub use freebs::FreeBS;
pub use freers::FreeRS;
pub use ingest::{ingest_slice_parallel, skip_edges, stream_into, stream_into_parallel};
pub use jointlpc::JointLpc;
pub use peruser::{PerUserHllpp, PerUserLpc};
pub use sharded::{ShardedFreeBS, ShardedFreeRS, ShardedSketch};
#[cfg(feature = "serde")]
pub use snapshot::{
    load_snapshot, load_with_fallback, save_snapshot, save_snapshot_file, AnySketch, Checkpointer,
};
pub use spreader::{detect_spreaders, SpreaderReport};
pub use vhll::VHll;
pub use window::Windowed;

/// A streaming estimator of all user cardinalities over time (§II).
///
/// Implementations observe edges one at a time and can report any user's
/// cardinality estimate *at any time* — the anytime property that motivates
/// the paper. Estimates are read from a per-user running counter, which all
/// six methods maintain (the paper's §V-B evaluation harness does the same
/// and excludes the counters from the memory comparison).
pub trait CardinalityEstimator {
    /// Observes edge `(user, item)` — the paper's `e(t) = (s(t), d(t))`.
    fn process(&mut self, user: u64, item: u64);

    /// Observes a slice of edges at once — the batched ingest fast path.
    ///
    /// The default implementation is a plain per-edge loop, so every
    /// estimator gets the API for free; the FreeBS/FreeRS engines (scalar
    /// and sharded), [`Cse`] and [`VHll`] override it with
    /// hand-optimized block pipelines (block hashing, software prefetch of
    /// the next block's array words, and amortized `q`/counter
    /// maintenance).
    ///
    /// **Contract:** the final shared-array state (bits/registers) is
    /// *identical* to processing the same edges one at a time in order. The
    /// per-user estimates agree with the scalar path up to the
    /// block-granularity `q` drift: a batch implementation may freeze the
    /// sampling probability `q` at the start of each internal block of `B`
    /// edges, which perturbs each Horvitz–Thompson increment by a relative
    /// factor of at most `B / m₀` (FreeBS, `m₀` = current zero bits) or
    /// `B / Z` (FreeRS, `Z = Σ 2^{-R[j]}`) — one-sided and vanishing for
    /// `M ≫ B`. Proptests in `crates/core/tests/proptests.rs` assert both
    /// properties for every implementation.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        for &(user, item) in edges {
            self.process(user, item);
        }
    }

    /// The current cardinality estimate `n̂_s(t)` for `user` (0 for users
    /// never seen). O(1) for every implementation.
    fn estimate(&self, user: u64) -> f64;

    /// An estimate of the total cardinality `n(t) = Σ_s n_s(t)` — needed by
    /// the relative-threshold super-spreader detector (§V-F).
    fn total_estimate(&self) -> f64;

    /// Bits of shared-sketch memory (per-user counters excluded, matching
    /// the paper's accounting).
    fn memory_bits(&self) -> usize;

    /// Visits every `(user, estimate)` pair currently tracked.
    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64));

    /// Short method name as used in the paper's figures.
    fn name(&self) -> &'static str;
}

/// Shared ingest: a cardinality estimator whose update path takes `&self`,
/// so many threads can feed one instance (or a [`Windowed`] of them)
/// concurrently. Queries come from the [`CardinalityEstimator`]
/// supertrait — those are `&self` already. [`ShardedSketch`] is the
/// shipped implementation.
pub trait ConcurrentEstimator: CardinalityEstimator + Send + Sync {
    /// Observes edge `(user, item)`; callable concurrently.
    fn ingest(&self, user: u64, item: u64);

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently. Same contract as
    /// [`CardinalityEstimator::process_batch`].
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn ingest_batch(&self, edges: &[(u64, u64)]) {
        for &(user, item) in edges {
            self.ingest(user, item);
        }
    }
}

#[cfg(test)]
mod trait_object_tests {
    use super::*;

    #[test]
    fn estimators_are_object_safe() {
        let mut all: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(FreeBS::new(1 << 14, 1)),
            Box::new(FreeRS::new(1 << 11, 1)),
            Box::new(Cse::new(1 << 14, 128, 1)),
            Box::new(VHll::new(1 << 11, 128, 1)),
            Box::new(PerUserLpc::new(256, 1)),
            Box::new(PerUserHllpp::new(4, 1)),
            Box::new(ShardedFreeBS::new(1 << 14, 4, 1)),
            Box::new(ShardedFreeRS::new(1 << 11, 4, 1)),
        ];
        for est in &mut all {
            for u in 0..10u64 {
                for d in 0..20u64 {
                    est.process(u, d);
                }
            }
            let e = est.estimate(0);
            assert!(e > 0.0, "{}: estimate {e}", est.name());
            assert!(est.total_estimate() > 0.0);
            assert!(est.memory_bits() > 0);
            let mut count = 0;
            est.for_each_estimate(&mut |_, _| count += 1);
            assert_eq!(count, 10, "{}", est.name());
        }
    }

    #[test]
    fn concurrent_estimators_are_object_safe_too() {
        let all: Vec<Box<dyn ConcurrentEstimator>> = vec![
            Box::new(ShardedFreeBS::new(1 << 14, 1, 1)),
            Box::new(ShardedFreeRS::new(1 << 11, 2, 1)),
        ];
        for est in &all {
            for d in 0..50u64 {
                est.ingest(1, d);
            }
            est.ingest_batch(&[(1, 100), (2, 7)]);
            assert!(est.estimate(1) > 0.0, "{}", est.name());
        }
    }
}

//! Sharded estimation — parallel scale-out by owning scalar engines.
//!
//! [`ShardedSketch`] splits the memory budget into `P` independent
//! [`SketchEngine`] shards, each behind its own mutex, and routes each
//! edge — by a dedicated hash of the *pair*, so duplicates land on the
//! same shard and global dedup is preserved — to exactly one of them.
//! Each shard is the plain scalar engine over its own sub-array with its
//! own exact `q`; concurrency comes from owning shards, not from atomics.
//! A writer locks a shard once per sub-batch and never holds two shard
//! locks; a query locks each shard for one lookup.
//!
//! With one shard nothing is routed: a batch is applied in
//! [`crate::INGEST_BLOCK`]-edge slices under one lock each, so the sketch
//! is bit-identical to a scalar engine fed the same calls and a query
//! waits for at most one block.
//!
//! **Estimator composition.** Routing is uniform over shards, so shard `p`
//! observes an i.i.d. thinned substream of each user's edges. Every shard
//! is an unbiased estimator (Theorems 1/2) of its substream's
//! cardinality, and the counts partition: `n_s = Σ_p n_s^{(p)}`, so the
//! merged estimate `n̂_s = Σ_p n̂_s^{(p)}` is unbiased for `n_s`, with
//! variance the sum of the shards' bounds at `M/P` slots each (checked in
//! `tests/statistical.rs`).

use crate::engine::{IncrementalZ, QTracker, SketchEngine, ZeroQ};
use crate::{CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS};
use bitpack::{BitArray, PackedArray, SlotStore};
use hashkit::{mix64, CounterMap, EdgeHasher};
use parking_lot::Mutex;

/// Salt mixed into the routing hasher's seed so shard choice is
/// independent of every in-shard hash (slot, rank), which reuse the same
/// user seed lineage.
const ROUTER_SALT: u64 = 0x005A_A5D0_5EED;

/// Edges routed per stack block when there is more than one shard: the
/// routes and one shard's gathered sub-batch live on the stack, and each
/// shard is locked once per block.
const ROUTE_BLOCK: usize = 4 * crate::INGEST_BLOCK;

/// `P` scalar [`SketchEngine`] shards, each behind a mutex, behind one
/// estimator API.
///
/// `P` is rounded up to a power of two. Ingest (`&self`) may be called
/// from any number of threads.
#[derive(Debug)]
pub struct ShardedSketch<S, Q> {
    shards: Box<[Mutex<SketchEngine<S, Q>>]>,
    router: EdgeHasher,
}

impl<S: SlotStore, Q: QTracker<S>> ShardedSketch<S, Q> {
    /// `P = shards` (rounded up to a power of two) engines, shard `i`
    /// built by `engine(P, mix64(seed, i))`.
    fn build(shards: usize, seed: u64, engine: impl Fn(usize, u64) -> SketchEngine<S, Q>) -> Self {
        let p = shards.max(1).next_power_of_two();
        Self {
            shards: (0..p)
                .map(|i| Mutex::new(engine(p, mix64(seed, i as u64))))
                .collect(),
            router: EdgeHasher::new(mix64(seed, ROUTER_SALT)),
        }
    }

    /// Number of shards `P`.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slots across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Capacity-weighted mean sampling probability across shards.
    #[must_use]
    pub fn q(&self) -> f64 {
        let (weighted, slots) = self.shards.iter().fold((0.0, 0usize), |(w, m), s| {
            let s = s.lock();
            (w + s.q() * s.capacity() as f64, m + s.capacity())
        });
        weighted / slots as f64
    }

    /// The smallest shard's sampling probability — the most conservative
    /// `q` any credited edge saw (the input to anytime confidence
    /// intervals).
    #[must_use]
    pub fn min_q(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.lock().q())
            .fold(f64::INFINITY, f64::min)
    }

    /// The shard an edge routes to (exposed for tests: duplicates must
    /// always agree).
    #[inline]
    #[must_use]
    pub fn route(&self, user: u64, item: u64) -> usize {
        self.router.slot(user, item, self.shards.len())
    }

    /// Observes edge `(user, item)`; callable concurrently.
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&self, user: u64, item: u64) {
        let shard = match &self.shards[..] {
            [one] => one,
            all => &all[self.route(user, item)],
        };
        shard.lock().process(user, item);
    }

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently. One shard takes the slice in
    /// [`crate::INGEST_BLOCK`]-edge pieces, one lock each. More shards
    /// route the slice in [`ROUTE_BLOCK`]-edge blocks on the stack; each
    /// shard's sub-batch of a block keeps the block's edge order (so user
    /// runs survive for the engine's run-coalesced counter writes) and is
    /// applied under one lock.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process_batch(&self, edges: &[(u64, u64)]) {
        if let [one] = &self.shards[..] {
            for piece in edges.chunks(crate::INGEST_BLOCK) {
                one.lock().process_batch(piece);
            }
            return;
        }
        let p = self.shards.len();
        let mut routes = [0usize; ROUTE_BLOCK];
        let mut part = [(0u64, 0u64); ROUTE_BLOCK];
        for block in edges.chunks(ROUTE_BLOCK) {
            let routes = &mut routes[..block.len()];
            self.router.slots_many(block, p, routes);
            for (i, shard) in self.shards.iter().enumerate() {
                let mut k = 0;
                for (&edge, &r) in block.iter().zip(routes.iter()) {
                    part[k] = edge;
                    k += usize::from(r == i);
                }
                if k > 0 {
                    shard.lock().process_batch(&part[..k]);
                }
            }
        }
    }

    /// The current estimate for `user`: HT sums compose across shards.
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.shards.iter().map(|s| s.lock().estimate(user)).sum()
    }

    /// Sum of all user estimates.
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.shards.iter().map(|s| s.lock().total_estimate()).sum()
    }

    /// Merged `(user, estimate)` snapshot across shards.
    #[must_use]
    pub fn merged_estimates(&self) -> CounterMap {
        let mut merged = CounterMap::new();
        for s in &self.shards {
            s.lock().for_each_estimate(&mut |u, e| merged.add(u, e));
        }
        merged
    }

    /// Number of distinct users tracked. One shard answers from its own
    /// counter map; more shards build the merged map, because edges are
    /// routed by edge, not by user, so one user's counters span shards.
    #[must_use]
    pub fn user_count(&self) -> usize {
        match &self.shards[..] {
            [one] => one.lock().user_count(),
            _ => self.merged_estimates().len(),
        }
    }

    /// Total shared-array memory in bits.
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.shards.iter().map(|s| s.lock().memory_bits()).sum()
    }

    /// The shard engines, in shard order (for tests and diagnostics).
    #[must_use]
    pub fn into_shards(self) -> Vec<SketchEngine<S, Q>> {
        self.shards
            .into_vec()
            .into_iter()
            .map(Mutex::into_inner)
            .collect()
    }

    /// Unions another sharded sketch into this one, shard by shard. See
    /// [`SketchEngine::merge`] for the disjoint-partition semantics.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the shard
    /// counts or router seeds differ, or any shard pair's config differs.
    pub fn merge(&mut self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        if self.shards.len() != other.shards.len() {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "shard count {} vs {}",
                    self.shards.len(),
                    other.shards.len()
                ),
            });
        }
        if self.router != other.router {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "router seed {:#x} vs {:#x}",
                    self.router.seed(),
                    other.router.seed()
                ),
            });
        }
        for (a, b) in self.shards.iter_mut().zip(other.shards.iter()) {
            a.get_mut().merge(&b.lock())?;
        }
        Ok(())
    }
}

impl<S: SlotStore, Q: QTracker<S>> CardinalityEstimator for ShardedSketch<S, Q> {
    #[inline]
    fn process(&mut self, user: u64, item: u64) {
        ShardedSketch::process(self, user, item);
    }

    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        ShardedSketch::process_batch(self, edges);
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        ShardedSketch::estimate(self, user)
    }

    fn total_estimate(&self) -> f64 {
        ShardedSketch::total_estimate(self)
    }

    fn memory_bits(&self) -> usize {
        ShardedSketch::memory_bits(self)
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        self.merged_estimates().for_each(f);
    }

    fn name(&self) -> &'static str {
        Q::SHARDED_NAME
    }
}

impl<S, Q> ConcurrentEstimator for ShardedSketch<S, Q>
where
    S: SlotStore + Send,
    Q: QTracker<S> + Send,
{
    #[inline]
    fn ingest(&self, user: u64, item: u64) {
        ShardedSketch::process(self, user, item);
    }

    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn ingest_batch(&self, edges: &[(u64, u64)]) {
        ShardedSketch::process_batch(self, edges);
    }
}

// Manual (de)serialization against the vendored stand-in's `Value` tree,
// like the engines'. Each shard is a serialized `SketchEngine`.
// Deserialization re-validates what the constructors guarantee
// (non-empty, power-of-two shard count, consistent stores) as typed
// errors — snapshot bytes are untrusted input and must never panic.
#[cfg(feature = "serde")]
impl<S, Q> serde::Serialize for ShardedSketch<S, Q>
where
    SketchEngine<S, Q>: serde::Serialize,
{
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "shards".to_string(),
                serde::Value::Seq(
                    self.shards
                        .iter()
                        .map(|s| s.lock().serialize_value())
                        .collect(),
                ),
            ),
            ("router".to_string(), self.router.serialize_value()),
        ])
    }
}

#[cfg(feature = "serde")]
impl<S, Q> serde::Deserialize for ShardedSketch<S, Q>
where
    S: SlotStore,
    Q: QTracker<S>,
    SketchEngine<S, Q>: serde::Deserialize,
{
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected ShardedSketch map"))?;
        let serde::Value::Seq(items) = serde::map_field(map, "shards")? else {
            return Err(serde::Error::custom("expected shard sequence"));
        };
        let shards = items
            .iter()
            .map(|item| {
                let engine = SketchEngine::<S, Q>::deserialize_value(&*current_shard(item)?)?;
                engine.store().validate().map_err(serde::Error::custom)?;
                Ok(Mutex::new(engine))
            })
            .collect::<Result<Box<[_]>, serde::Error>>()?;
        if shards.is_empty() || !shards.len().is_power_of_two() {
            return Err(serde::Error::custom(format!(
                "shard count {} must be a non-zero power of two",
                shards.len()
            )));
        }
        Ok(Self {
            shards,
            router: EdgeHasher::deserialize_value(serde::map_field(map, "router")?)?,
        })
    }
}

/// A serialized shard in [`SketchEngine`]'s shape. Shards of sharded
/// snapshots written before shards were owned scalar engines come from a
/// lock-free engine and have no `total`; they are rewritten: the counter
/// map (`counters`, or `estimates` once the snapshot layer has rejoined
/// its sections) becomes `estimates`, `total` is the counters' sum, and a
/// register `q` stored as `{z_bits}` (the f64 bits of `Z`) becomes
/// [`IncrementalZ`]'s `{z, growths_since_rebuild}`.
#[cfg(feature = "serde")]
fn current_shard(shard: &serde::Value) -> Result<std::borrow::Cow<'_, serde::Value>, serde::Error> {
    use serde::{Deserialize, Serialize};
    let map = shard
        .as_map()
        .ok_or_else(|| serde::Error::custom("expected shard map"))?;
    if serde::map_field(map, "total").is_ok() {
        return Ok(std::borrow::Cow::Borrowed(shard));
    }
    let mut out = Vec::with_capacity(map.len() + 1);
    for (key, value) in map {
        match key.as_str() {
            "counters" | "estimates" => {
                let total = CounterMap::deserialize_value(value)?.values_sum();
                out.push(("estimates".to_string(), value.clone()));
                out.push(("total".to_string(), total.serialize_value()));
            }
            "q" => {
                let q = match value.as_map() {
                    Some(q) => {
                        let z =
                            f64::from_bits(u64::deserialize_value(serde::map_field(q, "z_bits")?)?);
                        serde::Value::Map(vec![
                            ("z".to_string(), z.serialize_value()),
                            ("growths_since_rebuild".to_string(), 0u64.serialize_value()),
                        ])
                    }
                    None => value.clone(),
                };
                out.push(("q".to_string(), q));
            }
            _ => out.push((key.clone(), value.clone())),
        }
    }
    Ok(std::borrow::Cow::Owned(serde::Value::Map(out)))
}

/// Sharded FreeBS: `P` owned FreeBS shards, each with its own exact `m₀`.
pub type ShardedFreeBS = ShardedSketch<BitArray, ZeroQ>;

impl ShardedFreeBS {
    /// Creates a sharded FreeBS with `m_bits` total bits split over
    /// `shards` shards (rounded up to a power of two).
    ///
    /// # Panics
    /// Panics if `m_bits < shards` would leave a shard empty.
    #[must_use]
    pub fn new(m_bits: usize, shards: usize, seed: u64) -> Self {
        Self::build(shards, seed, |p, shard_seed| {
            assert!(m_bits / p > 0, "budget {m_bits} too small for {p} shards");
            FreeBS::new(m_bits / p, shard_seed)
        })
    }
}

/// Sharded FreeRS: `P` owned FreeRS shards, each with its own `Z`.
pub type ShardedFreeRS = ShardedSketch<PackedArray, IncrementalZ>;

impl ShardedFreeRS {
    /// Creates a sharded FreeRS with `m_registers` total five-bit
    /// registers split over `shards` shards (rounded up to a power of
    /// two).
    ///
    /// # Panics
    /// Panics if `m_registers < shards` would leave a shard empty.
    #[must_use]
    pub fn new(m_registers: usize, shards: usize, seed: u64) -> Self {
        Self::build(shards, seed, |p, shard_seed| {
            assert!(
                m_registers / p > 0,
                "budget {m_registers} too small for {p} shards"
            );
            FreeRS::new(m_registers / p, shard_seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_edges(n: u64, users: u64, shift: u32) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| (i % users, hashkit::splitmix64(i) >> shift))
            .collect()
    }

    #[test]
    fn duplicates_route_to_the_same_shard() {
        let s = ShardedFreeBS::new(1 << 16, 4, 9);
        for i in 0..500u64 {
            let (u, d) = (i % 7, i * 31);
            assert_eq!(s.route(u, d), s.route(u, d));
        }
        // And routing actually spreads: all shards see traffic.
        let mut hit = [false; 4];
        for i in 0..200u64 {
            hit[s.route(i, i ^ 0xABCD)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all 4 shards should be hit");
    }

    #[test]
    fn geometry_splits_the_budget() {
        let s = ShardedFreeBS::new(1 << 16, 4, 1);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.capacity(), 1 << 16);
        assert_eq!(s.memory_bits(), 1 << 16);
        assert!((s.q() - 1.0).abs() < 1e-15);

        let r = ShardedFreeRS::new(1 << 12, 3, 1); // rounds up to 4 shards
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.memory_bits(), (1 << 12) * 5);
        assert_eq!(CardinalityEstimator::name(&r), "ShardedFreeRS");
        assert_eq!(
            CardinalityEstimator::name(&ShardedFreeBS::new(64, 1, 1)),
            "ShardedFreeBS"
        );
    }

    #[test]
    fn single_thread_accuracy_matches_unsharded_class() {
        let sharded = ShardedFreeBS::new(1 << 18, 8, 3);
        let n = 20_000u64;
        for d in 0..n {
            sharded.process(1, d);
        }
        let rel = (sharded.estimate(1) / n as f64 - 1.0).abs();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn sharded_freers_accuracy() {
        let sharded = ShardedFreeRS::new(1 << 14, 4, 5);
        let n = 30_000u64;
        for d in 0..n {
            sharded.process(2, d);
        }
        let rel = (sharded.estimate(2) / n as f64 - 1.0).abs();
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_scalar_engine() {
        // No routing at P = 1: the same process / process_batch calls
        // leave the shard in exactly the scalar engine's state.
        let edges = test_edges(20_000, 13, 22);
        let sharded = ShardedFreeRS::new(1 << 12, 1, 4);
        let mut scalar = FreeRS::new(1 << 12, mix64(4, 0));
        let (head, tail) = edges.split_at(7_777);
        for &(u, d) in &head[..100] {
            sharded.process(u, d);
            scalar.process(u, d);
        }
        sharded.process_batch(&head[100..]);
        scalar.process_batch(&head[100..]);
        sharded.process_batch(tail);
        scalar.process_batch(tail);
        for u in 0..13u64 {
            assert_eq!(sharded.estimate(u).to_bits(), scalar.estimate(u).to_bits());
        }
        assert_eq!(sharded.total_estimate(), scalar.total_estimate());
        assert_eq!(sharded.q(), scalar.q());
        let shards = sharded.into_shards();
        assert_eq!(shards[0].registers(), scalar.registers());
    }

    #[test]
    fn batch_and_scalar_paths_agree_within_drift() {
        for shards in [1, 4] {
            let batch = ShardedFreeBS::new(1 << 16, shards, 7);
            let scalar = ShardedFreeBS::new(1 << 16, shards, 7);
            let edges = test_edges(10_000, 9, 20);
            batch.process_batch(&edges);
            for &(u, d) in &edges {
                scalar.process(u, d);
            }
            for u in 0..9u64 {
                let (b, s) = (batch.estimate(u), scalar.estimate(u));
                assert!(
                    (b - s).abs() <= s * 0.02 + 1e-9,
                    "{shards} shards, user {u}: batch {b} vs scalar {s}"
                );
            }
            // The arrays agree exactly: batching only re-freezes q.
            for (b, s) in batch.into_shards().iter().zip(scalar.into_shards()) {
                assert_eq!(b.bit_array(), s.bit_array());
            }
        }
    }

    #[test]
    fn parallel_ingest_close_to_truth_and_deduplicated() {
        // 4 threads each replay the SAME stream: dedup must hold globally
        // (same edge → same shard → same slot) and per-user estimates must
        // stay close to the sequential truth — for the bit and the
        // register sketch, at one shard (all threads on one lock) and four.
        let edges = test_edges(40_000, 8, 14);
        let per_user = 5_000.0; // 40k edges over 8 users, items all distinct
        let sketches: [Box<dyn ConcurrentEstimator>; 4] = [
            Box::new(ShardedFreeBS::new(1 << 18, 1, 11)),
            Box::new(ShardedFreeBS::new(1 << 18, 4, 11)),
            Box::new(ShardedFreeRS::new(1 << 15, 1, 11)),
            Box::new(ShardedFreeRS::new(1 << 15, 4, 11)),
        ];
        for sketch in &sketches {
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (sketch, edges) = (sketch.as_ref(), &edges);
                    s.spawn(move || {
                        if t % 2 == 0 {
                            sketch.ingest_batch(edges);
                        } else {
                            for &(u, d) in edges {
                                sketch.ingest(u, d);
                            }
                        }
                    });
                }
            });
            for u in 0..8u64 {
                let rel = (sketch.estimate(u) / per_user - 1.0).abs();
                assert!(
                    rel < 0.1,
                    "{}: user {u}: relative error {rel}",
                    sketch.name()
                );
            }
            let mut users = 0;
            sketch.for_each_estimate(&mut |_, _| users += 1);
            assert_eq!(users, 8);
        }
    }

    #[test]
    fn merged_snapshot_sums_to_total() {
        let s = ShardedFreeRS::new(1 << 12, 4, 13);
        for u in 0..30u64 {
            for d in 0..40u64 {
                s.process(u, d.wrapping_mul(u + 1));
            }
        }
        let merged = s.merged_estimates();
        let mut sum = 0.0;
        merged.for_each(&mut |_, e| sum += e);
        assert!((sum - s.total_estimate()).abs() < 1e-6);
        assert_eq!(merged.len(), s.user_count());
    }
}

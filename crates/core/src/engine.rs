//! The storage-generic estimator core.
//!
//! FreeBS (Algorithm 1) and FreeRS (Algorithm 2) share one pipeline —
//! hash the edge into the shared array, attempt a monotone slot update,
//! and on success credit the user `1/q(t)` where `q(t)` is the probability
//! that a brand-new edge changes the array. [`SketchEngine`] implements
//! that pipeline **once**, generic over
//!
//! * the storage ([`bitpack::SlotStore`]): a bit array or a register
//!   array, and
//! * the `q` bookkeeping ([`QTracker`]): the exact zero count `m₀/M`
//!   (FreeBS) or the incrementally maintained `Z/M` (FreeRS),
//!
//! so `FreeBS` and `FreeRS` are type aliases instantiating it, and the
//! batched block pipeline (block hashing, load-only warm passes,
//! word-level multi-update, frozen per-block `q`, run-coalesced counter
//! writes) is written and maintained in exactly one place.

use crate::CardinalityEstimator;
use bitpack::SlotStore;
use hashkit::{geometric_rank, reduce64, splitmix64, CounterMap, EdgeHasher};

/// The `q(t)` bookkeeping seam of the [`SketchEngine`].
///
/// `q(t) = numerator(t) / M`; the numerator is the store's zero count for
/// bit sharing (maintained exactly by the array itself) and
/// `Z = Σ_j 2^{-R[j]}` for register sharing (maintained incrementally here,
/// with periodic exact rebuilds cancelling floating-point drift).
pub trait QTracker<S: SlotStore> {
    /// The paper's name for the estimator this tracker realizes — used as
    /// [`CardinalityEstimator::name`].
    const NAME: &'static str;
    /// Name of the sharded variant (see [`crate::ShardedSketch`]).
    const SHARDED_NAME: &'static str;

    /// Tracker for a fresh (all-zero) store.
    fn fresh(store: &S) -> Self;

    /// The numerator of `q(t)`, read on the state *before* an update (the
    /// definition both theorems rely on: `E[ξ|q] = q` requires `q` to be
    /// measurable at `t−1`).
    fn numerator(&self, store: &S) -> f64;

    /// Accounts one slot growth `old → new`. O(1); a no-op when the store
    /// maintains the numerator itself.
    fn on_growth(&mut self, old: u16, new: u16);

    /// Amortized exact resynchronisation against the store (FreeRS's
    /// periodic `Z` rebuild). Called once per edge-growth (scalar path) or
    /// once per block (batch path).
    fn maybe_rebuild(&mut self, store: &S);

    /// Unconditional exact resynchronisation against the store, called
    /// after an operation rewrote the store wholesale (a snapshot merge).
    /// A no-op when the store maintains the numerator itself.
    fn resync(&mut self, store: &S);
}

/// `q_B = m₀/M` for bit stores: the array maintains `m₀` exactly, so the
/// tracker is stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroQ;

impl<S: SlotStore> QTracker<S> for ZeroQ {
    const NAME: &'static str = "FreeBS";
    const SHARDED_NAME: &'static str = "ShardedFreeBS";

    #[inline]
    fn fresh(_store: &S) -> Self {
        Self
    }

    #[inline]
    fn numerator(&self, store: &S) -> f64 {
        store.zero_slots() as f64
    }

    #[inline]
    fn on_growth(&mut self, _old: u16, _new: u16) {}

    #[inline]
    fn maybe_rebuild(&mut self, _store: &S) {}

    #[inline]
    fn resync(&mut self, _store: &S) {}
}

/// How many register-growth events may pass between exact recomputations of
/// `Z = Σ_j 2^{-R[j]}`. Each incremental update adds one rounding error of
/// at most ~2⁻⁵³·M, so a 2²⁰ window keeps the accumulated drift far below
/// any estimate's noise floor; the rebuild is O(M) but amortizes to ~0.
const Z_REBUILD_INTERVAL: u64 = 1 << 20;

/// `q_R = Z/M` for register stores, with `Z` maintained incrementally in
/// O(1) per growth and rebuilt exactly every [`Z_REBUILD_INTERVAL`]
/// growths.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalZ {
    /// Incrementally maintained `Z = Σ_j 2^{-R[j]}`.
    z: f64,
    growths_since_rebuild: u64,
}

impl IncrementalZ {
    /// Recomputes `Z` exactly from `store` and returns the absolute drift
    /// the incremental value had accumulated.
    pub fn rebuild<S: SlotStore>(&mut self, store: &S) -> f64 {
        let exact = store.sum_pow2_neg();
        let drift = (self.z - exact).abs();
        self.z = exact;
        self.growths_since_rebuild = 0;
        drift
    }
}

impl<S: SlotStore> QTracker<S> for IncrementalZ {
    const NAME: &'static str = "FreeRS";
    const SHARDED_NAME: &'static str = "ShardedFreeRS";

    #[inline]
    fn fresh(store: &S) -> Self {
        Self {
            z: store.len() as f64,
            growths_since_rebuild: 0,
        }
    }

    #[inline]
    fn numerator(&self, _store: &S) -> f64 {
        self.z
    }

    #[inline]
    fn on_growth(&mut self, old: u16, new: u16) {
        self.z += pow2_neg(new) - pow2_neg(old);
        self.growths_since_rebuild += 1;
    }

    #[inline]
    fn maybe_rebuild(&mut self, store: &S) {
        if self.growths_since_rebuild >= Z_REBUILD_INTERVAL {
            self.rebuild(store);
        }
    }

    #[inline]
    fn resync(&mut self, store: &S) {
        self.rebuild(store);
    }
}

/// The generic sharing estimator: one shared [`SlotStore`], one
/// Horvitz–Thompson counter per user, `q(t)` maintained by a [`QTracker`].
///
/// Instantiated as [`crate::FreeBS`] (`BitArray` + [`ZeroQ`]) and
/// [`crate::FreeRS`] (`PackedArray` + [`IncrementalZ`]); concurrent
/// ingest owns `P` of them behind mutexes ([`crate::ShardedSketch`]).
#[derive(Debug, Clone)]
pub struct SketchEngine<S, Q> {
    store: S,
    hasher: EdgeHasher,
    q: Q,
    estimates: CounterMap,
    total: f64,
}

impl<S: SlotStore, Q: QTracker<S>> SketchEngine<S, Q> {
    /// Builds an engine over a fresh (all-zero) `store`.
    #[must_use]
    pub fn from_store(store: S, seed: u64) -> Self {
        let q = Q::fresh(&store);
        Self {
            store,
            hasher: EdgeHasher::new(seed),
            q,
            estimates: CounterMap::new(),
            total: 0.0,
        }
    }

    /// The shared array size `M`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.store.len()
    }

    /// The current sampling probability `q(t)` — `m₀/M` for bit sharing,
    /// `Z/M` for register sharing.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q.numerator(&self.store) / self.store.len() as f64
    }

    /// Number of users currently tracked.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.estimates.len()
    }

    /// Read-only view of the shared store (for tests and diagnostics).
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Split borrow for tracker maintenance that needs the store
    /// (`FreeRS::rebuild_z`).
    pub(crate) fn store_and_q_mut(&mut self) -> (&S, &mut Q) {
        (&self.store, &mut self.q)
    }

    /// Unions another engine's state into this one: bitwise OR for bit
    /// stores, element-wise max for registers, per-user counters and the
    /// running total added. After the store union the `q` tracker is
    /// resynchronised exactly, so subsequent updates use the merged state.
    ///
    /// The union of HT-credited counters is the estimator for the union
    /// stream only when the two engines ingested *disjoint* partitions of
    /// it (split-by-edge sharding); merging overlapping streams
    /// double-counts shared edges, exactly as in the paper's distributed
    /// sketch union.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the hasher
    /// seeds or store geometries (length, register width) differ — such
    /// sketches place edges in unrelated slots and their union is
    /// meaningless.
    pub fn merge(&mut self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        if self.hasher != other.hasher {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "hasher seed {:#x} vs {:#x}",
                    self.hasher.seed(),
                    other.hasher.seed()
                ),
            });
        }
        if self.store.len() != other.store.len() || self.store.width() != other.store.width() {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "store geometry {}x{} vs {}x{}",
                    self.store.len(),
                    self.store.width(),
                    other.store.len(),
                    other.store.width()
                ),
            });
        }
        self.store.merge_from(&other.store);
        other
            .estimates
            .for_each(&mut |user, est| self.estimates.add(user, est));
        self.total += other.total;
        self.q.resync(&self.store);
        Ok(())
    }

    /// The update value an edge hash carries: a saturated geometric rank
    /// for register stores, ignored (1) for bit stores.
    #[inline]
    fn value_of(&self, h: u64) -> u16 {
        if S::RANKED {
            u16::from(geometric_rank(splitmix64(h)).saturated(self.store.width()))
        } else {
            1
        }
    }

    /// Warm pass for one block: block-hash the edges, derive their slots
    /// (and ranks for register stores), and touch every store word the
    /// apply pass will need. All loads fold into one accumulator kept alive
    /// by a single `black_box`, so the compiler cannot drop them while the
    /// hardware overlaps their misses. Counter homes are *not* warmed here
    /// — which users get credited is unknown until the apply pass, and
    /// speculatively touching every user's counter measured slower than
    /// demand-warming the grown ones (it roughly doubles the map traffic).
    #[inline(always)]
    fn warm_block(
        &self,
        chunk: &[(u64, u64)],
        hashes: &mut [u64],
        slots: &mut [usize],
        values: &mut [u16],
    ) {
        let m = self.store.len();
        if S::RANKED {
            self.hasher.hash_many(chunk, hashes);
            for (s, &h) in slots.iter_mut().zip(hashes.iter()) {
                *s = reduce64(h, m);
            }
            let width = self.store.width();
            for (v, &h) in values.iter_mut().zip(hashes.iter()) {
                *v = u16::from(geometric_rank(splitmix64(h)).saturated(width));
            }
        } else {
            // Bit stores never look at the hash again (the update value is
            // always 1), so the slot derivation fuses into the lane loop
            // and the `hashes` scratch is never materialized.
            self.hasher.slots_many(chunk, m, slots);
        }
        let mut acc = 0u64;
        for &s in slots.iter() {
            acc ^= self.store.warm(s);
        }
        std::hint::black_box(acc);
    }

    /// Write pass for one block whose lines the warm pass already pulled
    /// in: freeze `q` at its block-start value, multi-update the store,
    /// account growths, demand-warm the grown users' counter homes, and
    /// credit them with run-coalesced counter adds, as PR 2 did.
    #[inline(always)]
    fn apply_block(
        &mut self,
        chunk: &[(u64, u64)],
        slots: &[usize],
        values: &[u16],
        grew: &mut [bool],
        old: &mut [u16],
        grew_users: &mut [u64],
    ) {
        let k = chunk.len();
        let m = self.store.len();
        // q for the whole block is the numerator *before* any of its
        // updates; frozen here, applied only if something grew (a zero
        // numerator implies nothing can grow).
        let qn = self.q.numerator(&self.store);
        self.store
            .update_many(slots, values, &mut grew[..k], &mut old[..k]);
        let mut growths = 0usize;
        for i in 0..k {
            if grew[i] {
                self.q.on_growth(old[i], values[i]);
            }
            grew_users[growths] = chunk[i].0;
            growths += usize::from(grew[i]);
        }
        if growths == 0 {
            return;
        }
        let mut acc = 0u64;
        for &user in &grew_users[..growths] {
            acc ^= self.estimates.warm(user);
        }
        std::hint::black_box(acc);
        let inc = m as f64 / qn;
        let mut i = 0usize;
        while i < growths {
            let user = grew_users[i];
            let mut run = 1usize;
            while i + run < growths && grew_users[i + run] == user {
                run += 1;
            }
            self.estimates.add(user, inc * run as f64);
            i += run;
        }
        self.total += inc * growths as f64;
        self.q.maybe_rebuild(&self.store);
    }
}

impl<S: SlotStore, Q: QTracker<S>> CardinalityEstimator for SketchEngine<S, Q> {
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process(&mut self, user: u64, item: u64) {
        let h = self.hasher.hash_edge(user, item);
        let slot = reduce64(h, self.store.len());
        let value = self.value_of(h);
        // q(t) is defined on the state at t−1, so the numerator is read
        // before the update (for bit stores this equals the post-update
        // zero count + 1, exactly Algorithm 1's increment).
        let qn = self.q.numerator(&self.store);
        if let Some(old) = self.store.try_update(slot, value) {
            let inc = self.store.len() as f64 / qn;
            self.estimates.add(user, inc);
            self.total += inc;
            self.q.on_growth(old, value);
            self.q.maybe_rebuild(&self.store);
        }
        // Non-changing edges (duplicates, or collisions — indistinguishable,
        // and exactly the event q accounts for) are discarded for free, as
        // in Algorithms 1 and 2: no counter write, no map lookup.
    }

    /// Phased batch ingest. The batch is cut into blocks of
    /// [`crate::INGEST_BLOCK`] edges; each block runs a load-only **warm**
    /// pass (hash, slot, rank, touch every store word) and then a **write**
    /// pass (frozen-`q` multi-update plus run-coalesced counter credits;
    /// see [`CardinalityEstimator::process_batch`] for the drift bound).
    /// The scratch is compile-time sized and lives on the stack, so the
    /// compiler sees every pass's trip count and drops the bounds checks.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        const BLOCK: usize = crate::INGEST_BLOCK;
        let mut hashes = [0u64; BLOCK];
        let mut slots = [0usize; BLOCK];
        let mut values = [1u16; BLOCK];
        let mut grew = [false; BLOCK];
        let mut old = [0u16; BLOCK];
        let mut grew_users = [0u64; BLOCK];
        for chunk in edges.chunks(BLOCK) {
            let k = chunk.len();
            self.warm_block(chunk, &mut hashes[..k], &mut slots[..k], &mut values[..k]);
            self.apply_block(
                chunk,
                &slots[..k],
                &values[..k],
                &mut grew,
                &mut old,
                &mut grew_users,
            );
        }
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        self.estimates.get(user).unwrap_or(0.0)
    }

    fn total_estimate(&self) -> f64 {
        self.total
    }

    fn memory_bits(&self) -> usize {
        self.store.memory_bits()
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        self.estimates.for_each(f);
    }

    fn name(&self) -> &'static str {
        Q::NAME
    }
}

/// `2^{-v}` by exponent manipulation (exact for all register values).
#[inline]
pub(crate) fn pow2_neg(v: u16) -> f64 {
    f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52)
}

// The vendored serde derive handles non-generic types only, so the engine's
// (de)serialization is spelled out against the stand-in's `Value` tree; the
// aliases `FreeBS`/`FreeRS` round-trip through these impls.
#[cfg(feature = "serde")]
impl<S: serde::Serialize, Q: serde::Serialize> serde::Serialize for SketchEngine<S, Q> {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("store".to_string(), self.store.serialize_value()),
            ("hasher".to_string(), self.hasher.serialize_value()),
            ("q".to_string(), self.q.serialize_value()),
            ("estimates".to_string(), self.estimates.serialize_value()),
            ("total".to_string(), self.total.serialize_value()),
        ])
    }
}

#[cfg(feature = "serde")]
impl<S: serde::Deserialize, Q: serde::Deserialize> serde::Deserialize for SketchEngine<S, Q> {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected SketchEngine map"))?;
        Ok(Self {
            store: S::deserialize_value(serde::map_field(map, "store")?)?,
            hasher: EdgeHasher::deserialize_value(serde::map_field(map, "hasher")?)?,
            q: Q::deserialize_value(serde::map_field(map, "q")?)?,
            estimates: CounterMap::deserialize_value(serde::map_field(map, "estimates")?)?,
            total: f64::deserialize_value(serde::map_field(map, "total")?)?,
        })
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for ZeroQ {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for ZeroQ {
    fn deserialize_value(_v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for IncrementalZ {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("z".to_string(), self.z.serialize_value()),
            (
                "growths_since_rebuild".to_string(),
                self.growths_since_rebuild.serialize_value(),
            ),
        ])
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for IncrementalZ {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected IncrementalZ map"))?;
        Ok(Self {
            z: f64::deserialize_value(serde::map_field(map, "z")?)?,
            growths_since_rebuild: u64::deserialize_value(serde::map_field(
                map,
                "growths_since_rebuild",
            )?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitpack::{BitArray, PackedArray};

    #[test]
    fn engine_matches_direct_algorithm1_transcription() {
        // The generic pipeline must reproduce a straight transcription of
        // Algorithm 1 (bit array + exact m₀ + HT counters) edge for edge.
        let m = 1 << 12;
        let seed = 77;
        let mut engine: SketchEngine<BitArray, ZeroQ> =
            SketchEngine::from_store(BitArray::new(m), seed);
        let mut bits = BitArray::new(m);
        let hasher = EdgeHasher::new(seed);
        let mut reference: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for i in 0..3_000u64 {
            let (user, item) = (i % 13, splitmix64(i) >> 40);
            engine.process(user, item);
            let slot = hasher.slot(user, item, m);
            let m0 = bits.zeros();
            if bits.set(slot) {
                *reference.entry(user).or_insert(0.0) += m as f64 / m0 as f64;
            }
        }
        assert_eq!(engine.store(), &bits);
        for u in 0..13u64 {
            assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {u}"
            );
        }
    }

    #[test]
    fn engine_matches_direct_algorithm2_transcription() {
        // Same for Algorithm 2: register max + incremental Z, credit read
        // on the pre-update Z.
        let m = 1 << 10;
        let seed = 99;
        let width = 5u8;
        let mut engine: SketchEngine<PackedArray, IncrementalZ> =
            SketchEngine::from_store(PackedArray::new(m, width), seed);
        let mut regs = PackedArray::new(m, width);
        let hasher = EdgeHasher::new(seed);
        let mut z = m as f64;
        let mut reference: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for i in 0..4_000u64 {
            let (user, item) = (i % 7, splitmix64(i) >> 32);
            engine.process(user, item);
            let h = hasher.hash_edge(user, item);
            let slot = reduce64(h, m);
            let new = u16::from(geometric_rank(splitmix64(h)).saturated(width));
            if let Some(old) = regs.store_max(slot, new) {
                *reference.entry(user).or_insert(0.0) += m as f64 / z;
                z += pow2_neg(new) - pow2_neg(old);
            }
        }
        assert_eq!(engine.store(), &regs);
        for u in 0..7u64 {
            assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {u}"
            );
        }
    }

    #[test]
    fn pow2_neg_matches_powi() {
        for v in 0..=64u16 {
            assert_eq!(pow2_neg(v), 2f64.powi(-i32::from(v)), "v={v}");
        }
    }
}

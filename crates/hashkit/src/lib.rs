//! # hashkit — hashing substrate for the FreeBS/FreeRS reproduction
//!
//! The paper (Wang et al., ICDE 2019) assumes ideal uniform hash functions:
//!
//! * `h*(e)` maps a user–item pair uniformly into `{1, …, M}` (FreeBS/FreeRS);
//! * `ρ*(e)` draws a Geometric(1/2) rank from the same pair (FreeRS);
//! * `f_1(s), …, f_m(s)` is a family of `m` independent uniform functions of
//!   the *user* (CSE/vHLL virtual sketches);
//! * `h(d)`/`ρ(d)` map an *item* to a slot/rank inside a per-user sketch
//!   (LPC/HLL/HLL++).
//!
//! All of those are provided here on top of two from-scratch 64-bit mixers
//! ([`splitmix64`] and the xxhash64-style [`XxHash64`]), with no third-party
//! hashing crates. Determinism is part of the contract: the same seed and
//! input always produce the same value, across platforms, so experiments are
//! replayable.
//!
//! ```
//! use hashkit::{EdgeHasher, Rank};
//!
//! let h = EdgeHasher::new(0xC0FFEE);
//! let (slot, rank) = h.slot_and_rank(42u64, 7u64, 1 << 20);
//! assert!(slot < 1 << 20);
//! assert!((1..=Rank::MAX_RANK).contains(&rank.get()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod countermap;
mod family;
mod fxmap;
mod mix;
mod rank;
mod xxhash;

pub use countermap::CounterMap;
pub use family::{HashFamily, UserItemHasher};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mix::{mix64, mix64_pair, splitmix64, SplitMix64};
pub use rank::{geometric_rank, Rank};
pub use xxhash::{xxhash64, XxHash64};

/// Hashes one user–item pair into a `(slot, rank)` pair, the way FreeRS needs
/// (`h*(e)`, `ρ*(e)`), or just into a slot, the way FreeBS needs (`h*(e)`).
///
/// Internally a single 64-bit hash of the pair is computed and split following
/// footnote 1 of the paper: the low bits choose the slot (mod `m`), the
/// remaining bits feed the geometric rank. Using one hash for both halves is
/// what production HLL implementations do and keeps the per-edge cost at one
/// mixer invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EdgeHasher {
    seed: u64,
}

impl EdgeHasher {
    /// Creates an edge hasher with the given seed. Two hashers with the same
    /// seed are interchangeable.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed: splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The raw 64-bit hash of the pair `(user, item)`.
    #[inline]
    #[must_use]
    pub fn hash_edge(&self, user: u64, item: u64) -> u64 {
        mix64_pair(self.seed, user, item)
    }

    /// Maps the edge uniformly into `0..m` — the paper's `h*(e)` (0-based).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[inline]
    #[must_use]
    pub fn slot(&self, user: u64, item: u64, m: usize) -> usize {
        assert!(m > 0, "slot range must be non-empty");
        reduce64(self.hash_edge(user, item), m)
    }

    /// Maps the edge into a `(slot, rank)` pair — the paper's
    /// `(h*(e), ρ*(e))`. The slot is uniform in `0..m`; the rank is
    /// Geometric(1/2) on `{1, 2, …}`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[inline]
    #[must_use]
    pub fn slot_and_rank(&self, user: u64, item: u64, m: usize) -> (usize, Rank) {
        assert!(m > 0, "slot range must be non-empty");
        let h = self.hash_edge(user, item);
        let slot = reduce64(h, m);
        // Re-mix so the rank bits are independent of the bits that chose the
        // slot; `reduce64` consumes the high bits, so a dependent suffix
        // would bias ranks within a slot.
        let rank = geometric_rank(splitmix64(h));
        (slot, rank)
    }

    /// The seed this hasher was built from (after pre-mixing).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes a block of edges into `out[..edges.len()]` — the block form of
    /// [`EdgeHasher::hash_edge`] used by the batched ingest fast path.
    ///
    /// The body runs [`LANES`] independent interleaved scalar lanes per
    /// iteration: each lane's multiply/xor chain shares no data with its
    /// neighbors, so the whole lane group is a straight-line dependency-free
    /// slice the compiler can keep in flight at once (and auto-vectorize
    /// where the ISA allows) — hash latency then overlaps the memory stalls
    /// of the surrounding phased ingest instead of serializing after them.
    /// Lane order is pure iteration order, so output is identical to the
    /// per-edge loop.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `edges`.
    #[inline]
    pub fn hash_many(&self, edges: &[(u64, u64)], out: &mut [u64]) {
        assert!(out.len() >= edges.len(), "output buffer too small");
        let out = &mut out[..edges.len()];
        let mut edge_blocks = edges.chunks_exact(LANES);
        let mut out_blocks = out.chunks_exact_mut(LANES);
        for (eb, ob) in (&mut edge_blocks).zip(&mut out_blocks) {
            let lanes: [u64; LANES] =
                core::array::from_fn(|k| mix64_pair(self.seed, eb[k].0, eb[k].1));
            ob.copy_from_slice(&lanes);
        }
        for (o, &(user, item)) in out_blocks
            .into_remainder()
            .iter_mut()
            .zip(edge_blocks.remainder())
        {
            *o = mix64_pair(self.seed, user, item);
        }
    }

    /// Maps a block of edges to slots in `0..m` — the block form of
    /// [`EdgeHasher::slot`], with the same [`LANES`]-wide interleaved-lane
    /// structure as [`EdgeHasher::hash_many`] (the `reduce64` widening
    /// multiply joins each lane's independent chain). One bounds assert for
    /// the whole block instead of one per edge.
    ///
    /// # Panics
    /// Panics if `m == 0` or `out` is shorter than `edges`.
    #[inline]
    pub fn slots_many(&self, edges: &[(u64, u64)], m: usize, out: &mut [usize]) {
        assert!(m > 0, "slot range must be non-empty");
        assert!(out.len() >= edges.len(), "output buffer too small");
        let out = &mut out[..edges.len()];
        let mut edge_blocks = edges.chunks_exact(LANES);
        let mut out_blocks = out.chunks_exact_mut(LANES);
        for (eb, ob) in (&mut edge_blocks).zip(&mut out_blocks) {
            let lanes: [usize; LANES] =
                core::array::from_fn(|k| reduce64(mix64_pair(self.seed, eb[k].0, eb[k].1), m));
            ob.copy_from_slice(&lanes);
        }
        for (o, &(user, item)) in out_blocks
            .into_remainder()
            .iter_mut()
            .zip(edge_blocks.remainder())
        {
            *o = reduce64(mix64_pair(self.seed, user, item), m);
        }
    }
}

/// Interleaved scalar lanes per iteration of the block hash loops
/// ([`EdgeHasher::hash_many`] / [`EdgeHasher::slots_many`]). Eight
/// independent 64-bit mixer chains are enough to cover the ~4-cycle
/// multiply latency on current cores while staying register-resident.
pub const LANES: usize = 8;

/// Multiply-shift reduction of a 64-bit hash onto `0..m` without modulo bias
/// (Lemire's fastrange). Uses the high bits of `h`.
#[inline]
#[must_use]
pub fn reduce64(h: u64, m: usize) -> usize {
    debug_assert!(m > 0);
    (((h as u128) * (m as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_hasher_is_deterministic() {
        let a = EdgeHasher::new(7);
        let b = EdgeHasher::new(7);
        assert_eq!(a.hash_edge(1, 2), b.hash_edge(1, 2));
        assert_eq!(a.slot_and_rank(1, 2, 64), b.slot_and_rank(1, 2, 64));
    }

    #[test]
    fn different_seeds_differ() {
        let a = EdgeHasher::new(1);
        let b = EdgeHasher::new(2);
        // Equality for any single input is possible but astronomically
        // unlikely for a good mixer; check a few inputs.
        let same = (0..16u64)
            .filter(|&i| a.hash_edge(i, i) == b.hash_edge(i, i))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn slots_cover_range() {
        let h = EdgeHasher::new(3);
        let m = 16;
        let mut seen = vec![false; m];
        for i in 0..10_000u64 {
            seen[h.slot(i, i.wrapping_mul(31), m)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 16 slots should be hit in 10k draws"
        );
    }

    #[test]
    fn slot_panics_on_zero_m() {
        let h = EdgeHasher::new(3);
        assert!(std::panic::catch_unwind(|| h.slot(1, 1, 0)).is_err());
    }

    #[test]
    fn reduce64_bounds() {
        assert_eq!(reduce64(0, 10), 0);
        assert_eq!(reduce64(u64::MAX, 10), 9);
        for m in [1usize, 2, 3, 7, 1024] {
            for h in [0u64, 1, u64::MAX / 2, u64::MAX] {
                assert!(reduce64(h, m) < m);
            }
        }
    }

    #[test]
    fn hash_many_matches_scalar() {
        let h = EdgeHasher::new(5);
        let edges: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 7, i.wrapping_mul(31))).collect();
        let mut hashes = vec![0u64; edges.len()];
        h.hash_many(&edges, &mut hashes);
        let mut slots = vec![0usize; edges.len()];
        h.slots_many(&edges, 4096, &mut slots);
        for (i, &(u, d)) in edges.iter().enumerate() {
            assert_eq!(hashes[i], h.hash_edge(u, d));
            assert_eq!(slots[i], h.slot(u, d, 4096));
        }
    }

    #[test]
    fn lane_blocks_and_remainders_agree_with_scalar() {
        // Exercise every remainder class around the lane width, including
        // sub-lane blocks that take only the remainder loop.
        let h = EdgeHasher::new(9);
        for n in [0usize, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
            let edges: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i ^ 0xABCD, i.wrapping_mul(97)))
                .collect();
            let mut hashes = vec![0u64; n];
            h.hash_many(&edges, &mut hashes);
            let mut slots = vec![0usize; n];
            h.slots_many(&edges, 1 << 20, &mut slots);
            for (i, &(u, d)) in edges.iter().enumerate() {
                assert_eq!(hashes[i], h.hash_edge(u, d), "n={n} i={i}");
                assert_eq!(slots[i], h.slot(u, d, 1 << 20), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn hash_many_empty_is_noop() {
        let h = EdgeHasher::new(5);
        let mut out: Vec<u64> = Vec::new();
        h.hash_many(&[], &mut out);
        let mut slots: Vec<usize> = Vec::new();
        h.slots_many(&[], 16, &mut slots);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn slots_many_rejects_short_buffer() {
        let h = EdgeHasher::new(5);
        let mut out = vec![0usize; 1];
        h.slots_many(&[(1, 2), (3, 4)], 16, &mut out);
    }

    #[test]
    fn rank_distribution_is_geometric() {
        // P(rank = k) = 2^-k. With 1<<17 draws, counts should roughly halve.
        let h = EdgeHasher::new(11);
        let n = 1usize << 17;
        let mut counts = [0usize; 8];
        for i in 0..n as u64 {
            let (_, r) = h.slot_and_rank(i, !i, 1024);
            let k = (r.get() as usize).min(8);
            counts[k - 1] += 1;
        }
        for (k, &count) in counts.iter().take(5).enumerate() {
            let expected = n as f64 / 2f64.powi(k as i32 + 1);
            let got = count as f64;
            assert!(
                (got / expected - 1.0).abs() < 0.1,
                "rank {} count {} vs expected {}",
                k + 1,
                got,
                expected
            );
        }
    }
}

//! Lock-free packed register array. No estimator uses it since the
//! sharded sketch owns scalar engines; the benchmark still times it as a
//! layer.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length array of `w`-bit registers supporting concurrent
/// max-updates via compare-and-swap on the backing words.
///
/// Unlike [`crate::PackedArray`], cells never straddle word boundaries:
/// each word holds `⌊64/w⌋` cells and the remainder bits go unused, so a
/// CAS on one word races only with updates to cells in that word. The
/// memory overhead versus tight packing is `64 mod w` bits per word
/// (for w = 5: 4/64 ≈ 6%).
#[derive(Debug)]
pub struct AtomicPackedArray {
    words: Vec<AtomicU64>,
    len: usize,
    width: u8,
    cells_per_word: usize,
}

impl AtomicPackedArray {
    /// Creates an all-zero atomic register array.
    ///
    /// # Panics
    /// Panics if `len == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn new(len: usize, width: u8) -> Self {
        assert!(len > 0, "register array must be non-empty");
        assert!((1..=16).contains(&width), "width {width} must be in 1..=16");
        let cells_per_word = 64 / usize::from(width);
        let n_words = len.div_ceil(cells_per_word);
        let mut words = Vec::with_capacity(n_words);
        words.resize_with(n_words, || AtomicU64::new(0));
        Self {
            words,
            len,
            width,
            cells_per_word,
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Largest storable value, `2^w − 1`.
    #[must_use]
    pub fn max_value(&self) -> u16 {
        ((1u32 << self.width) - 1) as u16
    }

    #[inline]
    fn locate(&self, i: usize) -> (usize, u32) {
        let word = i / self.cells_per_word;
        let off = (i % self.cells_per_word) as u32 * u32::from(self.width);
        (word, off)
    }

    /// Load-only warm-up of the word holding register `i` (relaxed),
    /// returned so the caller can fold many warms into one accumulator and
    /// force the batch with a single `std::hint::black_box` — the
    /// concurrent batch ingest path's software prefetch (the crate forbids
    /// `unsafe`, so no prefetch intrinsic).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let (word, _) = self.locate(i);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[word].load(Ordering::Relaxed)
    }

    /// Loads register `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u16 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        // ORDERING: relaxed-ok — registers only grow (max-merge), and a stale
        // read merely under-reports momentarily; no payload is guarded.
        ((self.words[word].load(Ordering::Relaxed) >> off) & mask) as u16
    }

    /// Atomically performs `R[i] ← max(R[i], value)`, returning the
    /// previous value if this call grew the register (exactly one winner
    /// per growth under contention).
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store_max(&self, i: usize, value: u16) -> Option<u16> {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit register capacity",
            self.width
        );
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        let slot = &self.words[word];
        // ORDERING: relaxed-ok — optimistic first read; the CAS below revalidates
        // it, so a stale value costs one retry, never correctness.
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let old = ((current >> off) & mask) as u16;
            if u64::from(value) <= u64::from(old) {
                return None;
            }
            let updated = (current & !(mask << off)) | (u64::from(value) << off);
            // ORDERING: relaxed-ok (Relaxed/Relaxed) — the CAS retry loop carries no
            // payload; the per-word RMW total order alone guarantees one
            // winner per growth, and failure just reloads and retries.
            match slot.compare_exchange_weak(current, updated, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(old),
                Err(actual) => current = actual,
            }
        }
    }

    /// `Σ 2^{-R[i]}` over all registers (quiescent-state scan).
    #[must_use]
    pub fn sum_pow2_neg(&self) -> f64 {
        (0..self.len)
            .map(|i| f64::from_bits((1023u64.saturating_sub(u64::from(self.load(i)))) << 52))
            .sum()
    }

    /// Rebuilds an atomic array from a sequential [`crate::PackedArray`]
    /// snapshot — the restore half of [`AtomicPackedArray::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot's width is outside `1..=16` (impossible for
    /// a validated [`crate::PackedArray`]).
    #[must_use]
    pub fn from_packed(regs: &crate::PackedArray) -> Self {
        let arr = Self::new(regs.len(), regs.width());
        for (i, v) in regs.iter().enumerate() {
            if v > 0 {
                arr.store_max(i, v);
            }
        }
        arr
    }

    /// Element-wise max of another array into this one (concurrent HLL
    /// union). Safe to run while writers are active on either side.
    ///
    /// # Panics
    /// Panics if geometry differs.
    pub fn merge_max(&self, other: &Self) {
        assert_eq!(self.len, other.len, "merge requires equal lengths");
        assert_eq!(self.width, other.width, "merge requires equal widths");
        for i in 0..self.len {
            let v = other.load(i);
            if v > 0 {
                self.store_max(i, v);
            }
        }
    }

    /// Snapshot into a sequential [`crate::PackedArray`].
    #[must_use]
    pub fn snapshot(&self) -> crate::PackedArray {
        let mut p = crate::PackedArray::new(self.len, self.width);
        for i in 0..self.len {
            let v = self.load(i);
            if v > 0 {
                p.store(i, v);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_match_packed() {
        let a = AtomicPackedArray::new(300, 5);
        let mut p = crate::PackedArray::new(300, 5);
        let mut g = hashkit_free_rng(42);
        for _ in 0..2000 {
            let i = (next(&mut g) % 300) as usize;
            let v = (next(&mut g) % 32) as u16;
            assert_eq!(a.store_max(i, v), p.store_max(i, v), "cell {i} value {v}");
        }
        for i in 0..300 {
            assert_eq!(a.load(i), p.load(i));
        }
        assert_eq!(a.snapshot(), p);
    }

    // Tiny local RNG to avoid a dev-dependency cycle on hashkit.
    fn hashkit_free_rng(seed: u64) -> u64 {
        seed
    }
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn concurrent_max_updates_converge() {
        let arr = Arc::new(AtomicPackedArray::new(1024, 5));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let arr = Arc::clone(&arr);
                s.spawn(move || {
                    let mut st = t;
                    for _ in 0..20_000 {
                        let i = (next(&mut st) % 1024) as usize;
                        let v = (next(&mut st) % 32) as u16;
                        arr.store_max(i, v);
                    }
                });
            }
        });
        // Re-applying the same updates sequentially must change nothing:
        // every register already holds the max.
        let snap = arr.snapshot();
        for t in 0..8u64 {
            let mut st = t;
            for _ in 0..20_000 {
                let i = (next(&mut st) % 1024) as usize;
                let v = (next(&mut st) % 32) as u16;
                assert!(snap.load(i) >= v, "register {i} below max");
            }
        }
    }

    #[test]
    fn exactly_one_winner_per_growth() {
        // All threads race to set the same register to the same value:
        // exactly one Some() in total.
        let arr = Arc::new(AtomicPackedArray::new(4, 6));
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let arr = Arc::clone(&arr);
                    s.spawn(move || usize::from(arr.store_max(2, 40).is_some()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .sum()
        });
        assert_eq!(winners, 1);
        assert_eq!(arr.load(2), 40);
    }

    #[test]
    fn no_straddling_no_neighbor_corruption() {
        let arr = AtomicPackedArray::new(100, 5);
        // 12 cells per 64-bit word with 4 spare bits; hammer neighbors.
        arr.store_max(11, 31);
        arr.store_max(12, 17);
        arr.store_max(13, 1);
        assert_eq!(arr.load(11), 31);
        assert_eq!(arr.load(12), 17);
        assert_eq!(arr.load(13), 1);
        assert_eq!(arr.load(10), 0);
    }

    #[test]
    fn sum_pow2_neg_matches_snapshot() {
        let arr = AtomicPackedArray::new(64, 5);
        for i in 0..64 {
            arr.store_max(i, (i % 32) as u16);
        }
        let direct = arr.sum_pow2_neg();
        let via_snapshot = arr.snapshot().sum_pow2_neg();
        assert!((direct - via_snapshot).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let arr = AtomicPackedArray::new(8, 5);
        arr.store_max(8, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflow_value_panics() {
        let arr = AtomicPackedArray::new(8, 5);
        arr.store_max(0, 32);
    }
}

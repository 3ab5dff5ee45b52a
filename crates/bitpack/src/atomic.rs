//! Lock-free bit array. No estimator uses it since the sharded sketch
//! owns scalar engines; the benchmark still times it as a layer.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A fixed-length bit array whose bits can be set concurrently from many
/// threads without locks.
///
/// The zero count is maintained with a relaxed atomic counter, decremented
/// only by the thread that actually flips a bit (the `fetch_or` winner), so
/// it is exact once all writers quiesce. During concurrent operation a reader
/// may observe a count that lags individual flips by a few updates (at
/// most `k` for `k` in-flight updates).
#[derive(Debug)]
pub struct AtomicBitArray {
    words: Vec<AtomicU64>,
    len: usize,
    zeros: AtomicUsize,
}

impl AtomicBitArray {
    /// Creates an all-zero atomic bit array of `len` bits.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit array must be non-empty");
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        Self {
            words,
            len,
            zeros: AtomicUsize::new(len),
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current zero-bit count. Exact when no writes are in flight.
    #[must_use]
    pub fn zeros(&self) -> usize {
        // ORDERING: relaxed-ok — advisory monotone counter; callers that need
        // an exact value read at quiescence, where thread-join already
        // provides the happens-before edge.
        self.zeros.load(Ordering::Relaxed)
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — a set bit carries no payload to synchronize
        // with: observing it early or late only shifts *when* an estimate
        // updates, never its correctness (monotone 0→1 writes).
        (self.words[i >> 6].load(Ordering::Relaxed) >> (i & 63)) & 1 == 1
    }

    /// Atomically sets bit `i`, returning `true` iff this call flipped it.
    /// Exactly one concurrent caller wins for each bit.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i & 63);
        // ORDERING: relaxed-ok — the per-word RMW total order alone picks a
        // unique winner for each bit; no other memory is published, so no
        // release edge is needed.
        let prev = self.words[i >> 6].fetch_or(mask, Ordering::Relaxed);
        let fresh = prev & mask == 0;
        if fresh {
            // ORDERING: relaxed-ok — counter decrement rides the same RMW
            // total order; readers treat it as advisory (see zeros()).
            self.zeros.fetch_sub(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Load-only warm-up of the word holding bit `i` (relaxed), returned so
    /// the caller can fold many warms into one accumulator and force the
    /// batch with a single `std::hint::black_box` — the concurrent batch
    /// ingest path's software prefetch (the crate forbids `unsafe`, so no
    /// prefetch intrinsic).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[i >> 6].load(Ordering::Relaxed)
    }

    /// Recomputes the zero count by popcount scan (quiescent state only).
    #[must_use]
    pub fn recount_zeros(&self) -> usize {
        let ones: u32 = self
            .words
            .iter()
            // ORDERING: relaxed-ok — documented quiescent-only API; the caller's
            // thread join supplies the happens-before edge for exactness.
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum();
        self.len - ones as usize
    }

    /// Rebuilds an atomic array from a sequential [`crate::BitArray`]
    /// snapshot — the restore half of [`AtomicBitArray::snapshot`].
    #[must_use]
    pub fn from_bits(bits: &crate::BitArray) -> Self {
        let arr = Self::new(bits.len());
        for i in bits.iter_ones() {
            arr.set(i);
        }
        arr
    }

    /// Bitwise OR of another array into this one (concurrent sketch
    /// union). Safe to run while writers are active on either side; the
    /// zero count is exact once all writers (including this merge)
    /// quiesce.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        let mut flipped = 0usize;
        for (a, b) in self.words.iter().zip(&other.words) {
            // ORDERING: relaxed-ok — monotone bits carry no payload; the
            // fetch_or RMW total order alone decides which bits this call
            // freshly sets (see set()).
            let bits = b.load(Ordering::Relaxed);
            if bits != 0 {
                let prev = a.fetch_or(bits, Ordering::Relaxed);
                flipped += (bits & !prev).count_ones() as usize;
            }
        }
        if flipped > 0 {
            // ORDERING: relaxed-ok — advisory counter, same as set().
            self.zeros.fetch_sub(flipped, Ordering::Relaxed);
        }
    }

    /// Converts into a sequential [`crate::BitArray`] snapshot.
    #[must_use]
    pub fn snapshot(&self) -> crate::BitArray {
        let mut b = crate::BitArray::new(self.len);
        for (wi, w) in self.words.iter().enumerate() {
            // ORDERING: relaxed-ok — snapshot of monotone bits; taken at
            // quiescence for exactness, and any interleaved view is still a
            // valid (slightly stale) sketch state.
            let mut bits = w.load(Ordering::Relaxed);
            while bits != 0 {
                let b_off = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = (wi << 6) + b_off;
                if idx < self.len {
                    b.set(idx);
                }
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_match_bitarray() {
        let a = AtomicBitArray::new(300);
        let mut b = crate::BitArray::new(300);
        for i in (0..300).step_by(7) {
            assert_eq!(a.set(i), b.set(i));
        }
        assert_eq!(a.zeros(), b.zeros());
        assert_eq!(a.recount_zeros(), b.recount_zeros());
    }

    #[test]
    fn exactly_one_winner_per_bit() {
        let arr = Arc::new(AtomicBitArray::new(4096));
        let threads = 8;
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let arr = Arc::clone(&arr);
                    s.spawn(move || (0..4096).filter(|&i| arr.set(i)).count())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .sum()
        });
        assert_eq!(wins, 4096, "each bit must be flipped exactly once overall");
        assert_eq!(arr.zeros(), 0);
        assert_eq!(arr.recount_zeros(), 0);
    }

    #[test]
    fn snapshot_round_trip() {
        let a = AtomicBitArray::new(130);
        for i in [0usize, 63, 64, 65, 129] {
            a.set(i);
        }
        let snap = a.snapshot();
        assert_eq!(snap.ones(), 5);
        for i in [0usize, 63, 64, 65, 129] {
            assert!(snap.get(i));
        }
        assert_eq!(snap.zeros(), a.zeros());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let a = AtomicBitArray::new(8);
        a.set(8);
    }
}

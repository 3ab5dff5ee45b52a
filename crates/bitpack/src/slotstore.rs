//! The storage seam between the paper's two estimators.
//!
//! FreeBS (§IV-A) and FreeRS (§IV-B) run the *same* pipeline — hash the
//! edge to a slot of one shared array, attempt a monotone update, and on
//! success credit the user `1/q(t)` — and differ only in what a slot
//! stores: a **bit** (update = set, `q` = zero fraction) or a **rank
//! register** (update = max, `q = Σ 2^{-R[j]} / M`). [`SlotStore`]
//! captures that seam, so the estimator core in `freesketch` is written
//! once and instantiated for both stores. [`ConcurrentSlotStore`] is the
//! `&self` twin for the atomic arrays, which no estimator uses any more
//! (they are kept for the benchmark's layer timings):
//!
//! | store | slot holds | update | exclusive | concurrent |
//! |-------|-----------|--------|-----------|------------|
//! | [`BitArray`]          | 1 bit        | set | ✓ | |
//! | [`PackedArray`]       | w-bit register | max | ✓ | |
//! | [`AtomicBitArray`]    | 1 bit        | `fetch_or` | | ✓ |
//! | [`AtomicPackedArray`] | w-bit register | CAS max | | ✓ |
//!
//! The value handed to an update is a saturated geometric rank for
//! register stores and ignored by bit stores ([`SlotStore::RANKED`] tells
//! the engine whether deriving one is worth the mixer call). Deriving the
//! rank stays the caller's job so this crate keeps zero hashing
//! dependencies.

use crate::{AtomicBitArray, AtomicPackedArray, BitArray, PackedArray};

/// Uniform slot-level access to a shared sketch array, for estimators that
/// own their storage exclusively (`&mut self` updates).
///
/// The contract every implementation upholds:
///
/// * updates are **monotone** — a slot only ever grows (bit: 0→1,
///   register: max), so replaying an edge can never change the array;
/// * [`SlotStore::try_update`] returns `Some(previous)` **iff** the slot
///   changed — the paper's indicator `1(array changed)` that gates the
///   Horvitz–Thompson credit;
/// * [`SlotStore::zero_slots`] is exact at all times (bit stores maintain
///   it incrementally; register stores may scan).
pub trait SlotStore {
    /// True when updates carry a geometric rank (register stores). Bit
    /// stores ignore the update value entirely, so callers can skip the
    /// rank derivation.
    const RANKED: bool;

    /// Number of slots — the paper's `M`.
    fn len(&self) -> usize;

    /// Never true: every store rejects zero-length construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Bits per slot — the paper's `w` (1 for bit stores).
    fn width(&self) -> u8;

    /// Current value of slot `i` (0 or 1 for bit stores).
    fn load(&self, i: usize) -> u16;

    /// Load-only warm-up of the word holding slot `i` (the crate's software
    /// prefetch — see [`BitArray::warm`]).
    fn warm(&self, i: usize) -> u64;

    /// Monotone update: bit stores set slot `i`, register stores take
    /// `max(R[i], value)`. Returns the previous value iff the slot changed.
    fn try_update(&mut self, i: usize, value: u16) -> Option<u16>;

    /// Block form of [`SlotStore::try_update`]: applies every
    /// `(slots[i], values[i])` update in order, recording in `grew[i]`
    /// whether slot `slots[i]` changed and, where it did, its previous
    /// value in `old[i]` (`old` entries for unchanged slots are
    /// unspecified; bit stores never write `old` — the previous value of a
    /// freshly set bit is always 0).
    ///
    /// # Panics
    /// Panics if the buffer lengths disagree or any slot is out of range.
    fn update_many(&mut self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]);

    /// Number of slots still at zero (the paper's `m₀` for bit stores).
    /// O(1) for bit stores, O(M) scan for register stores.
    fn zero_slots(&self) -> usize;

    /// `Σ_j 2^{-R[j]}` over all slots — FreeRS's `Z`. For a bit store this
    /// is `m₀ + (M − m₀)/2`, which the estimators never use.
    fn sum_pow2_neg(&self) -> f64;

    /// Bits of sketch memory, matching the paper's accounting (`M` for bit
    /// stores, `w·M` for register stores).
    fn memory_bits(&self) -> usize;

    /// Slot-wise union of `other` into `self` (bit: OR, register: max) —
    /// the array half of sketch merge. Both stores must share geometry;
    /// callers (engine merge) check configs first and surface a typed
    /// error, so the panic here is defense in depth.
    ///
    /// # Panics
    /// Panics if geometry (length or width) differs.
    fn merge_from(&mut self, other: &Self);

    /// Checks the structural invariants a freshly deserialized store must
    /// satisfy (word counts, stray bits, maintained counters). See
    /// [`BitArray::validate`]/[`PackedArray::validate`].
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;
}

/// [`SlotStore`]'s lock-free counterpart: shared (`&self`) monotone updates
/// from many threads, with the same change-indicator contract. Exactly one
/// concurrent updater wins any given slot change.
pub trait ConcurrentSlotStore: Send + Sync {
    /// See [`SlotStore::RANKED`].
    const RANKED: bool;

    /// Number of slots.
    fn len(&self) -> usize;

    /// Never true: every store rejects zero-length construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Bits per slot (1 for bit stores).
    fn width(&self) -> u8;

    /// Current value of slot `i` (relaxed load).
    fn load(&self, i: usize) -> u16;

    /// Load-only warm-up of the word holding slot `i`.
    fn warm(&self, i: usize) -> u64;

    /// Monotone shared update; `Some(previous)` iff **this call** changed
    /// the slot (exactly one winner under contention).
    fn try_update(&self, i: usize, value: u16) -> Option<u16>;

    /// Block form of [`ConcurrentSlotStore::try_update`]: applies every
    /// `(slots[i], values[i])` update in order, recording in `grew[i]`
    /// whether **this call** changed slot `slots[i]` and, where it did, its
    /// previous value in `old[i]` (`old` entries for unchanged slots are
    /// unspecified; bit stores never write `old`).
    ///
    /// It is the per-edge loop, provided once for every concurrent store:
    /// the concurrent engine's write pass hands it one ingest block at a
    /// time.
    ///
    /// # Panics
    /// Panics if the buffer lengths disagree or any slot is out of range.
    fn update_block(&self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]) {
        assert!(
            slots.len() == values.len() && slots.len() == grew.len() && slots.len() == old.len(),
            "batch buffer length mismatch"
        );
        for i in 0..slots.len() {
            match self.try_update(slots[i], values[i]) {
                Some(prev) => {
                    grew[i] = true;
                    old[i] = prev;
                }
                None => grew[i] = false,
            }
        }
    }

    /// Zero-slot count. Exact once writers quiesce; may lag in-flight
    /// updates by their count (bit stores), or scan (register stores).
    fn zero_slots(&self) -> usize;

    /// Zero-slot count recomputed by a full scan of the slot contents
    /// (quiescent state only) — the ground truth [`Self::zero_slots`]'s
    /// maintained counter is checked against.
    fn recount_zero_slots(&self) -> usize;

    /// `Σ_j 2^{-R[j]}` (quiescent-state scan).
    fn sum_pow2_neg(&self) -> f64;

    /// Bits of sketch memory.
    fn memory_bits(&self) -> usize;
}

/// The persistence seam for concurrent stores: a concurrent store freezes
/// into its sequential twin (which carries the serde impls and the
/// validated deserialization path) and thaws back. Snapshots of the
/// concurrent engines round-trip through `Frozen`, so one on-disk layout
/// serves both engine families.
pub trait FreezeStore: ConcurrentSlotStore + Sized {
    /// The sequential twin ([`BitArray`] / [`PackedArray`]).
    type Frozen: SlotStore;

    /// Captures a sequential snapshot (quiescent state for exactness).
    fn freeze(&self) -> Self::Frozen;

    /// Rebuilds a concurrent store from a frozen snapshot.
    fn thaw(frozen: &Self::Frozen) -> Self;

    /// Slot-wise union of `other` into `self` (bit: OR, register: max),
    /// through shared references.
    ///
    /// # Panics
    /// Panics if geometry differs (callers check configs first).
    fn merge_from(&self, other: &Self);
}

impl SlotStore for BitArray {
    const RANKED: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        1
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        u16::from(self.get(i))
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&mut self, i: usize, _value: u16) -> Option<u16> {
        self.set(i).then_some(0)
    }

    #[inline]
    fn update_many(
        &mut self,
        slots: &[usize],
        _values: &[u16],
        grew: &mut [bool],
        _old: &mut [u16],
    ) {
        self.set_many(slots, grew);
    }

    #[inline]
    fn zero_slots(&self) -> usize {
        self.zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.zeros() as f64 + self.ones() as f64 * 0.5
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len()
    }

    fn merge_from(&mut self, other: &Self) {
        self.union_with(other);
    }

    fn validate(&self) -> Result<(), String> {
        self.validate()
    }
}

impl SlotStore for PackedArray {
    const RANKED: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        self.width()
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        self.load(i)
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&mut self, i: usize, value: u16) -> Option<u16> {
        self.store_max(i, value)
    }

    fn update_many(&mut self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]) {
        assert!(
            slots.len() == values.len() && slots.len() == grew.len() && slots.len() == old.len(),
            "batch buffer length mismatch"
        );
        for i in 0..slots.len() {
            let prev = self.store_max(slots[i], values[i]);
            grew[i] = prev.is_some();
            if let Some(p) = prev {
                old[i] = p;
            }
        }
    }

    fn zero_slots(&self) -> usize {
        self.count_zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.sum_pow2_neg()
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len() * usize::from(self.width())
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge_max(other);
    }

    fn validate(&self) -> Result<(), String> {
        self.validate()
    }
}

impl ConcurrentSlotStore for AtomicBitArray {
    const RANKED: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        1
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        u16::from(self.get(i))
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&self, i: usize, _value: u16) -> Option<u16> {
        self.set(i).then_some(0)
    }

    #[inline]
    fn zero_slots(&self) -> usize {
        self.zeros()
    }

    fn recount_zero_slots(&self) -> usize {
        self.recount_zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        let zeros = self.recount_zeros();
        zeros as f64 + (self.len() - zeros) as f64 * 0.5
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len()
    }
}

impl ConcurrentSlotStore for AtomicPackedArray {
    const RANKED: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        self.width()
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        self.load(i)
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&self, i: usize, value: u16) -> Option<u16> {
        self.store_max(i, value)
    }

    fn zero_slots(&self) -> usize {
        (0..self.len()).filter(|&i| self.load(i) == 0).count()
    }

    fn recount_zero_slots(&self) -> usize {
        ConcurrentSlotStore::zero_slots(self)
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.sum_pow2_neg()
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len() * usize::from(self.width())
    }
}

impl FreezeStore for AtomicBitArray {
    type Frozen = BitArray;

    fn freeze(&self) -> BitArray {
        self.snapshot()
    }

    fn thaw(frozen: &BitArray) -> Self {
        Self::from_bits(frozen)
    }

    fn merge_from(&self, other: &Self) {
        self.union_with(other);
    }
}

impl FreezeStore for AtomicPackedArray {
    type Frozen = PackedArray;

    fn freeze(&self) -> PackedArray {
        self.snapshot()
    }

    fn thaw(frozen: &PackedArray) -> Self {
        Self::from_packed(frozen)
    }

    fn merge_from(&self, other: &Self) {
        self.merge_max(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_scalar<S: SlotStore>(mut store: S, value: u16) {
        let m = SlotStore::len(&store);
        assert!(!SlotStore::is_empty(&store));
        assert_eq!(store.zero_slots(), m);
        // First update changes the slot, second is absorbed.
        assert_eq!(store.try_update(3, value), Some(0));
        assert_eq!(store.try_update(3, value), None);
        assert_eq!(
            SlotStore::load(&store, 3),
            if S::RANKED { value } else { 1 }
        );
        assert_eq!(store.zero_slots(), m - 1);
        let _ = SlotStore::warm(&store, 3);
        assert_eq!(
            SlotStore::load(&store, 3),
            if S::RANKED { value } else { 1 }
        );
    }

    #[test]
    fn bitarray_slotstore_semantics() {
        const { assert!(!BitArray::RANKED) };
        exercise_scalar(BitArray::new(64), 1);
        assert_eq!(SlotStore::width(&BitArray::new(8)), 1);
        assert_eq!(SlotStore::memory_bits(&BitArray::new(100)), 100);
    }

    #[test]
    fn packedarray_slotstore_semantics() {
        const { assert!(PackedArray::RANKED) };
        exercise_scalar(PackedArray::new(64, 5), 17);
        assert_eq!(SlotStore::memory_bits(&PackedArray::new(100, 5)), 500);
    }

    #[test]
    fn update_many_matches_scalar_updates() {
        let slots = [3usize, 9, 3, 60, 9];
        let values = [5u16, 2, 7, 1, 4];
        let mut batch = PackedArray::new(64, 5);
        let mut grew = [false; 5];
        let mut old = [0u16; 5];
        batch.update_many(&slots, &values, &mut grew, &mut old);

        let mut scalar = PackedArray::new(64, 5);
        for (i, (&s, &v)) in slots.iter().zip(&values).enumerate() {
            let prev = SlotStore::try_update(&mut scalar, s, v);
            assert_eq!(grew[i], prev.is_some(), "update {i}");
            if let Some(p) = prev {
                assert_eq!(old[i], p, "update {i}");
            }
        }
        assert_eq!(batch, scalar);

        let mut bits = BitArray::new(64);
        let mut grew = [false; 5];
        let mut old = [0u16; 5];
        SlotStore::update_many(&mut bits, &slots, &values, &mut grew, &mut old);
        assert_eq!(grew, [true, true, false, true, false]);
        assert_eq!(SlotStore::zero_slots(&bits), 61);
    }

    #[test]
    fn concurrent_stores_share_the_contract() {
        let bits = AtomicBitArray::new(64);
        assert_eq!(ConcurrentSlotStore::try_update(&bits, 5, 1), Some(0));
        assert_eq!(ConcurrentSlotStore::try_update(&bits, 5, 1), None);
        assert_eq!(ConcurrentSlotStore::zero_slots(&bits), 63);
        assert_eq!(ConcurrentSlotStore::memory_bits(&bits), 64);

        let regs = AtomicPackedArray::new(64, 5);
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 9), Some(0));
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 9), None);
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 11), Some(9));
        assert_eq!(ConcurrentSlotStore::zero_slots(&regs), 63);
        assert_eq!(ConcurrentSlotStore::memory_bits(&regs), 320);
    }

    #[test]
    fn freeze_thaw_round_trips() {
        let bits = AtomicBitArray::new(200);
        for i in [0usize, 63, 64, 150, 199] {
            bits.set(i);
        }
        let frozen = bits.freeze();
        let thawed = AtomicBitArray::thaw(&frozen);
        assert_eq!(thawed.snapshot(), frozen);
        assert_eq!(thawed.zeros(), bits.zeros());

        let regs = AtomicPackedArray::new(100, 5);
        for i in 0..100 {
            regs.store_max(i, (i % 31) as u16);
        }
        let frozen = regs.freeze();
        let thawed = AtomicPackedArray::thaw(&frozen);
        assert_eq!(thawed.snapshot(), frozen);
    }

    #[test]
    fn merge_from_is_union() {
        let mut a = BitArray::new(128);
        let mut b = BitArray::new(128);
        a.set(1);
        b.set(2);
        SlotStore::merge_from(&mut a, &b);
        assert!(a.get(1) && a.get(2));
        assert_eq!(a.zeros(), a.recount_zeros());

        let ca = AtomicBitArray::new(128);
        let cb = AtomicBitArray::new(128);
        ca.set(1);
        cb.set(2);
        cb.set(1);
        FreezeStore::merge_from(&ca, &cb);
        assert!(ca.get(1) && ca.get(2));
        assert_eq!(ca.zeros(), ca.recount_zeros());

        let ra = AtomicPackedArray::new(64, 5);
        let rb = AtomicPackedArray::new(64, 5);
        ra.store_max(3, 7);
        rb.store_max(3, 9);
        rb.store_max(10, 2);
        FreezeStore::merge_from(&ra, &rb);
        assert_eq!(ra.load(3), 9);
        assert_eq!(ra.load(10), 2);
    }

    #[test]
    fn validate_accepts_live_stores() {
        let mut b = BitArray::new(100);
        b.set(99);
        assert!(SlotStore::validate(&b).is_ok());
        let mut p = PackedArray::new(100, 5);
        p.store(99, 31);
        assert!(SlotStore::validate(&p).is_ok());
    }

    #[test]
    fn sum_pow2_neg_agrees_between_bit_and_register_views() {
        // A bit store's Σ 2^{-B[j]} closed form vs the register formula on
        // an equivalent 1-bit packed array.
        let mut bits = BitArray::new(32);
        let mut regs = PackedArray::new(32, 1);
        for i in [0usize, 7, 20] {
            SlotStore::try_update(&mut bits, i, 1);
            SlotStore::try_update(&mut regs, i, 1);
        }
        assert!((SlotStore::sum_pow2_neg(&bits) - SlotStore::sum_pow2_neg(&regs)).abs() < 1e-12);
    }
}

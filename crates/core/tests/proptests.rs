//! Property-based tests for the shared-array estimators.

use freesketch::{CardinalityEstimator, Cse, FreeBS, FreeRS, PerUserHllpp, PerUserLpc, VHll};
use proptest::prelude::*;

/// Random edge streams: user ids in a small range (to force sharing),
/// item ids arbitrary.
fn edges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..32, any::<u64>()), 0..600)
}

fn all_estimators(seed: u64) -> Vec<Box<dyn CardinalityEstimator>> {
    vec![
        Box::new(FreeBS::new(1 << 14, seed)),
        Box::new(FreeRS::new(1 << 11, seed)),
        Box::new(PerUserLpc::new(512, seed)),
        Box::new(PerUserHllpp::new(6, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying the exact same stream twice leaves every estimate
    /// unchanged for the HT estimators and the per-user baselines. (CSE and
    /// vHLL legitimately *refresh* their cached counters on replay — the
    /// global noise term moved while other users streamed — so for them the
    /// invariant is on the fresh O(m) estimate instead.)
    #[test]
    fn replay_changes_nothing(stream in edges(), seed: u64) {
        for mut est in all_estimators(seed) {
            for &(u, d) in &stream {
                est.process(u, d);
            }
            let before: Vec<f64> = (0..32).map(|u| est.estimate(u)).collect();
            for &(u, d) in &stream {
                est.process(u, d);
            }
            let after: Vec<f64> = (0..32).map(|u| est.estimate(u)).collect();
            prop_assert_eq!(&before, &after, "{} changed on replay", est.name());
        }
    }

    /// For the virtual-sketch baselines the replay invariant holds on the
    /// underlying shared state: re-streaming the same edges leaves the
    /// fresh O(m) estimates unchanged.
    #[test]
    fn replay_preserves_virtual_sketch_state(stream in edges(), seed: u64) {
        let mut cse = Cse::new(1 << 13, 128, seed);
        let mut vhll = VHll::new(1 << 10, 64, seed);
        for &(u, d) in &stream {
            cse.process(u, d);
            vhll.process(u, d);
        }
        let before: Vec<f64> = (0..32)
            .flat_map(|u| [cse.estimate_fresh(u), vhll.estimate_fresh(u)])
            .collect();
        for &(u, d) in &stream {
            cse.process(u, d);
            vhll.process(u, d);
        }
        let after: Vec<f64> = (0..32)
            .flat_map(|u| [cse.estimate_fresh(u), vhll.estimate_fresh(u)])
            .collect();
        prop_assert_eq!(before, after);
    }

    /// The batched ingest contract (`CardinalityEstimator::process_batch`):
    /// for every estimator, one `process_batch` call leaves the shared
    /// array *identical* to per-edge processing, and the per-user estimates
    /// agree within the documented block-granularity q drift — exactly for
    /// the estimators whose batch path introduces no q freezing (CSE, vHLL,
    /// per-user baselines via the default implementation), and within
    /// `INGEST_BLOCK / m₀` (FreeBS) resp. `INGEST_BLOCK / Z` (FreeRS),
    /// one-sided (batch never exceeds scalar), for the HT estimators.
    #[test]
    fn batch_matches_scalar_within_documented_drift(stream in edges(), seed: u64) {
        // FreeBS: identical bits, bounded one-sided estimate drift.
        let mut scalar = FreeBS::new(1 << 14, seed);
        let mut batch = FreeBS::new(1 << 14, seed);
        for &(u, d) in &stream {
            scalar.process(u, d);
        }
        batch.process_batch(&stream);
        prop_assert_eq!(scalar.bit_array(), batch.bit_array());
        let tol_b = freesketch::INGEST_BLOCK as f64 / batch.zeros().max(1) as f64;
        for u in 0..32u64 {
            let (s, b) = (scalar.estimate(u), batch.estimate(u));
            prop_assert!(b <= s + 1e-9, "FreeBS user {}: batch {} > scalar {}", u, b, s);
            prop_assert!(s - b <= s * tol_b + 1e-9, "FreeBS user {}: {} vs {}", u, s, b);
        }

        // FreeRS: identical registers, bounded one-sided estimate drift.
        let mut scalar = FreeRS::new(1 << 11, seed);
        let mut batch = FreeRS::new(1 << 11, seed);
        for &(u, d) in &stream {
            scalar.process(u, d);
        }
        batch.process_batch(&stream);
        prop_assert_eq!(scalar.registers(), batch.registers());
        let z = batch.q() * batch.capacity() as f64;
        let tol_r = freesketch::INGEST_BLOCK as f64 / z;
        for u in 0..32u64 {
            let (s, b) = (scalar.estimate(u), batch.estimate(u));
            prop_assert!(b <= s + 1e-9, "FreeRS user {}: batch {} > scalar {}", u, b, s);
            prop_assert!(s - b <= s * tol_r + 1e-9, "FreeRS user {}: {} vs {}", u, s, b);
        }

        // CSE / vHLL: run-grouped batch refresh is exactly the scalar final
        // state. Per-user baselines exercise the default per-edge loop.
        let mut pairs: Vec<(Box<dyn CardinalityEstimator>, Box<dyn CardinalityEstimator>)> = vec![
            (Box::new(Cse::new(1 << 13, 128, seed)), Box::new(Cse::new(1 << 13, 128, seed))),
            (Box::new(VHll::new(1 << 10, 64, seed)), Box::new(VHll::new(1 << 10, 64, seed))),
            (Box::new(PerUserLpc::new(256, seed)), Box::new(PerUserLpc::new(256, seed))),
            (Box::new(PerUserHllpp::new(6, seed)), Box::new(PerUserHllpp::new(6, seed))),
        ];
        for (scalar, batch) in &mut pairs {
            for &(u, d) in &stream {
                scalar.process(u, d);
            }
            batch.process_batch(&stream);
            for u in 0..32u64 {
                prop_assert_eq!(
                    scalar.estimate(u),
                    batch.estimate(u),
                    "{} user {}", scalar.name(), u
                );
            }
        }
    }

    /// Batched ingest is insensitive to how the stream is sliced: empty
    /// slices are no-ops and any chunking produces the same shared array.
    #[test]
    fn batch_chunking_is_equivalent(stream in edges(), seed: u64, chunk in 1usize..700) {
        let mut whole = FreeBS::new(1 << 13, seed);
        whole.process_batch(&stream);
        let mut sliced = FreeBS::new(1 << 13, seed);
        sliced.process_batch(&[]);
        for c in stream.chunks(chunk) {
            sliced.process_batch(c);
        }
        sliced.process_batch(&[]);
        prop_assert_eq!(whole.bit_array(), sliced.bit_array());
        prop_assert_eq!(whole.user_count(), sliced.user_count());
    }

    /// Single-edge batches are exactly single-edge processing for every
    /// estimator (block logic must not disturb the degenerate case).
    #[test]
    fn single_edge_batch_is_process(u in 0u64..32, d: u64, seed: u64) {
        for (mut a, mut b) in [
            (Box::new(FreeBS::new(1 << 12, seed)) as Box<dyn CardinalityEstimator>,
             Box::new(FreeBS::new(1 << 12, seed)) as Box<dyn CardinalityEstimator>),
            (Box::new(FreeRS::new(1 << 9, seed)) as _, Box::new(FreeRS::new(1 << 9, seed)) as _),
            (Box::new(Cse::new(1 << 12, 64, seed)) as _, Box::new(Cse::new(1 << 12, 64, seed)) as _),
            (Box::new(VHll::new(1 << 9, 32, seed)) as _, Box::new(VHll::new(1 << 9, 32, seed)) as _),
        ] {
            a.process(u, d);
            b.process_batch(&[(u, d)]);
            prop_assert_eq!(a.estimate(u), b.estimate(u), "{}", a.name());
            prop_assert_eq!(a.total_estimate(), b.total_estimate(), "{}", a.name());
        }
    }

    /// Users that never appeared estimate exactly zero; users that appeared
    /// estimate non-negatively.
    #[test]
    fn unseen_users_are_zero(stream in edges(), seed: u64) {
        for mut est in all_estimators(seed) {
            let mut seen = std::collections::HashSet::new();
            for &(u, d) in &stream {
                est.process(u, d);
                seen.insert(u);
            }
            for u in 0..40u64 {
                let e = est.estimate(u);
                if seen.contains(&u) {
                    prop_assert!(e >= 0.0, "{}: negative estimate {e}", est.name());
                } else {
                    prop_assert_eq!(e, 0.0, "{}: unseen user {} has estimate", est.name(), u);
                }
            }
        }
    }

    /// FreeBS/FreeRS per-user estimates sum exactly to the total estimate
    /// (both are Horvitz–Thompson sums over the same increments).
    #[test]
    fn ht_sums_are_consistent(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(1 << 13, seed);
        let mut frs = FreeRS::new(1 << 10, seed);
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
        }
        let mut sum_b = 0.0;
        fbs.for_each_estimate(&mut |_, e| sum_b += e);
        prop_assert!((sum_b - fbs.total_estimate()).abs() < 1e-6);
        let mut sum_r = 0.0;
        frs.for_each_estimate(&mut |_, e| sum_r += e);
        prop_assert!((sum_r - frs.total_estimate()).abs() < 1e-6);
    }

    /// FreeBS and FreeRS estimates are monotone non-decreasing over time
    /// for every user (increments are non-negative).
    #[test]
    fn estimates_monotone(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(1 << 12, seed);
        let mut frs = FreeRS::new(1 << 9, seed);
        let mut last_b = vec![0.0f64; 32];
        let mut last_r = vec![0.0f64; 32];
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
            let b = fbs.estimate(u);
            let r = frs.estimate(u);
            prop_assert!(b >= last_b[u as usize]);
            prop_assert!(r >= last_r[u as usize]);
            last_b[u as usize] = b;
            last_r[u as usize] = r;
        }
    }

    /// FreeRS's incremental Z never drifts measurably from the exact sum.
    #[test]
    fn freers_z_invariant(stream in edges(), seed: u64) {
        let mut frs = FreeRS::new(512, seed);
        for &(u, d) in &stream {
            frs.process(u, d);
        }
        let drift = frs.rebuild_z();
        prop_assert!(drift < 1e-9, "drift {drift}");
    }

    /// FreeBS's q equals the bit array's zero fraction, which equals
    /// 1 - (distinct slots hit)/M.
    #[test]
    fn freebs_q_matches_popcount(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(4096, seed);
        for &(u, d) in &stream {
            fbs.process(u, d);
        }
        let recount = fbs.bit_array().recount_zeros();
        prop_assert_eq!(fbs.zeros(), recount);
        prop_assert!((fbs.q() - recount as f64 / 4096.0).abs() < 1e-15);
    }

    /// Serde round-trip preserves FreeBS and FreeRS state exactly.
    #[test]
    fn serde_round_trip(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(2048, seed);
        let mut frs = FreeRS::new(512, seed);
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
        }
        let fbs2: FreeBS = serde_round(&fbs);
        let frs2: FreeRS = serde_round(&frs);
        for u in 0..32u64 {
            prop_assert_eq!(fbs.estimate(u), fbs2.estimate(u));
            prop_assert_eq!(frs.estimate(u), frs2.estimate(u));
        }
        prop_assert_eq!(fbs.q(), fbs2.q());
        prop_assert_eq!(frs.q(), frs2.q());
        // And the restored estimator keeps working identically.
        let mut a = fbs;
        let mut b = fbs2;
        for d in 0..50u64 {
            a.process(5, d ^ 0xF00D);
            b.process(5, d ^ 0xF00D);
        }
        prop_assert_eq!(a.estimate(5), b.estimate(5));
    }

    /// The storage-generic `SketchEngine` reproduces a straight-line
    /// transcription of Algorithm 1 (bit array, exact pre-update m₀, HT
    /// counters) **exactly** — same seed, same stream ⇒ identical
    /// estimates, bit for bit.
    #[test]
    fn engine_reproduces_algorithm1_reference(stream in edges(), seed: u64) {
        let m = 1 << 12;
        let mut engine = FreeBS::new(m, seed);
        let mut bits = bitpack::BitArray::new(m);
        let hasher = hashkit::EdgeHasher::new(seed);
        let mut reference = std::collections::HashMap::<u64, f64>::new();
        let mut total = 0.0;
        for &(u, d) in &stream {
            engine.process(u, d);
            let m0 = bits.zeros();
            if bits.set(hasher.slot(u, d, m)) {
                let inc = m as f64 / m0 as f64;
                *reference.entry(u).or_insert(0.0) += inc;
                total += inc;
            }
        }
        prop_assert_eq!(engine.bit_array(), &bits);
        prop_assert_eq!(engine.total_estimate(), total);
        for u in 0..32u64 {
            prop_assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {}", u
            );
        }
    }

    /// Same for Algorithm 2: register max-updates, incremental Z read on
    /// the pre-update state — the generic engine must be an exact
    /// reimplementation.
    #[test]
    fn engine_reproduces_algorithm2_reference(stream in edges(), seed: u64) {
        let m = 1 << 9;
        let width = FreeRS::DEFAULT_WIDTH;
        let mut engine = FreeRS::new(m, seed);
        let mut regs = bitpack::PackedArray::new(m, width);
        let hasher = hashkit::EdgeHasher::new(seed);
        let mut z = m as f64;
        let mut reference = std::collections::HashMap::<u64, f64>::new();
        let pow2_neg = |v: u16| f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52);
        for &(u, d) in &stream {
            engine.process(u, d);
            let h = hasher.hash_edge(u, d);
            let slot = hashkit::reduce64(h, m);
            let new = u16::from(hashkit::geometric_rank(hashkit::splitmix64(h)).saturated(width));
            if let Some(old) = regs.store_max(slot, new) {
                *reference.entry(u).or_insert(0.0) += m as f64 / z;
                z += pow2_neg(new) - pow2_neg(old);
            }
        }
        prop_assert_eq!(engine.registers(), &regs);
        for u in 0..32u64 {
            prop_assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {}", u
            );
        }
    }

    /// Sharded estimates decompose exactly: routing every edge by hand to
    /// P independent scalar engines (seeded `mix64(seed, p)`, `M/P` slots
    /// each) reproduces `ShardedSketch`'s per-user estimates and shard
    /// arrays bit for bit, and replaying the stream changes nothing
    /// (global dedup across shards). Through `process_batch` the arrays
    /// are the same too; only the block-frozen `q` moves the estimates.
    #[test]
    fn sharded_decomposes_and_deduplicates(stream in edges(), seed: u64, shards_sel in 0u32..3) {
        let p = 1usize << shards_sel; // 1, 2 or 4
        let sharded = freesketch::ShardedFreeBS::new(1 << 14, p, seed);
        let batched = freesketch::ShardedFreeBS::new(1 << 14, p, seed);
        let mut engines: Vec<FreeBS> = (0..p)
            .map(|i| FreeBS::new((1 << 14) / p, hashkit::mix64(seed, i as u64)))
            .collect();
        for &(u, d) in &stream {
            sharded.process(u, d);
            engines[sharded.route(u, d)].process(u, d);
        }
        batched.process_batch(&stream);
        for u in 0..32u64 {
            let by_hand: f64 = engines.iter().map(|e| e.estimate(u)).sum();
            prop_assert_eq!(sharded.estimate(u).to_bits(), by_hand.to_bits(), "user {}", u);
        }
        let before: Vec<f64> = (0..32).map(|u| sharded.estimate(u)).collect();
        // Per-shard HT sums compose: the total is the sum over shards,
        // which equals the sum over users.
        let mut sum = 0.0;
        sharded.for_each_estimate(&mut |_, e| sum += e);
        prop_assert!((sum - sharded.total_estimate()).abs() < 1e-6);
        // Replay: every edge routes to the same shard and the same slot.
        for &(u, d) in &stream {
            sharded.process(u, d);
        }
        let after: Vec<f64> = (0..32).map(|u| sharded.estimate(u)).collect();
        prop_assert_eq!(before, after, "sharded replay must be absorbed");
        for ((shard, batch), engine) in sharded
            .into_shards()
            .iter()
            .zip(batched.into_shards())
            .zip(&engines)
        {
            prop_assert_eq!(shard.bit_array(), engine.bit_array());
            prop_assert_eq!(batch.bit_array(), engine.bit_array());
        }
    }
}

/// Multi-thread sharded stress: 4 threads splitting one stream must land
/// within a small skew of the same sharded estimator fed sequentially —
/// the only nondeterminism is the order in which the threads' sub-batches
/// take each shard's lock, which moves the block-frozen `q` far below the
/// estimator's own noise.
#[test]
fn sharded_parallel_ingest_bounds_skew_vs_sequential() {
    let users = 16u64;
    let edges: Vec<(u64, u64)> = (0..120_000u64)
        .map(|i| (i % users, hashkit::splitmix64(i) >> 12))
        .collect();

    let sequential = freesketch::ShardedFreeBS::new(1 << 18, 4, 42);
    sequential.process_batch(&edges);

    let threads = 4;
    let parallel = std::sync::Arc::new(freesketch::ShardedFreeBS::new(1 << 18, 4, 42));
    let chunk = edges.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in edges.chunks(chunk) {
            let parallel = std::sync::Arc::clone(&parallel);
            s.spawn(move || parallel.process_batch(part));
        }
    });

    for u in 0..users {
        let (seq, par) = (sequential.estimate(u), parallel.estimate(u));
        let rel = (par / seq - 1.0).abs();
        assert!(
            rel < 0.02,
            "user {u}: parallel {par} vs sequential {seq} (skew {rel})"
        );
    }
    assert!(
        (parallel.total_estimate() / sequential.total_estimate() - 1.0).abs() < 0.01,
        "totals diverged: {} vs {}",
        parallel.total_estimate(),
        sequential.total_estimate()
    );
}

fn serde_round<T: serde::Serialize + serde::de::DeserializeOwned>(v: &T) -> T {
    let json = serde_json::to_string(v).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

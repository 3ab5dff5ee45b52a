//! Concurrent-extension integration: the sharded FreeBS of mutex-owned
//! engines must agree with the sequential reference on real workloads.

use freesketch::{CardinalityEstimator, FreeBS, ShardedFreeBS};
use graphstream::{GroundTruth, SynthConfig};
use std::sync::Arc;

#[test]
fn sequential_replay_is_bit_identical() {
    // One shard routes nothing: it is the scalar engine (seeded with the
    // first per-shard seed), for the per-edge and the batch calls alike.
    let stream = SynthConfig::tiny(21).generate();
    let pairs: Vec<(u64, u64)> = stream.edges().iter().map(|e| e.pair()).collect();
    let (head, tail) = pairs.split_at(pairs.len() / 3);
    let conc = ShardedFreeBS::new(1 << 18, 1, 4);
    let mut seq = FreeBS::new(1 << 18, hashkit::mix64(4, 0));
    for &(user, item) in head {
        conc.process(user, item);
        seq.process(user, item);
    }
    for slice in tail.chunks(1000) {
        conc.process_batch(slice);
        seq.process_batch(slice);
    }
    let snap = conc.merged_estimates();
    assert_eq!(snap.len(), seq.user_count());
    snap.for_each(&mut |user, est| {
        assert_eq!(est.to_bits(), seq.estimate(user).to_bits(), "user {user}");
    });
    assert_eq!(conc.total_estimate(), seq.total_estimate());
    assert_eq!(conc.q(), seq.q());
}

#[test]
fn parallel_processing_matches_truth_within_noise() {
    let stream = SynthConfig {
        users: 500,
        max_cardinality: 400,
        mean_cardinality: 20.0,
        duplication: 1.4,
        seed: 33,
    }
    .generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }

    let conc = Arc::new(ShardedFreeBS::new(1 << 19, 4, 6));
    let threads = 8;
    let chunk = stream.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in stream.edges().chunks(chunk) {
            let conc = Arc::clone(&conc);
            s.spawn(move || {
                for e in part {
                    conc.process(e.user, e.item);
                }
            });
        }
    });

    // Aggregate accuracy: total within 2%, per-user RMS relative error
    // small for the heavier half of users.
    let total = truth.total_cardinality() as f64;
    assert!(
        (conc.total_estimate() / total - 1.0).abs() < 0.02,
        "total {} vs {total}",
        conc.total_estimate()
    );
    let mut sq = 0.0;
    let mut k = 0usize;
    for (user, actual) in truth.iter() {
        if actual >= 20 {
            let rel = conc.estimate(user) / actual as f64 - 1.0;
            sq += rel * rel;
            k += 1;
        }
    }
    let rms = (sq / k as f64).sqrt();
    assert!(rms < 0.25, "per-user RMS relative error {rms}");
}

#[test]
fn contended_duplicates_stay_deduplicated() {
    // All threads process the SAME edges; dedup must hold under contention.
    let stream = SynthConfig::tiny(55).generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }
    let conc = Arc::new(ShardedFreeBS::new(1 << 19, 4, 8));
    let pairs: Vec<(u64, u64)> = stream.edges().iter().map(|e| e.pair()).collect();
    std::thread::scope(|s| {
        for t in 0..4 {
            let conc = Arc::clone(&conc);
            let pairs = &pairs;
            s.spawn(move || {
                if t % 2 == 0 {
                    conc.process_batch(pairs);
                } else {
                    for &(user, item) in pairs {
                        conc.process(user, item);
                    }
                }
            });
        }
    });
    let total = truth.total_cardinality() as f64;
    assert!(
        (conc.total_estimate() / total - 1.0).abs() < 0.05,
        "4x-duplicated stream inflated the total: {} vs {total}",
        conc.total_estimate()
    );
}

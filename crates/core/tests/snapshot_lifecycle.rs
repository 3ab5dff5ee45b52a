//! Lifecycle properties of checksummed snapshots: fault injection
//! (truncation, bit flips, torn writes) must always surface as typed
//! errors, checkpoint→restore must resume bit-identically, and merging
//! split shards must be statistically equivalent to one engine ingesting
//! the whole stream.

use freesketch::snapshot::{load_snapshot, load_with_fallback, save_snapshot};
use freesketch::{stream_into, AnySketch, CardinalityEstimator, FreeBS, FreeRS, ShardedFreeBS};
use graphstream::{Edge, Fault, FaultReader, FaultWriter, SliceSource};
use proptest::prelude::*;

const USERS: u64 = 16;

fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..USERS, any::<u64>()), 500..2000)
}

fn snapshot_bytes(sketch: &AnySketch, offset: u64) -> Vec<u8> {
    let mut out = Vec::new();
    save_snapshot(&mut out, sketch, offset).expect("in-memory snapshot write");
    out
}

fn built_sketch(edges: &[(u64, u64)], seed: u64) -> AnySketch {
    let mut sketch = AnySketch::FreeRS(FreeRS::new(1 << 10, seed));
    sketch.process_batch(edges);
    sketch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating a snapshot at ANY byte offset is detected as a typed
    /// error — never a panic, never a silently short sketch.
    #[test]
    fn truncation_at_any_offset_is_detected(edges in stream(), seed: u64, cut_sel: u64) {
        let bytes = snapshot_bytes(&built_sketch(&edges, seed), edges.len() as u64);
        let cut = cut_sel % bytes.len() as u64;
        let mut r = FaultReader::new(bytes.as_slice(), Fault::TruncateAt(cut));
        let err = load_snapshot(&mut r).expect_err("truncated snapshot must not load");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Flipping ANY single bit of a snapshot is detected as a typed error:
    /// every byte — magic, version, section headers, payloads — is covered
    /// by the header checks or a section CRC.
    #[test]
    fn single_bit_flip_anywhere_is_detected(edges in stream(), seed: u64, sel: u64) {
        let bytes = snapshot_bytes(&built_sketch(&edges, seed), edges.len() as u64);
        let offset = sel % bytes.len() as u64;
        let bit = (sel >> 32) as u8 % 8;
        let mut r = FaultReader::new(bytes.as_slice(), Fault::FlipBit { offset, bit });
        let err = load_snapshot(&mut r).expect_err("bit-flipped snapshot must not load");
        prop_assert!(!err.to_string().is_empty());
    }

    /// A torn write (the process died before all bytes reached disk) is
    /// detected on load, whatever the cutoff.
    #[test]
    fn torn_writes_are_detected(edges in stream(), seed: u64, cut_sel: u64) {
        let sketch = built_sketch(&edges, seed);
        let full = snapshot_bytes(&sketch, edges.len() as u64);
        let cutoff = cut_sel % full.len() as u64;
        let mut w = FaultWriter::new(Vec::new(), cutoff);
        save_snapshot(&mut w, &sketch, edges.len() as u64).expect("writer reports success");
        prop_assert_eq!(w.attempted(), full.len() as u64);
        let torn = w.into_inner();
        prop_assert_eq!(torn.len() as u64, cutoff);
        let err = load_snapshot(&mut torn.as_slice()).expect_err("torn snapshot must not load");
        prop_assert!(!err.to_string().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint → restore mid-stream resumes bit-identically to the
    /// uninterrupted run, for the scalar per-edge path and for
    /// block-aligned batch sizes (cut points fall on chunk boundaries,
    /// which are block boundaries too, so the restored run reproduces the
    /// exact same block partitioning and q trajectory).
    #[test]
    fn restore_resumes_bit_identically(
        edges in stream(),
        seed: u64,
        batch_sel in 0usize..3,
        chunks_before in 1usize..4,
    ) {
        let batch = [0usize, 512, 1024][batch_sel];
        let chunk = 512 * chunks_before; // multiple of every batch above
        let cut = chunk.min(edges.len());
        let trace: Vec<Edge> = edges.iter().map(|&(u, d)| Edge::new(u, d)).collect();

        for sketch in [
            AnySketch::FreeBS(FreeBS::new(1 << 14, seed)),
            AnySketch::FreeRS(FreeRS::new(1 << 11, seed)),
        ] {
            let kind = sketch.kind();
            let mut whole = sketch;
            let mut src = SliceSource::new(&trace);
            stream_into(&mut whole, &mut src, chunk, batch).expect("clean source");

            // Interrupted twin: ingest `cut` edges, snapshot, restore into
            // a brand-new sketch, resume from the recorded offset.
            let mut first = match whole {
                AnySketch::FreeBS(_) => AnySketch::FreeBS(FreeBS::new(1 << 14, seed)),
                _ => AnySketch::FreeRS(FreeRS::new(1 << 11, seed)),
            };
            let mut src = SliceSource::new(&trace[..cut]);
            stream_into(&mut first, &mut src, chunk, batch).expect("clean source");
            let bytes = snapshot_bytes(&first, cut as u64);
            let (mut resumed, offset) =
                load_snapshot(&mut bytes.as_slice()).expect("snapshot loads");
            prop_assert_eq!(offset, cut as u64);
            let mut src = SliceSource::new(&trace[offset as usize..]);
            stream_into(&mut resumed, &mut src, chunk, batch).expect("clean source");

            for u in 0..USERS {
                prop_assert_eq!(
                    resumed.estimate(u),
                    whole.estimate(u),
                    "{} user {} diverged (batch {}, cut {})",
                    kind, u, batch, cut
                );
            }
            prop_assert_eq!(resumed.total_estimate(), whole.total_estimate());
        }
    }

    /// Splitting a stream into N disjoint partitions, ingesting each into
    /// its own engine (same seed/geometry), and merging is statistically
    /// equivalent to one engine ingesting everything: the shared arrays
    /// are IDENTICAL (same updates, dedup is order-free) and the estimate
    /// totals agree within 2%.
    #[test]
    fn split_ingest_merge_matches_single_engine(edges in stream(), seed: u64, parts_sel in 1usize..3) {
        let parts = 1 << parts_sel; // 2 or 4
        let mut single = FreeBS::new(1 << 16, seed);
        for &(u, d) in &edges {
            single.process(u, d);
        }
        let mut shards: Vec<FreeBS> = (0..parts).map(|_| FreeBS::new(1 << 16, seed)).collect();
        for (i, &(u, d)) in edges.iter().enumerate() {
            shards[i % parts].process(u, d);
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.merge(shard).expect("identical configs");
        }
        prop_assert_eq!(merged.store(), single.store(), "arrays must be identical");
        let (m, s) = (merged.total_estimate(), single.total_estimate());
        prop_assert!(
            (m / s - 1.0).abs() < 0.02,
            "total skew {} vs {} exceeds 2%", m, s
        );
        for u in 0..USERS {
            let (a, b) = (merged.estimate(u), single.estimate(u));
            prop_assert!(
                (a - b).abs() <= b * 0.05 + 1.0,
                "user {}: merged {} vs single {}", u, a, b
            );
        }
    }

    /// Same equivalence for register sharing, driven through the
    /// type-erased AnySketch merge.
    #[test]
    fn split_ingest_merge_freers_any(edges in stream(), seed: u64) {
        let mut single = AnySketch::FreeRS(FreeRS::new(1 << 13, seed));
        single.process_batch(&edges);
        let mut left = AnySketch::FreeRS(FreeRS::new(1 << 13, seed));
        let mut right = AnySketch::FreeRS(FreeRS::new(1 << 13, seed));
        let (l, r): (Vec<_>, Vec<_>) = edges
            .iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        left.process_batch(&l.into_iter().map(|(_, e)| *e).collect::<Vec<_>>());
        right.process_batch(&r.into_iter().map(|(_, e)| *e).collect::<Vec<_>>());
        left.merge(&right).expect("identical configs");
        let (m, s) = (left.total_estimate(), single.total_estimate());
        prop_assert!(
            (m / s - 1.0).abs() < 0.02,
            "total skew {} vs {} exceeds 2%", m, s
        );
    }
}

/// Sharded snapshots written before shards became owned scalar engines
/// (`tests/fixtures/legacy-sharded`, see its README) still load: every
/// user's estimate is bit-identical to what the old code loaded, the
/// sampling probability agrees to 1e-12, and the sketch keeps ingesting.
#[test]
fn legacy_sharded_snapshots_load_bit_identically() {
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy-sharded");
    for (name, kind) in [
        ("freebs-t2", "sharded-freebs"),
        ("freers-t2", "sharded-freers"),
        ("serve-t1", "sharded-freers"),
    ] {
        let (mut sketch, offset, used_fallback) =
            load_with_fallback(&dir.join(format!("{name}.fsnp")))
                .expect("legacy snapshot loads")
                .expect("fixture exists");
        assert!(!used_fallback, "{name}");
        assert_eq!((sketch.kind(), offset), (kind, 20_000), "{name}");

        let expected = std::fs::read_to_string(dir.join(format!("{name}.estimates")))
            .expect("fixture estimates");
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
        let mut users = 0usize;
        for line in expected.lines().filter(|l| !l.starts_with('#')) {
            let (key, value) = line.split_once(' ').expect("two fields");
            if key == "sampling_q" {
                let (got, want) = (sketch.sampling_q(), f64::from_bits(hex(value)));
                assert!(
                    (got / want - 1.0).abs() < 1e-12,
                    "{name}: q {got} vs {want}"
                );
            } else {
                let (user, want) = (hex(key), hex(value));
                assert_eq!(
                    sketch.estimate(user).to_bits(),
                    want,
                    "{name}: user {user:x}"
                );
                users += 1;
            }
        }
        assert_eq!(sketch.user_count(), users, "{name}");

        // The restored sketch is a live one: new edges still count, and it
        // round-trips through the current snapshot format unchanged.
        let before = sketch.total_estimate();
        let fresh: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i % 7, u64::MAX - i)).collect();
        sketch.process_batch(&fresh);
        assert!(sketch.total_estimate() > before, "{name}");
        let bytes = snapshot_bytes(&sketch, offset + fresh.len() as u64);
        let (again, _) = load_snapshot(&mut bytes.as_slice()).expect("current format loads");
        assert_eq!(again.total_estimate(), sketch.total_estimate(), "{name}");
        assert_eq!(again.sampling_q(), sketch.sampling_q(), "{name}");
    }
}

/// Sharded sketches go through the same lifecycle: snapshot, restore,
/// merge of disjoint halves vs one sketch over everything.
#[test]
fn sharded_lifecycle_round_trip_and_merge() {
    let trace: Vec<(u64, u64)> = (0..30_000u64)
        .map(|i| (i % 32, hashkit::splitmix64(i) >> 16))
        .collect();
    let mut single = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 16, 4, 5));
    single.process_batch(&trace);

    let bytes = snapshot_bytes(&single, trace.len() as u64);
    let (restored, offset) = load_snapshot(&mut bytes.as_slice()).expect("round trip");
    assert_eq!(offset, trace.len() as u64);
    for u in 0..32u64 {
        assert_eq!(restored.estimate(u), single.estimate(u), "user {u}");
    }

    let mut left = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 16, 4, 5));
    let mut right = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 16, 4, 5));
    left.process_batch(&trace[..trace.len() / 2]);
    right.process_batch(&trace[trace.len() / 2..]);
    left.merge(&right).expect("identical configs");
    let (m, s) = (left.total_estimate(), single.total_estimate());
    assert!((m / s - 1.0).abs() < 0.02, "total skew {m} vs {s}");
    for u in 0..32u64 {
        let (a, b) = (left.estimate(u), single.estimate(u));
        assert!((a - b).abs() <= b * 0.05 + 1.0, "user {u}: {a} vs {b}");
    }
}

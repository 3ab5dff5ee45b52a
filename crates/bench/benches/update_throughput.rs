//! Criterion companion to Fig. 3: per-edge update cost of all six methods.
//!
//! Two groups:
//! * `update/o1` — the O(1) methods (FreeBS, FreeRS) at a fixed budget;
//! * `update/om` — the O(m) methods (CSE, vHLL, LPC, HLL++) swept over m,
//!   demonstrating the linear growth the paper reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use freesketch::{CardinalityEstimator, Cse, FreeBS, FreeRS, PerUserHllpp, PerUserLpc, VHll};
use graphstream::Edge;
use std::hint::black_box;

fn test_edges(n: usize) -> Vec<Edge> {
    // 64 users, heavy-tailed-ish item churn, deterministic.
    let mut g = hashkit::SplitMix64::new(0xBEEF);
    (0..n)
        .map(|_| {
            let u = g.next_below(64);
            let d = g.next_u64() >> 20;
            Edge::new(u, d)
        })
        .collect()
}

fn bench_o1(c: &mut Criterion) {
    let edges = test_edges(100_000);
    let mut group = c.benchmark_group("update/o1");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    group.bench_function("FreeBS", |b| {
        b.iter(|| {
            let mut est = FreeBS::new(1 << 22, 1);
            for e in &edges {
                est.process(black_box(e.user), black_box(e.item));
            }
            black_box(est.total_estimate())
        });
    });
    group.bench_function("FreeRS", |b| {
        b.iter(|| {
            let mut est = FreeRS::new((1 << 22) / 5, 1);
            for e in &edges {
                est.process(black_box(e.user), black_box(e.item));
            }
            black_box(est.total_estimate())
        });
    });
    group.finish();
}

/// Scalar per-edge loop vs the `process_batch` fast path, both driven
/// through the `dyn CardinalityEstimator` replay harness — the same call
/// shape real ingest uses. `exp_ingest` measures the same comparison on 10M
/// edges and records it in `BENCH_ingest.json`.
fn bench_batch(c: &mut Criterion) {
    let edges = test_edges(100_000);
    let pairs: Vec<(u64, u64)> = edges.iter().map(|e| (e.user, e.item)).collect();
    let mut group = c.benchmark_group("update/batch");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    group.bench_function("FreeBS/scalar", |b| {
        b.iter(|| {
            let mut est = FreeBS::new(1 << 22, 1);
            black_box(bench::run_stream(&mut est, black_box(&edges)))
        });
    });
    group.bench_function("FreeBS/batch", |b| {
        b.iter(|| {
            let mut est = FreeBS::new(1 << 22, 1);
            black_box(bench::run_stream_batched(&mut est, black_box(&pairs)))
        });
    });
    group.bench_function("FreeRS/scalar", |b| {
        b.iter(|| {
            let mut est = FreeRS::new((1 << 22) / 5, 1);
            black_box(bench::run_stream(&mut est, black_box(&edges)))
        });
    });
    group.bench_function("FreeRS/batch", |b| {
        b.iter(|| {
            let mut est = FreeRS::new((1 << 22) / 5, 1);
            black_box(bench::run_stream_batched(&mut est, black_box(&pairs)))
        });
    });
    group.finish();
}

fn bench_om(c: &mut Criterion) {
    let edges = test_edges(20_000);
    let mut group = c.benchmark_group("update/om");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    for m in [128usize, 512, 2048] {
        group.bench_with_input(BenchmarkId::new("CSE", m), &m, |b, &m| {
            b.iter(|| {
                let mut est = Cse::new(1 << 22, m, 1);
                for e in &edges {
                    est.process(e.user, e.item);
                }
                black_box(est.estimate(0))
            });
        });
        group.bench_with_input(BenchmarkId::new("vHLL", m), &m, |b, &m| {
            b.iter(|| {
                let mut est = VHll::new((1 << 22) / 5, m, 1);
                for e in &edges {
                    est.process(e.user, e.item);
                }
                black_box(est.estimate(0))
            });
        });
        group.bench_with_input(BenchmarkId::new("LPC", m), &m, |b, &m| {
            b.iter(|| {
                let mut est = PerUserLpc::new(m, 1);
                for e in &edges {
                    est.process(e.user, e.item);
                }
                black_box(est.estimate(0))
            });
        });
        let precision = ((usize::BITS - 1 - m.leading_zeros()) as u8).clamp(4, 14);
        group.bench_with_input(BenchmarkId::new("HLL++", m), &m, |b, _| {
            b.iter(|| {
                let mut est = PerUserHllpp::new(precision, 1);
                for e in &edges {
                    est.process(e.user, e.item);
                }
                black_box(est.estimate(0))
            });
        });
    }
    group.finish();
}

/// Thread-scaling of the sharded concurrent mode: aggregate ingest rate of
/// `ShardedFreeBS` (4 mutex-owned shards) at 1 and 2 threads. Each thread
/// replays a disjoint chunk of the stream through `ingest_batch`. The
/// interesting ratio is `sharded/2` vs `sharded/1` — on a multi-core host
/// it approaches 2×; `exp_ingest --threads N` measures the same thing
/// outside criterion and records it in `BENCH_scaling.json`.
fn bench_sharded_scaling(c: &mut Criterion) {
    use freesketch::{ConcurrentEstimator, ShardedFreeBS};
    let edges = test_edges(200_000);
    let pairs: Vec<(u64, u64)> = edges.iter().map(|e| (e.user, e.item)).collect();
    let mut group = c.benchmark_group("update/sharded");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    let run_threads = |est: &dyn ConcurrentEstimator, threads: usize| {
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|s| {
            for part in pairs.chunks(chunk) {
                s.spawn(move || est.ingest_batch(part));
            }
        });
        black_box(est.total_estimate())
    };

    for threads in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("ShardedFreeBS", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let est = ShardedFreeBS::new(1 << 22, 4, 1);
                    run_threads(&est, threads)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_o1,
    bench_batch,
    bench_om,
    bench_sharded_scaling
);
criterion_main!(benches);

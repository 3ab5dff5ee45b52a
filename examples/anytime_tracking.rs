//! The anytime property in action: follow one user's estimate through the
//! stream and watch it track the exact cardinality in real time — the
//! capability CSE/vHLL lack (their counters are only fresh for the user
//! that just arrived, and a full refresh costs O(m) per user).
//!
//! Also demonstrates the concurrent extension: the same stream processed
//! from four threads into one shared `ShardedFreeBS` (four mutex-owned
//! FreeBS shards) lands on the same answers.
//!
//! ```text
//! cargo run --release --example anytime_tracking
//! ```

use freesketch::{CardinalityEstimator, FreeBS, ShardedFreeBS};
use std::sync::Arc;

fn main() {
    let m_bits = 1 << 20;
    let mut est = FreeBS::new(m_bits, 9);

    println!("one user ramping up among background noise:\n");
    println!(
        "{:>10}  {:>10}  {:>10}  {:>7}",
        "time", "exact", "estimate", "error"
    );
    let mut exact = 0u64;
    for t in 0..200_000u64 {
        // The probe user adds a new item every 4th tick; three background
        // users churn alongside.
        if t % 4 == 0 {
            est.process(0, exact);
            exact += 1;
        }
        est.process(1 + t % 3, t.wrapping_mul(0x9E37_79B9));
        if t % 25_000 == 24_999 {
            let e = est.estimate(0);
            println!(
                "{:>10}  {:>10}  {:>10.1}  {:>6.2}%",
                t + 1,
                exact,
                e,
                (e / exact as f64 - 1.0) * 100.0
            );
        }
    }

    // Concurrent variant: four threads, one shared sketch, same semantics.
    println!("\nconcurrent: 4 threads × 25k items each into one sharded sketch");
    let conc = Arc::new(ShardedFreeBS::new(m_bits, 4, 9));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let conc = Arc::clone(&conc);
            s.spawn(move || {
                for d in 0..25_000u64 {
                    conc.process(100 + t, d);
                }
            });
        }
    });
    for t in 0..4u64 {
        println!(
            "  user {:>3}: {:>10.1} (exact 25000, {:+.2}%)",
            100 + t,
            conc.estimate(100 + t),
            (conc.estimate(100 + t) / 25_000.0 - 1.0) * 100.0
        );
    }
}

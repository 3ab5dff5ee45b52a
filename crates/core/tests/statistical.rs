//! Statistical verification of the paper's theorems against measured
//! moments over many independent seeds.
//!
//! These tests are the reproduction's strongest correctness evidence: they
//! check not just that estimates are "close", but that the *distribution*
//! of FreeBS/FreeRS estimates matches Theorems 1 and 2 — unbiased, with
//! variance at (or below) the stated bound.

use freesketch::theory;
use freesketch::{CardinalityEstimator, FreeBS, FreeRS};

/// Builds a two-user stream: the probe user with `n_probe` items plus a
/// background user with `n_bg` items, interleaved, and returns the probe
/// estimate.
fn run_freebs(m_bits: usize, n_probe: u64, n_bg: u64, seed: u64) -> f64 {
    let mut f = FreeBS::new(m_bits, seed);
    let steps = n_probe.max(n_bg);
    for i in 0..steps {
        if i < n_probe {
            f.process(1, i);
        }
        if i < n_bg {
            f.process(2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D);
        }
    }
    f.estimate(1)
}

fn run_freers(m_regs: usize, n_probe: u64, n_bg: u64, seed: u64) -> f64 {
    let mut f = FreeRS::new(m_regs, seed);
    let steps = n_probe.max(n_bg);
    for i in 0..steps {
        if i < n_probe {
            f.process(1, i);
        }
        if i < n_bg {
            f.process(2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D);
        }
    }
    f.estimate(1)
}

fn moments(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

#[test]
fn freebs_unbiased_and_variance_bounded() {
    // Theorem 1: E[n̂] = n, Var(n̂) ≤ n_s (E[1/q_B(t)] − 1).
    let m_bits = 4096usize;
    let n_probe = 600u64;
    let n_bg = 1400u64;
    let trials = 400;
    let samples: Vec<f64> = (0..trials)
        .map(|t| run_freebs(m_bits, n_probe, n_bg, 1000 + t))
        .collect();
    let (mean, var) = moments(&samples);

    let bound =
        theory::freebs_variance_bound(n_probe as f64, (n_probe + n_bg) as f64, m_bits as f64);
    // Unbiasedness: grand mean within 4 standard errors of the truth.
    let se = (var / trials as f64).sqrt();
    assert!(
        (mean - n_probe as f64).abs() < 4.0 * se + 1.0,
        "mean {mean} vs {n_probe} (se {se:.2})"
    );
    // Variance at or below the Theorem 1 bound, with sampling slack: the
    // χ²(399) spread allows ~±20% at 4σ.
    assert!(
        var < bound * 1.35,
        "measured var {var:.1} exceeds Theorem 1 bound {bound:.1}"
    );
    // And the bound is not vacuous: variance should be within an order of
    // magnitude of it for this geometry.
    assert!(
        var > bound * 0.1,
        "var {var:.1} suspiciously far below bound {bound:.1}"
    );
}

#[test]
fn freers_unbiased_and_variance_bounded() {
    // Theorem 2: E[n̂] = n, Var(n̂) ≤ n_s (E[1/q_R(t)] − 1).
    let m_regs = 1024usize;
    let n_probe = 1500u64;
    let n_bg = 2500u64;
    let trials = 400;
    let samples: Vec<f64> = (0..trials)
        .map(|t| run_freers(m_regs, n_probe, n_bg, 9000 + t))
        .collect();
    let (mean, var) = moments(&samples);

    let bound =
        theory::freers_variance_bound(n_probe as f64, (n_probe + n_bg) as f64, m_regs as f64);
    let se = (var / trials as f64).sqrt();
    assert!(
        (mean - n_probe as f64).abs() < 4.0 * se + 1.0,
        "mean {mean} vs {n_probe} (se {se:.2})"
    );
    assert!(
        var < bound * 1.35,
        "measured var {var:.1} exceeds Theorem 2 bound {bound:.1}"
    );
}

/// The probe user (1) with `n_probe` items and a background user (2) with
/// `n_bg` items, interleaved — the stream of the scalar checks above, as
/// one slice for the batch path.
fn two_user_stream(n_probe: u64, n_bg: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::with_capacity((n_probe + n_bg) as usize);
    for i in 0..n_probe.max(n_bg) {
        if i < n_probe {
            edges.push((1, i));
        }
        if i < n_bg {
            edges.push((2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D));
        }
    }
    edges
}

/// Runs `trial(t)` for `t` in `seeds`, split over two threads; each trial
/// is independent, so the samples do not depend on the split.
fn batch_trials(seeds: std::ops::Range<u64>, trial: fn(u64) -> (f64, f64)) -> Vec<(f64, f64)> {
    let seeds: Vec<u64> = seeds.collect();
    let (a, b) = seeds.split_at(seeds.len() / 2);
    std::thread::scope(|s| {
        let first = s.spawn(|| a.iter().map(|&t| trial(t)).collect::<Vec<_>>());
        let mut out: Vec<(f64, f64)> = b.iter().map(|&t| trial(t)).collect();
        let mut head = first.join().expect("trial thread");
        head.append(&mut out);
        head
    })
}

/// Theorem 1/2 checks for the batch path. `samples` pairs each trial's
/// probe estimate with the `q` numerator at its end (`m₀` resp. `Z`).
/// Batch ingest freezes `q` for each [`freesketch::INGEST_BLOCK`]-edge
/// block, which lowers an estimate by a relative factor of at most
/// `INGEST_BLOCK / numerator`; the bias allowance adds that drift to the
/// scalar check's `4·SE + 1`, and the geometry keeps it at ≤ 1 % of `n`.
fn assert_batch_theorem(samples: &[(f64, f64)], n_probe: u64, bound: f64, theorem: &str) {
    let estimates: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let (mean, var) = moments(&estimates);
    let numerator_end = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let n = n_probe as f64;
    let drift = n * freesketch::INGEST_BLOCK as f64 / numerator_end;
    assert!(
        drift <= 0.01 * n,
        "drift allowance {drift:.1} is over 1% of n = {n}: grow M"
    );
    let se = (var / samples.len() as f64).sqrt();
    assert!(
        (mean - n).abs() < 4.0 * se + 1.0 + drift,
        "{theorem}, batch path: mean {mean} vs {n} (se {se:.2}, drift {drift:.2})"
    );
    assert!(
        var < bound * 1.35,
        "{theorem}, batch path: measured var {var:.1} exceeds bound {bound:.1}"
    );
}

#[test]
fn freebs_batch_path_unbiased_and_variance_bounded() {
    // Theorem 1 through `process_batch`, the path every driver takes. M is
    // large enough that m₀ stays above 100 · INGEST_BLOCK.
    const M_BITS: usize = 1 << 16;
    const N_PROBE: u64 = 5_000;
    const N_BG: u64 = 10_000;
    let samples = batch_trials(2000..2400, |t| {
        let mut f = FreeBS::new(M_BITS, t);
        f.process_batch(&two_user_stream(N_PROBE, N_BG));
        (f.estimate(1), f.zeros() as f64)
    });
    let bound =
        theory::freebs_variance_bound(N_PROBE as f64, (N_PROBE + N_BG) as f64, M_BITS as f64);
    assert_batch_theorem(&samples, N_PROBE, bound, "Theorem 1");
}

#[test]
fn freers_batch_path_unbiased_and_variance_bounded() {
    // Theorem 2 through `process_batch`. At the load n/M = 1 the theory
    // module's bound is not degenerate (it is 0 below n/M ≈ 0.72), and M
    // is large enough that Z stays above 100 · INGEST_BLOCK.
    const M_REGS: usize = 3 << 15;
    const N_PROBE: u64 = 32_768;
    const N_BG: u64 = 65_536;
    let samples = batch_trials(12000..12400, |t| {
        let mut f = FreeRS::new(M_REGS, t);
        f.process_batch(&two_user_stream(N_PROBE, N_BG));
        (f.estimate(1), f.q() * f.capacity() as f64)
    });
    let bound =
        theory::freers_variance_bound(N_PROBE as f64, (N_PROBE + N_BG) as f64, M_REGS as f64);
    assert_batch_theorem(&samples, N_PROBE, bound, "Theorem 2");
}

#[test]
fn freebs_beats_cse_variance_in_shared_regime() {
    // §IV-C claim: under the same M, FreeBS has lower variance than CSE
    // for small users drowned in noise. Measure both over seeds.
    let m_bits = 1 << 13;
    let m_virtual = 256;
    let n_probe = 50u64;
    let n_bg_users = 200u64;
    let trials = 150;

    let mut fbs_samples = Vec::with_capacity(trials);
    let mut cse_samples = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut fbs = FreeBS::new(m_bits, 31 * t + 7);
        let mut cse = freesketch::Cse::new(m_bits, m_virtual, 31 * t + 7);
        for d in 0..n_probe {
            fbs.process(0, d);
            cse.process(0, d);
        }
        for u in 1..=n_bg_users {
            for d in 0..40u64 {
                let item = d.wrapping_mul(u) ^ (u << 20);
                fbs.process(u, item);
                cse.process(u, item);
            }
        }
        fbs_samples.push(fbs.estimate(0));
        cse_samples.push(cse.estimate_fresh(0));
    }
    let (fbs_mean, fbs_var) = moments(&fbs_samples);
    let (_cse_mean, cse_var) = moments(&cse_samples);
    // FreeBS unbiased even here.
    let se = (fbs_var / trials as f64).sqrt();
    assert!((fbs_mean - n_probe as f64).abs() < 4.0 * se + 1.0);
    // MSE comparison: FreeBS strictly better for the small shared user.
    let mse = |samples: &[f64]| {
        samples
            .iter()
            .map(|e| (e - n_probe as f64).powi(2))
            .sum::<f64>()
            / samples.len() as f64
    };
    assert!(
        mse(&fbs_samples) < mse(&cse_samples),
        "FreeBS MSE {:.1} should beat CSE MSE {:.1}",
        mse(&fbs_samples),
        mse(&cse_samples)
    );
    let _ = cse_var;
}

#[test]
fn freers_beats_vhll_variance_in_shared_regime() {
    // §IV-C: Var(FreeRS) < Var(vHLL) under equal register budgets.
    let m_regs = 1 << 11;
    let m_virtual = 256;
    let n_probe = 100u64;
    let trials = 150;

    let mut frs_samples = Vec::with_capacity(trials);
    let mut vhll_samples = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut frs = FreeRS::new(m_regs, 77 * t + 3);
        let mut vhll = freesketch::VHll::new(m_regs, m_virtual, 77 * t + 3);
        for d in 0..n_probe {
            frs.process(0, d);
            vhll.process(0, d);
        }
        for u in 1..=300u64 {
            for d in 0..30u64 {
                let item = d.wrapping_mul(u) ^ (u << 22);
                frs.process(u, item);
                vhll.process(u, item);
            }
        }
        frs_samples.push(frs.estimate(0));
        vhll_samples.push(vhll.estimate_fresh(0));
    }
    let mse = |samples: &[f64]| {
        samples
            .iter()
            .map(|e| (e - n_probe as f64).powi(2))
            .sum::<f64>()
            / samples.len() as f64
    };
    assert!(
        mse(&frs_samples) < mse(&vhll_samples),
        "FreeRS MSE {:.1} should beat vHLL MSE {:.1}",
        mse(&frs_samples),
        mse(&vhll_samples)
    );
}

#[test]
fn anytime_estimates_track_truth_throughout_stream() {
    // The headline anytime property: at many checkpoints along one stream,
    // the estimate stays within a few σ of the running truth.
    let m_bits = 1 << 16;
    let mut f = FreeBS::new(m_bits, 5);
    let n = 20_000u64;
    let mut worst_rel = 0.0f64;
    for d in 0..n {
        f.process(1, d);
        if d % 1000 == 999 {
            let truth = (d + 1) as f64;
            let rel = (f.estimate(1) / truth - 1.0).abs();
            worst_rel = worst_rel.max(rel);
        }
    }
    assert!(
        worst_rel < 0.08,
        "worst checkpoint relative error {worst_rel} too high"
    );
}

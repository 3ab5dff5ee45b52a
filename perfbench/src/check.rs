//! The correctness gate every run passes through. Each check counts as
//! one attempted operation; a violated check counts as failed and is
//! never skipped, and the first violations are kept for the report.

use freesketch::theory::{freebs_variance_bound, freers_variance_bound};

/// How many standard errors (from the paper's variance bounds) an
/// estimate may stray from the truth before it counts as wrong.
pub const K_SE: f64 = 6.0;

/// Estimator under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Bit sharing (Theorem 1).
    FreeBS,
    /// Register sharing (Theorem 2).
    FreeRS,
}

impl Method {
    /// The CLI's `--method` value.
    pub fn flag(self) -> &'static str {
        match self {
            Self::FreeBS => "freebs",
            Self::FreeRS => "freers",
        }
    }

    /// Slots the CLI allocates for a `--memory` budget of `memory_bits`.
    pub fn slots(self, memory_bits: usize) -> usize {
        match self {
            Self::FreeBS => memory_bits.max(64),
            Self::FreeRS => (memory_bits / 5).max(64),
        }
    }

    /// Largest deviation from `n_s` the gate accepts for a user of true
    /// cardinality `n_s` once `n_total` distinct pairs were absorbed.
    ///
    /// The variance is the Theorem 1/2 bound, or `n_s·(1/q_end − 1)` when
    /// the sketch's final sampling probability `q_end` is known (pass 1.0
    /// otherwise) and that is larger: `q(t)` only falls, so every credited
    /// edge had variance at most `1/q_end − 1`. The second form covers
    /// FreeRS's small range, where the theorem's approximation of
    /// `E[1/q]` rounds to 1 and the bound to 0.
    pub fn tolerance(self, memory_bits: usize, n_s: f64, n_total: f64, q_end: f64) -> f64 {
        let m = self.slots(memory_bits) as f64;
        let theory = match self {
            Self::FreeBS => freebs_variance_bound(n_s, n_total, m),
            Self::FreeRS => freers_variance_bound(n_s, n_total, m),
        };
        let var = theory.max(n_s * (1.0 / q_end - 1.0));
        // The +1 absorbs rounding of printed estimates for tiny users.
        K_SE * var.max(0.0).sqrt() + 1.0
    }
}

/// Running tally of checks.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks violated.
    pub failed: u64,
    /// The first few violations, for stderr.
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Records `attempted` operations of which `failed` went wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 20 {
            self.notes.push(what());
        }
    }

    /// Failed over attempted.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_grows_with_load_and_user_size() {
        let m = 1 << 20;
        let light = Method::FreeBS.tolerance(m, 100.0, 1e5, 1.0);
        let heavy = Method::FreeBS.tolerance(m, 100.0, 2e6, 1.0);
        assert!(heavy > light);
        assert!(
            Method::FreeRS.tolerance(m, 1000.0, 2e6, 1.0)
                > Method::FreeRS.tolerance(m, 10.0, 2e6, 1.0)
        );
        // In FreeRS's small range the theorem's bound is 0; the final q takes over.
        let small = Method::FreeRS.tolerance(m, 100.0, 1e4, 1.0);
        assert!(Method::FreeRS.tolerance(m, 100.0, 1e4, 0.8) > small);
    }

    #[test]
    fn gate_counts_every_violation() {
        let mut g = Gate::default();
        g.check(true, || "no".into());
        g.check(false, || "bad".into());
        g.tally(10, 2, || "two missing".into());
        assert_eq!((g.attempted, g.failed), (12, 3));
        assert_eq!(g.notes, vec!["bad".to_string(), "two missing".to_string()]);
        assert!((g.error_frac() - 0.25).abs() < 1e-12);
    }
}

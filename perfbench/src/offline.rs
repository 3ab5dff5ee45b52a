//! The offline phase: `freesketch estimate` run through
//! `freesketch_cli::run`, timed to the finished report.
//!
//! Each timed run happens in a fresh child process (this binary, started
//! with [`CHILD_FLAG`]), as a user's invocation would: the allocator state
//! and first-touch page faults are not inherited from earlier runs, and
//! the child's peak RSS is that run's own.

use crate::check::{Gate, Method};
use crate::spec::Trace;
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// First argument that turns this binary into a one-shot `estimate` child.
pub const CHILD_FLAG: &str = "--estimate-once";

/// `--memory` every phase passes (the CLI's default, pinned so a change
/// of default shows up as a change of workload, not of speed).
pub const MEMORY_BITS: usize = 1 << 23;

/// Hash seed passed as `--seed`.
pub const SKETCH_SEED: u64 = 42;

/// Users printed by `--top` and checked against the truth.
pub const TOP: usize = 1000;

/// The `estimate` argument list for one offline configuration. It runs
/// one thread: on a small shared host a 2-thread `estimate` stalls
/// whenever any other thread is runnable, so its wall time measures the
/// host more than the program (see `README.md`).
pub fn estimate_args(path: &Path, method: Method) -> Vec<String> {
    [
        "estimate",
        &path.display().to_string(),
        "--method",
        method.flag(),
        "--threads",
        "1",
        "--memory",
        &MEMORY_BITS.to_string(),
        "--seed",
        &SKETCH_SEED.to_string(),
        "--top",
        &TOP.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// Parses and runs one CLI invocation; returns the wall time of `run()`
/// in seconds and its output.
pub fn run_cli(args: &[String]) -> Result<(f64, String), String> {
    let cli = freesketch_cli::Cli::parse(args).map_err(|e| format!("{args:?}: {e}"))?;
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let t0 = Instant::now();
    freesketch_cli::run(&cli, &mut out).map_err(|e| format!("{args:?}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let text = String::from_utf8(out).map_err(|e| format!("report is not UTF-8: {e}"))?;
    Ok((secs, text))
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Child side: runs `estimate` once with `args` and prints
/// `<run() seconds> <peak RSS MiB>` on the first line, then the report.
pub fn child_main(args: &[String]) -> ExitCode {
    match run_cli(args) {
        Ok((secs, text)) => {
            print!("{secs} {}\n{text}", peak_rss_mib());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Parent side: runs one `estimate` in a child process and waits for it.
/// Returns the wall time of `run()` in seconds, the child's peak RSS in
/// MiB, and the report.
pub fn run_child(args: &[String]) -> Result<(f64, f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run the estimate child: {e}"))?;
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "estimate child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    let (head, report) = text.split_once('\n').ok_or("empty child output")?;
    let mut fields = head.split(' ').map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(secs)), Some(Ok(peak))) => Ok((secs, peak, report.to_string())),
        _ => Err(format!("bad child header `{head}`")),
    }
}

/// What an `estimate` report states.
#[derive(Debug, PartialEq)]
pub struct Report {
    /// "N edges processed".
    pub edges: u64,
    /// The printed heaviest users: (id, estimate).
    pub top: Vec<(u64, f64)>,
}

/// Reads the edge count and the top-user table out of an `estimate`
/// report.
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut lines = text.lines();
    let first = lines.next().ok_or("empty report")?;
    let edges = first
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .filter(|_| first.contains(" edges processed"))
        .ok_or_else(|| format!("no edge count in `{first}`"))?;
    let mut top = Vec::new();
    for line in lines.filter(|l| l.starts_with("  ")) {
        let mut f = line.split_whitespace();
        let (Some(id), Some(est)) = (f.next(), f.next()) else {
            return Err(format!("bad user line `{line}`"));
        };
        let id = u64::from_str_radix(id, 16).map_err(|_| format!("bad user id `{line}`"))?;
        let est = est.parse().map_err(|_| format!("bad estimate `{line}`"))?;
        top.push((id, est));
    }
    Ok(Report { edges, top })
}

/// Gates one report: the edge count must equal the trace length, every
/// printed user must exist in `truth` (keyed by program-side id), and
/// every printed estimate must lie within the variance-bound tolerance.
/// Returns the mean |n̂/n − 1| over the printed users.
pub fn check_report(
    gate: &mut Gate,
    report: &Report,
    trace: &Trace,
    truth: &HashMap<u64, u32>,
    method: Method,
) -> f64 {
    gate.check(report.edges == trace.edges, || {
        format!(
            "report counts {} edges, trace has {}",
            report.edges, trace.edges
        )
    });
    gate.check(report.top.len() == TOP.min(trace.users.len()), || {
        format!("report lists {} users, expected {TOP}", report.top.len())
    });
    let n_total = trace.distinct() as f64;
    let mut err_sum = 0.0;
    for &(id, est) in &report.top {
        let Some(&n) = truth.get(&id) else {
            gate.check(false, || format!("report names unknown user {id:016x}"));
            continue;
        };
        let n = f64::from(n);
        let tol = method.tolerance(MEMORY_BITS, n, n_total, 1.0);
        gate.check((est - n).abs() <= tol, || {
            format!("user {id:016x}: estimate {est} vs truth {n} (tolerance {tol:.1})")
        });
        err_sum += (est / n - 1.0).abs();
    }
    err_sum / report.top.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_estimate_report() {
        let text = "12 edges processed with FreeBS (64 bits); total cardinality ≈ 9\n\
                    top 2 users by estimated cardinality:\n\
                    \x20 00000000000000ff  7.5\n\
                    \x20 0000000000000001  1.0\n";
        let r = parse_report(text).expect("parses");
        assert_eq!(r.edges, 12);
        assert_eq!(r.top, vec![(0xff, 7.5), (1, 1.0)]);
        assert!(parse_report("nothing here").is_err());
    }
}

//! The repository's benchmark: named workloads run against the shipped
//! entry points (`freesketch_cli::run` for `estimate`,
//! `freesketch_cli::serve::spawn` for the daemon), with a correctness gate
//! on every run and a separate traced run for the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fedge-freebs-1t --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every correctness check passed. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod loadgen;
mod offline;
mod replay;
mod serve;
mod spec;
mod stats;
mod trace;

use check::{Gate, Method};
use spec::{Format, Rng, Trace};
use std::fmt::Write as _;
use std::process::ExitCode;

/// One named workload: `estimate --threads 1` over the social trace, then
/// a serve daemon over the traffic trace, both reading `format` with
/// `method`.
#[derive(Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Input format of both traces.
    pub format: Format,
    /// Estimator of both phases.
    pub method: Method,
}

/// The workloads; `BENCHMARK.json` records why each exists.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fedge-freebs-1t",
        format: Format::Fedge,
        method: Method::FreeBS,
    },
    Workload {
        name: "tsv-freers-1t",
        format: Format::Tsv,
        method: Method::FreeRS,
    },
];

/// Set-ups timed per run (the reported figure is their median).
const SETUPS: usize = 45;

/// Fewest timed `estimate` runs per offline phase.
const MIN_OFFLINE_RUNS: usize = 3;

/// Sender lateness (p99, µs) beyond which a run's latencies are flagged
/// as partly the load generator's own delay.
const SEND_LAG_BOUND_US: f64 = 1000.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 55.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn percentile(samples: &[f64], p: f64, what: &str) -> f64 {
    match stats::percentile(samples, p) {
        Ok(v) => v,
        Err(beyond) => {
            eprintln!(
                "perfbench: only {beyond} {what} samples beyond p{}; reporting the maximum",
                p * 100.0
            );
            samples.iter().copied().fold(f64::NAN, f64::max)
        }
    }
}

/// Latency figures of a serve phase: (end-to-end name, per-layer name,
/// value, unit). Timed from each operation's due time.
pub fn serve_latencies(
    run: &serve::ServeRun,
) -> Vec<(&'static str, &'static str, f64, &'static str)> {
    use loadgen::Kind;
    let est = run.session.latency_us(&run.queries, &[Kind::Estimate]);
    let scans = run
        .session
        .latency_us(&run.queries, &[Kind::TopK, Kind::Stats]);
    let fresh = &run.freshness_ms;
    vec![
        (
            "estimate_p50_us",
            "serve.estimate_p50_us",
            percentile(&est, 0.5, "estimate"),
            "us",
        ),
        (
            "estimate_p99_us",
            "serve.estimate_p99_us",
            percentile(&est, 0.99, "estimate"),
            "us",
        ),
        (
            "scan_p50_us",
            "serve.scan_p50_us",
            percentile(&scans, 0.5, "scan"),
            "us",
        ),
        (
            "scan_p99_us",
            "serve.scan_p99_us",
            percentile(&scans, 0.99, "scan"),
            "us",
        ),
        (
            "freshness_p50_ms",
            "serve.freshness_p50_ms",
            percentile(fresh, 0.5, "freshness"),
            "ms",
        ),
        (
            "freshness_p99_ms",
            "serve.freshness_p99_ms",
            percentile(fresh, 0.99, "freshness"),
            "ms",
        ),
    ]
}

/// End-to-end metrics that gate a change. The serve tail latencies and the
/// `ESTIMATE`/scan medians are printed too but not gated: on a small shared
/// host they move with the host's scheduling more than with the program.
const GATED: [&str; 5] = [
    "ingest_meps",
    "setup_s",
    "peak_rss_mib",
    "rel_err",
    "freshness_p50_ms",
];

/// The untraced run: the offline phase for two thirds of `seconds`, the
/// serve phase for the rest. Returns every end-to-end figure.
fn end_to_end(
    w: &Workload,
    social: &Trace,
    traffic: &Trace,
    args: &Args,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let mut rng = Rng::new(args.seed);
    let empty_args = offline::estimate_args(social.empty_path(w.format), w.method);
    let mut offline_setup = Vec::with_capacity(SETUPS);
    let mut serve_setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (secs, text) = offline::run_cli(&empty_args)?;
        let report = offline::parse_report(&text)?;
        gate.check(report.edges == 0, || {
            format!("header-only trace reported {} edges", report.edges)
        });
        offline_setup.push(secs);
        serve_setup.push(serve::setup_once(w.method, traffic.empty_path(w.format))?);
    }

    let run_args = offline::estimate_args(social.path(w.format), w.method);
    // Every run is a fresh child process; the first one warms the page
    // cache and is gated but not timed.
    let truth = social.truth_by_id(w.format);
    let (mut runs, mut peaks) = (Vec::new(), Vec::new());
    let mut rel_err = f64::NAN;
    let budget = args.seconds * 2.0 / 3.0;
    let phase = std::time::Instant::now();
    for i in 0.. {
        let (secs, peak, text) = offline::run_child(&run_args)?;
        let report = offline::parse_report(&text)?;
        rel_err = offline::check_report(gate, &report, social, &truth, w.method);
        if i > 0 {
            runs.push(secs);
            peaks.push(peak);
        }
        if runs.len() >= MIN_OFFLINE_RUNS && phase.elapsed().as_secs_f64() >= budget {
            break;
        }
    }

    let serve_secs = args.seconds - budget;
    let run = serve::run_phase(traffic, w.format, w.method, serve_secs, &mut rng, gate)?;
    let lag_p99 = percentile(&run.session.send_lag_us(), 0.99, "send-lag");
    if lag_p99 > SEND_LAG_BOUND_US {
        eprintln!(
            "perfbench: FLAG: the load generator ran late (send lag p99 {lag_p99:.0} µs > \
             {SEND_LAG_BOUND_US} µs); serve latencies include its delay"
        );
    }
    eprintln!(
        "perfbench: {} timed estimate runs (median {:.3} s); {} queries; {} chunks paced at \
         {:.0} edges/s; send lag p99 {lag_p99:.1} µs",
        runs.len(),
        stats::median(&runs),
        run.queries.len(),
        run.freshness_ms.len(),
        run.ingest_rate,
    );
    let mut metrics = vec![
        (
            "ingest_meps",
            social.edges as f64 / stats::median(&runs) / 1e6,
            "Medges/s",
        ),
        (
            "setup_s",
            stats::median(&offline_setup) + stats::median(&serve_setup),
            "s",
        ),
        ("peak_rss_mib", stats::median(&peaks), "MiB"),
        ("rel_err", rel_err, "ratio"),
    ];
    metrics.extend(
        serve_latencies(&run)
            .into_iter()
            .map(|(name, _, v, unit)| (name, v, unit)),
    );
    Ok(metrics)
}

fn json_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(offline::CHILD_FLAG) {
        return offline::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prepared = spec::prepare(&spec::SOCIAL, args.seed)
        .and_then(|s| spec::prepare(&spec::TRAFFIC, args.seed).map(|t| (s, t)));
    let (social, traffic) = match prepared {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot prepare traces: {e}");
            return ExitCode::from(1);
        }
    };
    let mut gate = Gate::default();
    let result = if args.trace {
        layers::per_layer(
            args.workload,
            &social,
            &traffic,
            args.seed,
            args.seconds,
            &mut gate,
        )
    } else {
        end_to_end(args.workload, &social, &traffic, &args, &mut gate)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let gated = |name: &str| args.trace || GATED.contains(&name);
    for (name, value, unit) in &metrics {
        let note = if gated(name) {
            ""
        } else {
            "  (shown, not gated)"
        };
        println!("{name:<48} {value:>14.4} {unit}{note}");
    }
    println!(
        "{:<48} {:>14.4} ratio  ({} of {} checks failed)",
        "error_frac",
        gate.error_frac(),
        gate.failed,
        gate.attempted
    );
    for note in &gate.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let reported: Vec<Metric> = metrics.into_iter().filter(|m| gated(m.0)).collect();
    println!("{}", json_line(&gate, &reported));
    if gate.failed == 0 && reported.iter().all(|m| m.1.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

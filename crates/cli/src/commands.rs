//! Subcommand implementations, writing to any `io::Write` so tests can
//! capture output exactly.
//!
//! Every file-ingesting command opens its input with [`open_source`] and
//! drives it through [`read_ahead`] — chunk-at-a-time, bounded memory — so
//! traces far larger than RAM replay with two resident edge buffers of
//! `--chunk` edges: the chunk being applied and the one a decode thread
//! fills next.

use crate::args::{Cli, Command, MethodChoice};
use crate::input::{hash_id, open_source, InputFormat};
use freesketch::ingest::{ingest_slice, skip_edges};
use freesketch::snapshot::{
    fallback_path, load_snapshot, load_with_fallback, save_snapshot_file, AnySketch, Checkpointer,
};
use freesketch::{CardinalityEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS};
use graphstream::{read_ahead, EdgeSource, EdgeStreamError, FedgeWriter, SnapshotError};
use std::io::Write;
use std::path::Path;

/// Runs a parsed CLI against an output sink.
///
/// # Errors
/// Returns a boxed error on I/O problems, malformed or corrupt input
/// files, or unknown profile names.
pub fn run(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    match &cli.command {
        Command::Estimate { path, top } => {
            let mut runner = Runner::build(cli, out)?;
            let total = runner.ingest_source(cli, path)?;
            let est = &runner.sketch;
            writeln!(
                out,
                "{} edges processed with {} ({} bits); total cardinality ≈ {:.0}",
                total,
                est.name(),
                est.memory_bits(),
                est.total_estimate()
            )?;
            write_top_users(out, est, *top)?;
        }
        Command::Spreaders { path, delta } => {
            let mut runner = Runner::build(cli, out)?;
            runner.ingest_source(cli, path)?;
            let est = &runner.sketch;
            let report = freesketch::detect_spreaders(est, *delta);
            writeln!(
                out,
                "threshold = {:.1} (Δ = {delta} × n̂ = {:.0})",
                report.threshold, report.total_estimate
            )?;
            let mut ids: Vec<u64> = report.detected.iter().copied().collect();
            ids.sort_unstable();
            writeln!(out, "{} super spreaders detected:", ids.len())?;
            for u in ids {
                writeln!(out, "  {u:016x}  {:.1}", est.estimate(u))?;
            }
        }
        Command::Synth {
            profile,
            scale,
            out: out_path,
        } => {
            let p = graphstream::profiles::by_name(profile)
                .ok_or_else(|| format!("unknown profile `{profile}` (see Table I)"))?;
            let stream = p.scaled(scale.unwrap_or(p.default_scale)).generate();
            let mut sink: Box<dyn Write> = if out_path == "-" {
                Box::new(out)
            } else {
                Box::new(std::io::BufWriter::new(std::fs::File::create(out_path)?))
            };
            writeln!(sink, "# synthetic {profile} stream, {} edges", stream.len())?;
            for e in stream.edges() {
                writeln!(sink, "{} {}", e.user, e.item)?;
            }
            sink.flush()?;
        }
        Command::Convert {
            input,
            out: out_path,
        } => {
            let (mut src, format) = open_source(input, cli.format)?;
            if format == InputFormat::Fedge {
                return Err(format!("`{input}` is already fedge — nothing to convert").into());
            }
            // Encode into a sibling temp file and rename only on success:
            // a failed conversion must never leave a valid-looking partial
            // .fedge behind (the format has no record count to catch it)
            // nor clobber a previous good output.
            let part_path = format!("{out_path}.part");
            let encode =
                |src: &mut (dyn EdgeSource + Send)| -> Result<u64, Box<dyn std::error::Error>> {
                    let file = std::fs::File::create(&part_path)
                        .map_err(|e| format!("cannot create `{part_path}`: {e}"))?;
                    let mut writer = FedgeWriter::new(std::io::BufWriter::new(file))?;
                    read_ahead(
                        src,
                        cli.chunk,
                        |buf| -> Result<(), Box<dyn std::error::Error>> {
                            Ok(writer.write_edges(buf)?)
                        },
                    )?;
                    let records = writer.records_written();
                    writer.finish()?;
                    Ok(records)
                };
            let records = match encode(src.as_mut()) {
                Ok(records) => records,
                Err(e) => {
                    std::fs::remove_file(&part_path).ok();
                    return Err(e);
                }
            };
            std::fs::rename(&part_path, out_path).map_err(|e| {
                // The encode succeeded but the publish didn't (e.g. the
                // destination is a directory): the temp file must not
                // linger as if a conversion were still in flight.
                std::fs::remove_file(&part_path).ok();
                format!("cannot move `{part_path}` to `{out_path}`: {e}")
            })?;
            writeln!(
                out,
                "{records} edges → {out_path} (fedge, {} bytes)",
                graphstream::fedge::FEDGE_HEADER_LEN as u64
                    + records * graphstream::fedge::FEDGE_RECORD_LEN as u64
            )?;
        }
        Command::Track {
            path,
            user,
            checkpoints,
        } => {
            let (total, uid) = scan_total_and_user(cli, path, user)?;
            let mut runner = Runner::build(cli, out)?;
            let step = (total / (*checkpoints).max(1) as u64).max(1);
            writeln!(out, "{:>12}  {:>12}", "edges seen", "estimate")?;
            // Second pass: ingest one checkpoint interval at a time so each
            // printed row reflects exactly `step` more edges (final partial
            // interval included), regardless of chunk boundaries. After a
            // restore the table continues from the checkpoint's offset
            // (earlier rows belong to the interrupted run).
            let mut src = runner.open(cli, path)?;
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            let mut seen = runner.base;
            let mut next_cp = (seen / step + 1) * step;
            let mut printed_at = seen;
            read_ahead(
                src.as_mut(),
                cli.chunk,
                |buf| -> Result<(), Box<dyn std::error::Error>> {
                    let mut off = 0usize;
                    while off < buf.len() {
                        let take = usize::try_from(next_cp - seen)
                            .unwrap_or(usize::MAX)
                            .min(buf.len() - off);
                        runner.sketch.apply_chunk(
                            &buf[off..off + take],
                            &mut pairs,
                            cli.batch,
                            cli.threads,
                        );
                        seen += take as u64;
                        off += take;
                        runner.maybe_checkpoint(seen)?;
                        if seen == next_cp {
                            writeln!(out, "{:>12}  {:>12.1}", seen, runner.sketch.estimate(uid))?;
                            printed_at = seen;
                            next_cp += step;
                        }
                    }
                    Ok(())
                },
            )?;
            if seen > printed_at {
                writeln!(out, "{:>12}  {:>12.1}", seen, runner.sketch.estimate(uid))?;
            }
            runner.final_checkpoint(seen)?;
        }
        Command::Checkpoint {
            input,
            out: snap_out,
        } => {
            let mut runner = Runner {
                sketch: build_sketch(cli, false),
                ckpt: Some(
                    Checkpointer::new(Path::new(snap_out.as_str()), cli.checkpoint_every)
                        .with_crash_after(crash_after_env()),
                ),
                base: 0,
            };
            let total = runner.ingest_source(cli, input)?;
            writeln!(
                out,
                "{total} edges → `{snap_out}` ({} snapshot; total cardinality ≈ {:.0})",
                runner.sketch.kind(),
                runner.sketch.total_estimate()
            )?;
        }
        Command::Restore { snap, resume, top } => {
            let path = Path::new(snap.as_str());
            let Some((mut sketch, offset, used_fallback)) = load_with_fallback(path)? else {
                return Err(format!("no snapshot at `{snap}`").into());
            };
            if used_fallback {
                writeln!(
                    out,
                    "note: `{snap}` is corrupt — restored last good checkpoint `{}` \
                     ({offset} edges)",
                    fallback_path(path).display()
                )?;
            }
            let mut total = offset;
            if let Some(trace) = resume {
                let (mut src, _) = open_source(trace, cli.format)?;
                skip_recorded(src.as_mut(), offset, cli.chunk, trace, "snapshot")?;
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                total += read_ahead(
                    src.as_mut(),
                    cli.chunk,
                    |buf| -> Result<(), EdgeStreamError> {
                        ingest_slice(&mut sketch, buf, &mut pairs, cli.batch);
                        Ok(())
                    },
                )?;
            }
            writeln!(
                out,
                "{total} edges in {} snapshot ({} bits); total cardinality ≈ {:.0}",
                sketch.kind(),
                sketch.memory_bits(),
                sketch.total_estimate()
            )?;
            write_top_users(out, &sketch, *top)?;
        }
        Command::Merge {
            inputs,
            out: snap_out,
        } => {
            let mut merged: Option<(AnySketch, u64)> = None;
            for p in inputs {
                let file = std::fs::File::open(p).map_err(|e| format!("cannot open `{p}`: {e}"))?;
                let mut reader = std::io::BufReader::new(file);
                let (sketch, edges) =
                    load_snapshot(&mut reader).map_err(|e| format!("`{p}`: {e}"))?;
                merged = Some(match merged {
                    None => (sketch, edges),
                    Some((mut acc, total)) => {
                        acc.merge(&sketch).map_err(|e| format!("`{p}`: {e}"))?;
                        (acc, total + edges)
                    }
                });
            }
            let Some((sketch, total)) = merged else {
                return Err("merge needs at least two input snapshots".into());
            };
            save_snapshot_file(Path::new(snap_out.as_str()), &sketch, total)?;
            writeln!(
                out,
                "merged {} snapshots → `{snap_out}` ({total} edges, {}; \
                 total cardinality ≈ {:.0})",
                inputs.len(),
                sketch.kind(),
                sketch.total_estimate()
            )?;
        }
        Command::Serve { path, port } => {
            // Serve always runs a sharded kind — queries arrive while
            // writers ingest, so the `&self` concurrent path is mandatory
            // even at --threads 1 (one shard).
            let (sketch, base) = open_sketch(cli, true, out)?;
            let (mut src, _) = open_source(path, cli.format)?;
            skip_recorded(src.as_mut(), base, cli.chunk, path, "checkpoint")?;
            let config = crate::serve::ServeConfig {
                port: *port,
                writers: cli.threads,
                chunk: cli.chunk,
                batch: cli.batch,
                base_edges: base,
                checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
                checkpoint_every: cli.checkpoint_every,
            };
            let handle = crate::serve::spawn(sketch, src, config)?;
            // The smoke harness greps this line for the bound port; flush
            // so a piped stdout delivers it before the daemon blocks.
            writeln!(out, "listening on {}", handle.addr())?;
            out.flush()?;
            let report = handle.join()?;
            writeln!(
                out,
                "drained: {} edges ingested, {} queries served{}",
                report.edges,
                report.queries,
                if report.checkpointed {
                    ", final checkpoint written"
                } else {
                    ""
                }
            )?;
            for e in &report.errors {
                writeln!(out, "error: {e}")?;
            }
            if report.writer_panicked {
                return Err("a writer thread panicked during ingest".into());
            }
        }
    }
    Ok(())
}

/// All tracked users, heaviest estimate first. `total_cmp` (not
/// `partial_cmp`) so a degenerate estimator state emitting NaN yields a
/// deterministic order instead of a panic — NaN sorts ahead of every
/// finite estimate and is visible in the output.
fn rank_users(est: &dyn CardinalityEstimator) -> Vec<(u64, f64)> {
    let mut users: Vec<(u64, f64)> = Vec::new();
    est.for_each_estimate(&mut |u, e| users.push((u, e)));
    users.sort_by(|a, b| b.1.total_cmp(&a.1));
    users
}

/// The report's ranked tail shared by `estimate` and `restore`: a header
/// and the `top` heaviest users.
fn write_top_users(
    out: &mut dyn Write,
    est: &dyn CardinalityEstimator,
    top: usize,
) -> std::io::Result<()> {
    let users = rank_users(est);
    writeln!(
        out,
        "top {} users by estimated cardinality:",
        top.min(users.len())
    )?;
    for (u, e) in users.iter().take(top) {
        writeln!(out, "  {u:016x}  {e:.1}")?;
    }
    Ok(())
}

/// First streaming pass for `track`: the stream length (for checkpoint
/// sizing) and the tracked user's resolved id. The user may be given as
/// the original string id (hashed), as a numeric id already present in the
/// file as text (synth output — hashed as its decimal string), or as a raw
/// post-hash id in a `fedge` file; whichever interpretation actually
/// occurs in the stream wins, string hash first.
fn scan_total_and_user(
    cli: &Cli,
    path: &str,
    user: &str,
) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let string_hash = hash_id(user);
    let numeric: Option<u64> = user.parse().ok();
    let (mut src, _) = open_source(path, cli.format)?;
    let mut string_seen = false;
    let mut raw_seen = false;
    let total = read_ahead(
        src.as_mut(),
        cli.chunk,
        |buf| -> Result<(), EdgeStreamError> {
            if !string_seen && buf.iter().any(|e| e.user == string_hash) {
                string_seen = true;
            }
            if let Some(raw) = numeric {
                if !raw_seen && buf.iter().any(|e| e.user == raw) {
                    raw_seen = true;
                }
            }
            Ok(())
        },
    )?;
    let uid = match numeric {
        _ if string_seen => string_hash,
        Some(raw) if raw_seen => raw,
        Some(raw) => hash_id(&raw.to_string()),
        None => string_hash,
    };
    Ok((total, uid))
}

/// The one sketch constructor, per the CLI flags: the scalar kinds at
/// `--threads 1`, the sharded kinds above it or whenever `shared` (serve
/// ingests through `&self` while queries read), with one shard per ingest
/// thread (rounded up to a power of two) under the same memory budget.
fn build_sketch(cli: &Cli, shared: bool) -> AnySketch {
    let shards = cli.threads.next_power_of_two();
    let slots = match cli.method {
        MethodChoice::FreeBS => cli.memory_bits,
        MethodChoice::FreeRS => cli.memory_bits / 5,
    };
    match (cli.method, shared || cli.threads > 1) {
        (MethodChoice::FreeBS, false) => FreeBS::new(slots.max(64), cli.seed).into(),
        (MethodChoice::FreeRS, false) => FreeRS::new(slots.max(64), cli.seed).into(),
        (MethodChoice::FreeBS, true) => {
            ShardedFreeBS::new(slots.max(64 * shards), shards, cli.seed).into()
        }
        (MethodChoice::FreeRS, true) => {
            ShardedFreeRS::new(slots.max(64 * shards), shards, cli.seed).into()
        }
    }
}

/// The sketch a run starts from and the stream offset it already holds:
/// with `--checkpoint`, the newest good snapshot (reported to `out`) if
/// one exists; otherwise a fresh [`build_sketch`] at offset 0. A `shared`
/// run (serve) rejects a restored scalar kind.
fn open_sketch(
    cli: &Cli,
    shared: bool,
    out: &mut dyn Write,
) -> Result<(AnySketch, u64), Box<dyn std::error::Error>> {
    let Some(snap) = &cli.checkpoint else {
        return Ok((build_sketch(cli, shared), 0));
    };
    let path = Path::new(snap.as_str());
    let Some((sketch, offset, used_fallback)) = load_with_fallback(path)? else {
        return Ok((build_sketch(cli, shared), 0));
    };
    if shared && sketch.as_concurrent().is_none() {
        return Err(format!(
            "checkpoint `{snap}` holds a `{}` sketch — serve needs a \
             sharded kind (re-checkpoint with --threads > 1)",
            sketch.kind()
        )
        .into());
    }
    if used_fallback {
        writeln!(
            out,
            "note: `{snap}` is corrupt — restored last good checkpoint `{}` \
             ({offset} edges)",
            fallback_path(path).display()
        )?;
    } else {
        writeln!(
            out,
            "restored checkpoint `{snap}` ({offset} edges, {})",
            sketch.kind()
        )?;
    }
    Ok((sketch, offset))
}

/// Fast-forwards `src` past the `offset` edges a restored `what`
/// (checkpoint or snapshot) already holds. A trace shorter than that is
/// the wrong trace for it.
fn skip_recorded(
    src: &mut dyn EdgeSource,
    offset: u64,
    chunk: usize,
    path: &str,
    what: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let skipped = skip_edges(src, offset, chunk)?;
    if skipped < offset {
        return Err(format!(
            "`{path}` holds {skipped} edges but the {what} records \
             {offset} — wrong trace for this {what}?"
        )
        .into());
    }
    Ok(())
}

/// An ingesting subcommand's state: the sketch (restored or fresh), the
/// rotating snapshot writer when `--checkpoint` is given, and the stream
/// offset the sketch already holds (non-zero only after a restore).
/// [`AnySketch::apply_chunk`] runs the scalar kinds on the calling thread
/// and splits each chunk over `--threads` ingest threads for the sharded
/// ones, so `--threads` behaves identically for `estimate`, `spreaders`
/// and `track`.
struct Runner {
    sketch: AnySketch,
    ckpt: Option<Checkpointer>,
    base: u64,
}

impl Runner {
    /// Builds the runner; with `--checkpoint` this restores the newest
    /// good snapshot if one exists (printing what happened to `out`) and
    /// arms the incremental checkpointer.
    fn build(cli: &Cli, out: &mut dyn Write) -> Result<Self, Box<dyn std::error::Error>> {
        let (sketch, base) = open_sketch(cli, false, out)?;
        let ckpt = cli.checkpoint.as_ref().map(|snap| {
            Checkpointer::new(Path::new(snap.as_str()), cli.checkpoint_every)
                .starting_from(base)
                .with_crash_after(crash_after_env())
        });
        Ok(Self { sketch, ckpt, base })
    }

    /// Opens `path`, fast-forwarded past the edges the sketch already
    /// holds.
    fn open(
        &self,
        cli: &Cli,
        path: &str,
    ) -> Result<Box<dyn EdgeSource + Send>, Box<dyn std::error::Error>> {
        let (mut src, _) = open_source(path, cli.format)?;
        skip_recorded(src.as_mut(), self.base, cli.chunk, path, "checkpoint")?;
        Ok(src)
    }

    /// Streams a whole file into the sketch, checkpointing between
    /// chunks; returns edges processed — including, after a restore, the
    /// edges the snapshot already covered (those are skipped, not
    /// re-ingested). Peak resident edge memory is two `--chunk` buffers.
    fn ingest_source(&mut self, cli: &Cli, path: &str) -> Result<u64, Box<dyn std::error::Error>> {
        let mut src = self.open(cli, path)?;
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut seen = self.base;
        read_ahead(
            src.as_mut(),
            cli.chunk,
            |buf| -> Result<(), Box<dyn std::error::Error>> {
                self.sketch
                    .apply_chunk(buf, &mut pairs, cli.batch, cli.threads);
                seen += buf.len() as u64;
                Ok(self.maybe_checkpoint(seen)?)
            },
        )?;
        self.final_checkpoint(seen)?;
        Ok(seen)
    }

    /// Writes an incremental checkpoint if the interval has elapsed.
    /// No-op without `--checkpoint`; callers invoke it only at quiescent
    /// points (after a chunk is applied).
    fn maybe_checkpoint(&mut self, edges: u64) -> Result<(), SnapshotError> {
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.maybe_checkpoint(&self.sketch, edges)?;
        }
        Ok(())
    }

    /// Final checkpoint at stream end (no-op without `--checkpoint`), so
    /// a completed run records the full stream offset.
    fn final_checkpoint(&mut self, edges: u64) -> Result<(), SnapshotError> {
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.checkpoint_now(&self.sketch, edges)?;
        }
        Ok(())
    }
}

/// Fault-injection knob for the crash/restore smoke test: when
/// `FREESKETCH_CRASH_AFTER_CHECKPOINTS=n` is set, the n-th checkpoint
/// write (0-based) of this process fails as an abrupt kill would.
/// Unset or unparsable values disarm it.
fn crash_after_env() -> Option<u64> {
    std::env::var("FREESKETCH_CRASH_AFTER_CHECKPOINTS")
        .ok()
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    /// A fresh file per call: tests run in parallel threads of one
    /// process, and two with equal content must not share (and race on)
    /// one path.
    fn write_temp(content: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // ORDERING: relaxed-ok — only uniqueness of the value matters.
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "freesketch-cli-test-{}-{n}.tsv",
            std::process::id()
        ));
        std::fs::write(&path, content).expect("write temp file");
        path
    }

    fn run_to_string(args: &[&str]) -> String {
        let cli = Cli::parse(args).expect("parse");
        let mut buf = Vec::new();
        run(&cli, &mut buf).expect("run");
        String::from_utf8(buf).expect("utf8")
    }

    #[test]
    fn estimate_end_to_end() {
        let mut content = String::new();
        for d in 0..200 {
            content.push_str(&format!("alice item{d}\n"));
        }
        for d in 0..20 {
            content.push_str(&format!("bob item{d}\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&["estimate", path.to_str().expect("utf8 path"), "--top", "2"]);
        assert!(out.contains("220 edges processed"));
        assert!(out.contains("FreeBS"));
        // alice (200 items) must rank first.
        let alice = format!("{:016x}", hash_id("alice"));
        let bob = format!("{:016x}", hash_id("bob"));
        let alice_pos = out.find(&alice).expect("alice listed");
        let bob_pos = out.find(&bob).expect("bob listed");
        assert!(alice_pos < bob_pos, "alice should rank above bob:\n{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spreaders_end_to_end() {
        let mut content = String::new();
        for d in 0..500 {
            content.push_str(&format!("heavy item{d}\n"));
        }
        for u in 0..50 {
            content.push_str(&format!("light{u} item0\nlight{u} item1\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&[
            "spreaders",
            path.to_str().expect("utf8 path"),
            "--delta",
            "0.2",
            "--method",
            "freers",
        ]);
        assert!(out.contains("1 super spreaders detected"), "{out}");
        assert!(out.contains(&format!("{:016x}", hash_id("heavy"))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn synth_then_estimate_round_trip() {
        let mut synth_out = Vec::new();
        let cli = Cli::parse(&["synth", "livejournal", "--scale", "40000"]).expect("parse");
        run(&cli, &mut synth_out).expect("synth");
        let text = String::from_utf8(synth_out).expect("utf8");
        assert!(text.lines().count() > 100, "synth produced too few lines");

        let path = write_temp(&text);
        let out = run_to_string(&["estimate", path.to_str().expect("utf8 path")]);
        assert!(out.contains("edges processed"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn track_prints_monotone_estimates() {
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&[
            "track",
            path.to_str().expect("utf8 path"),
            "--user",
            "probe",
            "--checkpoints",
            "5",
        ]);
        let values: Vec<f64> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(values.len() >= 5, "{out}");
        assert!(
            values.windows(2).all(|w| w[1] >= w[0]),
            "not monotone: {values:?}"
        );
        assert!((values.last().expect("non-empty") / 300.0 - 1.0).abs() < 0.1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn track_chunk_boundaries_do_not_change_rows() {
        // Checkpoint rows are a function of the stream, not of how it is
        // chunked off disk: a chunk smaller than (and misaligned with) the
        // checkpoint step must produce the identical table.
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let whole = run_to_string(&["track", p, "--user", "probe", "--checkpoints", "5"]);
        let chunked = run_to_string(&[
            "track",
            p,
            "--user",
            "probe",
            "--checkpoints",
            "5",
            "--chunk",
            "17",
        ]);
        assert_eq!(whole, chunked);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn batch_and_scalar_ingest_agree() {
        // Distinct per-user cardinalities so the top list has no ties (tied
        // estimates may legitimately order differently across ingest paths).
        let mut content = String::new();
        for u in 0..10 {
            for d in 0..(u + 1) * 20 {
                content.push_str(&format!("user{u} item{u}x{d}\n"));
            }
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let batched = run_to_string(&["estimate", p, "--top", "5"]);
        let scalar = run_to_string(&["estimate", p, "--top", "5", "--batch", "0"]);
        // At the default 8 Mbit budget the block-q drift is ~1e-5 relative,
        // far below the printed precision: outputs must be identical.
        assert_eq!(batched, scalar);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn threaded_estimate_end_to_end() {
        // Sharded parallel ingest produces the same report shape and a
        // consistent ranking; estimates are within estimator noise.
        let mut content = String::new();
        for d in 0..400 {
            content.push_str(&format!("big item{d}\n"));
        }
        for d in 0..40 {
            content.push_str(&format!("small item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["estimate", p, "--threads", "2", "--top", "2"]);
        assert!(out.contains("440 edges processed"), "{out}");
        assert!(out.contains("ShardedFreeBS"), "{out}");
        let big = format!("{:016x}", hash_id("big"));
        let small = format!("{:016x}", hash_id("small"));
        let big_pos = out.find(&big).expect("big listed");
        let small_pos = out.find(&small).expect("small listed");
        assert!(big_pos < small_pos, "big should rank above small:\n{out}");
        // FreeRS path and the scalar (--batch 0) ingest both work too.
        let out = run_to_string(&[
            "estimate",
            p,
            "--threads",
            "2",
            "--method",
            "freers",
            "--batch",
            "0",
        ]);
        assert!(out.contains("ShardedFreeRS"), "{out}");
        // --threads is a common flag: spreaders and track honour it too.
        let out = run_to_string(&["spreaders", p, "--delta", "0.2", "--threads", "2"]);
        assert!(out.contains("1 super spreaders detected"), "{out}");
        assert!(out.contains(&big), "{out}");
        let out = run_to_string(&[
            "track",
            p,
            "--user",
            "big",
            "--checkpoints",
            "4",
            "--threads",
            "2",
        ]);
        let values: Vec<f64> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(values.len() >= 4, "{out}");
        assert!(
            values.windows(2).all(|w| w[1] >= w[0]),
            "not monotone: {values:?}"
        );
        std::fs::remove_file(path).ok();
    }

    /// The report `estimate` prints, with the trace ingested by the
    /// serial `stream_into` loop instead of the read-ahead driver.
    fn serial_estimate_report(cli: &Cli, path: &str, top: usize) -> String {
        let mut sketch = build_sketch(cli, false);
        let (mut src, _) = open_source(path, cli.format).expect("open");
        let total =
            freesketch::ingest::stream_into(&mut sketch, src.as_mut(), cli.chunk, cli.batch)
                .expect("clean trace");
        let mut out = Vec::new();
        writeln!(
            out,
            "{total} edges processed with {} ({} bits); total cardinality ≈ {:.0}",
            sketch.name(),
            sketch.memory_bits(),
            sketch.total_estimate()
        )
        .expect("write");
        write_top_users(&mut out, &sketch, top).expect("write");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn convert_then_estimate_is_bit_identical() {
        // A fedge re-encode of a TSV trace replays to the exact same
        // report under the same flags, and so does the serial
        // `stream_into` loop, the reference for the read-ahead driver — at
        // chunks of one edge, of a size that divides nothing, and the
        // default, on the scalar and both batch paths.
        let mut content = String::new();
        for i in 0..100_000u64 {
            let user = hashkit::splitmix64(i) % 4000;
            content.push_str(&format!("user{user} item{}\n", i % 50_000));
        }
        let tsv = write_temp(&content);
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        let conv = run_to_string(&["convert", p, &fedge]);
        assert!(conv.contains("100000 edges →"), "{conv}");

        for chunk in ["1", "17", "65536"] {
            for batch in ["0", "100", "8192"] {
                let flags = ["--top", "20", "--chunk", chunk, "--batch", batch];
                let mut reports = Vec::new();
                for path in [p, fedge.as_str()] {
                    let mut args = vec!["estimate", path];
                    args.extend_from_slice(&flags);
                    let cli = Cli::parse(&args).expect("parse");
                    let report = run_to_string(&args);
                    assert_eq!(
                        report,
                        serial_estimate_report(&cli, path, 20),
                        "{path} {flags:?}"
                    );
                    reports.push(report);
                }
                assert_eq!(reports[0], reports[1], "flags {flags:?}");
                assert!(reports[0].contains("100000 edges processed"), "{reports:?}");
            }
        }

        // track works on the binary file too (string user resolved by hash).
        let t = run_to_string(&["track", &fedge, "--user", "user9", "--checkpoints", "3"]);
        assert!(t.lines().count() >= 3, "{t}");

        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn failed_convert_is_atomic() {
        // A conversion that errors mid-stream must neither leave a
        // valid-looking partial .fedge behind nor clobber a previous good
        // output — the format has no record count, so a partial file would
        // replay silently short.
        let good = write_temp("a b\nc d\n");
        let bad = write_temp("a b\nc d\nbroken\ne f\n");
        let out_path = format!("{}.out.fedge", good.to_str().expect("utf8 path"));
        let part_path = format!("{out_path}.part");

        run_to_string(&["convert", good.to_str().expect("utf8 path"), &out_path]);
        let before = std::fs::read(&out_path).expect("good output exists");

        let cli =
            Cli::parse(&["convert", bad.to_str().expect("utf8 path"), &out_path]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
        assert_eq!(
            std::fs::read(&out_path).expect("still there"),
            before,
            "previous good output clobbered"
        );
        assert!(
            !std::path::Path::new(&part_path).exists(),
            "temp file left behind"
        );

        std::fs::remove_file(good).ok();
        std::fs::remove_file(bad).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn checkpoint_then_restore_reports_identical_users() {
        let mut content = String::new();
        for u in 0..6 {
            for d in 0..(u + 1) * 30 {
                content.push_str(&format!("user{u} item{u}x{d}\n"));
            }
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.fsnp");

        let est_out = run_to_string(&["estimate", p, "--top", "6"]);
        let ck_out = run_to_string(&["checkpoint", p, &snap]);
        assert!(ck_out.contains("630 edges →"), "{ck_out}");
        let rs_out = run_to_string(&["restore", &snap, "--top", "6"]);
        assert!(rs_out.contains("630 edges in freebs snapshot"), "{rs_out}");

        // The per-user report lines (two-space indented) are bit-identical:
        // checkpointed ingest applies the same chunks through the same
        // pipeline as `estimate`, and the snapshot round trip is exact.
        let users = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with("  "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(users(&est_out), users(&rs_out), "{est_out}\nvs\n{rs_out}");

        // `restore` with a trace resumes it after the snapshot's offset: a
        // snapshot of the first half plus the rest of the trace is the
        // whole-trace run, chunk for chunk (the half is one `--chunk`).
        let half = write_temp(
            &content
                .lines()
                .take(315)
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        );
        let half_snap = format!("{p}.half.fsnp");
        let flags = ["--top", "6", "--chunk", "315"];
        let mut args = vec!["checkpoint", half.to_str().expect("utf8 path"), &half_snap];
        args.extend_from_slice(&flags);
        assert!(run_to_string(&args).contains("315 edges →"));
        let mut args = vec!["estimate", p];
        args.extend_from_slice(&flags);
        let est_chunked = run_to_string(&args);
        let mut args = vec!["restore", &half_snap, p];
        args.extend_from_slice(&flags);
        let resumed = run_to_string(&args);
        assert!(
            resumed.contains("630 edges in freebs snapshot"),
            "{resumed}"
        );
        assert_eq!(
            users(&est_chunked),
            users(&resumed),
            "{est_chunked}\nvs\n{resumed}"
        );

        // A sharded checkpoint round-trips through the CLI too.
        let sharded_snap = format!("{p}.sharded.fsnp");
        run_to_string(&["checkpoint", p, &sharded_snap, "--threads", "2"]);
        let rs = run_to_string(&["restore", &sharded_snap]);
        assert!(rs.contains("sharded-freebs snapshot"), "{rs}");

        std::fs::remove_file(path).ok();
        std::fs::remove_file(snap).ok();
        std::fs::remove_file(sharded_snap).ok();
        std::fs::remove_file(half).ok();
        std::fs::remove_file(half_snap).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_and_resumes_identically() {
        // The full crash loop: an estimate run that checkpoints as it
        // goes, whose newest snapshot is then corrupted — the rerun must
        // fall back to the previous good checkpoint, resume the trace at
        // its offset, and land on the exact report of an uninterrupted
        // run.
        let mut content = String::new();
        for i in 0..1000u64 {
            content.push_str(&format!("user{} item{i}\n", i % 5));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.ck.fsnp");
        let flags = ["--chunk", "64", "--checkpoint-every", "100"];

        let mut fresh_args = vec!["estimate", p, "--chunk", "64"];
        fresh_args.push("--top");
        fresh_args.push("5");
        let fresh = run_to_string(&fresh_args);

        let mut first_args = vec!["estimate", p, "--checkpoint", &snap, "--top", "5"];
        first_args.extend_from_slice(&flags);
        let first = run_to_string(&first_args);
        assert!(first.contains("1000 edges processed"), "{first}");
        let prev = format!("{snap}.prev");
        assert!(std::path::Path::new(&prev).exists(), "rotation kept .prev");

        // Corrupt the newest snapshot (truncate mid-section).
        let bytes = std::fs::read(&snap).expect("snapshot exists");
        std::fs::write(&snap, &bytes[..bytes.len() - 5]).expect("truncate");

        let resumed = run_to_string(&first_args);
        assert!(
            resumed.contains("is corrupt — restored last good checkpoint"),
            "{resumed}"
        );
        // Everything after the fallback note equals the uninterrupted run.
        let body: Vec<&str> = resumed.lines().skip(1).collect();
        assert_eq!(
            body,
            fresh.lines().collect::<Vec<_>>(),
            "{resumed}\nvs\n{fresh}"
        );
        // The resumed run ends with a final checkpoint at the absolute
        // stream end (restored offset + edges it ingested), not at the
        // count of edges that run alone ingested.
        let after = run_to_string(&["restore", &snap, "--top", "5"]);
        assert!(
            after.starts_with("1000 edges in freebs snapshot"),
            "{after}"
        );
        assert_eq!(
            after.lines().skip(1).collect::<Vec<_>>(),
            fresh.lines().skip(1).collect::<Vec<_>>(),
            "{after}\nvs\n{fresh}"
        );

        std::fs::remove_file(path).ok();
        std::fs::remove_file(snap).ok();
        std::fs::remove_file(prev).ok();
    }

    #[test]
    fn merge_unions_disjoint_snapshots() {
        let mut left = String::new();
        for d in 0..200 {
            left.push_str(&format!("alpha item{d}\n"));
        }
        let mut right = String::new();
        for d in 0..100 {
            right.push_str(&format!("beta other{d}\n"));
        }
        let lp = write_temp(&left);
        let rp = write_temp(&right);
        let (l, r) = (
            lp.to_str().expect("utf8 path").to_string(),
            rp.to_str().expect("utf8 path").to_string(),
        );
        let (ls, rs, ms) = (
            format!("{l}.fsnp"),
            format!("{r}.fsnp"),
            format!("{l}.merged.fsnp"),
        );
        run_to_string(&["checkpoint", &l, &ls]);
        run_to_string(&["checkpoint", &r, &rs]);
        let m = run_to_string(&["merge", &ls, &rs, &ms]);
        assert!(m.contains("merged 2 snapshots"), "{m}");
        assert!(m.contains("300 edges"), "{m}");
        let report = run_to_string(&["restore", &ms]);
        assert!(
            report.contains(&format!("{:016x}", hash_id("alpha"))),
            "{report}"
        );
        assert!(
            report.contains(&format!("{:016x}", hash_id("beta"))),
            "{report}"
        );

        // Mismatched configs must be a typed config error, not a panic.
        let odd = format!("{r}.odd.fsnp");
        run_to_string(&["checkpoint", &r, &odd, "--seed", "7"]);
        let cli = Cli::parse(&["merge", &ls, &odd, &ms]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");

        for f in [l, r, ls, rs, ms, odd] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn restore_of_missing_snapshot_is_a_clean_error() {
        let cli = Cli::parse(&["restore", "/definitely/not/here.fsnp"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("no snapshot at"), "{err}");
    }

    #[test]
    fn track_with_checkpoint_restores_on_rerun() {
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.track.fsnp");
        let args = [
            "track",
            p,
            "--user",
            "probe",
            "--checkpoints",
            "5",
            "--checkpoint",
            &snap,
        ];
        let first = run_to_string(&args);
        assert!(first.lines().count() >= 6, "{first}");
        // Rerun: the whole trace is already checkpointed — the run
        // restores, skips everything, and prints no new rows.
        let second = run_to_string(&args);
        assert!(second.contains("restored checkpoint"), "{second}");
        assert!(second.contains("300 edges"), "{second}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(format!("{snap}.prev")).ok();
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn failed_convert_publish_cleans_up_temp_file() {
        // Rename-failure leg of convert's atomicity: encoding succeeds but
        // the destination cannot be replaced (it is a directory) — the
        // error must surface and the .part staging file must be removed.
        let tsv = write_temp("a b\nc d\n");
        let p = tsv.to_str().expect("utf8 path");
        let out_dir = format!("{p}.outdir");
        std::fs::create_dir_all(&out_dir).expect("mkdir");
        let part = format!("{out_dir}.part");

        let cli = Cli::parse(&["convert", p, &out_dir]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("cannot move"), "{err}");
        assert!(
            !std::path::Path::new(&part).exists(),
            "stale .part left behind after failed publish"
        );

        std::fs::remove_file(tsv).ok();
        std::fs::remove_dir_all(out_dir).ok();
    }

    #[test]
    fn tsv_starting_with_magic_letters_stays_tsv() {
        // Regression: detection must not misread a text trace whose first
        // user id begins with "FEDG"; --format tsv also forces it.
        let path = write_temp("FEDGE-host1 item1\nFEDGE-host1 item2\nFEDGE-host2 item1\n");
        let p = path.to_str().expect("utf8 path");
        for extra in [&[][..], &["--format", "tsv"]] {
            let mut args = vec!["estimate", p, "--top", "2"];
            args.extend_from_slice(extra);
            let out = run_to_string(&args);
            assert!(out.contains("3 edges processed"), "{extra:?}: {out}");
            assert!(
                out.contains(&format!("{:016x}", hash_id("FEDGE-host1"))),
                "{out}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn convert_rejects_fedge_input() {
        let tsv = write_temp("a b\nc d\n");
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        run_to_string(&["convert", p, &fedge]);
        let cli = Cli::parse(&["convert", fedge.as_str(), "twice.fedge"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("already fedge"), "{err}");
        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn estimate_on_corrupt_fedge_is_a_typed_error() {
        let tsv = write_temp("a b\nc d\ne f\n");
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        run_to_string(&["convert", p, &fedge]);
        // Chop the last record in half.
        let bytes = std::fs::read(&fedge).expect("read");
        std::fs::write(&fedge, &bytes[..bytes.len() - 7]).expect("rewrite");
        let cli = Cli::parse(&["estimate", fedge.as_str()]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("truncated fedge record"), "{err}");
        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn nan_estimates_rank_without_panicking() {
        // Regression: the top-k sort used partial_cmp().expect("finite
        // estimates") and panicked on NaN from a degenerate estimator
        // state. total_cmp orders NaN deterministically ahead of finite
        // values instead.
        struct Degenerate;
        impl CardinalityEstimator for Degenerate {
            fn process(&mut self, _user: u64, _item: u64) {}
            fn estimate(&self, _user: u64) -> f64 {
                f64::NAN
            }
            fn total_estimate(&self) -> f64 {
                f64::NAN
            }
            fn memory_bits(&self) -> usize {
                0
            }
            fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
                f(1, 2.0);
                f(2, f64::NAN);
                f(3, 1.0);
                f(4, f64::INFINITY);
            }
            fn name(&self) -> &'static str {
                "Degenerate"
            }
        }
        let ranked = rank_users(&Degenerate);
        assert_eq!(ranked.len(), 4);
        assert!(
            ranked[0].1.is_nan(),
            "NaN first under total_cmp: {ranked:?}"
        );
        assert_eq!(ranked[1], (4, f64::INFINITY));
        assert_eq!(ranked[2], (1, 2.0));
        assert_eq!(ranked[3], (3, 1.0));
    }

    #[test]
    fn unknown_profile_errors() {
        let cli = Cli::parse(&["synth", "nope"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown profile"));
    }

    #[test]
    fn missing_file_errors() {
        let cli = Cli::parse(&["estimate", "/definitely/not/here.tsv"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }
}

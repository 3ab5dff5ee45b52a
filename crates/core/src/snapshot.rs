//! Crash-safe sketch lifecycle: checksummed snapshots, incremental
//! checkpointing, and restore-with-fallback.
//!
//! A snapshot is a [`graphstream::snapshot`] FSNP container with four
//! sections, each independently CRC-protected so corruption is localized
//! to a named section:
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `META` | sketch kind + the stream offset (edges ingested so far)     |
//! | `CONF` | hasher seeds, `q` tracker state, totals, shard layout       |
//! | `ARRY` | the shared bit/register array(s)                            |
//! | `CNTR` | the per-user Horvitz–Thompson counter map(s)                |
//!
//! [`AnySketch`] erases the four estimator configurations the CLI can
//! build (FreeBS, FreeRS and their sharded variants) behind one
//! save/load/merge surface; [`Checkpointer`] writes snapshots atomically
//! (temp file + rename) every `N` ingested edges while keeping the last
//! good one as a `.prev` fallback; [`load_with_fallback`] restores from
//! the newest snapshot that still checksums.
//!
//! Every failure on the load path is a typed [`SnapshotError`] — corrupt
//! or truncated bytes must never panic and never produce a silently-wrong
//! estimator.

use crate::ingest::{ingest_slice, ingest_slice_parallel};
use crate::{
    CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS,
};
use graphstream::snapshot::{
    decode_value, encode_value, find_section, read_sections, write_sections,
};
use graphstream::{Edge, SnapshotError};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Section tag: sketch kind and stream offset.
const TAG_META: [u8; 4] = *b"META";
/// Section tag: configuration (hasher, `q` state, totals, shard layout).
const TAG_CONF: [u8; 4] = *b"CONF";
/// Section tag: the shared bit/register array(s).
const TAG_ARRY: [u8; 4] = *b"ARRY";
/// Section tag: the per-user counter map(s).
const TAG_CNTR: [u8; 4] = *b"CNTR";

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        detail: detail.into(),
    }
}

fn serde_malformed(e: serde::Error) -> SnapshotError {
    malformed(e.to_string())
}

/// Dispatches one expression over every [`AnySketch`] variant.
macro_rules! dispatch {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnySketch::FreeBS($e) => $body,
            AnySketch::FreeRS($e) => $body,
            AnySketch::ShardedFreeBS($e) => $body,
            AnySketch::ShardedFreeRS($e) => $body,
        }
    };
}

/// The estimator configurations a snapshot can hold, behind one
/// save/load/merge/ingest surface. The variant is recorded in the `META`
/// section as a kind string ([`AnySketch::kind`]), and a snapshot only
/// restores into the same kind.
#[derive(Debug)]
pub enum AnySketch {
    /// Sequential FreeBS (`SketchEngine<BitArray, ZeroQ>`).
    FreeBS(FreeBS),
    /// Sequential FreeRS (`SketchEngine<PackedArray, IncrementalZ>`).
    FreeRS(FreeRS),
    /// Sharded FreeBS (`P` mutex-owned FreeBS shards).
    ShardedFreeBS(ShardedFreeBS),
    /// Sharded FreeRS (`P` mutex-owned FreeRS shards).
    ShardedFreeRS(ShardedFreeRS),
}

impl From<FreeBS> for AnySketch {
    fn from(e: FreeBS) -> Self {
        Self::FreeBS(e)
    }
}

impl From<FreeRS> for AnySketch {
    fn from(e: FreeRS) -> Self {
        Self::FreeRS(e)
    }
}

impl From<ShardedFreeBS> for AnySketch {
    fn from(s: ShardedFreeBS) -> Self {
        Self::ShardedFreeBS(s)
    }
}

impl From<ShardedFreeRS> for AnySketch {
    fn from(s: ShardedFreeRS) -> Self {
        Self::ShardedFreeRS(s)
    }
}

impl AnySketch {
    /// The kind string recorded in the `META` section.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::FreeBS(_) => "freebs",
            Self::FreeRS(_) => "freers",
            Self::ShardedFreeBS(_) => "sharded-freebs",
            Self::ShardedFreeRS(_) => "sharded-freers",
        }
    }

    fn is_sharded(&self) -> bool {
        matches!(self, Self::ShardedFreeBS(_) | Self::ShardedFreeRS(_))
    }

    fn to_value(&self) -> serde::Value {
        dispatch!(self, e => e.serialize_value())
    }

    fn from_value(kind: &str, v: &serde::Value) -> Result<Self, SnapshotError> {
        match kind {
            "freebs" => FreeBS::deserialize_value(v)
                .map(Self::FreeBS)
                .map_err(serde_malformed),
            "freers" => FreeRS::deserialize_value(v)
                .map(Self::FreeRS)
                .map_err(serde_malformed),
            "sharded-freebs" => ShardedFreeBS::deserialize_value(v)
                .map(Self::ShardedFreeBS)
                .map_err(serde_malformed),
            "sharded-freers" => ShardedFreeRS::deserialize_value(v)
                .map(Self::ShardedFreeRS)
                .map_err(serde_malformed),
            other => Err(malformed(format!("unknown sketch kind {other:?}"))),
        }
    }

    /// Semantic validation of a freshly loaded sketch, beyond the
    /// per-section CRCs: store invariants (lengths, stray bits, register
    /// geometry), every counter finite and non-negative, and the sampling
    /// probability inside `[0, 1]`. A snapshot whose bytes checksum but
    /// whose state is inconsistent is reported here instead of surfacing
    /// later as a panic or a silently-wrong estimate.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        match self {
            Self::FreeBS(e) => e.store().validate().map_err(malformed)?,
            Self::FreeRS(e) => e.store().validate().map_err(malformed)?,
            // Sharded stores are validated shard by shard when the
            // sketch is deserialized.
            Self::ShardedFreeBS(_) | Self::ShardedFreeRS(_) => {}
        }
        let mut bad: Option<(u64, f64)> = None;
        self.for_each_estimate(&mut |user, est| {
            if !(est.is_finite() && est >= 0.0) && bad.is_none() {
                bad = Some((user, est));
            }
        });
        if let Some((user, est)) = bad {
            return Err(malformed(format!("user {user} has invalid estimate {est}")));
        }
        let total = self.total_estimate();
        if !(total.is_finite() && total >= 0.0) {
            return Err(malformed(format!("invalid total estimate {total}")));
        }
        let q = dispatch!(self, e => e.q());
        if !(q.is_finite() && (0.0..=1.0 + 1e-6).contains(&q)) {
            return Err(malformed(format!(
                "sampling probability {q} outside [0, 1]"
            )));
        }
        Ok(())
    }

    /// Unions another sketch into this one (counters add, arrays OR/max).
    /// See [`crate::engine::SketchEngine::merge`] for the
    /// disjoint-partition semantics.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] when the kinds, seeds, or
    /// geometries differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SnapshotError> {
        match (self, other) {
            (Self::FreeBS(a), Self::FreeBS(b)) => a.merge(b),
            (Self::FreeRS(a), Self::FreeRS(b)) => a.merge(b),
            (Self::ShardedFreeBS(a), Self::ShardedFreeBS(b)) => a.merge(b),
            (Self::ShardedFreeRS(a), Self::ShardedFreeRS(b)) => a.merge(b),
            (a, b) => Err(SnapshotError::ConfigMismatch {
                detail: format!("cannot merge kind {:?} into {:?}", b.kind(), a.kind()),
            }),
        }
    }

    /// Applies one in-memory chunk: scalar kinds run the sequential block
    /// pipeline ([`ingest_slice`]), sharded kinds split the chunk over
    /// `threads` ingest threads ([`ingest_slice_parallel`], joined before
    /// returning, so the sketch is quiescent afterwards — the property
    /// checkpointing relies on). `pairs` is a scratch buffer the caller
    /// reuses across chunks.
    pub fn apply_chunk(
        &mut self,
        buf: &[Edge],
        pairs: &mut Vec<(u64, u64)>,
        batch: usize,
        threads: usize,
    ) {
        match self {
            Self::FreeBS(e) => ingest_slice(e, buf, pairs, batch),
            Self::FreeRS(e) => ingest_slice(e, buf, pairs, batch),
            Self::ShardedFreeBS(s) => ingest_slice_parallel(s, buf, pairs, batch, threads),
            Self::ShardedFreeRS(s) => ingest_slice_parallel(s, buf, pairs, batch, threads),
        }
    }

    /// The shared-ingest (`&self`) view of the sharded kinds — the seam
    /// the serving layer's writer threads ingest through while query
    /// threads read estimates concurrently. Scalar kinds need `&mut`
    /// exclusive access and return `None`.
    #[must_use]
    pub fn as_concurrent(&self) -> Option<&dyn ConcurrentEstimator> {
        match self {
            Self::FreeBS(_) | Self::FreeRS(_) => None,
            Self::ShardedFreeBS(s) => Some(s),
            Self::ShardedFreeRS(s) => Some(s),
        }
    }

    /// The current sampling probability `q(t)` (minimum across shards for
    /// the sharded kinds) — the input to anytime confidence intervals,
    /// which assume the most conservative `q` any credited edge saw.
    #[must_use]
    pub fn sampling_q(&self) -> f64 {
        match self {
            Self::FreeBS(e) => e.q(),
            Self::FreeRS(e) => e.q(),
            Self::ShardedFreeBS(s) => s.min_q(),
            Self::ShardedFreeRS(s) => s.min_q(),
        }
    }

    /// Number of distinct users tracked — what counting
    /// [`CardinalityEstimator::for_each_estimate`] calls gives, without
    /// the walk for the scalar kinds and a one-shard sharded sketch (see
    /// [`crate::ShardedSketch::user_count`]).
    #[must_use]
    pub fn user_count(&self) -> usize {
        dispatch!(self, e => e.user_count())
    }
}

impl CardinalityEstimator for AnySketch {
    #[inline]
    fn process(&mut self, user: u64, item: u64) {
        dispatch!(self, e => e.process(user, item));
    }

    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        dispatch!(self, e => e.process_batch(edges));
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        dispatch!(self, e => e.estimate(user))
    }

    fn total_estimate(&self) -> f64 {
        dispatch!(self, e => e.total_estimate())
    }

    fn memory_bits(&self) -> usize {
        dispatch!(self, e => e.memory_bits())
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        dispatch!(self, e => CardinalityEstimator::for_each_estimate(e, f));
    }

    fn name(&self) -> &'static str {
        dispatch!(self, e => CardinalityEstimator::name(e))
    }
}

/// Removes `key` from `entries`, returning its value.
fn take_field(
    entries: &mut Vec<(String, serde::Value)>,
    key: &str,
) -> Result<serde::Value, SnapshotError> {
    let idx = entries
        .iter()
        .position(|(k, _)| k == key)
        .ok_or_else(|| malformed(format!("missing field `{key}`")))?;
    Ok(entries.remove(idx).1)
}

/// Splits a serialized sketch into `(CONF, ARRY, CNTR)` payload values so
/// each lands in its own CRC-protected section.
fn split_value(
    sharded: bool,
    value: serde::Value,
) -> Result<(serde::Value, serde::Value, serde::Value), SnapshotError> {
    let serde::Value::Map(mut entries) = value else {
        return Err(malformed("serialized sketch must be a map"));
    };
    if !sharded {
        let arry = take_field(&mut entries, "store")?;
        let cntr = take_field(&mut entries, "estimates")?;
        return Ok((serde::Value::Map(entries), arry, cntr));
    }
    let serde::Value::Seq(shards) = take_field(&mut entries, "shards")? else {
        return Err(malformed("`shards` must be a sequence"));
    };
    // Each shard is a serialized engine: split it like a scalar sketch.
    let mut stores = Vec::with_capacity(shards.len());
    let mut counters = Vec::with_capacity(shards.len());
    let mut rests = Vec::with_capacity(shards.len());
    for shard in shards {
        let (rest, store, counter) = split_value(false, shard)?;
        rests.push(rest);
        stores.push(store);
        counters.push(counter);
    }
    entries.push(("shards".to_string(), serde::Value::Seq(rests)));
    Ok((
        serde::Value::Map(entries),
        serde::Value::Seq(stores),
        serde::Value::Seq(counters),
    ))
}

/// Reassembles the serialized sketch from its three section payloads —
/// the inverse of [`split_value`].
fn join_value(
    sharded: bool,
    conf: serde::Value,
    arry: serde::Value,
    cntr: serde::Value,
) -> Result<serde::Value, SnapshotError> {
    let serde::Value::Map(mut entries) = conf else {
        return Err(malformed("CONF section must decode to a map"));
    };
    if !sharded {
        entries.push(("store".to_string(), arry));
        entries.push(("estimates".to_string(), cntr));
        return Ok(serde::Value::Map(entries));
    }
    let serde::Value::Seq(rests) = take_field(&mut entries, "shards")? else {
        return Err(malformed("`shards` must be a sequence"));
    };
    let (serde::Value::Seq(stores), serde::Value::Seq(counters)) = (arry, cntr) else {
        return Err(malformed(
            "ARRY and CNTR sections of a sharded sketch must be sequences",
        ));
    };
    if rests.len() != stores.len() || rests.len() != counters.len() {
        return Err(malformed(format!(
            "shard count disagrees across sections: {} config, {} arrays, {} counter maps",
            rests.len(),
            stores.len(),
            counters.len()
        )));
    }
    let shards = rests
        .into_iter()
        .zip(stores)
        .zip(counters)
        .map(|((rest, store), counter)| join_value(false, rest, store, counter))
        .collect::<Result<_, _>>()?;
    entries.push(("shards".to_string(), serde::Value::Seq(shards)));
    Ok(serde::Value::Map(entries))
}

/// Writes `sketch` as an FSNP snapshot recording that `edges` stream
/// edges produced it.
///
/// # Errors
/// I/O errors from `w`.
pub fn save_snapshot(
    w: &mut dyn Write,
    sketch: &AnySketch,
    edges: u64,
) -> Result<(), SnapshotError> {
    let meta = serde::Value::Map(vec![
        (
            "kind".to_string(),
            serde::Value::Str(sketch.kind().to_string()),
        ),
        ("edges".to_string(), serde::Value::U64(edges)),
    ]);
    let (conf, arry, cntr) = split_value(sketch.is_sharded(), sketch.to_value())?;
    let meta_b = encode_value(&meta);
    let conf_b = encode_value(&conf);
    let arry_b = encode_value(&arry);
    let cntr_b = encode_value(&cntr);
    write_sections(
        w,
        &[
            (TAG_META, &meta_b),
            (TAG_CONF, &conf_b),
            (TAG_ARRY, &arry_b),
            (TAG_CNTR, &cntr_b),
        ],
    )
}

/// Reads an FSNP snapshot back into a sketch and the stream offset it was
/// taken at. The result has passed [`AnySketch::validate`].
///
/// # Errors
/// Any [`SnapshotError`]: bad magic, version skew, truncation, CRC
/// mismatch, missing section, or a payload that checksums but decodes to
/// an inconsistent sketch. Never panics on corrupt input.
pub fn load_snapshot(r: &mut dyn Read) -> Result<(AnySketch, u64), SnapshotError> {
    let sections = read_sections(r)?;
    let meta = decode_value(find_section(&sections, &TAG_META)?)?;
    let meta_map = meta
        .as_map()
        .ok_or_else(|| malformed("META section must decode to a map"))?;
    let kind = match serde::map_field(meta_map, "kind").map_err(serde_malformed)? {
        serde::Value::Str(s) => s.clone(),
        _ => return Err(malformed("META `kind` must be a string")),
    };
    let edges = match serde::map_field(meta_map, "edges").map_err(serde_malformed)? {
        serde::Value::U64(n) => *n,
        _ => return Err(malformed("META `edges` must be a u64")),
    };
    let conf = decode_value(find_section(&sections, &TAG_CONF)?)?;
    let arry = decode_value(find_section(&sections, &TAG_ARRY)?)?;
    let cntr = decode_value(find_section(&sections, &TAG_CNTR)?)?;
    let sharded = kind.starts_with("sharded");
    let value = join_value(sharded, conf, arry, cntr)?;
    let sketch = AnySketch::from_value(&kind, &value)?;
    sketch.validate()?;
    Ok((sketch, edges))
}

/// The sibling path checkpoint rotation keeps the previous good snapshot
/// at: `{path}.prev`.
#[must_use]
pub fn fallback_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// The sibling temp path snapshots are staged at before the atomic
/// rename: `{path}.part`.
#[must_use]
pub fn staging_path(path: &Path) -> PathBuf {
    sibling(path, ".part")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Writes a snapshot to `path` atomically: the bytes are staged at
/// [`staging_path`], fsynced, and renamed over `path`, so a crash at any
/// byte offset leaves either the old file or the new one — never a torn
/// snapshot under the final name.
///
/// # Errors
/// I/O or serialization errors; on error the staging file is removed.
pub fn save_snapshot_file(
    path: &Path,
    sketch: &AnySketch,
    edges: u64,
) -> Result<(), SnapshotError> {
    let part = staging_path(path);
    let result = write_staged(&part, sketch, edges)
        .and_then(|()| fs::rename(&part, path).map_err(SnapshotError::Io));
    if result.is_err() {
        let _ = fs::remove_file(&part);
    }
    result
}

fn write_staged(part: &Path, sketch: &AnySketch, edges: u64) -> Result<(), SnapshotError> {
    let file = fs::File::create(part)?;
    let mut w = BufWriter::new(file);
    save_snapshot(&mut w, sketch, edges)?;
    w.flush()?;
    let file = w
        .into_inner()
        .map_err(|e| SnapshotError::Io(e.into_error()))?;
    file.sync_all()?;
    Ok(())
}

/// Periodic atomic checkpoint writer with last-good rotation.
///
/// Every interval's worth of edges, the sketch is staged to
/// `{path}.part`, the current good checkpoint (if any) is rotated to
/// `{path}.prev`, and the staged file is renamed to `path`. Both renames
/// are atomic, so at every instant at least one of `path` / `{path}.prev`
/// holds a complete, checksummed snapshot — the invariant
/// [`load_with_fallback`] recovers through.
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: u64,
    last_at: u64,
    written: u64,
    crash_after: Option<u64>,
}

impl Checkpointer {
    /// Checkpoints to `path` every `every` ingested edges (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
            last_at: 0,
            written: 0,
            crash_after: None,
        }
    }

    /// Marks `edges` as already durably checkpointed (the offset restored
    /// from), so the next checkpoint fires one full interval later.
    #[must_use]
    pub fn starting_from(mut self, edges: u64) -> Self {
        self.last_at = edges;
        self
    }

    /// Fault-injection knob: the `n`-th checkpoint write (0-based) fails
    /// with a simulated crash *before* touching any file, as an abrupt
    /// process kill would. The CLI wires this to
    /// `FREESKETCH_CRASH_AFTER_CHECKPOINTS` for the crash/restore smoke
    /// test.
    #[must_use]
    pub fn with_crash_after(mut self, n: Option<u64>) -> Self {
        self.crash_after = n;
        self
    }

    /// The checkpoint path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checkpoints written so far by this instance.
    #[must_use]
    pub fn checkpoints_written(&self) -> u64 {
        self.written
    }

    /// Writes a checkpoint if at least one interval of edges has passed
    /// since the last one; returns whether it did.
    ///
    /// # Errors
    /// See [`Checkpointer::checkpoint_now`].
    pub fn maybe_checkpoint(
        &mut self,
        sketch: &AnySketch,
        edges: u64,
    ) -> Result<bool, SnapshotError> {
        if edges.saturating_sub(self.last_at) < self.every {
            return Ok(false);
        }
        self.checkpoint_now(sketch, edges)?;
        Ok(true)
    }

    /// Writes a checkpoint unconditionally (stage → rotate → rename).
    ///
    /// # Errors
    /// I/O errors; the previously completed checkpoint files are never
    /// left torn (only the staging file can be).
    pub fn checkpoint_now(&mut self, sketch: &AnySketch, edges: u64) -> Result<(), SnapshotError> {
        if self.crash_after == Some(self.written) {
            return Err(SnapshotError::Io(std::io::Error::other(format!(
                "simulated crash before checkpoint {} (fault injection)",
                self.written
            ))));
        }
        let part = staging_path(&self.path);
        if let Err(e) = write_staged(&part, sketch, edges) {
            let _ = fs::remove_file(&part);
            return Err(e);
        }
        if self.path.exists() {
            fs::rename(&self.path, fallback_path(&self.path))?;
        }
        fs::rename(&part, &self.path)?;
        self.written += 1;
        self.last_at = edges;
        Ok(())
    }
}

/// Restores from `path`, falling back to [`fallback_path`] when the
/// newest snapshot is corrupt or mid-rotation (present but torn, or
/// already rotated away by a crash between the two renames).
///
/// Returns `Ok(None)` when neither file exists (a cold start),
/// `Ok(Some((sketch, edges, used_fallback)))` otherwise.
///
/// # Errors
/// The *primary* snapshot's error when both files exist but neither
/// loads, or the fallback's error when the primary is absent and the
/// fallback is corrupt.
pub fn load_with_fallback(path: &Path) -> Result<Option<(AnySketch, u64, bool)>, SnapshotError> {
    let prev = fallback_path(path);
    match try_load(path) {
        Ok(Some((sketch, edges))) => Ok(Some((sketch, edges, false))),
        Ok(None) => match try_load(&prev)? {
            Some((sketch, edges)) => Ok(Some((sketch, edges, true))),
            None => Ok(None),
        },
        Err(primary_err) => match try_load(&prev) {
            Ok(Some((sketch, edges))) => Ok(Some((sketch, edges, true))),
            _ => Err(primary_err),
        },
    }
}

fn try_load(path: &Path) -> Result<Option<(AnySketch, u64)>, SnapshotError> {
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut r = BufReader::new(file);
    load_snapshot(&mut r).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(n: u64, salt: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 23, hashkit::splitmix64(i ^ salt) >> 20))
            .collect()
    }

    fn ingest(sketch: &mut AnySketch, es: &[Edge]) {
        // One ingest thread: bit-identity assertions need a deterministic
        // edge order even for the sharded kinds.
        let mut pairs = Vec::new();
        sketch.apply_chunk(es, &mut pairs, 512, 1);
    }

    fn snapshot_bytes(sketch: &AnySketch, offset: u64) -> Vec<u8> {
        let mut out = Vec::new();
        save_snapshot(&mut out, sketch, offset).expect("in-memory write");
        out
    }

    fn all_kinds() -> Vec<AnySketch> {
        vec![
            AnySketch::FreeBS(FreeBS::new(1 << 12, 7)),
            AnySketch::FreeRS(FreeRS::new(1 << 10, 7)),
            AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 12, 4, 7)),
            AnySketch::ShardedFreeRS(ShardedFreeRS::new(1 << 10, 4, 7)),
        ]
    }

    #[test]
    fn every_kind_round_trips_bit_identically() {
        for mut sketch in all_kinds() {
            let es = edges(4_000, 1);
            ingest(&mut sketch, &es);
            let bytes = snapshot_bytes(&sketch, 4_000);
            let (restored, offset) =
                load_snapshot(&mut bytes.as_slice()).expect("clean round trip");
            assert_eq!(offset, 4_000);
            assert_eq!(restored.kind(), sketch.kind());
            for u in 0..23u64 {
                assert_eq!(
                    restored.estimate(u),
                    sketch.estimate(u),
                    "{} user {u}",
                    sketch.kind()
                );
            }
            assert_eq!(restored.total_estimate(), sketch.total_estimate());
            // And the restored sketch keeps ingesting identically to the
            // original: q-tracker state survived exactly.
            let mut restored = restored;
            let more = edges(1_000, 2);
            ingest(&mut sketch, &more);
            ingest(&mut restored, &more);
            for u in 0..23u64 {
                assert_eq!(
                    restored.estimate(u),
                    sketch.estimate(u),
                    "{} diverged after resume, user {u}",
                    sketch.kind()
                );
            }
        }
    }

    #[test]
    fn kind_mismatch_is_config_error() {
        let mut bs = AnySketch::FreeBS(FreeBS::new(1 << 10, 1));
        let rs = AnySketch::FreeRS(FreeRS::new(1 << 10, 1));
        let err = bs.merge(&rs).expect_err("kind mismatch");
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn seed_and_geometry_mismatches_are_config_errors() {
        let mut a = AnySketch::FreeBS(FreeBS::new(1 << 10, 1));
        let b = AnySketch::FreeBS(FreeBS::new(1 << 10, 2));
        assert!(matches!(
            a.merge(&b),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        let c = AnySketch::FreeBS(FreeBS::new(1 << 11, 1));
        assert!(matches!(
            a.merge(&c),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        let mut sa = ShardedFreeBS::new(1 << 12, 4, 3);
        let sb = ShardedFreeBS::new(1 << 12, 8, 3);
        assert!(matches!(
            sa.merge(&sb),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpointer_rotates_and_recovers_from_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let mut sketch = AnySketch::FreeBS(FreeBS::new(1 << 12, 9));
        let mut ckpt = Checkpointer::new(&path, 1);
        ingest(&mut sketch, &edges(1_000, 3));
        ckpt.checkpoint_now(&sketch, 1_000)
            .expect("first checkpoint");
        ingest(&mut sketch, &edges(1_000, 4));
        ckpt.checkpoint_now(&sketch, 2_000)
            .expect("second checkpoint");
        assert_eq!(ckpt.checkpoints_written(), 2);
        assert!(
            fallback_path(&path).exists(),
            "rotation must keep last good"
        );

        // Newest intact → restore it.
        let (_, offset, used_fallback) = load_with_fallback(&path)
            .expect("restore")
            .expect("checkpoint exists");
        assert_eq!((offset, used_fallback), (2_000, false));

        // Corrupt the newest (flip one payload byte) → typed fallback.
        let mut bytes = fs::read(&path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite corrupted");
        let (restored, offset, used_fallback) = load_with_fallback(&path)
            .expect("fallback restore")
            .expect("fallback exists");
        assert_eq!((offset, used_fallback), (1_000, true));
        restored.validate().expect("fallback is consistent");

        // Both corrupt → the primary's typed error, never a panic.
        fs::write(fallback_path(&path), b"FSNPgarbage").expect("corrupt prev");
        let err = load_with_fallback(&path).expect_err("both corrupt");
        assert!(!err.to_string().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    /// Feeds `es` in `chunk`-edge chunks, offering `ckpt` a checkpoint
    /// after each one and writing the final one at the end — the order the
    /// CLI runner drives a checkpointer in.
    fn checkpointed(
        sketch: &mut AnySketch,
        es: &[Edge],
        chunk: usize,
        ckpt: &mut Checkpointer,
    ) -> Result<(), SnapshotError> {
        let mut seen = 0u64;
        for part in es.chunks(chunk) {
            ingest(sketch, part);
            seen += part.len() as u64;
            ckpt.maybe_checkpoint(sketch, seen)?;
        }
        ckpt.checkpoint_now(sketch, seen)
    }

    #[test]
    fn checkpointer_writes_at_interval_and_eof() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let mut sketch = AnySketch::FreeRS(FreeRS::new(1 << 10, 3));
        let mut ckpt = Checkpointer::new(&path, 4_000);
        checkpointed(&mut sketch, &edges(10_000, 5), 1_000, &mut ckpt).expect("clean ingest");
        // Interval checkpoints at 4k and 8k, plus the final one at EOF.
        assert_eq!(ckpt.checkpoints_written(), 3);
        let (_, offset, _) = load_with_fallback(&path)
            .expect("restore")
            .expect("checkpoint exists");
        assert_eq!(offset, 10_000);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulated_crash_is_an_io_error_and_keeps_last_good() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let mut sketch = AnySketch::FreeBS(FreeBS::new(1 << 12, 3));
        let mut ckpt = Checkpointer::new(&path, 3_000).with_crash_after(Some(1));
        let err = checkpointed(&mut sketch, &edges(10_000, 6), 1_000, &mut ckpt)
            .expect_err("fault injection fires");
        assert!(err.to_string().contains("simulated crash"), "{err}");
        // Exactly one checkpoint (at 3k edges) landed before the crash and
        // it restores cleanly.
        let (restored, offset, used_fallback) = load_with_fallback(&path)
            .expect("restore after crash")
            .expect("one checkpoint survived");
        assert_eq!((offset, used_fallback), (3_000, false));
        restored.validate().expect("consistent");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_kind_and_section_shape_drift_are_malformed() {
        let sketch = AnySketch::FreeBS(FreeBS::new(1 << 8, 1));
        let bytes = snapshot_bytes(&sketch, 0);
        let sections = read_sections(&mut bytes.as_slice()).expect("sections");
        // Re-encode META with an unknown kind, keep the other sections.
        let meta = serde::Value::Map(vec![
            ("kind".to_string(), serde::Value::Str("freeqs".to_string())),
            ("edges".to_string(), serde::Value::U64(0)),
        ]);
        let meta_b = encode_value(&meta);
        let rebuilt: Vec<([u8; 4], &[u8])> = sections
            .iter()
            .map(|(tag, payload)| {
                if *tag == TAG_META {
                    (*tag, meta_b.as_slice())
                } else {
                    (*tag, payload.as_slice())
                }
            })
            .collect();
        let mut out = Vec::new();
        write_sections(&mut out, &rebuilt).expect("rewrite");
        let err = load_snapshot(&mut out.as_slice()).expect_err("unknown kind");
        assert!(
            matches!(&err, SnapshotError::Malformed { detail } if detail.contains("freeqs")),
            "{err}"
        );
    }

    /// The `tuning` entry every engine's CONF carried before the ingest
    /// tuning was removed: a runtime block depth and warm distance.
    fn legacy_tuning() -> serde::Value {
        serde::Value::Map(vec![
            ("block".to_string(), serde::Value::U64(100)),
            ("warm_ahead".to_string(), serde::Value::U64(2)),
        ])
    }

    #[test]
    fn snapshots_with_a_legacy_tuning_entry_still_load() {
        for mut sketch in all_kinds() {
            ingest(&mut sketch, &edges(3_000, 5));
            let bytes = snapshot_bytes(&sketch, 3_000);
            let sections = read_sections(&mut bytes.as_slice()).expect("sections");
            let serde::Value::Map(mut conf) =
                decode_value(find_section(&sections, &TAG_CONF).expect("CONF"))
                    .expect("decode CONF")
            else {
                panic!("CONF is a map");
            };
            // Scalar engines carried it at the top level, sharded ones in
            // every shard's map.
            if let Some((_, serde::Value::Seq(shards))) =
                conf.iter_mut().find(|(k, _)| k == "shards")
            {
                for shard in shards {
                    if let serde::Value::Map(m) = shard {
                        m.push(("tuning".to_string(), legacy_tuning()));
                    }
                }
            } else {
                conf.push(("tuning".to_string(), legacy_tuning()));
            }
            let conf_b = encode_value(&serde::Value::Map(conf));
            let rebuilt: Vec<([u8; 4], &[u8])> = sections
                .iter()
                .map(|(tag, payload)| {
                    if *tag == TAG_CONF {
                        (*tag, conf_b.as_slice())
                    } else {
                        (*tag, payload.as_slice())
                    }
                })
                .collect();
            let mut legacy = Vec::new();
            write_sections(&mut legacy, &rebuilt).expect("rewrite");
            assert_ne!(legacy, bytes, "{}: the entry was injected", sketch.kind());

            let (restored, offset) =
                load_snapshot(&mut legacy.as_slice()).expect("legacy snapshot loads");
            assert_eq!(offset, 3_000);
            assert_eq!(restored.kind(), sketch.kind());
            for u in 0..23u64 {
                assert_eq!(restored.estimate(u), sketch.estimate(u), "user {u}");
            }
            assert_eq!(restored.total_estimate(), sketch.total_estimate());
            assert_eq!(restored.sampling_q(), sketch.sampling_q());
            assert_eq!(
                dispatch!(&restored, e => e.q()),
                dispatch!(&sketch, e => e.q()),
                "{}",
                sketch.kind()
            );
        }
    }

    #[test]
    fn sharded_sampling_q_is_the_minimum_shard_q() {
        let mut sketch = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 10, 2, 3));
        // Fill the shards unevenly so their q values differ.
        ingest(&mut sketch, &edges(600, 6));
        let q = sketch.sampling_q();
        let AnySketch::ShardedFreeBS(s) = sketch else {
            unreachable!()
        };
        assert!(q < s.q(), "minimum sits below the mean");
        let shard_q: Vec<f64> = s.into_shards().iter().map(FreeBS::q).collect();
        assert_eq!(shard_q.len(), 2);
        assert_ne!(shard_q[0], shard_q[1], "shards should differ");
        assert_eq!(q, shard_q[0].min(shard_q[1]));

        // One shard: the minimum is that shard's own q.
        let mut one = AnySketch::ShardedFreeRS(ShardedFreeRS::new(1 << 10, 1, 3));
        ingest(&mut one, &edges(600, 6));
        let q = one.sampling_q();
        let AnySketch::ShardedFreeRS(s) = one else {
            unreachable!()
        };
        assert_eq!(q, s.into_shards()[0].q());
    }
}

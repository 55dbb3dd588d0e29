//! Punctuation-aligned checkpointing: durable snapshots of an engine's
//! logical state with atomic commit and byte-identical resumption.
//!
//! The paper's safety guarantee makes punctuation boundaries natural
//! **consistent cuts**: once a punctuation has been fully applied, every
//! in-flight obligation is materialized in the state the paper names — the
//! stored tuples, the stored punctuations — plus the punctuation run admitted
//! since the last purge cycle; there is no hidden operator-local state to
//! drain. A snapshot of that state taken at such a cut, together with the
//! input cursor (elements consumed so far), is exactly what a restarted
//! executor needs to continue as if the crash never happened: resumed
//! outputs, purge totals, and peak-state metrics are byte-identical to an
//! uninterrupted run (proven by `tests/recovery_equivalence.rs` and the
//! `crates/chaos` crash harness).
//!
//! On-disk format of one snapshot file (`snap-NNNNNN.ckpt`):
//!
//! ```text
//! [magic "CJQS"] [version u32 LE] [payload len u64 LE] [FNV-1a-64 checksum]
//! [payload bytes ...]
//! ```
//!
//! The payload is written by the module-local `write_state` methods (each
//! stateful module serializes its own logical state through [`Enc`] and
//! re-inserts it through [`Dec`] after a fresh compile). Commit is
//! crash-atomic: write to a temp file, `fsync` the file, `rename` onto the
//! final name, `fsync` the directory. The store retains the two newest
//! snapshots; loading tries newest-first and falls back (counting
//! `Metrics::snapshot_fallbacks`) when a checksum or decode fails — a torn
//! or corrupted latest snapshot therefore recovers from the previous cut.
//!
//! What is deliberately **not** serialized: compiled layouts, probe plans,
//! purge recipes, index registrations and buckets — deterministic functions
//! of (query, schemes, plan, config) and the rows — and the engine's own
//! bookkeeping: tracker cursors, delta and retraction logs, slot ids and
//! the dead slots behind them. The restore path
//! recreates them by calling the normal compile path and re-inserting rows,
//! each linked at its insertion sequence, which reproduces the live run's
//! probe order exactly (probe buckets are invariantly seq-sorted).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cjq_core::punctuation::{Pattern, Punctuation};
use cjq_core::schema::StreamId;
use cjq_core::value::Value;

/// Snapshot file magic.
pub const MAGIC: [u8; 4] = *b"CJQS";
/// Snapshot format version.
pub const VERSION: u32 = 17;
/// File-frame header length: magic + version + payload len + checksum.
const HEADER: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit hash — the snapshot checksum and the config fingerprint
/// primitive (no external dependencies, stable across processes).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a 64 over a stream of `u64` words — used for structural
/// config/query fingerprints (never hash `Debug` strings: interned symbol
/// ids are process-local and would break cross-process restore).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word into the fingerprint.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A malformed or truncated snapshot payload. Surfaces to callers as
/// [`crate::error::ExecError::CheckpointCorrupt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Shorthand for fallible decode paths.
pub type SnapshotResult<T> = Result<T, SnapshotError>;

/// Little-endian binary encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct Enc {
    /// The payload built so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    #[must_use]
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (LE).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` (LE).
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends one tagged [`Value`]. Strings are written as **text** (intern
    /// ids are process-local) and re-interned on decode.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s.as_str());
            }
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Little-endian binary decoder over a snapshot payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf` starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> SnapshotResult<&'a [u8]> {
        // Compared against what is left, never `pos + n`: `n` may be a forged
        // length near `u64::MAX`.
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError(format!(
                "truncated payload: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> SnapshotResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> SnapshotResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> SnapshotResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i64` (LE).
    pub fn i64(&mut self) -> SnapshotResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u128` (LE).
    pub fn u128(&mut self) -> SnapshotResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads a `u64` narrowed to `usize`.
    pub fn usize(&mut self) -> SnapshotResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError(format!("usize overflow: {v}")))
    }

    /// Refuses an element count the bytes left cannot hold (each element
    /// takes at least `min_bytes`), so no decode site allocates for a forged
    /// length before the truncation would surface.
    pub(crate) fn fits(&self, n: usize, min_bytes: usize) -> SnapshotResult<usize> {
        if n > (self.buf.len() - self.pos) / min_bytes.max(1) {
            return Err(SnapshotError(format!(
                "length {n} at offset {} exceeds the {} bytes left",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Reads a count the compile fixes and refuses a snapshot taken over a
    /// different one: `ours` is how many `what` this engine has.
    pub(crate) fn count_of(&mut self, what: &str, ours: usize) -> SnapshotResult<usize> {
        match self.usize()? {
            n if n == ours => Ok(n),
            n => Err(SnapshotError(format!(
                "{ours} {what} here, {n} in the snapshot"
            ))),
        }
    }

    /// Reads a list whose length the compile fixes (see [`Dec::count_of`]).
    pub(crate) fn counted<T: Codec>(&mut self, what: &str, ours: usize) -> SnapshotResult<Vec<T>> {
        let n = self.count_of(what, ours)?;
        (0..n).map(|_| T::dec(self)).collect()
    }

    /// Reads a length prefix and checks it with [`Dec::fits`].
    pub(crate) fn len_prefix(&mut self, min_bytes: usize) -> SnapshotResult<usize> {
        let n = self.usize()?;
        self.fits(n, min_bytes)
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> SnapshotResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapshotResult<String> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| SnapshotError(format!("bad utf-8: {e}")))
    }

    /// Reads one tagged [`Value`], re-interning strings into this process.
    pub fn value(&mut self) -> SnapshotResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::str(&self.str()?)),
            t => Err(SnapshotError(format!("bad value tag {t}"))),
        }
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> SnapshotResult<Vec<u64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Asserts the whole payload was consumed.
    pub fn expect_end(&self) -> SnapshotResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// A type with one snapshot encoding, so that options, lists and lists of
/// lists of it need none of their own.
pub(crate) trait Codec: Sized {
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self>;
}

macro_rules! word_codecs {
    ($($t:ident),+) => {$(
        impl Codec for $t {
            fn enc(&self, e: &mut Enc) {
                e.$t(*self);
            }
            fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
                d.$t()
            }
        }
    )+};
}
word_codecs!(bool, u64, i64, usize, u128);

impl Codec for Value {
    fn enc(&self, e: &mut Enc) {
        e.value(self);
    }
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
        d.value()
    }
}

/// The stream, then the tagged patterns.
impl Codec for Punctuation {
    fn enc(&self, e: &mut Enc) {
        e.usize(self.stream.0);
        e.u64(self.patterns.len() as u64);
        for pat in &self.patterns {
            match pat {
                Pattern::Wildcard => e.u8(0),
                Pattern::Constant(v) => {
                    e.u8(1);
                    e.value(v);
                }
                Pattern::UpTo(v) => {
                    e.u8(2);
                    e.value(v);
                }
            }
        }
    }
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
        let stream = StreamId(d.usize()?);
        let n = d.len_prefix(1)?;
        let patterns = (0..n)
            .map(|_| match d.u8()? {
                0 => Ok(Pattern::Wildcard),
                1 => Ok(Pattern::Constant(d.value()?)),
                2 => Ok(Pattern::UpTo(d.value()?)),
                t => Err(SnapshotError(format!("bad pattern tag {t}"))),
            })
            .collect::<SnapshotResult<Vec<Pattern>>>()?;
        Ok(Punctuation { stream, patterns })
    }
}

/// A presence byte, then the value.
impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
        Ok(if d.bool()? { Some(T::dec(d)?) } else { None })
    }
}

/// A length word, then the elements. The length is checked against the bytes
/// left before anything is allocated for it.
impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.usize(self.len());
        self.iter().for_each(|v| v.enc(e));
    }
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
        let n = d.len_prefix(1)?;
        (0..n).map(|_| T::dec(d)).collect()
    }
}

/// What kind of state a snapshot holds — the restore entry points refuse a
/// snapshot of the wrong kind instead of misinterpreting the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A [`crate::parallel::Sharded`] plane: the router's counts and `P` shard
    /// sub-snapshots.
    Sharded,
    /// A [`crate::registry::QueryRegistry`], or the sealed one-tenant registry
    /// a [`crate::exec::Executor`] runs.
    Registry,
}

impl SnapshotKind {
    /// Stable wire tag (0 was the executor's own kind, before version 12).
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            SnapshotKind::Sharded => 1,
            SnapshotKind::Registry => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(t: u8) -> SnapshotResult<SnapshotKind> {
        match t {
            1 => Ok(SnapshotKind::Sharded),
            2 => Ok(SnapshotKind::Registry),
            t => Err(SnapshotError(format!("bad snapshot kind tag {t}"))),
        }
    }
}

/// The input cursor recorded in every snapshot manifest: how many feed
/// elements the snapshotted state has consumed. Resume skips exactly
/// `elements` elements of the regenerated (deterministic) feed; `per_stream`
/// is the per-stream breakdown (indexed by `StreamId.0`) for audit and for
/// multi-source feeds that replay each stream independently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputCursor {
    /// Total feed elements consumed (tuples + punctuations, pre-admission).
    pub elements: u64,
    /// Elements consumed per stream, indexed by `StreamId.0`.
    pub per_stream: Vec<u64>,
}

impl InputCursor {
    /// A zero cursor over `n_streams` streams.
    #[must_use]
    pub fn zero(n_streams: usize) -> InputCursor {
        InputCursor {
            elements: 0,
            per_stream: vec![0; n_streams],
        }
    }

    /// Advances the cursor past one element of `stream`.
    pub fn advance(&mut self, stream: StreamId) {
        self.elements += 1;
        if self.per_stream.len() <= stream.0 {
            self.per_stream.resize(stream.0 + 1, 0);
        }
        self.per_stream[stream.0] += 1;
    }

    /// Serializes the cursor.
    pub fn write(&self, e: &mut Enc) {
        e.u64(self.elements);
        e.u64s(&self.per_stream);
    }

    /// Deserializes a cursor.
    pub fn read(d: &mut Dec<'_>) -> SnapshotResult<InputCursor> {
        Ok(InputCursor {
            elements: d.u64()?,
            per_stream: d.u64s()?,
        })
    }
}

/// The common payload head every snapshot starts with: kind, structural
/// fingerprint (query/plan/config), checkpoint cadence, and input cursor.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// What the payload holds.
    pub kind: SnapshotKind,
    /// Structural fingerprint of (query, plan, config); restore refuses a
    /// snapshot whose fingerprint disagrees with the freshly compiled
    /// executor ([`crate::error::ExecError::RestoreMismatch`]).
    pub fingerprint: u64,
    /// Checkpoint interval (elements) the run was using — resume continues
    /// with the same cadence.
    pub every: u64,
    /// Input cursor at the cut.
    pub cursor: InputCursor,
}

impl Manifest {
    /// Serializes the manifest.
    pub fn write(&self, e: &mut Enc) {
        e.u8(self.kind.tag());
        e.u64(self.fingerprint);
        e.u64(self.every);
        self.cursor.write(e);
    }

    /// Deserializes a manifest.
    pub fn read(d: &mut Dec<'_>) -> SnapshotResult<Manifest> {
        let kind = SnapshotKind::from_tag(d.u8()?)?;
        Ok(Manifest {
            kind,
            fingerprint: d.u64()?,
            every: d.u64()?,
            cursor: InputCursor::read(d)?,
        })
    }
}

/// How many committed snapshots the store retains. Two: the latest plus one
/// fallback for torn/corrupted-latest recovery.
const RETAIN: usize = 2;

/// Owns one checkpoint directory: decides when a checkpoint is due
/// (punctuation-aligned, every `every` elements), commits snapshot payloads
/// atomically, prunes old snapshots, and loads the newest valid one.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    every: u64,
    /// Elements consumed since the last committed checkpoint.
    since: u64,
    next_seq: u64,
    /// Snapshots committed by this store instance.
    pub checkpoints_written: u64,
    /// Live state rows serialized across all commits (hot + mirror + cold).
    pub checkpoint_rows: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory. `every` is the
    /// minimum element count between checkpoints; the actual cut lands on
    /// the first punctuation at or after that count.
    pub fn open(dir: &Path, every: u64) -> std::io::Result<CheckpointStore> {
        fs::create_dir_all(dir)?;
        let next_seq = list_snapshots(dir).last().map_or(0, |&(seq, _)| seq + 1);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            every: every.max(1),
            since: 0,
            next_seq,
            checkpoints_written: 0,
            checkpoint_rows: 0,
        })
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured interval.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Notes one consumed element.
    pub fn note_element(&mut self) {
        self.since += 1;
    }

    /// Whether a checkpoint is due now: the interval has elapsed **and** the
    /// just-consumed element was a punctuation (the consistent cut).
    #[must_use]
    pub fn due(&self, at_punctuation: bool) -> bool {
        at_punctuation && self.since >= self.every
    }

    /// Commits `payload` as the next snapshot: temp write + fsync + rename +
    /// directory fsync, then prunes beyond the retention window. `rows` is
    /// the live state-row count serialized (for `Metrics::checkpoint_rows`).
    pub fn commit(&mut self, payload: &[u8], rows: u64) -> std::io::Result<PathBuf> {
        let seq = self.next_seq;
        let tmp = self.dir.join(format!("snap-{seq:06}.tmp"));
        let fin = self.dir.join(format!("snap-{seq:06}.ckpt"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&MAGIC)?;
            f.write_all(&VERSION.to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&fnv1a(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &fin)?;
        // Make the rename durable: fsync the directory (POSIX; best-effort
        // where directories cannot be opened for sync).
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.next_seq += 1;
        self.since = 0;
        self.checkpoints_written += 1;
        self.checkpoint_rows += rows;
        // Prune beyond the retention window (latest + fallback).
        let snaps = list_snapshots(&self.dir);
        if snaps.len() > RETAIN {
            for (_, path) in &snaps[..snaps.len() - RETAIN] {
                let _ = fs::remove_file(path);
            }
        }
        Ok(fin)
    }

    /// Loads the newest valid snapshot payload from `dir`, falling back to
    /// older snapshots on framing/checksum failure. Returns the payload, the
    /// number of snapshots skipped (`Metrics::snapshot_fallbacks`), and the
    /// winning path. `Err` carries a human-readable reason when no valid
    /// snapshot exists.
    pub fn load_latest(dir: &Path) -> Result<(Vec<u8>, u64, PathBuf), String> {
        let snaps = list_snapshots(dir);
        if snaps.is_empty() {
            return Err(format!("no snapshots in {}", dir.display()));
        }
        let mut fallbacks = 0u64;
        let mut last_err = String::new();
        for (_, path) in snaps.iter().rev() {
            match read_frame(path) {
                Ok(payload) => return Ok((payload, fallbacks, path.clone())),
                Err(e) => {
                    fallbacks += 1;
                    last_err = format!("{}: {e}", path.display());
                }
            }
        }
        Err(format!("no valid snapshot: {last_err}"))
    }
}

/// All committed snapshots in `dir`, sorted by sequence number (ascending).
#[must_use]
pub fn list_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut snaps: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq = name
                .strip_prefix("snap-")?
                .strip_suffix(".ckpt")?
                .parse::<u64>()
                .ok()?;
            Some((seq, e.path()))
        })
        .collect();
    snaps.sort_unstable();
    snaps
}

/// Reads and validates one snapshot file frame, returning the payload.
fn read_frame(path: &Path) -> Result<Vec<u8>, String> {
    let bytes = fs::read(path).map_err(|e| format!("read failed: {e}"))?;
    if bytes.len() < HEADER {
        return Err(format!("truncated header ({} bytes)", bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
    if (bytes.len() - HEADER) as u64 != len {
        return Err(format!(
            "payload length mismatch: header says {len}, file has {}",
            bytes.len() - HEADER
        ));
    }
    let payload = &bytes[HEADER..];
    let actual = fnv1a(payload);
    if actual != checksum {
        return Err(format!(
            "checksum mismatch: stored {checksum:#018x}, computed {actual:#018x}"
        ));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cjq-ckpt-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn codec_round_trips_all_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.u128(u128::MAX / 3);
        e.bool(true);
        e.str("héllo");
        e.value(&Value::Null);
        e.value(&Value::Bool(false));
        e.value(&Value::Int(-7));
        e.value(&Value::str("sym"));
        None::<Value>.enc(&mut e);
        Some(Value::Int(5)).enc(&mut e);
        e.u64s(&[1, 2, 3]);
        vec![vec![Value::Int(1)], vec![]].enc(&mut e);
        Punctuation {
            stream: StreamId(2),
            patterns: vec![
                Pattern::Wildcard,
                Pattern::Constant(Value::Int(9)),
                Pattern::UpTo(Value::str("z")),
            ],
        }
        .enc(&mut e);
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.u128().unwrap(), u128::MAX / 3);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.value().unwrap(), Value::Null);
        assert_eq!(d.value().unwrap(), Value::Bool(false));
        assert_eq!(d.value().unwrap(), Value::Int(-7));
        assert_eq!(d.value().unwrap(), Value::str("sym"));
        assert_eq!(Option::<Value>::dec(&mut d).unwrap(), None);
        assert_eq!(Codec::dec(&mut d), Ok(Some(Value::Int(5))));
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        let rows: Vec<Vec<Value>> = Codec::dec(&mut d).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![]]);
        let p = Punctuation::dec(&mut d).unwrap();
        assert_eq!(p.stream, StreamId(2));
        assert_eq!(p.patterns.len(), 3);
        d.expect_end().unwrap();
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(5);
        let mut d = Dec::new(&e.buf[..4]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn commit_load_round_trip_and_retention() {
        let dir = tmpdir("roundtrip");
        let mut store = CheckpointStore::open(&dir, 10).unwrap();
        store.commit(b"first", 1).unwrap();
        store.commit(b"second", 2).unwrap();
        store.commit(b"third", 3).unwrap();
        // Retention keeps the two newest.
        assert_eq!(list_snapshots(&dir).len(), 2);
        let (payload, fallbacks, _) = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(payload, b"third");
        assert_eq!(fallbacks, 0);
        assert_eq!(store.checkpoints_written, 3);
        assert_eq!(store.checkpoint_rows, 6);
        // Re-opening continues the sequence.
        let store2 = CheckpointStore::open(&dir, 10).unwrap();
        assert!(store2.next_seq >= 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        store.commit(b"good", 0).unwrap();
        let latest = store.commit(b"bad-to-be", 0).unwrap();
        // Flip a payload byte in the latest snapshot.
        let mut bytes = fs::read(&latest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&latest, &bytes).unwrap();
        let (payload, fallbacks, _) = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(payload, b"good");
        assert_eq!(fallbacks, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_snapshots_corrupt_is_an_error() {
        let dir = tmpdir("allbad");
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let p = store.commit(b"only", 0).unwrap();
        fs::write(&p, b"garbage").unwrap();
        assert!(CheckpointStore::load_latest(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn due_requires_punctuation_alignment() {
        let dir = tmpdir("due");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        for _ in 0..5 {
            store.note_element();
        }
        assert!(!store.due(false), "never cut mid-tuple");
        assert!(store.due(true));
        store.commit(b"x", 0).unwrap();
        assert!(!store.due(true), "interval resets after commit");
        let _ = fs::remove_dir_all(&dir);
    }
}

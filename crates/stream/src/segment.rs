//! Append-only columnar segments: the on-disk half of the tiered join state.
//!
//! When the bounded-state watchdog demotes cold rows out of a
//! [`crate::state::PortState`] arena, they land here as one immutable
//! **segment file** per demotion chunk. The layout is column-major (like the
//! `GraphMMap` adjacency files in the dataflow-join lineage): a probe miss
//! that needs to test one key column reads only that column's byte range,
//! not the whole segment. Values are fixed-width — a 1-byte type tag plus an
//! 8-byte little-endian payload — so column offsets are pure arithmetic;
//! string payloads store the process-local intern id
//! ([`cjq_core::value::Sym::id`]), which [`cjq_core::value::Sym::from_id`]
//! round-trips back to the symbol.
//!
//! What stays in memory per segment: a live bitmap (rows fault back
//! individually), each row's original insertion sequence (so fault-back can
//! restore exact probe order), a membership summary per probe column (to
//! filter faults), and a per-purge-step key summary (so a punctuation recipe
//! that covers the whole summary certifies the segment dead and drops it
//! without rehydration).
//!
//! File layout for `rows` rows of `stride` columns:
//!
//! ```text
//! [seq column: rows × 8 bytes u64 LE]
//! [column 0:   rows × 9 bytes (tag, payload LE)]
//! [column 1:   rows × 9 bytes]
//! ...
//! ```

use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::PathBuf;

use cjq_core::fxhash::FxHashSet;
use cjq_core::value::{Sym, Value};

/// Encoded width of one value: type tag + 8-byte payload.
const VALUE_BYTES: usize = 9;
/// Max distinct values kept exactly in a column summary before it degrades
/// to a min/max range.
const COL_KEY_CAP: usize = 512;
/// Max distinct key combinations kept in a hash-step summary before the
/// segment becomes uncertifiable (it can still fault back or rehydrate).
const COMBO_CAP: usize = 128;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(1);
            out.extend_from_slice(&u64::from(*b).to_le_bytes());
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&u64::from(s.id()).to_le_bytes());
        }
    }
}

fn decode_value(bytes: &[u8]) -> Value {
    debug_assert_eq!(bytes.len(), VALUE_BYTES);
    let payload: [u8; 8] = bytes[1..VALUE_BYTES].try_into().expect("value payload");
    match bytes[0] {
        0 => Value::Null,
        1 => Value::Bool(payload[0] != 0),
        2 => Value::Int(i64::from_le_bytes(payload)),
        3 => {
            let id = u32::try_from(u64::from_le_bytes(payload)).expect("intern id width");
            Value::Str(Sym::from_id(id).expect("segment symbol was interned in this process"))
        }
        t => panic!("corrupt segment value tag {t}"),
    }
}

/// Membership summary of one probe column: exact key set while small, else
/// a min/max range. Always an over-approximation of the *live* rows (keys
/// are not removed on fault-back), which keeps `may_contain` sound.
#[derive(Debug, Clone)]
enum ColSummary {
    /// Sorted distinct values — exact membership by binary search.
    Keys(Vec<Value>),
    /// Too many distincts: closed min/max range.
    Range(Value, Value),
}

impl ColSummary {
    fn build(mut values: Vec<Value>) -> ColSummary {
        values.sort_unstable();
        values.dedup();
        if values.len() <= COL_KEY_CAP {
            ColSummary::Keys(values)
        } else {
            let lo = values[0];
            let hi = values[values.len() - 1];
            ColSummary::Range(lo, hi)
        }
    }

    fn may_contain(&self, v: &Value) -> bool {
        match self {
            ColSummary::Keys(keys) => keys.binary_search(v).is_ok(),
            ColSummary::Range(lo, hi) => lo <= v && v <= hi,
        }
    }
}

/// Certification summary of one purge-recipe step over a segment's rows.
#[derive(Debug, Clone)]
pub(crate) enum StepSummary {
    /// Ordered scheme: the maximum key present. Thresholds are
    /// downward-closed, so coverage of the max certifies every row.
    Max(Value),
    /// Hash scheme: every distinct key combination present (≤ [`COMBO_CAP`]).
    Combos(Vec<Vec<Value>>),
    /// Too many combinations — this segment is never bulk-certified.
    Open,
}

/// One immutable on-disk spill segment plus its in-memory metadata.
#[derive(Debug)]
pub(crate) struct Segment {
    path: PathBuf,
    stride: usize,
    rows: usize,
    /// Bit `i` set iff row `i` is still cold here (clears on fault-back).
    live_bits: Vec<u64>,
    live: usize,
    /// Original insertion sequence of each row (restores probe order).
    seqs: Vec<u64>,
    col_summaries: Vec<(usize, ColSummary)>,
    step_summaries: Vec<StepSummary>,
}

impl Segment {
    /// Writes `rows` (original sequence + values) to `path` column-major and
    /// returns the segment with summaries over `probe_cols` and `steps` —
    /// per purge-recipe step, whether its scheme is ordered and its key's
    /// flat columns in the port layout (`PurgeTracker::keyed`).
    pub(crate) fn write<'k>(
        path: PathBuf,
        stride: usize,
        rows: &[(u64, Vec<Value>)],
        probe_cols: &[usize],
        steps: impl Iterator<Item = (bool, &'k [usize])>,
    ) -> Segment {
        assert!(!rows.is_empty(), "empty segment");
        let n = rows.len();
        let mut buf = Vec::with_capacity(n * 8 + n * stride * VALUE_BYTES);
        for (seq, _) in rows {
            buf.extend_from_slice(&seq.to_le_bytes());
        }
        for col in 0..stride {
            for (_, row) in rows {
                encode_value(&row[col], &mut buf);
            }
        }
        fs::write(&path, &buf).expect("cold-tier segment write");

        let col_summaries = probe_cols
            .iter()
            .map(|&c| {
                let vals: Vec<Value> = rows.iter().map(|(_, r)| r[c]).collect();
                (c, ColSummary::build(vals))
            })
            .collect();
        let step_summaries = steps
            .map(|(ordered, cols)| {
                if ordered {
                    let max = rows
                        .iter()
                        .map(|(_, r)| r[cols[0]])
                        .max()
                        .expect("non-empty segment");
                    StepSummary::Max(max)
                } else {
                    let mut combos: Vec<Vec<Value>> = rows
                        .iter()
                        .map(|(_, r)| cols.iter().map(|&c| r[c]).collect())
                        .collect();
                    combos.sort_unstable();
                    combos.dedup();
                    if combos.len() <= COMBO_CAP {
                        StepSummary::Combos(combos)
                    } else {
                        StepSummary::Open
                    }
                }
            })
            .collect();

        Segment {
            path,
            stride,
            rows: n,
            live_bits: vec![u64::MAX; n.div_ceil(64)],
            live: n,
            seqs: rows.iter().map(|(s, _)| *s).collect(),
            col_summaries,
            step_summaries,
        }
    }

    /// Rows still cold in this segment.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Per-purge-step certification summaries (empty when the recipe was not
    /// root-resolvable for this port).
    pub(crate) fn step_summaries(&self) -> &[StepSummary] {
        &self.step_summaries
    }

    #[inline]
    fn is_live(&self, row: usize) -> bool {
        self.live_bits[row / 64] & (1 << (row % 64)) != 0
    }

    /// Whether a probe for `key` on `col` could match a cold row here.
    pub(crate) fn may_contain(&self, col: usize, key: &Value) -> bool {
        if self.live == 0 {
            return false;
        }
        self.col_summaries
            .iter()
            .find(|(c, _)| *c == col)
            .is_none_or(|(_, s)| s.may_contain(key))
    }

    /// Faults out every live row whose `col` value is in `keys`: reads the
    /// column range from disk, then (only if something matched) the full
    /// segment, marks the matches dead, and returns them as
    /// `(original sequence, values)`.
    pub(crate) fn fault_matching(
        &mut self,
        col: usize,
        keys: &FxHashSet<Value>,
    ) -> Vec<(u64, Vec<Value>)> {
        if self.live == 0 {
            return Vec::new();
        }
        let mut file = fs::File::open(&self.path).expect("cold-tier segment open");
        let col_off = (self.rows * 8 + col * self.rows * VALUE_BYTES) as u64;
        file.seek(SeekFrom::Start(col_off))
            .expect("cold-tier segment seek");
        let mut col_buf = vec![0u8; self.rows * VALUE_BYTES];
        file.read_exact(&mut col_buf)
            .expect("cold-tier segment column read");
        let matched: Vec<usize> = (0..self.rows)
            .filter(|&i| self.is_live(i))
            .filter(|&i| {
                let v = decode_value(&col_buf[i * VALUE_BYTES..(i + 1) * VALUE_BYTES]);
                keys.contains(&v)
            })
            .collect();
        if matched.is_empty() {
            return Vec::new();
        }
        let rows = self.read_rows(&matched);
        for &i in &matched {
            self.live_bits[i / 64] &= !(1 << (i % 64));
        }
        self.live -= matched.len();
        rows
    }

    /// Reads and marks dead every remaining live row (finish-time
    /// rehydration of an uncertified segment).
    pub(crate) fn drain_live(&mut self) -> Vec<(u64, Vec<Value>)> {
        let live: Vec<usize> = (0..self.rows).filter(|&i| self.is_live(i)).collect();
        if live.is_empty() {
            return Vec::new();
        }
        let rows = self.read_rows(&live);
        self.live_bits.iter_mut().for_each(|w| *w = 0);
        self.live = 0;
        rows
    }

    /// Reads back **every** row — live and faulted-out alike — without
    /// changing liveness. Checkpointing uses this: a restored segment must be
    /// rebuilt from the same full row set so its summaries come out identical
    /// (they over-approximate by retaining faulted-out rows' keys, and a
    /// tighter rebuilt summary could certify-drop a segment the original run
    /// kept).
    pub(crate) fn read_all(&self) -> Vec<(u64, Vec<Value>)> {
        let idxs: Vec<usize> = (0..self.rows).collect();
        self.read_rows(&idxs)
    }

    /// The raw liveness bitmap (one bit per row, row-major).
    pub(crate) fn live_bits(&self) -> &[u64] {
        &self.live_bits
    }

    /// Overwrites the liveness bitmap — the restore path writes the full row
    /// set first (see [`Segment::read_all`]) and then replays which rows had
    /// already faulted out.
    pub(crate) fn restore_live_bits(&mut self, bits: Vec<u64>, live: usize) {
        assert_eq!(bits.len(), self.live_bits.len(), "liveness bitmap width");
        self.live_bits = bits;
        self.live = live;
    }

    /// Full-segment read of the given row indexes.
    fn read_rows(&self, idxs: &[usize]) -> Vec<(u64, Vec<Value>)> {
        let bytes = fs::read(&self.path).expect("cold-tier segment read");
        idxs.iter()
            .map(|&i| {
                let row: Vec<Value> = (0..self.stride)
                    .map(|c| {
                        let off = self.rows * 8 + c * self.rows * VALUE_BYTES + i * VALUE_BYTES;
                        decode_value(&bytes[off..off + VALUE_BYTES])
                    })
                    .collect();
                (self.seqs[i], row)
            })
            .collect()
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // Best-effort: the owning SpillStore removes the whole directory as
        // a backstop.
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cjq-seg-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn row(a: i64, b: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b)]
    }

    #[test]
    fn round_trips_all_value_kinds() {
        let rows = vec![(
            7u64,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::str("hello"),
            ],
        )];
        let mut seg = Segment::write(tmp("kinds.seg"), 4, &rows, &[], std::iter::empty());
        let back = seg.drain_live();
        assert_eq!(back, rows);
        assert_eq!(seg.live(), 0);
    }

    #[test]
    fn fault_matching_filters_by_summary_and_marks_dead() {
        let rows: Vec<(u64, Vec<Value>)> = (0..10).map(|i| (i, row(i as i64 % 3, "x"))).collect();
        let mut seg = Segment::write(tmp("fault.seg"), 2, &rows, &[0], std::iter::empty());
        assert!(seg.may_contain(0, &Value::Int(1)));
        assert!(!seg.may_contain(0, &Value::Int(9)));
        let keys: FxHashSet<Value> = [Value::Int(1)].into_iter().collect();
        let out = seg.fault_matching(0, &keys);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, r)| r[0] == Value::Int(1)));
        assert_eq!(seg.live(), 7);
        // Faulted rows are gone; a second fault for the same key is empty.
        assert!(seg.fault_matching(0, &keys).is_empty());
        assert_eq!(seg.drain_live().len(), 7);
    }

    #[test]
    fn step_summaries_capture_max_and_combos() {
        let rows: Vec<(u64, Vec<Value>)> = (0..5).map(|i| (i, row(i as i64, "k"))).collect();
        let steps = [(true, &[0][..]), (false, &[1][..])];
        let seg = Segment::write(tmp("steps.seg"), 2, &rows, &[0], steps.into_iter());
        match &seg.step_summaries()[0] {
            StepSummary::Max(v) => assert_eq!(*v, Value::Int(4)),
            other => panic!("expected Max, got {other:?}"),
        }
        match &seg.step_summaries()[1] {
            StepSummary::Combos(c) => assert_eq!(c, &vec![vec![Value::str("k")]]),
            other => panic!("expected Combos, got {other:?}"),
        }
    }
}

//! Tiered join state: the cold tier beneath [`crate::state::PortState`].
//!
//! Without it, a [`crate::exec::StateBudget`] that a purge cycle cannot
//! serve fails the run. This module adds the lossless alternative the
//! paper's safety theory enables: rows that punctuations have **not yet**
//! proven dead, but that the hot arena has no room for, are demoted into
//! on-disk columnar `Segment`s. Probes consult segment summaries and fault
//! matching rows back; punctuation recipes that cover a whole segment's key
//! summary drop it unread (the certified on-disk purge). The design follows
//! the partially-stateful dataflow model (Noria's upquery/eviction split):
//! eviction is a performance decision, never a correctness decision.
//!
//! Three pieces live here:
//!
//! * [`TierConfig`] — knobs carried in [`crate::exec::ExecConfig::tiering`];
//! * [`SpillStore`] — owns one run's spill directory (per shard) and hands
//!   out segment paths; the directory is removed on drop;
//! * `ColdTier` — one port's set of segments plus demand-fault, certified
//!   drop, and rehydration entry points, used by [`crate::join::JoinOperator`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cjq_core::fxhash::FxHashSet;
use cjq_core::schema::StreamId;
use cjq_core::value::Value;

use cjq_core::purge_plan::CompiledStep;

use crate::purge::{Meet, PurgeEngine};
use crate::segment::{Segment, StepSummary};

/// Cold-tier knobs (carried by value inside `ExecConfig`, hence `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Rows per spilled segment. Smaller segments fault and certify at finer
    /// grain; larger ones amortize file overhead.
    pub segment_rows: usize,
    /// Demotion target as a percentage of the state budget: when the budget
    /// trips, demote down to this watermark rather than barely under the cap,
    /// so steady-state inserts don't re-trip the budget every element.
    pub low_watermark_pct: u8,
    /// Tag mixed into the spill directory name; parallel shards set their
    /// shard index so concurrent executors never share segment files.
    pub shard_tag: u32,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            segment_rows: 256,
            low_watermark_pct: 75,
            shard_tag: 0,
        }
    }
}

crate::metrics::facts! {
    /// Cumulative tier counters, aggregated into [`crate::metrics::Metrics`]
    /// (per port → per operator → per engine: counters add).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TierStats {
        /// Rows demoted from the hot arena into segments.
        pub rows_demoted: u64 => sum,
        /// Rows faulted back into the hot arena (demand faults + finish-time
        /// rehydration).
        pub rows_faulted: u64 => sum,
        /// Segments written to disk.
        pub segments_written: u64 => sum,
        /// Segments removed — certified-dropped by a covering recipe or fully
        /// drained by fault-back.
        pub segments_retired: u64 => sum,
    }
}

static SPILL_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Owns one executor's spill directory and allocates segment file paths.
///
/// The directory name mixes the process id, a process-global instance
/// counter, and the config's shard tag, so concurrent executors (tests,
/// shards, registries) never collide. Dropping the store removes the
/// directory and everything in it — a backstop behind per-segment cleanup.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    next_file: u64,
}

impl SpillStore {
    /// Creates a fresh spill directory under the system temp dir.
    #[must_use]
    pub fn new(shard_tag: u32) -> SpillStore {
        let inst = SPILL_INSTANCE.fetch_add(1, Ordering::Relaxed);
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let dir = std::env::temp_dir().join(format!(
            "cjq-spill-{}-{nonce:x}-{inst}-s{shard_tag}",
            std::process::id()
        ));
        // Pids recycle (a `kill -9`'d replay leaves its directory behind and
        // the pid can come back), so the name alone is not collision-proof
        // across runs: the nanosecond nonce makes reuse practically
        // impossible, and clearing any leftover contents makes a collision
        // harmless rather than a source of stale segment files.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create cold-tier spill directory");
        SpillStore { dir, next_file: 0 }
    }

    /// The spill directory path.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Allocates the next segment path for the given operator port.
    pub(crate) fn alloc(&mut self, op: usize, port: usize) -> PathBuf {
        let n = self.next_file;
        self.next_file += 1;
        self.dir.join(format!("op{op}-p{port}-{n:06}.seg"))
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A port's meet. One of a single recipe whose every step is rooted certifies
/// whole segments by their per-step key summaries ([`Meet::single`]); any other
/// port's segments only leave by fault-back or finish-time rehydration.
pub(crate) type Held<'r> = &'r Meet;

/// The steps of `held`'s one recipe with their key columns, where all are rooted.
fn keyed(held: Held<'_>) -> Option<impl Iterator<Item = (&CompiledStep, &[usize])> + Clone> {
    let (recipe, tracker) = held.single()?;
    tracker.keyed(recipe)
}

/// The first purge step's key columns — demotion groups victims by these so
/// segment summaries stay tight (empty when uncertifiable).
pub(crate) fn group_cols(held: Held<'_>) -> &[usize] {
    keyed(held)
        .and_then(|mut steps| steps.next())
        .map_or(&[], |(_, cols)| cols)
}

/// Whether `engine`'s stores cover every step summary of `seg`: the recipe
/// proves every summarized row dead. Ordered thresholds are
/// downward-closed, so covering a summary's max covers the whole segment;
/// hash coverage needs every distinct key combination present. A row's
/// requirement per step is one combination at most, which every legal
/// coverage limit (≥ 1) admits.
fn covered<'r>(
    steps: impl Iterator<Item = (&'r CompiledStep, &'r [usize])> + Clone,
    seg: &Segment,
    engine: &PurgeEngine,
) -> bool {
    let summaries = seg.step_summaries();
    let covers = |((step, _), summary): ((&CompiledStep, _), &StepSummary)| {
        let store = engine.punct_store(step.target);
        match summary {
            StepSummary::Max(v) => store.covers(step.scheme_idx, std::slice::from_ref(v)),
            StepSummary::Combos(combos) => combos.iter().all(|c| store.covers(step.scheme_idx, c)),
            StepSummary::Open => false,
        }
    };
    summaries.len() == steps.clone().count() && steps.zip(summaries).all(covers)
}

/// The cold tier of one operator port: spilled segments, summarized by the
/// port recipe's rooted step keys so a covering recipe can certify whole
/// segments dead.
#[derive(Debug)]
pub(crate) struct ColdTier {
    /// Flat columns a probe step looks this port up by (summarized per segment).
    pub(crate) probe_cols: Vec<usize>,
    segments: Vec<Segment>,
    pub(crate) stats: TierStats,
}

impl ColdTier {
    pub(crate) fn new(probe_cols: Vec<usize>) -> ColdTier {
        ColdTier {
            probe_cols,
            segments: Vec::new(),
            stats: TierStats::default(),
        }
    }

    /// Rows currently resident in the cold tier.
    pub(crate) fn cold_rows(&self) -> usize {
        self.segments.iter().map(Segment::live).sum()
    }

    /// Spills `rows` (original sequence + values) as one new segment.
    pub(crate) fn spill(
        &mut self,
        path: PathBuf,
        stride: usize,
        rows: &[(u64, Vec<Value>)],
        held: Held<'_>,
    ) {
        let steps = keyed(held).into_iter().flatten();
        let steps = steps.map(|(step, cols)| (step.ordered, cols));
        let segment = Segment::write(path, stride, rows, &self.probe_cols, steps);
        self.segments.push(segment);
        self.stats.rows_demoted += rows.len() as u64;
        self.stats.segments_written += 1;
    }

    /// Faults out every cold row whose `col` value is in `keys`. Segments
    /// whose summary excludes all keys are never read; segments drained to
    /// zero are retired.
    pub(crate) fn fault(&mut self, col: usize, keys: &FxHashSet<Value>) -> Vec<(u64, Vec<Value>)> {
        let mut out = Vec::new();
        for seg in &mut self.segments {
            if keys.iter().any(|k| seg.may_contain(col, k)) {
                out.extend(seg.fault_matching(col, keys));
            }
        }
        self.stats.rows_faulted += out.len() as u64;
        self.retire_empty();
        out
    }

    /// Drops every segment whose step summaries `engine`'s stores cover —
    /// the certified on-disk purge. Returns the number of rows dropped (they
    /// count as purged, exactly as if each had been checked individually).
    pub(crate) fn drop_covered(&mut self, held: Held<'_>, engine: &PurgeEngine) -> u64 {
        let Some(steps) = keyed(held) else { return 0 };
        let mut dropped = 0u64;
        let mut retired = 0u64;
        self.segments.retain(|seg| {
            let covered = covered(steps.clone(), seg, engine);
            if covered {
                dropped += seg.live() as u64;
                retired += 1;
            }
            !covered
        });
        self.stats.segments_retired += retired;
        dropped
    }

    /// Whether a cold row may still need entry `key` of `target`'s scheme
    /// `scheme_idx` to certify: a live segment summarizes it under a step on
    /// that scheme — or the tier cannot tell (no rooted recipe, an open
    /// summary).
    pub(crate) fn needs(
        &self,
        held: Held<'_>,
        (target, scheme_idx): (StreamId, usize),
        key: &Value,
    ) -> bool {
        let Some(steps) = keyed(held) else {
            return self.cold_rows() > 0;
        };
        let live = self.segments.iter().filter(|seg| seg.live() > 0);
        let steps = live.flat_map(|seg| steps.clone().zip(seg.step_summaries()));
        let mut on_scheme =
            steps.filter(|((step, _), _)| step.target == target && step.scheme_idx == scheme_idx);
        on_scheme.any(|(_, summary)| match summary {
            StepSummary::Combos(combos) => combos.iter().any(|combo| combo[..] == [*key]),
            StepSummary::Open => true,
            StepSummary::Max(_) => false,
        })
    }

    /// Whether any live segment is fully covered by `engine`'s stores — the
    /// certificate verifier asserts this is `false` after every purge cycle
    /// (a covered segment surviving a cycle would be a provably-dead row
    /// outliving its certificate in the cold tier).
    pub(crate) fn any_covered(&self, held: Held<'_>, engine: &PurgeEngine) -> bool {
        let Some(steps) = keyed(held) else {
            return false;
        };
        let mut live = self.segments.iter().filter(|seg| seg.live() > 0);
        live.any(|seg| covered(steps.clone(), seg, engine))
    }

    /// Drains every remaining cold row (finish-time rehydration), retiring
    /// all segments.
    pub(crate) fn rehydrate(&mut self) -> Vec<(u64, Vec<Value>)> {
        let mut out = Vec::new();
        for seg in &mut self.segments {
            out.extend(seg.drain_live());
        }
        self.stats.rows_faulted += out.len() as u64;
        self.stats.segments_retired += self.segments.len() as u64;
        self.segments.clear();
        out
    }

    fn retire_empty(&mut self) {
        let before = self.segments.len();
        self.segments.retain(|s| s.live() > 0);
        self.stats.segments_retired += (before - self.segments.len()) as u64;
    }

    /// Serializes the tier's segments and counters. Each segment is written
    /// as its **full** row set plus the liveness bitmap — not just the live
    /// rows — because restore rebuilds segments by re-spilling, and the
    /// rebuilt summaries must match the originals exactly (they retain
    /// faulted-out rows' keys; a tighter summary could certify-drop a
    /// segment the uninterrupted run kept, diverging the purge totals).
    pub(crate) fn write_state(&self, e: &mut crate::checkpoint::Enc) {
        e.usize(self.segments.len());
        for seg in &self.segments {
            let rows = seg.read_all();
            e.usize(rows.len());
            for (seq, row) in &rows {
                e.u64(*seq);
                for v in row {
                    e.value(v);
                }
            }
            e.u64s(seg.live_bits());
            e.usize(seg.live());
        }
        self.stats.write_state(e);
    }

    /// Rebuilds the tier from a snapshot: re-spills each serialized segment
    /// into freshly allocated files of `store`, then replays its liveness
    /// bitmap. The counters are overwritten last (re-spilling bumps them).
    /// `head` is the port's next insertion sequence: a cold row was inserted
    /// before it.
    pub(crate) fn read_state(
        &mut self,
        d: &mut crate::checkpoint::Dec<'_>,
        store: &mut SpillStore,
        (op, port): (usize, usize),
        (stride, head): (usize, u64),
        held: Held<'_>,
    ) -> crate::checkpoint::SnapshotResult<()> {
        use crate::checkpoint::SnapshotError;
        let n = d.len_prefix(8)?;
        self.segments.clear();
        for _ in 0..n {
            let n_rows = d.len_prefix(8)?;
            if n_rows == 0 {
                return Err(SnapshotError("empty cold segment in snapshot".into()));
            }
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let seq = d.u64()?;
                if seq >= head {
                    return Err(SnapshotError("cold row newer than its port's head".into()));
                }
                let mut row = Vec::with_capacity(stride);
                for _ in 0..stride {
                    row.push(d.value()?);
                }
                rows.push((seq, row));
            }
            let bits = d.u64s()?;
            let live = d.usize()?;
            if bits.len() != n_rows.div_ceil(64) || live > n_rows {
                return Err(SnapshotError(
                    "cold segment liveness bitmap malformed".into(),
                ));
            }
            self.spill(store.alloc(op, port), stride, &rows, held);
            self.segments
                .last_mut()
                .expect("just spilled")
                .restore_live_bits(bits, live);
        }
        self.stats = TierStats::read_state(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_store_allocates_unique_paths_and_cleans_up() {
        let dir;
        {
            let mut store = SpillStore::new(3);
            dir = store.dir().to_path_buf();
            assert!(dir.is_dir());
            let a = store.alloc(0, 1);
            let b = store.alloc(0, 1);
            assert_ne!(a, b);
            assert!(a.starts_with(&dir));
            fs::write(&a, b"x").unwrap();
        }
        assert!(!dir.exists(), "spill dir removed on drop");
    }

    #[test]
    fn fault_and_rehydrate_round_trip() {
        let mut store = SpillStore::new(0);
        let mut tier = ColdTier::new(vec![0]);
        let rows: Vec<(u64, Vec<Value>)> = (0..6)
            .map(|i| (i, vec![Value::Int(i as i64 % 2), Value::Int(i as i64)]))
            .collect();
        tier.spill(store.alloc(0, 0), 2, &rows, &Meet::default());
        assert_eq!(tier.cold_rows(), 6);
        let keys: FxHashSet<Value> = [Value::Int(0)].into_iter().collect();
        let faulted = tier.fault(0, &keys);
        assert_eq!(faulted.len(), 3);
        assert_eq!(tier.cold_rows(), 3);
        let rest = tier.rehydrate();
        assert_eq!(rest.len(), 3);
        assert_eq!(tier.cold_rows(), 0);
        assert_eq!(tier.stats.rows_demoted, 6);
        assert_eq!(tier.stats.rows_faulted, 6);
        assert_eq!(tier.stats.segments_written, 1);
        assert_eq!(tier.stats.segments_retired, 1);
    }
}

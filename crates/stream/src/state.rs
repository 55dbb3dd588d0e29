//! Join-state storage for one operator input port (the paper's `Υ_S`).
//!
//! A symmetric (M)join must store every input until punctuations prove it
//! dead. [`PortState`] keeps composite tuples in a **flat arena** — one
//! `Vec<Value>` with a fixed stride per tuple plus a live-bitmap of
//! tombstones — and one hash index per distinct key that a join probe or a
//! purge recipe looks rows up by: probing is hash-based as in the symmetric
//! hash join \[14\], and a punctuation finds the rows it covers in the same
//! buckets. The arena layout makes purge scans and window eviction
//! cache-linear: a full-state scan walks one contiguous allocation instead of
//! chasing a `Vec<Option<Vec<Value>>>` box per row.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::ops::Bound;

use cjq_core::fxhash::FxHashMap;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, SnapshotError, SnapshotResult};
use crate::layout::SpanLayout;

/// Buckets of a [`KeyIndex`] by key width: a one-column key is the cell
/// itself, only a wider one is a vector of cells.
#[derive(Debug, Clone)]
enum Buckets {
    One(FxHashMap<Value, Vec<usize>>),
    Wide(FxHashMap<Vec<Value>, Vec<usize>>),
}

/// The one index over a port's live rows: slots by the values of `cols`. A
/// join probe and a purge lookup keyed on the same columns read the same
/// index, so a row is linked once per distinct key some reader asks for.
/// Every bucket is non-empty and sorted by insertion sequence.
#[derive(Debug, Clone)]
struct KeyIndex {
    cols: Vec<usize>,
    buckets: Buckets,
    /// The keys of the (non-empty) buckets in order, kept once an ordered
    /// scheme asks for threshold ranges: touched when a bucket is born or
    /// emptied, not per row.
    distinct: Option<BTreeSet<Value>>,
    /// Emptied buckets, reused by the next key born: a state that stays the
    /// same size links and unlinks without allocating.
    spare: Vec<Vec<usize>>,
    /// A wide key's cells, gathered per lookup: a wide bucket is looked up
    /// by slice, and its key allocated only when the bucket is born.
    key: Vec<Value>,
}

/// `row`'s cells on `cols`, gathered into `key`.
fn gather<'k>(key: &'k mut Vec<Value>, cols: &[usize], row: &[Value]) -> &'k [Value] {
    key.clear();
    key.extend(cols.iter().map(|&c| row[c]));
    key
}

impl KeyIndex {
    /// Links `slot` (holding `row`) at its sequence position: `older(s)` says
    /// whether slot `s` was inserted before it.
    fn link(&mut self, row: &[Value], slot: usize, older: impl Fn(usize) -> bool) {
        let [_, ..] = self.cols[..] else { return }; // dropped
        let spare = &mut self.spare;
        let born = || spare.pop().unwrap_or_default();
        let bucket = match &mut self.buckets {
            Buckets::One(m) => m.entry(row[self.cols[0]]).or_insert_with(born),
            Buckets::Wide(m) => {
                let key = gather(&mut self.key, &self.cols, row);
                if !m.contains_key(key) {
                    m.insert(key.to_vec(), spare.pop().unwrap_or_default());
                }
                m.get_mut(key).expect("born above")
            }
        };
        if bucket.last().is_none_or(|&last| older(last)) {
            if let (true, Some(keys)) = (bucket.is_empty(), &mut self.distinct) {
                keys.insert(row[self.cols[0]]);
            }
            bucket.push(slot);
        } else {
            // A row faulted back from the cold tier re-enters mid-bucket.
            bucket.insert(bucket.partition_point(|&s| older(s)), slot);
        }
    }

    /// Unlinks `slot` (holding `row`), keeping the bucket's order: probe
    /// enumeration, and with it result-tuple order, is independent of purge
    /// timing. The chaos suite relies on this: punctuation drop, delay and
    /// duplication must leave outputs byte-identical, not multiset-equal.
    fn unlink(&mut self, row: &[Value], slot: usize) {
        let [_, ..] = self.cols[..] else { return }; // dropped
        fn take<K: Hash + Eq + Borrow<Q>, Q: Hash + Eq + ?Sized>(
            m: &mut FxHashMap<K, Vec<usize>>,
            key: &Q,
            slot: usize,
        ) -> Option<Vec<usize>> {
            let slots = m.get_mut(key)?;
            if let Some(pos) = slots.iter().position(|&s| s == slot) {
                slots.remove(pos);
            }
            slots.is_empty().then(|| m.remove(key)).flatten()
        }
        let emptied = match &mut self.buckets {
            Buckets::One(m) => take(m, &row[self.cols[0]], slot),
            Buckets::Wide(m) => take(m, gather(&mut self.key, &self.cols, row), slot),
        };
        if let Some(bucket) = emptied {
            if let Some(keys) = &mut self.distinct {
                keys.remove(&row[self.cols[0]]);
            }
            self.spare.push(bucket);
        }
    }

    /// Removes the bucket of `key` whole, if there is one.
    fn take(&mut self, key: &[Value]) -> Option<Vec<usize>> {
        let bucket = match &mut self.buckets {
            Buckets::One(m) => m.remove(&key[0]),
            Buckets::Wide(m) => m.remove(key),
        }?;
        if let Some(keys) = &mut self.distinct {
            keys.remove(&key[0]);
        }
        Some(bucket)
    }
}

/// Outcome of [`PortState::collect_matching`] and of the bucket pass after
/// it: the matched slots and bucket keys plus how many live rows were
/// decided to find them.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// Slots whose rows satisfied the predicate.
    pub slots: Vec<usize>,
    /// Live candidate rows examined.
    pub examined: usize,
    /// The index whose buckets `keys` name.
    index: usize,
    /// Keys of the buckets whose rows satisfied the predicate, one cell per
    /// column of `index` each.
    keys: Vec<Value>,
}

/// Storage + hash indexes for one input port.
#[derive(Debug, Clone)]
pub struct PortState {
    layout: SpanLayout,
    /// Fixed row stride (cached `layout.width()`).
    stride: usize,
    /// Absolute id of the first *resident* slot (a multiple of 64). Slot ids
    /// are absolute and monotone; the five per-slot vectors below hold only
    /// `base..slots()`, indexed by `slot - base` — everything older is dead
    /// and was dropped by [`PortState::reclaim`].
    base: usize,
    /// Stride-packed resident rows. Purged rows keep their cells until
    /// reclaimed (interned/`Copy` values hold no heap).
    arena: Vec<Value>,
    /// Tombstone bitmap: bit `i - base` set iff slot `i` is live.
    live_bits: Vec<u64>,
    /// Arrival time of each slot (monotone, since slots are append-only) —
    /// used by sliding-window eviction.
    arrivals: Vec<u64>,
    /// Global insertion sequence of each slot. Unlike the slot id, a row's
    /// sequence survives demotion to the cold tier and fault-back: probe
    /// buckets are kept sorted by sequence, so probe enumeration order — and
    /// thus output order — is identical whether or not a row ever spilled.
    seqs: Vec<u64>,
    next_seq: u64,
    /// Last time each slot was probed (initialized to its arrival) — the
    /// recency signal cold-tier demotion victimizes on.
    touched: Vec<u64>,
    /// Slots before this index are all dead (window-eviction frontier).
    evict_front: usize,
    live: usize,
    inserted: u64,
    purged: u64,
    /// Rows moved to the cold tier (detached but not dead — they may fault
    /// back in under a fresh slot id with their original sequence).
    demoted: u64,
    /// Every index over the live rows — the probe columns given to
    /// [`PortState::new`], then what [`PortState::add_purge_index`] found
    /// missing. An index id is a position here.
    indexes: Vec<KeyIndex>,
    /// When enabled, slot ids of purged rows, oldest first — the retraction
    /// log purge trackers consume to find rows whose chained requirement
    /// sets shrank. Values stay readable via [`PortState::raw_row`] (a
    /// retained retraction pins its slot against [`PortState::reclaim`]).
    retired: Vec<usize>,
    /// Absolute sequence number of `retired[0]` (grows on trim so consumer
    /// cursors keep their meaning).
    retired_base: u64,
    /// Whether purged slots go into `retired`.
    pub(crate) log_retired: bool,
}

impl PortState {
    /// Creates a state with hash indexes on `indexed_cols` (flat positions).
    #[must_use]
    pub fn new(layout: SpanLayout, indexed_cols: &[usize]) -> Self {
        let stride = layout.width();
        assert!(stride > 0, "port layout must have at least one column");
        let mut state = PortState {
            layout,
            stride,
            base: 0,
            arena: Vec::new(),
            live_bits: Vec::new(),
            arrivals: Vec::new(),
            seqs: Vec::new(),
            next_seq: 0,
            touched: Vec::new(),
            evict_front: 0,
            live: 0,
            inserted: 0,
            purged: 0,
            demoted: 0,
            indexes: Vec::new(),
            retired: Vec::new(),
            retired_base: 0,
            log_retired: false,
        };
        for &c in indexed_cols {
            state.add_purge_index(&[c], false);
        }
        state
    }

    /// Turns on the retraction log: from now on every purged slot id is
    /// recorded for [`PortState::retired_since`] consumers.
    pub(crate) fn enable_retirement_log(&mut self) {
        self.log_retired = true;
    }

    /// One past the absolute sequence number of the newest retraction.
    #[must_use]
    pub(crate) fn retire_end(&self) -> u64 {
        self.retired_base + self.retired.len() as u64
    }

    /// Slot ids retired at sequence numbers `>= cursor`, oldest first. A
    /// cursor older than the trimmed prefix is clamped to the log base.
    #[must_use]
    pub(crate) fn retired_since(&self, cursor: u64) -> &[usize] {
        let skip = cursor.saturating_sub(self.retired_base) as usize;
        &self.retired[skip..]
    }

    /// Drops retractions below absolute sequence number `upto` (call once
    /// every consumer's cursor has passed it), then reclaims the dead prefix
    /// the dropped retractions were pinning.
    pub(crate) fn trim_retired_to(&mut self, upto: u64) {
        let k = (upto.saturating_sub(self.retired_base) as usize).min(self.retired.len());
        self.retired.drain(..k);
        self.retired_base += k as u64;
        self.reclaim();
    }

    /// Drops the dead prefix: every resident slot below both the oldest live
    /// slot and the oldest retained retraction (whose cells
    /// [`PortState::raw_row`] must still serve). Whole bitmap words only, and
    /// only once the prefix is at least half the resident range, so the shift
    /// is paid for by the slots it frees and the resident range stays within
    /// 2× of the span from the oldest pinned slot to the head. Holes *behind*
    /// a pinned slot stay; the live iterator skips them a word at a time.
    pub(crate) fn reclaim(&mut self) {
        // The oldest live slot alone bounds the floor from above: the
        // retraction log is only walked on the cycles that bound would free.
        let (base, resident_words) = (self.base, self.live_bits.len());
        let freeable = |floor: usize| {
            let words = (floor - base) / 64;
            (words > 0 && words * 2 >= resident_words).then_some(words)
        };
        let first_live = self.live_from(0).next().unwrap_or(self.slots());
        if freeable(first_live).is_none() {
            return;
        }
        let floor = self.retired.iter().copied().fold(first_live, usize::min);
        let Some(words) = freeable(floor) else {
            return;
        };
        let n = words * 64;
        self.arena.drain(..n * self.stride);
        self.live_bits.drain(..words);
        self.arrivals.drain(..n);
        self.seqs.drain(..n);
        self.touched.drain(..n);
        self.base += n;
    }

    /// Slots held in memory (live + dead-but-unreclaimed), as opposed to
    /// [`PortState::slots`] ever allocated.
    #[must_use]
    pub fn resident_slots(&self) -> usize {
        self.arrivals.len()
    }

    /// Where resident `slot`'s stamps sit in the per-slot vectors.
    #[inline]
    fn resident(&self, slot: usize) -> usize {
        slot - self.base
    }

    /// The values stored in resident `slot` regardless of liveness — purged
    /// rows keep their arena cells until reclaimed, which is what lets the
    /// retraction log carry slot ids instead of cloned rows.
    #[inline]
    #[must_use]
    pub(crate) fn raw_row(&self, slot: usize) -> &[Value] {
        let i = self.resident(slot);
        &self.arena[i * self.stride..(i + 1) * self.stride]
    }

    /// The id of the index over `cols` (flat positions) for
    /// [`PortState::purge_index_eq`] / [`PortState::purge_index_keys`]: the
    /// one already there — a probe index included — or a new one filled from
    /// current live state. `ordered` (single column only) makes it answer
    /// ranges as well.
    pub(crate) fn add_purge_index(&mut self, cols: &[usize], ordered: bool) -> usize {
        assert!(
            !ordered || cols.len() == 1,
            "range index needs a single column"
        );
        assert!(
            cols.iter().all(|&c| c < self.stride),
            "index column out of range"
        );
        let known = self.indexes.iter().position(|ix| ix.cols == cols);
        let id = known.unwrap_or_else(|| {
            let buckets = match cols.len() {
                1 => Buckets::One(FxHashMap::default()),
                _ => Buckets::Wide(FxHashMap::default()),
            };
            self.indexes.push(KeyIndex {
                cols: cols.to_vec(),
                buckets,
                distinct: None,
                spare: Vec::new(),
                key: Vec::new(),
            });
            let id = self.indexes.len() - 1;
            for slot in self.live_slots() {
                self.link(slot, id);
            }
            id
        });
        let index = &mut self.indexes[id];
        if let (true, None, Buckets::One(m)) = (ordered, &index.distinct, &index.buckets) {
            index.distinct = Some(m.keys().copied().collect());
        }
        id
    }

    /// Drops every index `keep` refuses, by id and columns: its id stays
    /// taken (ids are positions), keyed on no column and linking no row.
    pub(crate) fn retain_indexes(&mut self, keep: impl Fn(usize, &[usize]) -> bool) {
        for (id, index) in self.indexes.iter_mut().enumerate() {
            if !keep(id, &index.cols) {
                index.cols.clear();
                (index.buckets, index.distinct) = (Buckets::Wide(FxHashMap::default()), None);
            }
        }
    }

    /// The columns index `id` is keyed on.
    #[must_use]
    pub(crate) fn index_cols(&self, id: usize) -> &[usize] {
        &self.indexes[id].cols
    }

    /// Live slots whose key in index `id` equals `key`.
    #[must_use]
    pub(crate) fn purge_index_eq(&self, id: usize, key: &[Value]) -> &[usize] {
        match &self.indexes[id].buckets {
            Buckets::One(m) => m.get(&key[0]),
            Buckets::Wide(m) => m.get(key),
        }
        .map_or(&[], Vec::as_slice)
    }

    /// The keys of the (single-column) index `id` that fall in `(above,
    /// upto]`, ascending: the buckets a threshold advance newly covers.
    ///
    /// # Panics
    /// Panics if the index was not registered as ordered.
    pub(crate) fn purge_index_keys<'a>(
        &'a self,
        id: usize,
        above: Option<&'a Value>,
        upto: &'a Value,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        let Some(keys) = &self.indexes[id].distinct else {
            panic!("range probe on an unordered index");
        };
        keys.range((
            above.map_or(Bound::Unbounded, Bound::Excluded),
            Bound::Included(upto),
        ))
    }

    /// Links resident `slot` into the indexes from id `first` on, each at the
    /// slot's sequence position — the one way a row enters an index.
    fn link(&mut self, slot: usize, first: usize) {
        let (i, base, seqs) = (slot - self.base, self.base, &self.seqs);
        let (row, seq) = (&self.arena[i * self.stride..(i + 1) * self.stride], seqs[i]);
        for index in &mut self.indexes[first..] {
            index.link(row, slot, |s| seqs[s - base] < seq);
        }
    }

    /// The port's layout.
    #[must_use]
    pub fn layout(&self) -> &SpanLayout {
        &self.layout
    }

    /// Number of slots ever allocated (live + tombstoned + reclaimed): one
    /// past the newest slot id.
    #[inline]
    #[must_use]
    pub fn slots(&self) -> usize {
        self.base + self.arrivals.len()
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        // A reclaimed slot wraps to an index past any bitmap: dead, no branch.
        let i = slot.wrapping_sub(self.base);
        self.live_bits
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Live slot ids `>= from`, ascending — the one bitmap walk every
    /// live-row scan goes through. All-dead words cost one compare, so a scan
    /// is bounded by resident words + live rows, never by slots ever allocated.
    pub(crate) fn live_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let rel = from.saturating_sub(self.base);
        let mut words = self.live_bits.get(rel / 64..).unwrap_or(&[]).iter();
        let mut word = words.next().map_or(0, |w| w & (!0u64 << (rel % 64)));
        let mut word_base = self.base + rel / 64 * 64;
        std::iter::from_fn(move || {
            while word == 0 {
                word = *words.next()?;
                word_base += 64;
            }
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(word_base + bit)
        })
    }

    /// Stores a composite tuple, returning its slot index.
    pub fn insert(&mut self, values: Vec<Value>) -> usize {
        self.insert_slice_at(&values, 0)
    }

    /// Stores a composite tuple with an arrival timestamp (must be
    /// non-decreasing across calls for window eviction to be exact) from a
    /// borrowed row — the data plane's entry point: rows live in a batch
    /// arena (`Value` is `Copy`), so storing one is a flat copy with no
    /// per-row allocation.
    #[inline]
    pub fn insert_slice_at(&mut self, values: &[Value], now: u64) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inserted += 1;
        self.push_slot(values, now, seq)
    }

    /// Re-admits a row faulted back from the cold tier under its **original**
    /// insertion sequence `seq`. The row gets a fresh slot id (the arena is
    /// append-only) and the current arrival time `now` (keeping arrivals
    /// monotone), but index buckets place it by `seq`, restoring the exact
    /// enumeration position it held before demotion. Not counted in
    /// [`PortState::inserted`] — it is a re-admission, not a new tuple.
    pub(crate) fn insert_spilled_at(&mut self, values: &[Value], now: u64, seq: u64) -> usize {
        debug_assert!(seq < self.next_seq, "spilled row must predate the head");
        self.push_slot(values, now, seq)
    }

    /// Appends one live resident slot — cells, stamps, live bit — and links
    /// it into every index.
    fn push_slot(&mut self, values: &[Value], now: u64, seq: u64) -> usize {
        debug_assert_eq!(values.len(), self.stride);
        debug_assert!(
            self.arrivals.last().is_none_or(|&t| t <= now),
            "arrival timestamps must be monotone"
        );
        let idx = self.slots();
        if self.arrivals.len().is_multiple_of(64) {
            self.live_bits.push(0);
        }
        self.arrivals.push(now);
        self.seqs.push(seq);
        self.touched.push(now);
        self.arena.extend_from_slice(values);
        // `base` is word-aligned, so the absolute id gives the bit position.
        *self.live_bits.last_mut().expect("word pushed above") |= 1 << (idx % 64);
        self.live += 1;
        self.link(idx, 0);
        idx
    }

    /// The tuple in `slot`, if still live.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: usize) -> Option<&[Value]> {
        self.is_live(slot).then(|| self.raw_row(slot))
    }

    /// The buckets of the index keyed on flat column `col` alone, if any.
    #[inline]
    fn column_index(&self, col: usize) -> Option<&FxHashMap<Value, Vec<usize>>> {
        self.indexes.iter().find_map(|ix| match &ix.buckets {
            Buckets::One(m) if ix.cols[0] == col => Some(m),
            _ => None,
        })
    }

    /// Whether the given flat column has a hash index.
    #[inline]
    #[must_use]
    pub fn has_index(&self, col: usize) -> bool {
        self.column_index(col).is_some()
    }

    /// Live slots whose `col` equals `value`, in insertion-sequence order
    /// (requires an index on `col`).
    #[inline]
    #[must_use]
    pub fn probe(&self, col: usize, value: &Value) -> &[usize] {
        self.column_index(col)
            .unwrap_or_else(|| panic!("no index on column {col}"))
            .get(value)
            .map_or(&[], Vec::as_slice)
    }

    /// Whether some live tuple has `value` in `col`: a probe where the
    /// column is indexed, a scan where not.
    #[must_use]
    pub(crate) fn carries(&self, col: usize, value: &Value) -> bool {
        match self.column_index(col) {
            Some(index) => index.get(value).is_some_and(|slots| !slots.is_empty()),
            None => self.iter_live().any(|(_, row)| row[col] == *value),
        }
    }

    /// Purges the tuple in `slot`. Returns whether it was live.
    pub fn purge(&mut self, slot: usize) -> bool {
        if !self.detach(slot) {
            return false;
        }
        self.retire(slot);
        true
    }

    /// Purges every row of the bucket of `key` in index `id` at once: the
    /// bucket leaves that index whole, its rows are unlinked from the others
    /// in bucket order and logged like [`PortState::purge`]'s. Returns how
    /// many rows went.
    pub(crate) fn purge_bucket(&mut self, id: usize, key: &[Value]) -> usize {
        let Some(mut bucket) = self.indexes[id].take(key) else {
            return 0;
        };
        for &slot in &bucket {
            self.unlink(slot, id);
            self.retire(slot);
        }
        let n = bucket.len();
        bucket.clear();
        self.indexes[id].spare.push(bucket);
        n
    }

    /// Counts a detached `slot` purged, into the retraction log if on.
    fn retire(&mut self, slot: usize) {
        self.purged += 1;
        if self.log_retired {
            self.retired.push(slot);
        }
    }

    /// Demotes the tuple in `slot` to the cold tier: identical arena/index
    /// detachment to [`PortState::purge`], but the row is *not* dead — it is
    /// not counted as purged and never enters the retraction log (demotion
    /// must be invisible to purge trackers; the row's requirement sets did
    /// not shrink). Returns whether it was live.
    pub(crate) fn demote(&mut self, slot: usize) -> bool {
        if !self.detach(slot) {
            return false;
        }
        self.demoted += 1;
        true
    }

    /// Shared detachment path for purge and demote: clears the live bit and
    /// unlinks the slot from every index.
    fn detach(&mut self, slot: usize) -> bool {
        if !self.is_live(slot) {
            return false;
        }
        self.unlink(slot, usize::MAX);
        true
    }

    /// Clears live `slot`'s bit and unlinks it from every index but
    /// `except` (which no longer holds it).
    fn unlink(&mut self, slot: usize, except: usize) {
        let i = self.resident(slot);
        self.live_bits[i / 64] &= !(1 << (i % 64));
        let row = &self.arena[i * self.stride..(i + 1) * self.stride];
        for (id, index) in self.indexes.iter_mut().enumerate() {
            if id != except {
                index.unlink(row, slot);
            }
        }
        self.live -= 1;
    }

    /// Number of live tuples.
    #[inline]
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total tuples ever inserted.
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Total tuples purged.
    #[must_use]
    pub fn purged(&self) -> u64 {
        self.purged
    }

    /// Total rows demoted to the cold tier (fault-back does not subtract).
    #[must_use]
    pub fn demoted(&self) -> u64 {
        self.demoted
    }

    /// The sequence the next inserted row gets: every stored or spilled row
    /// of this port carries a smaller one.
    #[must_use]
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The global insertion sequence of resident `slot` (live or detached).
    #[inline]
    #[must_use]
    pub(crate) fn seq_of(&self, slot: usize) -> u64 {
        self.seqs[self.resident(slot)]
    }

    /// Stamps `slot` as probed at `now` (cold-tier recency signal).
    #[inline]
    pub(crate) fn note_touched(&mut self, slot: usize, now: u64) {
        let i = self.resident(slot);
        self.touched[i] = now;
    }

    /// Stamps every row [`PortState::probe`] finds for `value` on `col` as
    /// probed at `now`.
    pub(crate) fn note_probed(&mut self, col: usize, value: &Value, now: u64) {
        let mut touched = std::mem::take(&mut self.touched);
        for &slot in self.probe(col, value) {
            touched[self.resident(slot)] = now;
        }
        self.touched = touched;
    }

    /// Last-probed time of `slot`.
    #[inline]
    #[must_use]
    pub(crate) fn touched_of(&self, slot: usize) -> u64 {
        self.touched[self.resident(slot)]
    }

    /// Appends the last-probed times of all live tuples to `out` (demotion's
    /// cutoff-selection input).
    pub(crate) fn live_touched(&self, out: &mut Vec<u64>) {
        out.extend(self.live_from(0).map(|s| self.touched_of(s)));
    }

    /// Iterates live tuples as `(slot, values)` in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.live_from(0).map(|s| (s, self.raw_row(s)))
    }

    /// Slot ids of all live tuples, in slot order.
    #[must_use]
    pub fn live_slots(&self) -> Vec<usize> {
        self.live_from(0).collect()
    }

    /// Phase one of the two-phase "collect, then purge" pattern shared by
    /// the join operators and the purge engine: evaluates `pred` over live
    /// candidate rows — all live rows when `candidates` is `None`, otherwise
    /// only the given slots (dead ones are skipped) — and leaves the matching
    /// slots plus the examined count in the caller's `sweep` (overwritten, so
    /// one `Sweep` serves every pass). Rows are borrowed straight from the
    /// arena (no clones); pair with [`PortState::purge_slots`].
    pub fn collect_matching<'s>(
        &'s self,
        candidates: Option<&[usize]>,
        pred: &mut impl FnMut(usize, &'s [Value]) -> bool,
        sweep: &mut Sweep,
    ) {
        sweep.slots.clear();
        sweep.keys.clear();
        sweep.examined = 0;
        let mut examine = |(slot, row)| {
            sweep.examined += 1;
            if pred(slot, row) {
                sweep.slots.push(slot);
            }
        };
        match candidates {
            None => self.iter_live().for_each(examine),
            Some(slots) => {
                let live = slots
                    .iter()
                    .filter_map(|&slot| Some((slot, self.get(slot)?)));
                live.for_each(&mut examine);
            }
        }
    }

    /// Phase one for whole buckets, after [`PortState::collect_matching`]:
    /// for each bucket of index `id` that `keys` name (one cell per column
    /// each), `pred` is asked about its oldest row and its answer stands for
    /// every row there — for a predicate that reads only the index's columns.
    /// A key equal to the one before it is not asked again, nor is an empty
    /// bucket. Appends to `sweep`, counting the bucket's rows examined.
    pub(crate) fn collect_buckets<'s>(
        &'s self,
        id: usize,
        keys: &[Value],
        pred: &mut impl FnMut(usize, &'s [Value]) -> bool,
        sweep: &mut Sweep,
    ) {
        sweep.index = id;
        let width = self.indexes[id].cols.len();
        let mut last: Option<&[Value]> = None;
        for key in keys.chunks_exact(width) {
            if last.replace(key) == Some(key) {
                continue;
            }
            let bucket = self.purge_index_eq(id, key);
            if bucket.is_empty() {
                continue;
            }
            sweep.examined += bucket.len();
            if pred(bucket[0], self.raw_row(bucket[0])) {
                sweep.keys.extend_from_slice(key);
            }
        }
    }

    /// Phase two: purges the given slots, returning how many were live.
    pub fn purge_slots(&mut self, slots: &[usize]) -> usize {
        slots.iter().filter(|&&slot| self.purge(slot)).count()
    }

    /// Phase two of a sweep: purges its slots, then its buckets whole.
    /// Returns how many rows went.
    pub(crate) fn purge_swept(&mut self, sweep: &Sweep) -> usize {
        let rows = self.purge_slots(&sweep.slots);
        if sweep.keys.is_empty() {
            return rows;
        }
        let buckets = sweep
            .keys
            .chunks_exact(self.indexes[sweep.index].cols.len());
        rows + buckets
            .map(|key| self.purge_bucket(sweep.index, key))
            .sum::<usize>()
    }

    /// Sliding-window eviction: purges every live tuple that arrived strictly
    /// before `cutoff`. Amortized O(1) per stored tuple over the state's
    /// lifetime (a frontier pointer advances monotonically). Returns the
    /// number evicted.
    pub fn evict_older_than(&mut self, cutoff: u64) -> usize {
        let mut evicted = 0;
        self.evict_front = self.evict_front.max(self.base);
        while self.evict_front < self.slots()
            && self.arrivals[self.evict_front - self.base] < cutoff
        {
            if self.purge(self.evict_front) {
                evicted += 1;
            }
            self.evict_front += 1;
        }
        evicted
    }

    /// Serializes the port's logical state: the retired rows still logged
    /// (between cycles, window evictions no tracker has read), then the live
    /// rows, each in slot order with its sequence, arrival and last probe,
    /// then the counters and whether purges are logged. Slot ids, the dead
    /// prefix, the eviction frontier, the log and the index buckets are not
    /// written: [`PortState::read_state`] re-inserts the rows.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.stride);
        for slots in [self.retired_since(0), &self.live_slots()] {
            e.usize(slots.len());
            for &slot in slots {
                let i = self.resident(slot);
                let words = [self.seqs[i], self.arrivals[i], self.touched[i]];
                words.into_iter().for_each(|w| e.u64(w));
                self.raw_row(slot).iter().for_each(|v| e.value(v));
            }
        }
        let counters = [self.next_seq, self.inserted, self.purged, self.demoted];
        counters.into_iter().for_each(|w| e.u64(w));
        e.bool(self.log_retired);
    }

    /// Re-inserts [`PortState::write_state`]'s rows into this freshly
    /// compiled, empty port, numbering them from 0: the rows that left become
    /// dead slots in the retraction log, the live ones are linked into every
    /// index at their sequence position — the live run's bucket order, which
    /// output order depends on.
    pub(crate) fn read_state(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        let stride = d.count_of("columns of a port", self.stride)?;
        let mut row = Vec::with_capacity(stride);
        for live in [false, true] {
            let rows = d.usize()?;
            let cells = rows.checked_mul(stride).ok_or_else(|| {
                SnapshotError(format!("port of {rows} x {stride} cells overflows"))
            })?;
            d.fits(cells, 1)?;
            for _ in 0..rows {
                let (seq, arrival, touched) = (d.u64()?, d.u64()?, d.u64()?);
                row.clear();
                for _ in 0..stride {
                    row.push(d.value()?);
                }
                if self.arrivals.last().is_some_and(|&t| t > arrival) {
                    return Err(SnapshotError("port arrival stamps are not monotone".into()));
                }
                let slot = self.push_slot(&row, arrival, seq);
                self.note_touched(slot, touched);
                if !live {
                    self.unlink(slot, usize::MAX);
                    self.retired.push(slot);
                }
            }
        }
        [self.next_seq, self.inserted, self.purged, self.demoted] =
            [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        self.log_retired = d.bool()?;
        Ok(())
    }
}

#[cfg(test)]
impl PortState {
    /// How many indexes are registered.
    pub(crate) fn purge_index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Appends to `out` the live slots whose (single) key in index `id` falls
    /// in `(above, upto]`.
    pub(crate) fn purge_index_range(
        &self,
        id: usize,
        above: Option<&Value>,
        upto: &Value,
        out: &mut Vec<usize>,
    ) {
        for key in self.purge_index_keys(id, above, upto) {
            out.extend_from_slice(self.purge_index_eq(id, std::slice::from_ref(key)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::schema::{Catalog, StreamId, StreamSchema};

    fn state() -> PortState {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        let layout = SpanLayout::new(&cat, &[StreamId(0)]);
        PortState::new(layout, &[0])
    }

    fn row(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    #[test]
    fn insert_probe_purge() {
        let mut s = state();
        let i0 = s.insert(row(1, 10));
        let i1 = s.insert(row(1, 11));
        let i2 = s.insert(row(2, 20));
        assert_eq!(s.live(), 3);
        assert_eq!(s.probe(0, &Value::Int(1)), &[i0, i1]);
        assert_eq!(s.probe(0, &Value::Int(9)), &[] as &[usize]);

        assert!(s.purge(i0));
        assert!(!s.purge(i0), "double purge is a no-op");
        assert_eq!(s.live(), 2);
        assert_eq!(s.probe(0, &Value::Int(1)), &[i1]);
        assert!(s.get(i0).is_none());
        assert_eq!(s.get(i2).unwrap()[1], Value::Int(20));
        assert_eq!(s.inserted(), 3);
        assert_eq!(s.purged(), 1);
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut s = state();
        s.insert(row(1, 10));
        let dead = s.insert(row(2, 20));
        s.insert(row(3, 30));
        s.purge(dead);
        let live: Vec<usize> = s.iter_live().map(|(i, _)| i).collect();
        assert_eq!(live, vec![0, 2]);
        assert_eq!(s.live_slots(), vec![0, 2]);
    }

    #[test]
    fn window_eviction_advances_frontier() {
        let mut s = state();
        s.insert_slice_at(&row(1, 10), 1);
        s.insert_slice_at(&row(2, 20), 3);
        let manually_purged = s.insert_slice_at(&row(3, 30), 5);
        s.insert_slice_at(&row(4, 40), 7);
        s.purge(manually_purged);
        // Evict everything older than t=6: slots at t=1,3 (t=5 already dead).
        assert_eq!(s.evict_older_than(6), 2);
        assert_eq!(s.live(), 1);
        assert_eq!(s.probe(0, &Value::Int(4)).len(), 1);
        // Idempotent for the same cutoff; later cutoffs evict the rest.
        assert_eq!(s.evict_older_than(6), 0);
        assert_eq!(s.evict_older_than(100), 1);
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn arena_spans_many_bitmap_words() {
        let mut s = state();
        for i in 0..200 {
            s.insert(row(i % 5, i));
        }
        assert_eq!(s.live(), 200);
        for i in (0..200).step_by(2) {
            assert!(s.purge(i));
        }
        assert_eq!(s.live(), 100);
        assert_eq!(s.iter_live().count(), 100);
        assert!(s.iter_live().all(|(i, _)| i % 2 == 1));
        // Probe buckets only contain live odd slots now.
        for v in 0..5 {
            assert!(s.probe(0, &Value::Int(v)).iter().all(|&slot| slot % 2 == 1));
        }
    }

    #[test]
    #[should_panic(expected = "no index on column")]
    fn probe_without_index_panics() {
        let s = state();
        let _ = s.probe(1, &Value::Int(1));
    }

    #[test]
    fn purge_index_backfills_and_tracks_mutations() {
        let mut s = state();
        let s0 = s.insert(row(1, 10));
        s.insert(row(2, 10));
        // Registered after inserts: must be backfilled from live state.
        let id = s.add_purge_index(&[0, 1], false);
        assert_eq!(
            s.purge_index_eq(id, &[Value::Int(1), Value::Int(10)]),
            &[s0]
        );
        // Identical registration is deduplicated.
        assert_eq!(s.add_purge_index(&[0, 1], false), id);
        let s2 = s.insert(row(1, 10));
        assert_eq!(
            s.purge_index_eq(id, &[Value::Int(1), Value::Int(10)]),
            &[s0, s2]
        );
        s.purge(s0);
        assert_eq!(
            s.purge_index_eq(id, &[Value::Int(1), Value::Int(10)]),
            &[s2]
        );
        assert!(s
            .purge_index_eq(id, &[Value::Int(9), Value::Int(9)])
            .is_empty());
    }

    #[test]
    fn range_purge_index_answers_threshold_slices() {
        let mut s = state();
        let slots: Vec<usize> = (1..=5).map(|i| s.insert(row(i, 0))).collect();
        let id = s.add_purge_index(&[0], true);
        assert_eq!((id, s.purge_index_count()), (0, 1), "the probe index");
        let mut out = Vec::new();
        // (-inf, 3]: first threshold appearance.
        s.purge_index_range(id, None, &Value::Int(3), &mut out);
        out.sort_unstable();
        assert_eq!(out, slots[..3]);
        // (3, 5]: a later advance covers only the new slice.
        out.clear();
        s.purge_index_range(id, Some(&Value::Int(3)), &Value::Int(5), &mut out);
        out.sort_unstable();
        assert_eq!(out, slots[3..]);
        // Purged slots drop out of the range answer.
        s.purge(slots[4]);
        out.clear();
        s.purge_index_range(id, Some(&Value::Int(3)), &Value::Int(5), &mut out);
        assert_eq!(out, &[slots[3]]);
    }

    #[test]
    fn retirement_log_records_purges_and_trims() {
        let mut s = state();
        let s0 = s.insert(row(1, 10));
        let s1 = s.insert(row(2, 20));
        s.purge(s0); // before enabling: not logged
        s.enable_retirement_log();
        assert_eq!(s.retire_end(), 0);
        s.purge(s1);
        let s2 = s.insert(row(3, 30));
        s.purge(s2);
        assert_eq!(s.retire_end(), 2);
        assert_eq!(s.retired_since(0), &[s1, s2]);
        assert_eq!(s.retired_since(1), &[s2]);
        // Purged rows keep readable cells for retraction consumers.
        assert_eq!(s.raw_row(s1), &row(2, 20)[..]);
        s.trim_retired_to(1);
        assert_eq!(s.retired_since(0), &[s2], "stale cursor clamps to base");
        assert_eq!(s.retire_end(), 2);
        assert!(s.retired_since(2).is_empty());
    }

    #[test]
    fn demote_and_spilled_reinsert_restore_probe_order() {
        let mut s = state();
        let s0 = s.insert_slice_at(&row(1, 10), 1);
        let s1 = s.insert_slice_at(&row(1, 11), 2);
        let s2 = s.insert_slice_at(&row(1, 12), 3);
        let seq1 = s.seq_of(s1);
        assert!(s.demote(s1));
        assert!(!s.demote(s1), "double demote is a no-op");
        assert_eq!(s.live(), 2);
        assert_eq!(s.demoted(), 1);
        assert_eq!(s.purged(), 0, "demotion is not a purge");
        assert_eq!(s.probe(0, &Value::Int(1)), &[s0, s2]);
        // Fault the row back later: fresh slot id, original sequence — the
        // probe bucket restores its pre-demotion enumeration position.
        let s3 = s.insert_spilled_at(&row(1, 11), 9, seq1);
        assert_eq!(s.probe(0, &Value::Int(1)), &[s0, s3, s2]);
        assert_eq!(s.get(s3).unwrap()[1], Value::Int(11));
        assert_eq!(s.inserted(), 3, "fault-back is not a new insert");
        // Recency stamps update on probe-touch and feed live_touched.
        s.note_touched(s0, 42);
        assert_eq!(s.touched_of(s0), 42);
        let mut touched = Vec::new();
        s.live_touched(&mut touched);
        assert_eq!(touched, vec![42, 3, 9]);
    }

    /// Every live-row scan against a model of the live set, over random
    /// insert / purge / demote / fault-back / reclaim interleavings that
    /// cross several bitmap words (xorshift: deterministic, no wall clock).
    #[test]
    fn word_walking_iterator_equals_naive_filter() {
        let mut s = state();
        let mut model: Vec<(usize, u64)> = Vec::new(); // (slot, arrival), slot order
        let mut cold: Vec<(u64, Vec<Value>)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for now in 0..1500u64 {
            match rnd(10) {
                0..=3 => model.push((s.insert_slice_at(&row(rnd(7) as i64, now as i64), now), now)),
                4..=6 if !model.is_empty() => {
                    // Mostly the oldest rows, so dead prefixes form.
                    let k = rnd(model.len().min(3));
                    assert!(s.purge(model.remove(k).0));
                }
                7 if !model.is_empty() => {
                    let (slot, _) = model.remove(rnd(model.len()));
                    cold.push((s.seq_of(slot), s.get(slot).unwrap().to_vec()));
                    assert!(s.demote(slot));
                }
                8 if !cold.is_empty() => {
                    let (seq, r) = cold.swap_remove(rnd(cold.len()));
                    model.push((s.insert_spilled_at(&r, now, seq), now));
                }
                _ => s.reclaim(),
            }
            let want: Vec<usize> = model.iter().map(|&(slot, _)| slot).collect();
            assert_eq!(s.live_slots(), want);
            assert_eq!(s.live(), want.len());
            let from = rnd(s.slots() + 2);
            let tail: Vec<usize> = want.iter().copied().filter(|&i| i >= from).collect();
            assert_eq!(s.live_from(from).collect::<Vec<_>>(), tail, "from {from}");
            let rows: Vec<(usize, &[Value])> = s.iter_live().collect();
            assert!(rows.iter().all(|&(i, r)| s.get(i) == Some(r)));
            assert_eq!(rows.len(), want.len());
            let mut touched = Vec::new();
            s.live_touched(&mut touched);
            let stamps: Vec<u64> = model.iter().map(|&(_, at)| at).collect();
            assert_eq!(touched, stamps, "never probed: touched == arrival");
        }
        assert!(s.slots() > 4 * 64, "the walk crossed several bitmap words");
        assert!(s.resident_slots() < s.slots(), "and a prefix was reclaimed");
    }

    /// The one index type against a model — a scan of the live rows — over
    /// random insert / purge / demote / fault-back / reclaim / log-trim /
    /// snapshot-restore sequences: a probe answers the exact list in sequence
    /// order, a purge lookup (on the probe's own index, on one of its own, on
    /// a wide key, on an ordered one registered mid-run over live rows) the
    /// same set, and an ordered index's key set is its non-empty buckets.
    #[test]
    fn every_index_answers_what_a_scan_of_the_live_rows_does() {
        let fresh = |ordered: bool| {
            let mut cat = Catalog::new();
            cat.add_stream(StreamSchema::new("S", ["A", "B", "C"]).unwrap());
            let mut s = PortState::new(SpanLayout::new(&cat, &[StreamId(0)]), &[0]);
            s.enable_retirement_log();
            let ids = [
                s.add_purge_index(&[0], false),
                s.add_purge_index(&[1], false),
                s.add_purge_index(&[2], true),
                s.add_purge_index(&[0, 1], false),
            ];
            assert_eq!((ids, s.purge_index_count()), ([0, 1, 2, 3], 4));
            if ordered {
                assert_eq!(s.add_purge_index(&[1], true), 1, "same columns, same index");
            }
            s
        };
        let mut s = fresh(false);
        let mut live: Vec<(u64, usize, Vec<Value>)> = Vec::new(); // (seq, slot, row)
        let mut cold: Vec<(u64, Vec<Value>)> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let (mut b_is_ordered, mut reclaimed) = (false, false);
        for now in 0..3000u64 {
            match rnd(16) {
                0..=5 => {
                    let r = vec![rnd(5), rnd(4), rnd(9)].into_iter();
                    let r: Vec<Value> = r.map(|v| Value::Int(v as i64)).collect();
                    let slot = s.insert_slice_at(&r, now);
                    live.push((s.seq_of(slot), slot, r));
                }
                6..=8 if !live.is_empty() => {
                    assert!(s.purge(live.remove(rnd(live.len().min(4))).1));
                }
                9 if !live.is_empty() => {
                    let (seq, slot, r) = live.remove(rnd(live.len()));
                    assert!(s.demote(slot));
                    cold.push((seq, r));
                }
                10 if !cold.is_empty() => {
                    let (seq, r) = cold.swap_remove(rnd(cold.len()));
                    live.push((seq, s.insert_spilled_at(&r, now, seq), r));
                }
                11 => s.reclaim(),
                12 => s.trim_retired_to(s.retire_end() - rnd(3).min(s.retired.len()) as u64),
                13 if !b_is_ordered && now > 1500 => {
                    // An ordered scheme arrives on a column already indexed:
                    // the key set is built from the buckets that are there.
                    b_is_ordered = true;
                    assert_eq!(s.add_purge_index(&[1], true), 1);
                }
                15 => {
                    // A bucket of B (ordered late on) or of (A, B) leaves whole.
                    let (b, a) = (Value::Int(rnd(4) as i64), Value::Int(rnd(5) as i64));
                    let (id, key) = [(1, vec![b]), (3, vec![a, b])][rnd(2)].clone();
                    let cols = s.index_cols(id).to_vec();
                    let before = live.len();
                    live.retain(|(_, _, r)| cols.iter().zip(&key).any(|(&c, k)| r[c] != *k));
                    assert_eq!(s.purge_bucket(id, &key), before - live.len());
                }
                14 if rnd(4) == 0 => {
                    // A snapshot renumbers the live rows from 0, in slot order
                    // (now and then: it also undoes every reclaim).
                    let (mut e, order) = (Enc::new(), s.live_slots());
                    s.trim_retired_to(s.retire_end()); // as a cycle leaves it
                    s.write_state(&mut e);
                    s = fresh(b_is_ordered);
                    s.read_state(&mut Dec::new(&e.buf)).unwrap();
                    for (_, slot, _) in &mut live {
                        *slot = order.binary_search(slot).expect("a live slot");
                    }
                }
                _ => {}
            }
            live.sort_unstable();
            reclaimed |= s.resident_slots() < s.slots();
            let scan = |keep: &dyn Fn(&[Value]) -> bool| -> Vec<usize> {
                let kept = live.iter().filter(|(_, _, r)| keep(r));
                kept.map(|&(_, slot, _)| slot).collect()
            };
            let sorted = |mut slots: Vec<usize>| {
                slots.sort_unstable();
                slots
            };
            let (a, b, c) = (Value::Int(rnd(5) as i64), Value::Int(rnd(4) as i64), rnd(9));
            assert_eq!(s.probe(0, &a), scan(&|r| r[0] == a), "probe at {now}");
            assert_eq!(s.purge_index_eq(0, &[a]), s.probe(0, &a));
            let own = sorted(s.purge_index_eq(1, &[b]).to_vec());
            assert_eq!(own, sorted(scan(&|r| r[1] == b)), "own index at {now}");
            let wide = sorted(s.purge_index_eq(3, &[a, b]).to_vec());
            assert_eq!(wide, sorted(scan(&|r| r[0] == a && r[1] == b)));
            let above = [None, Some(Value::Int(c as i64 - 1 - rnd(3) as i64))][rnd(2)];
            let upto = Value::Int(c as i64);
            let in_range = |v: &Value| above.as_ref().is_none_or(|a| v > a) && *v <= upto;
            for (id, col) in [(2, 2)].into_iter().chain(b_is_ordered.then_some((1, 1))) {
                let mut got = Vec::new();
                s.purge_index_range(id, above.as_ref(), &upto, &mut got);
                assert_eq!(sorted(got), sorted(scan(&|r| in_range(&r[col]))));
            }
            for index in &s.indexes {
                let keys: BTreeSet<Value> = match &index.buckets {
                    Buckets::One(m) => {
                        assert!(m.values().all(|bucket| !bucket.is_empty()));
                        m.keys().copied().collect()
                    }
                    Buckets::Wide(m) => {
                        assert!(m.values().all(|bucket| !bucket.is_empty()));
                        continue;
                    }
                };
                assert!(index.distinct.as_ref().is_none_or(|d| *d == keys));
            }
        }
        assert!(b_is_ordered && reclaimed);
        assert!(s.demoted() > 50 && s.purged() > 500);
    }

    #[test]
    fn prefix_reclaim_keeps_every_slot_consumer_correct() {
        let mut s = state();
        s.enable_retirement_log();
        let id = s.add_purge_index(&[0], false);
        let slots: Vec<usize> = (0..400)
            .map(|i| s.insert_slice_at(&row(i % 4, i), i as u64))
            .collect();
        // Rows 0..300 die; the last 20 retractions are still retained.
        for &slot in &slots[..300] {
            assert!(s.purge(slot));
        }
        s.trim_retired_to(280);
        assert_eq!(s.slots(), 400, "slot ids stay absolute");
        assert_eq!(s.resident_slots(), 400 - 256, "whole words below slot 280");
        assert_eq!(s.retired_since(0), &slots[280..300]);
        assert_eq!(s.raw_row(280), &row(0, 280)[..], "retained retraction");
        assert!(s.get(10).is_none() && s.get(299).is_none());
        assert_eq!(s.get(300).unwrap(), &row(0, 300)[..]);
        assert!(!s.purge(10), "a reclaimed slot is simply dead");
        // Probe and purge-index buckets still name absolute slots, in order.
        let bucket: Vec<usize> = (300..400).filter(|i| i % 4 == 1).collect();
        assert_eq!(s.probe(0, &Value::Int(1)), &bucket[..]);
        let mut indexed = s.purge_index_eq(id, &[Value::Int(1)]).to_vec();
        indexed.sort_unstable();
        assert_eq!(indexed, bucket);
        // Demote + fault-back after the reclaim: the bucket stays seq-sorted.
        let seq = s.seq_of(305);
        assert!(s.demote(305));
        let back = s.insert_spilled_at(&row(1, 305), 400, seq);
        assert_eq!(back, 400);
        let mut want = bucket.clone();
        want[1] = back;
        assert_eq!(s.probe(0, &Value::Int(1)), &want[..]);
        // A snapshot carries the live rows and restores them numbered from 0,
        // in slot order, each bucket still in sequence order.
        let (mut e, order, mut ended) = (Enc::new(), s.live_slots(), s.clone());
        ended.trim_retired_to(ended.retire_end()); // as a cycle leaves it
        ended.write_state(&mut e);
        let mut fresh = state();
        fresh.add_purge_index(&[0], false);
        fresh.read_state(&mut Dec::new(&e.buf)).unwrap();
        assert_eq!(fresh.live_slots(), (0..s.live()).collect::<Vec<_>>());
        let renumbered: Vec<usize> = want
            .iter()
            .map(|s| order.binary_search(s).unwrap())
            .collect();
        assert_eq!(fresh.probe(0, &Value::Int(1)), &renumbered[..]);
        assert_eq!(fresh.raw_row(renumbered[1]), &row(1, 305)[..]);
        // The window frontier (still 0) steps over the reclaimed prefix.
        assert_eq!(
            s.evict_older_than(310),
            9,
            "slots 300..310 minus demoted 305"
        );
        assert_eq!(s.live_slots()[0], 310);
        s.trim_retired_to(s.retire_end());
        assert_eq!(s.resident_slots(), 401 - 256, "below half: shift deferred");
        assert_eq!(s.evict_older_than(401), 91);
        s.trim_retired_to(s.retire_end());
        assert_eq!((s.live(), s.resident_slots(), s.slots()), (0, 17, 401));
    }

    /// A snapshot holds rows, not slot layout: the restored port numbers its
    /// rows from 0 — the rows that left first, dead and in the retraction
    /// log — and evicts by window exactly as the written one does. Only an
    /// arrival order the feed cannot produce is refused.
    #[test]
    fn a_snapshot_restores_rows_not_slot_layout() {
        let mut good = state();
        good.enable_retirement_log();
        for i in 0..200 {
            good.insert_slice_at(&row(i % 4, i), i as u64);
        }
        assert_eq!(good.evict_older_than(130), 130);
        good.trim_retired_to(128);
        let left = good.retired_since(0).to_vec();
        assert_eq!(left, [128, 129]);
        let mut e = Enc::new();
        good.write_state(&mut e);
        let mut port = state();
        port.read_state(&mut Dec::new(&e.buf)).unwrap();
        assert_eq!((port.slots(), port.resident_slots()), (72, 72));
        assert_eq!(port.retired_since(0), [0, 1]);
        assert_eq!(port.raw_row(1), good.raw_row(129));
        assert_eq!(port.live_slots(), (2..72).collect::<Vec<_>>());
        assert_eq!(
            port.probe(0, &Value::Int(2)).len(),
            good.probe(0, &Value::Int(2)).len()
        );
        assert_eq!(port.evict_older_than(140), good.evict_older_than(140));
        assert_eq!(port.live(), good.live());
        // A later arrival among the rows that left.
        let mut e = Enc::new();
        assert!(good.purge(199));
        good.write_state(&mut e);
        let err = state().read_state(&mut Dec::new(&e.buf)).unwrap_err();
        assert!(err.0.contains("not monotone"), "{err}");
    }

    #[test]
    fn a_row_pinned_at_slot_zero_blocks_reclaim_harmlessly() {
        let mut s = state();
        let hub = s.insert(row(9, 9));
        for i in 0..1000 {
            let slot = s.insert(row(i % 3, i));
            assert!(s.purge(slot));
            s.reclaim();
        }
        assert_eq!(s.resident_slots(), 1001, "holes behind a live row stay");
        assert_eq!(s.live_slots(), vec![hub]);
        assert_eq!(s.iter_live().count(), 1);
        assert_eq!(s.probe(0, &Value::Int(9)), &[hub]);
        assert!(s.purge(hub));
        s.reclaim();
        assert_eq!(s.resident_slots(), 1001 % 64, "unpinned: whole words go");
        assert_eq!(s.slots(), 1001);
        assert_eq!(s.insert(row(1, 1)), 1001);
    }

    /// A bucket leaves whole: the other indexes keep their survivors in
    /// insertion order, the retraction log lists every slot in bucket order,
    /// and the emptied bucket serves the next key born.
    #[test]
    fn bucket_purge_drops_a_key_whole() {
        let mut s = state();
        let b = s.add_purge_index(&[1], false);
        s.enable_retirement_log();
        let rows = [(1, 10), (2, 10), (1, 20), (3, 10), (1, 10)];
        let slots = rows.map(|(a, b)| s.insert(row(a, b)));
        let one = [Value::Int(1)];
        // Deciding: key 1 once (its repeat is skipped), by its oldest row,
        // then key 2 (kept), and 9 not at all.
        let mut asked = Vec::new();
        let mut sweep = Sweep::default();
        let keys = [one[0], one[0], Value::Int(2), Value::Int(9)];
        let mut pred = |slot, row: &[Value]| {
            asked.push(slot);
            row[0] == one[0]
        };
        s.collect_buckets(0, &keys, &mut pred, &mut sweep);
        assert_eq!((asked, sweep.examined), (vec![slots[0], slots[1]], 4));
        assert_eq!(sweep.keys, one);

        assert_eq!(s.purge_swept(&sweep), 3);
        assert!(s.purge_index_eq(0, &one).is_empty());
        assert_eq!(
            s.purge_index_eq(b, &[Value::Int(10)]),
            &[slots[1], slots[3]]
        );
        assert!(s.purge_index_eq(b, &[Value::Int(20)]).is_empty());
        assert_eq!(s.retired_since(0), &[slots[0], slots[2], slots[4]]);
        assert_eq!((s.live(), s.purged()), (2, 3));
        assert_eq!(s.purge_bucket(0, &one), 0, "already gone");

        // Both emptied buckets wait as spares and come back for new keys.
        let spares = |s: &PortState| [0, b].map(|id| s.indexes[id].spare.len());
        assert_eq!(spares(&s), [1, 1]);
        let reborn = s.insert(row(7, 30));
        assert_eq!(spares(&s), [0, 0]);
        assert_eq!(s.purge_index_eq(0, &[Value::Int(7)]), &[reborn]);
    }

    #[test]
    fn collect_matching_and_purge_slots() {
        let mut s = state();
        let s0 = s.insert(row(1, 10));
        let s1 = s.insert(row(2, 20));
        let s2 = s.insert(row(3, 30));
        s.purge(s1);
        // Full scan: only live rows are examined.
        let mut sweep = Sweep::default();
        s.collect_matching(None, &mut |_, r| r[0] >= Value::Int(3), &mut sweep);
        assert_eq!((sweep.examined, &sweep.slots[..]), (2, &[s2][..]));
        // Candidate-driven: dead candidates are skipped, not examined; the
        // caller's sweep is overwritten, not appended to.
        s.collect_matching(Some(&[s0, s1, s2]), &mut |_, _| true, &mut sweep);
        assert_eq!(sweep.examined, 2);
        assert_eq!(s.purge_slots(&sweep.slots), 2);
        assert_eq!(s.purge_slots(&sweep.slots), 0, "already dead");
        assert_eq!(s.live(), 0);
    }
}

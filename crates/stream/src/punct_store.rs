//! Per-stream punctuation stores.
//!
//! Punctuations must be kept after use: they purge not only current join
//! state but also *future* tuples' purge checks (paper §5.1). The store keeps
//! each scheme's instantiations as a value-combination index, supports the
//! coverage queries the chained purge strategy needs, and implements the two
//! practical mitigation mechanisms of §5.1 — *lifespans* (entries expire
//! after a configurable age) and *punctuation purging* (entries dropped once
//! punctuations from partner streams make them unnecessary; driven by the
//! purge engine, which knows the join topology). A hash scheme no query reads
//! stores nothing at all (the engine counts its readers: `PunctStore::read`).

use cjq_core::fxhash::{FxHashMap, FxHashSet};

use cjq_core::punctuation::Punctuation;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;

use crate::checkpoint::{Codec, Dec, Enc, SnapshotError, SnapshotResult};

/// One coverage-*expanding* change to a store: the only events that can
/// flip a tuple's purge check from "keep" to "purgeable". The indexed purge
/// path replays these instead of re-checking all live state; refreshes
/// (re-inserted entries, non-advancing heartbeats) change no coverage and
/// are deliberately not logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PunctDelta {
    /// A new constant combination under scheme `scheme_idx` (in scheme
    /// attribute order).
    Entry {
        /// Index of the scheme within the store.
        scheme_idx: usize,
        /// The newly covered combination.
        combo: Vec<Value>,
    },
    /// The ordered scheme's threshold advanced: values in `(above, upto]`
    /// became covered (`above = None` means the threshold appeared, covering
    /// everything up to `upto`).
    Advance {
        /// Index of the (ordered) scheme within the store.
        scheme_idx: usize,
        /// The previous threshold, exclusive lower bound of the new range.
        above: Option<Value>,
        /// The new threshold, inclusive upper bound.
        upto: Value,
    },
}

impl PunctDelta {
    /// The scheme this delta belongs to.
    #[must_use]
    pub fn scheme_idx(&self) -> usize {
        match self {
            PunctDelta::Entry { scheme_idx, .. } | PunctDelta::Advance { scheme_idx, .. } => {
                *scheme_idx
            }
        }
    }
}

/// Pre-insertion classification of a punctuation against the store's
/// scheme invariants (the admission guard's view; see `crate::guard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PunctClass {
    /// Expands coverage (or matches no scheme): always admissible.
    Fresh,
    /// Repeats coverage the store already holds exactly. Admitting it only
    /// refreshes the entry's lifespan clock; dropping it is sound.
    Duplicate,
    /// An ordered-scheme bound strictly below the current threshold — the
    /// non-decreasing heartbeat invariant is broken. Admitting it as a
    /// refresh (clamp) is sound; its literal content is not.
    Regressive,
}

/// Outcome of inserting a punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The punctuation instantiates the scheme with this index; its constant
    /// combination was added (or refreshed) in the index.
    Matched(usize),
    /// It instantiates a hash scheme nobody reads: it is forgotten.
    Forgotten,
    /// No registered scheme matches; kept in the unmatched list (usable for
    /// tuple-consistency checks but not for purging).
    Unmatched,
}

/// Punctuation store for one raw stream.
#[derive(Debug, Clone)]
pub struct PunctStore {
    stream: StreamId,
    schemes: Vec<PunctuationScheme>,
    /// Per scheme: constant combination (in scheme attribute order) → arrival
    /// sequence number (for lifespan expiry).
    entries: Vec<FxHashMap<Vec<Value>, u64>>,
    /// Per scheme: the running maximum heartbeat bound (ordered schemes
    /// only) and its arrival time. One threshold covers the whole prefix —
    /// O(1) store state per ordered scheme.
    thresholds: Vec<Option<(Value, u64)>>,
    /// Per scheme: how many readers keep its punctuations.
    readers: Vec<usize>,
    unmatched: Vec<Punctuation>,
    /// Positions in `unmatched` by the first constant `(attribute, value)`
    /// (`None`: no constant): only one filed under a cell of a tuple, or
    /// under `None`, can forbid it.
    unmatched_at: FxHashMap<Option<(usize, Value)>, Vec<usize>>,
    lifespan: Option<u64>,
    /// Coverage deltas since the log was last trimmed, in arrival order.
    delta_log: Vec<PunctDelta>,
    /// Absolute sequence number of `delta_log[0]` (total deltas ever trimmed).
    delta_base: u64,
}

impl PunctStore {
    /// Creates a store for `stream`, registering the schemes `ℜ` declares for
    /// it, none of them read yet ([`PunctStore::read`]). `lifespan` enables
    /// §5.1 expiry: entries older than this many sequence ticks are dropped
    /// by [`PunctStore::expire`].
    #[must_use]
    pub(crate) fn new(stream: StreamId, schemes: &SchemeSet, lifespan: Option<u64>) -> Self {
        let schemes: Vec<PunctuationScheme> = schemes.for_stream(stream).cloned().collect();
        let entries = vec![FxHashMap::default(); schemes.len()];
        let thresholds = vec![None; schemes.len()];
        PunctStore {
            stream,
            readers: vec![0; schemes.len()],
            schemes,
            entries,
            thresholds,
            unmatched: Vec::new(),
            unmatched_at: FxHashMap::default(),
            lifespan,
            delta_log: Vec::new(),
            delta_base: 0,
        }
    }

    /// The stream this store serves.
    #[must_use]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The registered schemes.
    #[must_use]
    pub fn schemes(&self) -> &[PunctuationScheme] {
        &self.schemes
    }

    /// Index of `scheme` among the registered ones.
    #[must_use]
    pub fn scheme_index(&self, scheme: &PunctuationScheme) -> Option<usize> {
        self.schemes.iter().position(|s| s == scheme)
    }

    /// Counts a reader of every scheme `reads` accepts in (`add`) or out. A
    /// hash scheme with none forgets each punctuation as it comes (its
    /// entries go at the next [`PunctStore::end_cycle`]).
    pub(crate) fn read(&mut self, reads: impl Fn(&PunctuationScheme) -> bool, add: bool) {
        let counts = self.schemes.iter().zip(&mut self.readers);
        for (_, n) in counts.filter(|(s, _)| reads(s)) {
            *n = if add { *n + 1 } else { *n - 1 };
        }
    }

    /// Classifies `p` against the store's current coverage without changing
    /// anything. The first matching scheme decides (mirroring
    /// [`PunctStore::insert`], which applies only the first match).
    #[must_use]
    pub fn classify(&self, p: &Punctuation) -> PunctClass {
        for (i, scheme) in self.schemes.iter().enumerate() {
            if scheme.is_instance(p) {
                if scheme.is_ordered() {
                    let Some(bound) = p.patterns[scheme.punctuatable()[0].0].bound() else {
                        return PunctClass::Fresh;
                    };
                    return match self.thresholds[i].as_ref().map(|(cur, _)| cur) {
                        Some(cur) if bound < cur => PunctClass::Regressive,
                        Some(cur) if bound == cur => PunctClass::Duplicate,
                        _ => PunctClass::Fresh,
                    };
                }
                // One constant needs no `Vec` to be looked up.
                if let [a] = scheme.punctuatable() {
                    let key = p.patterns[a.0].constant().map(std::slice::from_ref);
                    return match key.is_some_and(|key| self.entries[i].contains_key(key)) {
                        true => PunctClass::Duplicate,
                        false => PunctClass::Fresh,
                    };
                }
                let combo: Vec<Value> = scheme
                    .punctuatable()
                    .iter()
                    .filter_map(|a| p.patterns[a.0].constant().copied())
                    .collect();
                if combo.len() == scheme.arity() && self.entries[i].contains_key(&combo) {
                    return PunctClass::Duplicate;
                }
                return PunctClass::Fresh;
            }
        }
        PunctClass::Fresh
    }

    /// Inserts a punctuation observed at sequence time `now`.
    pub fn insert(&mut self, p: &Punctuation, now: u64) -> InsertOutcome {
        debug_assert_eq!(p.stream, self.stream, "punctuation routed to wrong store");
        for (i, scheme) in self.schemes.iter().enumerate() {
            if scheme.is_instance(p) {
                if scheme.is_ordered() {
                    let bound = *p.patterns[scheme.punctuatable()[0].0]
                        .bound()
                        .expect("ordered instance carries a bound");
                    let prev = self.thresholds[i].as_ref().map(|(cur, _)| *cur);
                    let advance = prev.is_none_or(|cur| cur < bound);
                    if advance {
                        self.thresholds[i] = Some((bound, now));
                        self.delta_log.push(PunctDelta::Advance {
                            scheme_idx: i,
                            above: prev,
                            upto: bound,
                        });
                    } else if let Some((_, at)) = &mut self.thresholds[i] {
                        *at = now; // refresh the lifespan clock
                    }
                } else if self.readers[i] == 0 {
                    return InsertOutcome::Forgotten;
                } else {
                    let combo: Vec<Value> = scheme
                        .punctuatable()
                        .iter()
                        .map(|a| {
                            *p.patterns[a.0]
                                .constant()
                                .expect("instance has constants on punctuatable attrs")
                        })
                        .collect();
                    if self.entries[i].insert(combo.clone(), now).is_none() {
                        self.delta_log.push(PunctDelta::Entry {
                            scheme_idx: i,
                            combo,
                        });
                    }
                }
                return InsertOutcome::Matched(i);
            }
        }
        self.file_unmatched(p.clone());
        InsertOutcome::Unmatched
    }

    /// Keeps `p`, which no scheme describes, filed for
    /// [`PunctStore::matches_tuple`].
    fn file_unmatched(&mut self, p: Punctuation) {
        let key = p.constant_attrs().next().map(|(a, v)| (a.0, *v));
        let filed = self.unmatched_at.entry(key).or_default();
        filed.push(self.unmatched.len());
        self.unmatched.push(p);
    }

    /// Absolute sequence number just past the newest delta — the cursor a
    /// consumer should hold after processing everything.
    #[must_use]
    pub fn delta_end(&self) -> u64 {
        self.delta_base + self.delta_log.len() as u64
    }

    /// Coverage deltas with sequence numbers `>= cursor`, oldest first. A
    /// cursor older than the trimmed prefix is clamped to the log base: the
    /// consumer then sees every retained delta (a safe over-approximation).
    #[must_use]
    pub fn deltas_since(&self, cursor: u64) -> &[PunctDelta] {
        let skip = cursor.saturating_sub(self.delta_base) as usize;
        &self.delta_log[skip..]
    }

    /// Ends a purge cycle once every consumer has caught up: drops the
    /// retained delta log (advancing the base so cursors keep their meaning)
    /// and the entries of the schemes nobody reads any more. Returns how many.
    pub(crate) fn end_cycle(&mut self) -> usize {
        self.delta_base += self.delta_log.len() as u64;
        self.delta_log.clear();
        let unread = self.entries.iter_mut().zip(&self.readers);
        let unread = unread.filter(|(_, &n)| n == 0);
        unread.map(|(m, _)| std::mem::take(m).len()).sum()
    }

    /// Whether the value combination `combo` (in scheme attribute order) has
    /// been punctuated under scheme `scheme_idx` (for ordered schemes: the
    /// value is at or below the heartbeat threshold).
    #[must_use]
    pub fn covers(&self, scheme_idx: usize, combo: &[Value]) -> bool {
        if self.schemes[scheme_idx].is_ordered() {
            return self.thresholds[scheme_idx]
                .as_ref()
                .is_some_and(|(t, _)| &combo[0] <= t);
        }
        self.entries[scheme_idx].contains_key(combo)
    }

    /// Whether some *single-attribute* scheme on `attr` has punctuated
    /// `value` (the binary-join purge test of §3.1; ordered schemes cover
    /// every value at or below their threshold).
    #[must_use]
    pub fn covers_single(&self, attr: AttrId, value: &Value) -> bool {
        self.schemes.iter().enumerate().any(|(i, s)| {
            s.arity() == 1
                && s.punctuatable()[0] == attr
                && self.covers(i, std::slice::from_ref(value))
        })
    }

    /// Whether any stored punctuation forbids this tuple (i.e. the tuple
    /// would violate a previously seen punctuation — used for feed
    /// consistency checking and for group-closing).
    #[must_use]
    pub fn matches_tuple(&self, values: &[Value]) -> bool {
        // Per-tuple hot path (every observed tuple checks every scheme):
        // build the combo on the stack for the common small arities.
        let mut stack = [Value::Null; 8];
        let scheme_hit = self.schemes.iter().enumerate().any(|(i, s)| {
            let attrs = s.punctuatable();
            if attrs.len() <= stack.len() {
                for (j, a) in attrs.iter().enumerate() {
                    stack[j] = values[a.0];
                }
                self.covers(i, &stack[..attrs.len()])
            } else {
                let combo: Vec<Value> = attrs.iter().map(|a| values[a.0]).collect();
                self.covers(i, &combo)
            }
        });
        // An unmatched punctuation is filed under one cell it fixes, if any.
        let cells = values.iter().enumerate().map(|(a, v)| Some((a, *v)));
        let filed = |key| self.unmatched_at.get(&key).into_iter().flatten();
        let mut hits = cells.chain([None]).flat_map(filed);
        scheme_hit || !self.unmatched.is_empty() && hits.any(|&i| self.unmatched[i].matches(values))
    }

    /// Drops entries older than the configured lifespan (§5.1: e.g. TCP
    /// sequence numbers cycle every ~4.55 h, after which their punctuations
    /// expire). Returns the number of dropped entries. No-op without a
    /// lifespan.
    pub fn expire(&mut self, now: u64) -> usize {
        let Some(lifespan) = self.lifespan else {
            return 0;
        };
        let mut dropped = 0;
        for m in &mut self.entries {
            let before = m.len();
            m.retain(|_, at| now.saturating_sub(*at) <= lifespan);
            dropped += before - m.len();
        }
        for t in &mut self.thresholds {
            if t.as_ref()
                .is_some_and(|(_, at)| now.saturating_sub(*at) > lifespan)
            {
                *t = None;
                dropped += 1;
            }
        }
        dropped
    }

    /// Removes one entry (used by §5.1 punctuation purging). Returns whether
    /// it was present.
    pub fn remove(&mut self, scheme_idx: usize, combo: &[Value]) -> bool {
        self.entries[scheme_idx].remove(combo).is_some()
    }

    /// The stored keys of one-attribute scheme `scheme_idx` in `(above,
    /// upto]` — what a partner's threshold advance newly certifies against.
    /// One pass over that scheme's entries, taken only where a hash scheme
    /// faces an ordered partner (whose advances also keep it short).
    pub(crate) fn keys_between<'s>(
        &'s self,
        scheme_idx: usize,
        above: Option<&'s Value>,
        upto: &'s Value,
    ) -> impl Iterator<Item = Value> + 's {
        let keys = self.entries[scheme_idx].keys().map(|combo| combo[0]);
        keys.filter(move |k| above.is_none_or(|a| k > a) && k <= upto)
    }

    /// Total number of stored entries (scheme instantiations + heartbeat
    /// thresholds + unmatched).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.iter().map(FxHashMap::len).sum::<usize>()
            + self.thresholds.iter().flatten().count()
            + self.unmatched.len()
    }

    /// Whether the store holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the store's logical state: per scheme the entries the last
    /// purge cycle left (sorted, so the bytes are deterministic) with their
    /// clocks, and the threshold it left with the clock of its newest
    /// admission; the unmatched punctuations; then the punctuation run
    /// admitted since, in arrival order — each new entry with its clock, each
    /// threshold advance as its new bound. Schemes, readers and the lifespan
    /// are compile-time artifacts; the delta log is rebuilt from the run.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        let pending = self.delta_log.iter().filter_map(|d| match d {
            PunctDelta::Entry { scheme_idx, combo } => Some((*scheme_idx, &combo[..])),
            PunctDelta::Advance { .. } => None,
        });
        let pending: FxHashSet<(usize, &[Value])> = pending.collect();
        e.usize(self.schemes.len());
        for (i, (entries, threshold)) in self.entries.iter().zip(&self.thresholds).enumerate() {
            let settled = entries
                .iter()
                .filter(|(c, _)| !pending.contains(&(i, &c[..])));
            let mut settled: Vec<(&Vec<Value>, &u64)> = settled.collect();
            settled.sort_unstable();
            e.usize(settled.len());
            for (combo, &at) in settled {
                combo.enc(e);
                e.u64(at);
            }
            let first = self.delta_log.iter().find_map(|d| match d {
                PunctDelta::Advance {
                    scheme_idx, above, ..
                } if *scheme_idx == i => Some(*above),
                _ => None,
            });
            first.unwrap_or(threshold.map(|(bound, _)| bound)).enc(e);
            e.u64(threshold.map_or(0, |(_, at)| at));
        }
        self.unmatched.enc(e);
        e.usize(self.delta_log.len());
        for d in &self.delta_log {
            e.u8(u8::from(matches!(d, PunctDelta::Advance { .. })));
            e.usize(d.scheme_idx());
            match d {
                PunctDelta::Entry { scheme_idx, combo } => {
                    combo.enc(e);
                    let at = self.entries[*scheme_idx].get(combo);
                    e.u64(*at.expect("an entry stays stored until a cycle ends its run"));
                }
                PunctDelta::Advance { upto, .. } => e.value(upto),
            }
        }
    }

    /// Restores [`PunctStore::write_state`]'s words onto this freshly created
    /// store, then re-applies the pending run as admission would: the delta
    /// log holds an entry the store did not hold and a bound that raised a
    /// threshold, each stored as it is logged — every delta a tracker
    /// replays is covered by construction, and coverage cannot arrive
    /// without its delta. What is refused is an entry or bound that fits no
    /// scheme of the store.
    pub(crate) fn read_state(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        d.count_of("schemes of a punctuation store", self.schemes.len())?;
        let mut clocks = vec![0; self.schemes.len()];
        for (i, clock) in clocks.iter_mut().enumerate() {
            for _ in 0..d.len_prefix(16)? {
                let combo: Vec<Value> = Codec::dec(d)?;
                self.fits(i, Some(&combo))?;
                self.entries[i].insert(combo, d.u64()?);
            }
            let bound: Option<Value> = Codec::dec(d)?;
            if bound.is_some() {
                self.fits(i, None)?;
            }
            *clock = d.u64()?;
            self.thresholds[i] = bound.map(|bound| (bound, *clock));
        }
        let unmatched: Vec<Punctuation> = Codec::dec(d)?;
        unmatched.into_iter().for_each(|p| self.file_unmatched(p));
        for _ in 0..d.len_prefix(1)? {
            let (tag, i) = (d.u8()?, d.usize()?);
            let delta = match tag {
                0 => {
                    let combo: Vec<Value> = Codec::dec(d)?;
                    self.fits(i, Some(&combo))?;
                    let fresh = self.entries[i].insert(combo.clone(), d.u64()?).is_none();
                    fresh.then_some(PunctDelta::Entry {
                        scheme_idx: i,
                        combo,
                    })
                }
                1 => {
                    let upto = d.value()?;
                    self.fits(i, None)?;
                    let above = self.thresholds[i].map(|(bound, _)| bound);
                    let rises = above.is_none_or(|bound| bound < upto);
                    rises.then(|| {
                        self.thresholds[i] = Some((upto, clocks[i]));
                        PunctDelta::Advance {
                            scheme_idx: i,
                            above,
                            upto,
                        }
                    })
                }
                t => return Err(SnapshotError(format!("unknown punctuation tag {t}"))),
            };
            self.delta_log.extend(delta);
        }
        Ok(())
    }

    /// Refuses a restored punctuation that fits no scheme of the store: one
    /// of hash scheme `i` (`Some` of its constants) or ordered scheme `i`.
    fn fits(&self, i: usize, combo: Option<&[Value]>) -> SnapshotResult<()> {
        let fits = |scheme: &PunctuationScheme| match combo {
            Some(combo) => !scheme.is_ordered() && combo.len() == scheme.arity(),
            None => scheme.is_ordered(),
        };
        match self.schemes.get(i).is_some_and(fits) {
            true => Ok(()),
            false => Err(SnapshotError(format!(
                "a punctuation of {} values fits no scheme {i} of the store",
                combo.map_or(1, <[Value]>::len)
            ))),
        }
    }
}

#[cfg(test)]
impl PunctStore {
    /// Iterates the stored combinations of scheme `scheme_idx`.
    pub(crate) fn combos(&self, scheme_idx: usize) -> impl Iterator<Item = &Vec<Value>> {
        self.entries[scheme_idx].keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid_store(lifespan: Option<u64>) -> PunctStore {
        // bid(bidderid, itemid, increase) with schemes on itemid and on
        // (bidderid, itemid).
        let schemes = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[1]).unwrap(),
            PunctuationScheme::on(1, &[0, 1]).unwrap(),
        ]);
        reading(&schemes, lifespan)
    }

    /// A store on bid whose every scheme has a reader, as the engine's
    /// stores have once a tenant reads them.
    fn reading(schemes: &SchemeSet, lifespan: Option<u64>) -> PunctStore {
        let mut store = PunctStore::new(StreamId(1), schemes, lifespan);
        store.read(|_| true, true);
        store
    }

    fn punct(consts: &[(usize, i64)]) -> Punctuation {
        let pairs: Vec<(AttrId, Value)> = consts
            .iter()
            .map(|&(a, v)| (AttrId(a), Value::Int(v)))
            .collect();
        Punctuation::with_constants(StreamId(1), 3, &pairs)
    }

    #[test]
    fn insert_matches_schemes() {
        let mut store = bid_store(None);
        assert_eq!(
            store.insert(&punct(&[(1, 7)]), 0),
            InsertOutcome::Matched(0)
        );
        assert_eq!(
            store.insert(&punct(&[(0, 3), (1, 7)]), 1),
            InsertOutcome::Matched(1)
        );
        // Constants on `increase` match no scheme.
        assert_eq!(store.insert(&punct(&[(2, 5)]), 2), InsertOutcome::Unmatched);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn coverage_queries() {
        let mut store = bid_store(None);
        store.insert(&punct(&[(1, 7)]), 0);
        store.insert(&punct(&[(0, 3), (1, 8)]), 0);
        assert!(store.covers(0, &[Value::Int(7)]));
        assert!(!store.covers(0, &[Value::Int(8)]));
        assert!(store.covers(1, &[Value::Int(3), Value::Int(8)]));
        assert!(store.covers_single(AttrId(1), &Value::Int(7)));
        assert!(!store.covers_single(AttrId(1), &Value::Int(8)));
        // The multi-attribute scheme never answers covers_single.
        assert!(!store.covers_single(AttrId(0), &Value::Int(3)));
    }

    #[test]
    fn matches_tuple_detects_violations() {
        let mut store = bid_store(None);
        store.insert(&punct(&[(1, 7)]), 0);
        store.insert(&punct(&[(2, 99)]), 0); // unmatched, still checked
        assert!(store.matches_tuple(&[Value::Int(1), Value::Int(7), Value::Int(5)]));
        assert!(!store.matches_tuple(&[Value::Int(1), Value::Int(8), Value::Int(5)]));
        assert!(store.matches_tuple(&[Value::Int(1), Value::Int(8), Value::Int(99)]));
    }

    /// Unmatched punctuations are filed by their first constant: with a
    /// thousand of them, a tuple matching one is still refused and the others
    /// are admitted, also after a snapshot round trip.
    #[test]
    fn many_unmatched_punctuations_refuse_exactly_their_tuples() {
        let mut store = bid_store(None);
        for v in 0..1000 {
            store.insert(&punct(&[(2, v)]), 0); // filed under `increase`
        }
        store.insert(&punct(&[(0, 3), (2, 5000)]), 0); // under `bidderid`
        let row = |b, inc| [Value::Int(b), Value::Int(-1), Value::Int(inc)];
        let check = |store: &PunctStore| {
            assert!(store.matches_tuple(&row(1, 512)));
            assert!(store.matches_tuple(&row(3, 5000)));
            assert!(!store.matches_tuple(&row(4, 5000)), "another bidder");
            assert!(!store.matches_tuple(&row(1, 1000)));
            assert!(!store.matches_tuple(&row(3, 5001)));
        };
        check(&store);
        let mut e = Enc::new();
        store.write_state(&mut e);
        let mut restored = bid_store(None);
        restored.read_state(&mut Dec::new(&e.buf)).unwrap();
        assert_eq!(restored.len(), 1001);
        check(&restored);
    }

    #[test]
    fn lifespan_expiry() {
        let mut store = bid_store(Some(10));
        store.insert(&punct(&[(1, 1)]), 0);
        store.insert(&punct(&[(1, 2)]), 5);
        assert_eq!(store.expire(8), 0);
        assert_eq!(store.expire(12), 1); // entry from t=0 is older than 10
        assert!(!store.covers(0, &[Value::Int(1)]));
        assert!(store.covers(0, &[Value::Int(2)]));
        // Without lifespan nothing expires.
        let mut forever = bid_store(None);
        forever.insert(&punct(&[(1, 1)]), 0);
        assert_eq!(forever.expire(1_000_000), 0);
    }

    #[test]
    fn remove_and_counts() {
        let mut store = bid_store(None);
        store.insert(&punct(&[(1, 7)]), 0);
        assert!(store.remove(0, &[Value::Int(7)]));
        assert!(!store.remove(0, &[Value::Int(7)]));
        assert!(store.is_empty());
        assert_eq!(store.combos(0).count(), 0);
    }

    #[test]
    fn ordered_thresholds_cover_prefixes_in_constant_space() {
        let schemes = SchemeSet::from_schemes([
            PunctuationScheme::ordered_on(1, 1).unwrap(), // bid.itemid, ordered
        ]);
        let mut store = reading(&schemes, None);
        for bound in [5i64, 3, 9] {
            // Out-of-order heartbeats: the threshold only advances.
            let hb = Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(bound));
            assert_eq!(store.insert(&hb, 0), InsertOutcome::Matched(0));
        }
        assert_eq!(store.len(), 1, "one threshold, not one entry per heartbeat");
        assert!(store.covers(0, &[Value::Int(9)]));
        assert!(store.covers(0, &[Value::Int(-100)]));
        assert!(!store.covers(0, &[Value::Int(10)]));
        assert!(store.covers_single(AttrId(1), &Value::Int(4)));
        assert!(!store.covers_single(AttrId(1), &Value::Int(10)));
        // Tuples at or below the watermark are dead.
        assert!(store.matches_tuple(&[Value::Int(1), Value::Int(9), Value::Int(0)]));
        assert!(!store.matches_tuple(&[Value::Int(1), Value::Int(10), Value::Int(0)]));
    }

    #[test]
    fn ordered_thresholds_expire_with_lifespans() {
        let schemes = SchemeSet::from_schemes([PunctuationScheme::ordered_on(1, 1).unwrap()]);
        let mut store = reading(&schemes, Some(10));
        store.insert(
            &Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(5)),
            0,
        );
        assert_eq!(store.expire(5), 0);
        assert_eq!(store.expire(20), 1);
        assert!(!store.covers(0, &[Value::Int(1)]));
    }

    #[test]
    fn delta_log_records_only_coverage_growth() {
        let mut store = bid_store(None);
        assert_eq!(store.delta_end(), 0);
        store.insert(&punct(&[(1, 7)]), 0);
        store.insert(&punct(&[(1, 7)]), 1); // refresh: no new coverage
        store.insert(&punct(&[(0, 3), (1, 7)]), 2);
        store.insert(&punct(&[(2, 5)]), 3); // unmatched: no coverage at all
        let deltas = store.deltas_since(0);
        assert_eq!(
            deltas,
            &[
                PunctDelta::Entry {
                    scheme_idx: 0,
                    combo: vec![Value::Int(7)],
                },
                PunctDelta::Entry {
                    scheme_idx: 1,
                    combo: vec![Value::Int(3), Value::Int(7)],
                },
            ]
        );
        assert_eq!(store.deltas_since(1).len(), 1);
        assert_eq!(store.delta_end(), 2);
        // Trimming preserves cursor meaning; stale cursors are clamped.
        store.end_cycle();
        assert_eq!(store.delta_end(), 2);
        assert!(store.deltas_since(0).is_empty());
        store.insert(&punct(&[(1, 8)]), 4);
        assert_eq!(store.deltas_since(2).len(), 1);
        assert_eq!(store.deltas_since(0).len(), 1, "clamped to the log base");
        assert_eq!(store.deltas_since(3).len(), 0);
    }

    #[test]
    fn delta_log_tracks_threshold_advances() {
        let schemes = SchemeSet::from_schemes([PunctuationScheme::ordered_on(1, 1).unwrap()]);
        let mut store = reading(&schemes, None);
        for bound in [5i64, 3, 9] {
            let hb = Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(bound));
            store.insert(&hb, 0);
        }
        // 3 never advanced the threshold: two deltas, ranges chaining.
        assert_eq!(
            store.deltas_since(0),
            &[
                PunctDelta::Advance {
                    scheme_idx: 0,
                    above: None,
                    upto: Value::Int(5),
                },
                PunctDelta::Advance {
                    scheme_idx: 0,
                    above: Some(Value::Int(5)),
                    upto: Value::Int(9),
                },
            ]
        );
    }

    #[test]
    fn classify_flags_duplicates_and_regressions() {
        let mut store = bid_store(None);
        let p = punct(&[(1, 7)]);
        assert_eq!(store.classify(&p), PunctClass::Fresh);
        store.insert(&p, 0);
        assert_eq!(store.classify(&p), PunctClass::Duplicate);
        assert_eq!(store.classify(&punct(&[(1, 8)])), PunctClass::Fresh);
        // Unmatched punctuations are always fresh.
        assert_eq!(store.classify(&punct(&[(2, 5)])), PunctClass::Fresh);

        let schemes = SchemeSet::from_schemes([PunctuationScheme::ordered_on(1, 1).unwrap()]);
        let mut ordered = reading(&schemes, None);
        let hb = |b: i64| Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(b));
        assert_eq!(ordered.classify(&hb(5)), PunctClass::Fresh);
        ordered.insert(&hb(5), 0);
        assert_eq!(ordered.classify(&hb(5)), PunctClass::Duplicate);
        assert_eq!(ordered.classify(&hb(3)), PunctClass::Regressive);
        assert_eq!(ordered.classify(&hb(9)), PunctClass::Fresh);
    }

    #[test]
    fn reinsert_refreshes_arrival_time() {
        let mut store = bid_store(Some(10));
        store.insert(&punct(&[(1, 1)]), 0);
        store.insert(&punct(&[(1, 1)]), 9);
        assert_eq!(store.expire(12), 0); // refreshed at 9, age 3 <= 10
        assert!(store.covers(0, &[Value::Int(1)]));
    }
}

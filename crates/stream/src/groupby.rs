//! Punctuation-unblocked grouping/aggregation (the paper's Example 1:
//! "track the difference between the final price and the initial price for
//! each item" — a SUM per itemid that can only be emitted once the auction
//! closes).
//!
//! Group-by is a *blocking* operator on unbounded streams: without extra
//! knowledge it can never emit a group, because more members might arrive.
//! Punctuations unblock it \[12\]: a punctuation whose constant attributes all
//! map to grouping columns guarantees that the matching groups are complete,
//! so they can be emitted and their state dropped.
//!
//! The same operator is punctuation-aware `DISTINCT` (the paper's §7, future
//! work (iii)): [`GroupBy::process_tuple`] answers whether the tuple opened a
//! group, which is a key's first occurrence. The open groups are the seen
//! set, a group a punctuation closes is a retired key, and
//! [`GroupBy::reads_scheme`] is the safety rule: the seen set is purgeable
//! iff some scheme's punctuatable attributes are all grouping attributes.

use std::collections::HashMap;

use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, AttrRef};
use cjq_core::scheme::PunctuationScheme;
use cjq_core::value::Value;

use crate::checkpoint::{Codec, Dec, Enc, Fingerprint, SnapshotError, SnapshotResult};
use crate::layout::SpanLayout;
use crate::purge::PurgeEngine;
use crate::sink::OutputBuffer;

/// The aggregate computed per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of an integer attribute.
    Sum(AttrRef),
    /// Count of members.
    Count,
    /// Minimum of an integer attribute (`Null` for empty groups).
    Min(AttrRef),
    /// Maximum of an integer attribute (`Null` for empty groups).
    Max(AttrRef),
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    sum: i64,
    count: u64,
    min: Option<i64>,
    max: Option<i64>,
}

/// Counters of a group-by's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupByStats {
    /// Input tuples consumed.
    pub tuples_in: u64,
    /// Groups emitted.
    pub emitted: u64,
    /// Groups closed specifically by punctuations.
    pub closed_by_punctuation: u64,
}

/// A streaming group-by over composite tuples in a fixed layout.
#[derive(Debug)]
pub struct GroupBy {
    layout: SpanLayout,
    group_cols: Vec<usize>,
    /// Per grouping column: the attribute references that determine its
    /// value. With join-equivalence awareness this is the whole equivalence
    /// class (e.g. both `item.itemid` and `bid.itemid`), so punctuations on
    /// either side can close groups.
    group_refs: Vec<Vec<AttrRef>>,
    agg: Aggregate,
    agg_col: Option<usize>,
    groups: HashMap<Vec<Value>, GroupState>,
    /// Statistics.
    pub stats: GroupByStats,
}

impl GroupBy {
    /// Creates a group-by over tuples laid out per `layout`, grouping on the
    /// given raw attributes and computing `agg`.
    ///
    /// # Panics
    /// Panics if a grouping or aggregate attribute is not in the layout.
    #[must_use]
    pub fn new(layout: SpanLayout, group_by: &[AttrRef], agg: Aggregate) -> Self {
        let group_cols: Vec<usize> = group_by
            .iter()
            .map(|r| {
                layout
                    .pos(r.stream, r.attr)
                    .unwrap_or_else(|| panic!("group attribute {r} not in layout"))
            })
            .collect();
        let agg_col = match agg {
            Aggregate::Sum(r) | Aggregate::Min(r) | Aggregate::Max(r) => Some(
                layout
                    .pos(r.stream, r.attr)
                    .unwrap_or_else(|| panic!("aggregate attribute {r} not in layout")),
            ),
            Aggregate::Count => None,
        };
        GroupBy {
            layout,
            group_cols,
            group_refs: group_by.iter().map(|r| vec![*r]).collect(),
            agg,
            agg_col,
            groups: HashMap::new(),
            stats: GroupByStats::default(),
        }
    }

    /// Like [`GroupBy::new`], additionally treating attributes that are
    /// join-equivalent to a grouping attribute (transitively, through the
    /// query's equi-join predicates) as aliases of it. Every result tuple
    /// carries equal values on join-equivalent positions, so a punctuation on
    /// *any* alias guarantees group completeness — e.g. in the auction query,
    /// both `bid.itemid` and `item.itemid` punctuations close item groups.
    #[must_use]
    pub fn for_query(
        query: &Cjq,
        layout: SpanLayout,
        group_by: &[AttrRef],
        agg: Aggregate,
    ) -> Self {
        let mut gb = GroupBy::new(layout, group_by, agg);
        for class in &mut gb.group_refs {
            // Transitive closure over equi-join predicates within the layout.
            let mut changed = true;
            while changed {
                changed = false;
                for p in query.predicates() {
                    for (a, b) in [(p.left, p.right), (p.right, p.left)] {
                        if class.contains(&a) && !class.contains(&b) {
                            class.push(b);
                            changed = true;
                        }
                    }
                }
            }
        }
        gb
    }

    /// Whether `scheme`'s punctuations can close groups: every punctuatable
    /// attribute is (an alias of) a grouping attribute.
    #[must_use]
    pub fn reads_scheme(&self, scheme: &PunctuationScheme) -> bool {
        let grouped = |a: &AttrId| AttrRef::new(scheme.stream.0, a.0);
        let mut refs = scheme.punctuatable().iter().map(grouped);
        refs.all(|r| self.group_refs.iter().any(|class| class.contains(&r)))
    }

    /// Number of open (unemitted) groups — the operator's blocking state.
    #[must_use]
    pub fn open_groups(&self) -> usize {
        self.groups.len()
    }

    /// Consumes one input tuple. Returns whether it opened a group: the
    /// first occurrence of its key since the key's group last closed.
    pub fn process_tuple(&mut self, values: &[Value]) -> bool {
        self.stats.tuples_in += 1;
        let key: Vec<Value> = self.group_cols.iter().map(|&c| values[c]).collect();
        let g = self.groups.entry(key).or_default();
        g.count += 1;
        if let Some(c) = self.agg_col {
            if let Value::Int(v) = &values[c] {
                g.sum += v;
                g.min = Some(g.min.map_or(*v, |m| m.min(*v)));
                g.max = Some(g.max.map_or(*v, |m| m.max(*v)));
            }
        }
        g.count == 1
    }

    /// Width of the emitted aggregate rows: grouping columns plus one
    /// aggregate column. Size [`OutputBuffer`]s for
    /// [`GroupBy::process_punctuation_into`] with this.
    #[must_use]
    pub fn out_width(&self) -> usize {
        self.group_cols.len() + 1
    }

    /// Applies a punctuation: closes every group whose key is guaranteed
    /// complete, appending its `key ++ [aggregate]` row to `out`, in key
    /// order. Returns the number of groups closed.
    ///
    /// A punctuation closes groups when **every** constant attribute maps to
    /// a grouping column (otherwise future inputs could still land in the
    /// group with different non-group values).
    pub fn process_punctuation_into(&mut self, p: &Punctuation, out: &mut OutputBuffer) -> usize {
        // Map each constant attr to a grouping column (directly or through a
        // join-equivalence alias); bail if one is not a group column.
        let mut required: Vec<(usize, &Value)> = Vec::new();
        for (attr, value) in p.constant_attrs() {
            let Some(pos) = self
                .group_refs
                .iter()
                .position(|class| class.iter().any(|r| r.stream == p.stream && r.attr == attr))
            else {
                return 0;
            };
            required.push((pos, value));
        }
        if required.is_empty() {
            return 0;
        }
        let mut closing: Vec<Vec<Value>> = self
            .groups
            .keys()
            .filter(|key| required.iter().all(|&(pos, v)| &key[pos] == v))
            .cloned()
            .collect();
        // In key order: a restored map iterates in another order than the
        // one it was written from.
        closing.sort_unstable();
        let closed = closing.len();
        for key in closing {
            let g = self.groups.remove(&key).expect("listed key exists");
            self.render_into(&key, &g, out.alloc_row(0));
            self.stats.closed_by_punctuation += 1;
        }
        self.stats.emitted += closed as u64;
        closed
    }

    fn render_into(&self, key: &[Value], g: &GroupState, row: &mut [Value]) {
        row[..key.len()].copy_from_slice(key);
        row[key.len()] = match self.agg {
            Aggregate::Sum(_) => Value::Int(g.sum),
            Aggregate::Count => Value::Int(g.count as i64),
            Aggregate::Min(_) => g.min.map_or(Value::Null, Value::Int),
            Aggregate::Max(_) => g.max.map_or(Value::Null, Value::Int),
        };
    }

    /// The input layout.
    #[must_use]
    pub fn layout(&self) -> &SpanLayout {
        &self.layout
    }

    /// Folds the columns a snapshot of this group-by's state is only
    /// meaningful under into `fp`: the grouping ones, then the aggregated one.
    pub(crate) fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.word(self.group_cols.len() as u64);
        let cols = self.group_cols.iter().chain(&self.agg_col);
        cols.for_each(|&c| fp.word(c as u64));
    }
}

/// A tenant's group-by stage over its root output (the paper's Figure 1
/// pipeline): the registry feeds it the root's rows after each cascade and
/// queues every admitted punctuation, and settles it at the end of a purge
/// cycle.
#[derive(Debug)]
pub(crate) struct GroupStage {
    pub by: GroupBy,
    /// Punctuations awaiting delivery: a punctuation may only close groups
    /// once no *stored* tuple of its stream can still produce matching
    /// outputs (the punctuation-propagation condition of \[12\]/\[6\]);
    /// until then it is pending.
    pub pending: Vec<Punctuation>,
    /// The aggregate rows emitted so far.
    pub aggregates: Vec<Vec<Value>>,
}

impl GroupStage {
    /// Delivers pending punctuations once safe: a punctuation on stream `S`
    /// closes groups only when no live stored `S` tuple matches it —
    /// otherwise that tuple could still join future data and add members to
    /// an already-emitted group. Returns the number of groups closed.
    pub(crate) fn settle(&mut self, engine: &PurgeEngine) -> u64 {
        let mut buf = OutputBuffer::new(self.by.out_width());
        let mut closed = 0;
        for p in std::mem::take(&mut self.pending) {
            let state = engine.mirror_state(p.stream);
            // Probe a mirror hash index when the punctuation pins a constant
            // on an indexed column — O(matching) instead of O(live).
            let indexed_probe = p.constant_attrs().find(|(attr, _)| state.has_index(attr.0));
            let blocked = match indexed_probe {
                Some((attr, value)) => state
                    .probe(attr.0, value)
                    .iter()
                    .filter_map(|&slot| state.get(slot))
                    .any(|row| p.matches(row)),
                None => state.iter_live().any(|(_, row)| p.matches(row)),
            };
            if blocked {
                self.pending.push(p);
            } else {
                buf.clear();
                closed += self.by.process_punctuation_into(&p, &mut buf) as u64;
                self.aggregates.extend(buf.rows().map(<[Value]>::to_vec));
            }
        }
        closed
    }

    /// Serializes the stage's logical state: the open groups in key order,
    /// the punctuations awaiting delivery, the aggregates emitted and the
    /// counters.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        let mut groups: Vec<_> = self.by.groups.iter().collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(b.0));
        e.usize(groups.len());
        for (key, g) in groups {
            key.enc(e);
            e.i64(g.sum);
            e.u64(g.count);
            g.min.enc(e);
            g.max.enc(e);
        }
        self.pending.enc(e);
        self.aggregates.enc(e);
        let stats = &self.by.stats;
        let counters = [stats.tuples_in, stats.emitted, stats.closed_by_punctuation];
        counters.into_iter().for_each(|w| e.u64(w));
    }

    /// Restores [`GroupStage::write_state`]'s words onto this fresh stage,
    /// whose query has `n_streams` streams.
    pub(crate) fn read_state(&mut self, d: &mut Dec<'_>, n_streams: usize) -> SnapshotResult<()> {
        let width = self.by.group_cols.len();
        for _ in 0..d.len_prefix(1)? {
            let key: Vec<Value> = Codec::dec(d)?;
            if key.len() != width {
                return Err(SnapshotError(format!(
                    "a group key of {} values",
                    key.len()
                )));
            }
            let g = self.by.groups.entry(key).or_default();
            (g.sum, g.count) = (d.i64()?, d.u64()?);
            (g.min, g.max) = (Codec::dec(d)?, Codec::dec(d)?);
        }
        self.pending = Codec::dec(d)?;
        if self.pending.iter().any(|p| p.stream.0 >= n_streams) {
            return Err(SnapshotError("a pending punctuation of no stream".into()));
        }
        self.aggregates = Codec::dec(d)?;
        let stats = &mut self.by.stats;
        [stats.tuples_in, stats.emitted, stats.closed_by_punctuation] =
            [d.u64()?, d.u64()?, d.u64()?];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::schema::{AttrId, StreamId};
    use cjq_core::scheme::PunctuationScheme;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    /// Group-by over item ⋈ bid outputs: key = bid.itemid, agg = sum(increase).
    fn auction_groupby() -> GroupBy {
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(0), StreamId(1)]);
        GroupBy::new(
            layout,
            &[AttrRef {
                stream: StreamId(1),
                attr: AttrId(1),
            }],
            Aggregate::Sum(AttrRef {
                stream: StreamId(1),
                attr: AttrId(2),
            }),
        )
    }

    /// The rows `p` closes in `g`, through the group stage's own entry point.
    fn closed(g: &mut GroupBy, p: &Punctuation) -> Vec<Vec<Value>> {
        let mut out = OutputBuffer::new(g.out_width());
        let n = g.process_punctuation_into(p, &mut out);
        assert_eq!(n, out.len(), "one row per closed group");
        out.rows().map(<[Value]>::to_vec).collect()
    }

    fn joined(itemid: i64, increase: i64) -> Vec<Value> {
        // item(seller, itemid, name, price) ++ bid(bidder, itemid, incr)
        vec![
            ival(7),
            ival(itemid),
            "x".into(),
            ival(100),
            ival(3),
            ival(itemid),
            ival(increase),
        ]
    }

    #[test]
    fn groups_blocked_until_punctuation() {
        let mut g = auction_groupby();
        g.process_tuple(&joined(1, 5));
        g.process_tuple(&joined(1, 7));
        g.process_tuple(&joined(2, 9));
        assert_eq!(g.open_groups(), 2);

        // Irrelevant punctuation (bidderid) closes nothing.
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(0), ival(3))]);
        assert!(closed(&mut g, &p).is_empty());

        // Auction for item 1 closes: emits sum 12.
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(1))]);
        let out = closed(&mut g, &p);
        assert_eq!(out, vec![vec![ival(1), ival(12)]]);
        assert_eq!(g.open_groups(), 1);
        assert_eq!(g.stats.closed_by_punctuation, 1);
    }

    #[test]
    fn join_equivalent_punctuations_close_groups() {
        // GROUP BY bid.itemid; item.itemid is join-equivalent, so the
        // item-side uniqueness punctuation also closes the group... wait:
        // item.itemid punctuations guarantee no further item tuples with
        // that id, hence no further join outputs carrying it.
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(0), StreamId(1)]);
        let mut g = GroupBy::for_query(
            &q,
            layout,
            &[AttrRef {
                stream: StreamId(1),
                attr: AttrId(1),
            }],
            Aggregate::Sum(AttrRef {
                stream: StreamId(1),
                attr: AttrId(2),
            }),
        );
        g.process_tuple(&joined(1, 5));
        // Punctuation on ITEM.itemid (stream 0), not on the group column's
        // own stream: closes the group through the equivalence class.
        let p = Punctuation::with_constants(StreamId(0), 4, &[(AttrId(1), ival(1))]);
        assert_eq!(closed(&mut g, &p), vec![vec![ival(1), ival(5)]]);
        assert_eq!(g.open_groups(), 0);
        // Plain `new` (no equivalences) would NOT close it.
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(0), StreamId(1)]);
        let mut plain = GroupBy::new(
            layout,
            &[AttrRef {
                stream: StreamId(1),
                attr: AttrId(1),
            }],
            Aggregate::Count,
        );
        plain.process_tuple(&joined(1, 5));
        let p = Punctuation::with_constants(StreamId(0), 4, &[(AttrId(1), ival(1))]);
        assert!(closed(&mut plain, &p).is_empty());
    }

    #[test]
    fn count_aggregate() {
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(0), StreamId(1)]);
        let mut g = GroupBy::new(
            layout,
            &[AttrRef {
                stream: StreamId(1),
                attr: AttrId(1),
            }],
            Aggregate::Count,
        );
        g.process_tuple(&joined(4, 1));
        g.process_tuple(&joined(4, 1));
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(4))]);
        assert_eq!(closed(&mut g, &p), vec![vec![ival(4), ival(2)]]);
    }

    #[test]
    fn min_max_aggregates() {
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(0), StreamId(1)]);
        let key = AttrRef {
            stream: StreamId(1),
            attr: AttrId(1),
        };
        let incr = AttrRef {
            stream: StreamId(1),
            attr: AttrId(2),
        };
        let mut mn = GroupBy::new(layout.clone(), &[key], Aggregate::Min(incr));
        let mut mx = GroupBy::new(layout, &[key], Aggregate::Max(incr));
        for inc in [7, 3, 9] {
            mn.process_tuple(&joined(1, inc));
            mx.process_tuple(&joined(1, inc));
        }
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(1))]);
        assert_eq!(closed(&mut mn, &p), vec![vec![ival(1), ival(3)]]);
        assert_eq!(closed(&mut mx, &p), vec![vec![ival(1), ival(9)]]);
    }

    #[test]
    fn punctuation_with_extra_constants_cannot_close() {
        let mut g = auction_groupby();
        g.process_tuple(&joined(1, 5));
        // Constants on itemid AND bidderid: bidderid is not a group column,
        // so other bidders could still bid on item 1.
        let p = Punctuation::with_constants(
            StreamId(1),
            3,
            &[(AttrId(0), ival(3)), (AttrId(1), ival(1))],
        );
        assert!(closed(&mut g, &p).is_empty());
        assert_eq!(g.open_groups(), 1);
    }

    #[test]
    fn all_wildcard_punctuation_closes_nothing() {
        let mut g = auction_groupby();
        g.process_tuple(&joined(1, 5));
        let p = Punctuation::with_constants(StreamId(1), 3, &[]);
        assert!(closed(&mut g, &p).is_empty());
    }

    /// DISTINCT(bidderid, itemid) over bid(bidderid, itemid, increase): a
    /// group-by on the key with no join around it.
    fn distinct() -> GroupBy {
        let (q, _) = fixtures::auction();
        let layout = SpanLayout::new(q.catalog(), &[StreamId(1)]);
        let key = [AttrRef::new(1, 0), AttrRef::new(1, 1)];
        GroupBy::new(layout, &key, Aggregate::Count)
    }

    fn bid(bidder: i64, item: i64, increase: i64) -> [Value; 3] {
        [ival(bidder), ival(item), ival(increase)]
    }

    /// Whether some scheme of `schemes` on bid can retire a DISTINCT key.
    fn distinct_safe(g: &GroupBy, schemes: &[PunctuationScheme]) -> bool {
        schemes.iter().any(|s| g.reads_scheme(s))
    }

    #[test]
    fn distinct_suppresses_duplicates() {
        let mut d = distinct();
        assert!(d.process_tuple(&bid(3, 1, 5)));
        assert!(!d.process_tuple(&bid(3, 1, 9)), "same key");
        assert!(d.process_tuple(&bid(4, 1, 5)), "new bidder");
        assert_eq!(d.open_groups(), 2);
    }

    #[test]
    fn distinct_key_subset_schemes_retire_keys() {
        // A scheme on itemid, a key attribute: closing item 1 retires every
        // (bidder, 1) key.
        let mut d = distinct();
        assert!(distinct_safe(
            &d,
            &[PunctuationScheme::on(1, &[1]).unwrap()]
        ));
        d.process_tuple(&bid(3, 1, 5));
        d.process_tuple(&bid(4, 1, 5));
        d.process_tuple(&bid(3, 2, 5));
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(1))]);
        assert_eq!(closed(&mut d, &p).len(), 2);
        assert_eq!(d.open_groups(), 1);
        assert_eq!(d.stats.closed_by_punctuation, 2);
        assert!(!d.process_tuple(&bid(3, 2, 7)), "item 2 is still open");
    }

    #[test]
    fn distinct_non_key_schemes_cannot_retire() {
        // A scheme on increase, not a key attribute: a punctuation with a
        // constant increase says nothing about future (bidder, item) pairs.
        let mut d = distinct();
        let schemes = [PunctuationScheme::on(1, &[2]).unwrap()];
        assert!(!distinct_safe(&d, &schemes), "no scheme within the key");
        d.process_tuple(&bid(3, 1, 5));
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(2), ival(5))]);
        assert!(closed(&mut d, &p).is_empty());
        assert_eq!(d.open_groups(), 1);
    }

    #[test]
    fn distinct_multi_attribute_key_scheme() {
        // A scheme on (bidderid, itemid): exactly the key.
        let mut d = distinct();
        assert!(distinct_safe(
            &d,
            &[PunctuationScheme::on(1, &[0, 1]).unwrap()]
        ));
        d.process_tuple(&bid(3, 1, 5));
        d.process_tuple(&bid(4, 1, 5));
        let consts = [(AttrId(0), ival(3)), (AttrId(1), ival(1))];
        let p = Punctuation::with_constants(StreamId(1), 3, &consts);
        assert_eq!(closed(&mut d, &p).len(), 1);
        assert_eq!(d.open_groups(), 1);
    }

    #[test]
    fn distinct_is_bounded_under_a_punctuated_feed() {
        let mut d = distinct();
        let (mut peak, mut emitted, mut suppressed) = (0, 0, 0);
        for item in 0..100i64 {
            for bidder in 0..5i64 {
                for increase in [1, 2] {
                    let first = d.process_tuple(&bid(bidder, item, increase));
                    (emitted, suppressed) =
                        (emitted + u32::from(first), suppressed + u32::from(!first));
                }
            }
            peak = peak.max(d.open_groups());
            let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(item))]);
            closed(&mut d, &p);
        }
        assert_eq!(d.open_groups(), 0);
        assert_eq!(peak, 5, "one open item at a time");
        assert_eq!((emitted, suppressed), (500, 500));
    }

    #[test]
    fn punctuation_for_unknown_group_emits_nothing() {
        let mut g = auction_groupby();
        g.process_tuple(&joined(1, 5));
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(99))]);
        assert!(closed(&mut g, &p).is_empty());
        assert_eq!(g.open_groups(), 1);
    }
}

//! Binary symmetric join over **disjunctive** predicates, with punctuation
//! purging — the runtime companion of [`cjq_core::disjunctive`] (paper §7,
//! future work (ii)).
//!
//! Semantics: two tuples match iff *every* group holds, where a group holds
//! iff *any* of its equi-join alternatives holds (CNF). Probing unions the
//! hash probes of one group's alternatives and filters the rest; purging a
//! stored tuple requires a fully guarded group — punctuations covering the
//! tuple's value on **every** alternative of that group (a punctuation on
//! one alternative alone cannot exclude matches through the others).

use cjq_core::disjunctive::DisjunctiveCjq;
use cjq_core::punctuation::Punctuation;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::layout::SpanLayout;
use crate::punct_store::PunctStore;
use crate::sink::OutputBuffer;
use crate::state::{PortState, Sweep};
use crate::tuple::Tuple;

/// One alternative resolved to attribute columns on both sides.
#[derive(Debug, Clone, Copy)]
struct Alt {
    left_attr: AttrId,
    right_attr: AttrId,
}

/// Counters of the operator's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisjoinStats {
    /// Tuples received.
    pub tuples_in: u64,
    /// Punctuations received.
    pub puncts_in: u64,
    /// Results emitted.
    pub outputs: u64,
    /// Stored tuples purged.
    pub purged: u64,
}

/// A binary symmetric join over disjunctive predicates.
#[derive(Debug)]
pub struct DisjunctiveJoin {
    left: StreamId,
    right: StreamId,
    /// Groups of alternatives; a match satisfies every group.
    groups: Vec<Vec<Alt>>,
    states: [PortState; 2],
    puncts: [PunctStore; 2],
    /// Statistics.
    pub stats: DisjoinStats,
}

impl DisjunctiveJoin {
    /// Builds the operator for a two-stream disjunctive query.
    ///
    /// # Panics
    /// Panics if the query does not have exactly two streams.
    #[must_use]
    pub fn new(query: &DisjunctiveCjq, schemes: &SchemeSet) -> Self {
        assert_eq!(query.n_streams(), 2, "DisjunctiveJoin is binary");
        let left = StreamId(0);
        let right = StreamId(1);
        let groups: Vec<Vec<Alt>> = query
            .groups()
            .iter()
            .map(|g| {
                g.alternatives()
                    .iter()
                    .map(|p| Alt {
                        left_attr: p.endpoint_on(left).expect("binary").attr,
                        right_attr: p.endpoint_on(right).expect("binary").attr,
                    })
                    .collect()
            })
            .collect();
        // Index every column any alternative touches, per side.
        let mut lcols: Vec<usize> = groups.iter().flatten().map(|a| a.left_attr.0).collect();
        lcols.sort_unstable();
        lcols.dedup();
        let mut rcols: Vec<usize> = groups.iter().flatten().map(|a| a.right_attr.0).collect();
        rcols.sort_unstable();
        rcols.dedup();
        let states = [
            PortState::new(SpanLayout::new(query.catalog(), &[left]), &lcols),
            PortState::new(SpanLayout::new(query.catalog(), &[right]), &rcols),
        ];
        let puncts = [
            PunctStore::new(left, schemes, None),
            PunctStore::new(right, schemes, None),
        ];
        DisjunctiveJoin {
            left,
            right,
            groups,
            states,
            puncts,
            stats: DisjoinStats::default(),
        }
    }

    /// Total live stored tuples.
    #[must_use]
    pub fn live(&self) -> usize {
        self.states.iter().map(PortState::live).sum()
    }

    /// Whether two raw tuples match the CNF predicate.
    fn matches(&self, lvals: &[Value], rvals: &[Value]) -> bool {
        self.groups.iter().all(|g| {
            g.iter().any(|a| {
                let l = &lvals[a.left_attr.0];
                l.is_joinable() && l == &rvals[a.right_attr.0]
            })
        })
    }

    /// Width of the emitted result rows: left arity plus right arity.
    #[must_use]
    pub fn out_width(&self) -> usize {
        self.states[0].layout().width() + self.states[1].layout().width()
    }

    /// Processes a tuple; returns `left ++ right` result rows.
    pub fn process_tuple(&mut self, t: &Tuple) -> Vec<Vec<Value>> {
        let mut buf = OutputBuffer::new(self.out_width());
        self.process_tuple_into(t, &mut buf);
        buf.rows().map(<[Value]>::to_vec).collect()
    }

    /// Like [`DisjunctiveJoin::process_tuple`], appending `left ++ right`
    /// result rows to a columnar buffer instead of allocating per-row `Vec`s.
    /// Returns the number of results emitted.
    pub fn process_tuple_into(&mut self, t: &Tuple, out: &mut OutputBuffer) -> usize {
        self.stats.tuples_in += 1;
        let (side, other) = if t.stream == self.left {
            (0, 1)
        } else {
            (1, 0)
        };
        debug_assert!(t.stream == self.left || t.stream == self.right);
        // Candidate slots: union of index probes over group 0's alternatives.
        let mut slots: Vec<usize> = Vec::new();
        for a in &self.groups[0] {
            let (my_col, their_col) = if side == 0 {
                (a.left_attr.0, a.right_attr.0)
            } else {
                (a.right_attr.0, a.left_attr.0)
            };
            let key = &t.values[my_col];
            if key.is_joinable() {
                slots.extend_from_slice(self.states[other].probe(their_col, key));
            }
        }
        slots.sort_unstable();
        slots.dedup();
        let mut emitted = 0;
        for slot in slots {
            let Some(cand) = self.states[other].get(slot) else {
                continue;
            };
            let (lvals, rvals) = if side == 0 {
                (&t.values[..], cand)
            } else {
                (cand, &t.values[..])
            };
            if self.matches(lvals, rvals) {
                let row = out.alloc_row(0);
                row[..lvals.len()].copy_from_slice(lvals);
                row[lvals.len()..].copy_from_slice(rvals);
                emitted += 1;
            }
        }
        self.states[side].insert(t.values.clone());
        self.stats.outputs += emitted as u64;
        emitted
    }

    /// Processes a punctuation (stored for purging) and runs an eager purge
    /// pass on the opposite state.
    pub fn process_punctuation(&mut self, p: &Punctuation, now: u64) {
        self.stats.puncts_in += 1;
        let side = if p.stream == self.left { 0 } else { 1 };
        self.puncts[side].insert(p, now);
        self.purge_pass();
    }

    /// Purges every stored tuple with a fully guarded group. Returns the
    /// number purged.
    pub fn purge_pass(&mut self) -> usize {
        let mut purged = 0;
        let mut sweep = Sweep::default();
        for side in [0usize, 1] {
            let other = 1 - side;
            let (groups, puncts) = (&self.groups, &self.puncts[other]);
            let mut guarded = |_, vals: &[Value]| {
                groups.iter().any(|g| {
                    g.iter().all(|a| {
                        let (my_attr, their_attr) = if side == 0 {
                            (a.left_attr, a.right_attr)
                        } else {
                            (a.right_attr, a.left_attr)
                        };
                        puncts.covers_single(their_attr, &vals[my_attr.0])
                    })
                })
            };
            self.states[side].collect_matching(None, &mut guarded, &mut sweep);
            purged += self.states[side].purge_slots(&sweep.slots);
        }
        self.stats.purged += purged as u64;
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::disjunctive::{DisjunctiveCjq, DisjunctiveGroup};
    use cjq_core::query::JoinPredicate;
    use cjq_core::schema::{Catalog, StreamSchema};
    use cjq_core::scheme::PunctuationScheme;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    /// a(x, y) ⋈ b(x, y) ON (a.x = b.x ∨ a.y = b.y).
    fn or_join() -> (DisjunctiveCjq, SchemeSet) {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("a", ["x", "y"]).unwrap());
        cat.add_stream(StreamSchema::new("b", ["x", "y"]).unwrap());
        let group = DisjunctiveGroup::new(vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
            JoinPredicate::between(0, 1, 1, 1).unwrap(),
        ])
        .unwrap();
        let q = DisjunctiveCjq::new(cat, vec![group]).unwrap();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[0]).unwrap(),
            PunctuationScheme::on(1, &[1]).unwrap(),
        ]);
        (q, r)
    }

    #[test]
    fn matches_through_either_alternative_exactly_once() {
        let (q, r) = or_join();
        let mut j = DisjunctiveJoin::new(&q, &r);
        assert!(j
            .process_tuple(&Tuple::of(0, [ival(1), ival(2)]))
            .is_empty());
        // Matches via x only.
        assert_eq!(j.process_tuple(&Tuple::of(1, [ival(1), ival(9)])).len(), 1);
        // Matches via y only.
        assert_eq!(j.process_tuple(&Tuple::of(1, [ival(8), ival(2)])).len(), 1);
        // Matches via BOTH alternatives: still one result (union, not bag).
        assert_eq!(j.process_tuple(&Tuple::of(1, [ival(1), ival(2)])).len(), 1);
        // Matches via neither.
        assert!(j
            .process_tuple(&Tuple::of(1, [ival(8), ival(9)]))
            .is_empty());
        assert_eq!(j.stats.outputs, 3);
    }

    #[test]
    fn purge_needs_every_alternative_guarded() {
        let (q, r) = or_join();
        let mut j = DisjunctiveJoin::new(&q, &r);
        j.process_tuple(&Tuple::of(0, [ival(1), ival(2)]));
        // Punctuate only b.x = 1: matches via y remain possible.
        j.process_punctuation(
            &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(0), ival(1))]),
            0,
        );
        assert_eq!(j.live(), 1);
        // Punctuate b.y = 2 as well: now the group is extinguished.
        j.process_punctuation(
            &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(1), ival(2))]),
            1,
        );
        assert_eq!(j.live(), 0);
        assert_eq!(j.stats.purged, 1);
    }

    #[test]
    fn purged_tuples_produce_no_results_later() {
        // Behavioral soundness: a tuple is purged only when punctuations
        // have excluded both alternatives, so no punctuation-consistent
        // future tuple can match it.
        let (q, r) = or_join();
        let mut j = DisjunctiveJoin::new(&q, &r);
        j.process_tuple(&Tuple::of(0, [ival(1), ival(2)]));
        j.process_punctuation(
            &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(0), ival(1))]),
            0,
        );
        j.process_punctuation(
            &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(1), ival(2))]),
            1,
        );
        // A consistent future b tuple (x != 1, y != 2) cannot match anyway.
        assert!(j
            .process_tuple(&Tuple::of(1, [ival(7), ival(7)]))
            .is_empty());
    }

    #[test]
    fn multiple_groups_cnf_semantics() {
        // (a.x = b.x ∨ a.y = b.y) ∧ a.z = b.z
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("a", ["x", "y", "z"]).unwrap());
        cat.add_stream(StreamSchema::new("b", ["x", "y", "z"]).unwrap());
        let or_group = DisjunctiveGroup::new(vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
            JoinPredicate::between(0, 1, 1, 1).unwrap(),
        ])
        .unwrap();
        let z_group =
            DisjunctiveGroup::new(vec![JoinPredicate::between(0, 2, 1, 2).unwrap()]).unwrap();
        let q = DisjunctiveCjq::new(cat, vec![or_group, z_group]).unwrap();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[2]).unwrap(),
            PunctuationScheme::on(0, &[2]).unwrap(),
        ]);
        let mut j = DisjunctiveJoin::new(&q, &r);
        j.process_tuple(&Tuple::of(0, [ival(1), ival(2), ival(5)]));
        // x matches but z does not: no result.
        assert!(j
            .process_tuple(&Tuple::of(1, [ival(1), ival(9), ival(6)]))
            .is_empty());
        // y and z match: result.
        assert_eq!(
            j.process_tuple(&Tuple::of(1, [ival(8), ival(2), ival(5)]))
                .len(),
            1
        );
        // Purging via the singleton z group alone works (one guarded group
        // extinguishes the conjunction).
        j.process_punctuation(
            &Punctuation::with_constants(StreamId(1), 3, &[(AttrId(2), ival(5))]),
            0,
        );
        assert_eq!(j.states[0].live(), 0, "a-tuple purged via the z group");
    }

    #[test]
    fn agrees_with_naive_nested_loop() {
        // Randomized-ish cross-check against a reference evaluation.
        let (q, r) = or_join();
        let mut j = DisjunctiveJoin::new(&q, &r);
        let lefts: Vec<Tuple> = (0..20)
            .map(|i| Tuple::of(0, [ival(i % 4), ival(i % 5)]))
            .collect();
        let rights: Vec<Tuple> = (0..20)
            .map(|i| Tuple::of(1, [ival(i % 3), ival(i % 7)]))
            .collect();
        let mut streamed = 0usize;
        for i in 0..20 {
            streamed += j.process_tuple(&lefts[i]).len();
            streamed += j.process_tuple(&rights[i]).len();
        }
        let mut reference = 0usize;
        for l in &lefts {
            for rt in &rights {
                if l.values[0] == rt.values[0] || l.values[1] == rt.values[1] {
                    reference += 1;
                }
            }
        }
        assert_eq!(streamed, reference);
    }

    #[test]
    fn null_values_never_match() {
        let (q, r) = or_join();
        let mut j = DisjunctiveJoin::new(&q, &r);
        j.process_tuple(&Tuple::of(0, [Value::Null, Value::Null]));
        assert!(j
            .process_tuple(&Tuple::of(1, [Value::Null, Value::Null]))
            .is_empty());
    }
}

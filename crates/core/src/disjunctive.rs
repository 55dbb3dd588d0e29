//! Safety checking for **disjunctive** join predicates — the paper's §7
//! future work (ii), built on the same punctuation-graph machinery.
//!
//! A disjunctive predicate between streams `u` and `v`,
//! `u.a₁ = v.b₁ ∨ ... ∨ u.aₖ = v.bₖ`, matches when *any* alternative holds.
//! Several disjunctive groups between the same pair combine conjunctively
//! (CNF), so the conjunctive queries of the main paper are the special case
//! where every group has one alternative.
//!
//! ## How disjunction changes the safety condition
//!
//! To guard a stored tuple `t ∈ Υ_u` against future `v` data, it suffices to
//! extinguish **one** conjunctive group `g` (if no future `v` tuple satisfies
//! `g`, none matches the whole CNF). But extinguishing a *disjunctive* group
//! requires excluding **every** alternative: a punctuation on `v.b₁` alone
//! leaves matches through `v.b₂` possible. Hence the edge rule of the
//! disjunctive punctuation graph (single-attribute schemes):
//!
//! > there is an edge `u → v` iff some group `g` between `u` and `v` has
//! > *all* of its `v`-side attributes punctuatable.
//!
//! With that graph, Theorem 1's reachability condition and Theorem 2's
//! strong-connection condition carry over verbatim — the chained-purge
//! argument never looks inside the edge, only at which stream can guard
//! which. When every group is a singleton the graph coincides with
//! Definition 7's (property-tested in `tests/`).
//!
//! ## Running one
//!
//! A CNF query is the union of its DNF [terms](DisjunctiveCjq::terms), each
//! an ordinary conjunctive query. Admitted as tenants of one registry, the
//! terms run on the one engine, and a result row of term `i` is kept only
//! when [`DisjunctiveCjq::first_term`] names `i`, so a pair matching several
//! terms is emitted once. Under single-attribute schemes the query is safe
//! exactly when every term is (a cut no group guards is a term's cut;
//! property-tested in `tests/`), so admission refuses an unsafe one. The
//! terms join the same inputs, so they share the registry's nodes: a tuple
//! is stored once and leaves once no term can still join it.

use std::collections::{HashMap, HashSet};

use crate::error::{CoreError, CoreResult};
use crate::graph::DiGraph;
use crate::query::{Cjq, JoinPredicate};
use crate::schema::{AttrRef, Catalog, StreamId};
use crate::scheme::SchemeSet;
use crate::value::Value;

/// One disjunctive group: `alt₁ ∨ alt₂ ∨ ...`, all between one stream pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctiveGroup {
    alternatives: Vec<JoinPredicate>,
}

impl DisjunctiveGroup {
    /// Builds a group; all alternatives must connect the same stream pair
    /// and there must be at least one.
    pub fn new(alternatives: Vec<JoinPredicate>) -> CoreResult<Self> {
        let Some(first) = alternatives.first() else {
            return Err(CoreError::InvalidPredicate(
                "a disjunctive group needs at least one alternative".into(),
            ));
        };
        let pair = first.streams();
        if alternatives.iter().any(|p| p.streams() != pair) {
            return Err(CoreError::InvalidPredicate(
                "all alternatives of a disjunctive group must join the same stream pair".into(),
            ));
        }
        let mut alts = alternatives;
        alts.sort_unstable();
        alts.dedup();
        Ok(DisjunctiveGroup { alternatives: alts })
    }

    /// The alternatives (sorted, deduplicated).
    #[must_use]
    pub fn alternatives(&self) -> &[JoinPredicate] {
        &self.alternatives
    }

    /// The stream pair the group joins.
    #[must_use]
    pub fn streams(&self) -> (StreamId, StreamId) {
        self.alternatives[0].streams()
    }

    /// Whether the group is an ordinary conjunctive predicate (1 alternative).
    #[must_use]
    pub fn is_singleton(&self) -> bool {
        self.alternatives.len() == 1
    }
}

/// A continuous join query whose predicates are a conjunction of disjunctive
/// groups (CNF over equi-join alternatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctiveCjq {
    catalog: Catalog,
    groups: Vec<DisjunctiveGroup>,
}

impl DisjunctiveCjq {
    /// Builds and validates a disjunctive query (connectivity over the group
    /// graph; endpoints resolve).
    pub fn new(catalog: Catalog, groups: Vec<DisjunctiveGroup>) -> CoreResult<Self> {
        if catalog.is_empty() {
            return Err(CoreError::InvalidQuery("query over zero streams".into()));
        }
        for g in &groups {
            for p in g.alternatives() {
                catalog.check_ref(p.left)?;
                catalog.check_ref(p.right)?;
            }
        }
        let q = DisjunctiveCjq { catalog, groups };
        if q.n_streams() > 1 && !q.is_connected() {
            return Err(CoreError::InvalidQuery(
                "join graph is not connected (cross products are not supported)".into(),
            ));
        }
        Ok(q)
    }

    /// The stream catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The disjunctive groups.
    #[must_use]
    pub fn groups(&self) -> &[DisjunctiveGroup] {
        &self.groups
    }

    /// Number of streams.
    #[must_use]
    pub fn n_streams(&self) -> usize {
        self.catalog.len()
    }

    /// All stream ids.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.catalog.len()).map(StreamId)
    }

    /// The DNF expansion: one conjunctive query per choice of one
    /// alternative from every group, its predicates de-duplicated. Terms come
    /// in lexicographic order of their sorted predicates, each once.
    #[must_use]
    pub fn terms(&self) -> Vec<Cjq> {
        let term = |preds| Cjq::new(self.catalog.clone(), preds).expect("a term joins every pair");
        self.term_predicates().into_iter().map(term).collect()
    }

    /// The index in [`DisjunctiveCjq::terms`] of the first term whose
    /// predicates all hold on a row, `value` reading the row's attributes:
    /// each predicate's sides are joinable and equal. `None` when none holds.
    pub fn first_term(&self, value: impl Fn(AttrRef) -> Value) -> Option<usize> {
        let holds = |p: &JoinPredicate| {
            let left = value(p.left);
            left.is_joinable() && left == value(p.right)
        };
        self.term_predicates()
            .iter()
            .position(|t| t.iter().all(holds))
    }

    fn term_predicates(&self) -> Vec<Vec<JoinPredicate>> {
        let mut terms = vec![Vec::new()];
        for g in &self.groups {
            let pick = |t: &Vec<JoinPredicate>| {
                g.alternatives()
                    .iter()
                    .map(|&p| [&t[..], &[p]].concat())
                    .collect::<Vec<_>>()
            };
            terms = terms.iter().flat_map(pick).collect();
        }
        for t in &mut terms {
            t.sort_unstable();
            t.dedup();
        }
        terms.sort_unstable();
        terms.dedup();
        terms
    }

    fn is_connected(&self) -> bool {
        let n = self.n_streams();
        let mut adj: HashMap<StreamId, Vec<StreamId>> = HashMap::new();
        for g in &self.groups {
            let (a, b) = g.streams();
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let mut seen = HashSet::from([StreamId(0)]);
        let mut stack = vec![StreamId(0)];
        while let Some(s) = stack.pop() {
            for &t in adj.get(&s).map_or(&[][..], Vec::as_slice) {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen.len() == n
    }
}

/// The disjunctive punctuation graph: edge `u → v` iff some group between
/// `u` and `v` has every `v`-side attribute punctuatable by a
/// single-attribute scheme.
#[must_use]
pub fn disjunctive_pg(query: &DisjunctiveCjq, schemes: &SchemeSet) -> DiGraph {
    let n = query.n_streams();
    let mut g = DiGraph::new(n);
    for group in query.groups() {
        let (a, b) = group.streams();
        // Edge a -> b: all b-side attrs punctuatable.
        let b_guarded = group.alternatives().iter().all(|p| {
            let e = p.endpoint_on(b).expect("touches b");
            schemes.simple_punctuatable(b, e.attr)
        });
        if b_guarded {
            g.add_edge(a.0, b.0);
        }
        let a_guarded = group.alternatives().iter().all(|p| {
            let e = p.endpoint_on(a).expect("touches a");
            schemes.simple_punctuatable(a, e.attr)
        });
        if a_guarded {
            g.add_edge(b.0, a.0);
        }
    }
    g
}

/// Purgeability of one join state (Theorem 1 lifted to disjunction):
/// `stream` reaches every other vertex in the disjunctive punctuation graph.
#[must_use]
pub fn stream_purgeable(query: &DisjunctiveCjq, schemes: &SchemeSet, stream: StreamId) -> bool {
    let g = disjunctive_pg(query, schemes);
    stream.0 < g.n() && g.reachable_from(stream.0).len() == g.n()
}

/// Safety of the disjunctive query (Theorem 2 lifted): the disjunctive
/// punctuation graph is strongly connected.
///
/// Restriction: like §4.1, this check covers single-attribute schemes;
/// multi-attribute schemes are ignored here (a conservative answer —
/// extending Definition 8's hyper edges to disjunction is future work on
/// top of future work).
#[must_use]
pub fn is_query_safe(query: &DisjunctiveCjq, schemes: &SchemeSet) -> bool {
    disjunctive_pg(query, schemes).is_strongly_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StreamSchema;
    use crate::scheme::PunctuationScheme;

    /// Two streams joined by `a.x = b.x ∨ a.y = b.y`.
    fn or_query() -> DisjunctiveCjq {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("a", ["x", "y"]).unwrap());
        cat.add_stream(StreamSchema::new("b", ["x", "y"]).unwrap());
        let group = DisjunctiveGroup::new(vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
            JoinPredicate::between(0, 1, 1, 1).unwrap(),
        ])
        .unwrap();
        DisjunctiveCjq::new(cat, vec![group]).unwrap()
    }

    #[test]
    fn group_validation() {
        assert!(DisjunctiveGroup::new(vec![]).is_err());
        // Alternatives across different pairs are rejected.
        let e = DisjunctiveGroup::new(vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
            JoinPredicate::between(0, 0, 2, 0).unwrap(),
        ]);
        assert!(e.is_err());
        // Duplicates collapse.
        let g = DisjunctiveGroup::new(vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
            JoinPredicate::between(0, 0, 1, 0).unwrap(),
        ])
        .unwrap();
        assert!(g.is_singleton());
    }

    #[test]
    fn one_guarded_attribute_is_not_enough() {
        // Punctuations on b.x only: matches via b.y stay possible, so a's
        // state cannot be guarded — no edge a -> b.
        let q = or_query();
        let r = SchemeSet::from_schemes([PunctuationScheme::on(1, &[0]).unwrap()]);
        let g = disjunctive_pg(&q, &r);
        assert!(!g.has_edge(0, 1));
        assert!(!is_query_safe(&q, &r));
        assert!(!stream_purgeable(&q, &r, StreamId(0)));
    }

    #[test]
    fn all_alternatives_guarded_creates_the_edge() {
        let q = or_query();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[0]).unwrap(), // b.x
            PunctuationScheme::on(1, &[1]).unwrap(), // b.y
        ]);
        let g = disjunctive_pg(&q, &r);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0), "a's side is unguarded");
        assert!(stream_purgeable(&q, &r, StreamId(0)));
        assert!(!stream_purgeable(&q, &r, StreamId(1)));
        assert!(!is_query_safe(&q, &r));

        // Guard both directions: safe.
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[0]).unwrap(),
            PunctuationScheme::on(1, &[1]).unwrap(),
            PunctuationScheme::on(0, &[0]).unwrap(),
            PunctuationScheme::on(0, &[1]).unwrap(),
        ]);
        assert!(is_query_safe(&q, &r));
    }

    #[test]
    fn singleton_groups_match_the_conjunctive_pg() {
        // A 3-stream path with singleton groups must agree with the
        // Definition 7 graph of the equivalent conjunctive query.
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["C", "A"]).unwrap());
        let preds = vec![
            JoinPredicate::between(0, 1, 1, 0).unwrap(),
            JoinPredicate::between(1, 1, 2, 0).unwrap(),
        ];
        let groups: Vec<DisjunctiveGroup> = preds
            .iter()
            .map(|p| DisjunctiveGroup::new(vec![*p]).unwrap())
            .collect();
        let dq = DisjunctiveCjq::new(cat.clone(), groups).unwrap();
        let cq = crate::query::Cjq::new(cat, preds).unwrap();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[0]).unwrap(),
            PunctuationScheme::on(2, &[0]).unwrap(),
        ]);
        let dg = disjunctive_pg(&dq, &r);
        let cg = crate::pg::PunctuationGraph::of_query(&cq, &r);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(
                    dg.has_edge(u, v),
                    cg.has_edge(StreamId(u), StreamId(v)),
                    "edge {u}->{v}"
                );
            }
        }
        assert_eq!(is_query_safe(&dq, &r), cg.is_strongly_connected());
    }

    #[test]
    fn multiple_groups_between_a_pair_one_guarded_group_suffices() {
        // (a.x = b.x ∨ a.y = b.y) ∧ (a.z = b.z): guarding the singleton
        // group {z} alone extinguishes all matches.
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
            PunctuationScheme::on(1, &[2]).unwrap(), // b.z
            PunctuationScheme::on(0, &[2]).unwrap(), // a.z
        ]);
        assert!(is_query_safe(&q, &r));
    }

    #[test]
    fn terms_share_alternatives_without_repeats() {
        // (a.x = b.x ∨ a.y = b.y) ∧ (a.x = b.x ∨ a.z = b.z): choosing a.x = b.x
        // twice is one predicate, and no two choices make the same term.
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("a", ["x", "y", "z"]).unwrap());
        cat.add_stream(StreamSchema::new("b", ["x", "y", "z"]).unwrap());
        let [x, y, z] = [0, 1, 2].map(|c| JoinPredicate::between(0, c, 1, c).unwrap());
        let groups = vec![
            DisjunctiveGroup::new(vec![x, y]).unwrap(),
            DisjunctiveGroup::new(vec![x, z]).unwrap(),
        ];
        let q = DisjunctiveCjq::new(cat, groups).unwrap();
        let terms: Vec<Vec<JoinPredicate>> =
            q.terms().iter().map(|t| t.predicates().to_vec()).collect();
        assert_eq!(terms, vec![vec![x], vec![x, y], vec![x, z], vec![y, z]]);
        // A row of a and b values, a's first: (x, y, z) against (x, y', z).
        let row = [1, 2, 3, 1, 9, 3].map(Value::Int);
        let at = |r: AttrRef| row[r.stream.0 * 3 + r.attr.0];
        assert_eq!(q.first_term(at), Some(0));
        let row = [1, 2, 3, 8, 2, 3].map(Value::Int);
        let at = |r: AttrRef| row[r.stream.0 * 3 + r.attr.0];
        assert_eq!(q.first_term(at), Some(3), "only y and z agree");
        let row = [
            Value::Null,
            Value::Int(2),
            Value::Int(3),
            Value::Null,
            Value::Int(2),
            Value::Int(4),
        ];
        let at = |r: AttrRef| row[r.stream.0 * 3 + r.attr.0];
        assert_eq!(q.first_term(at), None, "nulls never join");
    }

    #[test]
    fn query_validation() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("a", ["x"]).unwrap());
        cat.add_stream(StreamSchema::new("b", ["x"]).unwrap());
        cat.add_stream(StreamSchema::new("c", ["x"]).unwrap());
        // Disconnected.
        let g = DisjunctiveGroup::new(vec![JoinPredicate::between(0, 0, 1, 0).unwrap()]).unwrap();
        assert!(DisjunctiveCjq::new(cat.clone(), vec![g.clone()]).is_err());
        // Out-of-range attribute.
        let bad = DisjunctiveGroup::new(vec![JoinPredicate::between(0, 7, 1, 0).unwrap()]).unwrap();
        assert!(DisjunctiveCjq::new(cat, vec![bad, g]).is_err());
    }
}

//! Continuous join queries `CJQ(ℑ, ℘)` (paper §2.2).
//!
//! A CJQ is defined over a set of streams `ℑ = {S_1, ..., S_n}` and a set of
//! equi-join predicates `℘`; conjunctive predicates between a stream pair are
//! allowed (several [`JoinPredicate`]s on the same pair).

use std::collections::HashSet;
use std::fmt;

use crate::error::{CoreError, CoreResult};
use crate::schema::{AttrId, AttrRef, Catalog, StreamId};
use crate::scheme::PunctuationScheme;

/// One equi-join predicate `S_i.A_x = S_j.A_y` between two distinct streams.
///
/// Predicates are undirected; construction normalizes the endpoint order so
/// that `left.stream < right.stream`, making equality structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinPredicate {
    /// Endpoint on the lower-numbered stream.
    pub left: AttrRef,
    /// Endpoint on the higher-numbered stream.
    pub right: AttrRef,
}

impl JoinPredicate {
    /// Creates a normalized equi-join predicate. Fails on self-joins
    /// (predicates within a single stream), which the paper does not consider.
    pub fn new(a: AttrRef, b: AttrRef) -> CoreResult<Self> {
        if a.stream == b.stream {
            return Err(CoreError::InvalidPredicate(format!(
                "self-join predicate on {}: both endpoints on the same stream",
                a.stream
            )));
        }
        let (left, right) = if a.stream < b.stream { (a, b) } else { (b, a) };
        Ok(JoinPredicate { left, right })
    }

    /// Convenience constructor from raw `(stream, attr)` indices.
    pub fn between(s1: usize, a1: usize, s2: usize, a2: usize) -> CoreResult<Self> {
        JoinPredicate::new(AttrRef::new(s1, a1), AttrRef::new(s2, a2))
    }

    /// The two streams the predicate connects.
    #[must_use]
    pub fn streams(&self) -> (StreamId, StreamId) {
        (self.left.stream, self.right.stream)
    }

    /// Whether the predicate touches `stream`.
    #[must_use]
    pub fn touches(&self, stream: StreamId) -> bool {
        self.left.stream == stream || self.right.stream == stream
    }

    /// The endpoint on `stream`, if the predicate touches it.
    #[must_use]
    pub fn endpoint_on(&self, stream: StreamId) -> Option<AttrRef> {
        if self.left.stream == stream {
            Some(self.left)
        } else if self.right.stream == stream {
            Some(self.right)
        } else {
            None
        }
    }

    /// The endpoint opposite to `stream`, if the predicate touches it.
    #[must_use]
    pub fn endpoint_opposite(&self, stream: StreamId) -> Option<AttrRef> {
        if self.left.stream == stream {
            Some(self.right)
        } else if self.right.stream == stream {
            Some(self.left)
        } else {
            None
        }
    }
}

impl fmt::Display for JoinPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// A continuous join query: streams (via a [`Catalog`]) plus join predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cjq {
    catalog: Catalog,
    predicates: Vec<JoinPredicate>,
}

impl Cjq {
    /// Builds and validates a query.
    ///
    /// Validation enforces: at least one stream; all predicate endpoints
    /// resolve in the catalog; no duplicate predicates; and the join graph is
    /// connected (a disconnected CJQ is a cross product of independent joins,
    /// which is unbounded by construction and outside the paper's scope).
    pub fn new(catalog: Catalog, predicates: Vec<JoinPredicate>) -> CoreResult<Self> {
        if catalog.is_empty() {
            return Err(CoreError::InvalidQuery("query over zero streams".into()));
        }
        let mut seen = HashSet::new();
        for p in &predicates {
            catalog.check_ref(p.left)?;
            catalog.check_ref(p.right)?;
            if !seen.insert(*p) {
                return Err(CoreError::InvalidQuery(format!(
                    "duplicate join predicate {p}"
                )));
            }
        }
        let q = Cjq {
            catalog,
            predicates,
        };
        if q.n_streams() > 1 && !q.is_connected() {
            return Err(CoreError::InvalidQuery(
                "join graph is not connected (cross products are not supported)".into(),
            ));
        }
        Ok(q)
    }

    /// The stream catalog `ℑ`.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The join predicates `℘`.
    #[must_use]
    pub fn predicates(&self) -> &[JoinPredicate] {
        &self.predicates
    }

    /// Number of streams `n`.
    #[must_use]
    pub fn n_streams(&self) -> usize {
        self.catalog.len()
    }

    /// All stream ids of the query.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.catalog.len()).map(StreamId)
    }

    /// Predicates between streams `a` and `b` (the conjunctive group).
    pub fn predicates_between(
        &self,
        a: StreamId,
        b: StreamId,
    ) -> impl Iterator<Item = &JoinPredicate> {
        self.predicates
            .iter()
            .filter(move |p| p.touches(a) && p.touches(b))
    }

    /// Predicates touching `stream`.
    pub fn predicates_on(&self, stream: StreamId) -> impl Iterator<Item = &JoinPredicate> {
        self.predicates.iter().filter(move |p| p.touches(stream))
    }

    /// The *join attributes* of `stream`: attribute positions that appear in
    /// some predicate endpoint on that stream.
    #[must_use]
    pub fn join_attrs(&self, stream: StreamId) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .predicates_on(stream)
            .filter_map(|p| p.endpoint_on(stream))
            .map(|r| r.attr)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Whether a predicate of this query joins on every punctuatable
    /// attribute of `scheme`: only such a scheme can license a punctuation
    /// graph edge (Defs. 7–10), so only its punctuations can ever help purge
    /// (lint `W102` flags the others).
    #[must_use]
    pub fn reads_scheme(&self, scheme: &PunctuationScheme) -> bool {
        let join_attrs = self.join_attrs(scheme.stream);
        scheme.punctuatable().iter().all(|a| join_attrs.contains(a))
    }

    /// Streams joined to `stream.attr`: the partner streams of every predicate
    /// whose endpoint on `stream` is `attr`.
    #[must_use]
    pub fn partners_of(&self, stream: StreamId, attr: AttrId) -> Vec<StreamId> {
        let mut partners: Vec<StreamId> = self
            .predicates_on(stream)
            .filter(|p| p.endpoint_on(stream).map(|r| r.attr) == Some(attr))
            .filter_map(|p| p.endpoint_opposite(stream))
            .map(|r| r.stream)
            .collect();
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    /// Whether the (undirected) join graph over all streams is connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.is_connected_over(&self.stream_ids().collect::<Vec<_>>())
    }

    /// Whether the join graph restricted to `subset` is connected.
    #[must_use]
    pub fn is_connected_over(&self, subset: &[StreamId]) -> bool {
        if subset.is_empty() {
            return false;
        }
        let in_subset: HashSet<StreamId> = subset.iter().copied().collect();
        let mut seen = HashSet::new();
        let mut stack = vec![subset[0]];
        seen.insert(subset[0]);
        while let Some(s) = stack.pop() {
            for p in self.predicates_on(s) {
                let other = p.endpoint_opposite(s).expect("touches s").stream;
                if in_subset.contains(&other) && seen.insert(other) {
                    stack.push(other);
                }
            }
        }
        seen.len() == subset.len()
    }

    /// Pretty-prints a predicate using catalog names.
    #[must_use]
    pub fn display_predicate(&self, p: &JoinPredicate) -> String {
        format!(
            "{} = {}",
            self.catalog.display_ref(p.left),
            self.catalog.display_ref(p.right)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StreamSchema;

    /// The paper's Figure 3 query: S1(A,B), S2(B,C), S3(C,A) with
    /// S1.B = S2.B and S2.C = S3.C.
    pub(crate) fn fig3_query() -> Cjq {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["C", "A"]).unwrap());
        Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 1, 1, 0).unwrap(), // S1.B = S2.B
                JoinPredicate::between(1, 1, 2, 0).unwrap(), // S2.C = S3.C
            ],
        )
        .unwrap()
    }

    #[test]
    fn predicate_normalizes_endpoint_order() {
        let a = JoinPredicate::between(2, 0, 0, 1).unwrap();
        let b = JoinPredicate::between(0, 1, 2, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.left.stream, StreamId(0));
    }

    #[test]
    fn predicate_rejects_self_join() {
        assert!(JoinPredicate::between(1, 0, 1, 1).is_err());
    }

    #[test]
    fn predicate_endpoints() {
        let p = JoinPredicate::between(0, 1, 1, 0).unwrap();
        assert_eq!(p.streams(), (StreamId(0), StreamId(1)));
        assert!(p.touches(StreamId(0)));
        assert!(!p.touches(StreamId(2)));
        assert_eq!(p.endpoint_on(StreamId(1)), Some(AttrRef::new(1, 0)));
        assert_eq!(p.endpoint_opposite(StreamId(1)), Some(AttrRef::new(0, 1)));
        assert_eq!(p.endpoint_on(StreamId(2)), None);
    }

    #[test]
    fn query_validates_connectivity() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["A"]).unwrap());
        // Only S1-S2 joined: S3 disconnected.
        let err = Cjq::new(cat, vec![JoinPredicate::between(0, 0, 1, 0).unwrap()]);
        assert!(err.is_err());
    }

    #[test]
    fn query_rejects_duplicates_and_bad_refs() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A"]).unwrap());
        let p = JoinPredicate::between(0, 0, 1, 0).unwrap();
        assert!(Cjq::new(cat.clone(), vec![p, p]).is_err());
        let bad = JoinPredicate::between(0, 5, 1, 0).unwrap();
        assert!(Cjq::new(cat, vec![bad]).is_err());
    }

    #[test]
    fn single_stream_query_is_allowed() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A"]).unwrap());
        let q = Cjq::new(cat, vec![]).unwrap();
        assert_eq!(q.n_streams(), 1);
    }

    #[test]
    fn join_attrs_and_partners() {
        let q = fig3_query();
        assert_eq!(q.join_attrs(StreamId(0)), vec![AttrId(1)]); // S1.B
        assert_eq!(q.join_attrs(StreamId(1)), vec![AttrId(0), AttrId(1)]); // S2.B, S2.C
        assert_eq!(q.partners_of(StreamId(1), AttrId(0)), vec![StreamId(0)]);
        assert_eq!(q.partners_of(StreamId(1), AttrId(1)), vec![StreamId(2)]);
        assert_eq!(
            q.partners_of(StreamId(1), AttrId(9)),
            Vec::<StreamId>::new()
        );
    }

    #[test]
    fn predicates_between_pairs() {
        let q = fig3_query();
        assert_eq!(q.predicates_between(StreamId(0), StreamId(1)).count(), 1);
        assert_eq!(q.predicates_between(StreamId(0), StreamId(2)).count(), 0);
    }

    #[test]
    fn connectivity_over_subsets() {
        let q = fig3_query();
        assert!(q.is_connected());
        assert!(q.is_connected_over(&[StreamId(0), StreamId(1)]));
        // S1 and S3 are only connected through S2.
        assert!(!q.is_connected_over(&[StreamId(0), StreamId(2)]));
        assert!(!q.is_connected_over(&[]));
        assert!(q.is_connected_over(&[StreamId(2)]));
    }

    #[test]
    fn display_uses_names() {
        let q = fig3_query();
        assert_eq!(q.display_predicate(&q.predicates()[0]), "S1.B = S2.B");
    }
}

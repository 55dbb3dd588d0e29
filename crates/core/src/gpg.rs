//! The generalized punctuation graph (paper Definitions 8–10, Theorems 3–4).
//!
//! Punctuation schemes with several punctuatable attributes cannot be captured
//! by plain punctuation-graph edges: a punctuation instantiates constants on
//! *all* punctuatable attributes, so it can only guard a stream once value
//! sources for *every* such attribute are available. Definition 8 models this
//! with a *generalized* (hyper) edge `{S_{i_1}, ..., S_{i_m}} → S_i`, created
//! when a scheme on `S_i` has punctuatable attributes joining streams
//! `S_{i_1}, ..., S_{i_m}`.
//!
//! Representation note: when one punctuatable attribute joins several partner
//! streams, any single partner can supply the values (the paper's Definition 8
//! implicitly assumes one partner per attribute). Instead of materializing one
//! hyper edge per combination of partners, we store per-attribute *candidate
//! sets*; the edge activates once every attribute has at least one candidate
//! in the reachable set. The two formulations are equivalent.
//!
//! A scheme whose punctuatable attributes include a **non-join** attribute
//! contributes nothing: its punctuations carry a constant on that attribute,
//! so no finite set of them can exclude all future joinable tuples (the
//! footnote-3/4 argument of the paper's proofs).

use std::collections::HashSet;

use crate::pg::{EdgeReason, PunctuationGraph};
use crate::query::Cjq;
use crate::schema::{AttrId, StreamId};
use crate::scheme::{PunctuationScheme, SchemeSet};

/// One punctuatable attribute of a hyper edge and the partner streams that can
/// supply its values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRequirement {
    /// The punctuatable attribute on the edge's target stream.
    pub attr: AttrId,
    /// Partner streams (within the operator) joined to `attr`; reaching any
    /// one of them satisfies this requirement. Never empty.
    pub candidates: Vec<StreamId>,
}

/// A generalized directed edge `{sources} → target` (Definition 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperEdge {
    /// The stream whose punctuations this edge represents.
    pub target: StreamId,
    /// The multi-attribute scheme inducing the edge.
    pub scheme: PunctuationScheme,
    /// One requirement per punctuatable attribute of the scheme.
    pub requirements: Vec<AttrRequirement>,
}

impl HyperEdge {
    /// Whether the edge can fire given the reachable set `r`.
    #[must_use]
    pub fn active(&self, r: &HashSet<StreamId>) -> bool {
        self.requirements
            .iter()
            .all(|req| req.candidates.iter().any(|c| r.contains(c)))
    }
}

/// How a stream entered a reachable set; used to derive purge recipes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachStep {
    /// Added through a plain (single-attribute-scheme) edge `from → added`.
    Plain {
        /// The stream that was added.
        added: StreamId,
        /// The already-reached stream the edge starts from.
        from: StreamId,
        /// Predicate + punctuatable endpoint licensing the edge.
        reason: EdgeReason,
    },
    /// Added through a generalized edge.
    Hyper {
        /// The stream that was added (the hyper edge's target).
        added: StreamId,
        /// Index into [`GeneralizedPunctuationGraph::hyper_edges`].
        edge: usize,
        /// The already-reached partner chosen for each punctuatable attribute.
        chosen: Vec<(AttrId, StreamId)>,
    },
}

impl ReachStep {
    /// The stream this step added.
    #[must_use]
    pub fn added(&self) -> StreamId {
        match self {
            ReachStep::Plain { added, .. } | ReachStep::Hyper { added, .. } => *added,
        }
    }
}

/// Definition 8 generalized punctuation graph over a subset of streams.
#[derive(Debug, Clone)]
pub struct GeneralizedPunctuationGraph {
    pg: PunctuationGraph,
    hyper: Vec<HyperEdge>,
}

impl GeneralizedPunctuationGraph {
    /// Builds the GPG of the whole query.
    #[must_use]
    pub fn of_query(query: &Cjq, schemes: &SchemeSet) -> Self {
        GeneralizedPunctuationGraph::over(query, schemes, &query.stream_ids().collect::<Vec<_>>())
    }

    /// Builds the GPG of the operator whose inputs are `streams`.
    #[must_use]
    pub fn over(query: &Cjq, schemes: &SchemeSet, streams: &[StreamId]) -> Self {
        let pg = PunctuationGraph::over(query, schemes, streams);
        let in_scope: HashSet<StreamId> = pg.streams().iter().copied().collect();
        let mut hyper = Vec::new();

        for &s in pg.streams() {
            'scheme: for scheme in schemes.for_stream(s) {
                if scheme.arity() < 2 {
                    continue; // single-attribute schemes are the plain edges
                }
                let mut requirements = Vec::with_capacity(scheme.arity());
                for &attr in scheme.punctuatable() {
                    let candidates: Vec<StreamId> = query
                        .partners_of(s, attr)
                        .into_iter()
                        .filter(|p| in_scope.contains(p))
                        .collect();
                    if candidates.is_empty() {
                        // Some punctuatable attribute is not a join attribute
                        // within this operator: the scheme is unusable here.
                        continue 'scheme;
                    }
                    requirements.push(AttrRequirement { attr, candidates });
                }
                let edge = HyperEdge {
                    target: s,
                    scheme: scheme.clone(),
                    requirements,
                };
                if !hyper.contains(&edge) {
                    hyper.push(edge);
                }
            }
        }
        GeneralizedPunctuationGraph { pg, hyper }
    }

    /// The vertices (streams), sorted ascending.
    #[must_use]
    pub fn streams(&self) -> &[StreamId] {
        self.pg.streams()
    }

    /// The plain-edge part (a Definition 7 punctuation graph).
    #[must_use]
    pub fn plain(&self) -> &PunctuationGraph {
        &self.pg
    }

    /// The generalized edges.
    #[must_use]
    pub fn hyper_edges(&self) -> &[HyperEdge] {
        &self.hyper
    }

    /// Definition 9 reachability from `origin`, with a trace of how each
    /// stream was added (origin excluded; it is reachable by definition —
    /// the worked Fig. 8/9 example requires the origin itself to count as a
    /// value source, see DESIGN.md).
    #[must_use]
    pub fn reach_trace(&self, origin: StreamId) -> Vec<ReachStep> {
        self.reach_trace_from_set(&[origin])
    }

    /// Definition 9 reachability from a *set* of origins (all counted as
    /// already-reached value sources). This is what an operator in a plan
    /// tree needs: its stored tuples are composites spanning several raw
    /// streams, and all of their values are available for chaining.
    #[must_use]
    pub fn reach_trace_from_set(&self, origins: &[StreamId]) -> Vec<ReachStep> {
        if origins.is_empty() || origins.iter().any(|o| self.pg.index_of(*o).is_none()) {
            return Vec::new();
        }
        let mut reached: HashSet<StreamId> = origins.iter().copied().collect();
        let mut trace: Vec<ReachStep> = Vec::new();
        // Seed the frontier in `origins` order, not the hash set's: the trace
        // (hence every compiled purge recipe) must be a function of the
        // inputs alone, or two compiles of one plan disagree on composite
        // ports and a snapshot no longer overlays onto a fresh compile.
        let mut frontier: Vec<StreamId> = origins.to_vec();

        loop {
            // Close under plain edges first (Definition 9's initial step and
            // re-closure after each hyper activation).
            while let Some(u) = frontier.pop() {
                let ui = self.pg.index_of(u).expect("reached stream in scope");
                for &vi in self.pg.digraph().successors(ui) {
                    let v = self.pg.streams()[vi];
                    if reached.insert(v) {
                        let reason = self.pg.edge_reasons(u, v)[0];
                        trace.push(ReachStep::Plain {
                            added: v,
                            from: u,
                            reason,
                        });
                        frontier.push(v);
                    }
                }
            }
            // Fire any newly-enabled generalized edge.
            let mut progressed = false;
            for (ei, edge) in self.hyper.iter().enumerate() {
                if !reached.contains(&edge.target) && edge.active(&reached) {
                    let chosen = edge
                        .requirements
                        .iter()
                        .map(|req| {
                            let partner = *req
                                .candidates
                                .iter()
                                .find(|c| reached.contains(c))
                                .expect("active edge has reached candidate");
                            (req.attr, partner)
                        })
                        .collect();
                    reached.insert(edge.target);
                    trace.push(ReachStep::Hyper {
                        added: edge.target,
                        edge: ei,
                        chosen,
                    });
                    frontier.push(edge.target);
                    progressed = true;
                }
            }
            if !progressed && frontier.is_empty() {
                return trace;
            }
        }
    }

    /// The set of streams reachable from `origin`, including `origin`.
    #[must_use]
    pub fn reachable_from(&self, origin: StreamId) -> Vec<StreamId> {
        self.reachable_from_set(&[origin])
    }

    /// The set of streams reachable from a set of origins, including them.
    #[must_use]
    pub fn reachable_from_set(&self, origins: &[StreamId]) -> Vec<StreamId> {
        if origins.is_empty() || origins.iter().any(|o| self.pg.index_of(*o).is_none()) {
            return Vec::new();
        }
        let mut out: Vec<StreamId> = self
            .reach_trace_from_set(origins)
            .iter()
            .map(ReachStep::added)
            .collect();
        out.extend_from_slice(origins);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Theorem 3: the join state of `origin` is purgeable iff `origin`
    /// reaches every other vertex.
    #[must_use]
    pub fn reaches_all(&self, origin: StreamId) -> bool {
        self.pg.index_of(origin).is_some()
            && self.reachable_from(origin).len() == self.streams().len()
    }

    /// Definition 10 / Corollary 2: the operator is purgeable iff every
    /// vertex reaches every other (the GPG is "strongly connected").
    ///
    /// This is the naive polynomial reference check: one Definition 9 fixpoint
    /// per vertex. [`crate::tpg`] provides the faster transformation-based
    /// algorithm; the two are property-tested for agreement (Theorem 5).
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        self.streams().iter().all(|&s| self.reaches_all(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinPredicate;
    use crate::schema::{Catalog, StreamSchema};

    pub(crate) use crate::fixtures::fig8;

    #[test]
    fn fig8_plain_pg_is_not_strongly_connected() {
        let (q, r) = fig8();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        // Plain edges: S2->S1 (S1.B), S1->S2 (S2.B), S3->S2 (S2.C).
        let pg = gpg.plain();
        assert!(pg.has_edge(StreamId(1), StreamId(0)));
        assert!(pg.has_edge(StreamId(0), StreamId(1)));
        assert!(pg.has_edge(StreamId(2), StreamId(1)));
        assert_eq!(pg.edge_count(), 3);
        assert!(!pg.is_strongly_connected(), "Corollary 1 alone says unsafe");
    }

    #[test]
    fn fig9_generalized_edge_shape() {
        let (q, r) = fig8();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        // Exactly one hyper edge: {S1, S2} -> S3 from scheme S3(+,+).
        assert_eq!(gpg.hyper_edges().len(), 1);
        let e = &gpg.hyper_edges()[0];
        assert_eq!(e.target, StreamId(2));
        assert_eq!(e.requirements.len(), 2);
        assert_eq!(e.requirements[0].candidates, vec![StreamId(0)]); // A joins S1
        assert_eq!(e.requirements[1].candidates, vec![StreamId(1)]); // C joins S2
    }

    #[test]
    fn fig8_gpg_is_strongly_connected() {
        // §4.2: the 3-way operator *is* purgeable once the multi-attribute
        // scheme S3(+,+) is taken into account.
        let (q, r) = fig8();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        for s in q.stream_ids() {
            assert!(gpg.reaches_all(s), "{s} must be purgeable in Fig. 8");
        }
        assert!(gpg.is_strongly_connected());
    }

    #[test]
    fn fig8_reach_trace_from_s1_uses_the_hyper_edge() {
        let (q, r) = fig8();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        let trace = gpg.reach_trace(StreamId(0));
        assert_eq!(trace.len(), 2);
        // S2 enters via the plain edge S1 -> S2, then S3 via {S1,S2} -> S3.
        assert!(matches!(
            trace[0],
            ReachStep::Plain {
                added: StreamId(1),
                from: StreamId(0),
                ..
            }
        ));
        match &trace[1] {
            ReachStep::Hyper { added, chosen, .. } => {
                assert_eq!(*added, StreamId(2));
                assert_eq!(
                    chosen,
                    &vec![(AttrId(0), StreamId(0)), (AttrId(1), StreamId(1))]
                );
            }
            other => panic!("expected hyper step, got {other:?}"),
        }
    }

    #[test]
    fn origin_counts_as_value_source() {
        // Two streams, one predicate S1.A = S2.A, multi-attr scheme on S2 over
        // (A, B) where B joins S1 too: {S1} -> S2 must fire from S1 alone.
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A", "B"]).unwrap());
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(),
                JoinPredicate::between(0, 1, 1, 1).unwrap(),
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes([PunctuationScheme::on(1, &[0, 1]).unwrap()]);
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        assert_eq!(gpg.hyper_edges().len(), 1);
        assert!(gpg.reaches_all(StreamId(0)));
        assert!(!gpg.reaches_all(StreamId(1)), "S2 has no way back to S1");
        assert!(!gpg.is_strongly_connected());
    }

    #[test]
    fn scheme_with_non_join_attribute_is_unusable() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A", "Z"]).unwrap());
        let q = Cjq::new(cat, vec![JoinPredicate::between(0, 0, 1, 0).unwrap()]).unwrap();
        // Z never appears in a predicate: the scheme contributes nothing.
        let r = SchemeSet::from_schemes([PunctuationScheme::on(1, &[0, 1]).unwrap()]);
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        assert!(gpg.hyper_edges().is_empty());
        assert!(!gpg.reaches_all(StreamId(0)));
    }

    #[test]
    fn simple_schemes_reduce_gpg_to_pg() {
        let (q, r) = crate::fixtures::fig5();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        assert!(gpg.hyper_edges().is_empty());
        assert!(gpg.is_strongly_connected());
        assert_eq!(
            gpg.reachable_from(StreamId(0)),
            vec![StreamId(0), StreamId(1), StreamId(2)]
        );
    }

    #[test]
    fn unknown_origin_yields_empty_results() {
        let (q, r) = fig8();
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        assert!(gpg.reach_trace(StreamId(9)).is_empty());
        assert!(gpg.reachable_from(StreamId(9)).is_empty());
        assert!(!gpg.reaches_all(StreamId(9)));
    }

    #[test]
    fn chained_hyper_activation() {
        // S1 -A- S2, S2 -B- S3, S3 -C- S4; scheme S2(A) simple;
        // scheme S3(B) simple; scheme S4 multi on (C) with... make S4's
        // scheme multi over C and D where D joins S2: requires both S3-chain
        // and S2 reached before S4 activates.
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A", "B", "D"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S4", ["C", "D"]).unwrap());
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(), // S1.A = S2.A
                JoinPredicate::between(1, 1, 2, 0).unwrap(), // S2.B = S3.B
                JoinPredicate::between(2, 1, 3, 0).unwrap(), // S3.C = S4.C
                JoinPredicate::between(1, 2, 3, 1).unwrap(), // S2.D = S4.D
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(1, &[0]).unwrap(),    // S2.A simple
            PunctuationScheme::on(2, &[0]).unwrap(),    // S3.B simple
            PunctuationScheme::on(3, &[0, 1]).unwrap(), // S4 on (C, D)
        ]);
        let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
        let reached = gpg.reachable_from(StreamId(0));
        assert_eq!(
            reached,
            vec![StreamId(0), StreamId(1), StreamId(2), StreamId(3)]
        );
        // The hyper step must come last (after both S2 and S3 are in R).
        let trace = gpg.reach_trace(StreamId(0));
        assert!(matches!(
            trace.last(),
            Some(ReachStep::Hyper {
                added: StreamId(3),
                ..
            })
        ));
    }
}

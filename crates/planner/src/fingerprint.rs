//! Canonical sub-plan fingerprinting for multi-query sharing.
//!
//! The shared-state registry (`cjq_stream::registry`) interns join operators
//! by a canonical key: the sorted child keys. Two sub-plans from *different*
//! queries store their rows in one physical operator exactly when those keys
//! match; the sorted in-span join predicates then pick the operator's
//! *variant* (its probe plans, recipes and output), and a child key names a
//! child's variant. This module computes the same canonicalization
//! statically — as stable 64-bit fingerprints — so the planner can *predict*
//! sharing before anything is admitted:
//!
//! * [`plan_fingerprint`] — the root variant's fingerprint of a plan under a
//!   query;
//! * [`subplan_fingerprints`] — one variant fingerprint per inner (join) node;
//! * [`sharing_report`] — across a batch of `(query, plan)` specs, how many
//!   distinct physical operators, variants and ports the registry would
//!   build vs. the total per-query subscriptions (the sharing ratio the
//!   multi-query engine reports at runtime).
//!
//! Canonicalization mirrors the registry's `NodeKey` and `VariantKey` for
//! the per-operator purge scope: children are ordered by their span's
//! minimum stream (spans in one plan are disjoint, so this is a total order),
//! and a variant's predicate set is every query predicate whose two
//! endpoints both fall in the node's span. The query-level purge scope
//! additionally keys variants on the full predicate set, which
//! [`scoped_fingerprint`] exposes.
//!
//! The hash is [`std::collections::hash_map::DefaultHasher`] seeded with
//! fixed keys, so fingerprints are stable across runs and processes of the
//! same build — suitable for caching and cross-plan comparison, not for
//! persistence across toolchain upgrades.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use cjq_core::plan::Plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::StreamId;

/// A canonical fingerprint of a sub-plan: equal fingerprints mean the
/// registry would intern the two sub-plans as one shared operator node
/// (modulo the negligible 64-bit collision probability).
pub type Fingerprint = u64;

fn hash_predicate(p: &JoinPredicate, h: &mut impl Hasher) {
    // JoinPredicate is construction-normalized (left.stream < right.stream),
    // so hashing the raw fields is orientation-independent.
    p.left.stream.0.hash(h);
    p.left.attr.0.hash(h);
    p.right.stream.0.hash(h);
    p.right.attr.0.hash(h);
}

/// One `Plan::Join` node as [`walk`] sees it: the fingerprints of its
/// operator (children only) and of its variant, and its port count.
type Joined = (Fingerprint, Fingerprint, usize);

/// Walks `plan` bottom-up, appending one [`Joined`] per `Plan::Join` node to
/// `out` and returning the node's own variant fingerprint plus its sorted
/// span.
fn walk(
    query: &Cjq,
    plan: &Plan,
    full_preds: Option<&[JoinPredicate]>,
    out: &mut Vec<Joined>,
) -> (Fingerprint, Vec<StreamId>) {
    match plan {
        Plan::Leaf(s) => {
            let mut h = DefaultHasher::new();
            0u8.hash(&mut h); // tag: leaf
            s.0.hash(&mut h);
            (h.finish(), vec![*s])
        }
        Plan::Join(children) => {
            let mut kids: Vec<(Fingerprint, Vec<StreamId>)> = children
                .iter()
                .map(|c| walk(query, c, full_preds, out))
                .collect();
            // Spans within one plan are disjoint; min stream totally orders
            // the children — the registry's canonical child order.
            kids.sort_by(|a, b| a.1.first().cmp(&b.1.first()));
            let mut span: Vec<StreamId> = kids.iter().flat_map(|(_, sp)| sp.clone()).collect();
            span.sort_unstable();
            let in_span = |p: &JoinPredicate| {
                span.binary_search(&p.left.stream).is_ok()
                    && span.binary_search(&p.right.stream).is_ok()
            };
            let mut span_preds: Vec<JoinPredicate> =
                query.predicates().iter().copied().filter(in_span).collect();
            span_preds.sort_unstable();

            let mut h = DefaultHasher::new();
            1u8.hash(&mut h); // tag: join
            kids.len().hash(&mut h);
            for (fp, _) in &kids {
                fp.hash(&mut h);
            }
            let node = h.finish();
            span_preds.len().hash(&mut h);
            for p in &span_preds {
                hash_predicate(p, &mut h);
            }
            if let Some(all) = full_preds {
                2u8.hash(&mut h); // tag: query-scoped
                all.len().hash(&mut h);
                for p in all {
                    hash_predicate(p, &mut h);
                }
            }
            let fp = h.finish();
            out.push((node, fp, kids.len()));
            (fp, span)
        }
    }
}

fn sorted_predicates(query: &Cjq) -> Vec<JoinPredicate> {
    let mut all: Vec<JoinPredicate> = query.predicates().to_vec();
    all.sort_unstable();
    all
}

/// The root fingerprint of `plan` under `query` (per-operator purge scope).
#[must_use]
pub fn plan_fingerprint(query: &Cjq, plan: &Plan) -> Fingerprint {
    let mut out = Vec::new();
    walk(query, plan, None, &mut out).0
}

/// The root fingerprint under the *query-level* purge scope: additionally
/// keyed on the query's full predicate set, mirroring how the registry
/// refuses to share operators between queries whose purge certificates
/// depend on predicates outside the shared sub-plan.
#[must_use]
pub fn scoped_fingerprint(query: &Cjq, plan: &Plan) -> Fingerprint {
    let mut out = Vec::new();
    let all = sorted_predicates(query);
    walk(query, plan, Some(&all), &mut out).0
}

/// One variant fingerprint per inner (join) node of `plan`, bottom-up — the
/// operator variants the registry would build (or find already interned)
/// when admitting `query` with this plan.
#[must_use]
pub fn subplan_fingerprints(query: &Cjq, plan: &Plan) -> Vec<Fingerprint> {
    let mut out = Vec::new();
    walk(query, plan, None, &mut out);
    out.into_iter().map(|(_, variant, _)| variant).collect()
}

/// Predicted sharing across a batch of query/plan specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingReport {
    /// Total inner-node subscriptions across all specs (what N independent
    /// executors would build).
    pub subscriptions: usize,
    /// Distinct canonical operators (what the registry builds): one per set
    /// of children.
    pub shared_nodes: usize,
    /// Distinct operator variants: one per (children, predicate set).
    pub variants: usize,
    /// Ports across the distinct operators: the join states stored.
    pub shared_ports: usize,
    /// How many specs subscribe to each variant fingerprint, densest first.
    pub fanout: Vec<(Fingerprint, usize)>,
}

impl SharingReport {
    /// Subscriptions per physical operator: `1.0` means no sharing, `N`
    /// means every node is shared by all `N` specs.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.shared_nodes == 0 {
            1.0
        } else {
            self.subscriptions as f64 / self.shared_nodes as f64
        }
    }
}

/// Predicts the registry's sharing for `specs` (per-operator purge scope):
/// how many physical operator nodes, variants and ports serve how many
/// per-query subscriptions. Matches the runtime's `live_nodes()`,
/// `live_variants()`, `live_ports()` and `subscribed_nodes()` when the same
/// specs are admitted against one catalog.
#[must_use]
pub fn sharing_report(specs: &[(&Cjq, &Plan)]) -> SharingReport {
    let mut counts: HashMap<Fingerprint, usize> = HashMap::new();
    let mut nodes: HashMap<Fingerprint, usize> = HashMap::new();
    let mut subscriptions = 0;
    for (query, plan) in specs {
        let mut joined = Vec::new();
        walk(query, plan, None, &mut joined);
        for (node, variant, ports) in joined {
            subscriptions += 1;
            *counts.entry(variant).or_insert(0) += 1;
            nodes.insert(node, ports);
        }
    }
    let (shared_nodes, variants) = (nodes.len(), counts.len());
    let shared_ports = nodes.values().sum();
    let mut fanout: Vec<(Fingerprint, usize)> = counts.into_iter().collect();
    fanout.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    SharingReport {
        subscriptions,
        shared_nodes,
        variants,
        shared_ports,
        fanout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::query::JoinPredicate;
    use cjq_core::schema::{AttrId, AttrRef, Catalog, StreamSchema};

    /// `n` streams `s0..s{n-1}` with attrs (k, v), chained equi-joins on k.
    fn chain(n: usize) -> Cjq {
        let mut cat = Catalog::new();
        for i in 0..n {
            cat.add_stream(StreamSchema::new(format!("s{i}"), ["k", "v"]).unwrap());
        }
        let preds: Vec<JoinPredicate> = (1..n)
            .map(|i| {
                JoinPredicate::new(
                    AttrRef {
                        stream: StreamId(i - 1),
                        attr: AttrId(0),
                    },
                    AttrRef {
                        stream: StreamId(i),
                        attr: AttrId(0),
                    },
                )
                .unwrap()
            })
            .collect();
        Cjq::new(cat, preds).unwrap()
    }

    #[test]
    fn fingerprints_are_stable_and_order_insensitive() {
        let q = chain(2);
        let ab = Plan::Join(vec![Plan::Leaf(StreamId(0)), Plan::Leaf(StreamId(1))]);
        let ba = Plan::Join(vec![Plan::Leaf(StreamId(1)), Plan::Leaf(StreamId(0))]);
        assert_eq!(plan_fingerprint(&q, &ab), plan_fingerprint(&q, &ab));
        assert_eq!(
            plan_fingerprint(&q, &ab),
            plan_fingerprint(&q, &ba),
            "child order is canonicalized away"
        );
    }

    #[test]
    fn predicates_distinguish_otherwise_identical_shapes() {
        let q_k = chain(2);
        // Same catalog shape, but joining on v instead of k.
        let mut cat = Catalog::new();
        for i in 0..2 {
            cat.add_stream(StreamSchema::new(format!("s{i}"), ["k", "v"]).unwrap());
        }
        let q_v = Cjq::new(
            cat,
            vec![JoinPredicate::new(
                AttrRef {
                    stream: StreamId(0),
                    attr: AttrId(1),
                },
                AttrRef {
                    stream: StreamId(1),
                    attr: AttrId(1),
                },
            )
            .unwrap()],
        )
        .unwrap();
        let plan = Plan::Join(vec![Plan::Leaf(StreamId(0)), Plan::Leaf(StreamId(1))]);
        assert_ne!(plan_fingerprint(&q_k, &plan), plan_fingerprint(&q_v, &plan));
    }

    #[test]
    fn shared_prefixes_share_subplan_fingerprints() {
        let q = chain(3);
        // ((s0 ⋈ s1) ⋈ s2) and (s0 ⋈ s1): the binary join is common.
        let inner = Plan::Join(vec![Plan::Leaf(StreamId(0)), Plan::Leaf(StreamId(1))]);
        let deep = Plan::Join(vec![inner.clone(), Plan::Leaf(StreamId(2))]);
        let deep_fps = subplan_fingerprints(&q, &deep);
        let inner_fps = subplan_fingerprints(&q, &inner);
        assert_eq!(deep_fps.len(), 2);
        assert_eq!(inner_fps.len(), 1);
        assert!(deep_fps.contains(&inner_fps[0]));
    }

    #[test]
    fn sharing_report_counts_distinct_operators() {
        let q = chain(3);
        let inner = Plan::Join(vec![Plan::Leaf(StreamId(0)), Plan::Leaf(StreamId(1))]);
        let deep = Plan::Join(vec![inner.clone(), Plan::Leaf(StreamId(2))]);
        let mjoin = Plan::mjoin_all(&q);
        // Two identical deep plans plus the flat MJoin: the deep pair shares
        // both nodes; MJoin's single 3-ary node is its own operator.
        let report = sharing_report(&[(&q, &deep), (&q, &deep), (&q, &mjoin)]);
        assert_eq!(report.subscriptions, 5);
        assert_eq!(report.shared_nodes, 3);
        assert_eq!(report.fanout[0].1, 2, "densest node serves both deep plans");
        assert!((report.ratio() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn query_scope_blocks_sharing_across_different_queries() {
        let q2 = chain(2);
        let q3 = chain(3);
        let plan = Plan::Join(vec![Plan::Leaf(StreamId(0)), Plan::Leaf(StreamId(1))]);
        // Per-operator scope: the (s0 ⋈ s1) node is shareable between the
        // 2-chain and the 3-chain (same span, same in-span predicate).
        assert_eq!(plan_fingerprint(&q2, &plan), plan_fingerprint(&q3, &plan));
        // Query scope keys on the full predicate set, so they differ.
        assert_ne!(
            scoped_fingerprint(&q2, &plan),
            scoped_fingerprint(&q3, &plan)
        );
    }
}

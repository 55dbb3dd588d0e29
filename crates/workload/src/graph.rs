//! Graph-pattern workloads: cyclic join queries over edge streams.
//!
//! Cyclic CJQs are where the binary/tree plans lose asymptotically: a
//! triangle query executed as `(E1 ⋈ E2) ⋈ E3` materializes every 2-path as
//! an intermediate composite row, and on skewed graphs (a few high-degree
//! *hub* vertices) the 2-path count dwarfs the triangle count. The flat
//! MJoin probes every stream from the arriving edge and stores no
//! intermediate. This module provides the matching workload:
//!
//! * [`triangle_query`] / [`four_cycle_query`] — cyclic CJQs over directed
//!   edge streams `Ei(SRC, DST)`, one stream per pattern edge, chained
//!   `Ei.DST = Ei+1.SRC` predicates closing back to `E1`;
//! * **punctuated vertex retirement** — every stream carries a `(_, +)`
//!   scheme on `DST`: the punctuation `Ei(*, v)` asserts vertex `v` will
//!   receive no further `Ei`-edges. The scheme rotation is isomorphic to the
//!   paper's Fig. 5, so the punctuation graph is strongly connected and the
//!   query is safe — join state is purged as vertices retire;
//! * [`generate`] — a deterministic seeded edge feed. Non-hub vertices open
//!   in a sliding window and are retired (punctuated on every stream)
//!   `punct_lag` edges after the window slides past them; hub vertices stay
//!   live until the trailing drain. Endpoints are drawn from the live set
//!   only, so the feed is violation-free by construction, and a safe run
//!   ends with empty join state.
//!
//! `hubs = 0` (see [`GraphConfig::uniform`]) degrades the generator to a
//! uniform random graph — the control workload where tree and flat plans
//! are closest.

use std::collections::VecDeque;

use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{Catalog, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `DST` attribute position in every edge schema.
const DST: usize = 1;

/// Builds the k-cycle edge query: streams `E1..Ek` with schema `(SRC, DST)`,
/// predicates `Ei.DST = Ei+1.SRC` closing back to `E1`, and a `(_, +)`
/// vertex-retirement scheme on every stream's `DST`.
fn cycle_query(k: usize) -> (Cjq, SchemeSet) {
    assert!(k >= 3, "a cycle needs at least three edges");
    let mut cat = Catalog::new();
    for i in 1..=k {
        cat.add_stream(StreamSchema::new(format!("E{i}"), ["SRC", "DST"]).unwrap());
    }
    let preds = (0..k)
        .map(|i| JoinPredicate::between(i, DST, (i + 1) % k, 0).unwrap())
        .collect();
    let q = Cjq::new(cat, preds).unwrap();
    let schemes =
        SchemeSet::from_schemes((0..k).map(|i| PunctuationScheme::on(i, &[DST]).unwrap()));
    (q, schemes)
}

/// The triangle query: `E1.DST = E2.SRC`, `E2.DST = E3.SRC`,
/// `E3.DST = E1.SRC`, with vertex retirement on every `DST`.
#[must_use]
pub fn triangle_query() -> (Cjq, SchemeSet) {
    cycle_query(3)
}

/// The 4-cycle query: four edge streams chained `Ei.DST = Ei+1.SRC` and
/// closed back to `E1`, with vertex retirement on every `DST`.
#[must_use]
pub fn four_cycle_query() -> (Cjq, SchemeSet) {
    cycle_query(4)
}

/// Graph feed parameters.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Total edge tuples, round-robined across the query's streams.
    pub edges: usize,
    /// Non-hub vertices, opened in feed order by a sliding window and
    /// retired when the window slides past them.
    pub vertices: usize,
    /// Non-hub vertices live concurrently (the window size).
    pub window: usize,
    /// Hub vertices: always live until the drain, and preferred as edge
    /// endpoints with probability `hub_pct`. The skew knob — hubs breed
    /// 2-paths far faster than cycles.
    pub hubs: usize,
    /// Percent of endpoint draws that pick a hub (per endpoint).
    pub hub_pct: u8,
    /// Edges between a vertex leaving the window and its retirement
    /// punctuations.
    pub punct_lag: usize,
    /// Emit retirement punctuations at all (off = unbounded baseline).
    pub punctuate: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            edges: 3000,
            vertices: 300,
            window: 48,
            hubs: 8,
            hub_pct: 60,
            punct_lag: 150,
            punctuate: true,
            seed: 0x9AA9,
        }
    }
}

impl GraphConfig {
    /// The uniform (no-skew) variant: no hubs, same everything else.
    #[must_use]
    pub fn uniform(self) -> Self {
        GraphConfig {
            hubs: 0,
            hub_pct: 0,
            ..self
        }
    }
}

/// Generates the edge feed for a [`triangle_query`]/[`four_cycle_query`]
/// (any query whose streams are all `(SRC, DST)` edges with a `DST`
/// retirement scheme works).
#[must_use]
pub fn generate(query: &Cjq, schemes: &SchemeSet, cfg: &GraphConfig) -> Feed {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let streams: Vec<_> = query.stream_ids().collect();

    // Hub vertices are ids 0..hubs, window vertices hubs..hubs+vertices.
    let hubs = cfg.hubs;
    let tail = cfg.vertices.max(1);
    let window = cfg.window.max(1);
    let stride = (cfg.edges / tail).max(1);

    let mut opened = 0usize; // window vertices activated so far
    let mut pending: VecDeque<(usize, usize)> = VecDeque::new(); // (due edge, vertex)

    for ev in 0..cfg.edges {
        // Slide the vertex window: open the next vertex on schedule and
        // queue retirements for vertices the window has passed.
        while opened < tail && ev >= opened * stride {
            opened += 1;
            if opened > window {
                pending.push_back((ev + cfg.punct_lag, hubs + opened - window - 1));
            }
        }
        if cfg.punctuate {
            while pending.front().is_some_and(|&(due, _)| due <= ev) {
                let (_, v) = pending.pop_front().expect("checked non-empty");
                retire(&mut feed, query, schemes, v as i64);
            }
        }
        // Draw the edge: each endpoint is a hub with probability hub_pct,
        // otherwise uniform over the open window. Retired vertices are never
        // drawn, so the feed never violates its own punctuations.
        let endpoint = |rng: &mut StdRng| {
            if hubs > 0 && rng.random_range(0..100u32) < u32::from(cfg.hub_pct) {
                rng.random_range(0..hubs)
            } else {
                let lo = opened.saturating_sub(window);
                hubs + rng.random_range(lo..opened.max(1))
            }
        };
        let (src, dst) = (endpoint(&mut rng), endpoint(&mut rng));
        let stream = streams[ev % streams.len()];
        feed.push(Tuple::new(
            stream,
            vec![Value::Int(src as i64), Value::Int(dst as i64)],
        ));
    }
    // Drain: retire everything still live — queued vertices, the residual
    // window, then the hubs — so a safe run ends with empty join state.
    if cfg.punctuate {
        while let Some((_, v)) = pending.pop_front() {
            retire(&mut feed, query, schemes, v as i64);
        }
        for v in hubs + opened.saturating_sub(window)..hubs + opened {
            retire(&mut feed, query, schemes, v as i64);
        }
        for v in 0..hubs {
            retire(&mut feed, query, schemes, v as i64);
        }
    }
    feed
}

/// Retires vertex `v`: one punctuation per scheme (every stream's `DST`).
fn retire(feed: &mut Feed, query: &Cjq, schemes: &SchemeSet, v: i64) {
    let cat = query.catalog();
    for scheme in schemes.schemes() {
        let arity = cat.schema(scheme.stream).expect("validated").arity();
        let values = vec![Value::Int(v); scheme.arity()];
        let p = scheme.instantiate(arity, &values).expect("valid scheme");
        feed.push(StreamElement::Punctuation(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::join_graph::JoinGraph;
    use cjq_core::plan::{check_plan, Plan};
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    fn small() -> GraphConfig {
        GraphConfig {
            edges: 1200,
            vertices: 120,
            window: 24,
            punct_lag: 80,
            ..GraphConfig::default()
        }
    }

    #[test]
    fn cycle_queries_are_cyclic_and_safe() {
        for (q, r) in [triangle_query(), four_cycle_query()] {
            assert!(JoinGraph::of_query(&q).cycle_witness().is_some());
            let safety = check_plan(&q, &r, &Plan::mjoin_all(&q)).unwrap();
            assert!(safety.safe, "vertex retirement keeps the query safe");
        }
    }

    #[test]
    fn feed_is_violation_free_and_drains() {
        for (q, r) in [triangle_query(), four_cycle_query()] {
            for cfg in [small(), small().uniform()] {
                let feed = generate(&q, &r, &cfg);
                let exec =
                    Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
                let res = exec.run(&feed);
                assert_eq!(res.metrics.violations, 0, "retirement is consistent");
                assert!(res.metrics.purged > 0, "retirement purges state");
                assert_eq!(
                    res.metrics.last().unwrap().join_state,
                    0,
                    "safe run ends drained"
                );
            }
        }
    }

    #[test]
    fn skewed_triangles_close() {
        let (q, r) = triangle_query();
        let feed = generate(&q, &r, &small());
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert!(res.metrics.outputs > 0, "hub edges close triangles");
    }

    #[test]
    fn deterministic_under_seed() {
        let (q, r) = triangle_query();
        let cfg = small();
        let a = generate(&q, &r, &cfg);
        let b = generate(&q, &r, &cfg);
        assert_eq!(a.elements(), b.elements());
        let c = generate(&q, &r, &GraphConfig { seed: 7, ..cfg });
        assert_ne!(a.elements(), c.elements());
    }
}

//! Overlap-controlled multi-tenant query sets for the shared-state registry.
//!
//! The registry's headline number — marginal cost of the Nth registered
//! query — only means something when the overlap between queries is
//! controlled. This generator builds a *base* chain CJQ over `streams`
//! streams plus `queries - 1` derived queries that share a configurable
//! fraction of the base query's join edges:
//!
//! * every stream has two attributes `(k, w)` and a punctuation scheme on
//!   each, so **every** generated query is safe (Theorem 2/4) and every
//!   operator port purgeable;
//! * the base query joins the chain on `k`: `t0.k = t1.k = … = t{n-1}.k`;
//! * derived query `j` keeps the first `round(overlap · (streams-1))` chain
//!   edges verbatim and replaces the rest with seeded variants drawn from
//!   `{(k,w), (w,k), (w,w)}` — same chain shape, different predicates;
//! * each query's plan groups the shared prefix into an inner join node, so
//!   a registry canonicalizes all `queries` prefixes into **one** shared
//!   operator, while independent executors each pay for their own copy.
//!
//! The feed is round-keyed with `k = w = round`, so every predicate variant
//! is satisfied within a round and each query emits exactly
//! `tuples_per_round^streams` results per round — which makes per-query
//! output equivalence against standalone executors trivially checkable.

use cjq_core::plan::Plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;

/// Multi-tenant workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct MultiConfig {
    /// Streams in the shared universe (chain length), ≥ 2.
    pub streams: usize,
    /// Total queries, including the base query, ≥ 1.
    pub queries: usize,
    /// Fraction of the base query's join edges each derived query shares,
    /// in `[0, 1]`. `1.0` makes every query identical to the base.
    pub overlap: f64,
    /// Number of rounds (distinct join keys).
    pub rounds: usize,
    /// Rounds between a key's tuples and its punctuations.
    pub lag: usize,
    /// Tuples per stream per round.
    pub tuples_per_round: usize,
    /// Seed for the derived queries' variant edges.
    pub seed: u64,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            streams: 4,
            queries: 4,
            overlap: 0.5,
            rounds: 50,
            lag: 2,
            tuples_per_round: 1,
            seed: 7,
        }
    }
}

/// A generated multi-tenant query set over one shared catalog.
#[derive(Debug, Clone)]
pub struct MultiTenant {
    /// The shared punctuation scheme set (both attrs of every stream).
    pub schemes: SchemeSet,
    /// `(query, plan)` per tenant; index 0 is the base query. Plans group
    /// the shared chain prefix into an inner join node when the prefix
    /// spans ≥ 2 streams and is a strict subset of the chain.
    pub queries: Vec<(Cjq, Plan)>,
    /// Chain edges (out of `streams - 1`) every derived query shares with
    /// the base.
    pub shared_edges: usize,
}

fn catalog(streams: usize) -> Catalog {
    let mut cat = Catalog::new();
    for i in 0..streams {
        cat.add_stream(StreamSchema::new(format!("t{i}"), ["k", "w"]).unwrap());
    }
    cat
}

/// Deterministic attr-pair variant for derived query `j`'s chain edge `i`.
/// Never `(k, k)` — that's the base edge — so a variant edge is always a
/// genuinely different predicate.
fn variant(seed: u64, j: usize, i: usize) -> (usize, usize) {
    let mut h = seed
        ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    match h % 3 {
        0 => (0, 1),
        1 => (1, 0),
        _ => (1, 1),
    }
}

fn plan_for(streams: usize, prefix_streams: usize) -> Plan {
    if prefix_streams >= 2 && prefix_streams < streams {
        let inner = Plan::join((0..prefix_streams).map(Plan::leaf).collect());
        let mut children = vec![inner];
        children.extend((prefix_streams..streams).map(Plan::leaf));
        Plan::join(children)
    } else {
        Plan::join((0..streams).map(Plan::leaf).collect())
    }
}

/// Number of chain edges shared by every derived query.
#[must_use]
pub fn shared_edges(cfg: &MultiConfig) -> usize {
    let total = cfg.streams - 1;
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let shared = (cfg.overlap.clamp(0.0, 1.0) * total as f64).round() as usize;
    shared.min(total)
}

/// Generates the tenant query set: the base `k`-chain plus `queries - 1`
/// derived chains sharing `overlap` of its edges.
///
/// # Panics
/// Panics if `streams < 2` or `queries < 1`.
#[must_use]
pub fn generate_queries(cfg: &MultiConfig) -> MultiTenant {
    assert!(cfg.streams >= 2, "need at least 2 streams");
    assert!(cfg.queries >= 1, "need at least 1 query");
    let shared = shared_edges(cfg);
    // Shared prefix spans streams 0..=shared; a full-overlap "prefix" is the
    // whole chain, where the flat plan itself is the shared node.
    let prefix_streams = shared + 1;

    let mut schemes = SchemeSet::new();
    for s in 0..cfg.streams {
        schemes.add(PunctuationScheme::on(s, &[0]).unwrap());
        schemes.add(PunctuationScheme::on(s, &[1]).unwrap());
    }

    let mut queries = Vec::with_capacity(cfg.queries);
    for j in 0..cfg.queries {
        let preds: Vec<JoinPredicate> = (0..cfg.streams - 1)
            .map(|i| {
                let (a, b) = if j == 0 || i < shared {
                    (0, 0)
                } else {
                    variant(cfg.seed, j, i)
                };
                JoinPredicate::between(i, a, i + 1, b).unwrap()
            })
            .collect();
        let query = Cjq::new(catalog(cfg.streams), preds).unwrap();
        let plan = plan_for(cfg.streams, prefix_streams);
        queries.push((query, plan));
    }
    MultiTenant {
        schemes,
        queries,
        shared_edges: shared,
    }
}

/// Round-keyed feed over the shared catalog: in round `r` every stream
/// emits `tuples_per_round` tuples `(r, r)`, and `lag` rounds later every
/// scheme closes key `r`. Both attributes carry the round, so every
/// predicate variant joins and every scheme's punctuation is violation-free.
#[must_use]
pub fn generate_feed(cfg: &MultiConfig) -> Feed {
    let cat = catalog(cfg.streams);
    let tenant_schemes = generate_queries(&MultiConfig { queries: 1, ..*cfg }).schemes;
    let mut feed = Feed::new();
    for round in 0..cfg.rounds + cfg.lag {
        if round < cfg.rounds {
            for s in 0..cfg.streams {
                let arity = cat.schema(StreamId(s)).unwrap().arity();
                for _ in 0..cfg.tuples_per_round {
                    feed.push(Tuple::new(
                        StreamId(s),
                        vec![Value::Int(round as i64); arity],
                    ));
                }
            }
        }
        if round >= cfg.lag {
            let key = (round - cfg.lag) as i64;
            for scheme in tenant_schemes.schemes() {
                let arity = cat.schema(scheme.stream).unwrap().arity();
                let values = vec![Value::Int(key); scheme.arity()];
                feed.push(StreamElement::Punctuation(
                    scheme.instantiate(arity, &values).expect("valid scheme"),
                ));
            }
        }
    }
    feed
}

/// Expected results per query: one combination per round.
#[must_use]
pub fn expected_outputs_per_query(cfg: &MultiConfig) -> u64 {
    cfg.rounds as u64 * (cfg.tuples_per_round as u64).pow(cfg.streams as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::plan::check_plan;
    use cjq_core::safety;
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    #[test]
    fn all_tenants_safe_with_safe_plans() {
        for overlap in [0.0, 0.33, 0.5, 1.0] {
            let cfg = MultiConfig {
                queries: 5,
                overlap,
                ..MultiConfig::default()
            };
            let tenant = generate_queries(&cfg);
            for (query, plan) in &tenant.queries {
                assert!(safety::check_query(query, &tenant.schemes).safe);
                assert!(check_plan(query, &tenant.schemes, plan).unwrap().safe);
            }
        }
    }

    #[test]
    fn overlap_controls_shared_edges() {
        let base = MultiConfig::default(); // 4 streams, 3 edges
        assert_eq!(
            shared_edges(&MultiConfig {
                overlap: 0.0,
                ..base
            }),
            0
        );
        assert_eq!(
            shared_edges(&MultiConfig {
                overlap: 0.5,
                ..base
            }),
            2
        );
        assert_eq!(
            shared_edges(&MultiConfig {
                overlap: 1.0,
                ..base
            }),
            3
        );
        let tenant = generate_queries(&MultiConfig {
            overlap: 1.0,
            queries: 3,
            ..base
        });
        // Full overlap: every derived query equals the base.
        assert_eq!(tenant.queries[1].0, tenant.queries[0].0);
        assert_eq!(tenant.queries[2].0, tenant.queries[0].0);
    }

    #[test]
    fn derived_queries_share_exactly_the_prefix() {
        let cfg = MultiConfig {
            overlap: 0.5,
            queries: 4,
            ..MultiConfig::default()
        };
        let tenant = generate_queries(&cfg);
        let base = tenant.queries[0].0.predicates();
        for (query, _) in &tenant.queries[1..] {
            let preds = query.predicates();
            assert_eq!(&preds[..tenant.shared_edges], &base[..tenant.shared_edges]);
        }
    }

    /// The registry twin of the auction workload's boundedness test: sixteen
    /// tenants over one catalog (perfbench's `multi_tenant16` set), three feed
    /// lengths. What the punctuation stores hold and what a snapshot costs
    /// must not follow the feed — but for the sample series, taken out at its
    /// encoded size. The two schemes no tenant's predicate reads store
    /// nothing: every punctuation is stored and then forgotten, or forgotten
    /// as it comes.
    #[test]
    fn registry_punctuation_store_and_snapshots_do_not_grow_with_the_feed() {
        use cjq_stream::checkpoint::{list_snapshots, CheckpointStore, InputCursor};
        use cjq_stream::registry::QueryRegistry;
        let exec_cfg = ExecConfig {
            record_outputs: false,
            ..ExecConfig::default()
        };
        let (mut peaks, mut snapshot_bytes) = (Vec::new(), Vec::new());
        for rounds in [500, 2_000, 8_000] {
            let cfg = MultiConfig {
                queries: 16,
                rounds,
                lag: 4,
                tuples_per_round: 2,
                ..MultiConfig::default()
            };
            let tenant = generate_queries(&cfg);
            let feed = generate_feed(&cfg);
            let read =
                |s: &PunctuationScheme| tenant.queries.iter().any(|(q, _)| q.reads_scheme(s));
            let unread = tenant.schemes.schemes().iter().filter(|s| !read(s)).count();
            assert_eq!(unread, 2, "t0.w and t1.w sit inside the shared prefix");

            let dir = std::env::temp_dir().join(format!(
                "cjq-multi-resident-{}-{rounds}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // Due once, at the feed's last element — a punctuation.
            let mut store = CheckpointStore::open(&dir, feed.len() as u64).unwrap();
            let mut cursor = InputCursor::zero(cfg.streams);
            let mut reg = QueryRegistry::new(tenant.schemes.clone(), exec_cfg);
            for (query, plan) in &tenant.queries {
                reg.try_admit(query, plan, None).unwrap();
            }
            for e in &feed {
                reg.push_checkpointed(e, &mut store, &mut cursor).unwrap();
            }
            let metrics = reg.finish().metrics;
            peaks.push(metrics.peak_punct_entries);
            assert_eq!(metrics.punct_dropped as usize, 8 * rounds);
            let snaps = list_snapshots(&dir);
            assert_eq!(snaps.len(), 1);
            let bytes = std::fs::metadata(&snaps[0].1).unwrap().len() as usize;
            // A `StatePoint` is six 8-byte words, one every 64 elements.
            let series = 6 * 8 * (feed.len() / exec_cfg.sample_every);
            snapshot_bytes.push(bytes - series);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            peaks.iter().all(|&p| p == peaks[0] && p <= 64),
            "punctuation entries follow the feed length: {peaks:?}"
        );
        // Which reclaim phase the last element lands in moves the count by
        // the resident rows of a few arenas (33402, 19690, 12906 bytes here);
        // beyond a few rows' slack a longer feed must not cost a byte more
        // than a shorter one.
        assert!(
            snapshot_bytes.windows(2).all(|w| w[1] <= w[0] + 512),
            "snapshot bytes follow the feed length: {snapshot_bytes:?}"
        );
    }

    #[test]
    fn every_tenant_sees_expected_outputs_standalone() {
        let cfg = MultiConfig {
            queries: 3,
            rounds: 20,
            ..MultiConfig::default()
        };
        let tenant = generate_queries(&cfg);
        let feed = generate_feed(&cfg);
        for (query, plan) in &tenant.queries {
            let exec =
                Executor::compile(query, &tenant.schemes, plan, ExecConfig::default()).unwrap();
            let res = exec.run(&feed);
            assert_eq!(res.metrics.violations, 0);
            assert_eq!(res.metrics.outputs, expected_outputs_per_query(&cfg));
            assert_eq!(res.metrics.last().unwrap().join_state, 0);
        }
    }
}

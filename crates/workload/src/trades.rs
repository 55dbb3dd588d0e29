//! A market-data workload driven by **heartbeat/watermark punctuations**
//! (ordered schemes — the Srivastava & Widom \[11\] special punctuation the
//! paper's related work cites, and the ancestor of Flink-style watermarks).
//!
//! `trade(ts, sym, px)` and `quote(ts, sym, bid)` are joined on
//! `ts ∧ sym` (same tick, same symbol). Both sources emit heartbeats
//! `ts ≤ T` with bounded lateness: after the heartbeat, no element older
//! than `T` arrives. A *single* heartbeat retires every stored tuple at or
//! below the watermark — punctuation-store state is O(1) per stream instead
//! of one entry per closed key.

use cjq_core::punctuation::Punctuation;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{AttrId, Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream id of the trade stream.
pub const TRADE: StreamId = StreamId(0);
/// Stream id of the quote stream.
pub const QUOTE: StreamId = StreamId(1);

/// Trades workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct TradesConfig {
    /// Number of ticks.
    pub ticks: usize,
    /// Symbols traded.
    pub n_symbols: usize,
    /// Probability a symbol trades in a tick (a quote always exists).
    pub trade_prob: f64,
    /// Heartbeat every this many ticks.
    pub heartbeat_every: usize,
    /// Watermark lateness: heartbeat at tick `t` carries bound `t - lateness`.
    pub lateness: usize,
    /// Emit heartbeats at all.
    pub heartbeats: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TradesConfig {
    fn default() -> Self {
        TradesConfig {
            ticks: 100,
            n_symbols: 3,
            trade_prob: 0.6,
            heartbeat_every: 5,
            lateness: 2,
            heartbeats: true,
            seed: 31,
        }
    }
}

/// The trades query: `trade ⋈ quote ON (ts, sym)` with **ordered** schemes
/// on `ts` of both streams.
#[must_use]
pub fn trades_query() -> (Cjq, SchemeSet) {
    let mut cat = Catalog::new();
    cat.add_stream(StreamSchema::new("trade", ["ts", "sym", "px"]).unwrap());
    cat.add_stream(StreamSchema::new("quote", ["ts", "sym", "bid"]).unwrap());
    let q = Cjq::new(
        cat,
        vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(), // ts
            JoinPredicate::between(0, 1, 1, 1).unwrap(), // sym
        ],
    )
    .unwrap();
    let schemes = SchemeSet::from_schemes([
        PunctuationScheme::ordered_on(0, 0).unwrap(), // trade.ts heartbeats
        PunctuationScheme::ordered_on(1, 0).unwrap(), // quote.ts heartbeats
    ]);
    (q, schemes)
}

/// Generates the feed; returns `(feed, expected_matches)`.
#[must_use]
pub fn generate(cfg: &TradesConfig) -> (Feed, u64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let mut matches = 0u64;
    for tick in 0..cfg.ticks {
        for sym in 0..cfg.n_symbols {
            feed.push(Tuple::new(
                QUOTE,
                vec![
                    Value::Int(tick as i64),
                    Value::Int(sym as i64),
                    Value::Int(rng.random_range(100..200)),
                ],
            ));
            if rng.random_bool(cfg.trade_prob) {
                matches += 1;
                feed.push(Tuple::new(
                    TRADE,
                    vec![
                        Value::Int(tick as i64),
                        Value::Int(sym as i64),
                        Value::Int(rng.random_range(100..200)),
                    ],
                ));
            }
        }
        if cfg.heartbeats && tick % cfg.heartbeat_every == 0 && tick >= cfg.lateness {
            let bound = (tick - cfg.lateness) as i64;
            feed.push(heartbeat(TRADE, bound));
            feed.push(heartbeat(QUOTE, bound));
        }
    }
    (feed, matches)
}

/// The watermark punctuation `ts ≤ bound` on `stream`.
#[must_use]
pub fn heartbeat(stream: StreamId, bound: i64) -> StreamElement {
    Punctuation::heartbeat(stream, 3, AttrId(0), Value::Int(bound)).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::plan::Plan;
    use cjq_core::safety;
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    #[test]
    fn ordered_schemes_make_the_query_safe() {
        let (q, r) = trades_query();
        assert!(r.schemes().iter().all(PunctuationScheme::is_ordered));
        // Ordered schemes license the same edges as equality schemes.
        assert!(safety::all_schemes_simple(&r));
        assert!(safety::is_query_safe(&q, &r));
    }

    #[test]
    fn watermarks_bound_state_with_constant_punct_store() {
        let (q, r) = trades_query();
        let cfg = TradesConfig::default();
        let (feed, expected) = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(res.metrics.outputs, expected);
        // The punctuation store holds at most one threshold per stream.
        assert!(res.metrics.peak_punct_entries <= 2);
        // Join state bounded by the watermark horizon, not the feed length.
        let horizon = (cfg.heartbeat_every + cfg.lateness + 1) * cfg.n_symbols * 2;
        assert!(
            res.metrics.peak_join_state <= horizon,
            "peak {} vs horizon {horizon}",
            res.metrics.peak_join_state
        );
        assert!(res.metrics.purged > 0);
    }

    #[test]
    fn without_heartbeats_state_grows() {
        let (q, r) = trades_query();
        let cfg = TradesConfig {
            heartbeats: false,
            ..TradesConfig::default()
        };
        let (feed, _) = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(
            res.metrics.last().unwrap().join_state,
            res.metrics.tuples_in as usize
        );
    }

    #[test]
    fn late_data_within_the_watermark_is_rejected() {
        // A tuple older than an emitted heartbeat is a feed violation —
        // exactly the "late data" notion of watermark systems.
        let (q, r) = trades_query();
        let mut feed = Feed::new();
        feed.push(heartbeat(TRADE, 10));
        feed.push(Tuple::new(
            TRADE,
            vec![Value::Int(5), Value::Int(0), Value::Int(100)],
        ));
        feed.push(Tuple::new(
            TRADE,
            vec![Value::Int(11), Value::Int(0), Value::Int(100)],
        ));
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 1);
        assert_eq!(res.metrics.tuples_in, 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = TradesConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}

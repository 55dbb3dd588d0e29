//! Generic round-keyed feeds for arbitrary queries.
//!
//! For state-growth experiments over any fixture query (Fig. 3/5/8 shapes),
//! the simplest workload that exercises every predicate is *round-keyed*: in
//! round `k`, every stream emits one tuple whose attributes all carry the
//! value `k`, so each round produces exactly one n-way result; `lag` rounds
//! later, every scheme emits the punctuation closing key `k`. The
//! punctuation lag directly controls the steady-state join-state size, and
//! disabling punctuations yields the unbounded baseline.

use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;

/// Round-keyed feed parameters.
#[derive(Debug, Clone, Copy)]
pub struct KeyedConfig {
    /// Number of rounds (distinct join keys).
    pub rounds: usize,
    /// Rounds between a key's tuples and its punctuations.
    pub lag: usize,
    /// Emit punctuations at all.
    pub punctuate: bool,
    /// Tuples per stream per round (same key: fan-out within the round).
    pub tuples_per_round: usize,
}

impl Default for KeyedConfig {
    fn default() -> Self {
        KeyedConfig {
            rounds: 100,
            lag: 2,
            punctuate: true,
            tuples_per_round: 1,
        }
    }
}

/// Generates the feed for `query` under `schemes`.
#[must_use]
pub fn generate(query: &Cjq, schemes: &SchemeSet, cfg: &KeyedConfig) -> Feed {
    let mut feed = Feed::new();
    for round in 0..cfg.rounds + cfg.lag {
        if round < cfg.rounds {
            for s in query.stream_ids() {
                let arity = query.catalog().schema(s).unwrap().arity();
                for _ in 0..cfg.tuples_per_round {
                    feed.push(Tuple::new(s, vec![Value::Int(round as i64); arity]));
                }
            }
        }
        if cfg.punctuate && round >= cfg.lag {
            let key = (round - cfg.lag) as i64;
            for scheme in schemes.schemes() {
                let arity = query.catalog().schema(scheme.stream).unwrap().arity();
                let values = vec![Value::Int(key); scheme.arity()];
                let p = scheme.instantiate(arity, &values).expect("valid scheme");
                feed.push(StreamElement::Punctuation(p));
            }
        }
    }
    feed
}

/// Like [`generate`], but with an individual punctuation lag per scheme
/// (`lags[i]` rounds for `schemes.schemes()[i]`). Used by the Plan-Parameter-I
/// experiments: redundant schemes with short lags let the engine purge early
/// at the price of extra punctuation traffic.
///
/// # Panics
/// Panics if `lags.len() != schemes.len()`.
#[must_use]
pub fn generate_with_scheme_lags(
    query: &Cjq,
    schemes: &SchemeSet,
    rounds: usize,
    lags: &[usize],
    tuples_per_round: usize,
) -> Feed {
    assert_eq!(lags.len(), schemes.len(), "one lag per scheme");
    let max_lag = lags.iter().copied().max().unwrap_or(0);
    let mut feed = Feed::new();
    for round in 0..rounds + max_lag {
        if round < rounds {
            for s in query.stream_ids() {
                let arity = query.catalog().schema(s).unwrap().arity();
                for _ in 0..tuples_per_round {
                    feed.push(Tuple::new(s, vec![Value::Int(round as i64); arity]));
                }
            }
        }
        for (scheme, &lag) in schemes.schemes().iter().zip(lags) {
            if round >= lag && round - lag < rounds {
                let key = (round - lag) as i64;
                let arity = query.catalog().schema(scheme.stream).unwrap().arity();
                let values = vec![Value::Int(key); scheme.arity()];
                feed.push(StreamElement::Punctuation(
                    scheme.instantiate(arity, &values).expect("valid scheme"),
                ));
            }
        }
    }
    feed
}

/// Expected number of n-way results: one per round and per tuple-combination
/// within the round.
#[must_use]
pub fn expected_outputs(query: &Cjq, cfg: &KeyedConfig) -> u64 {
    let per_round = (cfg.tuples_per_round as u64).pow(query.n_streams() as u32);
    cfg.rounds as u64 * per_round
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::plan::Plan;
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    #[test]
    fn each_round_produces_one_result_and_purges() {
        let (q, r) = fixtures::fig5();
        let cfg = KeyedConfig {
            rounds: 40,
            lag: 3,
            ..Default::default()
        };
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(res.metrics.outputs, expected_outputs(&q, &cfg));
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        // Steady state holds ~lag rounds of tuples (3 streams x (lag+1)).
        assert!(res.metrics.peak_join_state <= 3 * (cfg.lag + 1));
    }

    #[test]
    fn larger_lag_means_larger_state() {
        let (q, r) = fixtures::fig5();
        let peaks: Vec<usize> = [1usize, 5, 20]
            .iter()
            .map(|&lag| {
                let cfg = KeyedConfig {
                    rounds: 60,
                    lag,
                    ..Default::default()
                };
                let feed = generate(&q, &r, &cfg);
                let exec =
                    Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
                exec.run(&feed).metrics.peak_join_state
            })
            .collect();
        assert!(
            peaks[0] < peaks[1] && peaks[1] < peaks[2],
            "peaks {peaks:?}"
        );
    }

    #[test]
    fn no_punctuations_no_purging() {
        let (q, r) = fixtures::fig8();
        let cfg = KeyedConfig {
            rounds: 30,
            punctuate: false,
            ..Default::default()
        };
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.last().unwrap().join_state, 90);
    }

    #[test]
    fn multi_attr_schemes_instantiate() {
        let (q, r) = fixtures::fig8();
        let cfg = KeyedConfig {
            rounds: 25,
            lag: 2,
            ..Default::default()
        };
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(res.metrics.outputs, 25);
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
    }

    #[test]
    fn per_scheme_lags_stay_consistent_and_shorter_lags_purge_earlier() {
        let (q, r) = fixtures::fig5();
        let run = |lags: &[usize]| {
            let feed = generate_with_scheme_lags(&q, &r, 60, lags, 1);
            let exec =
                Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
            exec.run(&feed)
        };
        let slow = run(&[12, 12, 12]);
        let fast = run(&[1, 1, 1]);
        assert_eq!(slow.metrics.violations, 0);
        assert_eq!(fast.metrics.violations, 0);
        assert_eq!(slow.metrics.outputs, 60);
        assert_eq!(fast.metrics.outputs, 60);
        assert!(fast.metrics.peak_join_state < slow.metrics.peak_join_state);
    }

    #[test]
    fn fan_out_multiplies_outputs() {
        let (q, r) = fixtures::auction();
        let cfg = KeyedConfig {
            rounds: 10,
            lag: 1,
            tuples_per_round: 2,
            ..Default::default()
        };
        let feed = generate(&q, &r, &cfg);
        assert_eq!(expected_outputs(&q, &cfg), 40);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.outputs, 40);
    }
}

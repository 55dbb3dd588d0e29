//! Skewed long-state workloads for the two-tier state experiments.
//!
//! The tiered-state bench needs a feed where (a) live join state grows far
//! beyond any reasonable memory budget, and (b) accesses are skewed, so a
//! recency-based demotion policy has something to exploit. The generator
//! models that directly: one *driver* stream emits a long sequence of join
//! keys drawn from a small always-live **hot set** plus a large **cold
//! tail**; every other stream contributes exactly one *anchor* tuple per key
//! (emitted at the key's first appearance), so each driver event produces
//! exactly one n-way result — `outputs == events`, which makes recall
//! accounting trivial.
//!
//! Cold keys open in a sliding window and are punctuated only `punct_lag`
//! events after the window slides past them; hot keys are punctuated only in
//! the trailing drain. The punctuation discipline is safe by construction
//! (a key is never drawn after its punctuations are emitted), so a run with
//! punctuations enabled has zero violations and ends with empty join state —
//! while mid-run state holds the whole open window plus the hot set's
//! accumulated driver rows, which is what pushes a budgeted executor into
//! demotion.

use std::collections::VecDeque;

use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skewed workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SkewedConfig {
    /// Driver-stream tuples (each produces exactly one n-way result).
    pub events: usize,
    /// Always-live hot keys; punctuated only in the trailing drain.
    pub hot_keys: usize,
    /// Cold-tail keys, opened in feed order by a sliding window.
    pub cold_keys: usize,
    /// Cold keys open concurrently (the window size).
    pub cold_window: usize,
    /// Percent of events that hit the hot set (the skew knob).
    pub hot_pct: u8,
    /// Events between a cold key leaving the window and its punctuations.
    pub punct_lag: usize,
    /// Emit punctuations at all (off = unbounded baseline).
    pub punctuate: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkewedConfig {
    fn default() -> Self {
        SkewedConfig {
            events: 2000,
            hot_keys: 16,
            cold_keys: 400,
            cold_window: 64,
            hot_pct: 80,
            punct_lag: 200,
            punctuate: true,
            seed: 0x5EED,
        }
    }
}

/// Expected n-way results: one per driver event.
#[must_use]
pub fn expected_outputs(cfg: &SkewedConfig) -> u64 {
    cfg.events as u64
}

/// Generates the skewed feed for `query` under `schemes`. The first stream
/// in catalog order is the driver; every attribute of every tuple carries
/// the key, so any equi-join fixture works (Fig. 3/5/8 shapes).
#[must_use]
pub fn generate(query: &Cjq, schemes: &SchemeSet, cfg: &SkewedConfig) -> Feed {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let streams: Vec<_> = query.stream_ids().collect();
    let driver = streams[0];
    let cat = query.catalog();

    // Hot keys are ids 0..hot, cold keys hot..hot+cold.
    let hot = cfg.hot_keys;
    let cold = cfg.cold_keys;
    let window = cfg.cold_window.max(1);
    // Events between cold-key activations, so the whole tail gets used.
    let stride = (cfg.events / cold.max(1)).max(1);

    let mut anchored = vec![false; hot + cold];
    let mut opened = 0usize; // cold keys activated so far
    let mut pending: VecDeque<(usize, usize)> = VecDeque::new(); // (due event, key)

    let anchor = |feed: &mut Feed, key: usize| {
        for &s in &streams[1..] {
            let arity = cat.schema(s).expect("validated").arity();
            feed.push(Tuple::new(s, vec![Value::Int(key as i64); arity]));
        }
    };
    for ev in 0..cfg.events {
        // Slide the cold window: open the next tail key on schedule and
        // queue punctuations for keys the window has passed.
        while opened < cold && ev >= opened * stride {
            opened += 1;
            if opened > window {
                pending.push_back((ev + cfg.punct_lag, hot + opened - window - 1));
            }
        }
        if cfg.punctuate {
            while pending.front().is_some_and(|&(due, _)| due <= ev) {
                let (_, key) = pending.pop_front().expect("checked non-empty");
                push_puncts(&mut feed, query, schemes, key as i64);
            }
        }
        // Draw the event's key: hot with probability hot_pct, else uniform
        // over the currently open cold window.
        let key =
            if opened == 0 || (hot > 0 && rng.random_range(0..100u32) < u32::from(cfg.hot_pct)) {
                rng.random_range(0..hot.max(1))
            } else {
                let lo = opened.saturating_sub(window);
                hot + rng.random_range(lo..opened)
            };
        if !anchored[key] {
            anchored[key] = true;
            anchor(&mut feed, key);
        }
        let arity = cat.schema(driver).expect("validated").arity();
        feed.push(Tuple::new(driver, vec![Value::Int(key as i64); arity]));
    }
    // Drain: close everything still open — queued cold keys, the residual
    // window, then the hot set — so a safe run ends with empty state.
    if cfg.punctuate {
        while let Some((_, key)) = pending.pop_front() {
            push_puncts(&mut feed, query, schemes, key as i64);
        }
        for key in hot + opened.saturating_sub(window)..hot + opened {
            push_puncts(&mut feed, query, schemes, key as i64);
        }
        for key in 0..hot {
            push_puncts(&mut feed, query, schemes, key as i64);
        }
    }
    feed
}

fn push_puncts(feed: &mut Feed, query: &Cjq, schemes: &SchemeSet, key: i64) {
    let cat = query.catalog();
    for scheme in schemes.schemes() {
        let arity = cat.schema(scheme.stream).expect("validated").arity();
        let values = vec![Value::Int(key); scheme.arity()];
        let p = scheme.instantiate(arity, &values).expect("valid scheme");
        feed.push(StreamElement::Punctuation(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::plan::Plan;
    use cjq_stream::exec::{ExecConfig, Executor, StateBudget};
    use cjq_stream::tier::TierConfig;
    use cjq_stream::Engine;

    fn small() -> SkewedConfig {
        SkewedConfig {
            events: 600,
            hot_keys: 8,
            cold_keys: 120,
            cold_window: 24,
            punct_lag: 60,
            ..Default::default()
        }
    }

    #[test]
    fn one_output_per_event_and_state_drains() {
        let (q, r) = fixtures::fig5();
        let cfg = small();
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(res.metrics.outputs, expected_outputs(&cfg));
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (q, r) = fixtures::fig5();
        let cfg = small();
        let a = generate(&q, &r, &cfg);
        let b = generate(&q, &r, &cfg);
        assert_eq!(a.elements(), b.elements());
        let c = generate(&q, &r, &SkewedConfig { seed: 1, ..cfg });
        assert_ne!(a.elements(), c.elements());
    }

    #[test]
    fn state_outgrows_a_small_budget_without_tiering() {
        let (q, r) = fixtures::fig5();
        let cfg = small();
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(
            &q,
            &r,
            &Plan::mjoin_all(&q),
            ExecConfig {
                sample_every: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let res = exec.run(&feed);
        // The open window + hot driver rows dwarf a 64-row budget; this is
        // what forces a budgeted run into the cold tier.
        assert!(res.metrics.peak_join_state > 64);
    }

    #[test]
    fn tiered_run_is_lossless_and_respects_the_cap() {
        let (q, r) = fixtures::fig5();
        let cfg = small();
        let feed = generate(&q, &r, &cfg);
        let exec = Executor::compile(
            &q,
            &r,
            &Plan::mjoin_all(&q),
            ExecConfig {
                state_budget: Some(StateBudget::hard(64)),
                tiering: Some(TierConfig::default()),
                sample_every: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let res = exec.try_run(&feed).unwrap();
        assert_eq!(res.metrics.outputs, expected_outputs(&cfg));
        assert!(res.metrics.rows_demoted > 0, "the cap forced demotion");
        assert!(res.metrics.peak_join_state <= 64);
    }
}

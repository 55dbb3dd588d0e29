//! End-to-end soundness of the runtime purge machinery.
//!
//! The defining property of punctuation-based purging (paper Definition 1):
//! a purged tuple must never have produced another result. We check it
//! behaviorally: running the same punctuation-consistent feed with purging
//! enabled (eager/lazy, operator/query scope, any plan) must produce exactly
//! the same result multiset as running it with purging disabled.

use std::collections::HashSet;

use proptest::prelude::*;

use cjq_core::fixtures;
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::purge::PurgeScope;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use cjq_stream::Engine;

/// Deterministically expands raw action seeds into a punctuation-consistent
/// feed: a tuple matching an earlier punctuation is re-rolled a few times and
/// dropped if still dead.
fn build_feed(query: &Cjq, schemes: &SchemeSet, seeds: &[(u8, u64)], domain: i64) -> Feed {
    let n = query.n_streams();
    let mut feed = Feed::new();
    // Track punctuated combos per scheme to keep the feed consistent.
    let mut dead: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); schemes.len()];
    let scheme_list = schemes.schemes();
    let mut rng_state = 0x9E3779B97F4A7C15u64;
    let mut next = |seed: u64| {
        rng_state = rng_state
            .wrapping_add(seed)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng_state >> 16
    };

    for &(kind, seed) in seeds {
        if kind % 4 == 0 && !scheme_list.is_empty() {
            // Punctuation on a random scheme with random constants.
            let si = (next(seed) as usize) % scheme_list.len();
            let scheme = &scheme_list[si];
            let arity = query.catalog().schema(scheme.stream).unwrap().arity();
            let values: Vec<Value> = scheme
                .punctuatable()
                .iter()
                .map(|_| Value::Int((next(seed) % domain as u64) as i64))
                .collect();
            let p = scheme.instantiate(arity, &values).unwrap();
            dead[si].insert(values);
            feed.push(p);
        } else {
            // Tuple on a random stream; re-roll if it violates a punctuation.
            let stream = StreamId((next(seed) as usize) % n);
            let arity = query.catalog().schema(stream).unwrap().arity();
            'attempt: for _ in 0..8 {
                let values: Vec<Value> = (0..arity)
                    .map(|_| Value::Int((next(seed) % domain as u64) as i64))
                    .collect();
                for (si, scheme) in scheme_list.iter().enumerate() {
                    if scheme.stream != stream {
                        continue;
                    }
                    let combo: Vec<Value> =
                        scheme.punctuatable().iter().map(|a| values[a.0]).collect();
                    if dead[si].contains(&combo) {
                        continue 'attempt;
                    }
                }
                feed.push(Tuple::new(stream, values));
                break;
            }
        }
    }
    feed
}

/// All binary left-deep plans plus the flat MJoin for a 3-stream query.
fn plans_for(query: &Cjq) -> Vec<Plan> {
    let mut plans = vec![Plan::mjoin_all(query)];
    if query.n_streams() == 3 {
        for order in [[0usize, 1, 2], [1, 2, 0], [0, 2, 1]] {
            let ids: Vec<StreamId> = order.iter().map(|&i| StreamId(i)).collect();
            let plan = Plan::left_deep(&ids);
            if plan.validate(query).is_ok() {
                plans.push(plan);
            }
        }
    }
    plans
}

fn sorted_outputs(mut outs: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    outs.sort();
    outs
}

fn run_with(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    feed: &Feed,
    cadence: PurgeCadence,
    scope: PurgeScope,
) -> Vec<Vec<Value>> {
    let cfg = ExecConfig {
        cadence,
        scope,
        sample_every: 16,
        ..ExecConfig::default()
    };
    let exec = Executor::compile(query, schemes, plan, cfg).expect("compiles");
    sorted_outputs(exec.run(feed).outputs)
}

fn check_purging_preserves_outputs(
    fixture: fn() -> (Cjq, SchemeSet),
    seeds: &[(u8, u64)],
    domain: i64,
) -> Result<(), TestCaseError> {
    let (query, schemes) = fixture();
    let feed = build_feed(&query, &schemes, seeds, domain);
    for plan in plans_for(&query) {
        let baseline = run_with(
            &query,
            &schemes,
            &plan,
            &feed,
            PurgeCadence::Never,
            PurgeScope::Operator,
        );
        for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
            for scope in [PurgeScope::Operator, PurgeScope::Query] {
                let purged = run_with(&query, &schemes, &plan, &feed, cadence, scope);
                prop_assert_eq!(
                    &purged,
                    &baseline,
                    "outputs diverged: plan {} cadence {:?} scope {:?}",
                    plan,
                    cadence,
                    scope
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Auction (Example 1): purging never changes the result set.
    #[test]
    fn auction_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        domain in 2i64..6,
    ) {
        check_purging_preserves_outputs(fixtures::auction, &seeds, domain)?;
    }

    /// Figure 3 (partial purgeability: only S1's state has a recipe).
    #[test]
    fn fig3_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..100),
        domain in 2i64..5,
    ) {
        check_purging_preserves_outputs(fixtures::fig3, &seeds, domain)?;
    }

    /// Figure 5 (safe MJoin, unsafe binary plans — all must agree).
    #[test]
    fn fig5_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..100),
        domain in 2i64..5,
    ) {
        check_purging_preserves_outputs(fixtures::fig5, &seeds, domain)?;
    }

    /// Figure 8 (multi-attribute schemes drive the hyper-edge purge path).
    #[test]
    fn fig8_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..100),
        domain in 2i64..5,
    ) {
        check_purging_preserves_outputs(fixtures::fig8, &seeds, domain)?;
    }

    /// All plans of one query produce identical outputs (join reordering
    /// invariance of the runtime).
    #[test]
    fn plans_agree_on_outputs(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..80),
        domain in 2i64..5,
    ) {
        let (query, schemes) = fixtures::fig5();
        let feed = build_feed(&query, &schemes, &seeds, domain);
        let plans = plans_for(&query);
        let reference = run_with(
            &query, &schemes, &plans[0], &feed, PurgeCadence::Eager, PurgeScope::Operator,
        );
        for plan in &plans[1..] {
            let outs = run_with(
                &query, &schemes, plan, &feed, PurgeCadence::Eager, PurgeScope::Operator,
            );
            prop_assert_eq!(&outs, &reference, "plan {} diverged", plan);
        }
    }

    /// Emitted aggregates are final: once a group is closed by a punctuation,
    /// no later feed element may belong to it (checked by the executor's
    /// violation counter staying at zero for consistent feeds).
    #[test]
    fn consistent_feeds_have_no_violations(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        domain in 2i64..6,
    ) {
        let (query, schemes) = fixtures::auction();
        let feed = build_feed(&query, &schemes, &seeds, domain);
        let exec = Executor::compile(
            &query, &schemes, &Plan::mjoin_all(&query), ExecConfig::default(),
        ).unwrap();
        let res = exec.run(&feed);
        prop_assert_eq!(res.metrics.violations, 0);
        prop_assert_eq!(res.outputs.len() as u64, res.metrics.outputs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Watermark (ordered-scheme) purging never loses results: random
    /// time-ordered trade/quote feeds with heartbeats at random points,
    /// compared against a purge-free run.
    #[test]
    fn watermark_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        symbols in 1i64..4,
    ) {
        // trade(ts, sym, px) ⋈ quote(ts, sym, bid) with ordered ts schemes
        // (inlined: the workload crate depends on this one).
        let query = {
            use cjq_core::schema::{Catalog, StreamSchema};
            let mut cat = Catalog::new();
            cat.add_stream(StreamSchema::new("trade", ["ts", "sym", "px"]).unwrap());
            cat.add_stream(StreamSchema::new("quote", ["ts", "sym", "bid"]).unwrap());
            Cjq::new(
                cat,
                vec![
                    cjq_core::query::JoinPredicate::between(0, 0, 1, 0).unwrap(),
                    cjq_core::query::JoinPredicate::between(0, 1, 1, 1).unwrap(),
                ],
            )
            .unwrap()
        };
        let schemes = SchemeSet::from_schemes([
            cjq_core::scheme::PunctuationScheme::ordered_on(0, 0).unwrap(),
            cjq_core::scheme::PunctuationScheme::ordered_on(1, 0).unwrap(),
        ]);
        // Build a consistent feed: a monotone per-stream watermark; tuples
        // carry ts >= watermark + 1 of their own stream.
        let mut feed = Feed::new();
        let mut watermark = [-1i64, -1];
        let mut clock = 0i64;
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = |seed: u64| {
            state = state
                .wrapping_add(seed)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 18
        };
        for &(kind, seed) in &seeds {
            let stream = (next(seed) % 2) as usize;
            if kind % 5 == 0 {
                // Heartbeat somewhere between the current watermark and clock.
                let lo = watermark[stream];
                let bound = lo + 1 + (next(seed) as i64 % (clock - lo).max(1));
                watermark[stream] = watermark[stream].max(bound);
                feed.push(Punctuation::heartbeat(
                    StreamId(stream),
                    3,
                    AttrId(0),
                    Value::Int(bound),
                ));
            } else {
                // Tuple at a time strictly above this stream's watermark.
                clock += (next(seed) % 2) as i64;
                let ts = (watermark[stream] + 1).max(clock);
                clock = clock.max(ts);
                let sym = next(seed) as i64 % symbols;
                feed.push(Tuple::of(
                    stream,
                    [Value::Int(ts), Value::Int(sym), Value::Int(1)],
                ));
            }
        }
        let baseline = run_with(
            &query, &schemes, &Plan::mjoin_all(&query), &feed,
            PurgeCadence::Never, PurgeScope::Operator,
        );
        for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 9 }] {
            let purged = run_with(
                &query, &schemes, &Plan::mjoin_all(&query), &feed,
                cadence, PurgeScope::Operator,
            );
            prop_assert_eq!(&purged, &baseline, "cadence {:?}", cadence);
        }
    }

    /// Group-by correctness under punctuation-closing: every aggregate
    /// emitted by a punctuation must equal the key's total over the complete
    /// output set, and no key is emitted twice. (Guards the propagation
    /// condition: a group may only close once no stored tuple of the
    /// punctuated stream can still extend it.)
    #[test]
    fn punctuation_closed_aggregates_are_complete(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..140),
        domain in 2i64..6,
    ) {
        use cjq_core::schema::AttrRef;
        use cjq_stream::groupby::Aggregate;
        let (query, schemes) = fixtures::auction();
        let feed = build_feed(&query, &schemes, &seeds, domain);
        let exec = Executor::compile(
            &query, &schemes, &Plan::mjoin_all(&query), ExecConfig::default(),
        )
        .unwrap()
        .with_groupby(
            &[AttrRef { stream: StreamId(1), attr: AttrId(1) }], // bid.itemid
            Aggregate::Sum(AttrRef { stream: StreamId(1), attr: AttrId(2) }), // increase
        );
        let res = exec.run(&feed);

        // Reference totals per itemid over ALL outputs (layout: 4 item cols
        // then 3 bid cols; itemid at 5, increase at 6).
        let mut totals: std::collections::HashMap<Value, i64> = std::collections::HashMap::new();
        for row in &res.outputs {
            let Value::Int(inc) = row[6] else { panic!("int increase") };
            *totals.entry(row[5]).or_insert(0) += inc;
        }
        let mut seen_keys = HashSet::new();
        for agg in &res.aggregates {
            prop_assert!(seen_keys.insert(agg[0]), "group {} emitted twice", agg[0]);
            let Value::Int(sum) = agg[1] else { panic!("int sum") };
            prop_assert_eq!(
                Some(&sum),
                totals.get(&agg[0]).or(Some(&0)),
                "group {} closed with incomplete total",
                &agg[0]
            );
        }
    }
}

/// Deterministic regression: a punctuation-heavy feed where eager purging
/// fires between every join — shapes that once triggered recipe-order bugs.
#[test]
fn dense_punctuation_interleaving_regression() {
    let (query, schemes) = fixtures::fig8();
    let mut feed = Feed::new();
    for i in 0..10i64 {
        feed.push(Tuple::of(0, [Value::Int(i), Value::Int(i)]));
        feed.push(StreamElement::Punctuation(Punctuation::with_constants(
            StreamId(1),
            2,
            &[(AttrId(0), Value::Int(i))], // S2(+,_): B = i
        )));
        feed.push(Tuple::of(2, [Value::Int(i), Value::Int(i)]));
        feed.push(StreamElement::Punctuation(Punctuation::with_constants(
            StreamId(2),
            2,
            &[(AttrId(0), Value::Int(i)), (AttrId(1), Value::Int(i))], // S3(+,+)
        )));
    }
    let baseline = run_with(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        &feed,
        PurgeCadence::Never,
        PurgeScope::Operator,
    );
    let eager = run_with(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        &feed,
        PurgeCadence::Eager,
        PurgeScope::Operator,
    );
    assert_eq!(baseline, eager);
}

//! Cross-crate integration tests: the full pipeline from query registration
//! (safety check) through plan choice to execution, exercised the way a
//! DSMS would use the library (paper Figure 2's architecture).

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::safety;
use punctuated_cjq::planner::choose::{choose_plan, Objective};
use punctuated_cjq::planner::cost::Stats;
use punctuated_cjq::planner::enumerate::PlanSpace;
use punctuated_cjq::planner::scheme_select;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig, BID};
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::network::{self, NetworkConfig};
use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};

/// The register's workflow: check safety, enumerate, cost, pick, run.
#[test]
fn register_check_choose_execute() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();

    // 1. Safety check (Theorem 2).
    let report = safety::check_query(&query, &schemes);
    assert!(report.safe);

    // 2. Safe-plan choice (§5.2).
    let chosen = choose_plan(
        &query,
        &schemes,
        Stats::uniform(3, 1.0, 10.0, 0.1, 0.3),
        Objective::MinDataMemory,
        100,
    )
    .expect("safe query has a plan");
    assert!(check_plan(&query, &schemes, &chosen.plan).unwrap().safe);

    // 3. Execute the chosen plan on a punctuated feed.
    let feed = keyed::generate(
        &query,
        &schemes,
        &KeyedConfig {
            rounds: 200,
            lag: 3,
            ..Default::default()
        },
    );
    let exec = Executor::compile(&query, &schemes, &chosen.plan, ExecConfig::default()).unwrap();
    let result = exec.run(&feed);
    assert_eq!(result.metrics.outputs, 200);
    assert_eq!(result.metrics.violations, 0);
    assert!(result.metrics.peak_join_state <= 15, "bounded as promised");
}

/// An unsafe query must be rejected before execution (the register's whole
/// point: fail at compile time, not by exhausting memory).
#[test]
fn register_rejects_unsafe_queries() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig3();
    assert!(!safety::is_query_safe(&query, &schemes));
    assert!(choose_plan(
        &query,
        &schemes,
        Stats::uniform(3, 1.0, 10.0, 0.1, 0.3),
        Objective::MinDataMemory,
        100
    )
    .is_none());
    let mut space = PlanSpace::new(&query, &schemes);
    assert_eq!(space.count_safe_plans(), 0);
    // The report names a witness the register can show the user.
    let report = safety::check_query(&query, &schemes);
    let (from, _to) = report.witness().unwrap();
    assert!(report
        .per_stream
        .iter()
        .any(|p| p.stream == from && !p.purgeable));
}

/// The full auction pipeline of Example 1: join + group-by + punctuations,
/// with aggregates emitted exactly when auctions close.
#[test]
fn auction_example_full_pipeline() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default())
        .unwrap()
        .with_groupby(
            &[AttrRef {
                stream: BID,
                attr: AttrId(1),
            }],
            Aggregate::Sum(AttrRef {
                stream: BID,
                attr: AttrId(2),
            }),
        );
    let cfg = AuctionConfig {
        n_items: 120,
        bids_per_item: 6,
        ..AuctionConfig::default()
    };
    let feed = auction::generate(&cfg);
    let result = exec.run(&feed);
    assert_eq!(result.metrics.outputs, 720);
    assert_eq!(
        result.aggregates.len(),
        120,
        "every auction closed by punctuation"
    );
    // Aggregate = sum of 6 increases in 1..100 each: plausible range check.
    for row in &result.aggregates {
        let Value::Int(total) = row[1] else {
            panic!("sum is an int")
        };
        assert!((6..600).contains(&total));
    }
    assert_eq!(result.metrics.last().unwrap().join_state, 0);
    assert_eq!(result.metrics.last().unwrap().groups, 0);
}

/// Scheme-set minimization composes with execution: the minimal subset keeps
/// the query safe and the run bounded (at possibly later purge times).
#[test]
fn minimal_schemes_still_bound_execution() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig8();
    let minimal = scheme_select::minimum_safe_subset(&query, &schemes).unwrap();
    assert!(minimal.len() <= schemes.len());
    assert!(safety::is_query_safe(&query, &minimal));

    let feed = keyed::generate(
        &query,
        &minimal,
        &KeyedConfig {
            rounds: 120,
            lag: 2,
            ..Default::default()
        },
    );
    let exec = Executor::compile(
        &query,
        &minimal,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
    )
    .unwrap();
    let result = exec.run(&feed);
    assert_eq!(result.metrics.outputs, 120);
    assert_eq!(result.metrics.last().unwrap().join_state, 0);
}

/// The network scenario end-to-end (multi-attribute schemes + lifespans).
#[test]
fn network_scenario_with_lifespans() {
    let (query, schemes) = network::network_query();
    assert!(safety::is_query_safe(&query, &schemes));
    let feed = network::generate(&NetworkConfig {
        n_flows: 40,
        pkts_per_flow: 6,
        n_sources: 3,
        seq_space: 24,
        ack_prob: 1.0,
        ..NetworkConfig::default()
    });
    let cfg = ExecConfig {
        punct_lifespan: Some(100),
        ..ExecConfig::default()
    };
    let exec = Executor::compile(&query, &schemes, &Plan::mjoin_all(&query), cfg).unwrap();
    let result = exec.run(&feed);
    assert_eq!(result.metrics.violations, 0);
    assert_eq!(result.metrics.outputs, 240);
    assert!(result.metrics.peak_punct_entries < 200);
}

/// Random safe queries execute bounded under round-keyed feeds, across
/// topologies — a randomized end-to-end sweep.
#[test]
fn random_safe_queries_run_bounded() {
    for (i, topology) in [Topology::Path, Topology::Star, Topology::Cycle]
        .into_iter()
        .enumerate()
    {
        let cfg = RandomQueryConfig {
            n_streams: 4,
            topology,
            seed: 100 + i as u64,
            ..RandomQueryConfig::default()
        };
        let (query, schemes) = random_query::generate_safe(&cfg);
        assert!(safety::is_query_safe(&query, &schemes));
        let feed = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig {
                rounds: 80,
                lag: 2,
                ..Default::default()
            },
        );
        let exec = Executor::compile(
            &query,
            &schemes,
            &Plan::mjoin_all(&query),
            ExecConfig::default(),
        )
        .unwrap();
        let result = exec.run(&feed);
        assert_eq!(result.metrics.violations, 0, "{topology:?}");
        assert_eq!(result.metrics.outputs, 80, "{topology:?}");
        assert!(result.metrics.peak_join_state <= 4 * 4, "{topology:?}");
    }
}

/// Scale test: a 6-way cycle query on a bushy mixed plan (an MJoin over two
/// binary joins and two leaves), 500 rounds, weighted arrival rates.
#[test]
fn six_way_mixed_plan_scales_bounded() {
    let cfg = RandomQueryConfig {
        n_streams: 6,
        topology: Topology::Cycle,
        seed: 6,
        ..RandomQueryConfig::default()
    };
    let (query, schemes) = random_query::generate_safe(&cfg);
    assert!(safety::is_query_safe(&query, &schemes));

    // Bushy mixed plan: ((S1 ⋈ S2) ⋈ (S3 ⋈ S4) ⋈ S5 ⋈ S6).
    let plan = Plan::join(vec![
        Plan::join(vec![Plan::leaf(0), Plan::leaf(1)]),
        Plan::join(vec![Plan::leaf(2), Plan::leaf(3)]),
        Plan::leaf(4),
        Plan::leaf(5),
    ]);
    plan.validate(&query).unwrap();
    let verdict = check_plan(&query, &schemes, &plan).unwrap();
    assert!(
        verdict.safe,
        "full scheme coverage makes every operator purgeable"
    );

    let feed = keyed::generate(
        &query,
        &schemes,
        &KeyedConfig {
            rounds: 500,
            lag: 3,
            ..Default::default()
        },
    );
    let cfg_exec = ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    };
    let exec = Executor::compile(&query, &schemes, &plan, cfg_exec).unwrap();
    let res = exec.run(&feed);
    assert_eq!(res.metrics.violations, 0);
    assert_eq!(res.metrics.outputs, 500);
    assert_eq!(res.metrics.last().unwrap().join_state, 0);
    assert!(
        res.metrics.peak_join_state <= 64,
        "peak {} must not scale with the 500 rounds",
        res.metrics.peak_join_state
    );
}

/// Rate-skewed arrivals via the weighted interleaver: a hot stream floods
/// the join but punctuations still bound the state.
#[test]
fn weighted_arrivals_stay_bounded() {
    use punctuated_cjq::stream::source::Feed;
    use punctuated_cjq::stream::tuple::Tuple;
    let (query, schemes) = punctuated_cjq::core::fixtures::auction();
    // Scripts: one item per key; five bids per key; punctuations trail.
    let items: Vec<_> = (0..100i64)
        .flat_map(|i| {
            vec![
                punctuated_cjq::stream::element::StreamElement::from(Tuple::of(
                    0,
                    vec![
                        Value::Int(1),
                        Value::Int(i),
                        Value::from("x"),
                        Value::Int(1),
                    ],
                )),
                punctuated_cjq::workload::auction::item_close(i),
            ]
        })
        .collect();
    let bids: Vec<_> = (0..100i64)
        .flat_map(|i| {
            let mut v: Vec<punctuated_cjq::stream::element::StreamElement> = (0..5)
                .map(|b| Tuple::of(1, vec![Value::Int(b), Value::Int(i), Value::Int(1)]).into())
                .collect();
            v.push(punctuated_cjq::workload::auction::bid_close(i));
            v
        })
        .collect();
    let feed = Feed::weighted(vec![items, bids], &[1, 3]);
    let exec = Executor::compile(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
    )
    .unwrap();
    let res = exec.run(&feed);
    assert_eq!(res.metrics.violations, 0);
    assert_eq!(res.metrics.outputs, 500);
    assert!(
        res.metrics.peak_join_state < 250,
        "peak {}",
        res.metrics.peak_join_state
    );
}

/// Theorem 2's constructive direction at runtime: whenever the query is
/// safe, the flat MJoin plan executes bounded; and plan safety checked at
/// compile time predicts runtime boundedness for binary trees too.
#[test]
fn plan_safety_predicts_runtime_boundedness() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let feed = keyed::generate(
        &query,
        &schemes,
        &KeyedConfig {
            rounds: 150,
            lag: 2,
            ..Default::default()
        },
    );
    let space = PlanSpace::new(&query, &schemes);
    let mut checked = 0;
    for plan in [
        Plan::mjoin_all(&query),
        Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]),
        Plan::left_deep(&[StreamId(1), StreamId(2), StreamId(0)]),
    ] {
        let safe = check_plan(&query, &schemes, &plan).unwrap().safe;
        let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default()).unwrap();
        let m = exec.run(&feed).metrics;
        if safe {
            assert!(m.peak_join_state <= 15, "{plan}: safe => bounded");
        } else {
            assert!(
                m.last().unwrap().join_state >= 150,
                "{plan}: unsafe => grows with the feed"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 3);
    let _ = space;
}

//! Run-length equivalence. There is one tuple data path — a run of same-stream
//! rows through `process_batch` — and how a feed is cut into runs must be
//! unobservable. The reference is a loop of one-element [`Executor::push`]
//! calls (runs of one: no probe-key cache hit, no deferred insert, no run
//! capping); [`Executor::push_batch`] over gathered chunks of 1/7/256 elements
//! and the whole-feed driver [`Executor::run`] (and the sharded executor's
//! workers) must produce:
//!
//! * the same output **sequence**, row for row (and, per sink contract, the
//!   same rows reach every [`ResultSink`]);
//! * the same logical counters (tuples in, punctuations, violations,
//!   outputs, aggregates);
//! * the same purge behavior — cycle count, purge totals, and the *entire
//!   state-size sample series*, point for point. Runs are capped at purge /
//!   sample / window boundaries, which is why the driver's chunk size is a
//!   constant and not a knob.

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::schema::AttrId;
use punctuated_cjq::stream::certify;
use punctuated_cjq::stream::error::ExecError;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeScope;
use punctuated_cjq::stream::sink::{CallbackSink, CollectSink, CountSink};
use punctuated_cjq::stream::source::{ElementBatch, Feed};
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::graph::{self, GraphConfig};
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::network::{self, NetworkConfig};
use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};
use punctuated_cjq::workload::sensor::{self, SensorConfig};
use punctuated_cjq::workload::skewed::{self, SkewedConfig};
use punctuated_cjq::workload::trades::{self, TradesConfig};

fn sorted_outputs(outputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut sorted = outputs.to_vec();
    sorted.sort_unstable();
    sorted
}

/// `CJQ_CHAOS=<seed>` re-runs the whole suite on fault-injected feeds:
/// duplicated/delayed punctuations plus truncated tuples, admitted under
/// the default `Quarantine` policy. Every side of every equivalence sees
/// the same faulted feed, so the assertions are unchanged — CI uses this
/// to prove output equivalence end to end under faults.
fn chaos_feed(feed: &Feed) -> Feed {
    use punctuated_cjq::stream::fault::{Fault, FaultPlan};
    match std::env::var("CJQ_CHAOS") {
        Ok(seed) => FaultPlan::new(seed.parse().unwrap_or(0xC4A0_5EED))
            .with(Fault::DuplicatePunctuations { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
            .with(Fault::TruncateTuples { prob: 0.05 })
            .apply(feed),
        Err(_) => feed.clone(),
    }
}

/// Runs `feed` as a loop of one-element pushes (the reference), as gathered
/// batches at several chunk sizes, and through `run`, asserting full
/// observational equivalence. Returns the reference result.
fn assert_batched_equivalent(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
) -> RunResult {
    assert_equivalent_armed(query, schemes, plan, cfg, &chaos_feed(feed), &|exec| exec)
}

/// [`assert_batched_equivalent`] on `feed` as given (no fault injection),
/// with every side passed through `arm` after compiling (a group-by stage,
/// bound certificates).
fn assert_equivalent_armed(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    arm: &dyn Fn(Executor) -> Executor,
) -> RunResult {
    // Exercise the runtime certificate verifier alongside the equivalence
    // checks (recipes vs. static certificates, fast verdicts vs. oracle).
    let cfg = ExecConfig {
        verify_certificates: true,
        ..cfg
    };
    let build = || arm(Executor::compile(query, schemes, plan, cfg).expect("compile"));
    let mut exec = build();
    for e in feed {
        exec.try_push(e).unwrap();
    }
    let reference = exec.finish();
    assert_eq!(reference.metrics.batches_processed, 0);

    let mut sides = Vec::new();
    for chunk in [1usize, 7, 256] {
        let mut exec = build();
        let mut sink = CollectSink::new();
        let mut batch = ElementBatch::new();
        for elements in feed.elements().chunks(chunk) {
            batch.gather(elements);
            exec.try_push_batch(&batch, &mut sink).unwrap();
        }
        let mut batched = exec.finish();
        assert!(batched.outputs.is_empty(), "the sink owns the results");
        batched.outputs = sink.rows;
        sides.push((format!("push_batch, chunks of {chunk}"), batched));
    }
    sides.push(("run".to_string(), build().run(feed)));

    for (tag, batched) in &sides {
        assert_eq!(batched.outputs, reference.outputs, "{tag}: output sequence");
        assert_eq!(
            sorted_outputs(&batched.aggregates),
            sorted_outputs(&reference.aggregates),
            "{tag}: aggregates"
        );
        let (b, l) = (&batched.metrics, &reference.metrics);
        assert_eq!(b.tuples_in, l.tuples_in, "{tag}: tuples_in");
        assert_eq!(b.puncts_in, l.puncts_in, "{tag}: puncts_in");
        assert_eq!(b.violations, l.violations, "{tag}: violations");
        assert_eq!(
            b.violations_by_stream(),
            l.violations_by_stream(),
            "{tag}: violations_by_stream"
        );
        assert_eq!(b.quarantined, l.quarantined, "{tag}: quarantined");
        assert_eq!(b.outputs, l.outputs, "{tag}: outputs");
        assert_eq!(b.aggregates_out, l.aggregates_out, "{tag}: aggregates_out");
        assert_eq!(
            b.intermediate_rows, l.intermediate_rows,
            "{tag}: intermediates"
        );
        assert_eq!(b.purged, l.purged, "{tag}: purged");
        assert_eq!(b.mirror_purged, l.mirror_purged, "{tag}: mirror_purged");
        assert_eq!(b.purge_cycles, l.purge_cycles, "{tag}: purge_cycles");
        assert_eq!(b.rows_demoted, l.rows_demoted, "{tag}: rows_demoted");
        assert_eq!(b.rows_faulted, l.rows_faulted, "{tag}: rows_faulted");
        assert_eq!(b.series, l.series, "{tag}: state-size sample series");
        assert_eq!(b.peak_join_state, l.peak_join_state, "{tag}: peak state");
        assert_eq!(b.peak_mirror, l.peak_mirror, "{tag}: peak mirror");
        assert_eq!(b.peak_port_rows, l.peak_port_rows, "{tag}: per-port peaks");
        assert!(b.batches_processed > 0, "{tag}: batches were pushed");
        // Per-operator stats agree too (inputs, outputs, purge totals).
        let strip = |r: &RunResult| {
            r.operators
                .iter()
                .map(|o| (o.span.clone(), o.port_live.clone(), o.stats))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip(batched),
            strip(&reference),
            "{tag}: operator snapshots"
        );
    }
    reference
}

#[test]
fn auction_equivalence_across_cadences() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 80,
        bids_per_item: 3,
        concurrent: 8,
        ..AuctionConfig::default()
    });
    for cadence in [
        PurgeCadence::Eager,
        PurgeCadence::Lazy { batch: 16 },
        PurgeCadence::Never,
    ] {
        let cfg = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        assert_batched_equivalent(&query, &schemes, &plan, cfg, &feed);
    }
}

#[test]
fn sensor_network_and_trades_equivalence() {
    let (query, schemes) = sensor::sensor_query();
    let (feed, _) = sensor::generate(&SensorConfig {
        n_sensors: 8,
        epochs: 12,
        ..SensorConfig::default()
    });
    assert_batched_equivalent(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
    );

    let (query, schemes) = network::network_query();
    let feed = network::generate(&NetworkConfig::default());
    assert_batched_equivalent(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
    );

    let (query, schemes) = trades::trades_query();
    let (feed, _) = trades::generate(&TradesConfig::default());
    assert_batched_equivalent(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
    );
}

#[test]
fn window_semantics_equivalence() {
    // Window eviction is per-element: runs are capped at one row, and every
    // cut of the feed reproduces the same (lossy) results and eviction totals.
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 60,
        bids_per_item: 2,
        concurrent: 20,
        ..AuctionConfig::default()
    });
    let cfg = ExecConfig {
        window: Some(30),
        cadence: PurgeCadence::Never,
        ..ExecConfig::default()
    };
    assert_batched_equivalent(&query, &schemes, &plan, cfg, &feed);
}

#[test]
fn groupby_aggregates_equivalence() {
    // Example 1's aggregation over the auction join, under every cut.
    let (query, schemes) = punctuated_cjq::core::fixtures::auction();
    let plan = Plan::mjoin_all(&query);
    let group = AttrRef {
        stream: StreamId(1),
        attr: AttrId(1),
    };
    let agg = Aggregate::Sum(AttrRef {
        stream: StreamId(1),
        attr: AttrId(2),
    });
    let mut feed = Feed::new();
    for i in 0..40i64 {
        feed.push(Tuple::of(
            0,
            vec![
                Value::Int(7),
                Value::Int(i),
                Value::str("x"),
                Value::Int(100),
            ],
        ));
        feed.push(Tuple::of(
            1,
            vec![Value::Int(3), Value::Int(i), Value::Int(5)],
        ));
        feed.push(Tuple::of(
            1,
            vec![Value::Int(4), Value::Int(i), Value::Int(9)],
        ));
        feed.push(Punctuation::with_constants(
            StreamId(0),
            4,
            &[(AttrId(1), Value::Int(i))],
        ));
        feed.push(Punctuation::with_constants(
            StreamId(1),
            3,
            &[(AttrId(1), Value::Int(i))],
        ));
    }
    let reference = assert_equivalent_armed(
        &query,
        &schemes,
        &plan,
        ExecConfig::default(),
        &feed,
        &|exec| exec.with_groupby(&[group], agg),
    );
    assert_eq!(reference.aggregates.len(), 40);
}

#[test]
fn sinks_see_exactly_the_result_rows() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 50,
        bids_per_item: 3,
        concurrent: 6,
        ..AuctionConfig::default()
    });
    let mut pushed =
        Executor::compile(&query, &schemes, &plan, ExecConfig::default()).expect("compile");
    for e in &feed {
        pushed.try_push(e).unwrap();
    }
    let expected = pushed.finish().outputs;

    let mut collect = CollectSink::new();
    let res = Executor::compile(&query, &schemes, &plan, ExecConfig::default())
        .expect("compile")
        .try_run_with_sink(&feed, &mut collect)
        .unwrap();
    assert_eq!(collect.rows, expected);
    assert!(res.outputs.is_empty(), "the sink owns the results");
    assert_eq!(res.metrics.outputs as usize, collect.rows.len());

    let mut count = CountSink::new();
    Executor::compile(&query, &schemes, &plan, ExecConfig::default())
        .expect("compile")
        .try_run_with_sink(&feed, &mut count)
        .unwrap();
    assert_eq!(count.count as usize, expected.len());

    let mut seen = Vec::new();
    let mut callback = CallbackSink::new(|row: &[Value]| seen.push(row.to_vec()));
    Executor::compile(&query, &schemes, &plan, ExecConfig::default())
        .expect("compile")
        .try_run_with_sink(&feed, &mut callback)
        .unwrap();
    assert_eq!(seen, expected);
}

#[test]
fn sharded_batched_workers_match_sequential() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 80,
        bids_per_item: 3,
        concurrent: 8,
        ..AuctionConfig::default()
    });
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }] {
        let cfg = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        let seq = Executor::compile(&query, &schemes, &plan, cfg)
            .expect("compile")
            .run(&feed);
        let expected = sorted_outputs(&seq.outputs);
        for p in [1usize, 4] {
            let sharded = Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, p)
                .expect("compile sharded")
                .run(&feed);
            assert_eq!(
                sorted_outputs(&sharded.outputs),
                expected,
                "P={p}: output multiset"
            );
            assert_eq!(sharded.metrics.outputs, seq.metrics.outputs, "P={p}");
            assert_eq!(sharded.metrics.tuples_in, seq.metrics.tuples_in, "P={p}");
            assert_eq!(sharded.metrics.puncts_in, seq.metrics.puncts_in, "P={p}");
            assert_eq!(sharded.metrics.violations, seq.metrics.violations, "P={p}");
            assert_eq!(sharded.logical_join_state, 0, "P={p}: closed feed purges");
        }
        // record_outputs=false: counts must survive without materialized rows.
        let quiet = ExecConfig {
            record_outputs: false,
            ..cfg
        };
        for p in [1usize, 4] {
            let sharded = Sharded::<Executor>::compile(&query, &schemes, &plan, quiet, p)
                .expect("compile sharded")
                .run(&feed);
            assert!(sharded.outputs.is_empty());
            assert_eq!(sharded.metrics.outputs, seq.metrics.outputs, "P={p}: count");
        }
    }
}

#[test]
fn consecutive_same_key_runs_dedupe_probes() {
    // 1 item, then a run of 64 bids on it: the bid run probes the item index
    // with one distinct key, so 63 lookups are saved — and every bid still
    // joins.
    let (query, schemes) = punctuated_cjq::core::fixtures::auction();
    let plan = Plan::mjoin_all(&query);
    let mut feed = Feed::new();
    feed.push(Tuple::of(
        0,
        vec![
            Value::Int(7),
            Value::Int(1),
            Value::str("x"),
            Value::Int(100),
        ],
    ));
    for b in 0..64i64 {
        feed.push(Tuple::of(
            1,
            vec![Value::Int(b), Value::Int(1), Value::Int(1)],
        ));
    }
    let cfg = ExecConfig {
        // Keep the run unsplit: no purge or sample boundary inside it.
        cadence: PurgeCadence::Never,
        sample_every: 1024,
        ..ExecConfig::default()
    };
    let res = Executor::compile(&query, &schemes, &plan, cfg)
        .expect("compile")
        .run(&feed);
    assert_eq!(res.metrics.outputs, 64);
    assert_eq!(res.metrics.probe_keys_deduped, 63);
    // Runs of one have nothing to dedupe — and still agree on everything
    // observable (the helper's reference side).
    let reference = assert_batched_equivalent(&query, &schemes, &plan, cfg, &feed);
    if std::env::var("CJQ_CHAOS").is_err() {
        assert_eq!(reference.metrics.probe_keys_deduped, 0);
    }
}

/// Tree plans: an arrival's composite rows climb the operator cascade as one
/// run per level, so results come out in input-row order at every level —
/// the same sequence however the feed is cut. (A per-tuple frontier used to
/// pop them in reverse; only the multiset agreed.)
#[test]
fn tree_plans_emit_one_sequence() {
    // Triangle on a left-deep tree: every closing edge emits several rows.
    let (query, schemes) = graph::triangle_query();
    let feed = graph::generate(&query, &schemes, &small_graph());
    let order: Vec<_> = query.stream_ids().collect();
    let cfg = ExecConfig {
        // Query-level purging: plan-independent, so the tree plan's composite
        // state is purgeable too.
        scope: PurgeScope::Query,
        ..ExecConfig::default()
    };
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }] {
        let cfg = ExecConfig { cadence, ..cfg };
        let res = assert_batched_equivalent(&query, &schemes, &Plan::left_deep(&order), cfg, &feed);
        assert!(
            res.metrics.intermediate_rows > 0,
            "the tree materializes 2-paths"
        );
        assert!(res.metrics.outputs > 0, "triangles must actually close");
    }

    // A bushy mixed plan: ((S1 ⋈ S2) ⋈ (S3 ⋈ S4) ⋈ S5 ⋈ S6) over a 6-cycle.
    let (query, schemes) = random_query::generate_safe(&RandomQueryConfig {
        n_streams: 6,
        topology: Topology::Cycle,
        seed: 6,
        ..RandomQueryConfig::default()
    });
    let plan = Plan::join(vec![
        Plan::join(vec![Plan::leaf(0), Plan::leaf(1)]),
        Plan::join(vec![Plan::leaf(2), Plan::leaf(3)]),
        Plan::leaf(4),
        Plan::leaf(5),
    ]);
    let feed = keyed::generate(
        &query,
        &schemes,
        &KeyedConfig {
            rounds: 60,
            lag: 3,
            ..KeyedConfig::default()
        },
    );
    let res = assert_batched_equivalent(&query, &schemes, &plan, ExecConfig::default(), &feed);
    assert!(res.metrics.outputs > 0);
}

fn small_graph() -> GraphConfig {
    GraphConfig {
        edges: 600,
        vertices: 60,
        window: 16,
        punct_lag: 40,
        ..GraphConfig::default()
    }
}

/// Cyclic graph workloads, flat MJoin against a left-deep tree under
/// query-level purging (plan-independent, so the tree's composite state is
/// purgeable too), sequentially and on four shards: the same result multiset
/// and the same purge totals — both plans purge every base row, the tree
/// additionally every 2-path it stored and the flat plan never builds.
#[test]
fn flat_and_tree_plans_agree_on_cyclic_graph_workloads() {
    for (query, schemes) in [graph::triangle_query(), graph::four_cycle_query()] {
        let order: Vec<_> = query.stream_ids().collect();
        let (flat_plan, tree_plan) = (Plan::mjoin_all(&query), Plan::left_deep(&order));
        for graph_cfg in [small_graph(), small_graph().uniform()] {
            let feed = chaos_feed(&graph::generate(&query, &schemes, &graph_cfg));
            for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
                let cfg = ExecConfig {
                    cadence,
                    scope: PurgeScope::Query,
                    verify_certificates: true,
                    ..ExecConfig::default()
                };
                let run = |plan: &Plan| {
                    Executor::compile(&query, &schemes, plan, cfg)
                        .expect("compile")
                        .run(&feed)
                };
                let (flat, tree) = (run(&flat_plan), run(&tree_plan));
                assert!(flat.metrics.outputs > 0, "cycles must actually close");
                let expected = sorted_outputs(&flat.outputs);
                assert_eq!(sorted_outputs(&tree.outputs), expected, "result multiset");
                assert_eq!(tree.metrics.mirror_purged, flat.metrics.mirror_purged);
                assert_flat_and_tree_purge_totals(&flat.metrics, &tree.metrics);

                let run_sharded = |plan: &Plan| {
                    Sharded::<Executor>::compile(&query, &schemes, plan, cfg, 4)
                        .expect("compile sharded")
                        .run(&feed)
                };
                let (flat, tree) = (run_sharded(&flat_plan), run_sharded(&tree_plan));
                assert_eq!(sorted_outputs(&flat.outputs), expected, "P=4 flat multiset");
                assert_eq!(sorted_outputs(&tree.outputs), expected, "P=4 tree multiset");
                assert_flat_and_tree_purge_totals(&flat.metrics, &tree.metrics);
            }
        }
    }
}

fn assert_flat_and_tree_purge_totals(flat: &Metrics, tree: &Metrics) {
    assert_eq!(
        flat.intermediate_rows, 0,
        "the flat plan stores no intermediates"
    );
    assert!(tree.intermediate_rows > 0, "the tree stores 2-paths");
    assert_eq!(
        tree.purged - tree.intermediate_rows,
        flat.purged,
        "base rows purged"
    );
}

/// Every per-element monitor caps runs at one row, so tiering, the budget
/// error and bound certificates see the same state at the same clock
/// positions under every cut.
#[test]
fn tiering_budgets_and_certificates_equivalence() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let feed = skewed::generate(
        &query,
        &schemes,
        &SkewedConfig {
            events: 600,
            hot_keys: 8,
            cold_keys: 120,
            cold_window: 32,
            punct_lag: 80,
            ..SkewedConfig::default()
        },
    );
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }] {
        let tiered = ExecConfig {
            cadence,
            state_budget: Some(StateBudget::hard(48)),
            tiering: Some(TierConfig::default()),
            ..ExecConfig::default()
        };
        let res = assert_batched_equivalent(&query, &schemes, &plan, tiered, &feed);
        assert!(res.metrics.rows_demoted > 0, "the cap must actually demote");
        // Without the cold tier the same cap is a hard error, raised at the
        // same clock with the same live count under every cut.
        let hard = ExecConfig {
            tiering: None,
            ..tiered
        };
        let build = || Executor::compile(&query, &schemes, &plan, hard).expect("compile");
        let overrun = |e: ExecError| match e {
            ExecError::StateBudgetExceeded { live, clock, .. } => (live, clock),
            other => panic!("expected the budget error, got: {other}"),
        };
        let mut exec = build();
        let mut pushes = feed.elements().iter();
        let reference = pushes
            .find_map(|e| exec.try_push(e).err())
            .map(overrun)
            .expect("the cap must actually trip");
        for chunk in [1usize, 7, 256] {
            let mut exec = build();
            let mut sink = CollectSink::new();
            let mut batch = ElementBatch::new();
            let mut chunks = feed.elements().chunks(chunk);
            let tripped = chunks.find_map(|elements| {
                batch.gather(elements);
                exec.try_push_batch(&batch, &mut sink).err()
            });
            assert_eq!(
                tripped.map(overrun),
                Some(reference),
                "push_batch, chunks of {chunk}: (live, clock) of the budget error"
            );
        }
    }

    // Bound certificates inferred from the feed itself, enforced per element
    // (a violation is a hard error, i.e. a panic on every side).
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 60,
        bids_per_item: 3,
        concurrent: 8,
        ..AuctionConfig::default()
    });
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }] {
        let cfg = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        let contracts = certify::infer_contracts(&query, &schemes, &feed);
        let bounds = certify::port_bound_certificate(
            &query, &schemes, &contracts, &plan, cfg.scope, cadence,
        );
        assert_equivalent_armed(&query, &schemes, &plan, cfg, &feed, &|mut exec| {
            exec.set_port_bounds(bounds.clone());
            exec
        });
    }
}

#[test]
fn random_safe_queries_batched_equivalence() {
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    proptest!(ProptestConfig::with_cases(12), |(
        seed in 0u64..1000,
        n in 2usize..6,
        topo_ix in 0usize..4,
        lazy in proptest::arbitrary::any::<bool>(),
    )| {
        let qcfg = RandomQueryConfig {
            n_streams: n,
            topology: topologies[topo_ix],
            seed,
            ..RandomQueryConfig::default()
        };
        let (query, schemes) = random_query::generate_safe(&qcfg);
        let plan = Plan::mjoin_all(&query);
        let cadence = if lazy { PurgeCadence::Lazy { batch: 7 } } else { PurgeCadence::Eager };
        let cfg = ExecConfig { cadence, ..ExecConfig::default() };
        let closed = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig { rounds: 20, lag: 2, ..KeyedConfig::default() },
        );
        let legacy = assert_batched_equivalent(&query, &schemes, &plan, cfg, &closed);
        prop_assert_eq!(legacy.metrics.last().unwrap().join_state, 0);
    });
}

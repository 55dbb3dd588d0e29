//! Segment equivalence, as named cases of the differential harness
//! (`cjq_chaos::differential`). There is one tuple data path — a segment,
//! the tuple runs between two punctuations, through `process_segment` — and
//! how a feed is cut into segments must be unobservable: [`Case::check`]
//! holds a loop of one-element `try_push` calls, `try_push_batch` over
//! chunks of 1 and 7 elements and `run` to the same output sequence,
//! counters, purge totals, sample series and operator snapshots (and, where
//! `Strict` admission refuses an element, to the same refusal and what it
//! leaves), and judges the push loop against the reference oracle. What the
//! harness does not model — group-by, sinks, registries of different
//! queries, the hard budget error, window eviction against an oracle — is
//! checked here.

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::error::ExecError;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::guard::AdmissionPolicy;
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeScope;
use punctuated_cjq::stream::registry::{QueryRegistry, RegistryResult};
use punctuated_cjq::stream::sink::{CallbackSink, CollectSink, CountSink};
use punctuated_cjq::stream::source::{ElementBatch, Feed};
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::graph::{self, GraphConfig};
use punctuated_cjq::workload::random_query::Topology;
use punctuated_cjq::workload::{auction, network, sensor, trades};

use cjq_chaos::differential::{assert_drivers_agree, sorted, Case};
use cjq_chaos::{
    auction_feed, chaos_feed, keyed_feed, random_spec, skewed_feed, tenants, TOPOLOGIES,
};

const CADENCES: [PurgeCadence; 2] = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }];

fn auction_case(n_items: usize) -> Case {
    let feed = chaos_feed(&auction_feed(n_items, 3, 8));
    Case::new("auction", auction::auction_query(), feed)
}

/// `case` under `edit`, checked: the executor's push-loop run.
fn solo(case: &Case, edit: impl FnOnce(&mut Case)) -> RunResult {
    case.clone().with(edit).check().solo.expect("admitted")
}

#[test]
fn auction_equivalence_across_cadences() {
    for cadence in [CADENCES[0], CADENCES[1], PurgeCadence::Never] {
        solo(&auction_case(80), |c| c.cfg.cadence = cadence);
    }
}

#[test]
fn sensor_network_and_trades_equivalence() {
    let mut sensors = sensor::SensorConfig::default();
    (sensors.n_sensors, sensors.epochs) = (8, 12);
    let sensor_feed = chaos_feed(&sensor::generate(&sensors).0);
    let network_feed = chaos_feed(&network::generate(&Default::default()));
    let trades_feed = chaos_feed(&trades::generate(&Default::default()).0);
    let _ = Case::new("sensor", sensor::sensor_query(), sensor_feed).check();
    let _ = Case::new("network", network::network_query(), network_feed).check();
    let _ = Case::new("trades", trades::trades_query(), trades_feed).check();
}

/// Window eviction is per-element: runs are capped at one row, and every cut
/// of the feed reproduces the same (lossy) results and eviction totals. The
/// oracle models no window: the drivers are held to each other only.
#[test]
fn window_semantics_equivalence() {
    let feed = chaos_feed(&auction_feed(60, 2, 20));
    let case = Case::new("window", auction::auction_query(), feed);
    let case = case.with(|c| (c.cfg.window, c.cfg.cadence) = (Some(30), PurgeCadence::Never));
    assert!(case.check().oracle.is_none(), "the oracle models no window");
}

#[test]
fn groupby_aggregates_equivalence() {
    // Example 1's aggregation over the auction join, under every cut: item
    // `i`, two bids on it, and both sides closed on `i`.
    let (query, schemes) = fixtures::auction();
    let mut feed = Feed::new();
    let int = Value::Int;
    for i in 0..40 {
        let item = vec![int(7), int(i), Value::str("x"), int(100)];
        feed.push(Tuple::of(0, item));
        for (bidder, amount) in [(3, 5), (4, 9)] {
            feed.push(Tuple::of(1, vec![int(bidder), int(i), int(amount)]));
        }
        for (s, arity) in [(StreamId(0), 4), (StreamId(1), 3)] {
            let closed = [(AttrId(1), int(i))];
            feed.push(Punctuation::with_constants(s, arity, &closed));
        }
    }
    let cfg = ExecConfig {
        verify_certificates: true,
        ..ExecConfig::default()
    };
    let build = || {
        let exec = Executor::compile(&query, &schemes, &Plan::mjoin_all(&query), cfg).unwrap();
        exec.with_groupby(&[AttrRef::new(1, 1)], Aggregate::Sum(AttrRef::new(1, 2)))
    };
    let reference = assert_drivers_agree("group-by", build, &feed, None);
    assert_eq!(reference.aggregates.len(), 40);
}

#[test]
fn sinks_see_exactly_the_result_rows() {
    let case = auction_case(50);
    let (q, r, cfg) = (&case.query, &case.schemes, ExecConfig::default());
    let compile = || Executor::compile(q, r, &case.plan, cfg).unwrap();
    let (feed, expected) = (&case.feed, compile().run(&case.feed).outputs);

    let mut collect = CollectSink::new();
    let res = compile().try_run_with_sink(feed, &mut collect).unwrap();
    assert_eq!(collect.rows, expected);
    assert!(res.outputs.is_empty(), "the sink owns the results");
    assert_eq!(res.metrics.outputs as usize, collect.rows.len());

    let mut count = CountSink::new();
    compile().try_run_with_sink(feed, &mut count).unwrap();
    assert_eq!(count.count as usize, expected.len());

    let mut seen = Vec::new();
    let mut callback = CallbackSink::new(|row: &[Value]| seen.push(row.to_vec()));
    compile().try_run_with_sink(feed, &mut callback).unwrap();
    assert_eq!(seen, expected);
    // One `accept` per segment: the rows a sink sees do not depend on where
    // the batches were cut.
    for chunk in [1usize, 7, 256] {
        let (mut exec, mut seen, mut batch) = (compile(), Vec::new(), ElementBatch::new());
        let mut callback = CallbackSink::new(|row: &[Value]| seen.push(row.to_vec()));
        for elements in feed.elements().chunks(chunk) {
            batch.gather(elements);
            exec.try_push_batch(&batch, &mut callback).unwrap();
        }
        assert_eq!(seen, expected, "chunks of {chunk}");
    }
}

#[test]
fn sharded_batched_workers_match_sequential() {
    for cadence in CADENCES {
        let case = auction_case(80).with(|c| (c.cfg.cadence, c.shards) = (cadence, vec![1, 4]));
        let checked = case.check();
        let seq = checked.solo.expect("quarantine admits the rest");
        let drained = checked.sharded.iter().all(|r| r.logical_join_state == 0);
        assert!(drained, "{cadence:?}: a closed feed purges every shard");
        // record_outputs=false: counts must survive without materialized rows.
        let (q, r, mut quiet) = (&case.query, &case.schemes, case.cfg);
        quiet.record_outputs = false;
        for p in [1usize, 4] {
            let fleet = Sharded::compile(q, r, &case.plan, quiet, p);
            let sharded = fleet.expect("compile sharded").run(&case.feed);
            assert!(sharded.queries[0].outputs.is_empty());
            assert_eq!(sharded.metrics.outputs, seq.metrics.outputs, "P={p}: count");
        }
    }
}

#[test]
fn consecutive_same_key_runs_dedupe_probes() {
    // 1 item, then a run of 64 bids on it: the bid run probes the item index
    // with one distinct key, so 63 lookups are saved — and every bid still
    // joins.
    let mut feed = Feed::new();
    let int = Value::Int;
    let item = vec![int(7), int(1), Value::str("x"), int(100)];
    feed.push(Tuple::of(0, item));
    (0..64).for_each(|b| feed.push(Tuple::of(1, vec![int(b), int(1), int(1)])));
    // Keep the run unsplit: no purge or sample boundary inside it.
    let case = Case::new("same-key run", fixtures::auction(), feed);
    let case = case.with(|c| (c.cfg.cadence, c.cfg.sample_every) = (PurgeCadence::Never, 1024));
    let exec = Executor::compile(&case.query, &case.schemes, &case.plan, case.cfg).unwrap();
    let m = exec.run(&case.feed).metrics;
    assert_eq!((m.outputs, m.probe_keys_deduped), (64, 63));
    // Runs of one have nothing to dedupe — and still agree on everything
    // observable (the push loop is the harness's reference side).
    assert_eq!(solo(&case, |_| ()).metrics.probe_keys_deduped, 0);
}

/// An edit to query-level purging over `plan` at `cadence`.
fn query_scoped(plan: Plan, cadence: PurgeCadence) -> impl FnOnce(&mut Case) {
    move |c| (c.plan, c.cfg.scope, c.cfg.cadence) = (plan, PurgeScope::Query, cadence)
}

fn small_graph() -> GraphConfig {
    let mut shape = GraphConfig::default();
    (shape.edges, shape.vertices, shape.window, shape.punct_lag) = (300, 40, 16, 30);
    shape
}

/// Tree plans: an arrival's composite rows climb the operator cascade as one
/// run per level, so results come out in input-row order at every level —
/// the same sequence however the feed is cut. (A per-tuple frontier used to
/// pop them in reverse; only the multiset agreed.)
#[test]
fn tree_plans_emit_one_sequence() {
    // Triangle on a left-deep tree under query-level purging (plan
    // independent, so the tree's composite state is purgeable too): every
    // closing edge emits several rows.
    let (query, schemes) = graph::triangle_query();
    let feed = chaos_feed(&graph::generate(&query, &schemes, &small_graph()));
    let tree = Plan::left_deep(&query.stream_ids().collect::<Vec<_>>());
    let case = Case::new("triangle", (query, schemes), feed);
    for cadence in CADENCES {
        let m = solo(&case, query_scoped(tree.clone(), cadence)).metrics;
        assert!(m.intermediate_rows > 0, "the tree materializes 2-paths");
        assert!(m.outputs > 0, "triangles must actually close");
    }

    // A bushy mixed plan: ((S1 ⋈ S2) ⋈ (S3 ⋈ S4) ⋈ S5 ⋈ S6) over a 6-cycle.
    let spec = random_spec(6, Topology::Cycle, 6);
    let [s1, s2, s3, s4, s5, s6] = [0, 1, 2, 3, 4, 5].map(Plan::leaf);
    let [left, right] = [[s1, s2], [s3, s4]].map(|pair| Plan::join(pair.to_vec()));
    let plan = Plan::join(vec![left, right, s5, s6]);
    let feed = chaos_feed(&keyed_feed(&spec, 60, 3));
    let case = Case::new("bushy 6-cycle", spec, feed);
    assert!(solo(&case, |c| c.plan = plan).metrics.outputs > 0);
}

/// Fig. 5 rounds whose streams interleave inside each punctuation-free
/// stretch: per key `k`, rows of S1, S3, S2, S3, S2, and after every second
/// round each scheme closes the two keys two rounds back.
fn interleaved_fig5(rounds: i64) -> Feed {
    let (_, schemes) = fixtures::fig5();
    let mut feed = Feed::new();
    for k in 0..rounds + 2 {
        if k < rounds {
            for s in [0, 2, 1, 2, 1] {
                feed.push(Tuple::of(s, vec![Value::Int(k); 2]));
            }
        }
        for closed in (k - 3..k - 1).filter(|&c| k % 2 == 1 && c >= 0 && c < rounds) {
            for scheme in schemes.schemes() {
                feed.push(scheme.instantiate(2, &[Value::Int(closed)]).unwrap());
            }
        }
    }
    feed
}

/// A segment reaches a tree node as its leaf rows and its child's output,
/// merged by stamp: on `((S1 ⋈ S2) ⋈ S3)` the S3 rows and the composite rows
/// S2's arrivals make alternate inside one stretch (and on `((S1 ⋈ S3) ⋈
/// S2)` the other way round). Sampled rarely, so segments span many runs.
#[test]
fn tree_nodes_merge_child_rows_with_leaf_rows_by_stamp() {
    let case = Case::new(
        "fig5 segments",
        fixtures::fig5(),
        chaos_feed(&interleaved_fig5(40)),
    );
    let [s1, s2, s3] = [0, 1, 2].map(Plan::leaf);
    let plans = [
        Plan::join(vec![Plan::join(vec![s1.clone(), s2.clone()]), s3.clone()]),
        Plan::join(vec![Plan::join(vec![s1, s3]), s2]),
    ];
    for (plan, cadence) in plans.into_iter().zip(CADENCES) {
        let edit = |c: &mut Case| {
            query_scoped(plan, cadence)(c);
            c.cfg.sample_every = 64;
        };
        let m = solo(&case, edit).metrics;
        assert!(m.intermediate_rows > 0 && m.outputs > 0, "{cadence:?}");
    }
}

/// A registry routes a segment through its shared nodes once: four tenants
/// of `multi::generate_queries`, their shared prefix a child node, give each
/// tenant the sequence, and the registry the counters and sample series, of
/// one-element pushes under every cut.
#[test]
fn a_registry_routes_segments_through_shared_trees() {
    let (tenant, feed) = tenants(4, 0.5, 12);
    let feed = chaos_feed(&feed);
    for cadence in CADENCES {
        let cfg = ExecConfig {
            cadence,
            verify_certificates: true,
            ..ExecConfig::default()
        };
        let build = || {
            let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
            for (q, p) in &tenant.queries {
                reg.try_admit(q, p, None).unwrap();
            }
            reg
        };
        let seen = |r: RegistryResult| {
            let m = Metrics {
                elapsed_ns: 0,
                batches_processed: 0,
                probe_keys_deduped: 0,
                ..r.metrics
            };
            let queries = r.queries.into_iter().map(|q| (q.outputs, q.stats));
            (queries.collect::<Vec<_>>(), format!("{m:?}"))
        };
        let mut reg = build();
        feed.elements()
            .iter()
            .for_each(|e| reg.try_push(e).unwrap());
        let reference = seen(reg.finish());
        assert!(reference.0.iter().all(|(_, stats)| stats.outputs > 0));
        for chunk in [1usize, 7, 256] {
            let (mut reg, mut batch) = (build(), ElementBatch::new());
            for elements in feed.elements().chunks(chunk) {
                batch.gather(elements);
                reg.try_push_batch(&batch).unwrap();
            }
            assert_eq!(
                seen(reg.finish()),
                reference,
                "{cadence:?}: chunks of {chunk}"
            );
        }
        assert_eq!(seen(build().run(&feed)), reference, "{cadence:?}: run");
    }
}

/// A `Strict` refusal in the middle of a mixed-stream stretch: the rows
/// before it are routed, the ones after it never came, and the clock stands
/// on it — the harness holds every cut of the feed to what one-element
/// pushes leave.
#[test]
fn a_strict_refusal_mid_segment_leaves_what_one_element_pushes_leave() {
    let int = Value::Int;
    let item = |i: i64| Tuple::of(0, vec![int(7), int(i), Value::str("x"), int(100)]);
    let bid = |i: i64| Tuple::of(1, vec![int(3), int(i), int(5)]);
    let mut feed = Feed::new();
    for i in 0..6 {
        [item(i), bid(i), bid(i)]
            .into_iter()
            .for_each(|t| feed.push(t));
    }
    feed.push(Punctuation::with_constants(
        StreamId(1),
        3,
        &[(AttrId(1), int(0))],
    ));
    // Bids on item 0 are closed: the third row of this stretch violates,
    // in the middle of a run of bids.
    for t in [item(6), bid(1), bid(0), bid(6), item(7), bid(7), bid(2)] {
        feed.push(t);
    }
    let case = Case::new("strict mid-segment", fixtures::auction(), feed);
    let strict =
        |c: &mut Case| (c.cfg.admission, c.cfg.sample_every) = (AdmissionPolicy::Strict, 64);
    assert!(
        case.with(strict).check().solo.is_none(),
        "the bid on item 0 is refused"
    );
}

/// Cyclic graph workloads, flat MJoin against a left-deep tree under
/// query-level purging, each judged on every plane: the same result multiset
/// and the same purge totals — both plans purge every base row, the tree
/// additionally every 2-path it stored and the flat plan never builds.
#[test]
fn flat_and_tree_plans_agree_on_cyclic_graph_workloads() {
    for (query, schemes) in [graph::triangle_query(), graph::four_cycle_query()] {
        let order: Vec<_> = query.stream_ids().collect();
        let plans = [Plan::mjoin_all(&query), Plan::left_deep(&order)];
        let lazy = PurgeCadence::Lazy { batch: 7 };
        let shapes = [
            (small_graph(), CADENCES[0]),
            (small_graph().uniform(), lazy),
        ];
        for (shape, cadence) in shapes {
            let feed = chaos_feed(&graph::generate(&query, &schemes, &shape));
            let case = Case::new("graph", (query.clone(), schemes.clone()), feed);
            let [flat, tree] = plans.clone().map(|p| solo(&case, query_scoped(p, cadence)));
            assert_eq!(sorted(&tree.outputs), sorted(&flat.outputs));
            let (flat, tree) = (flat.metrics, tree.metrics);
            assert!(flat.outputs > 0, "cycles must actually close");
            assert_eq!(tree.mirror_purged, flat.mirror_purged);
            // The flat plan stores no intermediates, the tree its 2-paths.
            assert!(flat.intermediate_rows == 0 && tree.intermediate_rows > 0);
            let base_rows = tree.purged - tree.intermediate_rows;
            assert_eq!(base_rows, flat.purged, "base rows purged");
        }
    }
}

/// Every per-element monitor caps runs at one row, so tiering, the budget
/// error and bound certificates see the same state at the same clock
/// positions under every cut.
#[test]
fn tiering_budgets_and_certificates_equivalence() {
    let spec = fixtures::fig5();
    let feed = chaos_feed(&skewed_feed(&spec, [600, 8, 120, 32, 80]));
    let case = Case::new("fig5 skewed", spec, feed);
    for cadence in CADENCES {
        let mut hard = case.cfg;
        (hard.cadence, hard.state_budget) = (cadence, Some(StateBudget::hard(48)));
        let tier = Some(TierConfig::default());
        let tiered = solo(&case, |c| (c.cfg, c.cfg.tiering) = (hard, tier));
        assert!(tiered.metrics.rows_demoted > 0, "the cap must demote");
        // Without the cold tier the same cap is a hard error, raised at the
        // same clock with the same live count under every cut.
        let build = || Executor::compile(&case.query, &case.schemes, &case.plan, hard).unwrap();
        let overrun = |e: ExecError| match e {
            ExecError::StateBudgetExceeded { live, clock, .. } => (live, clock),
            other => panic!("expected the budget error, got: {other}"),
        };
        let mut exec = build();
        let elements = case.feed.elements();
        let reference = elements.iter().find_map(|e| exec.try_push(e).err());
        let reference = reference.map(overrun).expect("the cap must actually trip");
        for chunk in [1usize, 7, 256] {
            let (mut exec, mut sink, mut batch) =
                (build(), CollectSink::new(), ElementBatch::new());
            let tripped = elements.chunks(chunk).find_map(|elements| {
                batch.gather(elements);
                exec.try_push_batch(&batch, &mut sink).err()
            });
            assert_eq!(tripped.map(overrun), Some(reference), "chunks of {chunk}");
        }
    }
    // Bound certificates inferred from the feed itself, armed on every side
    // by the harness (a violation is a hard error on every side).
    for cadence in CADENCES {
        let checked = auction_case(60).with(|c| c.cfg.cadence = cadence).check();
        assert!(!checked.ratios.is_empty());
    }
}

#[test]
fn random_safe_queries_batched_equivalence() {
    for seed in 0..12usize {
        let spec = random_spec(2 + seed % 4, TOPOLOGIES[seed % 4], seed as u64 * 83);
        let feed = chaos_feed(&keyed_feed(&spec, 20, 2));
        let case = Case::new(&format!("random {seed}"), spec, feed);
        let solo = solo(&case, |c| c.cfg.cadence = CADENCES[seed % 2]);
        let last = solo.metrics.last().expect("sampled");
        assert_eq!(last.join_state, 0, "closed feeds drain");
    }
}

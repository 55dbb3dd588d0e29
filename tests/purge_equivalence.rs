//! Purge-strategy equivalence: [`PurgeStrategy::Indexed`] (delta-driven,
//! index-accelerated candidate collection) must behave *identically* to
//! [`PurgeStrategy::FullScan`] (the O(live-state) oracle) — same output
//! multiset, same live-state counts, same purged totals — while examining
//! far fewer candidate rows.
//!
//! Checked over random safe queries and every bundled workload, under
//! Eager/Lazy cadences and P ∈ {1, 4} shards. The trades workload
//! uses ordered (heartbeat) schemes and so exercises the range-index path.

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeStrategy;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::network::{self, NetworkConfig};
use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};
use punctuated_cjq::workload::sensor::{self, SensorConfig};
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

fn run_with(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    strategy: PurgeStrategy,
    feed: &Feed,
) -> RunResult {
    let cfg = ExecConfig {
        purge_strategy: strategy,
        // The equivalence suite doubles as the certificate-verifier
        // workout: recipes are checked against the static certificates and
        // purge verdicts re-checked against the explaining oracle.
        verify_certificates: true,
        ..cfg
    };
    // Arm the static bound certificate as well: contracts inferred from the
    // feed itself, enforced per element (violation = hard error = panic via
    // `run`), so both strategies also prove observed peaks ≤ static bounds.
    let contracts = punctuated_cjq::stream::certify::infer_contracts(query, schemes, feed);
    let bounds = punctuated_cjq::stream::certify::port_bound_certificate(
        query,
        schemes,
        &contracts,
        plan,
        cfg.scope,
        cfg.cadence,
    );
    let mut exec = Executor::compile(query, schemes, plan, cfg).expect("compile");
    exec.set_port_bounds(bounds);
    exec.run(feed)
}

/// Runs `feed` under both strategies (sequentially, plus P=4 sharded when
/// `shard` is set) and asserts full behavioural equivalence. Returns the
/// (full-scan, indexed) sequential results for extra per-test assertions.
fn assert_equivalent(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    shard: bool,
) -> (RunResult, RunResult) {
    let feed = &chaos_feed(feed);
    let full = run_with(query, schemes, plan, cfg, PurgeStrategy::FullScan, feed);
    let indexed = run_with(query, schemes, plan, cfg, PurgeStrategy::Indexed, feed);
    assert_eq!(
        sorted_outputs(&full.outputs),
        sorted_outputs(&indexed.outputs),
        "output multiset differs between purge strategies"
    );
    assert_eq!(full.metrics.purged, indexed.metrics.purged, "purged totals");
    assert_eq!(
        full.metrics.mirror_purged, indexed.metrics.mirror_purged,
        "mirror purged totals"
    );
    let (f, i) = (
        full.metrics.last().expect("samples"),
        indexed.metrics.last().expect("samples"),
    );
    assert_eq!(f.join_state, i.join_state, "final live join state");
    assert_eq!(f.mirror, i.mirror, "final live mirror state");
    assert!(
        indexed.metrics.purge_candidates_examined <= full.metrics.purge_candidates_examined,
        "indexed examined {} > full-scan {}",
        indexed.metrics.purge_candidates_examined,
        full.metrics.purge_candidates_examined
    );
    if shard {
        for strategy in [PurgeStrategy::FullScan, PurgeStrategy::Indexed] {
            let cfg = ExecConfig {
                purge_strategy: strategy,
                verify_certificates: true,
                ..cfg
            };
            let res = Sharded::<Executor>::compile(query, schemes, plan, cfg, 4)
                .expect("compile sharded")
                .run(feed);
            assert_eq!(
                sorted_outputs(&res.outputs),
                sorted_outputs(&full.outputs),
                "P=4 {strategy:?}: output multiset differs from sequential"
            );
            assert_eq!(
                res.logical_join_state, f.join_state,
                "P=4 {strategy:?}: logical live join state"
            );
        }
    }
    (full, indexed)
}

#[test]
fn random_safe_queries_purge_identically() {
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    let cadences = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }];
    proptest!(ProptestConfig::with_cases(16), |(
        seed in 0u64..1000,
        n in 2usize..6,
        topo_ix in 0usize..4,
        cadence_ix in 0usize..2,
    )| {
        let qcfg = RandomQueryConfig {
            n_streams: n,
            topology: topologies[topo_ix],
            seed,
            ..RandomQueryConfig::default()
        };
        let (query, schemes) = random_query::generate_safe(&qcfg);
        let plan = Plan::mjoin_all(&query);
        let cfg = ExecConfig { cadence: cadences[cadence_ix], ..ExecConfig::default() };

        // Closed feed: every key punctuated on every scheme => all state dies
        // under both strategies.
        let closed = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig { rounds: 25, lag: 2, ..KeyedConfig::default() },
        );
        let (_, indexed) = assert_equivalent(&query, &schemes, &plan, cfg, &closed, true);
        prop_assert_eq!(indexed.metrics.last().unwrap().join_state, 0);

        // Punctuation-free feed: no deltas, so the indexed path must examine
        // each row at most once (the fresh-slot watermark) and purge nothing.
        let open = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig { rounds: 12, punctuate: false, ..KeyedConfig::default() },
        );
        let (_, indexed) = assert_equivalent(&query, &schemes, &plan, cfg, &open, false);
        prop_assert_eq!(indexed.metrics.purged, 0);
    });
}

#[test]
fn auction_workload_equivalent_and_examines_fewer_candidates() {
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
        let (full, indexed) = assert_equivalent(&query, &schemes, &plan, cfg, &feed, true);
        assert_eq!(indexed.metrics.last().unwrap().join_state, 0);
        // The acceptance bar: strictly fewer candidate rows examined than
        // the full-scan path's Σ live-state-per-cycle.
        assert!(indexed.metrics.purged > 0);
        assert!(
            indexed.metrics.purge_candidates_examined < full.metrics.purge_candidates_examined,
            "{cadence:?}: indexed {} !< full {}",
            indexed.metrics.purge_candidates_examined,
            full.metrics.purge_candidates_examined
        );
    }
}

#[test]
fn sensor_workload_equivalent_and_examines_fewer_candidates() {
    let (query, schemes) = sensor::sensor_query();
    let plan = Plan::mjoin_all(&query);
    let (feed, _) = sensor::generate(&SensorConfig {
        n_sensors: 8,
        epochs: 12,
        ..SensorConfig::default()
    });
    let (full, indexed) =
        assert_equivalent(&query, &schemes, &plan, ExecConfig::default(), &feed, true);
    assert!(indexed.metrics.purged > 0);
    assert!(
        indexed.metrics.purge_candidates_examined < full.metrics.purge_candidates_examined,
        "indexed {} !< full {}",
        indexed.metrics.purge_candidates_examined,
        full.metrics.purge_candidates_examined
    );
}

#[test]
fn network_and_trades_workloads_equivalent() {
    let (query, schemes) = network::network_query();
    let feed = network::generate(&NetworkConfig::default());
    assert_equivalent(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
        true,
    );

    // Trades uses ordered heartbeat schemes: threshold advances drive the
    // range-capable purge indexes.
    let (query, schemes) = trades::trades_query();
    let (feed, _) = trades::generate(&TradesConfig::default());
    assert_equivalent(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
        true,
    );
}

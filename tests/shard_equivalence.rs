//! Shard/sequential equivalence: the hash-partitioned [`Sharded`] executor
//! must produce the same result multiset as the sequential [`Executor`], and
//! its merged *logical* live state must agree with the sequential run's.
//!
//! Two regimes are checked:
//!
//! * **Punctuation-closed feeds** (every key eventually punctuated on every
//!   scheme): both engines must end with zero live state.
//! * **Punctuation-free feeds**: nothing is ever purged anywhere, so the
//!   logical merge (partitioned state summed, broadcast state unioned by
//!   slot id) must equal the sequential live count *exactly* — any
//!   double-count or drop in the routing/merge logic shows up here.

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult};
use punctuated_cjq::stream::parallel::{Sharded, ShardedRunResult};
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

/// Runs `feed` sequentially and sharded at each `shard_count`, asserting the
/// output multisets match. Returns the (sequential, per-P sharded) results.
///
/// Both executors run with the static **bound certificate** armed: contracts
/// are inferred from the feed itself (the tightest cadences it conforms to),
/// evaluated into per-port row bounds, and enforced per element — an
/// observed peak above a static bound is a hard [`ExecError`], so every
/// equivalence case doubles as a bounds-agreement check.
fn run_both(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    shard_counts: &[usize],
) -> (RunResult, Vec<ShardedRunResult>) {
    use punctuated_cjq::stream::certify;
    // Exercise the runtime certificate verifier alongside the equivalence
    // checks (recipes vs. static certificates, fast verdicts vs. oracle).
    let cfg = ExecConfig {
        verify_certificates: true,
        ..cfg
    };
    let feed = &chaos_feed(feed);
    let contracts = certify::infer_contracts(query, schemes, feed);
    let port_bounds =
        certify::port_bound_certificate(query, schemes, &contracts, plan, cfg.scope, cfg.cadence);
    let seq = {
        let mut exec = Executor::compile(query, schemes, plan, cfg).expect("compile");
        exec.set_port_bounds(port_bounds.clone());
        exec.run(feed)
    };
    let expected = sorted_outputs(&seq.outputs);
    let sharded: Vec<ShardedRunResult> = shard_counts
        .iter()
        .map(|&p| {
            let mut sharded_exec = Sharded::<Executor>::compile(query, schemes, plan, cfg, p)
                .expect("compile sharded");
            sharded_exec.set_port_bounds(port_bounds.clone());
            let res = sharded_exec.run(feed);
            assert_eq!(
                sorted_outputs(&res.outputs),
                expected,
                "P={p}: output multiset differs from sequential"
            );
            assert_eq!(
                res.metrics.outputs, seq.metrics.outputs,
                "P={p}: output count"
            );
            assert_eq!(
                res.metrics.tuples_in, seq.metrics.tuples_in,
                "P={p}: tuples_in"
            );
            assert_eq!(
                res.metrics.puncts_in, seq.metrics.puncts_in,
                "P={p}: puncts_in"
            );
            assert_eq!(
                res.metrics.violations, seq.metrics.violations,
                "P={p}: violations"
            );
            res
        })
        .collect();
    // Bounds agreement: every observed per-port peak stays at or under its
    // certified static bound (the executor enforced this element by element;
    // re-assert against the recorded peaks for good measure).
    let check_peaks = |m: &punctuated_cjq::stream::metrics::Metrics, who: &str| {
        for (i, bound) in port_bounds.iter().enumerate() {
            if let Some(bound) = bound {
                let peak = m.peak_port_rows.get(i).copied().unwrap_or(0);
                assert!(
                    peak as u64 <= *bound,
                    "{who}: port {i} observed peak {peak} exceeds static bound {bound}"
                );
            }
        }
    };
    check_peaks(&seq.metrics, "sequential");
    for (res, p) in sharded.iter().zip(shard_counts) {
        check_peaks(&res.metrics, &format!("P={p}"));
    }
    (seq, sharded)
}

#[test]
fn random_safe_queries_match_sequential() {
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    proptest!(ProptestConfig::with_cases(16), |(
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

        // Closed feed: every key punctuated on every scheme => all state dies.
        let closed =
            keyed::generate(&query, &schemes, &KeyedConfig { rounds: 25, lag: 2, ..KeyedConfig::default() });
        let (seq, sharded) = run_both(&query, &schemes, &plan, cfg, &closed, &[1, 2, 4]);
        prop_assert_eq!(seq.metrics.last().unwrap().join_state, 0);
        for (res, p) in sharded.iter().zip([1usize, 2, 4]) {
            prop_assert_eq!(res.logical_join_state, 0, "P={}: closed feed must purge fully", p);
        }

        // Punctuation-free feed: no purging anywhere, so the logical merge
        // must reproduce the sequential live counts exactly.
        let open = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig { rounds: 12, punctuate: false, ..KeyedConfig::default() },
        );
        let (seq, sharded) = run_both(&query, &schemes, &plan, cfg, &open, &[2, 4]);
        let seq_live = seq.metrics.last().unwrap().join_state;
        let seq_mirror = seq.metrics.last().unwrap().mirror;
        for (res, p) in sharded.iter().zip([2usize, 4]) {
            prop_assert_eq!(res.logical_join_state, seq_live, "P={}: live join state", p);
            prop_assert_eq!(res.logical_mirror, seq_mirror, "P={}: live mirror", p);
        }
    });
}

#[test]
fn auction_workload_matches_sequential_and_purges() {
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
        let (seq, sharded) = run_both(&query, &schemes, &plan, cfg, &feed, &[1, 2, 4]);
        // The auction feed closes every item: both engines end empty.
        assert_eq!(seq.metrics.last().unwrap().join_state, 0);
        for res in &sharded {
            assert_eq!(
                res.logical_join_state,
                seq.metrics.last().unwrap().join_state
            );
            // Bounded state per shard: no shard's peak exceeds the whole
            // sequential peak (safety is preserved shard-locally).
            for shard in &res.shards {
                assert!(shard.metrics.peak_join_state <= seq.metrics.peak_join_state);
            }
        }
    }
}

#[test]
fn sensor_workload_matches_sequential() {
    let (query, schemes) = sensor::sensor_query();
    let plan = Plan::mjoin_all(&query);
    let (feed, _) = sensor::generate(&SensorConfig {
        n_sensors: 8,
        epochs: 12,
        ..SensorConfig::default()
    });
    let (seq, sharded) = run_both(
        &query,
        &schemes,
        &plan,
        ExecConfig::default(),
        &feed,
        &[1, 2, 4],
    );
    for res in &sharded {
        assert_eq!(
            res.logical_join_state,
            seq.metrics.last().unwrap().join_state
        );
    }
}

#[test]
fn network_and_trades_workloads_match_sequential() {
    let (query, schemes) = network::network_query();
    let feed = network::generate(&NetworkConfig::default());
    run_both(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
        &[2, 4],
    );

    let (query, schemes) = trades::trades_query();
    let (feed, _) = trades::generate(&TradesConfig::default());
    run_both(
        &query,
        &schemes,
        &Plan::mjoin_all(&query),
        ExecConfig::default(),
        &feed,
        &[2, 4],
    );
}

/// Flat state growth under sharding: doubling the feed must not double the
/// peak state of any shard (bounded-state safety, Theorem 1 per shard).
#[test]
fn sharded_state_stays_flat_under_both_cadences() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let peak_at = |n_items: usize, cadence: PurgeCadence| -> usize {
        let feed = auction::generate(&AuctionConfig {
            n_items,
            bids_per_item: 3,
            concurrent: 6,
            ..AuctionConfig::default()
        });
        let cfg = ExecConfig {
            cadence,
            record_outputs: false,
            ..ExecConfig::default()
        };
        let res = Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, 4)
            .unwrap()
            .run(&feed);
        res.shards
            .iter()
            .map(|s| s.metrics.peak_join_state)
            .max()
            .unwrap()
    };
    // Flat growth: the peak is bounded by the workload's concurrency (plus
    // the lazy batch slack), never by the feed length — a 8x longer feed must
    // stay under the same constant.
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 32 }] {
        let bound = 2 * 6 + 32; // 2 tuples per open auction + lazy slack
        for n_items in [60, 120, 240, 480] {
            let peak = peak_at(n_items, cadence);
            assert!(
                peak <= bound,
                "{cadence:?}: n_items={n_items} peak {peak} exceeds flat bound {bound}"
            );
        }
    }
}

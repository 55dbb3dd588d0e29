//! Tier/flat equivalence: a run with the cold tier enabled must be
//! *indistinguishable* from the same run without it — byte-identical output
//! sequences (not just multisets: demote and fault-back preserve insertion
//! seqs, so probe order is unchanged) and identical purge totals (finish
//! rehydrates every cold row before the final purge fixpoint, so no
//! provably-dead row escapes the count in either tier).
//!
//! Coverage: skewed/keyed/auction workloads × {Eager, Lazy} cadences ×
//! {sequential, P=4 sharded}, plus a proptest that sweeps the demotion
//! schedule itself — budget, low watermark, segment size, and workload seed
//! together determine *when* rows demote and fault back, so sampling them
//! exercises arbitrary demote/fault-back interleavings against the flat
//! run's outputs.
//!
//! `CJQ_CHAOS=<seed>` re-runs everything on fault-injected feeds (same
//! faulted feed on both sides), as in the other equivalence suites.

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};
use punctuated_cjq::workload::skewed::{self, SkewedConfig};

/// `CJQ_CHAOS=<seed>` wraps every feed in the chaos-suite fault plan.
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

fn tiered_cfg(base: ExecConfig, budget: usize, tier: TierConfig) -> ExecConfig {
    ExecConfig {
        state_budget: Some(StateBudget::hard(budget)),
        tiering: Some(tier),
        ..base
    }
}

/// Runs `feed` flat and tiered (sequentially), asserting byte-identical
/// outputs and identical purge totals. Returns both results.
fn run_pair(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    base: ExecConfig,
    budget: usize,
    tier: TierConfig,
    feed: &Feed,
) -> (RunResult, RunResult) {
    let base = ExecConfig {
        verify_certificates: true,
        ..base
    };
    let feed = &chaos_feed(feed);
    let flat = Executor::compile(query, schemes, plan, base)
        .expect("compile flat")
        .run(feed);
    let tiered = Executor::compile(query, schemes, plan, tiered_cfg(base, budget, tier))
        .expect("compile tiered")
        .try_run(feed)
        .expect("tiering absorbs all overflow");
    assert_eq!(
        tiered.outputs, flat.outputs,
        "tiered outputs must be byte-identical to the flat run"
    );
    assert_eq!(tiered.metrics.outputs, flat.metrics.outputs);
    assert_eq!(
        tiered.metrics.purged, flat.metrics.purged,
        "purge totals must agree: every provably-dead row is purged in both tiers"
    );
    assert_eq!(tiered.metrics.violations, flat.metrics.violations);
    assert_eq!(
        tiered.metrics.last().map(|p| p.join_state),
        flat.metrics.last().map(|p| p.join_state),
        "final live state must agree after rehydration"
    );
    (flat, tiered)
}

fn sorted(outputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut s = outputs.to_vec();
    s.sort_unstable();
    s
}

/// Sharded runs interleave shard outputs nondeterministically, so the
/// sharded flat/tiered comparison is by multiset plus totals.
#[allow(clippy::too_many_arguments)]
fn run_sharded_pair(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    base: ExecConfig,
    budget: usize,
    tier: TierConfig,
    feed: &Feed,
    shards: usize,
) {
    let feed = &chaos_feed(feed);
    let flat = Sharded::<Executor>::compile(query, schemes, plan, base, shards)
        .expect("compile flat sharded")
        .run(feed);
    let tiered =
        Sharded::<Executor>::compile(query, schemes, plan, tiered_cfg(base, budget, tier), shards)
            .expect("compile tiered sharded")
            .try_run(feed)
            .expect("tiering absorbs all overflow");
    assert_eq!(
        sorted(&tiered.outputs),
        sorted(&flat.outputs),
        "P={shards}: tiered output multiset differs from flat"
    );
    assert_eq!(tiered.metrics.outputs, flat.metrics.outputs);
    assert_eq!(
        tiered.metrics.purged, flat.metrics.purged,
        "P={shards}: purge totals"
    );
}

const CADENCES: [PurgeCadence; 2] = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }];

#[test]
fn skewed_workload_equivalent_across_cadences_and_shards() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let feed = skewed::generate(
        &query,
        &schemes,
        &SkewedConfig {
            events: 800,
            hot_keys: 8,
            cold_keys: 150,
            cold_window: 32,
            punct_lag: 80,
            ..SkewedConfig::default()
        },
    );
    for cadence in CADENCES {
        let base = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        let (_, tiered) = run_pair(
            &query,
            &schemes,
            &plan,
            base,
            48,
            TierConfig::default(),
            &feed,
        );
        assert!(
            tiered.metrics.rows_demoted > 0,
            "{cadence:?}: the cap must actually force demotion"
        );
        run_sharded_pair(
            &query,
            &schemes,
            &plan,
            base,
            48,
            TierConfig::default(),
            &feed,
            4,
        );
    }
}

#[test]
fn keyed_fanout_equivalent_with_and_without_punctuations() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig8();
    let plan = Plan::mjoin_all(&query);
    for punctuate in [true, false] {
        // Without punctuations nothing ever purges: demote/fault-back is the
        // only state movement, and finish-time rehydration must restore the
        // exact flat live count.
        let feed = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig {
                rounds: 60,
                lag: 20,
                tuples_per_round: 2,
                punctuate,
            },
        );
        for cadence in CADENCES {
            let base = ExecConfig {
                cadence,
                ..ExecConfig::default()
            };
            let (_, tiered) = run_pair(
                &query,
                &schemes,
                &plan,
                base,
                32,
                TierConfig::default(),
                &feed,
            );
            assert!(tiered.metrics.rows_demoted > 0);
        }
    }
}

#[test]
fn auction_workload_equivalent_under_tight_cap() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&AuctionConfig {
        n_items: 120,
        bids_per_item: 4,
        concurrent: 24,
        ..AuctionConfig::default()
    });
    for cadence in CADENCES {
        let base = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        run_pair(
            &query,
            &schemes,
            &plan,
            base,
            16,
            TierConfig::default(),
            &feed,
        );
        run_sharded_pair(
            &query,
            &schemes,
            &plan,
            base,
            16,
            TierConfig::default(),
            &feed,
            4,
        );
    }
}

/// The demotion schedule is a function of (budget, watermark, segment size,
/// workload seed, cadence): sampling all five sweeps arbitrary demote/
/// fault-back interleavings, and none of them may change a byte of output.
#[test]
fn random_demote_faultback_interleavings_never_change_results() {
    let topologies = [Topology::Path, Topology::Star, Topology::Cycle];
    proptest!(ProptestConfig::with_cases(12), |(
        seed in 0u64..500,
        topo_ix in 0usize..3,
        budget in 8usize..96,
        watermark in 30u8..100,
        segment_rows in 4usize..64,
        lazy in proptest::arbitrary::any::<bool>(),
        wl_seed in 0u64..100,
    )| {
        let qcfg = RandomQueryConfig {
            n_streams: 3,
            topology: topologies[topo_ix],
            seed,
            ..RandomQueryConfig::default()
        };
        let (query, schemes) = random_query::generate_safe(&qcfg);
        let plan = Plan::mjoin_all(&query);
        let feed = skewed::generate(&query, &schemes, &SkewedConfig {
            events: 300,
            hot_keys: 6,
            cold_keys: 60,
            cold_window: 16,
            punct_lag: 40,
            seed: wl_seed,
            ..SkewedConfig::default()
        });
        let base = ExecConfig {
            cadence: if lazy { PurgeCadence::Lazy { batch: 5 } } else { PurgeCadence::Eager },
            ..ExecConfig::default()
        };
        let tier = TierConfig {
            segment_rows,
            low_watermark_pct: watermark,
            ..TierConfig::default()
        };
        run_pair(&query, &schemes, &plan, base, budget, tier, &feed);
    });
}

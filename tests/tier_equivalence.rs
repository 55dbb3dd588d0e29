//! Tier/flat equivalence, as named cases of the differential harness
//! (`cjq_chaos::differential`): a run with the cold tier enabled must be
//! *indistinguishable* from the same run without it. [`Case::check`] judges
//! the tiered run on every plane against the reference oracle (result
//! multiset; purge totals, which meet because finish rehydrates every cold
//! row before the final purge fixpoint); here the tiered output *sequence*
//! is also held to the plain flat run's (demote and fault-back preserve
//! insertion seqs, so probe order is unchanged), and the cap must demote.
//!
//! Coverage: skewed/keyed/auction workloads × {Eager, Lazy} cadences ×
//! {sequential, P=4 sharded}, plus a proptest that sweeps the demotion
//! schedule itself — budget, low watermark, segment size, and workload seed
//! together determine *when* rows demote and fault back.

use proptest::prelude::*;

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use punctuated_cjq::stream::metrics::{Metrics, StatePoint};
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction;
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::random_query::Topology;
use punctuated_cjq::workload::skewed::{self, SkewedConfig};

use cjq_chaos::differential::{oracle, sorted, Case};
use cjq_chaos::{auction_feed, chaos_feed, random_spec, skewed_feed};

const CADENCES: [PurgeCadence; 2] = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }];

type Spec = (Cjq, SchemeSet);

/// Checks `spec` over `feed` at cadence `c` under `budget` with `tier`, and
/// holds it to the plain flat run; returns the tiered executor run.
fn run_pair(spec: Spec, feed: Feed, c: PurgeCadence, budget: usize, tier: TierConfig) -> RunResult {
    let case = Case::new("tiered", spec, chaos_feed(&feed)).with(|case| case.cfg.cadence = c);
    let cap = (Some(StateBudget::hard(budget)), Some(tier));
    let tiered = Case::with(case.clone(), |c| (c.cfg.state_budget, c.cfg.tiering) = cap);
    let flat = Executor::compile(&case.query, &case.schemes, &case.plan, case.cfg).unwrap();
    let flat = flat.run(&case.feed);
    let tiered = tiered.check().solo.expect("tiering absorbs all overflow");
    assert_eq!(tiered.outputs, flat.outputs, "the flat sequence");
    let purged = |r: &RunResult| r.metrics.purged;
    assert_eq!(purged(&tiered), purged(&flat), "purge totals");
    // Final live state agrees after rehydration.
    let last = |r: &RunResult| r.metrics.last().map(|p| p.join_state);
    assert_eq!(last(&tiered), last(&flat));
    tiered
}

#[test]
fn skewed_workload_equivalent_across_cadences_and_shards() {
    let spec = fixtures::fig5();
    let feed = skewed_feed(&spec, [800, 8, 150, 32, 80]);
    for cadence in CADENCES {
        let tiered = run_pair(spec.clone(), feed.clone(), cadence, 48, Default::default());
        assert!(tiered.metrics.rows_demoted > 0, "{cadence:?}: demotes");
    }
}

/// Fig. 5's MJoin on `skewed_durable`'s feed (20,000 events, seed 7, a
/// sample every 50 elements). Sealed and untiered, an executor's leaf ports
/// are `Υ`: it holds no stream and mirrors no row, while its outputs, purges
/// and port rows at every sample are an open registry's, whose mirror holds
/// every stream, and its ports' rows are that mirror's. The same shape at a
/// quarter of the size is held to the oracle (the full one takes it a
/// minute). Tiered under a budget, a port cannot stand in — a chain probe
/// cannot see its cold rows — so that run still holds every stream.
#[test]
fn fig5_on_the_skewed_feed_holds_no_stream_unless_tiered() {
    let (q, r) = fixtures::fig5();
    let plan = Plan::mjoin_all(&q);
    let cfg = ExecConfig {
        sample_every: 50,
        verify_certificates: false, // a sweep of every row per cycle
        ..ExecConfig::default()
    };
    let feed = |shrink: usize| {
        let mut shape = SkewedConfig::default();
        (shape.events, shape.hot_keys, shape.cold_keys) = (20_000 / shrink, 32, 4000 / shrink);
        (shape.cold_window, shape.punct_lag, shape.seed) = (512 / shrink, 2000 / shrink, 7);
        skewed::generate(&q, &r, &shape)
    };
    let run = |feed: &Feed| {
        let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        assert_eq!(exec.engine().held(), [false; 3]);
        let run = exec.run(feed);
        let m = &run.metrics;
        assert!(m.series.iter().all(|p| p.mirror == 0) && m.mirror_purged == 0);
        run
    };
    let (feed, small) = (feed(1), feed(4));
    let (exec, mut open) = (run(&feed), QueryRegistry::new(r.clone(), cfg));
    open.try_admit(&q, &plan, None).unwrap();
    let open = open.try_run(&feed).unwrap();
    let (m, o) = (&exec.metrics, &open.metrics);
    assert_eq!(exec.outputs, open.queries[0].outputs);
    assert_eq!(
        (m.purged, o.purged, o.mirror_purged),
        (24_888, 24_888, 24_888)
    );
    let ports = |m: &Metrics| {
        m.series
            .iter()
            .map(|p| (p.at, p.join_state))
            .collect::<Vec<_>>()
    };
    let mirror: Vec<_> = o.series.iter().map(|p| (p.at, p.mirror)).collect();
    assert_eq!((ports(m), ports(o)), (mirror.clone(), mirror));
    let peak = m.series.iter().map(|p| p.join_state).max();
    let mean = m.series.iter().map(|p| p.join_state).sum::<usize>() / m.series.len();
    assert_eq!((peak, mean), (Some(17_540), 10_438));
    let (got, expect) = (run(&small), oracle(&[(&q, &plan)], &r, &cfg, None, &small));
    assert_eq!(sorted(&got.outputs), expect.outputs[0]);
    assert_eq!(got.metrics.purged, expect.purged[0]);
    let ys = expect.series.iter().map(|s| (s.at, s.rows, s.mirror));
    let mirrored = got
        .metrics
        .series
        .iter()
        .map(|p| (p.at, p.join_state, p.join_state));
    assert!(mirrored.eq(ys), "the ports' rows at every sample, and Υ's");
    let capped = ExecConfig {
        state_budget: Some(StateBudget::hard(2048)),
        tiering: Some(TierConfig::default()),
        ..cfg
    };
    let tiered = Executor::compile(&q, &r, &plan, capped).unwrap();
    assert_eq!(
        tiered.engine().held(),
        [true; 3],
        "tiered ports do not stand in"
    );
    let m = tiered.run(&feed).metrics;
    let peak = |f: fn(&StatePoint) -> usize| m.series.iter().map(f).max();
    assert_eq!(
        (peak(|p| p.join_state), peak(|p| p.mirror)),
        (Some(2048), Some(17_540))
    );
}

#[test]
fn keyed_fanout_equivalent_with_and_without_punctuations() {
    let spec = fixtures::fig8();
    let modes = [true, false].map(|p| CADENCES.map(|c| (p, c)));
    for (punctuate, cadence) in modes.into_iter().flatten() {
        // Without punctuations nothing ever purges: demote/fault-back is the
        // only state movement, and finish-time rehydration must restore the
        // exact flat live count.
        let mut shape = KeyedConfig::default();
        (shape.rounds, shape.lag, shape.tuples_per_round) = (60, 20, 2);
        shape.punctuate = punctuate;
        let feed = keyed::generate(&spec.0, &spec.1, &shape);
        let tiered = run_pair(spec.clone(), feed, cadence, 32, Default::default());
        assert!(tiered.metrics.rows_demoted > 0);
    }
}

#[test]
fn auction_workload_equivalent_under_tight_cap() {
    let (spec, feed) = (auction::auction_query(), auction_feed(120, 4, 24));
    for cadence in CADENCES {
        run_pair(spec.clone(), feed.clone(), cadence, 16, Default::default());
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
        topology in 0usize..3,
        budget in 8usize..96,
        watermark in 30u8..100,
        segment_rows in 4usize..64,
        lazy in proptest::arbitrary::any::<bool>(),
        events_seed in 0u64..100,
    )| {
        let spec = random_spec(3, topologies[topology], seed);
        let mut events = SkewedConfig::default();
        (events.events, events.hot_keys, events.cold_keys) = (300, 6, 60);
        (events.cold_window, events.punct_lag, events.seed) = (16, 40, events_seed);
        let feed = skewed::generate(&spec.0, &spec.1, &events);
        let cadence = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 5 }][usize::from(lazy)];
        let mut tier = TierConfig::default();
        (tier.segment_rows, tier.low_watermark_pct) = (segment_rows, watermark);
        run_pair(spec, feed, cadence, budget, tier);
    });
}

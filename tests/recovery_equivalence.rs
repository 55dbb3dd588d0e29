//! Crash-recovery equivalence at the workspace surface: killing a
//! checkpointed replay after any prefix of the feed and resuming from the
//! newest valid snapshot must reproduce the uninterrupted run byte-for-byte
//! — same output sequence, same purge totals, same sampled state series.
//!
//! The chaos crate holds the deep matrix (workloads × cadences × shards ×
//! tiers × corruption); this suite covers the public API the way a user
//! would drive it: a crash-point sweep over the auction workload, and a
//! proptest sampling (checkpoint interval × crash offset × memory budget)
//! interleavings — the three knobs that together decide which snapshot a
//! crash lands on and how much cold-tier state rides along in it.
//!
//! `CJQ_CHAOS=<seed>` re-runs everything on fault-injected feeds (the same
//! faulted feed on both sides), as in the other equivalence suites.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{
    BudgetPolicy, ExecConfig, Executor, PurgeCadence, RunResult, StateBudget,
};
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::skewed::{self, SkewedConfig};

const SEED: u64 = 0xC4A0_5EED;

/// `CJQ_CHAOS=<seed>` wraps every feed in the chaos-suite fault plan.
fn chaos_feed(feed: &Feed) -> Feed {
    use punctuated_cjq::stream::fault::{Fault, FaultPlan};
    match std::env::var("CJQ_CHAOS") {
        Ok(seed) => FaultPlan::new(seed.parse().unwrap_or(SEED))
            .with(Fault::DuplicatePunctuations { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
            .with(Fault::TruncateTuples { prob: 0.05 })
            .apply(feed),
        Err(_) => feed.clone(),
    }
}

/// A fresh per-call checkpoint directory (pid + counter keeps parallel test
/// binaries and repeated proptest cases from colliding).
fn ckpt_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cjq-rec-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// Everything the equivalence check compares, with wall time and the
/// checkpoint counters themselves (which legitimately differ between the
/// golden and recovered runs) zeroed out of the metrics.
fn digest(m: &Metrics) -> String {
    let mut m = m.clone();
    m.elapsed_ns = 0;
    m.checkpoints_written = 0;
    m.checkpoint_rows = 0;
    m.restores = 0;
    m.snapshot_fallbacks = 0;
    format!("{m:?}")
}

fn assert_equiv(label: &str, golden: &RunResult, recovered: &RunResult) {
    assert_eq!(
        recovered.outputs, golden.outputs,
        "{label}: output sequences must be byte-identical"
    );
    assert_eq!(
        digest(&recovered.metrics),
        digest(&golden.metrics),
        "{label}: metrics (purge totals, peaks, sampled series) must agree"
    );
}

/// Runs `feed` to completion with checkpointing into a fresh dir.
fn golden_run(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    every: u64,
    tag: &str,
) -> RunResult {
    let dir = ckpt_dir(tag);
    let r = Executor::compile(query, schemes, plan, cfg)
        .expect("compile golden")
        .try_run_checkpointed(feed, &dir, every)
        .expect("golden checkpointed run");
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// Simulates a crash after `crash_after` elements (the process dies with
/// whatever snapshots were committed by then), then resumes the full feed
/// from the directory.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    every: u64,
    crash_after: usize,
    tag: &str,
) -> RunResult {
    let dir = ckpt_dir(tag);
    {
        let prefix = Feed::from_elements(feed.elements()[..crash_after].to_vec());
        let _ = Executor::compile(query, schemes, plan, cfg)
            .expect("compile crashing run")
            .try_run_checkpointed(&prefix, &dir, every)
            .expect("prefix run");
        // The prefix result dies with the "process"; only `dir` survives.
    }
    let r = Executor::try_resume(&dir, query, schemes, plan, cfg, feed, every)
        .expect("resume from snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn record_outputs(cfg: ExecConfig) -> ExecConfig {
    ExecConfig {
        record_outputs: true,
        ..cfg
    }
}

#[test]
fn auction_crash_point_sweep_is_byte_identical() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = chaos_feed(&auction::generate(&AuctionConfig::default()));
    let every = 97u64;
    let cfg = record_outputs(ExecConfig::default());
    let golden = golden_run(&query, &schemes, &plan, cfg, &feed, every, "sweep-g");
    assert!(
        golden.metrics.checkpoints_written > 0,
        "feed too short to exercise checkpointing"
    );
    // The sweep below crashes between a dead-prefix reclaim and the next
    // commit only if this feed is long enough to reclaim at all.
    let mut probe = Executor::compile(&query, &schemes, &plan, cfg).expect("compile probe");
    feed.elements().iter().for_each(|e| probe.push(e));
    let bids = probe.engine().mirror_state(auction::BID);
    assert!(
        bids.resident_slots() < bids.slots(),
        "feed too short to exercise prefix reclaim"
    );
    let n = feed.elements().len();
    // Every checkpoint boundary plus a spread of mid-batch points.
    let mut points: Vec<usize> = (1..)
        .map(|k| (k * every) as usize)
        .take_while(|&p| p < n)
        .collect();
    points.extend([n / 7, n / 3, n / 2, n - 1]);
    points.sort_unstable();
    points.dedup();
    for crash_after in points {
        let recovered = crash_and_recover(
            &query,
            &schemes,
            &plan,
            cfg,
            &feed,
            every,
            crash_after,
            &format!("sweep-{crash_after}"),
        );
        assert_equiv(&format!("crash@{crash_after}"), &golden, &recovered);
    }
}

/// (interval × crash offset × memory budget) together decide which snapshot
/// a crash lands on and how much demoted cold state it carries; no sampled
/// combination may change a byte of the recovered run.
#[test]
fn interval_offset_budget_interleavings_recover_exactly() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let feed = chaos_feed(&skewed::generate(
        &query,
        &schemes,
        &SkewedConfig {
            events: 400,
            hot_keys: 6,
            cold_keys: 80,
            cold_window: 24,
            punct_lag: 50,
            ..SkewedConfig::default()
        },
    ));
    let n = feed.elements().len();
    proptest!(ProptestConfig::with_cases(16), |(
        every in 16u64..200,
        offset_pct in 1u64..100,
        budget in 24usize..96,
        tiered in proptest::arbitrary::any::<bool>(),
        lazy in proptest::arbitrary::any::<bool>(),
    )| {
        let cfg = record_outputs(ExecConfig {
            cadence: if lazy { PurgeCadence::Lazy { batch: 16 } } else { PurgeCadence::Eager },
            state_budget: tiered.then_some(StateBudget {
                max_rows: budget,
                policy: BudgetPolicy::HardError,
            }),
            tiering: tiered.then_some(TierConfig {
                segment_rows: 32,
                ..TierConfig::default()
            }),
            ..ExecConfig::default()
        });
        let crash_after = ((n as u64 * offset_pct) / 100).max(1) as usize;
        let tag = format!("prop-{every}-{offset_pct}-{budget}-{tiered}-{lazy}");
        let golden = golden_run(&query, &schemes, &plan, cfg, &feed, every, &tag);
        let recovered = crash_and_recover(
            &query, &schemes, &plan, cfg, &feed, every, crash_after, &tag,
        );
        assert_equiv(&tag, &golden, &recovered);
    });
}

//! Bounded-state watchdog and stall detector under hostile feeds.

use cjq_chaos::differential::resume;
use cjq_chaos::{bundled_workloads, metrics_digest};
use cjq_core::plan::Plan;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, StateBudget};
use cjq_stream::source::Feed;
use cjq_stream::tier::TierConfig;
use cjq_stream::Engine;
use cjq_workload::auction::{auction_query, generate, AuctionConfig};

/// The auction feed of 40 items without punctuations.
fn silent_auction() -> Feed {
    let mut shape = AuctionConfig::default();
    (shape.n_items, shape.item_punctuations) = (40, false);
    shape.bid_punctuations = false;
    generate(&shape)
}

/// An unpunctuated feed against a budget: without tiering the watchdog fails
/// the run with a structured error at the first overrun; the same cap with
/// tiering keeps the sampled join state at or under the ceiling while the
/// feed runs and loses neither a result nor a stored row.
#[test]
fn budget_fails_without_tiering_and_is_lossless_with_it() {
    let (q, r) = auction_query();
    let plan = Plan::mjoin_all(&q);
    let feed = silent_auction();
    const BUDGET: usize = 48;
    let unbudgeted = ExecConfig {
        sample_every: 1,
        ..ExecConfig::default()
    };
    let run = |cfg| {
        let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        exec.try_run(&feed)
    };
    let mut cfg = unbudgeted;
    cfg.state_budget = Some(StateBudget::hard(BUDGET));
    // Nothing is ever purgeable and nothing may be dropped, so the run fails
    // at the first row over the cap: the (BUDGET + 1)-th element.
    let err = run(cfg).unwrap_err();
    let overrun = (BUDGET + 1, BUDGET, BUDGET as u64 + 1);
    let at = matches!(err, ExecError::StateBudgetExceeded { live, budget, clock } if (live, budget, clock) == overrun);
    assert!(at, "the budget error at the first overrun, got: {err}");

    cfg.tiering = Some(TierConfig::default());
    let tiered = run(cfg).expect("tiering absorbs the overflow");
    let (at_finish, running) = tiered.metrics.series.split_last().expect("sampled");
    let peak = running.iter().map(|p| p.join_state).max();
    assert!(peak <= Some(BUDGET), "peak {peak:?} > {BUDGET}");
    assert!(tiered.metrics.rows_demoted > 0, "watchdog never fired");
    let base = run(unbudgeted).expect("no budget, no error");
    assert_eq!(tiered.outputs, base.outputs, "demotion loses no result");
    assert!(!base.outputs.is_empty());
    // Finish rehydrates the cold tier: every unpurgeable row is still held.
    let held = base.metrics.last().map(|p| p.join_state);
    assert_eq!(Some(at_finish.join_state), held);
}

/// A punctuated feed under a comfortable budget never trips it: the run,
/// judged by the differential harness, is the unbudgeted one.
#[test]
fn comfortable_budget_is_invisible() {
    let feed = generate(&AuctionConfig::default());
    let case = cjq_chaos::differential::Case::new("auction", auction_query(), feed);
    let base = case.check().solo.expect("admitted");
    let peak = base.metrics.peak_join_state.max(1);
    let budgeted = case.with(|c| c.cfg.state_budget = Some(StateBudget::hard(peak)));
    let budgeted = budgeted.check().solo.expect("admitted");
    assert_eq!(budgeted.outputs, base.outputs, "outputs must be untouched");
}

/// Streams whose punctuations stop arriving are flagged by the stall
/// detector, and streams that keep punctuating are not. A crash while streams
/// are stalled: the stall verdict is read off the restored punctuation clocks
/// at finish, so the resumed run reports what the uninterrupted one does.
#[test]
fn stalled_streams_survive_a_crash() {
    let w = bundled_workloads().remove(0);
    // The auction feed with every punctuation of its second half dropped.
    let n = w.feed.len();
    let kept = w.feed.elements().iter().enumerate();
    let kept = kept.filter(|(i, e)| *i < n / 2 || !e.is_punctuation());
    let feed = Feed::from_elements(kept.map(|(_, e)| e.clone()).collect());
    let cfg = ExecConfig {
        stall_budget: Some(50),
        ..ExecConfig::default()
    };
    let (q, r) = &w.spec;
    let compile =
        |_: &str| Executor::compile(q, r, &Plan::mjoin_all(q), cfg).map_err(|e| e.to_string());
    let flowing = compile("").unwrap().run(&w.feed).metrics.stalled_streams;
    assert!(flowing.is_empty(), "punctuations keep flowing: {flowing:?}");
    let golden = resume(0, 31, &feed, compile, true);
    assert_eq!(golden.metrics.stalled_streams, vec![0, 1]);
    assert!(golden.metrics.checkpoints_written > 0);
    // Well past the last punctuation plus the budget: both are stalled.
    let recovered = resume(feed.len() - 10, 31, &feed, compile, false);
    assert_eq!(recovered.metrics.restores, 1);
    assert_eq!(recovered.outputs, golden.outputs, "stalled at the crash");
    let digests = [recovered, golden].map(|r| metrics_digest(&r.metrics));
    assert_eq!(digests[0], digests[1]);
}

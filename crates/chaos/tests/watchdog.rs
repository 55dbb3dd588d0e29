//! Bounded-state watchdog and stall detector under hostile feeds.

use cjq_chaos::{
    assert_run_equiv, bundled_workloads, crash_and_recover_seq, run_checkpointed_seq, temp_ckpt_dir,
};
use cjq_core::plan::Plan;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, StateBudget};
use cjq_stream::source::Feed;
use cjq_stream::tier::TierConfig;
use cjq_stream::Engine;
use cjq_workload::auction::{auction_query, generate, AuctionConfig};

/// An unpunctuated feed against a budget: without tiering the watchdog fails
/// the run with a structured error at the first overrun; the same cap with
/// tiering keeps the sampled join state at or under the ceiling while the
/// feed runs and loses neither a result nor a stored row.
#[test]
fn budget_fails_without_tiering_and_is_lossless_with_it() {
    let (q, r) = auction_query();
    let plan = Plan::mjoin_all(&q);
    let feed = generate(&AuctionConfig {
        n_items: 40,
        item_punctuations: false,
        bid_punctuations: false,
        ..Default::default()
    });
    const BUDGET: usize = 48;
    let unbudgeted = ExecConfig {
        sample_every: 1,
        ..ExecConfig::default()
    };
    let run = |cfg| {
        Executor::compile(&q, &r, &plan, cfg)
            .expect("compiles")
            .try_run(&feed)
    };
    let cfg = ExecConfig {
        state_budget: Some(StateBudget::hard(BUDGET)),
        ..unbudgeted
    };
    // Nothing is ever purgeable, so the first row over the cap is the
    // (BUDGET + 1)-th element.
    let err = run(cfg).expect_err("nothing is purgeable and nothing may be dropped");
    assert!(
        matches!(
            err,
            ExecError::StateBudgetExceeded { live, budget: BUDGET, clock }
                if live == BUDGET + 1 && clock == BUDGET as u64 + 1
        ),
        "expected the budget error at the first overrun, got: {err}"
    );

    let tiered = run(ExecConfig {
        tiering: Some(TierConfig::default()),
        ..cfg
    })
    .expect("tiering absorbs the overflow");
    let (at_finish, running) = tiered.metrics.series.split_last().expect("sampled");
    let peak = running.iter().map(|p| p.join_state).max();
    assert!(
        peak <= Some(BUDGET),
        "peak {peak:?} exceeds budget {BUDGET}"
    );
    assert!(tiered.metrics.rows_demoted > 0, "watchdog never fired");
    let base = run(unbudgeted).expect("no budget, no error");
    assert_eq!(tiered.outputs, base.outputs, "demotion loses no result");
    assert!(!base.outputs.is_empty());
    // Finish rehydrates the cold tier: every unpurgeable row is still held.
    assert_eq!(
        Some(at_finish.join_state),
        base.metrics.last().map(|p| p.join_state)
    );
}

/// A punctuated feed under a comfortable budget never trips it and matches
/// the unbudgeted run exactly.
#[test]
fn comfortable_budget_is_invisible() {
    let (q, r) = auction_query();
    let plan = Plan::mjoin_all(&q);
    let feed = generate(&AuctionConfig::default());
    let base_cfg = ExecConfig {
        record_outputs: true,
        sample_every: 1,
        ..ExecConfig::default()
    };
    let base = Executor::compile(&q, &r, &plan, base_cfg)
        .expect("compiles")
        .run(&feed);
    let budgeted_cfg = ExecConfig {
        state_budget: Some(StateBudget::hard(base.metrics.peak_join_state.max(1))),
        record_outputs: true,
        sample_every: 1,
        ..ExecConfig::default()
    };
    let budgeted = Executor::compile(&q, &r, &plan, budgeted_cfg)
        .expect("compiles")
        .run(&feed);
    assert_eq!(budgeted.outputs, base.outputs, "outputs must be untouched");
}

/// Streams whose punctuations stop arriving get flagged by the stall
/// detector, and recover (unflag) when punctuations resume.
#[test]
fn stall_detector_flags_and_recovers() {
    let (q, r) = auction_query();
    let plan = Plan::mjoin_all(&q);
    let silent = generate(&AuctionConfig {
        n_items: 40,
        item_punctuations: false,
        bid_punctuations: false,
        ..Default::default()
    });
    let cfg = ExecConfig {
        stall_budget: Some(50),
        ..ExecConfig::default()
    };
    let result = Executor::compile(&q, &r, &plan, cfg)
        .expect("compiles")
        .run(&silent);
    assert_eq!(
        result.metrics.stalled_streams,
        vec![0, 1],
        "both punctuated streams went silent"
    );

    let punctuated = generate(&AuctionConfig {
        n_items: 40,
        ..Default::default()
    });
    let result = Executor::compile(&q, &r, &plan, cfg)
        .expect("compiles")
        .run(&punctuated);
    assert!(
        result.metrics.stalled_streams.is_empty(),
        "punctuations keep flowing: {:?}",
        result.metrics.stalled_streams
    );
}

/// A crash while streams are stalled: the stall verdict is read off the
/// restored punctuation clocks at finish, so the resumed run reports what the
/// uninterrupted one does.
#[test]
fn stalled_streams_survive_a_crash() {
    let workloads = bundled_workloads();
    let w = &workloads[0];
    // The auction feed with every punctuation of its second half dropped.
    let n = w.feed.len();
    let kept = w.feed.elements().iter().enumerate();
    let kept = kept.filter(|(i, e)| *i < n / 2 || !e.is_punctuation());
    let feed = Feed::from_elements(kept.map(|(_, e)| e.clone()).collect());
    let cfg = ExecConfig {
        stall_budget: Some(50),
        ..ExecConfig::default()
    };
    let golden_dir = temp_ckpt_dir("stall-golden");
    let golden = run_checkpointed_seq(w, &feed, cfg, &golden_dir, 31);
    assert_eq!(golden.metrics.stalled_streams, vec![0, 1]);
    assert!(golden.metrics.checkpoints_written > 0);
    // Well past the last punctuation plus the budget: both are stalled.
    let crash_after = feed.len() - 10;
    let dir = temp_ckpt_dir("stall-crash");
    let recovered = crash_and_recover_seq(w, &feed, cfg, &dir, 31, crash_after);
    assert_eq!(recovered.metrics.restores, 1);
    assert_run_equiv("stalled at the crash", &golden, &recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden_dir);
}

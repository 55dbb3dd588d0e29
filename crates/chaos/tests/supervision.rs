//! Shard supervision and typed failure paths: injected faults surface as
//! structured [`ExecError`]s — never a process abort — and surviving shards
//! drain before the failure is reported.

use cjq_chaos::{bundled_workloads, Workload};
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::value::Value;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, StateBudget};
use cjq_stream::fault::PanicSink;
use cjq_stream::guard::AdmissionPolicy;
use cjq_stream::parallel::Sharded;
use cjq_stream::sink::CollectSink;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use cjq_stream::Engine;

const SHARDS: usize = 4;

fn auction() -> Workload {
    bundled_workloads().remove(0)
}

fn compile_sharded(w: &Workload, cfg: ExecConfig) -> Sharded<Executor> {
    let plan = Plan::mjoin_all(&w.query);
    Sharded::<Executor>::compile(&w.query, &w.schemes, &plan, cfg, SHARDS).expect("compiles")
}

/// A panic injected into one shard's sink comes back as
/// [`ExecError::ShardPanicked`] naming that shard, and the surviving shards
/// drain and finish instead of deadlocking on a closed channel.
#[test]
fn injected_shard_panic_is_reported_not_aborted() {
    let w = auction();
    // First find a shard that actually emits results, so arming it is
    // guaranteed to fire.
    let sharded = compile_sharded(&w, ExecConfig::default());
    let (_, sinks) = sharded
        .try_run_with_sinks(&w.feed, |_| CollectSink::new())
        .expect("clean run succeeds");
    let victim = sinks
        .iter()
        .position(|s| !s.rows.is_empty())
        .expect("some shard emits results");

    let err = compile_sharded(&w, ExecConfig::default())
        .try_run_with_sinks(&w.feed, |shard| {
            if shard == victim {
                PanicSink::armed()
            } else {
                PanicSink::default()
            }
        })
        .expect_err("armed shard must fail the run");
    match err {
        ExecError::ShardPanicked { shard, ref message } => {
            assert_eq!(shard, victim, "failure must name the panicking shard");
            assert!(
                message.contains("PanicSink"),
                "panic message must survive: {message}"
            );
        }
        other => panic!("expected ShardPanicked, got {other}"),
    }
    // The panicking legacy entry point reports the same error as a panic
    // message rather than an abort; std::panic::catch_unwind proves the
    // process stays unwound-but-alive.
    let caught = std::panic::catch_unwind(|| {
        compile_sharded(&w, ExecConfig::default())
            .try_run_with_sinks(&w.feed, |shard| {
                if shard == victim {
                    PanicSink::armed()
                } else {
                    PanicSink::default()
                }
            })
            .unwrap()
    });
    assert!(caught.is_err(), "legacy entry point panics with the error");
}

/// Every armed shard panicking still yields a structured error (the lowest
/// shard index wins the report).
#[test]
fn all_shards_panicking_reports_the_first() {
    let w = auction();
    let err = compile_sharded(&w, ExecConfig::default())
        .try_run_with_sinks(&w.feed, |_| PanicSink::armed())
        .expect_err("every shard fails");
    assert!(
        matches!(err, ExecError::ShardPanicked { .. }),
        "expected ShardPanicked, got {err}"
    );
}

/// Under `AdmissionPolicy::Strict` a violating tuple is a typed error: the
/// sequential executor reports `ExecError::Admission`, the sharded one wraps
/// it with the failing shard's index.
#[test]
fn strict_admission_surfaces_as_typed_errors() {
    let (q, r) = cjq_core::fixtures::auction();
    let plan = Plan::mjoin_all(&q);
    let cfg = ExecConfig {
        admission: AdmissionPolicy::Strict,
        ..ExecConfig::default()
    };
    let feed = Feed::from_elements(vec![
        Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), Value::Int(5))]).into(),
        // Violates the punctuation above.
        Tuple::of(1, vec![Value::Int(1), Value::Int(5), Value::Int(1)]).into(),
    ]);

    let err = Executor::compile(&q, &r, &plan, cfg)
        .expect("compiles")
        .try_run(&feed)
        .expect_err("strict admission rejects the violation");
    assert!(
        matches!(err, ExecError::Admission { .. }),
        "expected Admission, got {err}"
    );

    let err = Sharded::<Executor>::compile(&q, &r, &plan, cfg, SHARDS)
        .expect("compiles")
        .try_run(&feed)
        .expect_err("strict admission rejects the violation in a shard");
    match err {
        ExecError::Shard { shard, source } => {
            assert!(shard < SHARDS);
            assert!(
                matches!(*source, ExecError::Admission { .. }),
                "shard error must wrap the admission fault, got {source}"
            );
        }
        other => panic!("expected Shard wrapping Admission, got {other}"),
    }
}

/// A hard state budget surfaces as `ExecError::StateBudgetExceeded` once
/// purging cannot get live state back under the ceiling.
#[test]
fn hard_state_budget_is_a_typed_error() {
    let (q, r) = cjq_core::fixtures::auction();
    let plan = Plan::mjoin_all(&q);
    // No punctuations at all: state only grows, so a small budget must trip.
    let feed_cfg = cjq_workload::auction::AuctionConfig {
        n_items: 40,
        item_punctuations: false,
        bid_punctuations: false,
        ..Default::default()
    };
    let feed = cjq_workload::auction::generate(&feed_cfg);
    let cfg = ExecConfig {
        state_budget: Some(StateBudget::hard(32)),
        ..ExecConfig::default()
    };
    let err = Executor::compile(&q, &r, &plan, cfg)
        .expect("compiles")
        .try_run(&feed)
        .expect_err("unpunctuated feed must blow a 32-row budget");
    match err {
        ExecError::StateBudgetExceeded { live, budget, .. } => {
            assert!(live > budget, "reported live {live} within budget {budget}");
            assert_eq!(budget, 32);
        }
        other => panic!("expected StateBudgetExceeded, got {other}"),
    }
}

//! Shard supervision and typed failure paths: injected faults surface as
//! structured [`ExecError`]s — never a process abort — and surviving shards
//! drain before the failure is reported.

use cjq_chaos::{bundled_workloads, Workload};
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::value::Value;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor};
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
    let (q, r) = &w.spec;
    Sharded::<Executor>::compile(q, r, &Plan::mjoin_all(q), cfg, SHARDS).expect("compiles")
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
        .unwrap();
    let victim = sinks.iter().position(|s| !s.rows.is_empty());
    let victim = victim.expect("a shard emits");
    let sink = |shard| {
        if shard == victim {
            PanicSink::armed()
        } else {
            PanicSink::default()
        }
    };
    let run = || compile_sharded(&w, ExecConfig::default()).try_run_with_sinks(&w.feed, sink);
    match run().expect_err("armed shard must fail the run") {
        ExecError::ShardPanicked { shard, ref message } => {
            assert_eq!(shard, victim, "failure must name the panicking shard");
            assert!(message.contains("PanicSink"), "lost: {message}");
        }
        other => panic!("expected ShardPanicked, got {other}"),
    }
    // Unwrapping reports the same error as a panic message rather than an
    // abort; std::panic::catch_unwind proves the process stays
    // unwound-but-alive.
    let caught = std::panic::catch_unwind(|| run().unwrap());
    assert!(caught.is_err(), "unwrapping panics with the error");
}

/// Every armed shard panicking still yields a structured error (the lowest
/// shard index wins the report).
#[test]
fn all_shards_panicking_reports_the_first() {
    let w = auction();
    let sharded = compile_sharded(&w, ExecConfig::default());
    let run = sharded.try_run_with_sinks(&w.feed, |_| PanicSink::armed());
    let err = run.unwrap_err();
    assert!(matches!(err, ExecError::ShardPanicked { .. }), "got {err}");
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
    let closed = [(AttrId(1), Value::Int(5))];
    let feed = Feed::from_elements(vec![
        Punctuation::with_constants(StreamId(1), 3, &closed).into(),
        // Violates the punctuation above.
        Tuple::of(1, vec![Value::Int(1), Value::Int(5), Value::Int(1)]).into(),
    ]);
    let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
    let err = exec.try_run(&feed).unwrap_err();
    assert!(matches!(err, ExecError::Admission { .. }), "got {err}");
    let fleet = Sharded::<Executor>::compile(&q, &r, &plan, cfg, SHARDS).unwrap();
    match fleet.try_run(&feed).unwrap_err() {
        ExecError::Shard { shard, source } => {
            let admission = matches!(*source, ExecError::Admission { .. });
            assert!(shard < SHARDS && admission, "got {source}");
        }
        other => panic!("expected Shard wrapping Admission, got {other}"),
    }
}

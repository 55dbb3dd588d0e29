//! Chaos equivalence: fault-injected feeds must not change join outputs.
//!
//! A punctuation is a promise that only ever *removes* future work — purging
//! state, rejecting violating tuples. On a violation-free feed, dropping,
//! duplicating, or delaying punctuations (or swapping provably-safe adjacent
//! pairs) therefore cannot change which tuples join; only purge progress
//! moves. Every faulted feed here is also a differential case: the reference
//! oracle judges its purges and refusals on every plane. Seeds are fixed so
//! failures replay exactly.

use cjq_chaos::differential::{sorted, Case, Checked};
use cjq_chaos::{bundled_workloads, Workload};
use cjq_core::plan::Plan;
use cjq_core::value::Value;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult};
use cjq_stream::fault::{Fault, FaultPlan};
use cjq_stream::parallel::{Sharded, ShardedRunResult};
use cjq_stream::source::Feed;
use cjq_stream::Engine;

const SEED: u64 = 0xC4A0_5EED;
const SHARDS: usize = 4;
const CADENCES: [PurgeCadence; 2] = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 64 }];

fn check(w: &Workload, feed: Feed, cadence: PurgeCadence) -> Checked {
    let case = Case::new(w.name, w.spec.clone(), feed);
    case.with(|c| (c.cfg.cadence, c.shards) = (cadence, vec![SHARDS]))
        .check()
}

/// The executor's and the four-shard fleet's plain runs of `feed`.
fn runs(w: &Workload, feed: &Feed, cadence: PurgeCadence) -> (RunResult, ShardedRunResult) {
    let ((q, r), mut cfg) = (&w.spec, ExecConfig::default());
    cfg.cadence = cadence;
    let plan = Plan::mjoin_all(q);
    let seq = Executor::compile(q, r, &plan, cfg).unwrap().run(feed);
    let sharded = Sharded::<Executor>::compile(q, r, &plan, cfg, SHARDS).unwrap();
    (seq, sharded.run(feed))
}

/// Punctuation-only fault plans: tuple order is untouched, so outputs must
/// be *byte-identical* to the fault-free run, in order.
#[test]
fn punctuation_faults_leave_outputs_byte_identical() {
    let plan = |fault| FaultPlan::new(SEED).with(fault);
    let combined = plan(Fault::DropPunctuations { prob: 0.2 })
        .with(Fault::DuplicatePunctuations { prob: 0.2 })
        .with(Fault::DelayPunctuations { prob: 0.3, by: 5 });
    let duplicate = plan(Fault::DuplicatePunctuations { prob: 0.3 });
    let plans = [
        ("drop", plan(Fault::DropPunctuations { prob: 0.3 })),
        ("duplicate", duplicate),
        ("delay", plan(Fault::DelayPunctuations { prob: 0.5, by: 7 })),
        ("drop+dup+delay", combined),
    ];
    for w in &bundled_workloads() {
        for cadence in CADENCES {
            let (clean_seq, clean_sharded) = runs(w, &w.feed, cadence);
            let (seq, sharded) = (sorted(&clean_seq.outputs), sorted(&clean_sharded.outputs));
            assert_eq!(seq, sharded, "[{}] {cadence:?}", w.name);
            for (fname, plan) in &plans {
                let at = format!("[{}/{cadence:?}/{fname}]", w.name);
                let faulted = plan.apply(&w.feed);
                let (seq, sharded) = runs(w, &faulted, cadence);
                assert_eq!(seq.outputs, clean_seq.outputs, "{at} sequential");
                assert_eq!(sharded.outputs, clean_sharded.outputs, "{at} sharded");
                assert_eq!(seq.metrics.violations, 0, "{at} fabricated a violation");
            }
            // The combined plan, judged on every plane.
            let _ = check(w, plans[3].1.apply(&w.feed), cadence);
        }
    }
}

#[test]
fn safe_adjacent_reorders_preserve_the_output_multiset() {
    let plan = FaultPlan::new(SEED).with(Fault::ReorderAdjacent { prob: 0.4 });
    for (i, w) in bundled_workloads().iter().enumerate() {
        let cadence = CADENCES[i % 2];
        let clean = sorted(&runs(w, &w.feed, cadence).0.outputs);
        let seq = check(w, plan.apply(&w.feed), cadence).solo.unwrap();
        assert_eq!(sorted(&seq.outputs), clean, "[{}] multiset changed", w.name);
        assert_eq!(seq.metrics.violations, 0, "[{}] violation", w.name);
    }
}

/// The quarantine guarantee: corrupting a tuple costs exactly that tuple.
/// A feed with truncated tuples must produce byte-identical outputs to the
/// feed with those same tuples dropped ([`Fault::DropTuples`] consumes
/// randomness in lockstep with [`Fault::TruncateTuples`]), and every
/// corrupted tuple must be accounted for in `Metrics::quarantined`, once.
#[test]
fn quarantine_never_loses_result_tuples() {
    let tuples = |feed: &Feed| (feed.len() - feed.punctuation_count()) as u64;
    let truncate = FaultPlan::new(SEED).with(Fault::TruncateTuples { prob: 0.25 });
    let drop = FaultPlan::new(SEED).with(Fault::DropTuples { prob: 0.25 });
    for w in &bundled_workloads() {
        let (truncated, dropped) = (truncate.apply(&w.feed), drop.apply(&w.feed));
        let corrupted = tuples(&w.feed) - tuples(&dropped);
        assert!(corrupted > 0, "[{}] fault plan never fired", w.name);
        let checked = check(w, truncated, PurgeCadence::Eager);
        let (seq_t, sh_t) = (checked.solo.expect("admitted"), &checked.sharded[0]);
        let (seq_d, sh_d) = runs(w, &dropped, PurgeCadence::Eager);
        let at = format!("[{}]", w.name);
        assert_eq!(seq_t.outputs, seq_d.outputs, "{at} lost a result");
        assert_eq!(sorted(&sh_t.outputs), sorted(&sh_d.outputs), "{at} sharded");
        for m in [&seq_t.metrics, &sh_t.metrics] {
            // Every corrupted tuple counted once.
            let want = (corrupted, seq_d.metrics.tuples_in);
            assert_eq!((m.quarantined, m.tuples_in), want, "{at}");
        }
    }
}

/// The merged guard counts of a faulted four-shard run, pinned to the numbers
/// the commit before the `Metrics` field table printed for the same seed
/// (there `violations_by_stream`, `quarantined_by_reason` and
/// `quarantined_by_stream` were stored vectors the merge re-derived; now they
/// are read off the two quarantine matrices). The feed truncates tuples,
/// delays punctuations, then replays 40 early tuples (violations) and 10
/// early punctuations: on trades those are regressive heartbeats, broadcast
/// and refused by each of the four shards (physical, 4 × 10); fig5-keyed and
/// sensor cover a broadcast stream on the tuple side (logical, counted once).
/// The auction row moved when §5.1 punctuation purging became the engine's
/// behaviour: both streams punctuate `itemid`, so a closed and drained
/// auction's two entries are forgotten, and the 40 replayed tuples — bids and
/// items of such auctions — are admitted, not refused (quarantined 101 → 61,
/// violations [8, 32] → none); sequentially and on every shard alike. The
/// other four queries punctuate one side of each edge: nothing is forgotten.
#[test]
fn sharded_guard_counts_match_the_stored_vector_merge() {
    fn trimmed(v: &[u64]) -> &[u64] {
        let len = v.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
        &v[..len]
    }
    // (workload, quarantined, violations by stream, by reason, by stream)
    type Pinned = (&'static str, u64, [&'static [u64]; 3]);
    let pinned: [Pinned; 5] = [
        ("auction", 61, [&[], &[0, 61], &[9, 52]]),
        ("sensor", 117, [&[27, 9, 4], &[40, 77], &[79, 22, 16]]),
        ("network", 115, [&[23, 17], &[40, 75], &[68, 47]]),
        ("trades", 163, [&[16, 24], &[40, 83, 0, 40], &[69, 94]]),
        ("fig5-keyed", 66, [&[14, 13, 13], &[40, 26], &[20, 22, 24]]),
    ];
    let faults = FaultPlan::new(SEED).with(Fault::TruncateTuples { prob: 0.15 });
    let faults = faults.with(Fault::DelayPunctuations { prob: 0.5, by: 7 });
    for (w, (name, quarantined, [by_violation, by_reason, by_stream])) in
        bundled_workloads().iter().zip(pinned)
    {
        assert_eq!(w.name, name);
        let faulted = faults.apply(&w.feed);
        let clean = w.feed.elements();
        let early = |puncts: bool, n: usize| {
            let of_kind = clean.iter().filter(move |e| e.is_punctuation() == puncts);
            of_kind.take(n).cloned()
        };
        let mut elements = faulted.elements().to_vec();
        elements.extend(early(false, 40));
        elements.extend(early(true, 10));
        let (seq, sharded) = runs(w, &Feed::from_elements(elements), PurgeCadence::Eager);
        let m = sharded.metrics;
        assert_eq!(m.quarantined, quarantined, "[{name}] quarantined");
        let violations: u64 = by_violation.iter().sum();
        let both = (m.violations, seq.metrics.violations);
        assert_eq!(both, (violations, violations), "[{name}]");
        assert_eq!(trimmed(&m.violations_by_stream()), by_violation, "[{name}]");
        assert_eq!(trimmed(&m.quarantined_by_reason()), by_reason, "[{name}]");
        assert_eq!(trimmed(&m.quarantined_by_stream()), by_stream, "[{name}]");
    }
}

/// Dead-letter capture: every quarantined element shows up in the attached
/// dead-letter sink, rows tagged with the reason code and source stream.
#[test]
fn dead_letter_sink_receives_every_quarantined_element() {
    use cjq_stream::guard::AdmissionFault;
    use cjq_stream::sink::{CountSink, OutputBuffer, ResultSink};
    use std::sync::{Arc, Mutex};

    /// A sink that shares its captured rows with the test body.
    #[derive(Debug)]
    struct SharedSink(Arc<Mutex<Vec<Vec<Value>>>>);
    impl ResultSink for SharedSink {
        fn accept(&mut self, buf: &OutputBuffer) {
            let mut rows = self.0.lock().unwrap();
            rows.extend(buf.rows().map(<[Value]>::to_vec));
        }
        fn finish(&mut self) {}
    }

    let w = &bundled_workloads()[0]; // auction
    let faults = FaultPlan::new(SEED).with(Fault::TruncateTuples { prob: 0.25 });
    let truncated = faults.apply(&w.feed);
    let captured = Arc::new(Mutex::new(Vec::new()));
    let (q, r) = &w.spec;
    let exec = Executor::compile(q, r, &Plan::mjoin_all(q), ExecConfig::default()).unwrap();
    let exec = exec.with_dead_letter(Box::new(SharedSink(Arc::clone(&captured))));
    let mut sink = CountSink::new();
    let result = exec.try_run_with_sink(&truncated, &mut sink).unwrap();
    let quarantined = result.metrics.quarantined;
    assert!(quarantined > 0, "fault plan never fired");
    // The dead letter captures exactly the quarantined elements, each a
    // truncation's arity mismatch, then its source stream.
    let rows = captured.lock().unwrap();
    assert_eq!(rows.len() as u64, quarantined);
    let stream = cjq_core::schema::StreamId(0);
    let mismatch = AdmissionFault::ArityMismatch {
        stream,
        expected: 0,
        got: 0,
    };
    let arity = Value::Int(mismatch.code() as i64);
    for row in rows.iter() {
        let tagged = matches!(row.get(1), Some(Value::Int(s)) if *s >= 0);
        assert!(row.first() == Some(&arity) && tagged, "{row:?}");
    }
}

/// The workload list itself: every family present, feeds non-trivial.
#[test]
fn bundled_workloads_are_nontrivial() {
    let ws = bundled_workloads();
    let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
    let expected = ["auction", "sensor", "network", "trades", "fig5-keyed"];
    assert_eq!(names, expected);
    for w in &ws {
        assert!(w.feed.len() > 100, "[{}] feed too small to stress", w.name);
        let clean = runs(w, &w.feed, PurgeCadence::Eager).0;
        assert!(clean.metrics.outputs > 0, "[{}] no outputs", w.name);
        assert_eq!(clean.metrics.violations, 0, "[{}] unclean base", w.name);
    }
}

//! Chaos equivalence: fault-injected feeds must not change join outputs.
//!
//! A punctuation is a promise that only ever *removes* future work — purging
//! state, rejecting violating tuples. On a violation-free feed, dropping,
//! duplicating, or delaying punctuations (or swapping provably-safe adjacent
//! pairs) therefore cannot change which tuples join; only purge progress
//! moves. The suite pins that down across every bundled workload, both
//! execution modes (sequential, four shards), and both purge cadences, with
//! fixed seeds so failures replay exactly.

use cjq_chaos::{bundled_workloads, run_seq, run_sharded, Workload};
use cjq_core::value::Value;
use cjq_stream::exec::{ExecConfig, PurgeCadence};
use cjq_stream::fault::{Fault, FaultPlan};

const SEED: u64 = 0xC4A0_5EED;
const SHARDS: usize = 4;

fn cadences() -> [(&'static str, PurgeCadence); 2] {
    [
        ("eager", PurgeCadence::Eager),
        ("lazy", PurgeCadence::Lazy { batch: 64 }),
    ]
}

fn cfg_with(cadence: PurgeCadence) -> ExecConfig {
    ExecConfig {
        cadence,
        ..ExecConfig::default()
    }
}

/// Punctuation-only fault plans: tuple order is untouched, so outputs must
/// be *byte-identical* to the fault-free run, in order.
fn punct_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop",
            FaultPlan::new(SEED).with(Fault::DropPunctuations { prob: 0.3 }),
        ),
        (
            "duplicate",
            FaultPlan::new(SEED).with(Fault::DuplicatePunctuations { prob: 0.3 }),
        ),
        (
            "delay",
            FaultPlan::new(SEED).with(Fault::DelayPunctuations { prob: 0.5, by: 7 }),
        ),
        (
            "drop+dup+delay",
            FaultPlan::new(SEED)
                .with(Fault::DropPunctuations { prob: 0.2 })
                .with(Fault::DuplicatePunctuations { prob: 0.2 })
                .with(Fault::DelayPunctuations { prob: 0.3, by: 5 }),
        ),
    ]
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_unstable();
    rows
}

#[test]
fn punctuation_faults_leave_outputs_byte_identical() {
    for w in &bundled_workloads() {
        for (cname, cadence) in cadences() {
            let cfg = cfg_with(cadence);
            let clean_seq = run_seq(w, &w.feed, cfg);
            let clean_sharded = run_sharded(w, &w.feed, cfg, SHARDS);
            assert_eq!(
                sorted(clean_seq.outputs.clone()),
                sorted(clean_sharded.outputs.clone()),
                "[{}/{cname}] sharded baseline disagrees with sequential",
                w.name
            );
            for (fname, plan) in punct_plans() {
                let faulted = plan.apply(&w.feed);
                let seq = run_seq(w, &faulted, cfg);
                assert_eq!(
                    seq.outputs, clean_seq.outputs,
                    "[{}/{cname}/{fname}] sequential outputs changed under punctuation faults",
                    w.name
                );
                let sharded = run_sharded(w, &faulted, cfg, SHARDS);
                assert_eq!(
                    sharded.outputs, clean_sharded.outputs,
                    "[{}/{cname}/{fname}] sharded outputs changed under punctuation faults",
                    w.name
                );
                assert_eq!(
                    seq.metrics.violations, 0,
                    "[{}/{cname}/{fname}] punctuation faults must not fabricate violations",
                    w.name
                );
            }
        }
    }
}

#[test]
fn safe_adjacent_reorders_preserve_the_output_multiset() {
    let plan = FaultPlan::new(SEED).with(Fault::ReorderAdjacent { prob: 0.4 });
    for w in &bundled_workloads() {
        for (cname, cadence) in cadences() {
            let cfg = cfg_with(cadence);
            let clean = sorted(run_seq(w, &w.feed, cfg).outputs);
            let faulted = plan.apply(&w.feed);
            let seq = run_seq(w, &faulted, cfg);
            assert_eq!(
                sorted(seq.outputs.clone()),
                clean,
                "[{}/{cname}] sequential multiset changed under safe reorder",
                w.name
            );
            assert_eq!(
                seq.metrics.violations, 0,
                "[{}/{cname}] safe reorder fabricated a violation",
                w.name
            );
            let sharded = run_sharded(w, &faulted, cfg, SHARDS);
            assert_eq!(
                sorted(sharded.outputs),
                clean,
                "[{}/{cname}] sharded multiset changed under safe reorder",
                w.name
            );
        }
    }
}

/// The quarantine guarantee: corrupting a tuple costs exactly that tuple.
/// A feed with truncated tuples must produce byte-identical outputs to the
/// feed with those same tuples dropped ([`Fault::DropTuples`] consumes
/// randomness in lockstep with [`Fault::TruncateTuples`]), and every
/// corrupted tuple must be accounted for in `Metrics::quarantined`.
#[test]
fn quarantine_never_loses_result_tuples() {
    fn tuple_count(feed: &cjq_stream::source::Feed) -> u64 {
        feed.elements()
            .iter()
            .filter(|e| !e.is_punctuation())
            .count() as u64
    }
    for w in &bundled_workloads() {
        let cfg = cfg_with(PurgeCadence::Eager);
        let truncated = FaultPlan::new(SEED)
            .with(Fault::TruncateTuples { prob: 0.25 })
            .apply(&w.feed);
        let dropped = FaultPlan::new(SEED)
            .with(Fault::DropTuples { prob: 0.25 })
            .apply(&w.feed);
        let corrupted = tuple_count(&w.feed) - tuple_count(&dropped);
        assert!(corrupted > 0, "[{}] fault plan never fired", w.name);

        let seq_t = run_seq(w, &truncated, cfg);
        let seq_d = run_seq(w, &dropped, cfg);
        assert_eq!(
            seq_t.outputs, seq_d.outputs,
            "[{}] quarantining corrupted tuples cost a result tuple",
            w.name
        );
        assert_eq!(
            seq_t.metrics.quarantined, corrupted,
            "[{}] every corrupted tuple must be quarantined (sequential)",
            w.name
        );
        assert_eq!(seq_t.metrics.tuples_in, seq_d.metrics.tuples_in);

        let sh_t = run_sharded(w, &truncated, cfg, SHARDS);
        let sh_d = run_sharded(w, &dropped, cfg, SHARDS);
        assert_eq!(
            sorted(sh_t.outputs),
            sorted(sh_d.outputs),
            "[{}] sharded quarantine cost a result tuple",
            w.name
        );
        assert_eq!(
            sh_t.metrics.quarantined, corrupted,
            "[{}] the sharded merge must count each corrupted tuple once",
            w.name
        );
        assert_eq!(sh_t.metrics.tuples_in, sh_d.metrics.tuples_in);
        assert_eq!(sh_t.metrics.tuples_in, seq_t.metrics.tuples_in);
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
    use cjq_stream::source::Feed;
    fn trimmed(v: &[u64]) -> &[u64] {
        let len = v.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
        &v[..len]
    }
    // (workload, quarantined, violations by stream, by reason, by stream)
    type Pinned = (
        &'static str,
        u64,
        &'static [u64],
        &'static [u64],
        &'static [u64],
    );
    let pinned: [Pinned; 5] = [
        ("auction", 61, &[], &[0, 61], &[9, 52]),
        ("sensor", 117, &[27, 9, 4], &[40, 77], &[79, 22, 16]),
        ("network", 115, &[23, 17], &[40, 75], &[68, 47]),
        ("trades", 163, &[16, 24], &[40, 83, 0, 40], &[69, 94]),
        ("fig5-keyed", 66, &[14, 13, 13], &[40, 26], &[20, 22, 24]),
    ];
    for (w, (name, quarantined, by_violation, by_reason, by_stream)) in
        bundled_workloads().iter().zip(pinned)
    {
        assert_eq!(w.name, name);
        let faulted = FaultPlan::new(SEED)
            .with(Fault::TruncateTuples { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.5, by: 7 })
            .apply(&w.feed);
        let early = |puncts: bool, n: usize| {
            let of_kind = w
                .feed
                .elements()
                .iter()
                .filter(move |e| e.is_punctuation() == puncts);
            of_kind.take(n).cloned()
        };
        let mut elements = faulted.elements().to_vec();
        elements.extend(early(false, 40));
        elements.extend(early(true, 10));
        let feed = Feed::from_elements(elements);
        let m = run_sharded(w, &feed, cfg_with(PurgeCadence::Eager), SHARDS).metrics;
        assert_eq!(m.quarantined, quarantined, "[{name}] quarantined");
        let violations: u64 = by_violation.iter().sum();
        assert_eq!(m.violations, violations, "[{name}] violations");
        let seq = run_seq(w, &feed, cfg_with(PurgeCadence::Eager)).metrics;
        assert_eq!(seq.violations, violations, "[{name}] sequential violations");
        assert_eq!(
            trimmed(&m.violations_by_stream()),
            by_violation,
            "[{name}] violations by stream"
        );
        assert_eq!(
            trimmed(&m.quarantined_by_reason()),
            by_reason,
            "[{name}] quarantined by reason"
        );
        assert_eq!(
            trimmed(&m.quarantined_by_stream()),
            by_stream,
            "[{name}] quarantined by stream"
        );
    }
}

/// Dead-letter capture: every quarantined element shows up in the attached
/// dead-letter sink, rows tagged with the reason code and source stream.
#[test]
fn dead_letter_sink_receives_every_quarantined_element() {
    use cjq_core::plan::Plan;
    use cjq_stream::exec::Executor;
    use cjq_stream::guard::AdmissionFault;
    use cjq_stream::sink::{CountSink, OutputBuffer, ResultSink};
    use std::sync::{Arc, Mutex};

    /// A sink that shares its captured rows with the test body.
    #[derive(Debug)]
    struct SharedSink(Arc<Mutex<Vec<Vec<Value>>>>);
    impl ResultSink for SharedSink {
        fn accept(&mut self, buf: &OutputBuffer) {
            let mut rows = self.0.lock().unwrap();
            for row in buf.rows() {
                rows.push(row.to_vec());
            }
        }
        fn finish(&mut self) {}
    }

    let w = &bundled_workloads()[0]; // auction
    let truncated = FaultPlan::new(SEED)
        .with(Fault::TruncateTuples { prob: 0.25 })
        .apply(&w.feed);
    let captured = Arc::new(Mutex::new(Vec::new()));
    let plan = Plan::mjoin_all(&w.query);
    let exec = Executor::compile(&w.query, &w.schemes, &plan, ExecConfig::default())
        .expect("auction compiles")
        .with_dead_letter(Box::new(SharedSink(Arc::clone(&captured))));
    let mut sink = CountSink::new();
    let result = exec.try_run_with_sink(&truncated, &mut sink).unwrap();
    assert!(result.metrics.quarantined > 0, "fault plan never fired");

    let rows = captured.lock().unwrap();
    assert_eq!(
        rows.len() as u64,
        result.metrics.quarantined,
        "dead letter must capture exactly the quarantined elements"
    );
    for row in rows.iter() {
        let Some(Value::Int(code)) = row.first() else {
            panic!("dead-letter row must lead with the reason code: {row:?}");
        };
        assert_eq!(
            *code,
            AdmissionFault::ArityMismatch {
                stream: cjq_core::schema::StreamId(0),
                expected: 0,
                got: 0,
            }
            .code() as i64,
            "truncation faults are arity mismatches"
        );
        assert!(
            matches!(row.get(1), Some(Value::Int(s)) if *s >= 0),
            "second column is the source stream: {row:?}"
        );
    }
}

/// The workload list itself: every family present, feeds non-trivial.
#[test]
fn bundled_workloads_are_nontrivial() {
    let ws: Vec<Workload> = bundled_workloads();
    let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        ["auction", "sensor", "network", "trades", "fig5-keyed"]
    );
    for w in &ws {
        assert!(w.feed.len() > 100, "[{}] feed too small to stress", w.name);
        let clean = run_seq(w, &w.feed, ExecConfig::default());
        assert!(clean.metrics.outputs > 0, "[{}] no outputs", w.name);
        assert_eq!(clean.metrics.violations, 0, "[{}] unclean base", w.name);
    }
}

//! Executor: compiles an execution plan into an operator tree and drives it
//! over a punctuated feed.
//!
//! An executor is a [`QueryRegistry`] sealed with its query as the one
//! tenant — the engine, its monitors, its snapshot and its delivery are the
//! registry's: root results go to a caller's sink (or the tenant's record)
//! and an optional [`GroupBy`] stage, the tenant's group stage, over the
//! root output (the paper's Figure 1 pipeline). Purge cycles run eagerly
//! (once per punctuation run), lazily (batched), or never, per
//! [`PurgeCadence`] — the Plan-Parameter-II knob of §5.2.

use cjq_core::error::{CoreError, CoreResult};
use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrRef, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{
    CheckpointStore, Dec, Enc, Fingerprint, InputCursor, SnapshotKind, SnapshotResult,
};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::groupby::{Aggregate, GroupBy};
use crate::guard::{AdmissionPolicy, DeadLetter};
use crate::join::JoinOperator;
use crate::metrics::Metrics;
use crate::pipeline::{Checkpointed, Engine};
use crate::purge::{PurgeEngine, PurgeScope};
use crate::registry::{QueryId, QueryRegistry, RegistryResult};
use crate::sink::ResultSink;
use crate::source::{ElementBatch, Feed};
use crate::tier::TierConfig;

/// When purge cycles run (Plan Parameter II of §5.2, after \[6\]). A cycle
/// purges rows to their fixpoint, then forgets punctuations (§5.1) once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PurgeCadence {
    /// Never run a purge cycle (the no-punctuation baseline: state grows
    /// unboundedly). A row dead as it arrives is still never stored.
    Never,
    /// Minimal memory: a punctuation makes a cycle *owed*, paid before the
    /// next tuple, a sample, an admission or a retirement, at
    /// [`Engine::purge_cycle`] and finish, and at once under a lifespan. A
    /// punctuation run pays one; a push call or a commit pays none (the
    /// snapshot carries it): the element sequence alone fixes the schedule.
    #[default]
    Eager,
    /// Purge every `batch` elements (better throughput, more memory).
    Lazy {
        /// Elements between purge cycles.
        batch: usize,
    },
}

/// What the bounded-state watchdog does when live join state exceeds the
/// budget (after a purge cycle and, when tiered, a demotion). One variant:
/// the type and [`StateBudget::policy`] stay only because `perfbench` builds
/// the literal; both go with the next `benchmark` issue (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Fail the run with [`ExecError::StateBudgetExceeded`].
    #[default]
    HardError,
}

/// A hard ceiling on live join-state rows, enforced after every element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBudget {
    /// Maximum live rows across all operator join states.
    pub max_rows: usize,
    /// What to do on overrun.
    pub policy: BudgetPolicy,
}

impl StateBudget {
    /// A hard-error budget of `max_rows`.
    #[must_use]
    pub fn hard(max_rows: usize) -> Self {
        StateBudget {
            max_rows,
            policy: BudgetPolicy::HardError,
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Purge model: per-operator (plan-dependent) or query-level.
    pub scope: PurgeScope,
    /// Purge cadence.
    pub cadence: PurgeCadence,
    /// §5.1 punctuation lifespan (sequence ticks), if any.
    pub punct_lifespan: Option<u64>,
    /// Sliding-window semantics: tuples older than this many elements are
    /// evicted regardless of punctuations (the window-join baseline of
    /// \[3, 7\]). `None` = pure punctuation semantics. Window eviction can
    /// drop tuples that would still join: results may be incomplete — that
    /// is the baseline's defining trade-off.
    pub window: Option<u64>,
    /// Sample state sizes every this many elements.
    pub sample_every: usize,
    /// Conservative bound on required-combination enumeration per step (≥ 1).
    pub coverage_limit: usize,
    /// Keep result tuples in memory (disable for large benches).
    pub record_outputs: bool,
    /// Runtime certificate verification (see [`crate::certify`]): assert at
    /// compile time that compiled purge recipes match the static
    /// purgeability certificates, and after every cycle (rows being at
    /// their fixpoint) walk every recipe on every live row: its own-cells
    /// verdict must agree with the chain walk, and no provably-dead tuple may
    /// still be live. Defaults to the `verify-certificates` cargo feature.
    pub verify_certificates: bool,
    /// Admission-guard policy for malformed or invariant-breaking elements
    /// (see [`crate::guard`]). The default, [`AdmissionPolicy::Quarantine`],
    /// preserves the legacy drop-and-count behavior for violating tuples and
    /// additionally counts every refusal in `Metrics::quarantined`.
    pub admission: AdmissionPolicy,
    /// Bounded-state watchdog: a hard ceiling on live join-state rows,
    /// checked after every element (the fallible `try_*` paths are required
    /// for [`BudgetPolicy::HardError`] to surface as an error instead of a
    /// panic). `None` disables the watchdog.
    pub state_budget: Option<StateBudget>,
    /// Stall detector: a finished run reports in `Metrics::stalled_streams`
    /// every punctuated stream whose last admitted punctuation lies more
    /// than this many elements back. `None` disables detection.
    pub stall_budget: Option<u64>,
    /// Cold-tier state spilling (see [`crate::tier`]): when the
    /// [`ExecConfig::state_budget`] trips and a purge cycle cannot shrink the
    /// hot state under the cap, least-recently-probed rows are demoted into
    /// on-disk columnar segments *before* the budget error is raised — the
    /// lossless step between purging and failing. Requires a state budget
    /// to ever demote; incompatible with `window` and `punct_lifespan`
    /// (those evict or forget on wall-position grounds the cold tier does
    /// not track). `None` disables tiering.
    pub tiering: Option<TierConfig>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            scope: PurgeScope::Operator,
            cadence: PurgeCadence::Eager,
            punct_lifespan: None,
            window: None,
            sample_every: 64,
            coverage_limit: 100_000,
            record_outputs: true,
            verify_certificates: cfg!(feature = "verify-certificates"),
            admission: AdmissionPolicy::default(),
            state_budget: None,
            stall_budget: None,
            tiering: None,
        }
    }
}

impl ExecConfig {
    /// Refuses an illegal combination of knobs, the first broken rule first:
    /// those no engine runs, and with `tenants` the single-query features a
    /// shared engine cannot honor per tenant (a budget over a shared arena is
    /// honored by lossless demotion, not by failing every tenant).
    /// [`Executor::compile`] returns the error, [`QueryRegistry::new`] panics
    /// with its text.
    pub(crate) fn validate(&self, tenants: bool) -> CoreResult<()> {
        let tiered = self.tiering.is_some();
        let why = if self.coverage_limit == 0 {
            "a coverage limit of 0 keeps rows a tiered run purges: use ≥ 1"
        } else if tiered && (self.window.is_some() || self.punct_lifespan.is_some()) {
            "tiering is incompatible with window eviction and punctuation lifespans: \
             those discard state or coverage on grounds the cold tier does not track"
        } else if tenants && self.window.is_some() {
            "windows are a per-query feature: run the query on a dedicated Executor"
        } else if tenants && self.stall_budget.is_some() {
            "stall budgets are a per-query feature: run the query on a dedicated Executor"
        } else if tenants && self.state_budget.is_some() && !tiered {
            "a registry state budget requires tiering (lossless demotion)"
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidPlan(why.into()))
    }

    /// Feeds every execution knob into a structural fingerprint (see
    /// [`Executor::fingerprint`]): a snapshot only overlays onto an engine
    /// whose config matches knob for knob, since the knobs steer purge
    /// cadence, sampling, and budget decisions that the serialized state
    /// already reflects. `verify_certificates` is left out: the verifier only
    /// asserts, so a snapshot committed with it on resumes with it off.
    pub(crate) fn fingerprint_into(&self, fp: &mut Fingerprint) {
        let (cadence, batch) = match self.cadence {
            PurgeCadence::Never => (0, 0),
            PurgeCadence::Eager => (1, 0),
            PurgeCadence::Lazy { batch } => (2, batch as u64),
        };
        let or_max = |v: Option<u64>| v.unwrap_or(u64::MAX);
        let budget = self.state_budget.map(|b| b.max_rows as u64);
        let words = [
            self.scope as u64,
            cadence,
            batch,
            or_max(self.punct_lifespan),
            or_max(self.window),
            self.sample_every as u64,
            self.coverage_limit as u64,
            u64::from(self.record_outputs),
            self.admission as u64,
            or_max(budget),
            or_max(self.stall_budget),
        ];
        words.into_iter().for_each(|w| fp.word(w));
        match self.tiering {
            Some(t) => {
                fp.word(t.segment_rows as u64);
                fp.word(u64::from(t.low_watermark_pct));
                fp.word(u64::from(t.shard_tag));
            }
            None => fp.word(u64::MAX),
        }
    }
}

/// Final per-operator state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorSnapshot {
    /// The streams the operator spans.
    pub span: Vec<StreamId>,
    /// Live tuples per input port at the end of the run.
    pub port_live: Vec<usize>,
    /// The operator's activity counters.
    pub stats: crate::join::OperatorStats,
}

/// Result of running a feed to completion.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Result tuples (root-operator outputs), if recorded.
    pub outputs: Vec<Vec<Value>>,
    /// Aggregate rows emitted by the group-by stage (punctuation-closed).
    pub aggregates: Vec<Vec<Value>>,
    /// Execution metrics.
    pub metrics: Metrics,
    /// Per-operator snapshots, bottom-up (root last).
    pub operators: Vec<OperatorSnapshot>,
}

/// A compiled, runnable execution plan: a [`QueryRegistry`] sealed with the
/// query as its one tenant. A newtype that forwards to its registry — its
/// result is the tenant's, as a [`RunResult`] — while callers name it
/// (ROADMAP item 2).
#[derive(Debug)]
pub struct Executor(QueryRegistry);

impl Executor {
    /// Compiles `plan` (validated against `query`) into an operator tree.
    ///
    /// The plan may be unsafe — unpurgeable ports simply get no recipe and
    /// grow, which is exactly what the state-growth experiments measure.
    pub fn compile(
        query: &Cjq,
        schemes: &SchemeSet,
        plan: &Plan,
        cfg: ExecConfig,
    ) -> CoreResult<Self> {
        Executor::compile_weighted(query, schemes, plan, cfg, None)
    }

    /// Like [`Executor::compile`], with optional per-scheme punctuation-lag
    /// weights (aligned with `schemes.schemes()`): purge recipes then prefer
    /// low-lag schemes (§5.2 Plan Parameter I).
    pub fn compile_weighted(
        query: &Cjq,
        schemes: &SchemeSet,
        plan: &Plan,
        cfg: ExecConfig,
        weights: Option<&[f64]>,
    ) -> CoreResult<Self> {
        QueryRegistry::sealed(query, schemes, plan, cfg, weights).map(Executor)
    }

    /// Arms per-port bound certificates: `bounds[flat_port]` (op-major,
    /// bottom-up operator order — the order `cjq_core::bounds::
    /// plan_operator_ports` reports) caps the port's live rows; `None`
    /// leaves a port unchecked. Checked on every element, so runs are capped
    /// at one row like under the other state monitors.
    ///
    /// # Panics
    /// Panics if `bounds.len()` differs from the number of flat ports.
    pub fn set_port_bounds(&mut self, bounds: Vec<Option<u64>>) {
        self.0.set_port_bounds(bounds);
    }

    /// Attaches a group-by/aggregation stage over the root operator's output.
    ///
    /// The stage is join-equivalence aware ([`GroupBy::for_query`]): a
    /// punctuation on any attribute join-equivalent to a grouping attribute
    /// can close groups. Delivery is gated on the propagation condition (no
    /// live stored tuple of the punctuated stream still matches), so closed
    /// groups are guaranteed complete. Every scheme that can close groups is
    /// stored, whether or not the query joins on it: a tuple that breaks
    /// such a punctuation is quarantined, never added to an emitted group.
    ///
    /// # Panics
    /// Panics if a grouping/aggregate attribute is not in the root layout.
    #[must_use]
    pub fn with_groupby(mut self, group_by: &[AttrRef], agg: Aggregate) -> Self {
        let root = self.operators().last().expect("at least one operator");
        let layout = root.out_layout().clone();
        let by = GroupBy::for_query(self.query(), layout, group_by, agg);
        self.0.attach_group(by);
        self
    }

    /// Routes quarantined elements to `sink` (see [`crate::guard`]): each is
    /// delivered as a row `[reason_code, stream_id, values...]`. Without a
    /// dead-letter sink quarantined elements are only counted.
    #[must_use]
    pub fn with_dead_letter(mut self, sink: Box<dyn ResultSink + Send>) -> Self {
        self.0.core.dead_letter = DeadLetter::to(sink);
        self
    }

    /// The query this executor runs.
    #[must_use]
    pub fn query(&self) -> &Cjq {
        self.0.query(QueryId(0)).expect("the one tenant")
    }

    /// Total live join-state tuples across all operators, as of the last
    /// purge cycle (see [`PurgeCadence::Eager`]).
    #[must_use]
    pub fn join_state_live(&self) -> usize {
        self.0.join_state_live()
    }

    /// The purge engine (mirror + punctuation stores).
    #[must_use]
    pub fn engine(&self) -> &PurgeEngine {
        self.0.engine().expect("compiled")
    }

    /// The operators, bottom-up (root last).
    pub fn operators(&self) -> impl Iterator<Item = &JoinOperator> {
        self.0.ops()
    }

    /// [`Engine::try_push`], callable without the trait in scope.
    pub fn try_push(&mut self, element: &StreamElement) -> ExecResult<()> {
        Engine::try_push(self, element)
    }

    /// Pushes a gathered micro-batch through the pipeline, draining root
    /// results into `sink` (see [`Engine::try_push`] for the error
    /// contract).
    ///
    /// Equivalent to pushing the batch's elements one at a time: the tuples
    /// between two punctuations flow through the operator cascade as one
    /// segment (capped at purge/sample boundaries), punctuations are
    /// processed individually in order.
    pub fn try_push_batch(
        &mut self,
        batch: &ElementBatch<'_>,
        sink: &mut dyn ResultSink,
    ) -> ExecResult<()> {
        self.0.push_batch_timed(batch, &mut Some(sink))
    }

    /// Rows currently resident in the cold (spilled) tier across all
    /// operators (0 unless [`ExecConfig::tiering`] is set).
    #[must_use]
    pub fn cold_rows(&self) -> usize {
        self.0.cold_rows()
    }

    /// Runs a whole feed, streaming root results into `sink`
    /// (`RunResult::outputs` stays empty — the sink owns the results), and
    /// finishes. [`Engine::try_run`] is this with the executor's own sink.
    pub fn try_run_with_sink(
        mut self,
        feed: &Feed,
        sink: &mut dyn ResultSink,
    ) -> ExecResult<RunResult> {
        self.0.feed(feed, &mut Some(&mut *sink))?;
        sink.finish();
        Ok(self.finish())
    }

    /// [`Engine::finish`], callable without the trait in scope: the
    /// registry's finish, its one tenant's results and the operators' final
    /// state.
    pub fn finish(mut self) -> RunResult {
        self.0.finish_core();
        let operators = self.operators().map(|op| OperatorSnapshot {
            span: op.span().to_vec(),
            port_live: op.port_live(),
            stats: op.stats,
        });
        let operators = operators.collect();
        let RegistryResult {
            mut queries,
            metrics,
            ..
        } = self.0.into_result();
        let tenant = queries.swap_remove(0);
        RunResult {
            outputs: tenant.outputs,
            aggregates: tenant.aggregates,
            metrics,
            operators,
        }
    }

    /// Structural fingerprint of (query, schemes, plan shape, compiled
    /// recipes, config) — the registry's: two executors agree iff they
    /// compiled to the same thing, which is the precondition for overlaying
    /// one's snapshot onto the other.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }

    /// [`Engine::push_checkpointed`], callable without the trait in scope.
    pub fn push_checkpointed(
        &mut self,
        element: &StreamElement,
        store: &mut CheckpointStore,
        cursor: &mut InputCursor,
    ) -> ExecResult<()> {
        Engine::push_checkpointed(self, element, store, cursor)
    }

    /// [`Engine::commit_checkpoint`], callable without the trait in scope.
    pub fn commit_checkpoint(
        &mut self,
        store: &mut CheckpointStore,
        cursor: &InputCursor,
    ) -> ExecResult<()> {
        Engine::commit_checkpoint(self, store, cursor)
    }
}

impl Engine for Executor {
    type Output = RunResult;

    fn finish(self) -> RunResult {
        Executor::finish(self)
    }
}

/// Everything the driver asks is the registry's.
impl Checkpointed for Executor {
    const KIND: SnapshotKind = QueryRegistry::KIND;

    fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }

    fn write_snapshot(&self, e: &mut Enc) -> Result<(), &'static str> {
        self.0.write_snapshot(e)
    }

    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        self.0.read_snapshot(d)
    }

    fn snapshot_rows(&self) -> u64 {
        self.0.snapshot_rows()
    }

    fn n_streams(&self) -> Option<usize> {
        self.0.n_streams()
    }

    fn push_one(&mut self, element: &StreamElement) -> ExecResult<()> {
        self.0.push_one(element)
    }

    fn counters(&mut self) -> &mut Metrics {
        self.0.counters()
    }

    fn failure(&self) -> Option<ExecError> {
        self.0.failure()
    }

    fn feed_all(&mut self, feed: &Feed) -> ExecResult<()> {
        self.0.feed_all(feed)
    }

    fn purge_all(&mut self) {
        self.0.purge_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PortState;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::punctuation::Punctuation;
    use cjq_core::schema::AttrId;
    use cjq_core::scheme::PunctuationScheme;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    fn item(itemid: i64) -> StreamElement {
        Tuple::of(0, vec![ival(7), ival(itemid), "x".into(), ival(100)]).into()
    }

    fn bid(itemid: i64, incr: i64) -> StreamElement {
        Tuple::of(1, vec![ival(3), ival(itemid), ival(incr)]).into()
    }

    fn bid_close(itemid: i64) -> StreamElement {
        Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(itemid))]).into()
    }

    fn item_unique(itemid: i64) -> StreamElement {
        Punctuation::with_constants(StreamId(0), 4, &[(AttrId(1), ival(itemid))]).into()
    }

    #[test]
    fn auction_end_to_end_with_groupby() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let exec = Executor::compile(&q, &r, &plan, ExecConfig::default())
            .unwrap()
            .with_groupby(
                &[AttrRef {
                    stream: StreamId(1),
                    attr: AttrId(1),
                }],
                Aggregate::Sum(AttrRef {
                    stream: StreamId(1),
                    attr: AttrId(2),
                }),
            );
        let feed = Feed::from_elements(vec![
            item(1),
            item_unique(1),
            bid(1, 5),
            bid(1, 7),
            item(2),
            item_unique(2),
            bid(2, 9),
            bid_close(1), // auction 1 closes: group emitted, states purged
            bid(2, 1),
            bid_close(2),
        ]);
        let res = exec.run(&feed);
        assert_eq!(res.metrics.tuples_in, 6);
        assert_eq!(res.metrics.puncts_in, 4);
        assert_eq!(res.metrics.outputs, 4, "each bid joins its item once");
        // Aggregates: item 1 total 12, item 2 total 10, closed by punctuation.
        assert_eq!(res.aggregates.len(), 2);
        assert!(res.aggregates.contains(&vec![ival(1), ival(12)]));
        assert!(res.aggregates.contains(&vec![ival(2), ival(10)]));
        // After the final purge everything is dead.
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        assert_eq!(res.metrics.last().unwrap().groups, 0);
    }

    /// Group-by's propagation test reads `Υ` of the punctuated stream: the
    /// leaf ports of a binary join stand in for it, so the grouped executor
    /// holds no stream, as the plain one over the same join does — §5.1
    /// reads its ports too — and both emit the same results and forget
    /// every punctuation of a closed auction.
    #[test]
    fn groupby_and_plain_executors_read_the_ports_standing_in_for_every_stream() {
        let (q, r) = fixtures::auction();
        let compile =
            || Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let by_item = AttrRef {
            stream: StreamId(1),
            attr: AttrId(1),
        };
        let engines = [
            compile(),
            compile().with_groupby(&[by_item], Aggregate::Count),
        ];
        let open = [item(1), bid(1, 5), item(2), bid(2, 9)];
        let close = [item_unique(1), bid_close(1), item_unique(2)];
        let (mut mirrored, mut results) = (Vec::new(), Vec::new());
        for mut exec in engines {
            open.iter().for_each(|e| exec.try_push(e).unwrap());
            let engine = exec.engine();
            mirrored.push((engine.held().to_vec(), engine.mirror_live()));
            close.iter().for_each(|e| exec.try_push(e).unwrap());
            // Auction 1 is closed on both sides and drained, once the cycle
            // the punctuations owe is paid; item 2's uniqueness still guards
            // the live bid on it.
            exec.purge_cycle();
            assert_eq!(exec.engine().punct_entries(), 1);
            assert_eq!(exec.engine().punct_dropped, 2);
            exec.try_push(&bid_close(2)).unwrap();
            exec.purge_cycle();
            assert_eq!(exec.engine().punct_entries(), 0);
            let res = exec.finish();
            results.push((res.outputs, res.aggregates.len()));
        }
        assert_eq!(mirrored, [(vec![false; 2], 0), (vec![false; 2], 0)]);
        assert_eq!(results[0].0.len(), 2);
        assert_eq!(results[0].0, results[1].0);
        assert_eq!((results[0].1, results[1].1), (0, 2), "both groups closed");
    }

    /// In a one-operator plan a leaf port's recipe and its stream's mirror
    /// recipe are derived over the same span, so the port holds exactly the
    /// stream's `Υ` rows: the premise on which the ports stand in for the
    /// mirror (`JoinOperator::leaf_ports`). Sealed, the executor holds no
    /// stream, and after every element its port rows are the reference
    /// engine's `Υ` rows, its outputs and purges the reference's. Auction with
    /// a group-by and Fig. 5's MJoin (whose recipes chain through all three
    /// streams), under both cadences.
    #[test]
    fn leaf_ports_hold_the_reference_upsilon_at_every_sample() {
        let auction = |cfg| {
            let (q, r) = fixtures::auction();
            let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
            let mut feed = Vec::new();
            for i in 0..40 {
                feed.extend([item(i), bid(i, 1), bid(i - 1, 2)]);
                feed.extend([item_unique(i - 2), bid_close(i - 3)]);
            }
            let by_item = [AttrRef::new(1, 1)];
            ((q, r), exec.with_groupby(&by_item, Aggregate::Count), feed)
        };
        let fig5 = |cfg| {
            let (q, r) = fixtures::fig5();
            let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
            // S1(A,B), S2(B,C), S3(A,C); S1 closes B, S2 C and S3 A, each
            // key some rounds after its last row.
            let close = |s: usize, a: usize, v: i64| {
                Punctuation::with_constants(StreamId(s), 2, &[(AttrId(a), ival(v))]).into()
            };
            let mut feed = Vec::new();
            for i in 0..40 {
                let row = |s: usize, a: i64, b: i64| Tuple::of(s, vec![ival(a), ival(b)]).into();
                feed.extend([row(0, i, i), row(1, i, i), row(2, i, i), row(0, i, i + 1)]);
                feed.extend([close(1, 1, i - 2), close(0, 1, i - 3), close(2, 0, i - 4)]);
            }
            ((q, r), exec, feed)
        };
        for case in ["auction", "fig5"] {
            for (eager, lazy) in [(true, None), (false, Some(7))] {
                let cadence = lazy.map_or(PurgeCadence::Eager, |batch| PurgeCadence::Lazy {
                    batch: batch as usize,
                });
                let cfg = ExecConfig {
                    cadence,
                    sample_every: 1,
                    ..ExecConfig::default()
                };
                let ((q, r), exec, feed) = if case == "auction" {
                    auction(cfg)
                } else {
                    fig5(cfg)
                };
                assert!(exec.engine().held().iter().all(|h| !h), "{case}: none held");
                let elements: Vec<cjq_oracle::Element> = (feed.iter())
                    .map(|e: &StreamElement| match e {
                        StreamElement::Tuple(t) => {
                            cjq_oracle::Element::Tuple(t.stream, t.values.clone())
                        }
                        StreamElement::Punctuation(p) => cjq_oracle::Element::Punct(p.clone()),
                    })
                    .collect();
                let oracle = cjq_oracle::Config {
                    eager,
                    lazy,
                    sample_every: 1,
                    coverage_limit: cfg.coverage_limit,
                    ..cjq_oracle::Config::default()
                };
                let plan = Plan::mjoin_all(&q);
                let want = cjq_oracle::run(&[(&q, &plan)], &r, &oracle, &elements);
                let res = exec.run(&Feed::from_elements(feed));
                let mut outputs = res.outputs.clone();
                outputs.sort_unstable();
                let m = &res.metrics;
                assert_eq!(
                    (outputs, m.purged),
                    (want.outputs[0].clone(), want.purged[0])
                );
                let ports = m.series.iter().map(|p| (p.at, p.join_state, p.mirror));
                let ys = want.series.iter().map(|s| (s.at, s.mirror, 0));
                assert!(ports.eq(ys), "{case}, {cadence:?}: the port rows are Υ's");
                assert!(m.purged > 0 && want.mirror_purged == m.purged, "{case}");
            }
        }
    }

    /// No predicate joins on `bid.bidderid`, but a group-by on it reads its
    /// closes: they are stored, so a bid that breaks one is quarantined
    /// instead of reopening a group already emitted.
    #[test]
    fn a_scheme_only_the_groupby_reads_is_stored() {
        let (q, mut r) = fixtures::auction();
        r.add(PunctuationScheme::on(1, &[0]).unwrap());
        let by_bidder = AttrRef::new(1, 0);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default())
            .unwrap()
            .with_groupby(&[by_bidder], Aggregate::Count);
        let bidder_close = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(0), ival(3))]);
        let feed = [
            item(1),
            item_unique(1),
            bid(1, 5),
            bidder_close.into(),
            bid(1, 7),
        ];
        let res = exec.run(&Feed::from_elements(feed.to_vec()));
        assert_eq!(res.metrics.violations, 1);
        assert_eq!(res.aggregates, [[ival(3), ival(1)]]);
    }

    /// Operator ports and held mirrors hold what is live (plus at most as
    /// much again awaiting the next amortized reclaim), however long the feed
    /// ran. Fig. 5 on an open registry: every recipe chains through a
    /// partner, and open, it holds all three mirrors (sealed, its leaf ports
    /// would stand in for them).
    #[test]
    fn resident_slots_follow_live_state_not_feed_length() {
        let (q, r) = fixtures::fig5();
        // S1(A,B), S2(B,C), S3(A,C) close key `i` on B, C and A.
        let closes = [(0, 1), (1, 1), (2, 0)];
        for n_keys in [1_000i64, 4_000, 16_000] {
            let mut reg = QueryRegistry::new(r.clone(), ExecConfig::default());
            reg.try_admit(&q, &Plan::mjoin_all(&q), None).unwrap();
            let (mut peak_join, mut peak_mirror) = (0, 0);
            // Waves of 16 concurrent keys, one fully joining triple each.
            for wave in (0..n_keys).step_by(16) {
                let keys = wave..(wave + 16).min(n_keys);
                let triples = keys.clone().flat_map(|i| {
                    (0..3).map(move |s| StreamElement::from(Tuple::of(s, vec![ival(i), ival(i)])))
                });
                let closing = keys.flat_map(|i| {
                    closes.map(|(s, a)| {
                        Punctuation::with_constants(StreamId(s), 2, &[(AttrId(a), ival(i))]).into()
                    })
                });
                for e in triples.chain(closing) {
                    reg.try_push(&e).unwrap();
                    peak_join = peak_join.max(reg.join_state_live());
                    peak_mirror = peak_mirror.max(reg.engine().unwrap().mirror_live());
                }
            }
            assert!(peak_mirror >= 16, "the mirrors are held: {peak_mirror}");
            let engine = reg.engine().unwrap();
            let states = || {
                let ports = reg.ops().flat_map(|op| &op.ports);
                ports.chain(q.stream_ids().map(|s| engine.mirror_state(s)))
            };
            assert_eq!(
                states().map(PortState::slots).sum::<usize>() as i64,
                6 * n_keys
            );
            let resident: usize = states().map(PortState::resident_slots).sum();
            assert!(
                resident <= 2 * (peak_join + peak_mirror) + 64 * states().count(),
                "{n_keys} keys: {resident} resident slots for peaks {peak_join} + {peak_mirror}"
            );
        }
    }

    #[test]
    fn certificate_verifier_samples_rows_and_passes() {
        let (q, r) = fixtures::auction();
        let cfg = ExecConfig {
            verify_certificates: true,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
        let mut feed = Feed::new();
        for i in 0..20 {
            feed.push(item(i));
            feed.push(item_unique(i));
            feed.push(bid(i, 1));
            feed.push(bid_close(i));
        }
        let res = exec.run(&feed);
        assert!(
            res.metrics.certificate_checks > 0,
            "the verifier must sweep the live rows"
        );
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
    }

    #[test]
    fn verifier_accepts_unsafe_plans_with_uncertified_ports() {
        // Fig. 7: a safe query whose left-deep binary plan has unpurgeable
        // ports. The static certificates agree (no recipe, no certificate),
        // so verification passes even though some state grows.
        let (q, r) = fixtures::fig5();
        let cfg = ExecConfig {
            verify_certificates: true,
            ..ExecConfig::default()
        };
        let plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        assert!(exec
            .operators()
            .any(|op| { (0..op.port_spans().len()).any(|p| !op.port_purgeable(p)) }));
        exec.finish();
    }

    #[test]
    fn safe_query_without_punctuations_grows() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let exec = Executor::compile(&q, &r, &plan, ExecConfig::default()).unwrap();
        let mut feed = Feed::new();
        for i in 0..100 {
            feed.push(item(i));
            feed.push(bid(i, 1));
        }
        let res = exec.run(&feed);
        // No punctuations ever arrive: nothing can be purged.
        assert_eq!(res.metrics.last().unwrap().join_state, 200);
        assert_eq!(res.metrics.purged, 0);
    }

    #[test]
    fn punctuations_bound_the_state() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let exec = Executor::compile(&q, &r, &plan, ExecConfig::default()).unwrap();
        let mut feed = Feed::new();
        for i in 0..100 {
            feed.push(item(i));
            feed.push(item_unique(i));
            feed.push(bid(i, 1));
            feed.push(bid_close(i));
        }
        let res = exec.run(&feed);
        assert_eq!(res.metrics.outputs, 100);
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        // The state never holds more than the in-flight auctions.
        assert!(
            res.metrics.peak_join_state <= 4,
            "peak {} should stay tiny",
            res.metrics.peak_join_state
        );
    }

    #[test]
    fn unsafe_plan_grows_while_safe_plan_stays_bounded() {
        // Figure 7: Fig. 5's query, MJoin plan vs (S1 ⋈ S2) ⋈ S3.
        let (q, r) = fixtures::fig5();
        let mk_feed = || {
            let mut feed = Feed::new();
            for i in 0..50i64 {
                // S1(A,B), S2(B,C), S3(A,C): one fully-joining triple per i.
                feed.push(Tuple::of(0, vec![ival(i), ival(i)]));
                feed.push(Tuple::of(1, vec![ival(i), ival(i)]));
                feed.push(Tuple::of(2, vec![ival(i), ival(i)]));
                // Punctuations on every scheme, closing key i.
                feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                    StreamId(0),
                    2,
                    &[(AttrId(1), ival(i))],
                )));
                feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                    StreamId(1),
                    2,
                    &[(AttrId(1), ival(i))],
                )));
                feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                    StreamId(2),
                    2,
                    &[(AttrId(0), ival(i))],
                )));
            }
            feed
        };
        let safe = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res_safe = safe.run(&mk_feed());
        assert_eq!(res_safe.metrics.last().unwrap().join_state, 0);
        assert!(res_safe.metrics.peak_join_state <= 6);

        let unsafe_plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let lower = Executor::compile(&q, &r, &unsafe_plan, ExecConfig::default()).unwrap();
        let res_unsafe = lower.run(&mk_feed());
        // The lower binary join can never purge its S1 input (no punctuation
        // scheme on S2.B): that port alone retains all 50 S1 tuples forever.
        assert!(
            res_unsafe.metrics.last().unwrap().join_state >= 50,
            "unsafe plan state = {}",
            res_unsafe.metrics.last().unwrap().join_state
        );
        // Both plans produce identical results.
        assert_eq!(res_safe.metrics.outputs, res_unsafe.metrics.outputs);
        assert_eq!(res_safe.metrics.outputs, 50);
    }

    #[test]
    fn query_scope_bounds_even_unsafe_plans() {
        let (q, r) = fixtures::fig5();
        let unsafe_plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let cfg = ExecConfig {
            scope: PurgeScope::Query,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &unsafe_plan, cfg).unwrap();
        let mut feed = Feed::new();
        for i in 0..50i64 {
            feed.push(Tuple::of(0, vec![ival(i), ival(i)]));
            feed.push(Tuple::of(1, vec![ival(i), ival(i)]));
            feed.push(Tuple::of(2, vec![ival(i), ival(i)]));
            feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(0),
                2,
                &[(AttrId(1), ival(i))],
            )));
            feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(1),
                2,
                &[(AttrId(1), ival(i))],
            )));
            feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(2),
                2,
                &[(AttrId(0), ival(i))],
            )));
        }
        let res = exec.run(&feed);
        assert_eq!(res.metrics.outputs, 50);
        // §2.4's separate-purge-engine model: plan-independent boundedness.
        assert!(
            res.metrics.peak_join_state <= 8,
            "peak {} should stay bounded under Query scope",
            res.metrics.peak_join_state
        );
    }

    #[test]
    fn lazy_cadence_purges_in_batches() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let cfg = ExecConfig {
            cadence: PurgeCadence::Lazy { batch: 50 },
            sample_every: 10, // sample densely enough to observe the sawtooth
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        let mut feed = Feed::new();
        for i in 0..30 {
            feed.push(item(i));
            feed.push(item_unique(i));
            feed.push(bid(i, 1));
            feed.push(bid_close(i));
        }
        let res = exec.run(&feed);
        // 120 elements / batch 50 => 2 in-run cycles + 1 final.
        assert_eq!(res.metrics.purge_cycles, 3);
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        // Lazy mode holds more state between cycles than eager mode would:
        // the items of up to a batch (their bids are dead on arrival).
        assert!(res.metrics.peak_join_state >= 10);
        assert_eq!(res.metrics.purged_on_arrival, 30);
    }

    /// The `Failed` state: once a push returned an error the engine holds a
    /// half-applied element, so an executor and a registry alike refuse every
    /// later push — of a valid element too — and every commit with that first
    /// error, and nothing reaches the checkpoint directory.
    #[test]
    fn a_failed_engine_refuses_pushes_and_commits_with_the_first_error() {
        use crate::checkpoint::{list_snapshots, CheckpointStore, InputCursor};
        use crate::registry::QueryRegistry;

        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let cfg = ExecConfig {
            admission: AdmissionPolicy::Strict,
            ..ExecConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("cjq-failed-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let mut cursor = InputCursor::zero(q.n_streams());
        // The fourth element breaks bid's promise.
        let prefix = [item(1), bid(1, 1), bid_close(1)];

        let mut exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        prefix.iter().for_each(|e| exec.try_push(e).unwrap());
        let first = exec.try_push(&bid(1, 2)).unwrap_err();
        assert!(matches!(first, ExecError::Admission { clock: 4, .. }));
        assert_eq!(exec.try_push(&item(2)), Err(first.clone()));
        let pushed = exec.push_checkpointed(&item_unique(2), &mut store, &mut cursor);
        assert_eq!(pushed, Err(first.clone()));
        assert_eq!(exec.commit_checkpoint(&mut store, &cursor), Err(first));

        let mut reg = QueryRegistry::new(r.clone(), cfg);
        reg.try_admit(&q, &plan, None).unwrap();
        prefix.iter().for_each(|e| reg.try_push(e).unwrap());
        let first = reg.try_push(&bid(1, 2)).unwrap_err();
        assert!(matches!(first, ExecError::Admission { clock: 4, .. }));
        assert_eq!(reg.try_push(&item(2)), Err(first.clone()));
        let mut batch = ElementBatch::new();
        batch.gather(&prefix);
        assert_eq!(reg.try_push_batch(&batch), Err(first.clone()));
        assert_eq!(reg.commit_checkpoint(&mut store, &cursor), Err(first));

        assert!(list_snapshots(&dir).is_empty(), "nothing was committed");
        let _ = std::fs::remove_dir_all(&dir);

        // A commit the store cannot write fails that commit, not the engine:
        // the element before it was applied whole.
        let mut exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
        let lost = exec.push_checkpointed(&bid_close(1), &mut store, &mut cursor);
        assert!(matches!(lost, Err(ExecError::CheckpointCorrupt { .. })));
        exec.try_push(&item(2)).unwrap();
    }

    /// State that cannot be serialized refuses a commit, by name: a live
    /// tenant's attached sink. Once that tenant retires, the registry
    /// commits.
    #[test]
    fn commits_are_refused_for_a_live_tenants_sink() {
        use crate::checkpoint::{CheckpointStore, InputCursor};
        use crate::sink::CountSink;

        let (q, r) = fixtures::auction();
        let (plan, cfg) = (Plan::mjoin_all(&q), ExecConfig::default());
        let dir = std::env::temp_dir().join(format!("cjq-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let cursor = InputCursor::zero(q.n_streams());
        let refused = |res: ExecResult<()>| match res {
            Err(ExecError::CheckpointCorrupt { detail, .. }) => detail,
            other => panic!("not refused: {other:?}"),
        };

        let mut reg = QueryRegistry::new(r, cfg);
        let id = reg.try_admit(&q, &plan, Some(Box::new(CountSink::new())));
        let id = id.unwrap();
        let why = refused(reg.commit_checkpoint(&mut store, &cursor));
        assert!(
            why.starts_with("queries with attached sinks are not"),
            "{why}"
        );
        assert!(reg.retire(id));
        reg.commit_checkpoint(&mut store, &cursor).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_cadence_disables_purging() {
        let (q, r) = fixtures::auction();
        let cfg = ExecConfig {
            cadence: PurgeCadence::Never,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
        let mut feed = Feed::new();
        for i in 0..20 {
            feed.push(item(i));
            feed.push(item_unique(i));
            feed.push(bid(i, 1));
            feed.push(bid_close(i));
        }
        let mut exec = exec;
        for e in &feed {
            exec.try_push(e).unwrap();
        }
        // Before finish(): no cycle purged an item; each bid arrived after
        // its item's uniqueness punctuation, dead, and was never stored.
        assert_eq!(exec.join_state_live(), 20);
        let res = exec.finish();
        // finish() runs one last cycle, which purges everything.
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        assert_eq!(
            (res.metrics.purged, res.metrics.purged_on_arrival),
            (40, 20)
        );
    }

    #[test]
    fn window_semantics_bound_state_but_can_lose_results() {
        let (q, r) = fixtures::auction();
        // All 60 items posted first, then all bids: an item is 60..120
        // elements older than its bid.
        let mut feed = Feed::new();
        for i in 0..60 {
            feed.push(item(i));
        }
        for i in 0..60 {
            feed.push(bid(i, 1));
        }
        let run = |window: Option<u64>| {
            let cfg = ExecConfig {
                window,
                cadence: PurgeCadence::Never,
                ..ExecConfig::default()
            };
            let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
            exec.run(&feed).metrics
        };
        // No window, no punctuations: complete results, unbounded state.
        let unbounded = run(None);
        assert_eq!(unbounded.outputs, 60);
        assert_eq!(unbounded.last().unwrap().join_state, 120);
        // A window of 200 covers everything: complete and (trivially) bounded.
        let wide = run(Some(200));
        assert_eq!(wide.outputs, 60);
        // A window of 30 keeps state small but evicts items before their
        // bids arrive: results are LOST — the window-baseline trade-off.
        let narrow = run(Some(30));
        assert!(
            narrow.outputs < 60,
            "narrow window loses joins: {}",
            narrow.outputs
        );
        assert!(narrow.peak_join_state <= 40);
    }

    #[test]
    fn violating_tuples_are_rejected_and_counted() {
        let (q, r) = fixtures::auction();
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let feed = Feed::from_elements(vec![
            item(1),
            bid_close(1),
            bid(1, 5), // violates the close punctuation
            bid(2, 5),
        ]);
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 1);
        assert_eq!(res.metrics.tuples_in, 2);
        assert_eq!(res.metrics.outputs, 0);
    }

    #[test]
    fn run_result_reports_per_operator_snapshots() {
        let (q, r) = fixtures::fig5();
        let plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let exec = Executor::compile(&q, &r, &plan, ExecConfig::default()).unwrap();
        let mut feed = Feed::new();
        for i in 0..10i64 {
            feed.push(Tuple::of(0, vec![ival(i), ival(i)]));
            feed.push(Tuple::of(1, vec![ival(i), ival(i)]));
            feed.push(Tuple::of(2, vec![ival(i), ival(i)]));
        }
        let res = exec.run(&feed);
        assert_eq!(res.operators.len(), 2);
        // Bottom-up: lower binary join first, root last.
        assert_eq!(res.operators[0].span, vec![StreamId(0), StreamId(1)]);
        assert_eq!(res.operators[1].span.len(), 3);
        // Without punctuations, the lower join retains its 20 raw inputs.
        assert_eq!(res.operators[0].port_live.iter().sum::<usize>(), 20);
        assert_eq!(res.operators[1].stats.outputs, 10);
    }

    #[test]
    fn compile_rejects_leaf_plans() {
        let (q, r) = fixtures::auction();
        assert!(Executor::compile(&q, &r, &Plan::leaf(0), ExecConfig::default()).is_err());
    }

    /// One rule set: every illegal combination is refused with the same
    /// text by `compile` (as an error, where the rule binds one query) and
    /// by `QueryRegistry::new` (as a panic). Under a coverage limit of 0 an
    /// untiered run kept every row while a tiered one still certified cold
    /// segments dead (auction, 400 items, a 64-row budget: 0 rows purged
    /// against 2,350).
    #[test]
    fn every_illegal_config_is_refused_alike_by_both_entry_points() {
        let (q, r) = fixtures::auction();
        let with = |edit: fn(&mut ExecConfig)| {
            let mut cfg = ExecConfig::default();
            edit(&mut cfg);
            cfg
        };
        let illegal = [
            with(|c| c.coverage_limit = 0),
            with(|c| (c.coverage_limit, c.tiering) = (0, Some(TierConfig::default()))),
            with(|c| (c.window, c.tiering) = (Some(8), Some(TierConfig::default()))),
            with(|c| (c.punct_lifespan, c.tiering) = (Some(8), Some(TierConfig::default()))),
            with(|c| c.window = Some(8)),
            with(|c| c.stall_budget = Some(8)),
            with(|c| c.state_budget = Some(StateBudget::hard(8))),
        ];
        for (i, cfg) in illegal.into_iter().enumerate() {
            let registry = std::panic::catch_unwind(|| QueryRegistry::new(r.clone(), cfg));
            let panicked = registry.expect_err("a registry refuses every rule");
            let text = panicked.downcast_ref::<String>().expect("a message");
            let compiled = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg);
            match compiled.map_err(|e| e.to_string()) {
                Ok(_) => assert!(i >= 4, "case {i}: a rule for one query too"),
                Err(e) => assert_eq!((i < 4, &e), (true, text), "case {i}"),
            }
            assert_eq!(i < 2, text.contains("coverage limit of 0"), "case {i}");
        }
    }
}

//! Executor: compiles an execution plan into an operator tree and drives it
//! over a punctuated feed.
//!
//! The executor owns the [`PurgeEngine`] (raw mirror + punctuation stores),
//! the [`JoinOperator`] tree, and an optional [`GroupBy`] stage over the root
//! output (the paper's Figure 1 pipeline). Purge cycles run eagerly (after
//! every punctuation), lazily (batched), or never, per [`PurgeCadence`] —
//! the Plan-Parameter-II knob of §5.2.

use cjq_core::error::{CoreError, CoreResult};
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrRef, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::arena::{Lowering, OpArena};
use crate::certify::static_certificates;
use crate::checkpoint::{
    CheckpointStore, Codec, Dec, Enc, Fingerprint, InputCursor, SnapshotKind, SnapshotResult,
};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::groupby::{Aggregate, GroupBy};
use crate::guard::{AdmissionGuard, AdmissionPolicy, DeadLetter};
use crate::join::JoinOperator;
use crate::metrics::{Metrics, StatePoint};
use crate::pipeline::{Core, Engine, Pipeline, Run, Snapshot, Stage};
use crate::purge::{fingerprint_recipes, PurgeEngine, PurgeScope};
use crate::sink::{CollectSink, CountSink, OutputBuffer, ResultSink};
use crate::source::{ElementBatch, Feed};
use crate::tier::TierConfig;

/// When purge cycles run (Plan Parameter II of §5.2, after \[6\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PurgeCadence {
    /// Never purge (the no-punctuation baseline: state grows unboundedly).
    Never,
    /// Purge after every punctuation arrival (minimal memory, more work).
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
/// the literal; both go with the next `benchmark` issue (ROADMAP item 4).
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
    /// purgeability certificates, re-check a sample of purge verdicts
    /// against the explaining oracle every cycle, and assert at finish
    /// (a punctuation-quiescent point, after driving purge cycles to a
    /// fixpoint) that no provably-dead tuple is still live. Defaults to the
    /// `verify-certificates` cargo feature.
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
    /// Feeds every execution knob into a structural fingerprint (see
    /// [`Executor::fingerprint`]): a snapshot only overlays onto an executor
    /// whose config matches knob for knob, since the knobs steer purge
    /// cadence, sampling, and budget decisions that the serialized state
    /// already reflects.
    pub(crate) fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.word(match self.scope {
            PurgeScope::Operator => 0,
            PurgeScope::Query => 1,
        });
        match self.cadence {
            PurgeCadence::Never => {
                fp.word(0);
                fp.word(0);
            }
            PurgeCadence::Eager => {
                fp.word(1);
                fp.word(0);
            }
            PurgeCadence::Lazy { batch } => {
                fp.word(2);
                fp.word(batch as u64);
            }
        }
        fp.word(self.punct_lifespan.map_or(u64::MAX, |v| v));
        fp.word(self.window.map_or(u64::MAX, |v| v));
        fp.word(self.sample_every as u64);
        fp.word(self.coverage_limit as u64);
        fp.word(u64::from(self.record_outputs));
        fp.word(u64::from(self.verify_certificates));
        fp.word(match self.admission {
            AdmissionPolicy::Strict => 0,
            AdmissionPolicy::Quarantine => 1,
            AdmissionPolicy::Repair => 2,
        });
        match self.state_budget {
            Some(b) => fp.word(b.max_rows as u64),
            None => fp.word(u64::MAX),
        }
        fp.word(self.stall_budget.map_or(u64::MAX, |v| v));
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

/// End-of-run live-slot ids for every operator port and every mirror stream.
///
/// Slot ids are per-shard-deterministic: two executors fed the same element
/// subsequence assign identical slot ids, which is what lets the sharded
/// merge union replicated (broadcast) state by slot id.
#[derive(Debug, Clone, Default)]
pub struct LiveStateSnapshot {
    /// Per operator (bottom-up, root last), per port: live slot ids.
    pub op_port_slots: Vec<Vec<Vec<usize>>>,
    /// Per stream (indexed by `StreamId.0`): live mirror slot ids.
    pub mirror_slots: Vec<Vec<usize>>,
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

/// A compiled, runnable execution plan.
#[derive(Debug)]
pub struct Executor {
    query: Cjq,
    engine: PurgeEngine,
    /// The plan's operators, bottom-up (children before parents; root last).
    arena: OpArena,
    groupby: Option<GroupBy>,
    /// Punctuations awaiting delivery to the group-by stage: a punctuation
    /// may only close groups once no *stored* tuple of its stream can still
    /// produce matching outputs (the punctuation-propagation condition of
    /// [12]/[6]); until then it is pending.
    pending_group_puncts: Vec<Punctuation>,
    /// Config, clocks, metrics and scratch shared with every engine over the
    /// one pipeline (see [`crate::pipeline`]).
    core: Core,
    outputs: Vec<Vec<Value>>,
    aggregates: Vec<Vec<Value>>,
    /// Schema-shape admission validator (see [`crate::guard`]).
    guard: AdmissionGuard,
    /// Per stream: clock of the last admitted punctuation (stall detector).
    last_punct: Vec<u64>,
    /// Per stream: whether any punctuation scheme is registered (streams
    /// without schemes are never expected to punctuate — not stall-checked).
    has_schemes: Vec<bool>,
    /// Static per-port bound certificates, flattened op-major in bottom-up
    /// operator order (`None` = port unchecked). When set, every element
    /// checks live rows per port against the certificate and a violation is
    /// a hard [`ExecError::PortBoundExceeded`]. Lives outside `ExecConfig`
    /// (which stays `Copy`).
    port_bounds: Option<Vec<Option<u64>>>,
}

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
        plan.validate(query)?;
        if matches!(plan, Plan::Leaf(_)) {
            return Err(CoreError::InvalidPlan(
                "single-stream plans have no join to execute".into(),
            ));
        }
        schemes.validate(query.catalog())?;
        if cfg.tiering.is_some() && (cfg.window.is_some() || cfg.punct_lifespan.is_some()) {
            return Err(CoreError::InvalidPlan(
                "tiering is incompatible with window eviction and punctuation \
                 lifespans: those discard state or coverage on grounds the \
                 cold tier does not track"
                    .into(),
            ));
        }
        if cfg.coverage_limit == 0 {
            return Err(CoreError::InvalidPlan(
                "a coverage limit of 0 keeps rows a tiered run purges: use ≥ 1".into(),
            ));
        }
        let weights = weights.map(<[f64]>::to_vec);
        let (lifespan, limit) = (cfg.punct_lifespan, cfg.coverage_limit);
        let mut engine = PurgeEngine::shared(query, schemes, lifespan, limit, weights);
        engine.subscribe(query, schemes);
        let mut arena = OpArena::default();
        let cx = Lowering {
            query,
            schemes,
            cfg: &cfg,
            engine: &engine,
        };
        arena.intern_plan(&cx, plan, &mut Vec::new());
        if cfg.verify_certificates {
            if let Some(mismatch) =
                static_certificates(query, schemes, cfg.scope, arena.ops(), |s| {
                    engine.mirror_recipe(s).is_some()
                })
            {
                panic!("static certificate violation: {mismatch}");
            }
        }
        // Every recipe this executor will ever check now exists: mirror only
        // what they and §5.1 read. One operator spanning the query stores
        // each stream's rows under the recipe its mirror would purge by, so
        // there §5.1 reads the port.
        let ports = arena.ops().flat_map(JoinOperator::port_recipes).flatten();
        let alone = arena.op(0).filter(|_| arena.slots() == 1);
        engine.close_recipe_set(ports, |u, col| alone?.stand_in(u, col));
        let n_streams = query.n_streams();
        let has_schemes = query
            .stream_ids()
            .map(|s| !engine.punct_store(s).schemes().is_empty())
            .collect();
        Ok(Executor {
            guard: AdmissionGuard::new(query, cfg.admission),
            last_punct: vec![0; n_streams],
            has_schemes,
            query: query.clone(),
            engine,
            arena,
            groupby: None,
            pending_group_puncts: Vec::new(),
            core: Core::new(cfg),
            outputs: Vec::new(),
            aggregates: Vec::new(),
            port_bounds: None,
        })
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
        assert_eq!(
            bounds.len(),
            self.n_ports(),
            "one bound slot per flattened operator port"
        );
        self.port_bounds = if bounds.iter().all(Option::is_none) {
            None
        } else {
            Some(bounds)
        };
    }

    /// Attaches a group-by/aggregation stage over the root operator's output.
    ///
    /// The stage is join-equivalence aware ([`GroupBy::for_query`]): a
    /// punctuation on any attribute join-equivalent to a grouping attribute
    /// can close groups. Delivery is gated on the propagation condition (no
    /// live stored tuple of the punctuated stream still matches), so closed
    /// groups are guaranteed complete.
    ///
    /// # Panics
    /// Panics if a grouping/aggregate attribute is not in the root layout.
    #[must_use]
    pub fn with_groupby(mut self, group_by: &[AttrRef], agg: Aggregate) -> Self {
        let root = self.arena.ops().last().expect("at least one operator");
        let layout = root.out_layout().clone();
        self.groupby = Some(GroupBy::for_query(&self.query, layout, group_by, agg));
        // The propagation condition probes the punctuated stream's mirror.
        self.engine.hold_every_stream();
        self
    }

    /// Routes quarantined elements to `sink` (see [`crate::guard`]): each is
    /// delivered as a row `[reason_code, stream_id, values...]`. Without a
    /// dead-letter sink quarantined elements are only counted.
    #[must_use]
    pub fn with_dead_letter(mut self, sink: Box<dyn ResultSink + Send>) -> Self {
        self.core.dead_letter = DeadLetter::to(sink);
        self
    }

    /// The query this executor runs.
    #[must_use]
    pub fn query(&self) -> &Cjq {
        &self.query
    }

    /// Total live join-state tuples across all operators.
    #[must_use]
    pub fn join_state_live(&self) -> usize {
        Pipeline::join_state_live(self)
    }

    /// The purge engine (mirror + punctuation stores).
    #[must_use]
    pub fn engine(&self) -> &PurgeEngine {
        &self.engine
    }

    /// The operators, bottom-up (root last).
    pub fn operators(&self) -> impl Iterator<Item = &JoinOperator> {
        self.arena.ops()
    }

    /// Operator ports, flattened op-major in bottom-up operator order.
    fn n_ports(&self) -> usize {
        self.arena.ops().map(|op| op.port_spans().len()).sum()
    }

    /// [`Engine::try_push`], callable without the trait in scope.
    pub fn try_push(&mut self, element: &StreamElement) -> ExecResult<()> {
        Engine::try_push(self, element)
    }

    /// Pushes a gathered micro-batch through the pipeline, draining root
    /// results into `sink` (see [`Engine::try_push`] for the error
    /// contract).
    ///
    /// Equivalent to pushing the batch's elements one at a time: runs of
    /// consecutive same-stream tuples flow through the operator cascade as
    /// columnar buffers (capped at purge/sample boundaries), punctuations
    /// are processed individually in order.
    pub fn try_push_batch(
        &mut self,
        batch: &ElementBatch<'_>,
        sink: &mut dyn ResultSink,
    ) -> ExecResult<()> {
        self.push_batch_timed(batch, sink)
    }

    /// Delivers pending punctuations to the group-by stage once safe: a
    /// punctuation on stream `S` closes groups only when no live stored `S`
    /// tuple matches it — otherwise that tuple could still join future data
    /// and add members to an already-emitted group.
    fn deliver_group_punctuations(&mut self) {
        let Some(g) = &mut self.groupby else { return };
        let engine = &self.engine;
        let mut still_pending = Vec::new();
        let mut buf = OutputBuffer::new(g.out_width());
        for p in self.pending_group_puncts.drain(..) {
            let state = engine.mirror_state(p.stream);
            // Probe a mirror hash index when the punctuation pins a constant
            // on an indexed column — O(matching) instead of O(live).
            let indexed_probe = p.constant_attrs().find(|(attr, _)| state.has_index(attr.0));
            let blocked = match indexed_probe {
                Some((attr, value)) => state
                    .probe(attr.0, value)
                    .iter()
                    .filter_map(|&slot| state.get(slot))
                    .any(|row| p.matches(row)),
                None => state.iter_live().any(|(_, row)| p.matches(row)),
            };
            if blocked {
                still_pending.push(p);
            } else {
                buf.clear();
                let closed = g.process_punctuation_into(&p, &mut buf);
                self.core.metrics.aggregates_out += closed as u64;
                self.aggregates.extend(buf.rows().map(<[Value]>::to_vec));
            }
        }
        self.pending_group_puncts = still_pending;
    }

    /// Rows currently resident in the cold (spilled) tier across all
    /// operators (0 unless [`ExecConfig::tiering`] is set).
    #[must_use]
    pub fn cold_rows(&self) -> usize {
        Pipeline::cold_rows(self)
    }

    /// Runs a whole feed, streaming root results into `sink`
    /// (`RunResult::outputs` stays empty — the sink owns the results), and
    /// finishes. [`Engine::try_run`] is this with the executor's own sink.
    pub fn try_run_with_sink(
        mut self,
        feed: &Feed,
        sink: &mut dyn ResultSink,
    ) -> ExecResult<RunResult> {
        self.feed(feed, sink)?;
        sink.finish();
        Ok(self.finish())
    }

    /// [`Engine::finish`], callable without the trait in scope.
    pub fn finish(self) -> RunResult {
        self.finish_detailed().0
    }

    /// Like [`Executor::finish`], additionally returning the live-slot
    /// snapshot of every port and mirror. The sharded executor merges these
    /// per-shard snapshots into one logical state count: partitioned state is
    /// disjoint across shards (sum), broadcast state is replicated (union).
    pub(crate) fn finish_detailed(mut self) -> (RunResult, LiveStateSnapshot) {
        self.finish_core();
        if let Some(budget) = self.core.cfg.stall_budget {
            // Evaluated where it is read: the clock only moves forward, so a
            // stream is stalled now exactly if a per-element check would have
            // flagged it and no punctuation cleared the flag since.
            let since = |s: usize| self.core.clock.saturating_sub(self.last_punct[s]);
            let stalled = |&s: &usize| self.has_schemes[s] && since(s) > budget;
            self.core.metrics.stalled_streams =
                (0..self.last_punct.len()).filter(stalled).collect();
        }
        let operators = self
            .arena
            .ops()
            .map(|op| OperatorSnapshot {
                span: op.span().to_vec(),
                port_live: op.port_live(),
                stats: op.stats,
            })
            .collect();
        let snapshot = LiveStateSnapshot {
            op_port_slots: self
                .arena
                .ops()
                .map(JoinOperator::port_live_slots)
                .collect(),
            mirror_slots: self
                .query
                .stream_ids()
                .map(|s| self.engine.mirror_state(s).live_slots())
                .collect(),
        };
        let result = RunResult {
            outputs: self.outputs,
            aggregates: self.aggregates,
            metrics: self.core.metrics,
            operators,
        };
        (result, snapshot)
    }

    /// Structural fingerprint of (query, schemes, plan shape, compiled
    /// recipes, config): two executors agree iff they compiled to the same
    /// thing, which is the precondition for overlaying one's snapshot onto
    /// the other. The recipes are in it because lag weights
    /// ([`Executor::compile_weighted`]) change them and nothing else. Built
    /// from stable ids only (never interned symbols or `Debug` strings, which
    /// are process-local).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        fingerprint_query(&mut fp, &self.query);
        fingerprint_schemes(&mut fp, &self.query, &self.engine);
        self.arena.fingerprint_into(&mut fp);
        let mirror = self
            .query
            .stream_ids()
            .map(|s| self.engine.mirror_recipe(s));
        fingerprint_recipes(&mut fp, mirror);
        self.core.cfg.fingerprint_into(&mut fp);
        fp.finish()
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

impl Snapshot for Executor {
    const KIND: SnapshotKind = SnapshotKind::Exec;

    fn fingerprint(&self) -> u64 {
        Executor::fingerprint(self)
    }

    /// Serializes every piece of state a push mutates — the snapshot a fresh
    /// compile of the same inputs can overlay to resume byte-identically
    /// (also each shard's sub-snapshot in a
    /// [`Sharded`](crate::parallel::Sharded) frame).
    fn write_snapshot(&self, e: &mut Enc) {
        self.core.write_pacing(e);
        self.last_punct.enc(e);
        self.port_bounds.enc(e);
        self.outputs.enc(e);
        self.core.metrics.write_state(e);
        self.engine.write_state(e);
        self.arena.write_state(e);
    }

    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        self.core.read_pacing(d)?;
        self.last_punct = d.counted("streams", self.last_punct.len())?;
        self.port_bounds = match d.bool()? {
            true => Some(d.counted("bounded ports", self.n_ports())?),
            false => None,
        };
        self.outputs = Codec::dec(d)?;
        self.core.metrics = Metrics::read_state(d)?;
        self.engine.read_state(d)?;
        self.arena.read_state(d, &mut self.core.spill)
    }

    fn not_checkpointable(&self) -> Option<&'static str> {
        self.groupby.as_ref().map(|_| {
            "group-by stages are not checkpointable: open-group state is not \
             serialized"
        })
    }
}

/// What separates the executor from the shared pipeline: root results go to
/// one caller-supplied sink and the group-by stage, the recipe set is closed,
/// and the single-query monitors apply (window, port bounds, stall clock,
/// group-by delivery).
impl Pipeline for Executor {
    type Sink<'s> = dyn ResultSink + 's;

    fn core(&self) -> &Core {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    fn engine(&self) -> Option<&PurgeEngine> {
        Some(&self.engine)
    }

    fn arena(&self) -> &OpArena {
        &self.arena
    }

    fn stage(&mut self) -> Option<Stage<'_>> {
        Some(Stage {
            core: &mut self.core,
            engine: &mut self.engine,
            guard: &self.guard,
            arena: &mut self.arena,
        })
    }

    /// The executor's own sink: root results are recorded into
    /// `RunResult::outputs` under [`ExecConfig::record_outputs`] and merely
    /// counted (`Metrics::outputs`) otherwise.
    fn with_own_sink<R>(
        &mut self,
        f: impl for<'s> FnOnce(&mut Self, &mut Self::Sink<'s>) -> R,
    ) -> R {
        let mut record = CollectSink {
            rows: std::mem::take(&mut self.outputs),
        };
        let mut count = CountSink::new();
        let sink: &mut dyn ResultSink = if self.core.cfg.record_outputs {
            &mut record
        } else {
            &mut count
        };
        let res = f(self, sink);
        self.outputs = record.rows;
        res
    }

    /// The arena's cascade, then root delivery to `sink` and the group-by
    /// stage. The root spans the query, so every run reaches it.
    fn route(
        &mut self,
        run: Run<'_>,
        survivors: &[u32],
        sink: &mut Self::Sink<'_>,
    ) -> ExecResult<()> {
        self.arena.cascade(run, survivors, &mut self.core.metrics);
        let out = self.arena.out(self.arena.slots() - 1);
        if !out.is_empty() {
            self.core.metrics.outputs += out.len() as u64;
            if let Some(g) = &mut self.groupby {
                for row in out.rows() {
                    g.process_tuple(row);
                }
            }
            sink.accept(out);
        }
        Ok(())
    }

    /// The stall detector's clock: when `stream` last punctuated.
    fn note_punct_progress(&mut self, stream: StreamId) {
        if let Some(at) = self.last_punct.get_mut(stream.0) {
            *at = self.core.clock;
        }
    }

    /// A punctuation may only close groups once no *stored* tuple of its
    /// stream can still produce matching outputs; until then it is pending.
    fn punct_observed(&mut self, p: &Punctuation) {
        if self.groupby.is_some() {
            self.pending_group_puncts.push(p.clone());
        }
    }

    fn settle_pending(&mut self) {
        self.deliver_group_punctuations();
    }

    fn evict_window(&mut self) {
        let Some(window) = self.core.cfg.window else {
            return;
        };
        let cutoff = self.core.clock.saturating_sub(window);
        let slots = 0..self.arena.slots();
        let ops = slots.filter_map(|i| Some(self.arena.op_mut(i)?.evict_window(cutoff)));
        let evicted: usize = ops.sum();
        self.engine.evict_window(cutoff);
        self.core.metrics.purged += evicted as u64;
    }

    /// Bound certificates: with [`Executor::set_port_bounds`] armed, every
    /// operator port's live-row peak is recorded and a certified port over
    /// its static bound fails hard — after purge/budget enforcement, so eager
    /// purges get credit before the comparison.
    fn check_monitors(&mut self) -> ExecResult<()> {
        let Some(bounds) = &self.port_bounds else {
            return Ok(());
        };
        let mut flat = 0usize;
        for (oi, op) in self.arena.ops().enumerate() {
            for (pi, live) in op.port_live_iter().enumerate() {
                self.core.metrics.track_port_peak(flat, live);
                if let Some(bound) = bounds[flat].filter(|&bound| live as u64 > bound) {
                    return Err(ExecError::PortBoundExceeded {
                        op: oi,
                        port: pi,
                        live,
                        bound,
                        clock: self.core.clock,
                    });
                }
                flat += 1;
            }
        }
        Ok(())
    }

    fn per_element_monitors(&self) -> bool {
        self.port_bounds.is_some()
    }

    /// Open groups, and per-port live-row peaks.
    fn on_sample(&mut self, point: &mut StatePoint) {
        point.groups = self.groupby.as_ref().map_or(0, GroupBy::open_groups);
        let mut flat = 0usize;
        for op in self.arena.ops() {
            for live in op.port_live_iter() {
                self.core.metrics.track_port_peak(flat, live);
                flat += 1;
            }
        }
    }
}

/// Folds a query's shape (stream count, equi-join predicates) into `fp`.
pub(crate) fn fingerprint_query(fp: &mut Fingerprint, query: &Cjq) {
    fp.word(query.n_streams() as u64);
    for p in query.predicates() {
        fp.word(p.left.stream.0 as u64);
        fp.word(p.left.attr.0 as u64);
        fp.word(p.right.stream.0 as u64);
        fp.word(p.right.attr.0 as u64);
    }
}

/// Folds the punctuation schemes registered per stream of `query` into `fp`.
pub(crate) fn fingerprint_schemes(fp: &mut Fingerprint, query: &Cjq, engine: &PurgeEngine) {
    for s in query.stream_ids() {
        let store = engine.punct_store(s);
        fp.word(store.schemes().len() as u64);
        for scheme in store.schemes() {
            fp.word(u64::from(scheme.is_ordered()));
            fp.word(scheme.punctuatable().len() as u64);
            for a in scheme.punctuatable() {
                fp.word(a.0 as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PortState;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::schema::AttrId;

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

    /// Group-by's propagation test reads mirrors no recipe accounts for, so
    /// it holds every stream; the plain executor over the same binary join
    /// holds none — §5.1 reads its ports — and both emit the same results and
    /// forget every punctuation of a closed auction.
    #[test]
    fn groupby_holds_every_stream_and_ports_stand_in_for_unheld_mirrors() {
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
        let (mut mirrored, mut outputs) = (Vec::new(), Vec::new());
        for mut exec in engines {
            open.iter().for_each(|e| exec.try_push(e).unwrap());
            mirrored.push(exec.engine.mirror_live());
            close.iter().for_each(|e| exec.try_push(e).unwrap());
            // Auction 1 is closed on both sides and drained; item 2's
            // uniqueness still guards the live bid on it.
            assert_eq!(exec.engine.punct_entries(), 1);
            assert_eq!(exec.engine.punct_dropped, 2);
            exec.try_push(&bid_close(2)).unwrap();
            assert_eq!(exec.engine.punct_entries(), 0);
            outputs.push(exec.finish().outputs);
        }
        assert_eq!(mirrored, [0, 4]);
        assert_eq!(outputs[0].len(), 2);
        assert_eq!(outputs[0], outputs[1]);
    }

    /// Operator ports and held mirrors hold what is live (plus at most as
    /// much again awaiting the next amortized reclaim), however long the feed
    /// ran. Fig. 5: every recipe chains through a partner, so all three
    /// mirrors are held (a binary join would hold none).
    #[test]
    fn resident_slots_follow_live_state_not_feed_length() {
        let (q, r) = fixtures::fig5();
        // S1(A,B), S2(B,C), S3(A,C) close key `i` on B, C and A.
        let closes = [(0, 1), (1, 1), (2, 0)];
        for n_keys in [1_000i64, 4_000, 16_000] {
            let mut exec =
                Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
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
                    exec.try_push(&e).unwrap();
                    peak_join = peak_join.max(exec.join_state_live());
                    peak_mirror = peak_mirror.max(exec.engine.mirror_live());
                }
            }
            assert!(peak_mirror >= 16, "the mirrors are held: {peak_mirror}");
            let states = || {
                let ports = exec.operators().flat_map(|op| &op.ports);
                ports.chain(q.stream_ids().map(|s| exec.engine.mirror_state(s)))
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
            "verifier must re-check rows against the oracle"
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
        // Lazy mode holds more state between cycles than eager mode would.
        assert!(res.metrics.peak_join_state >= 20);
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
        // Before finish(): nothing was purged along the way.
        assert_eq!(exec.join_state_live(), 40);
        let res = exec.finish();
        // finish() runs one last cycle, which purges everything.
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
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

    /// Under a coverage limit of 0 an untiered run kept every row while a
    /// tiered one still certified cold segments dead (auction, 400 items,
    /// a 64-row budget: 0 rows purged against 2,350). Neither compiles now,
    /// and a registry over one panics.
    #[test]
    fn compile_rejects_a_zero_coverage_limit() {
        let (q, r) = fixtures::auction();
        for tiering in [None, Some(crate::tier::TierConfig::default())] {
            let cfg = ExecConfig {
                coverage_limit: 0,
                tiering,
                ..ExecConfig::default()
            };
            let err = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap_err();
            assert!(err.to_string().contains("coverage limit of 0"), "{err}");
        }
        let cfg = ExecConfig {
            coverage_limit: 0,
            ..ExecConfig::default()
        };
        let registry = std::panic::catch_unwind(|| crate::registry::QueryRegistry::new(r, cfg));
        assert!(registry.is_err(), "a registry refuses it too");
    }
}

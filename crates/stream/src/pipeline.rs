//! The one pipeline: the algorithm of the one engine,
//! [`QueryRegistry`](crate::registry::QueryRegistry), and the driver every
//! engine shares.
//!
//! The paper's runtime is one algorithm: admit an element against the
//! punctuation stores, probe/insert, and on a purge cycle run the chained
//! purge recipe over every port. Sharing join state between queries changes
//! which operators a run goes through and whose recipes must agree, not the
//! algorithm: there is one engine, a [`QueryRegistry`] (an executor is one
//! sealed with its query as the one tenant), and the algorithm lives here
//! once, as its methods: the element loop, run and
//! punctuation admission, the per-element cadence step with its monitors
//! (window eviction, port bounds, the stall clock, all state of [`Core`]),
//! the purge → demote rungs of the budget ladder, and the purge-cycle and
//! finish skeletons. Where a run's results go — each tenant's sink or
//! record, a caller's sink, a tenant's group stage — is the registry's
//! delivery (`registry.rs`). The checkpoint driver is the provided methods
//! of [`Checkpointed`]: a snapshot, a one-element push and three
//! whole-engine hooks, answered by the registry, by the executor through
//! its registry, and by the sharded plane
//! ([`Sharded`](crate::parallel::Sharded)) by routing to its shards.
//! [`Engine`] is the public face of all three — the one definition of run,
//! checkpoint, restore and resume — and asks only for [`Checkpointed`].
//! Everything is statically dispatched; shared code never asks which engine
//! it serves.

use std::path::Path;
use std::time::Instant;

use cjq_core::punctuation::Punctuation;
use cjq_core::schema::StreamId;
use cjq_core::value::Value;

use crate::checkpoint::{
    list_snapshots, CheckpointStore, Codec, Dec, Enc, InputCursor, Manifest, SnapshotError,
    SnapshotKind, SnapshotResult,
};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecConfig, PurgeCadence};
use crate::guard::{AdmissionFault, AdmissionPolicy, DeadLetter};
use crate::join::JoinOperator;
use crate::metrics::{Metrics, StatePoint};
use crate::punct_store::PunctClass;
use crate::purge::{CheckScratch, PurgeEngine};
use crate::registry::QueryRegistry;
use crate::sink::{ResultSink, Stamped};
use crate::source::{BatchItem, ElementBatch, Feed};
use crate::tier::{SpillStore, TierStats};

/// Elements gathered per [`ElementBatch`] by the whole-feed drivers. Not a
/// knob: runs are capped at every purge/sample/watchdog boundary, so the
/// chunk size changes no output, metric or sampled point
/// (`tests/batch_equivalence.rs`).
pub(crate) const FEED_CHUNK: usize = 256;

/// The pacing state every engine carries, whatever it routes through.
#[derive(Debug)]
pub(crate) struct Core {
    pub cfg: ExecConfig,
    /// Element clock: every offered tuple and punctuation advances it by one.
    pub clock: u64,
    /// Elements since the last purge cycle.
    pub since_purge: usize,
    /// Under [`PurgeCadence::Eager`], a punctuation came since the last purge
    /// cycle: one is owed ([`QueryRegistry::pay_owed_cycle`]).
    pub owed: bool,
    /// When the next state sample is due: the least multiple of
    /// `cfg.sample_every` above `clock`, kept so per-run steps never divide.
    next_sample: u64,
    pub metrics: Metrics,
    /// Reusable per-segment scratch: the admitted stretches of its runs.
    pub scratch_runs: Vec<Run>,
    /// Reusable purge-pass buffers, lent to every mirror and operator pass.
    pub purge_scratch: CheckScratch,
    /// Cold-tier spill directory owner, present iff `cfg.tiering` is set.
    pub spill: Option<SpillStore>,
    /// Reusable budget-ladder scratch: live-row recency stamps.
    pub stamp_scratch: Vec<u64>,
    /// Optional dead-letter routing for refused elements.
    pub dead_letter: DeadLetter,
    /// The `Failed` state: the first error a push returned. The element that
    /// raised it was only partly applied, so every later push and checkpoint
    /// commit is refused with a clone of it (see [`QueryRegistry::attempt`]).
    pub failed: Option<ExecError>,
    /// Per stream: the clock of its last admitted punctuation (the stall
    /// detector's, read at finish against [`ExecConfig::stall_budget`]).
    pub last_punct: Vec<u64>,
    /// Static per-port row bounds, flattened op-major in bottom-up operator
    /// order (`None` = port unchecked), checked on every element (see
    /// [`QueryRegistry::check_port_bounds`]). Outside `ExecConfig`, which is
    /// `Copy`.
    pub port_bounds: Option<Vec<Option<u64>>>,
}

impl Core {
    pub(crate) fn new(cfg: ExecConfig) -> Core {
        Core {
            spill: cfg.tiering.map(|t| SpillStore::new(t.shard_tag)),
            next_sample: next_sample_after(0, cfg.sample_every),
            cfg,
            clock: 0,
            since_purge: 0,
            owed: false,
            metrics: Metrics::default(),
            scratch_runs: Vec::new(),
            purge_scratch: CheckScratch::default(),
            stamp_scratch: Vec::new(),
            dead_letter: DeadLetter::none(),
            failed: None,
            last_punct: Vec::new(),
            port_bounds: None,
        }
    }

    /// What a snapshot body starts with: pacing (an owed cycle included), the
    /// monitors' state and the metrics.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.usize(self.since_purge);
        e.bool(self.owed);
        self.last_punct.enc(e);
        self.port_bounds.enc(e);
        self.metrics.write_state(e);
    }

    /// Overlays [`Core::write_state`]'s words onto a core whose engine has
    /// `n_ports` operator ports.
    pub(crate) fn read_state(&mut self, d: &mut Dec<'_>, n_ports: usize) -> SnapshotResult<()> {
        self.clock = d.u64()?;
        if self.clock > u64::MAX >> 1 {
            return Err(SnapshotError("element clock out of range".into()));
        }
        self.since_purge = d.usize()?;
        self.owed = d.bool()?;
        self.next_sample = next_sample_after(self.clock, self.cfg.sample_every);
        self.last_punct = d.counted("streams", self.last_punct.len())?;
        self.port_bounds = match d.bool()? {
            true => Some(d.counted("bounded ports", n_ports)?),
            false => None,
        };
        self.metrics = Metrics::read_state(d)?;
        Ok(())
    }

    /// Refuses one punctuation per the admission policy.
    fn refuse_punct(
        &mut self,
        policy: AdmissionPolicy,
        fault: AdmissionFault,
        p: &Punctuation,
    ) -> ExecResult<()> {
        if policy == AdmissionPolicy::Strict {
            return Err(ExecError::Admission {
                clock: self.clock,
                fault,
            });
        }
        self.metrics
            .count_quarantine_punct(fault.code(), p.stream.0);
        self.dead_letter.emit_punct(&fault, p, self.clock);
        Ok(())
    }
}

/// The least multiple of `every` above `clock`; `u64::MAX` when `every` is 0
/// (sampling off).
fn next_sample_after(clock: u64, every: usize) -> u64 {
    match every as u64 {
        0 => u64::MAX,
        every => (clock / every + 1) * every,
    }
}

/// One admitted stretch of a segment: consecutive tuples of `stream`, the
/// rows stamped `base + 1..=end`, stride-packed from flat offset `start` of
/// the segment's arena. A row the admission check refuses cuts a run into
/// two stretches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub stream: StreamId,
    width: usize,
    start: usize,
    pub base: u64,
    pub end: u64,
}

impl Run {
    /// The stretch's rows with their stamps, read from `arena`.
    pub(crate) fn rows<'a>(&self, arena: &'a [Value]) -> Stamped<'a> {
        let len = (self.end - self.base) as usize * self.width;
        let rows = arena[self.start..self.start + len].chunks_exact(self.width.max(1));
        rows.zip((self.base + 1..self.end + 1).chain([].iter().copied()))
    }
}

/// The stamp below which at least `excess` of `stamps` fall (ties may take
/// more — a budget is a ceiling, not a target).
fn cutoff_for(stamps: &mut [u64], excess: usize) -> u64 {
    let k = excess.min(stamps.len()).saturating_sub(1);
    let (_, nth, _) = stamps.select_nth_unstable(k);
    *nth + 1
}

/// [`ExecError::CheckpointCorrupt`] for the checkpoint directory `dir`.
fn corrupt_at(dir: &Path, detail: String) -> ExecError {
    ExecError::CheckpointCorrupt {
        path: dir.display().to_string(),
        detail,
    }
}

/// The one checkpoint driver: route, commit when due, restore, resume. Its
/// provided methods — and [`Engine`]'s — need only what is required here, so
/// they serve the registry, the executor and the sharded plane alike.
pub(crate) trait Checkpointed: Sized {
    /// The snapshot kind this engine writes and accepts.
    const KIND: SnapshotKind;
    /// What a snapshot overlays onto: equal for engines built alike.
    fn fingerprint(&self) -> u64;
    /// Appends the snapshot body, or says why this engine's state cannot be
    /// snapshotted: a silent partial snapshot would be worse than an error.
    fn write_snapshot(&self, e: &mut Enc) -> Result<(), &'static str>;
    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()>;
    /// Live rows a checkpoint covers (reported as `Metrics::checkpoint_rows`).
    fn snapshot_rows(&self) -> u64;
    /// How many streams the input cursor tracks; `None` before any query.
    fn n_streams(&self) -> Option<usize>;
    /// Pushes one element, untimed. An engine that outlives an error keeps
    /// the first one and answers every later push with it.
    fn push_one(&mut self, element: &StreamElement) -> ExecResult<()>;
    /// Where commits, restores and the driver's wall time are counted.
    fn counters(&mut self) -> &mut Metrics;
    /// The error an earlier push left this engine failed with, if any: the
    /// guard of a caller's commit.
    fn failure(&self) -> Option<ExecError>;
    /// Pushes the whole feed through the batched path, root results going to
    /// the engine's own sink.
    fn feed_all(&mut self, feed: &Feed) -> ExecResult<()>;
    /// Runs one purge cycle now.
    fn purge_all(&mut self);

    /// The complete checkpoint payload: manifest (kind, fingerprint, cadence,
    /// input cursor) followed by the engine's snapshot body.
    fn snapshot_payload(&self, every: u64, cursor: &InputCursor) -> ExecResult<Vec<u8>> {
        let mut e = Enc::new();
        Manifest {
            kind: Self::KIND,
            fingerprint: self.fingerprint(),
            every,
            cursor: cursor.clone(),
        }
        .write(&mut e);
        let refused = |why: &str| ExecError::CheckpointCorrupt {
            path: "<config>".into(),
            detail: why.into(),
        };
        self.write_snapshot(&mut e).map_err(refused)?;
        Ok(e.buf)
    }

    /// Commits one snapshot of the current state to `store` unconditionally.
    fn commit_snapshot(
        &mut self,
        store: &mut CheckpointStore,
        cursor: &InputCursor,
    ) -> ExecResult<()> {
        let payload = self.snapshot_payload(store.every(), cursor)?;
        let rows = self.snapshot_rows();
        store
            .commit(&payload, rows)
            .map_err(|e| corrupt_at(store.dir(), e.to_string()))?;
        let metrics = self.counters();
        metrics.checkpoints_written += 1;
        metrics.checkpoint_rows += rows;
        Ok(())
    }

    /// Pushes `elements` and checkpoints when due: every element advances
    /// `cursor` and the store's element counter; once the store's cadence
    /// has accumulated **and** the element is a punctuation (snapshots are
    /// punctuation-aligned consistent cuts), the full state is committed.
    /// The clock is read once per call and per commit: `Metrics::elapsed_ns`
    /// is brought up to date before every snapshot (which serializes it) and
    /// excludes the commits.
    fn push_all_checkpointed(
        &mut self,
        elements: &[StreamElement],
        store: &mut CheckpointStore,
        cursor: &mut InputCursor,
    ) -> ExecResult<()> {
        let mut start = Instant::now();
        for e in elements {
            self.push_one(e)?;
            cursor.advance(e.stream());
            store.note_element();
            if store.due(e.is_punctuation()) {
                self.counters().elapsed_ns += start.elapsed().as_nanos();
                self.commit_snapshot(store, cursor)?;
                start = Instant::now();
            }
        }
        self.counters().elapsed_ns += start.elapsed().as_nanos();
        Ok(())
    }

    /// Pushes a whole feed with punctuation-aligned checkpointing every
    /// `every` elements into `dir`, from a zero cursor.
    fn run_checkpointed(&mut self, feed: &Feed, dir: &Path, every: u64) -> ExecResult<()> {
        let n_streams = self
            .n_streams()
            .ok_or_else(|| corrupt_at(dir, "no queries admitted: nothing to checkpoint".into()))?;
        let mut store =
            CheckpointStore::open(dir, every).map_err(|e| corrupt_at(dir, e.to_string()))?;
        let mut cursor = InputCursor::zero(n_streams);
        self.push_all_checkpointed(feed.elements(), &mut store, &mut cursor)
    }
}

/// Who takes root results in place of each query's own sink or record: the
/// sink an executor's caller passes.
pub(crate) type Taker<'s> = Option<&'s mut dyn ResultSink>;

/// The algorithm, once, on the one engine.
impl QueryRegistry {
    /// The live operators, bottom-up.
    pub(crate) fn ops(&self) -> impl Iterator<Item = &JoinOperator> {
        self.arena.ops()
    }

    /// Rows resident in the cold tier across the operators.
    pub(crate) fn cold_rows(&self) -> usize {
        self.ops().map(JoinOperator::cold_rows).sum()
    }

    /// Runs the push `f` unless an earlier one failed, and keeps the first
    /// error in [`Core::failed`]: an error leaves the element that raised it
    /// half-applied, so nothing may be pushed or committed after. Wrapped
    /// once around each push entry point, never per element inside one.
    #[inline]
    pub(crate) fn attempt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<T> {
        if let Some(first) = &self.core.failed {
            return Err(first.clone());
        }
        let res = f(self);
        if let Err(e) = &res {
            self.core.failed = Some(e.clone());
        }
        res
    }

    /// One element without the two clock reads: drivers that push a whole
    /// feed add their loop's time to `Metrics::elapsed_ns` once. A tuple is
    /// a segment of one.
    pub(crate) fn push_untimed(&mut self, element: &StreamElement) -> ExecResult<()> {
        match element {
            StreamElement::Tuple(t) => {
                let run = (t.stream, t.values.len(), 0, 1);
                self.push_segment(&t.values, std::iter::once(run), &mut None)?;
            }
            StreamElement::Punctuation(p) => self.try_push_punctuation(p)?,
        }
        self.post_element()
    }

    /// A gathered micro-batch, equivalent to pushing its elements one at a
    /// time: punctuations one by one in order, and between two of them the
    /// tuple runs as segments (capped by [`QueryRegistry::run_cap`]).
    pub(crate) fn push_batch_timed(
        &mut self,
        batch: &ElementBatch<'_>,
        taker: &mut Taker<'_>,
    ) -> ExecResult<()> {
        self.attempt(|this| {
            let start = Instant::now();
            let items = batch.items();
            // Item `i` is next; `done` of its rows went in an earlier segment.
            let (mut i, mut done) = (0, 0);
            while let Some(item) = items.get(i) {
                if let BatchItem::Punct(p) = *item {
                    this.try_push_punctuation(p)?;
                    this.post_element()?;
                    i += 1;
                    continue;
                }
                let mut cap = this.run_cap();
                let segment = std::iter::from_fn(|| {
                    let BatchItem::Run {
                        stream,
                        width,
                        start,
                        rows,
                    } = *items.get(i).filter(|_| cap > 0)?
                    else {
                        return None;
                    };
                    let take = (rows - done).min(cap);
                    let run = (stream, width, start + done * width, take);
                    (cap, done) = (cap - take, done + take);
                    if done == rows {
                        (i, done) = (i + 1, 0);
                    }
                    Some(run)
                });
                this.push_segment(batch.arena(), segment, taker)?;
                this.post_element()?;
            }
            let metrics = &mut this.core.metrics;
            metrics.batches_processed += 1;
            metrics.elapsed_ns += start.elapsed().as_nanos();
            Ok(())
        })
    }

    /// The one feed driver: gathers [`FEED_CHUNK`]-element chunks into one
    /// reused [`ElementBatch`] (the steady state allocates nothing per
    /// element) and pushes each as a batch.
    pub(crate) fn feed(&mut self, feed: &Feed, taker: &mut Taker<'_>) -> ExecResult<()> {
        let mut batch = ElementBatch::new();
        for chunk in feed.elements().chunks(FEED_CHUNK) {
            batch.gather(chunk);
            self.push_batch_timed(&batch, taker)?;
        }
        Ok(())
    }

    /// How many more tuples may flow as one segment before some per-element
    /// event (purge cycle, sample, window eviction, budget or bound check) is
    /// due. Always at least 1.
    fn run_cap(&self) -> usize {
        let core = &self.core;
        let cfg = &core.cfg;
        if cfg.window.is_some() || cfg.state_budget.is_some() || core.port_bounds.is_some() {
            // Window eviction, the budget and bound certificates are
            // per-element: batching must not let state coast past a check.
            return 1;
        }
        let to_purge = match cfg.cadence {
            PurgeCadence::Lazy { batch } => batch.saturating_sub(core.since_purge),
            _ => usize::MAX,
        };
        let to_sample = core.next_sample.saturating_sub(core.clock);
        let to_sample = usize::try_from(to_sample).unwrap_or(usize::MAX);
        to_purge.min(to_sample).max(1)
    }

    /// The tuple step — the only one. Admits one segment, the `(stream,
    /// width, flat start, rows)` runs of `arena` between two punctuations
    /// and within [`QueryRegistry::run_cap`]: the owed cycle once, then per
    /// row in order the shape and punctuation-violation checks and the mirror
    /// insert. Then one cascade routes the admitted stretches through the
    /// arena, and the roots' rows go to their readers once: `taker` where
    /// given, else each query's own. The stores change only on punctuation
    /// arrival, so checking a segment's rows against them up front is
    /// checking each on arrival. A refusal under [`AdmissionPolicy::Strict`]
    /// ends the segment on the refused row, and the rows before it are still
    /// routed: what one-element pushes leave.
    fn push_segment(
        &mut self,
        arena: &[Value],
        runs: impl Iterator<Item = (StreamId, usize, usize, usize)>,
        taker: &mut Taker<'_>,
    ) -> ExecResult<()> {
        // The violation check reads the stores §5.1 trims.
        self.pay_owed_cycle();
        let mut runs = runs.peekable();
        let Some((core, engine, guard)) = self.stage() else {
            let stream = runs.peek().map_or(StreamId(0), |run| run.0);
            return Err(ExecError::UnroutableStream(stream));
        };
        let strict = guard.policy() == AdmissionPolicy::Strict;
        let mut admitted = std::mem::take(&mut core.scratch_runs);
        admitted.clear();
        let mut refused = Ok(());
        'rows: for (stream, width, start, rows) in runs {
            let shape = guard.check_tuple_shape(stream, width);
            for i in 0..rows {
                (core.clock, core.since_purge) = (core.clock + 1, core.since_purge + 1);
                let (now, row) = (core.clock, &arena[start + i * width..][..width]);
                let fault = match &shape {
                    Some(fault) => fault.clone(),
                    None if engine.observe_row_at(stream, row, now, &mut core.purge_scratch) => {
                        core.metrics.tuples_in += 1;
                        match admitted.last_mut() {
                            Some(run) if run.stream == stream && run.end + 1 == now => {
                                run.end = now
                            }
                            _ => admitted.push(Run {
                                stream,
                                width,
                                start: start + i * width,
                                base: now - 1,
                                end: now,
                            }),
                        }
                        continue;
                    }
                    None => {
                        core.metrics.violations += 1;
                        AdmissionFault::PunctuationViolation { stream }
                    }
                };
                if strict {
                    refused = Err(ExecError::Admission { clock: now, fault });
                    break 'rows;
                }
                core.metrics.count_quarantine_row(fault.code(), stream.0);
                core.dead_letter.emit_tuple(&fault, stream, row, now);
            }
        }
        if !admitted.is_empty() {
            let engine = self.engine.as_ref().expect("admitted by the engine");
            self.arena.cascade(arena, &admitted, engine, &mut self.core);
            self.drain_roots(taker);
        }
        self.core.scratch_runs = admitted;
        refused
    }

    /// Admits one punctuation: shape, then the scheme invariants against the
    /// store's current coverage, then the store — and under
    /// [`PurgeCadence::Eager`] marks the purge cycle it may enable owed.
    fn try_push_punctuation(&mut self, p: &Punctuation) -> ExecResult<()> {
        let Some((core, engine, guard)) = self.stage() else {
            return Err(ExecError::UnroutableStream(p.stream));
        };
        core.clock += 1;
        core.since_purge += 1;
        core.metrics.puncts_in += 1;
        let policy = guard.policy();
        if let Some(fault) = guard.check_punct_shape(p) {
            return core.refuse_punct(policy, fault, p);
        }
        match engine.punct_store(p.stream).classify(p) {
            PunctClass::Regressive => {
                if policy != AdmissionPolicy::Repair {
                    let fault = AdmissionFault::RegressiveBound { stream: p.stream };
                    return core.refuse_punct(policy, fault, p);
                }
                // Repair = clamp: admitting it only refreshes the threshold's
                // lifespan clock (the store never regresses) — coverage, and
                // hence every purge decision, is unchanged.
                core.metrics.repaired += 1;
            }
            PunctClass::Duplicate if policy == AdmissionPolicy::Repair => {
                // Repair = dedup: dropping an exact duplicate changes no
                // coverage; it only skips a lifespan refresh, which can delay
                // purges but never cause a wrong one.
                core.metrics.repaired += 1;
                core.last_punct[p.stream.0] = core.clock;
                return Ok(());
            }
            _ => {}
        }
        engine.observe_punctuation(p, core.clock);
        core.last_punct[p.stream.0] = core.clock;
        self.hold_group_punct(p);
        match self.core.cfg.cadence {
            // The cycle settles the group stages at its end.
            PurgeCadence::Eager => self.core.owed = true,
            _ => self.settle_groups(),
        }
        Ok(())
    }

    /// Runs the purge cycle a punctuation run owes, if one is owed (see
    /// [`PurgeCadence::Eager`] for where).
    pub(crate) fn pay_owed_cycle(&mut self) {
        if self.core.owed {
            self.run_purge_cycle();
        }
    }

    /// Per-element bookkeeping: cadence-driven purge cycles, window eviction,
    /// the budget ladder, monitors, state sampling. Called once per
    /// punctuation and once per segment — [`QueryRegistry::run_cap`] ends a
    /// segment at every clock position where anything here fires, so a
    /// segment of `n` tuples and `n` tuples pushed alone are indistinguishable.
    fn post_element(&mut self) -> ExecResult<()> {
        let core = &self.core;
        let sample = core.clock >= core.next_sample;
        let due = match core.cfg.cadence {
            PurgeCadence::Lazy { batch } => core.since_purge >= batch,
            // Owed: paid before a sample, and at once under a lifespan (a
            // cycle's expiry depends on its clock).
            _ => core.owed && (sample || core.cfg.punct_lifespan.is_some()),
        };
        if due {
            self.run_purge_cycle();
        }
        self.evict_window();
        // Budget before sampling, so sampled peaks respect the ceiling.
        self.enforce_budget()?;
        self.check_port_bounds()?;
        if sample {
            let core = &mut self.core;
            core.next_sample = next_sample_after(core.clock, core.cfg.sample_every);
            self.sample();
        }
        Ok(())
    }

    /// Sliding-window eviction: rows older than [`ExecConfig::window`]
    /// elements leave every port and the mirror.
    fn evict_window(&mut self) {
        let Some(window) = self.core.cfg.window else {
            return;
        };
        let cutoff = self.core.clock.saturating_sub(window);
        let evicted: usize = self
            .arena
            .ops_mut()
            .map(|(_, op)| op.evict_window(cutoff))
            .sum();
        self.core.metrics.purged += evicted as u64;
        if let Some(engine) = &mut self.engine {
            engine.evict_window(cutoff);
        }
    }

    /// Bound certificates: with [`Core::port_bounds`] armed, every operator
    /// port's live-row peak is recorded and a certified port over its static
    /// bound fails hard — after purge/budget enforcement, so eager purges get
    /// credit before the comparison.
    fn check_port_bounds(&mut self) -> ExecResult<()> {
        let QueryRegistry { core, arena, .. } = self;
        let Some(bounds) = &core.port_bounds else {
            return Ok(());
        };
        for (flat, (op, port, live)) in arena.port_live().enumerate() {
            core.metrics.track_port_peak(flat, live);
            if let Some(bound) = bounds[flat].filter(|&bound| live as u64 > bound) {
                return Err(ExecError::PortBoundExceeded {
                    op,
                    port,
                    live,
                    bound,
                    clock: core.clock,
                });
            }
        }
        Ok(())
    }

    /// Bounded-state watchdog ladder: over budget, purge first (proving rows
    /// dead is always preferable), then, tiered, demote cold rows to disk;
    /// whatever still doesn't fit is [`ExecError::StateBudgetExceeded`].
    fn enforce_budget(&mut self) -> ExecResult<()> {
        let Some(budget) = self.core.cfg.state_budget else {
            return Ok(());
        };
        if self.join_state_live() <= budget.max_rows {
            return Ok(());
        }
        self.run_purge_cycle();
        let mut live = self.join_state_live();
        if live <= budget.max_rows {
            return Ok(());
        }
        if let Some(tier_cfg) = self.core.cfg.tiering {
            // Demote the least-recently-probed rows into cold segments, down
            // to the low watermark so steady-state inserts don't re-trip the
            // budget every element. Probes fault matches back on demand.
            let target = budget.max_rows * usize::from(tier_cfg.low_watermark_pct.min(100)) / 100;
            let excess = live.saturating_sub(target);
            if excess > 0 {
                let mut touched = std::mem::take(&mut self.core.stamp_scratch);
                touched.clear();
                for op in self.ops() {
                    op.live_touched(&mut touched);
                }
                let cutoff = cutoff_for(&mut touched, excess);
                self.core.stamp_scratch = touched;
                let spill = self.core.spill.as_mut();
                let spill = spill.expect("spill store exists iff tiering is configured");
                for (i, op) in self.arena.ops_mut() {
                    op.demote_colder_than(cutoff, spill, i, tier_cfg.segment_rows);
                }
            }
            live = self.join_state_live();
            if live <= budget.max_rows {
                return Ok(());
            }
        }
        Err(ExecError::StateBudgetExceeded {
            live,
            budget: budget.max_rows,
            clock: self.core.clock,
        })
    }

    /// One purge cycle: lifespan expiry, rows purged to their fixpoint, the
    /// punctuation purge once, log trims, the group stages, and — under
    /// `verify_certificates` — the runtime certificate checks.
    pub(crate) fn run_purge_cycle(&mut self) {
        let QueryRegistry {
            core,
            engine: Some(engine),
            ..
        } = self
        else {
            return;
        };
        (core.since_purge, core.owed) = (0, false);
        core.metrics.purge_cycles += 1;
        if core.cfg.punct_lifespan.is_some() {
            engine.expire_punctuations(core.clock);
        }
        let chains = engine.port_chains;
        // Rows to their fixpoint: only a purge from `Υ` can make another row
        // dead. The mirror pass repeats until it purges nothing; one pass then
        // decides every port against the settled `Υ` — repeated to its own
        // fixpoint where the ports are `Υ` and a port recipe chains through.
        loop {
            let mirror = engine.purge_mirror(&mut core.purge_scratch);
            core.metrics.purge_candidates_examined += mirror.examined;
            if mirror.purged == 0 {
                break;
            }
        }
        loop {
            let ops = self.purge_ops();
            self.core.metrics.purged += ops.purged;
            self.core.metrics.purge_candidates_examined += ops.examined;
            if ops.purged == 0 || !chains {
                break;
            }
        }
        // §5.1, over the union of the subscribers' predicates and last reader
        // of the logs: the keys to test, against rows as the purges left them.
        let engine = self.engine.as_mut().expect("checked above");
        engine.purge_punctuations(self.arena.ops());
        // A port found keeping an entry logs its purges from now on: its
        // row's leaving is news to the next cycle's pass.
        for &(op, port) in &engine.keepers {
            let (_, op) = self.arena.ops_mut().nth(op).expect("a live operator");
            op.ports[port].enable_retirement_log();
        }
        engine.end_cycle(self.arena.ops_mut().flat_map(|(_, op)| &mut op.ports));
        self.settle_groups();
        let (true, Some(engine)) = (self.core.cfg.verify_certificates, self.engine()) else {
            return;
        };
        // Per-cycle certificate check over every live row: wherever a row's
        // own cells settle a recipe they say what the chain walk says, and —
        // rows being at their fixpoint — no row is provably dead.
        let mut checked = engine.audit_mirror(true);
        for op in self.ops() {
            checked += op.audit(engine, true);
            // Cold-tier half of the invariant: a purge cycle must also have
            // dropped every segment whose summaries a stored recipe covers —
            // a covered segment surviving the cycle would be provably-dead
            // rows outliving their certificate on disk.
            assert!(
                !op.any_certified_cold_segment(engine),
                "certificate violation: a punctuation-covered cold segment \
                 survived a purge cycle"
            );
        }
        self.core.metrics.certificate_checks += checked;
    }

    /// Records one state sample.
    fn sample(&mut self) {
        let engine = self.engine();
        let point = StatePoint {
            at: self.core.clock,
            join_state: self.join_state_live(),
            mirror: engine.map_or(0, PurgeEngine::mirror_live),
            punct_entries: engine.map_or(0, PurgeEngine::punct_entries),
            groups: self.open_groups(),
            cold: self.cold_rows(),
        };
        for (flat, (.., live)) in self.arena.port_live().enumerate() {
            self.core.metrics.track_port_peak(flat, live);
        }
        self.core.metrics.sample(point);
    }

    /// Everything `finish` does before the result is assembled: rehydrate the
    /// cold tier, the final purge cycle (checked under `verify_certificates`),
    /// the final sample, the engine and tier counters, the stalled streams.
    pub(crate) fn finish_core(&mut self) {
        self.core.dead_letter.finish();
        let tiered = self.core.cfg.tiering.is_some();
        if tiered {
            // Rehydrate every cold row before the final purge cycle: the
            // quiescent-point purge totals and the live snapshot then match
            // a never-tiered run exactly (the tier-equivalence guarantee).
            for (_, op) in self.arena.ops_mut() {
                op.rehydrate_all(self.core.clock);
            }
        }
        self.run_purge_cycle();
        self.sample();
        if let Some(engine) = &self.engine {
            let metrics = &mut self.core.metrics;
            metrics.mirror_purged = engine.mirror_purged;
            metrics.punct_dropped = engine.punct_dropped;
        }
        if tiered {
            let mut ts = TierStats::default();
            for op in self.ops() {
                ts.merge_from(&op.tier_stats());
            }
            let metrics = &mut self.core.metrics;
            metrics.rows_demoted = ts.rows_demoted;
            metrics.rows_faulted = ts.rows_faulted;
            metrics.segments_written = ts.segments_written;
            metrics.segments_retired = ts.segments_retired;
        }
        if let (Some(budget), Some(engine)) = (self.core.cfg.stall_budget, &self.engine) {
            // Evaluated where it is read: the clock only moves forward, so a
            // stream is stalled now exactly if a per-element check would have
            // flagged it and no punctuation cleared the flag since. A stream
            // without schemes is never expected to punctuate.
            let core = &self.core;
            let schemed = |s: usize| !engine.punct_store(StreamId(s)).schemes().is_empty();
            let since = |s: usize| core.clock.saturating_sub(core.last_punct[s]);
            let stalled = (0..core.last_punct.len()).filter(|&s| schemed(s) && since(s) > budget);
            self.core.metrics.stalled_streams = stalled.collect();
        }
    }
}

/// The driving surface of [`Executor`](crate::exec::Executor),
/// [`QueryRegistry`](crate::registry::QueryRegistry) and the sharded plane
/// ([`Sharded`](crate::parallel::Sharded)): push, purge, checkpoint, run,
/// restore and resume, each defined once. Sealed: the supertrait is
/// crate-private. After a push returns an error the engine is failed (the
/// element was only partly applied): every later push and
/// [`Engine::commit_checkpoint`] returns that first error again;
/// [`Engine::finish`] still reports what was counted up to it.
#[allow(private_bounds)]
pub trait Engine: Checkpointed {
    /// What a finished run hands back.
    type Output;

    /// The final purge cycle (with its certificate checks) and sample, then
    /// the results.
    fn finish(self) -> Self::Output;

    /// Pushes one element; root results go to the engine's own sink
    /// (recorded under [`ExecConfig::record_outputs`], counted otherwise).
    ///
    /// # Errors
    /// Admission refusals under [`AdmissionPolicy::Strict`], watchdog and
    /// bound overruns, and
    /// [`UnroutableStream`](ExecError::UnroutableStream) while no query was
    /// admitted.
    fn try_push(&mut self, element: &StreamElement) -> ExecResult<()> {
        let start = Instant::now();
        self.push_one(element)?;
        self.counters().elapsed_ns += start.elapsed().as_nanos();
        Ok(())
    }

    /// Runs one purge cycle now (paying an owed one): lifespan expiry,
    /// operator and mirror passes to their fixpoint, then §5.1 punctuation
    /// purging.
    fn purge_cycle(&mut self) {
        self.purge_all();
    }

    /// [`Engine::try_run`], panicking where it would return an error.
    fn run(self, feed: &Feed) -> Self::Output {
        self.try_run(feed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pushes the whole feed through the batched path into the engine's own
    /// sink (a sharded plane: one worker thread per shard), then finishes.
    fn try_run(mut self, feed: &Feed) -> ExecResult<Self::Output> {
        self.feed_all(feed)?;
        Ok(self.finish())
    }

    /// Pushes one element and checkpoints when due: every element advances
    /// `cursor` and the store's element counter; once the store's cadence has
    /// accumulated **and** the element is a punctuation (snapshots are
    /// punctuation-aligned consistent cuts), the full state is committed
    /// atomically to the store's directory.
    fn push_checkpointed(
        &mut self,
        element: &StreamElement,
        store: &mut CheckpointStore,
        cursor: &mut InputCursor,
    ) -> ExecResult<()> {
        self.push_all_checkpointed(std::slice::from_ref(element), store, cursor)
    }

    /// Commits one snapshot of the current state to `store` unconditionally.
    /// Refused by a failed engine (a half-applied element must not reach
    /// disk) and by state that cannot be serialized: a query streaming to an
    /// attached sink. A commit the store could not write is returned and not
    /// kept: the element before it was applied whole.
    fn commit_checkpoint(
        &mut self,
        store: &mut CheckpointStore,
        cursor: &InputCursor,
    ) -> ExecResult<()> {
        match self.failure() {
            Some(first) => Err(first),
            None => self.commit_snapshot(store, cursor),
        }
    }

    /// Pushes the whole feed with punctuation-aligned checkpointing every
    /// `every` elements into `dir`, then finishes.
    fn try_run_checkpointed(
        mut self,
        feed: &Feed,
        dir: &Path,
        every: u64,
    ) -> ExecResult<Self::Output> {
        self.run_checkpointed(feed, dir, every)?;
        Ok(self.finish())
    }

    /// Restores an engine from the newest valid snapshot in `dir` onto what
    /// `build` makes: an executor compiled, or a registry with **every** query
    /// of the original run admitted in the original order (later-retired ones
    /// included; retirement is re-applied from the snapshot), from the same
    /// inputs. `build` is told the phase it serves for its error text. The
    /// snapshot's structural fingerprint must match the built engine's
    /// ([`ExecError::RestoreMismatch`]). A corrupt newest snapshot falls back
    /// to the previous retained one (`Metrics::snapshot_fallbacks`); only when
    /// none validates is it [`ExecError::CheckpointCorrupt`].
    ///
    /// Returns the engine, a store continuing the snapshot sequence at the
    /// recorded cadence, and the input cursor to resume the feed from.
    fn restore(
        dir: &Path,
        build: impl FnOnce(&str) -> Result<Self, String>,
    ) -> ExecResult<(Self, CheckpointStore, InputCursor)> {
        let corrupt = |detail: String| corrupt_at(dir, detail);
        let (payload, fallbacks, path) = CheckpointStore::load_latest(dir).map_err(corrupt)?;
        let mut this = build("restore").map_err(corrupt)?;
        let mut d = Dec::new(&payload);
        let manifest = Manifest::read(&mut d).map_err(|e| corrupt(e.to_string()))?;
        if manifest.kind != Self::KIND {
            return Err(corrupt(format!(
                "snapshot at {} holds {:?} state, not {:?}",
                path.display(),
                manifest.kind,
                Self::KIND
            )));
        }
        let expected = this.fingerprint();
        if manifest.fingerprint != expected {
            return Err(ExecError::RestoreMismatch {
                expected,
                found: manifest.fingerprint,
            });
        }
        this.read_snapshot(&mut d)
            .and_then(|()| d.expect_end())
            .map_err(|e| corrupt(e.to_string()))?;
        let store =
            CheckpointStore::open(dir, manifest.every).map_err(|e| corrupt(e.to_string()))?;
        let metrics = this.counters();
        metrics.restores += 1;
        metrics.snapshot_fallbacks += fallbacks;
        Ok((this, store, manifest.cursor))
    }

    /// [`Engine::restore`], then the rest of `feed` from the recorded cursor
    /// — skipping exactly the elements the snapshot consumed — checkpointing
    /// at the recorded cadence, then [`Engine::finish`]. A directory with no
    /// snapshot (a crash before the first commit) cold-starts the whole feed
    /// at cadence `every`, which is ignored otherwise. Either way the result
    /// is byte-identical to an uninterrupted [`Engine::try_run_checkpointed`]
    /// (modulo wall time and the checkpoint counters themselves).
    fn try_resume(
        dir: &Path,
        build: impl Fn(&str) -> Result<Self, String>,
        feed: &Feed,
        every: u64,
    ) -> ExecResult<Self::Output> {
        if list_snapshots(dir).is_empty() {
            let mut this = build("cold start").map_err(|e| corrupt_at(dir, e))?;
            this.run_checkpointed(feed, dir, every)?;
            return Ok(this.finish());
        }
        let (mut this, mut store, mut cursor) = Self::restore(dir, build)?;
        let done = usize::try_from(cursor.elements).unwrap_or(usize::MAX);
        let rest = feed.elements().get(done..).unwrap_or(&[]);
        this.push_all_checkpointed(rest, &mut store, &mut cursor)?;
        Ok(this.finish())
    }
}
